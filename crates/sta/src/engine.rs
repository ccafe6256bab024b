//! Full-circuit forward static timing analysis (Section 4).

use ssdm_cells::CellLibrary;
use ssdm_core::{Bound, Capacitance, Edge, Time};
use ssdm_netlist::{Circuit, GateType, NetId};

use crate::error::StaError;
use crate::propagate::{
    emit_corner_events, stage_windows_traced, DelaysUsed, ModelKind, StageProvenance,
};
use crate::stage::{stage_plan, StagePlan};
use crate::window::{LineTiming, PinWindow};

/// Analysis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StaConfig {
    /// Delay model to propagate with.
    pub model: ModelKind,
    /// Arrival window applied to every primary input, both edges.
    pub pi_arrival: Bound,
    /// Transition-time window applied to every primary input.
    pub pi_ttime: Bound,
    /// Extra load on primary outputs (pad/flip-flop input).
    pub po_load: Capacitance,
}

impl Default for StaConfig {
    fn default() -> StaConfig {
        StaConfig {
            model: ModelKind::Proposed,
            pi_arrival: Bound::point(Time::ZERO),
            pi_ttime: Bound::new(Time::from_ns(0.2), Time::from_ns(0.4)).expect("valid"),
            po_load: Capacitance::from_ff(9.0),
        }
    }
}

impl StaConfig {
    /// The same configuration with a different model (for side-by-side
    /// Table 2 comparisons).
    pub fn with_model(mut self, model: ModelKind) -> StaConfig {
        self.model = model;
        self
    }
}

/// The static timing analyzer.
#[derive(Debug)]
pub struct Sta<'a> {
    circuit: &'a Circuit,
    library: &'a CellLibrary,
    config: StaConfig,
}

/// Forward-analysis results: per-line windows plus the delay bounds each
/// gate consumed from each input (for the backward pass and for ITR).
#[derive(Debug, Clone)]
pub struct StaResult {
    lines: Vec<LineTiming>,
    /// `used[gate_net][pin][in_edge.index()]` — delay window from that
    /// input edge to the corresponding output edge.
    used: Vec<DelaysUsed>,
    /// Whether each composite gate is logically inverting.
    inverting: Vec<bool>,
    model: ModelKind,
}

impl<'a> Sta<'a> {
    /// Creates an analyzer.
    pub fn new(circuit: &'a Circuit, library: &'a CellLibrary, config: StaConfig) -> Sta<'a> {
        Sta {
            circuit,
            library,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StaConfig {
        &self.config
    }

    /// The capacitive load on each net: the sum of the fan-out cells'
    /// input capacitances plus the primary-output load.
    ///
    /// # Errors
    ///
    /// Fails when a consumer gate cannot be mapped onto library cells.
    pub fn net_loads(&self) -> Result<Vec<Capacitance>, StaError> {
        let mut loads = vec![Capacitance::ZERO; self.circuit.n_nets()];
        for id in self.circuit.topo() {
            let gate = self.circuit.gate(id);
            if gate.gtype == GateType::Input {
                continue;
            }
            let plan = stage_plan(gate.gtype, gate.fanin.len(), &gate.name)?;
            let cap = self.library.require(&plan.first)?.input_cap();
            for &f in &gate.fanin {
                loads[f.index()] = loads[f.index()] + cap;
            }
        }
        for &po in self.circuit.outputs() {
            loads[po.index()] = loads[po.index()] + self.config.po_load;
        }
        Ok(loads)
    }

    /// Runs forward analysis with one worker thread per topological
    /// level chunk — bit-identical to [`Sta::run`], but each level's
    /// gates are evaluated concurrently. Worth it only from several
    /// thousand gates up; see [`crate::incremental::PARALLEL_THRESHOLD`].
    ///
    /// # Errors
    ///
    /// Fails on unmappable gates or missing library cells.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    pub fn run_parallel(&self, threads: usize) -> Result<StaResult, StaError> {
        let _span = ssdm_obs::span("sta.run.parallel");
        let mut engine = crate::incremental::IncrementalSta::new(
            self.circuit,
            self.library,
            self.config.clone(),
        )?;
        let part = crate::incremental::unconstrained_participation(self.circuit.n_nets());
        engine.full_pass_parallel(&part, threads)?;
        Ok(engine.snapshot())
    }

    /// Runs forward analysis: arrival and transition-time windows for both
    /// edges of every line (Figure 6, forward half).
    ///
    /// # Errors
    ///
    /// Fails on unmappable gates or missing library cells.
    pub fn run(&self) -> Result<StaResult, StaError> {
        let _span = ssdm_obs::span("sta.run");
        let n = self.circuit.n_nets();
        let loads = self.net_loads()?;
        let mut lines = vec![LineTiming::default(); n];
        let mut used: Vec<DelaysUsed> = vec![Vec::new(); n];
        let mut inverting = vec![true; n];
        for id in self.circuit.topo() {
            let gate = self.circuit.gate(id);
            if gate.gtype == GateType::Input {
                lines[id.index()] =
                    LineTiming::symmetric(self.config.pi_arrival, self.config.pi_ttime);
                continue;
            }
            let plan = stage_plan(gate.gtype, gate.fanin.len(), &gate.name)?;
            let pins: Vec<PinWindow> = gate
                .fanin
                .iter()
                .map(|&f| PinWindow::sta(lines[f.index()]))
                .collect();
            let (lt, total_used, prov) =
                self.propagate_gate_traced(&plan, &pins, loads[id.index()])?;
            if ssdm_obs::events_enabled() {
                emit_corner_events(id.index() as u32, &lt, &prov);
            }
            lines[id.index()] = lt;
            used[id.index()] = total_used;
            inverting[id.index()] = plan.inverting();
        }
        Ok(StaResult {
            lines,
            used,
            inverting,
            model: self.config.model,
        })
    }

    /// Propagates through a gate's one or two stages. Public to ITR, which
    /// re-runs it with refined pin participations.
    pub fn propagate_gate(
        &self,
        plan: &StagePlan,
        pins: &[PinWindow],
        out_load: Capacitance,
    ) -> Result<(LineTiming, DelaysUsed), StaError> {
        let (lt, used, _) = self.propagate_gate_traced(plan, pins, out_load)?;
        Ok((lt, used))
    }

    /// [`Sta::propagate_gate`] plus per-bound corner provenance for the
    /// composite gate (two-stage plans compose the winner through the
    /// internal inverter; see [`StageProvenance::compose`]).
    ///
    /// # Errors
    ///
    /// Fails on missing library cells or cell-query failures.
    pub fn propagate_gate_traced(
        &self,
        plan: &StagePlan,
        pins: &[PinWindow],
        out_load: Capacitance,
    ) -> Result<(LineTiming, DelaysUsed, StageProvenance), StaError> {
        let cell1 = self.library.require(&plan.first)?;
        match &plan.second {
            None => stage_windows_traced(cell1, self.config.model, pins, out_load),
            Some(second) => {
                let cell2 = self.library.require(second)?;
                let (mid, used1, prov1) =
                    stage_windows_traced(cell1, self.config.model, pins, cell2.input_cap())?;
                let (out, used2, prov2) = stage_windows_traced(
                    cell2,
                    self.config.model,
                    &[PinWindow::sta(mid)],
                    out_load,
                )?;
                // Compose per-pin delay bounds across the two stages: the
                // final edge `e` enters pin `i` as edge `e` (two inversions)
                // and enters the inverter as `e.inverted()`.
                let mut total: DelaysUsed = vec![[None, None]; pins.len()];
                for (pin, stage1) in used1.iter().enumerate() {
                    for e in Edge::BOTH {
                        let d1 = stage1[e.index()];
                        let d2 = used2[0][e.inverted().index()];
                        total[pin][e.index()] = match (d1, d2) {
                            (Some(a), Some(b)) => Some(a.add(b)),
                            _ => None,
                        };
                    }
                }
                Ok((out, total, StageProvenance::compose(&prov1, &prov2)))
            }
        }
    }
}

/// Read access to a forward-analysis result — implemented by plain STA
/// results and by ITR's refined results, so the backward pass and the
/// violation checks work on either.
pub trait TimingView {
    /// The windows of a line.
    fn line(&self, net: NetId) -> &LineTiming;
    /// Delay bounds consumed from `(gate, pin, in_edge)`, when that edge
    /// participates.
    fn delay_used(&self, gate: NetId, pin: usize, in_edge: Edge) -> Option<Bound>;
    /// Whether the composite gate driving `net` inverts.
    fn gate_inverting(&self, net: NetId) -> bool;

    /// Smallest arrival over all primary outputs and both edges — the
    /// paper's Table 2 "min-delay at outputs" (union of PO timing ranges).
    fn endpoint_min_delay(&self, circuit: &Circuit) -> Time {
        circuit
            .outputs()
            .iter()
            .map(|&po| self.line(po).earliest())
            .fold(Time::INFINITY, Time::min)
    }

    /// Largest arrival over all primary outputs and both edges.
    fn endpoint_max_delay(&self, circuit: &Circuit) -> Time {
        circuit
            .outputs()
            .iter()
            .map(|&po| self.line(po).latest())
            .fold(Time::NEG_INFINITY, Time::max)
    }
}

impl TimingView for StaResult {
    fn line(&self, net: NetId) -> &LineTiming {
        &self.lines[net.index()]
    }

    fn delay_used(&self, gate: NetId, pin: usize, in_edge: Edge) -> Option<Bound> {
        StaResult::delay_used(self, gate, pin, in_edge)
    }

    fn gate_inverting(&self, net: NetId) -> bool {
        self.inverting[net.index()]
    }
}

impl StaResult {
    /// Assembles a result from the incremental engine's state.
    pub(crate) fn from_parts(
        lines: Vec<LineTiming>,
        used: Vec<DelaysUsed>,
        inverting: Vec<bool>,
        model: ModelKind,
    ) -> StaResult {
        StaResult {
            lines,
            used,
            inverting,
            model,
        }
    }

    /// The windows of a line.
    pub fn line(&self, net: NetId) -> &LineTiming {
        &self.lines[net.index()]
    }

    /// All line windows, indexed by net.
    pub fn lines(&self) -> &[LineTiming] {
        &self.lines
    }

    /// Delay bounds consumed from `(gate, pin, in_edge)`, when that edge
    /// participates.
    pub fn delay_used(&self, gate: NetId, pin: usize, in_edge: Edge) -> Option<Bound> {
        self.used
            .get(gate.index())
            .and_then(|pins| pins.get(pin))
            .and_then(|edges| edges[in_edge.index()])
    }

    /// Whether the composite gate driving `net` inverts.
    pub fn gate_inverting(&self, net: NetId) -> bool {
        self.inverting[net.index()]
    }

    /// The model the result was computed with.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// Smallest arrival over all primary outputs and both edges — the
    /// paper's Table 2 "min-delay at outputs" (union of PO timing ranges).
    pub fn endpoint_min_delay(&self, circuit: &Circuit) -> Time {
        circuit
            .outputs()
            .iter()
            .map(|&po| self.lines[po.index()].earliest())
            .fold(Time::INFINITY, Time::min)
    }

    /// Largest arrival over all primary outputs and both edges.
    pub fn endpoint_max_delay(&self, circuit: &Circuit) -> Time {
        circuit
            .outputs()
            .iter()
            .map(|&po| self.lines[po.index()].latest())
            .fold(Time::NEG_INFINITY, Time::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_netlist::suite;

    use crate::testlib::library;

    #[test]
    fn c17_proposed_vs_pin_to_pin() {
        let c = suite::c17();
        let lib = library();
        let prop = Sta::new(&c, lib, StaConfig::default()).run().unwrap();
        let p2p = Sta::new(
            &c,
            lib,
            StaConfig::default().with_model(ModelKind::PinToPin),
        )
        .run()
        .unwrap();
        let min_prop = prop.endpoint_min_delay(&c);
        let min_p2p = p2p.endpoint_min_delay(&c);
        let max_prop = prop.endpoint_max_delay(&c);
        let max_p2p = p2p.endpoint_max_delay(&c);
        // The paper's Table 2 claim: same max-delay, smaller min-delay.
        assert!(
            min_prop < min_p2p,
            "proposed min {min_prop} vs pin-to-pin {min_p2p}"
        );
        assert!(
            (max_prop - max_p2p).abs() < Time::from_ns(1e-9),
            "max delays must agree: {max_prop} vs {max_p2p}"
        );
        // Sanity: c17 is 2–3 NAND levels deep.
        assert!(min_prop > Time::ZERO);
        assert!(max_prop < Time::from_ns(5.0));
    }

    #[test]
    fn windows_widen_with_depth() {
        let c = suite::c17();
        let lib = library();
        let r = Sta::new(&c, lib, StaConfig::default()).run().unwrap();
        let g10 = c.find("10").unwrap(); // level-1 gate
        let o22 = c.find("22").unwrap(); // level-2+ output
        let w1 = r.line(g10).rise.unwrap().arrival.width();
        let w2 = r.line(o22).rise.unwrap().arrival.width();
        assert!(w2 >= w1, "windows can only widen forward: {w1} vs {w2}");
    }

    #[test]
    fn loads_accumulate_fanout() {
        let c = suite::c17();
        let lib = library();
        let sta = Sta::new(&c, lib, StaConfig::default());
        let loads = sta.net_loads().unwrap();
        // Net 11 fans out to gates 16 and 19 (two NAND2 pins); net 22 is a
        // PO with the configured load.
        let n11 = c.find("11").unwrap();
        let nand2_cap = lib.get("NAND2").unwrap().input_cap();
        assert_eq!(loads[n11.index()], nand2_cap + nand2_cap);
        let o22 = c.find("22").unwrap();
        assert_eq!(loads[o22.index()], StaConfig::default().po_load);
    }

    #[test]
    fn composite_gates_analyze() {
        use ssdm_netlist::{CircuitBuilder, GateType};
        let mut b = CircuitBuilder::new("mix");
        b.input("a");
        b.input("b");
        b.input("c");
        b.gate("g1", GateType::And, &["a", "b"]).unwrap();
        b.gate("g2", GateType::Or, &["g1", "c"]).unwrap();
        b.gate("g3", GateType::Buf, &["g2"]).unwrap();
        b.output("g3");
        let c = b.build().unwrap();
        let lib = library();
        let r = Sta::new(&c, lib, StaConfig::default()).run().unwrap();
        let out = c.find("g3").unwrap();
        let lt = r.line(out);
        assert!(lt.rise.is_some() && lt.fall.is_some());
        // AND+OR+BUF: five inverting stages on the a→g3 path ⇒ sensible
        // positive arrival.
        assert!(lt.earliest() > Time::ZERO);
        assert!(lt.latest() > lt.earliest());
        // Non-inverting composites are recorded as such.
        assert!(!r.gate_inverting(c.find("g1").unwrap()));
        assert!(!r.gate_inverting(out));
    }

    #[test]
    fn synthetic_circuit_analyzes_clean() {
        let c = suite::synthetic("c880s").unwrap();
        let lib = library();
        let r = Sta::new(&c, lib, StaConfig::default()).run().unwrap();
        let min = r.endpoint_min_delay(&c);
        let max = r.endpoint_max_delay(&c);
        assert!(min > Time::ZERO, "min {min}");
        assert!(max > min);
        // Depth ~tens of levels at ~0.1–0.5 ns per level.
        assert!(max < Time::from_ns(100.0), "max {max}");
    }

    #[test]
    fn delay_used_is_recorded() {
        let c = suite::c17();
        let lib = library();
        let r = Sta::new(&c, lib, StaConfig::default()).run().unwrap();
        let g10 = c.find("10").unwrap();
        for pin in 0..2 {
            for e in Edge::BOTH {
                let d = r.delay_used(g10, pin, e).unwrap();
                assert!(d.s() > Time::ZERO);
                assert!(d.l() >= d.s());
            }
        }
        // PIs record nothing.
        let pi = c.find("1").unwrap();
        assert!(r.delay_used(pi, 0, Edge::Rise).is_none());
    }
}
