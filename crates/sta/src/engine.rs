//! Full-circuit forward static timing analysis (Section 4).

use ssdm_cells::CellLibrary;
use ssdm_core::{Bound, Capacitance, Edge, Time};
use ssdm_netlist::{Circuit, NetId};

use crate::error::StaError;
use crate::incremental::unconstrained_participation;
use crate::kernel::GateTable;
use crate::propagate::{DelaysUsed, ModelKind};
use crate::window::LineTiming;

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
    /// Fails when a gate cannot be mapped onto library cells.
    pub fn net_loads(&self) -> Result<Vec<Capacitance>, StaError> {
        Ok(self.table()?.loads().to_vec())
    }

    fn table(&self) -> Result<GateTable<'a>, StaError> {
        GateTable::new(self.circuit, self.library, &self.config)
    }

    /// Runs forward analysis with one worker thread per topological
    /// level chunk — bit-identical to [`Sta::run`], but each level's
    /// gates are evaluated concurrently. Worth it only from several
    /// thousand gates up: the threads are spawned per level, and on 2
    /// cores a 2-thread pass took 2.3× the serial time at 520 nets and
    /// broke even near 4k.
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
        let part = unconstrained_participation(self.circuit.n_nets());
        self.table()?.pass_parallel(&part, threads)
    }

    /// Runs forward analysis: arrival and transition-time windows for both
    /// edges of every line (Figure 6, forward half).
    ///
    /// # Errors
    ///
    /// Fails on unmappable gates or missing library cells.
    pub fn run(&self) -> Result<StaResult, StaError> {
        let _span = ssdm_obs::span("sta.run");
        let part = unconstrained_participation(self.circuit.n_nets());
        self.table()?.pass(&part)
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
    /// Assembles a result from a pass's state.
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

    /// The per-line windows, per-gate used delays and inverting flags.
    pub(crate) fn into_parts(self) -> (Vec<LineTiming>, Vec<DelaysUsed>, Vec<bool>) {
        (self.lines, self.used, self.inverting)
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
