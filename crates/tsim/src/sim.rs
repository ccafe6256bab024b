//! The two-frame timing simulator.

use ssdm_cells::CellLibrary;
use ssdm_core::{Edge, Time, Transition};
use ssdm_models::DelayModel;
use ssdm_netlist::{Circuit, GateType, NetId};
use ssdm_sta::{GateTable, StaConfig, StageCells};

use crate::error::TsimError;

/// A fully specified two-pattern stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct SimInput {
    /// First-frame primary-input values.
    pub v1: Vec<bool>,
    /// Second-frame primary-input values.
    pub v2: Vec<bool>,
    /// Arrival time of every switching primary input.
    pub pi_arrival: Time,
    /// Transition time of every switching primary input.
    pub pi_ttime: Time,
}

impl SimInput {
    /// A stimulus with the default launch edge (arrival 0, 0.3 ns ramps).
    ///
    /// # Panics
    ///
    /// Panics if vector lengths differ from the circuit's input count.
    pub fn step(circuit: &Circuit, v1: &[bool], v2: &[bool]) -> SimInput {
        assert_eq!(v1.len(), circuit.inputs().len(), "v1 length");
        assert_eq!(v2.len(), circuit.inputs().len(), "v2 length");
        SimInput {
            v1: v1.to_vec(),
            v2: v2.to_vec(),
            pi_arrival: Time::ZERO,
            pi_ttime: Time::from_ns(0.3),
        }
    }
}

/// The simulated events: per-net frame values and the transition (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    values1: Vec<bool>,
    values2: Vec<bool>,
    events: Vec<Option<Transition>>,
}

impl SimTrace {
    /// The transition on `net`, or `None` when it holds steady.
    pub fn event(&self, net: NetId) -> Option<Transition> {
        self.events[net.index()]
    }

    /// Frame values of `net`.
    pub fn values(&self, net: NetId) -> (bool, bool) {
        (self.values1[net.index()], self.values2[net.index()])
    }

    /// Number of switching nets.
    pub fn n_events(&self) -> usize {
        self.events.iter().flatten().count()
    }

    /// The latest event arrival over the given nets (`None` if none switch).
    pub fn latest_arrival(&self, nets: &[NetId]) -> Option<Time> {
        nets.iter()
            .filter_map(|&n| self.event(n))
            .map(|t| t.arrival)
            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
    }
}

/// An event-driven two-frame timing simulator over a delay model.
#[derive(Debug)]
pub struct TimingSim<'a, M> {
    circuit: &'a Circuit,
    library: &'a CellLibrary,
    model: M,
    config: StaConfig,
    /// Per-net cells and loads, resolved once on first [`TimingSim::run`]
    /// — replay workloads (fault dropping) call `run` once per generated
    /// test, and the table depends only on the circuit, library and
    /// configuration.
    table: std::sync::OnceLock<GateTable<'a>>,
    /// Replays performed by this simulator (`tsim.runs` in the `ssdm-obs`
    /// registry).
    runs: ssdm_obs::Counter,
}

impl<'a, M: DelayModel> TimingSim<'a, M> {
    /// Creates a simulator with the default STA configuration (for loads).
    pub fn new(circuit: &'a Circuit, library: &'a CellLibrary, model: M) -> TimingSim<'a, M> {
        TimingSim {
            circuit,
            library,
            model,
            config: StaConfig::default(),
            table: std::sync::OnceLock::new(),
            runs: ssdm_obs::counter("tsim.runs"),
        }
    }

    /// Overrides the configuration (primary-output load etc.), resetting
    /// any cached table.
    pub fn with_config(mut self, config: StaConfig) -> TimingSim<'a, M> {
        self.config = config;
        self.table = std::sync::OnceLock::new();
        self
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// * [`TsimError::BadVector`] — wrong vector lengths;
    /// * [`TsimError::Sta`] / [`TsimError::Model`] — mapping or model
    ///   failures.
    pub fn run(&self, input: &SimInput) -> Result<SimTrace, TsimError> {
        let _span = ssdm_obs::span("tsim.run");
        self.runs.incr();
        let n_pi = self.circuit.inputs().len();
        if input.v1.len() != n_pi || input.v2.len() != n_pi {
            return Err(TsimError::BadVector {
                want: n_pi,
                got: input.v1.len().min(input.v2.len()),
            });
        }
        let n = self.circuit.n_nets();
        let table = match self.table.get() {
            Some(t) => t,
            None => {
                let t = GateTable::new(self.circuit, self.library, &self.config)?;
                self.table.get_or_init(|| t)
            }
        };
        let mut values1 = vec![false; n];
        let mut values2 = vec![false; n];
        let mut events: Vec<Option<Transition>> = vec![None; n];
        for (idx, &pi) in self.circuit.inputs().iter().enumerate() {
            values1[pi.index()] = input.v1[idx];
            values2[pi.index()] = input.v2[idx];
            if input.v1[idx] != input.v2[idx] {
                let edge = if input.v2[idx] {
                    Edge::Rise
                } else {
                    Edge::Fall
                };
                events[pi.index()] = Some(Transition::new(edge, input.pi_arrival, input.pi_ttime));
            }
        }
        let mut fanin_tr: Vec<(usize, Transition)> = Vec::new();
        for id in self.circuit.topo() {
            let gate = self.circuit.gate(id);
            if gate.gtype == GateType::Input {
                continue;
            }
            let vals1: Vec<bool> = gate.fanin.iter().map(|f| values1[f.index()]).collect();
            let vals2: Vec<bool> = gate.fanin.iter().map(|f| values2[f.index()]).collect();
            let out1 = gate.gtype.eval(&vals1);
            let out2 = gate.gtype.eval(&vals2);
            values1[id.index()] = out1;
            values2[id.index()] = out2;
            if out1 == out2 {
                continue;
            }
            let out_edge = if out2 { Edge::Rise } else { Edge::Fall };
            // The inputs *responsible* for this output transition: those
            // switching in the direction that drives the output to its
            // final value. (Opposite-direction companions cannot be part of
            // a same-direction stimulus; they only matter through the
            // second-order Miller effect, which the paper defers.)
            let responsible_in_edge = self.responsible_edge(gate.gtype, out_edge);
            fanin_tr.clear();
            for (pin, &f) in gate.fanin.iter().enumerate() {
                if let Some(tr) = events[f.index()] {
                    if tr.edge == responsible_in_edge {
                        fanin_tr.push((pin, tr));
                    }
                }
            }
            debug_assert!(
                !fanin_tr.is_empty(),
                "output switched without a responsible input transition"
            );
            let cells = table.cells(id).expect("non-input gates are resolved");
            events[id.index()] =
                Some(self.gate_event(cells, &fanin_tr, table.loads()[id.index()], out_edge)?);
        }
        Ok(SimTrace {
            values1,
            values2,
            events,
        })
    }

    /// The input transition direction that produces `out_edge` for this
    /// gate type (inverting core types flip the edge; AND/OR/BUF keep it).
    fn responsible_edge(&self, gtype: GateType, out_edge: Edge) -> Edge {
        match gtype {
            GateType::Nand | GateType::Nor | GateType::Not => out_edge.inverted(),
            GateType::And | GateType::Or | GateType::Buf => out_edge,
            GateType::Input => unreachable!("inputs have no fan-in"),
        }
    }

    /// Evaluates one (possibly composite) gate through the delay model.
    fn gate_event(
        &self,
        cells: StageCells<'_>,
        switching: &[(usize, Transition)],
        load: ssdm_core::Capacitance,
        out_edge: Edge,
    ) -> Result<Transition, TsimError> {
        match cells.second {
            None => {
                let r = self.model.response(cells.first, switching, load)?;
                debug_assert_eq!(r.out_edge, out_edge);
                Ok(Transition::new(
                    r.out_edge,
                    r.arrival,
                    r.ttime.max(Time::from_ps(1.0)),
                ))
            }
            Some(cell2) => {
                let mid = self
                    .model
                    .response(cells.first, switching, cell2.input_cap())?;
                let mid_tr =
                    Transition::new(mid.out_edge, mid.arrival, mid.ttime.max(Time::from_ps(1.0)));
                let r = self.model.response(cell2, &[(0, mid_tr)], load)?;
                debug_assert_eq!(r.out_edge, out_edge);
                Ok(Transition::new(
                    r.out_edge,
                    r.arrival,
                    r.ttime.max(Time::from_ps(1.0)),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_cells::CellLibrary;
    use ssdm_models::{PinToPinModel, ProposedModel};
    use ssdm_netlist::{suite, CircuitBuilder};
    use std::sync::OnceLock;

    /// The pinned fast-grid library, parsed once per test binary.
    fn library() -> &'static CellLibrary {
        static LIB: OnceLock<CellLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            CellLibrary::from_text(include_str!("../../../perfbench/data/library-fast.txt"))
                .expect("pinned library parses")
        })
    }

    #[test]
    fn c17_step_propagates() {
        let c = suite::c17();
        let sim = TimingSim::new(&c, library(), ProposedModel::new());
        // All inputs fall: outputs 22 and 23 switch (from eval: all-ones
        // gives [1, 0], all-zeros gives [0, 0] → 22 falls, 23 stays 0).
        let trace = sim
            .run(&SimInput::step(&c, &[true; 5], &[false; 5]))
            .unwrap();
        let o22 = c.find("22").unwrap();
        let o23 = c.find("23").unwrap();
        let e22 = trace.event(o22).expect("22 switches");
        assert_eq!(e22.edge, Edge::Fall);
        assert!(e22.arrival > Time::ZERO);
        assert!(trace.event(o23).is_none(), "23 holds steady");
        assert_eq!(trace.values(o22), (true, false));
        assert!(trace.n_events() >= 3);
    }

    #[test]
    fn events_respect_topological_causality() {
        let c = suite::c17();
        let sim = TimingSim::new(&c, library(), ProposedModel::new());
        let trace = sim
            .run(&SimInput::step(
                &c,
                &[true; 5],
                &[false, true, false, true, false],
            ))
            .unwrap();
        for id in c.topo() {
            let Some(ev) = trace.event(id) else { continue };
            if c.is_input(id) {
                continue;
            }
            // The event must be later than at least one fan-in event.
            let earliest_fanin = c
                .gate(id)
                .fanin
                .iter()
                .filter_map(|&f| trace.event(f))
                .map(|t| t.arrival)
                .fold(Time::INFINITY, Time::min);
            assert!(
                ev.arrival > earliest_fanin,
                "net {} fired before its causes",
                c.gate(id).name
            );
        }
    }

    #[test]
    fn simultaneous_inputs_beat_pin_to_pin_prediction() {
        // A single NAND2 with both inputs falling together: the proposed
        // model's event must be earlier than the pin-to-pin model's.
        let mut b = CircuitBuilder::new("one");
        b.input("a");
        b.input("b");
        b.gate("y", ssdm_netlist::GateType::Nand, &["a", "b"])
            .unwrap();
        b.output("y");
        let c = b.build().unwrap();
        let input = SimInput::step(&c, &[true, true], &[false, false]);
        let y = c.find("y").unwrap();
        let prop = TimingSim::new(&c, library(), ProposedModel::new())
            .run(&input)
            .unwrap()
            .event(y)
            .unwrap();
        let p2p = TimingSim::new(&c, library(), PinToPinModel::new())
            .run(&input)
            .unwrap()
            .event(y)
            .unwrap();
        assert!(
            prop.arrival < p2p.arrival,
            "proposed {} vs pin-to-pin {}",
            prop.arrival,
            p2p.arrival
        );
        assert_eq!(prop.edge, Edge::Rise);
    }

    #[test]
    fn mixed_direction_inputs_are_filtered() {
        // 16 = NAND(2, 11): drive input 2 rising while 11 falls. With
        // inputs (1,2,3,6,7) = steady/rise/fall interplay, exercise a gate
        // whose fan-ins move in opposite directions.
        let mut b = CircuitBuilder::new("mix");
        b.input("a");
        b.input("b");
        b.gate("y", ssdm_netlist::GateType::Nand, &["a", "b"])
            .unwrap();
        b.output("y");
        let c = b.build().unwrap();
        // a: 1→0 (fall, to-controlling), b: 0→1 (rise): y = NAND: frame1 =
        // NAND(1,0)=1, frame2 = NAND(0,1)=1 → no output event.
        let t = TimingSim::new(&c, library(), ProposedModel::new())
            .run(&SimInput::step(&c, &[true, false], &[false, true]))
            .unwrap();
        assert!(t.event(c.find("y").unwrap()).is_none());
        // a: 1→1 steady, b: 0→1 rise: output falls, caused by b alone.
        let t = TimingSim::new(&c, library(), ProposedModel::new())
            .run(&SimInput::step(&c, &[true, false], &[true, true]))
            .unwrap();
        let ev = t.event(c.find("y").unwrap()).unwrap();
        assert_eq!(ev.edge, Edge::Fall);
    }

    #[test]
    fn composite_gates_simulate() {
        let mut b = CircuitBuilder::new("and3");
        b.input("a");
        b.input("b");
        b.input("c");
        b.gate("y", ssdm_netlist::GateType::And, &["a", "b", "c"])
            .unwrap();
        b.gate("z", ssdm_netlist::GateType::Or, &["y", "c"])
            .unwrap();
        b.output("z");
        let c = b.build().unwrap();
        let t = TimingSim::new(&c, library(), ProposedModel::new())
            .run(&SimInput::step(
                &c,
                &[true, true, true],
                &[true, true, false],
            ))
            .unwrap();
        // c falls → y falls → z falls (c also feeds z directly).
        let z = c.find("z").unwrap();
        let ev = t.event(z).unwrap();
        assert_eq!(ev.edge, Edge::Fall);
        // Two composite stages (AND then OR) + ramps: arrival is well past
        // one gate delay.
        assert!(ev.arrival > Time::from_ns(0.2), "arrival {}", ev.arrival);
    }

    #[test]
    fn rejects_bad_vectors() {
        let c = suite::c17();
        let sim = TimingSim::new(&c, library(), ProposedModel::new());
        let bad = SimInput {
            v1: vec![true; 3],
            v2: vec![false; 3],
            pi_arrival: Time::ZERO,
            pi_ttime: Time::from_ns(0.3),
        };
        assert!(matches!(sim.run(&bad), Err(TsimError::BadVector { .. })));
    }

    #[test]
    fn steady_vectors_produce_no_events() {
        let c = suite::c17();
        let sim = TimingSim::new(&c, library(), ProposedModel::new());
        let trace = sim
            .run(&SimInput::step(&c, &[true; 5], &[true; 5]))
            .unwrap();
        assert_eq!(trace.n_events(), 0);
        assert!(trace.latest_arrival(c.outputs()).is_none());
    }
}
