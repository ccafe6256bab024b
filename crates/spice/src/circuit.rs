//! Transistor-level circuit description.

use crate::error::SpiceError;
use crate::mosfet::{DeviceMemo, MosType, Mosfet};
use crate::process::Process;

/// A circuit node.
///
/// The simulator solves only for [`Node::Out`] and [`Node::Internal`]
/// voltages; rails are ideal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Ground rail.
    Gnd,
    /// Supply rail.
    Vdd,
    /// The gate output (the node whose waveform is measured).
    Out,
    /// Internal stack node `i` (0-based).
    Internal(usize),
}

impl Node {
    /// Index into the state vector, if this node is solved for.
    fn state_index(self) -> Option<usize> {
        match self {
            Node::Out => Some(0),
            Node::Internal(i) => Some(i + 1),
            Node::Gnd | Node::Vdd => None,
        }
    }
}

/// A transistor instance wired into a circuit: the channel connects
/// `drain` to `source`, and the gate is driven by input pin `gate_pin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transistor {
    /// Device polarity and width.
    pub mos: Mosfet,
    /// Which input pin drives the gate terminal.
    pub gate_pin: usize,
    /// Drain node.
    pub drain: Node,
    /// Source node.
    pub source: Node,
}

/// A CMOS gate circuit: transistors plus node bookkeeping.
///
/// Built by the templates in [`crate::gates`]; the representation is
/// generic so other topologies (AOI, pass networks) can reuse the
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    transistors: Vec<Transistor>,
    n_inputs: usize,
    n_internal: usize,
}

impl Circuit {
    /// Creates a circuit and validates its topology.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadCircuit`] when a gate pin index is out of
    /// range, an internal node index is out of range, no transistor touches
    /// the output, or an internal node is referenced but floating (touched
    /// by fewer than two channel terminals).
    pub fn new(
        transistors: Vec<Transistor>,
        n_inputs: usize,
        n_internal: usize,
    ) -> Result<Circuit, SpiceError> {
        if transistors.is_empty() {
            return Err(SpiceError::BadCircuit {
                reason: "no transistors".into(),
            });
        }
        let mut touches_out = false;
        let mut internal_touch = vec![0usize; n_internal];
        for t in &transistors {
            if t.gate_pin >= n_inputs {
                return Err(SpiceError::BadCircuit {
                    reason: format!(
                        "gate pin {} out of range (n_inputs = {n_inputs})",
                        t.gate_pin
                    ),
                });
            }
            for node in [t.drain, t.source] {
                match node {
                    Node::Out => touches_out = true,
                    Node::Internal(i) => {
                        if i >= n_internal {
                            return Err(SpiceError::BadCircuit {
                                reason: format!(
                                    "internal node {i} out of range (n_internal = {n_internal})"
                                ),
                            });
                        }
                        internal_touch[i] += 1;
                    }
                    Node::Gnd | Node::Vdd => {}
                }
            }
        }
        if !touches_out {
            return Err(SpiceError::BadCircuit {
                reason: "no transistor connected to the output node".into(),
            });
        }
        if let Some(i) = internal_touch.iter().position(|&c| c < 2) {
            return Err(SpiceError::BadCircuit {
                reason: format!("internal node {i} has fewer than two channel connections"),
            });
        }
        Ok(Circuit {
            transistors,
            n_inputs,
            n_internal,
        })
    }

    /// The transistors.
    pub fn transistors(&self) -> &[Transistor] {
        &self.transistors
    }

    /// Number of input pins.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of internal (non-output) solved nodes.
    pub fn n_internal(&self) -> usize {
        self.n_internal
    }

    /// Number of solved nodes (output + internals).
    pub fn n_state(&self) -> usize {
        self.n_internal + 1
    }

    /// Ground capacitance of each solved node in fF: junction capacitance
    /// of every adjacent diffusion terminal plus gate-overlap coupling
    /// capacitance of every adjacent gate terminal, plus `load_ff` at the
    /// output. (The coupling caps also inject current; see
    /// [`Circuit::miller_injection`].)
    pub fn node_caps_ff(&self, process: &Process, load_ff: f64) -> Vec<f64> {
        let mut caps = vec![0.0; self.n_state()];
        caps[0] += load_ff;
        for t in &self.transistors {
            for node in [t.drain, t.source] {
                if let Some(i) = node.state_index() {
                    caps[i] += process.cj_per_um * t.mos.width_um;
                    caps[i] += process.cgd_per_um * t.mos.width_um;
                }
            }
        }
        caps
    }

    /// Per-node Miller current injection in µA for given input slopes
    /// (V/ns): each gate-overlap capacitance couples its input's dV/dt into
    /// the adjacent diffusion nodes.
    pub fn miller_injection(&self, process: &Process, slopes: &[f64], inject: &mut [f64]) {
        debug_assert_eq!(slopes.len(), self.n_inputs);
        debug_assert_eq!(inject.len(), self.n_state());
        for t in &self.transistors {
            let c = process.cgd_per_um * t.mos.width_um;
            let s = slopes[t.gate_pin];
            if s == 0.0 {
                continue;
            }
            for node in [t.drain, t.source] {
                if let Some(i) = node.state_index() {
                    inject[i] += c * s;
                }
            }
        }
    }

    /// Accumulates channel currents into `into` (µA flowing **into** each
    /// solved node) for node voltages `state` and input voltages `vins`.
    /// `memo` holds one entry per transistor, in [`Circuit::transistors`]
    /// order (see [`Mosfet::current_memo`]).
    pub fn channel_currents(
        &self,
        process: &Process,
        state: &[f64],
        vins: &[f64],
        into: &mut [f64],
        memo: &mut [DeviceMemo],
    ) {
        debug_assert_eq!(state.len(), self.n_state());
        debug_assert_eq!(vins.len(), self.n_inputs);
        debug_assert_eq!(into.len(), self.n_state());
        assert_eq!(memo.len(), self.transistors.len(), "one memo per device");
        let vdd = process.vdd.as_volts();
        let volt = |node: Node| -> f64 {
            match node {
                Node::Gnd => 0.0,
                Node::Vdd => vdd,
                Node::Out => state[0],
                Node::Internal(i) => state[i + 1],
            }
        };
        for (t, memo) in self.transistors.iter().zip(memo) {
            let params = match t.mos.mtype {
                MosType::N => &process.nmos,
                MosType::P => &process.pmos,
            };
            let i_ds = t.mos.current_memo(
                params,
                vins[t.gate_pin],
                volt(t.drain),
                volt(t.source),
                memo,
            );
            // i_ds flows out of the drain node and into the source node.
            if let Some(i) = t.drain.state_index() {
                into[i] -= i_ds;
            }
            if let Some(i) = t.source.state_index() {
                into[i] += i_ds;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{MosType, Mosfet};

    fn inv() -> Circuit {
        Circuit::new(
            vec![
                Transistor {
                    mos: Mosfet::new(MosType::P, 2.0),
                    gate_pin: 0,
                    drain: Node::Out,
                    source: Node::Vdd,
                },
                Transistor {
                    mos: Mosfet::new(MosType::N, 1.0),
                    gate_pin: 0,
                    drain: Node::Out,
                    source: Node::Gnd,
                },
            ],
            1,
            0,
        )
        .unwrap()
    }

    #[test]
    fn inverter_is_valid() {
        let c = inv();
        assert_eq!(c.n_state(), 1);
        assert_eq!(c.n_inputs(), 1);
        assert_eq!(c.transistors().len(), 2);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Circuit::new(vec![], 1, 0),
            Err(SpiceError::BadCircuit { .. })
        ));
    }

    #[test]
    fn rejects_bad_gate_pin() {
        let t = Transistor {
            mos: Mosfet::new(MosType::N, 1.0),
            gate_pin: 3,
            drain: Node::Out,
            source: Node::Gnd,
        };
        assert!(Circuit::new(vec![t], 1, 0).is_err());
    }

    #[test]
    fn rejects_out_of_range_internal() {
        let t = Transistor {
            mos: Mosfet::new(MosType::N, 1.0),
            gate_pin: 0,
            drain: Node::Out,
            source: Node::Internal(2),
        };
        assert!(Circuit::new(vec![t], 1, 1).is_err());
    }

    #[test]
    fn rejects_floating_internal() {
        // Internal node touched by only one channel terminal.
        let ts = vec![
            Transistor {
                mos: Mosfet::new(MosType::N, 1.0),
                gate_pin: 0,
                drain: Node::Out,
                source: Node::Internal(0),
            },
            Transistor {
                mos: Mosfet::new(MosType::P, 1.0),
                gate_pin: 0,
                drain: Node::Out,
                source: Node::Vdd,
            },
        ];
        assert!(Circuit::new(ts, 1, 1).is_err());
    }

    #[test]
    fn rejects_missing_output() {
        let t = Transistor {
            mos: Mosfet::new(MosType::N, 1.0),
            gate_pin: 0,
            drain: Node::Vdd,
            source: Node::Gnd,
        };
        assert!(Circuit::new(vec![t], 1, 0).is_err());
    }

    #[test]
    fn node_caps_include_load_junctions_and_overlap() {
        let c = inv();
        let p = Process::p05um();
        let caps = c.node_caps_ff(&p, 10.0);
        // Out: load + (cj + cgd)·(2 + 1) µm of diffusion.
        let expected = 10.0 + (p.cj_per_um + p.cgd_per_um) * 3.0;
        assert!((caps[0] - expected).abs() < 1e-12, "caps[0] = {}", caps[0]);
    }

    #[test]
    fn channel_currents_pull_down_when_input_high() {
        let c = inv();
        let p = Process::p05um();
        let mut into = vec![0.0];
        // Output at vdd, input high: NMOS discharges the node (negative).
        let mut memo = [DeviceMemo::EMPTY; 2];
        c.channel_currents(&p, &[3.3], &[3.3], &mut into, &mut memo);
        assert!(into[0] < 0.0, "into = {into:?}");
        // Output at 0, input low: PMOS charges the node (positive).
        let mut into2 = vec![0.0];
        c.channel_currents(&p, &[0.0], &[0.0], &mut into2, &mut memo);
        assert!(into2[0] > 0.0, "into = {into2:?}");
    }

    #[test]
    fn channel_currents_keep_one_memo_per_device() {
        // Two parallel pull-downs of different width on one input: they
        // see the same overdrive at every call, so a memo shared between
        // them would hand the second one the first one's current.
        let narrow = Mosfet::new(MosType::N, 1.0);
        let wide = Mosfet::new(MosType::N, 2.5);
        let pull_down = |mos| Transistor {
            mos,
            gate_pin: 0,
            drain: Node::Out,
            source: Node::Gnd,
        };
        let c = Circuit::new(vec![pull_down(narrow), pull_down(wide)], 1, 0).unwrap();
        let p = Process::p05um();
        let mut memo = [DeviceMemo::EMPTY; 2];
        for (vin, vout) in [(3.3, 2.0), (3.3, 1.0), (2.5, 1.0)] {
            let mut into = [0.0];
            c.channel_currents(&p, &[vout], &[vin], &mut into, &mut memo);
            let fresh = 0.0
                - narrow.current(&p.nmos, vin, vout, 0.0)
                - wide.current(&p.nmos, vin, vout, 0.0);
            assert_eq!(into[0].to_bits(), fresh.to_bits(), "vin {vin}, vout {vout}");
        }
        for m in memo {
            assert_eq!((m.computed, m.reused), (2, 1));
        }
    }

    #[test]
    fn miller_injection_couples_input_slope() {
        let c = inv();
        let p = Process::p05um();
        let mut inject = vec![0.0];
        c.miller_injection(&p, &[3.3], &mut inject);
        // Rising input couples upward into the output.
        let expected = p.cgd_per_um * 3.0 * 3.3;
        assert!((inject[0] - expected).abs() < 1e-12);
        let mut none = vec![0.0];
        c.miller_injection(&p, &[0.0], &mut none);
        assert_eq!(none[0], 0.0);
    }
}
