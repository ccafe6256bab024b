//! Primitive-gate circuit templates.
//!
//! Input-position convention follows the paper (Figure 3): **position 0 is
//! the series transistor closest to the output**, position `n−1` is at the
//! rail end of the stack. Input pin `i` drives position `i`.

use std::fmt;

use ssdm_core::Edge;

use crate::circuit::{Circuit, Node, Transistor};
use crate::error::SpiceError;
use crate::mosfet::{MosType, Mosfet};

/// Primitive CMOS gate topologies with a transistor-level template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter (1 input).
    Inv,
    /// n-input NAND: series NMOS stack, parallel PMOS.
    Nand,
    /// n-input NOR: series PMOS stack, parallel NMOS.
    Nor,
}

impl GateKind {
    /// True when a `0` on any input forces the output (NAND) — i.e. the
    /// controlling value is 0; for NOR it is 1. For the inverter, both
    /// values are trivially controlling.
    pub fn controlling_value(self) -> bool {
        match self {
            GateKind::Nand | GateKind::Inv => false,
            GateKind::Nor => true,
        }
    }

    /// The output edge of the to-controlling response: rising for NAND,
    /// falling for NOR. The inverter has both responses and reports
    /// rising by convention. Every primitive inverts, so the inputs of
    /// that response make the opposite edge.
    #[inline]
    pub fn ctrl_out_edge(self) -> Edge {
        match self {
            GateKind::Nand | GateKind::Inv => Edge::Rise,
            GateKind::Nor => Edge::Fall,
        }
    }

    /// Boolean function of the gate.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Inv => !inputs[0],
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::Inv => write!(f, "INV"),
            GateKind::Nand => write!(f, "NAND"),
            GateKind::Nor => write!(f, "NOR"),
        }
    }
}

/// Builds the transistor-level circuit for `kind` with `n` inputs and the
/// given NMOS/PMOS widths (µm). All devices of a polarity share one width,
/// as in the paper's "minimum-size transistors" experiments.
///
/// # Errors
///
/// Returns [`SpiceError::BadCircuit`] when `n` is 0, when an inverter is
/// requested with `n != 1`, or when widths are not positive.
pub fn build(kind: GateKind, n: usize, wn_um: f64, wp_um: f64) -> Result<Circuit, SpiceError> {
    if n == 0 {
        return Err(SpiceError::BadCircuit {
            reason: "gate needs at least one input".into(),
        });
    }
    if kind == GateKind::Inv && n != 1 {
        return Err(SpiceError::BadCircuit {
            reason: format!("inverter must have exactly one input, got {n}"),
        });
    }
    if !(wn_um > 0.0 && wp_um > 0.0) {
        return Err(SpiceError::BadCircuit {
            reason: "transistor widths must be positive".into(),
        });
    }
    let mut ts = Vec::with_capacity(2 * n);
    match kind {
        GateKind::Inv => {
            ts.push(Transistor {
                mos: Mosfet::new(MosType::P, wp_um),
                gate_pin: 0,
                drain: Node::Out,
                source: Node::Vdd,
            });
            ts.push(Transistor {
                mos: Mosfet::new(MosType::N, wn_um),
                gate_pin: 0,
                drain: Node::Out,
                source: Node::Gnd,
            });
        }
        GateKind::Nand => {
            // Parallel PMOS pull-up.
            for pin in 0..n {
                ts.push(Transistor {
                    mos: Mosfet::new(MosType::P, wp_um),
                    gate_pin: pin,
                    drain: Node::Out,
                    source: Node::Vdd,
                });
            }
            // Series NMOS pull-down: position 0 adjacent to the output.
            push_stack(&mut ts, MosType::N, wn_um, n, Node::Gnd);
        }
        GateKind::Nor => {
            // Parallel NMOS pull-down.
            for pin in 0..n {
                ts.push(Transistor {
                    mos: Mosfet::new(MosType::N, wn_um),
                    gate_pin: pin,
                    drain: Node::Out,
                    source: Node::Gnd,
                });
            }
            // Series PMOS pull-up: position 0 adjacent to the output.
            push_stack(&mut ts, MosType::P, wp_um, n, Node::Vdd);
        }
    }
    let n_internal = match kind {
        GateKind::Inv => 0,
        GateKind::Nand | GateKind::Nor => n - 1,
    };
    Circuit::new(ts, n, n_internal)
}

/// Pushes an `n`-deep series stack from the output to `rail`; transistor at
/// position `p` (0 nearest the output) is gated by pin `p`.
fn push_stack(ts: &mut Vec<Transistor>, mtype: MosType, w_um: f64, n: usize, rail: Node) {
    for p in 0..n {
        let upper = if p == 0 {
            Node::Out
        } else {
            Node::Internal(p - 1)
        };
        let lower = if p == n - 1 { rail } else { Node::Internal(p) };
        ts.push(Transistor {
            mos: Mosfet::new(mtype, w_um),
            gate_pin: p,
            drain: upper,
            source: lower,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_topology() {
        let c = build(GateKind::Nand, 3, 1.5, 2.0).unwrap();
        assert_eq!(c.transistors().len(), 6);
        assert_eq!(c.n_internal(), 2);
        assert_eq!(c.n_inputs(), 3);
        // Three PMOS in parallel at the output.
        let pmos_at_out = c
            .transistors()
            .iter()
            .filter(|t| t.mos.mtype == MosType::P && t.drain == Node::Out && t.source == Node::Vdd)
            .count();
        assert_eq!(pmos_at_out, 3);
        // Position 0 NMOS is adjacent to the output.
        let pos0 = c
            .transistors()
            .iter()
            .find(|t| t.mos.mtype == MosType::N && t.gate_pin == 0)
            .unwrap();
        assert_eq!(pos0.drain, Node::Out);
    }

    #[test]
    fn nor_topology_is_dual() {
        let c = build(GateKind::Nor, 2, 1.5, 3.0).unwrap();
        assert_eq!(c.transistors().len(), 4);
        assert_eq!(c.n_internal(), 1);
        let nmos_at_out = c
            .transistors()
            .iter()
            .filter(|t| t.mos.mtype == MosType::N && t.drain == Node::Out && t.source == Node::Gnd)
            .count();
        assert_eq!(nmos_at_out, 2);
        let pos0 = c
            .transistors()
            .iter()
            .find(|t| t.mos.mtype == MosType::P && t.gate_pin == 0)
            .unwrap();
        assert_eq!(pos0.drain, Node::Out);
        assert_eq!(pos0.source, Node::Internal(0));
    }

    #[test]
    fn inverter_topology() {
        let c = build(GateKind::Inv, 1, 1.0, 2.0).unwrap();
        assert_eq!(c.transistors().len(), 2);
        assert_eq!(c.n_internal(), 0);
    }

    #[test]
    fn validation() {
        assert!(build(GateKind::Nand, 0, 1.0, 1.0).is_err());
        assert!(build(GateKind::Inv, 2, 1.0, 1.0).is_err());
        assert!(build(GateKind::Nand, 2, -1.0, 1.0).is_err());
    }

    #[test]
    fn controlling_values() {
        assert!(!GateKind::Nand.controlling_value());
        assert!(GateKind::Nor.controlling_value());
        assert_eq!(GateKind::Nand.ctrl_out_edge(), Edge::Rise);
        assert_eq!(GateKind::Nor.ctrl_out_edge(), Edge::Fall);
        assert_eq!(GateKind::Inv.ctrl_out_edge(), Edge::Rise);
    }

    #[test]
    fn boolean_functions() {
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(!GateKind::Nor.eval(&[true, false]));
        assert!(GateKind::Inv.eval(&[false]));
        assert!(!GateKind::Inv.eval(&[true]));
    }

    #[test]
    fn display() {
        assert_eq!(GateKind::Nand.to_string(), "NAND");
        assert_eq!(GateKind::Nor.to_string(), "NOR");
        assert_eq!(GateKind::Inv.to_string(), "INV");
    }
}
