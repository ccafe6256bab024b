//! Faulty-machine frame-2 propagation and the D-frontier.
//!
//! A crosstalk delay fault makes the victim's second-frame value arrive
//! *late*; observing it requires the victim's (on-time vs late) value
//! difference to reach a primary output. This is the classic delay-fault
//! reduction: propagate the complement of the victim's final value through
//! the second frame and look for a primary output that differs.

use ssdm_logic::{Assignments, Tri};
use ssdm_netlist::{Circuit, GateType, NetId};

/// Frame-2 values of the faulty machine: the victim's value complemented,
/// everything downstream re-evaluated (three-valued, forward only).
pub fn faulty_frame2(circuit: &Circuit, good: &Assignments, victim: NetId) -> Vec<Tri> {
    let mut vals = vec![Tri::X; circuit.n_nets()];
    for id in circuit.topo() {
        let gate = circuit.gate(id);
        let v = if id == victim {
            // A late transition means the pre-transition (first-frame)
            // value persists at sampling time — the complement of the
            // final value when the victim actually transitions.
            good.get(victim).second.not()
        } else {
            match gate.gtype {
                GateType::Input => good.get(id).second,
                _ => eval3(gate.gtype, gate.fanin.iter().map(|f| vals[f.index()])),
            }
        };
        vals[id.index()] = v;
    }
    vals
}

/// Three-valued gate evaluation.
fn eval3(gtype: GateType, inputs: impl IntoIterator<Item = Tri>) -> Tri {
    let mut it = inputs.into_iter();
    match gtype {
        GateType::Input => Tri::X,
        GateType::Buf => it.next().expect("one input"),
        GateType::Not => it.next().expect("one input").not(),
        GateType::And => it.fold(Tri::One, Tri::and),
        GateType::Nand => it.fold(Tri::One, Tri::and).not(),
        GateType::Or => it.fold(Tri::Zero, Tri::or),
        GateType::Nor => it.fold(Tri::Zero, Tri::or).not(),
    }
}

/// True when the fault effect is observed: some primary output has known,
/// differing good/faulty frame-2 values.
pub fn detected(circuit: &Circuit, good: &Assignments, faulty2: &[Tri]) -> bool {
    circuit.outputs().iter().any(|&po| {
        let g = good.get(po).second;
        let f = faulty2[po.index()];
        g.is_known() && f.is_known() && g != f
    })
}

/// The D-frontier: gates with a visible good/faulty difference on some
/// input but not (yet) on the output — the places propagation must be
/// pushed through.
pub fn d_frontier(circuit: &Circuit, good: &Assignments, faulty2: &[Tri]) -> Vec<NetId> {
    let mut out = Vec::new();
    for id in circuit.topo() {
        let gate = circuit.gate(id);
        if gate.gtype == GateType::Input {
            continue;
        }
        let out_diff = {
            let g = good.get(id).second;
            let f = faulty2[id.index()];
            g.is_known() && f.is_known() && g != f
        };
        if out_diff {
            continue;
        }
        let has_d_input = gate.fanin.iter().any(|&fin| {
            let g = good.get(fin).second;
            let f = faulty2[fin.index()];
            g.is_known() && f.is_known() && g != f
        });
        // Output not already blocked to a known equal value on both
        // machines with no hope: frontier gates are those whose output is
        // still unknown in at least one machine.
        let out_open = !good.get(id).second.is_known() || !faulty2[id.index()].is_known();
        if has_d_input && out_open {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_logic::{imply, V2};
    use ssdm_netlist::suite;

    #[test]
    fn faulty_value_complements_the_victim() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        for &pi in c.inputs() {
            a.set(pi, V2::steady(true)).unwrap();
        }
        imply(&c, &mut a).unwrap();
        let g10 = c.find("10").unwrap(); // NAND(1,3) = 0 under all-ones
        let faulty = faulty_frame2(&c, &a, g10);
        assert_eq!(faulty[g10.index()], Tri::One);
        // Downstream: 22 = NAND(10, 16); good 10 = 0 → good 22 = 1;
        // faulty 10 = 1 and good 16 = 1 → faulty 22 = 0. Observed!
        let o22 = c.find("22").unwrap();
        assert_eq!(faulty[o22.index()], Tri::Zero);
        assert!(detected(&c, &a, &faulty));
    }

    #[test]
    fn unknown_values_stay_unknown() {
        let c = suite::c17();
        let a = Assignments::new(c.n_nets());
        let g10 = c.find("10").unwrap();
        let faulty = faulty_frame2(&c, &a, g10);
        // Victim's good value is X → complement is X → nothing observable.
        assert_eq!(faulty[g10.index()], Tri::X);
        assert!(!detected(&c, &a, &faulty));
    }

    #[test]
    fn d_frontier_tracks_propagation_blockers() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Justify victim 10 = 0 in frame 2 (inputs 1 and 3 high) but leave
        // the propagation side-input 16 unknown.
        let i1 = c.find("1").unwrap();
        let i3 = c.find("3").unwrap();
        a.set(i1, V2::parse("x1").unwrap()).unwrap();
        a.set(i3, V2::parse("x1").unwrap()).unwrap();
        imply(&c, &mut a).unwrap();
        let g10 = c.find("10").unwrap();
        let faulty = faulty_frame2(&c, &a, g10);
        assert!(!detected(&c, &a, &faulty));
        let frontier = d_frontier(&c, &a, &faulty);
        // Gate 22 = NAND(10, 16) has the D on input 10 and an open output.
        let o22 = c.find("22").unwrap();
        assert!(frontier.contains(&o22), "frontier = {frontier:?}");
    }

    #[test]
    fn eval3_matrix() {
        assert_eq!(eval3(GateType::Nand, [Tri::One, Tri::X]), Tri::X);
        assert_eq!(eval3(GateType::Nand, [Tri::Zero, Tri::X]), Tri::One);
        assert_eq!(eval3(GateType::Or, [Tri::X, Tri::One]), Tri::One);
        assert_eq!(eval3(GateType::Not, [Tri::Zero]), Tri::One);
        assert_eq!(eval3(GateType::Buf, [Tri::X]), Tri::X);
        assert_eq!(eval3(GateType::And, [Tri::One, Tri::One]), Tri::One);
        assert_eq!(eval3(GateType::Nor, [Tri::Zero, Tri::Zero]), Tri::One);
    }
}
