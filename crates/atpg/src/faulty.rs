//! Faulty-machine frame-2 propagation and the D-frontier.
//!
//! A crosstalk delay fault makes the victim's second-frame value arrive
//! *late*; observing it requires the victim's (on-time vs late) value
//! difference to reach a primary output. This is the classic delay-fault
//! reduction: propagate the complement of the victim's final value through
//! the second frame and look for a primary output that differs.
//!
//! `FaultCone` is the kernel the search and the test replayer use: it
//! re-evaluates only the gates a difference reaches, so a call costs the
//! victim's difference cone. [`faulty_frame2`], [`detected`] and
//! [`d_frontier`] sweep the whole circuit and are its reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// True when the good and faulty values are both known and differ: a
/// fault effect (a D) on the net.
fn is_d(good: Tri, faulty: Tri) -> bool {
    good.is_known() && faulty.is_known() && good != faulty
}

/// Difference propagation from the victim: the faulty frame-2 machine as
/// a sparse set of nets whose value differs from the good one.
///
/// Exact when the good frame-2 values are a forward three-valued
/// simulation of their primary inputs (true of a PODEM store, whose
/// decisions are all on primary inputs, and of a simulator trace): a net
/// outside the difference cone then has its good value in the faulty
/// machine too. The scratch is sized once per circuit and each call
/// resets only the nets the previous one touched.
#[derive(Debug)]
pub(crate) struct FaultCone {
    /// Faulty value of each net that differs from its good value.
    diff: Vec<Option<Tri>>,
    /// The nets with a `diff` entry, in ascending (topological) order.
    touched: Vec<NetId>,
    /// Gates to evaluate, smallest net first, and a flag per net against
    /// double entries.
    heap: BinaryHeap<Reverse<NetId>>,
    queued: Vec<bool>,
    /// Primary-output flag per net.
    is_po: Vec<bool>,
    frontier: Vec<NetId>,
}

impl FaultCone {
    /// Empty scratch for `circuit`.
    pub(crate) fn new(circuit: &Circuit) -> FaultCone {
        let n = circuit.n_nets();
        let mut is_po = vec![false; n];
        for &po in circuit.outputs() {
            is_po[po.index()] = true;
        }
        FaultCone {
            diff: vec![None; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            queued: vec![false; n],
            is_po,
            frontier: Vec::new(),
        }
    }

    /// Complements the victim's frame-2 value and re-evaluates every gate
    /// the difference reaches, in net-index order, stopping wherever a
    /// gate's faulty value equals `good`'s; then collects the D-frontier.
    /// Returns whether the effect is observed: some primary output
    /// carries a D. An unknown victim complements to unknown, so nothing
    /// differs.
    pub(crate) fn propagate(
        &mut self,
        circuit: &Circuit,
        victim: NetId,
        good: impl Fn(NetId) -> Tri,
    ) -> bool {
        for net in self.touched.drain(..) {
            self.diff[net.index()] = None;
        }
        let mut evaluated = 0u64;
        let flipped = good(victim).not();
        if flipped.is_known() {
            self.mark(circuit, victim, flipped);
        }
        while let Some(Reverse(id)) = self.heap.pop() {
            // Every later push is a fan-out of this gate, so it has a
            // larger index: the flag can be cleared now.
            self.queued[id.index()] = false;
            let gate = circuit.gate(id);
            let diff = &self.diff;
            let v = eval3(
                gate.gtype,
                gate.fanin
                    .iter()
                    .map(|&f| diff[f.index()].unwrap_or_else(|| good(f))),
            );
            evaluated += 1;
            if v != good(id) {
                self.mark(circuit, id, v);
            }
        }
        if ssdm_obs::enabled() {
            ssdm_obs::histogram("atpg.faulty.cone_gates").record(evaluated);
        }
        // Sorting restores the ascending order of the `d_frontier` sweep,
        // which `Atpg::evaluate` relies on: it takes the first objective.
        self.frontier.clear();
        let mut observed = false;
        for &net in &self.touched {
            let g = good(net);
            if is_d(g, self.value(net, g)) {
                observed |= self.is_po[net.index()];
                self.frontier.extend_from_slice(circuit.fanouts(net));
            }
        }
        self.frontier.sort_unstable();
        self.frontier.dedup();
        let diff = &self.diff;
        self.frontier.retain(|&gate| {
            let g = good(gate);
            let f = diff[gate.index()].unwrap_or(g);
            !is_d(g, f) && (!g.is_known() || !f.is_known())
        });
        observed
    }

    /// Records `net`'s differing faulty value and queues its fan-outs.
    fn mark(&mut self, circuit: &Circuit, net: NetId, faulty: Tri) {
        self.diff[net.index()] = Some(faulty);
        self.touched.push(net);
        for &out in circuit.fanouts(net) {
            if !self.queued[out.index()] {
                self.queued[out.index()] = true;
                self.heap.push(Reverse(out));
            }
        }
    }

    /// The faulty frame-2 value of `net` after the last
    /// [`FaultCone::propagate`], given its good value.
    pub(crate) fn value(&self, net: NetId, good: Tri) -> Tri {
        self.diff[net.index()].unwrap_or(good)
    }

    /// The D-frontier of the last [`FaultCone::propagate`], in the order
    /// [`d_frontier`] returns it.
    pub(crate) fn frontier(&self) -> &[NetId] {
        &self.frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdm_logic::{imply, V2};
    use ssdm_netlist::{generate, suite, GeneratorConfig};

    /// Runs the kernel for `victim` on `cone` and compares every net's
    /// faulty value, the detection flag and the frontier (order included)
    /// with the full-sweep reference.
    fn check_victim(
        c: &Circuit,
        a: &Assignments,
        cone: &mut FaultCone,
        victim: NetId,
    ) -> Result<(), TestCaseError> {
        let faulty = faulty_frame2(c, a, victim);
        let observed = cone.propagate(c, victim, |n| a.get(n).second);
        for id in c.topo() {
            prop_assert_eq!(
                cone.value(id, a.get(id).second),
                faulty[id.index()],
                "{}: victim {}, net {}",
                c.name(),
                victim,
                id
            );
        }
        prop_assert_eq!(
            observed,
            detected(c, a, &faulty),
            "{}: victim {}",
            c.name(),
            victim
        );
        let frontier = d_frontier(c, a, &faulty);
        prop_assert_eq!(
            cone.frontier(),
            frontier.as_slice(),
            "{}: victim {}",
            c.name(),
            victim
        );
        Ok(())
    }

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

    proptest! {
        /// The difference-cone kernel equals the full-sweep reference on
        /// PODEM-shaped stores: random primary-input decisions in both
        /// frames, each followed by `imply`, from the all-`x` store up to
        /// a fully specified one. Each store checks every victim (a
        /// random subset of 48 on c880s), and one kernel serves every
        /// call, so anything a call leaves behind shows up in the next.
        #[test]
        fn cone_matches_full_sweep(
            circuit in 0usize..5,
            ops in prop::collection::vec(0u64..u64::MAX, 0..24),
            fill in 0u64..u64::MAX,
        ) {
            let c = match circuit {
                0 => suite::c17(),
                1 => suite::synthetic("c880s").expect("suite circuit"),
                k => generate(&GeneratorConfig::iscas_like(
                    "small", 3 + k, 3, 10 * k + 6, 700 + k as u64,
                )),
            };
            let mut cone = FaultCone::new(&c);
            let mut a = Assignments::new(c.n_nets());
            let check_store = |a: &Assignments, cone: &mut FaultCone, salt: u64| {
                if c.n_nets() <= 64 {
                    c.topo().try_for_each(|v| check_victim(&c, a, cone, v))
                } else {
                    (0..48u64).try_for_each(|k| {
                        let pick = (salt ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(17);
                        check_victim(&c, a, cone, NetId(pick as usize % c.n_nets()))
                    })
                }
            };
            check_store(&a, &mut cone, fill)?;
            // Random decisions: one frame of one primary input, implied.
            for &op in &ops {
                let pi = c.inputs()[(op >> 16) as usize % c.inputs().len()];
                let v = Tri::from_bool(op >> 9 & 1 == 1);
                let v2 = if op >> 8 & 1 == 1 { V2::new(Tri::X, v) } else { V2::new(v, Tri::X) };
                let before = a.clone();
                if a.set(pi, v2).is_err() || imply(&c, &mut a).is_err() {
                    a = before;
                    continue;
                }
                check_store(&a, &mut cone, op)?;
            }
            // Then every remaining primary-input bit from `fill`.
            for (i, &pi) in c.inputs().iter().enumerate() {
                let bit = |frame: usize| Tri::from_bool(fill.rotate_left((2 * i + frame) as u32) & 1 == 1);
                let old = a.get(pi);
                let first = if old.first.is_known() { old.first } else { bit(0) };
                let second = if old.second.is_known() { old.second } else { bit(1) };
                a.set(pi, V2::new(first, second)).expect("refines the old value");
            }
            imply(&c, &mut a).expect("primary inputs alone cannot conflict");
            check_store(&a, &mut cone, !fill)?;
        }
    }
}
