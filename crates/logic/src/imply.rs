//! Forward/backward three-valued implication to a fixpoint, applied to
//! both time frames independently.

use ssdm_core::Edge;
use ssdm_netlist::{Circuit, GateType, NetId};

use crate::assign::Assignments;
use crate::error::LogicError;
use crate::value::{Tri, V2};

/// Runs implication to a fixpoint.
///
/// Forward: each gate's output is refined with the three-valued evaluation
/// of its fan-ins. Backward: when an output value pins its inputs (e.g. a
/// NAND at `0` forces all inputs to `1`; a NAND at `1` with all-but-one
/// inputs at `1` forces the last to `0`), those inputs are refined too.
/// Frames are independent for combinational circuits, so each rule runs on
/// both frames.
///
/// Implication is event-driven. When `assignments` was closed by an
/// earlier successful call (or is fresh from [`Assignments::new`]), only
/// the gates around the nets [`Assignments::set`] changed since are
/// revisited, so a call on an already-implied store costs O(1). After a
/// conflict, the next call revisits every gate. Every rule is monotone,
/// so the fixpoint — and whether a conflict occurs — does not depend on
/// the order gates are revisited in.
///
/// # Errors
///
/// Returns [`LogicError::Conflict`] when the assignment is inconsistent
/// with the circuit — the caller's current search branch is infeasible.
/// The store is then left partially implied; the net named in the error
/// is diagnostic only.
pub fn imply(circuit: &Circuit, assignments: &mut Assignments) -> Result<(), LogicError> {
    let n = circuit.n_nets();
    let pending = assignments.take_pending();
    if pending.as_ref().is_some_and(Vec::is_empty) {
        assignments.close(pending.unwrap_or_default());
        return Ok(());
    }
    // Work queue of gates to (re)process: the gates around each changed
    // net of a closed store, otherwise every gate.
    let mut queue: Vec<usize> = Vec::new();
    let mut queued = vec![false; n];
    match &pending {
        Some(nets) => {
            for &net in nets {
                enqueue_around(circuit, net, &mut queue, &mut queued);
            }
        }
        None => {
            queue.extend(0..n);
            queued.fill(true);
        }
    }
    let mut changed = Vec::new();
    let mut head = 0;
    while head < queue.len() {
        let gi = queue[head];
        head += 1;
        queued[gi] = false;
        process_gate(circuit, assignments, NetId(gi), &mut changed)?;
        for net in changed.drain(..) {
            enqueue_around(circuit, net, &mut queue, &mut queued);
        }
        // Compact the queue occasionally to bound memory on big circuits.
        if head > 4 * n {
            queue.drain(..head);
            head = 0;
        }
    }
    assignments.close(pending.unwrap_or_default());
    Ok(())
}

/// Queues every gate whose rules read `net`: its consumers (forward) and
/// its driver (backward).
fn enqueue_around(circuit: &Circuit, net: NetId, queue: &mut Vec<usize>, queued: &mut [bool]) {
    for &c in circuit.fanouts(net) {
        if !queued[c.index()] {
            queued[c.index()] = true;
            queue.push(c.index());
        }
    }
    if !queued[net.index()] {
        queued[net.index()] = true;
        queue.push(net.index());
    }
}

/// One forward + backward pass on the gate driving `id`; pushes the nets
/// whose values changed onto `changed`.
fn process_gate(
    circuit: &Circuit,
    a: &mut Assignments,
    id: NetId,
    changed: &mut Vec<NetId>,
) -> Result<(), LogicError> {
    let gate = circuit.gate(id);
    if gate.gtype == GateType::Input {
        return Ok(());
    }
    for frame in [Frame::First, Frame::Second] {
        // Forward.
        let out_val = eval_frame(circuit, a, id, frame);
        if set_frame(a, id, frame, out_val)? {
            changed.push(id);
        }
        // Backward.
        backward_frame(circuit, a, id, frame, changed)?;
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    First,
    Second,
}

fn get_frame(a: &Assignments, net: NetId, frame: Frame) -> Tri {
    let v = a.get(net);
    match frame {
        Frame::First => v.first,
        Frame::Second => v.second,
    }
}

fn set_frame(a: &mut Assignments, net: NetId, frame: Frame, val: Tri) -> Result<bool, LogicError> {
    let v2 = match frame {
        Frame::First => V2::new(val, Tri::X),
        Frame::Second => V2::new(Tri::X, val),
    };
    a.set(net, v2)
}

/// Three-valued forward evaluation of the gate driving `id` on one frame.
fn eval_frame(circuit: &Circuit, a: &Assignments, id: NetId, frame: Frame) -> Tri {
    let gate = circuit.gate(id);
    let mut vals = gate.fanin.iter().map(|&f| get_frame(a, f, frame));
    match gate.gtype {
        GateType::Input => Tri::X,
        GateType::Buf => vals.next().expect("buf has one input"),
        GateType::Not => vals.next().expect("not has one input").not(),
        GateType::And => vals.fold(Tri::One, Tri::and),
        GateType::Nand => vals.fold(Tri::One, Tri::and).not(),
        GateType::Or => vals.fold(Tri::Zero, Tri::or),
        GateType::Nor => vals.fold(Tri::Zero, Tri::or).not(),
    }
}

/// Backward implication on one frame.
fn backward_frame(
    circuit: &Circuit,
    a: &mut Assignments,
    id: NetId,
    frame: Frame,
    changed: &mut Vec<NetId>,
) -> Result<(), LogicError> {
    let gate = circuit.gate(id);
    let out = get_frame(a, id, frame);
    if out == Tri::X {
        return Ok(());
    }
    let out_b = out.to_bool().expect("known");
    match gate.gtype {
        GateType::Input => {}
        GateType::Buf => {
            let f = gate.fanin[0];
            if set_frame(a, f, frame, out)? {
                changed.push(f);
            }
        }
        GateType::Not => {
            let f = gate.fanin[0];
            if set_frame(a, f, frame, out.not())? {
                changed.push(f);
            }
        }
        GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
            let cv = gate
                .gtype
                .controlling_value()
                .expect("multi-input gates have a controlling value");
            // Output value produced when every input is non-controlling.
            let all_noncontrolled_out = !cv ^ gate.gtype.inverting();
            if out_b == all_noncontrolled_out {
                // Only possible when every input is at the non-controlling
                // value.
                for &f in &gate.fanin {
                    if set_frame(a, f, frame, Tri::from_bool(!cv))? {
                        changed.push(f);
                    }
                }
            } else {
                // Some input carries the controlling value; if exactly one
                // candidate remains, it is forced.
                let mut unknown = None;
                let mut n_unknown_or_cv = 0;
                for &f in &gate.fanin {
                    match get_frame(a, f, frame).to_bool() {
                        Some(v) if v == cv => return Ok(()), // already justified
                        Some(_) => {}
                        None => {
                            unknown = Some(f);
                            n_unknown_or_cv += 1;
                        }
                    }
                }
                match (n_unknown_or_cv, unknown) {
                    (0, _) => return Err(LogicError::Conflict { net: id }),
                    (1, Some(f)) if set_frame(a, f, frame, Tri::from_bool(cv))? => {
                        changed.push(f);
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Sets a primary-input pair assignment and implies; convenience for tests
/// and the ATPG.
///
/// # Errors
///
/// As for [`imply`].
pub fn assign_and_imply(
    circuit: &Circuit,
    assignments: &mut Assignments,
    net: NetId,
    value: V2,
) -> Result<(), LogicError> {
    assignments.set(net, value)?;
    imply(circuit, assignments)
}

/// Computes the exact two-frame values from fully specified input vectors —
/// the ground truth implication must agree with.
///
/// # Panics
///
/// Panics if vector lengths differ from the input count.
pub fn simulate_two_frames(circuit: &Circuit, v1: &[bool], v2: &[bool]) -> Vec<V2> {
    let f1 = full_eval(circuit, v1);
    let f2 = full_eval(circuit, v2);
    f1.into_iter()
        .zip(f2)
        .map(|(a, b)| V2::new(Tri::from_bool(a), Tri::from_bool(b)))
        .collect()
}

fn full_eval(circuit: &Circuit, inputs: &[bool]) -> Vec<bool> {
    assert_eq!(inputs.len(), circuit.inputs().len());
    let mut values = vec![false; circuit.n_nets()];
    for (pi, &v) in circuit.inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    for id in circuit.topo() {
        let g = circuit.gate(id);
        if g.gtype == GateType::Input {
            continue;
        }
        let vals: Vec<bool> = g.fanin.iter().map(|f| values[f.index()]).collect();
        values[id.index()] = g.gtype.eval(&vals);
    }
    values
}

/// The edge implied on every net when the two frames differ, else `None` —
/// handy when turning a two-frame simulation into transitions.
pub fn edges_of(values: &[V2]) -> Vec<Option<Edge>> {
    values
        .iter()
        .map(|v| match (v.first.to_bool(), v.second.to_bool()) {
            (Some(false), Some(true)) => Some(Edge::Rise),
            (Some(true), Some(false)) => Some(Edge::Fall),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdm_netlist::{generate, suite, GeneratorConfig};

    /// The oracle for event-driven implication: every gate, in index order,
    /// round after round until a whole round changes nothing — no worklist
    /// and no bookkeeping.
    fn imply_from_scratch(c: &Circuit, a: &mut Assignments) -> Result<(), LogicError> {
        let mut changed = Vec::new();
        loop {
            let before = a.values().to_vec();
            for gi in 0..c.n_nets() {
                process_gate(c, a, NetId(gi), &mut changed)?;
            }
            changed.clear();
            if a.values() == before.as_slice() {
                return Ok(());
            }
        }
    }

    /// Runs [`imply`] on `a` and checks it against the oracle run on a
    /// copy of the same store.
    fn imply_checked(c: &Circuit, a: &mut Assignments) -> Result<(), LogicError> {
        let mut oracle = a.clone();
        let expected = imply_from_scratch(c, &mut oracle);
        let got = imply(c, a);
        assert_eq!(
            got.is_ok(),
            expected.is_ok(),
            "{got:?} vs oracle {expected:?}"
        );
        if got.is_ok() {
            assert_eq!(a.values(), oracle.values());
        }
        got
    }

    fn frame_value(second: bool, value: bool) -> V2 {
        let v = Tri::from_bool(value);
        if second {
            V2::new(Tri::X, v)
        } else {
            V2::new(v, Tri::X)
        }
    }

    #[test]
    fn forward_implication_c17() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Set all PIs steady-1 and check outputs match eval.
        for &pi in c.inputs() {
            a.set(pi, V2::steady(true)).unwrap();
        }
        imply(&c, &mut a).unwrap();
        let o22 = c.find("22").unwrap();
        let o23 = c.find("23").unwrap();
        assert_eq!(a.get(o22), V2::steady(true));
        assert_eq!(a.get(o23), V2::steady(false));
    }

    #[test]
    fn backward_forces_nand_inputs() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Force gate 10 = NAND(1, 3) to 0 in frame 1: both inputs must be 1.
        let g10 = c.find("10").unwrap();
        a.set(g10, V2::new(Tri::Zero, Tri::X)).unwrap();
        imply(&c, &mut a).unwrap();
        let i1 = c.find("1").unwrap();
        let i3 = c.find("3").unwrap();
        assert_eq!(a.get(i1).first, Tri::One);
        assert_eq!(a.get(i3).first, Tri::One);
    }

    #[test]
    fn backward_last_candidate_rule() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // 10 = NAND(1, 3) = 1 with input 1 already at 1 → input 3 must be 0.
        let g10 = c.find("10").unwrap();
        let i1 = c.find("1").unwrap();
        let i3 = c.find("3").unwrap();
        a.set(g10, V2::new(Tri::One, Tri::X)).unwrap();
        a.set(i1, V2::new(Tri::One, Tri::X)).unwrap();
        imply(&c, &mut a).unwrap();
        assert_eq!(a.get(i3).first, Tri::Zero);
    }

    #[test]
    fn conflict_detection() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // All PIs 1 make 22 = 1; also demanding 22 = 0 must conflict.
        for &pi in c.inputs() {
            a.set(pi, V2::new(Tri::One, Tri::X)).unwrap();
        }
        let o22 = c.find("22").unwrap();
        a.set(o22, V2::new(Tri::Zero, Tri::X)).unwrap();
        assert!(matches!(
            imply(&c, &mut a),
            Err(LogicError::Conflict { .. })
        ));
    }

    #[test]
    fn two_frame_independence() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        // Rising transition on every PI.
        for &pi in c.inputs() {
            a.set(pi, V2::transition(Edge::Rise)).unwrap();
        }
        imply(&c, &mut a).unwrap();
        let truth = simulate_two_frames(&c, &[false; 5], &[true; 5]);
        for id in c.topo() {
            assert_eq!(a.get(id), truth[id.index()], "net {}", c.gate(id).name);
        }
    }

    #[test]
    fn edges_of_maps_values() {
        let vals = vec![
            V2::transition(Edge::Rise),
            V2::transition(Edge::Fall),
            V2::steady(true),
            V2::XX,
        ];
        assert_eq!(
            edges_of(&vals),
            vec![Some(Edge::Rise), Some(Edge::Fall), None, None]
        );
    }

    #[test]
    fn fresh_store_is_already_implied_on_every_suite_circuit() {
        for c in suite::bench_suite() {
            let fresh = Assignments::new(c.n_nets());
            let mut a = fresh.clone();
            imply_from_scratch(&c, &mut a).unwrap();
            assert_eq!(a, fresh, "{}", c.name());
            imply(&c, &mut a).unwrap();
            assert_eq!(a, fresh, "{}", c.name());
        }
    }

    #[test]
    fn conflict_makes_the_next_call_revisit_every_gate() {
        let c = suite::c17();
        let mut a = Assignments::new(c.n_nets());
        for &pi in c.inputs() {
            a.set(pi, V2::new(Tri::One, Tri::X)).unwrap();
        }
        let o22 = c.find("22").unwrap();
        a.set(o22, V2::new(Tri::Zero, Tri::X)).unwrap();
        assert!(imply(&c, &mut a).is_err());
        // No net changed since the failed call, yet the store is still
        // inconsistent: only a call that revisits every gate can tell.
        assert!(imply(&c, &mut a).is_err(), "conflict lost on the retry");
        // The same holds after a change far from the conflict.
        let i3 = c.find("3").unwrap();
        a.set(i3, V2::new(Tri::X, Tri::Zero)).unwrap();
        assert!(imply(&c, &mut a).is_err(), "conflict lost after a change");
    }

    proptest! {
        /// Event-driven implication equals from-scratch implication after
        /// every call — values and `Ok`/`Err` alike — through random
        /// decisions in both frames, snapshot/restore and forced
        /// conflicts. A conflicting branch is abandoned for the last
        /// snapshot only half the time, so calls on a store left behind
        /// by a conflict are covered too.
        #[test]
        fn event_driven_matches_from_scratch(
            circuit in 0usize..4,
            ops in prop::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            let c = match circuit {
                0 => suite::c17(),
                k => generate(&GeneratorConfig::iscas_like(
                    "small", 4 + k, 3, 12 * k + 8, 900 + k as u64,
                )),
            };
            let mut a = Assignments::new(c.n_nets());
            let mut snapshots = Vec::new();
            let mut conflicts = 0usize;
            for op in ops {
                // Low bits pick the step, the next two the frame and value,
                // the rest the net.
                let (second, value, index) = (op >> 8 & 1 == 1, op >> 9 & 1 == 1, (op >> 16) as usize);
                let (net, v) = match op % 12 {
                    // A PODEM decision: one frame of one primary input.
                    0..=5 => (c.inputs()[index % c.inputs().len()], frame_value(second, value)),
                    // An assignment to any net, which often forces a conflict.
                    6 | 7 => (NetId(index % c.n_nets()), frame_value(second, value)),
                    8 | 9 => {
                        snapshots.push(a.clone());
                        continue;
                    }
                    _ => {
                        if let Some(s) = snapshots.pop() {
                            a = s;
                        }
                        continue;
                    }
                };
                if a.set(net, v).is_err() {
                    continue;
                }
                if imply_checked(&c, &mut a).is_err() {
                    conflicts += 1;
                    if conflicts.is_multiple_of(2) {
                        a = snapshots.last().cloned().unwrap_or_else(|| Assignments::new(c.n_nets()));
                    }
                }
            }
        }

        /// Soundness: implication from a subset of the true values never
        /// conflicts and never contradicts the truth.
        #[test]
        fn implication_is_sound(bits1 in 0u8..32, bits2 in 0u8..32, mask in 0u16..2048) {
            let c = suite::c17();
            let v1: Vec<bool> = (0..5).map(|i| bits1 & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..5).map(|i| bits2 & (1 << i) != 0).collect();
            let truth = simulate_two_frames(&c, &v1, &v2);
            let mut a = Assignments::new(c.n_nets());
            for id in c.topo() {
                if mask & (1 << (id.index() % 11)) != 0 {
                    a.set(id, truth[id.index()]).unwrap();
                }
            }
            imply(&c, &mut a).expect("consistent seed values cannot conflict");
            for id in c.topo() {
                let implied = a.get(id);
                let t = truth[id.index()];
                prop_assert!(implied.first.refines_to(t.first),
                    "net {}: implied {} vs truth {}", c.gate(id).name, implied, t);
                prop_assert!(implied.second.refines_to(t.second));
            }
        }

        /// Fully specified inputs imply exactly the simulation values.
        #[test]
        fn implication_is_complete_on_full_vectors(bits1 in 0u8..32, bits2 in 0u8..32) {
            let c = suite::c17();
            let v1: Vec<bool> = (0..5).map(|i| bits1 & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..5).map(|i| bits2 & (1 << i) != 0).collect();
            let truth = simulate_two_frames(&c, &v1, &v2);
            let mut a = Assignments::new(c.n_nets());
            for (idx, &pi) in c.inputs().iter().enumerate() {
                a.set(pi, V2::new(Tri::from_bool(v1[idx]), Tri::from_bool(v2[idx]))).unwrap();
            }
            imply(&c, &mut a).unwrap();
            for id in c.topo() {
                prop_assert_eq!(a.get(id), truth[id.index()]);
            }
        }
    }
}
