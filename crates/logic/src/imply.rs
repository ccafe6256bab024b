//! Forward/backward three-valued implication to a fixpoint, applied to
//! both time frames independently.

use std::cell::Cell;

use ssdm_core::Edge;
use ssdm_netlist::{Circuit, Gate, GateType, NetId};

use crate::assign::Assignments;
use crate::error::LogicError;
use crate::value::{Tri, V2};

/// Runs implication to a fixpoint.
///
/// Forward: each gate's output is refined with the three-valued evaluation
/// of its fan-ins. Backward: when an output value pins its inputs (e.g. a
/// NAND at `0` forces all inputs to `1`; a NAND at `1` with all-but-one
/// inputs at `1` forces the last to `0`), those inputs are refined too.
/// Frames are independent for combinational circuits: no rule of one
/// frame reads a value of the other, so each frame is implied on its own.
///
/// Implication is event-driven. When `assignments` was closed by an
/// earlier successful call (or is fresh from [`Assignments::new`]), only
/// the gates around the nets [`Assignments::set`] changed since are
/// revisited, and only in the frames that changed: a PODEM decision that
/// sets one frame of one input costs only that frame's cone, and a call
/// on an already-implied store costs O(1). After a conflict, the next
/// call revisits every gate in both frames. Every rule is monotone, so
/// the fixpoint — and whether a conflict occurs — does not depend on the
/// order gates or frames are revisited in.
///
/// # Errors
///
/// Returns [`LogicError::Conflict`] when the assignment is inconsistent
/// with the circuit — the caller's current search branch is infeasible.
/// The store is then left partially implied; the net named in the error
/// is diagnostic only.
pub fn imply(circuit: &Circuit, assignments: &mut Assignments) -> Result<(), LogicError> {
    let pending = assignments.take_pending();
    let seeds = |frame: usize| pending.as_ref().map(|p| p[frame].as_slice());
    let values = assignments.values_mut();
    // Taken for the call and put back after it: a call that panics drops
    // its worklist, so no later call inherits half-run state.
    let mut w = WORKLIST.take();
    let implied = w
        .run::<false>(circuit, values, seeds(0))
        .and_then(|()| w.run::<true>(circuit, values, seeds(1)));
    WORKLIST.set(w);
    implied?;
    assignments.close(pending.unwrap_or_default());
    Ok(())
}

thread_local! {
    /// Per-thread worklist, reused across calls so an implication
    /// allocates nothing once the buffers have grown to the circuit.
    static WORKLIST: Cell<Worklist> = Cell::default();
}

/// The gates of one frame still to (re)visit. Between calls `queue` is
/// empty and every `queued` flag is false.
#[derive(Default)]
struct Worklist {
    queue: Vec<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    /// Implies frame `SECOND` to its fixpoint, starting from the gates
    /// around `seeds` (the nets changed in this frame since the store was
    /// closed), or from every gate when `seeds` is `None`.
    fn run<const SECOND: bool>(
        &mut self,
        circuit: &Circuit,
        values: &mut [V2],
        seeds: Option<&[NetId]>,
    ) -> Result<(), LogicError> {
        let n = circuit.n_nets();
        self.queued.resize(n, false);
        let Worklist { queue, queued } = self;
        match seeds {
            Some(nets) => {
                for &net in nets {
                    enqueue_around(circuit, net, queue, queued);
                }
            }
            None => {
                queue.extend(0..n);
                queued.fill(true);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let gi = queue[head];
            head += 1;
            // `gi` stays flagged while its own changes are queued: one
            // pass of a gate rule leaves that gate's rule satisfied.
            let visited = gate_rule::<SECOND>(circuit.gate(NetId(gi)), NetId(gi), values, |net| {
                enqueue_around(circuit, net, queue, queued);
            });
            queued[gi] = false;
            if let Err(e) = visited {
                for &g in &queue[head..] {
                    queued[g] = false;
                }
                queue.clear();
                return Err(e);
            }
            // Compact the queue occasionally to bound memory on big circuits.
            if head > 4 * n {
                queue.drain(..head);
                head = 0;
            }
        }
        queue.clear();
        Ok(())
    }
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

/// The value of frame `SECOND` (the first frame when false).
fn frame<const SECOND: bool>(v: V2) -> Tri {
    if SECOND {
        v.second
    } else {
        v.first
    }
}

/// Refines frame `SECOND` of `net` from `x` to `val` and reports the
/// change.
fn write<const SECOND: bool>(
    values: &mut [V2],
    net: NetId,
    val: Tri,
    changed: &mut impl FnMut(NetId),
) {
    let v = &mut values[net.index()];
    if SECOND {
        v.second = val;
    } else {
        v.first = val;
    }
    changed(net);
}

/// One visit of gate `gate` (driving `id`) in frame `SECOND`: the forward
/// rule and the backward rules in a single sweep over the fan-ins,
/// refining values in place and calling `changed` once for each net it
/// changes. Afterwards the gate's own rules are satisfied, so it need
/// not be revisited until a neighbour changes one of its nets.
///
/// For an AND/NAND/OR/NOR the sweep counts the fan-ins at the controlling
/// value `cv` and those at `x`. The output is then controlled if any input
/// is at `cv`, non-controlled if none is `x`, else unknown; an output known
/// to be non-controlled forces every `x` input to `!cv`; a controlled output
/// with no input at `cv` forces the last `x` input, if only one is left,
/// to `cv`.
fn gate_rule<const SECOND: bool>(
    gate: &Gate,
    id: NetId,
    values: &mut [V2],
    mut changed: impl FnMut(NetId),
) -> Result<(), LogicError> {
    let changed = &mut changed;
    let conflict = LogicError::Conflict { net: id };
    let out = frame::<SECOND>(values[id.index()]);
    let Some(cv) = gate.gtype.controlling_value() else {
        if gate.gtype == GateType::Input {
            return Ok(());
        }
        // BUF and NOT: output and input carry the same information.
        let inverting = gate.gtype.inverting();
        let f = gate.fanin[0];
        let input = frame::<SECOND>(values[f.index()]);
        let forward = if inverting { input.not() } else { input };
        let merged = out.meet(forward).ok_or(conflict)?;
        if merged != out {
            write::<SECOND>(values, id, merged, changed);
        }
        if merged != forward {
            let backward = if inverting { merged.not() } else { merged };
            write::<SECOND>(values, f, backward, changed);
        }
        return Ok(());
    };
    let (cv_tri, ncv_tri) = (Tri::from_bool(cv), Tri::from_bool(!cv));
    let (mut n_cv, mut n_x, mut last_x) = (0usize, 0usize, id);
    // Branch-free: fan-in values are data, not a predictable pattern.
    for &f in &gate.fanin {
        let v = frame::<SECOND>(values[f.index()]);
        let is_x = v == Tri::X;
        n_cv += usize::from(v == cv_tri);
        n_x += usize::from(is_x);
        last_x = if is_x { f } else { last_x };
    }
    let controlled = Tri::from_bool(cv ^ gate.gtype.inverting());
    let forward = match (n_cv, n_x) {
        (0, 0) => controlled.not(),
        (0, _) => Tri::X,
        _ => controlled,
    };
    let merged = out.meet(forward).ok_or(conflict)?;
    if merged != out {
        write::<SECOND>(values, id, merged, changed);
    }
    // With an input at `cv` the output is justified (a non-controlled
    // output would have conflicted above); with no `x` input the forward
    // value already fixed everything.
    if n_cv > 0 || n_x == 0 || merged == Tri::X {
        return Ok(());
    }
    if merged == controlled {
        if n_x == 1 {
            write::<SECOND>(values, last_x, cv_tri, changed);
        }
    } else {
        for &f in &gate.fanin {
            if frame::<SECOND>(values[f.index()]) == Tri::X {
                write::<SECOND>(values, f, ncv_tri, changed);
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

/// The two-pass per-frame rules the single-pass [`gate_rule`] replaced,
/// kept as an independent reference: a forward evaluation, then the
/// backward rules read back through [`Assignments::set`]. It shares no
/// rule code with production.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Frame {
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

    fn set_frame(
        a: &mut Assignments,
        net: NetId,
        frame: Frame,
        val: Tri,
    ) -> Result<bool, LogicError> {
        let v2 = match frame {
            Frame::First => V2::new(val, Tri::X),
            Frame::Second => V2::new(Tri::X, val),
        };
        a.set(net, v2)
    }

    /// One forward + backward pass on the gate driving `id` in `frame`.
    pub(super) fn process_gate_frame(
        circuit: &Circuit,
        a: &mut Assignments,
        id: NetId,
        frame: Frame,
    ) -> Result<(), LogicError> {
        if circuit.gate(id).gtype == GateType::Input {
            return Ok(());
        }
        let out_val = eval_frame(circuit, a, id, frame);
        set_frame(a, id, frame, out_val)?;
        backward_frame(circuit, a, id, frame)
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
                set_frame(a, gate.fanin[0], frame, out)?;
            }
            GateType::Not => {
                set_frame(a, gate.fanin[0], frame, out.not())?;
            }
            GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
                let cv = gate
                    .gtype
                    .controlling_value()
                    .expect("multi-input gates have a controlling value");
                // Output value produced when every input is non-controlling.
                let all_noncontrolled_out = !cv ^ gate.gtype.inverting();
                if out_b == all_noncontrolled_out {
                    // Only possible when every input is at the
                    // non-controlling value.
                    for &f in &gate.fanin {
                        set_frame(a, f, frame, Tri::from_bool(!cv))?;
                    }
                } else {
                    // Some input carries the controlling value; if exactly
                    // one candidate remains, it is forced.
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
                        (1, Some(f)) => {
                            set_frame(a, f, frame, Tri::from_bool(cv))?;
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{process_gate_frame, Frame};
    use super::*;
    use proptest::prelude::*;
    use ssdm_netlist::{generate, suite, CircuitBuilder, GeneratorConfig};

    /// The oracle for event-driven implication: the reference rules of
    /// every gate in both frames, in index order, round after round until
    /// a whole round changes nothing — no worklist, no frame split and no
    /// bookkeeping.
    fn imply_from_scratch(c: &Circuit, a: &mut Assignments) -> Result<(), LogicError> {
        loop {
            let before = a.values().to_vec();
            for gi in 0..c.n_nets() {
                for frame in [Frame::First, Frame::Second] {
                    process_gate_frame(c, a, NetId(gi), frame)?;
                }
            }
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

    /// Replays `ops` on a fresh store, checking every [`imply`] against
    /// the oracle: one-frame decisions on primary inputs, assignments to
    /// any net (which often force a conflict), snapshots and restores. A
    /// conflicting branch is abandoned for the last snapshot only every
    /// other time, so calls on a store left behind by a conflict are
    /// covered too.
    fn replay_checked(c: &Circuit, ops: &[u64]) {
        let mut a = Assignments::new(c.n_nets());
        let mut snapshots = Vec::new();
        let mut conflicts = 0usize;
        for &op in ops {
            // Low bits pick the step, the next two the frame and value,
            // the rest the net.
            let (second, value, index) = (op >> 8 & 1 == 1, op >> 9 & 1 == 1, (op >> 16) as usize);
            let (net, v) = match op % 12 {
                // A PODEM decision: one frame of one primary input.
                0..=5 => (
                    c.inputs()[index % c.inputs().len()],
                    frame_value(second, value),
                ),
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
            if imply_checked(c, &mut a).is_err() {
                conflicts += 1;
                if conflicts.is_multiple_of(2) {
                    a = snapshots
                        .last()
                        .cloned()
                        .unwrap_or_else(|| Assignments::new(c.n_nets()));
                }
            }
        }
    }

    /// Every value the reference rules see in one frame of a one-gate
    /// circuit: `nets` gate inputs plus the output, each `0`, `1` or `x`.
    fn tri_combinations(nets: usize) -> impl Iterator<Item = Vec<Tri>> {
        (0..3usize.pow(nets as u32)).map(move |code| {
            (0..nets)
                .map(|k| Tri::ALL[code / 3usize.pow(k as u32) % 3])
                .collect()
        })
    }

    /// Checks the single-pass rule against the reference rules on every
    /// `{0,1,x}` combination of one gate's pins and output in one frame.
    fn check_gate_exhaustively(gtype: GateType, pins: &[usize], distinct: usize) {
        let mut b = CircuitBuilder::new("gate");
        let names: Vec<String> = (0..distinct).map(|k| format!("i{k}")).collect();
        for name in &names {
            b.input(name.as_str());
        }
        let fanin: Vec<&str> = pins.iter().map(|&k| names[k].as_str()).collect();
        b.gate("g", gtype, &fanin).unwrap().output("g");
        let c = b.build().unwrap();
        let g = c.find("g").unwrap();
        let mut nets: Vec<NetId> = names.iter().map(|n| c.find(n).unwrap()).collect();
        nets.push(g);
        for combo in tri_combinations(nets.len()) {
            for frame in [Frame::First, Frame::Second] {
                let second = frame == Frame::Second;
                // The other frame holds values of its own, which neither
                // rule may touch.
                let mut a = Assignments::new(c.n_nets());
                for (k, (&net, &v)) in nets.iter().zip(&combo).enumerate() {
                    let other = Tri::ALL[(k + combo.len()) % 3];
                    let pair = if second {
                        V2::new(other, v)
                    } else {
                        V2::new(v, other)
                    };
                    a.set(net, pair).unwrap();
                }
                let before = a.values().to_vec();
                let mut expected = a.clone();
                let want = process_gate_frame(&c, &mut expected, g, frame);
                let mut got = before.clone();
                let mut changed = Vec::new();
                let rule = |got: &mut [V2], changed: &mut Vec<NetId>| {
                    let record = |net| changed.push(net);
                    if second {
                        gate_rule::<true>(c.gate(g), g, got, record)
                    } else {
                        gate_rule::<false>(c.gate(g), g, got, record)
                    }
                };
                let res = rule(&mut got, &mut changed);
                let case = format!("{gtype} pins {pins:?} {frame:?} values {combo:?}");
                assert_eq!(res, want, "{case}");
                if res.is_err() {
                    continue;
                }
                assert_eq!(got, expected.values(), "{case}");
                let mut moved: Vec<NetId> = (0..c.n_nets())
                    .map(NetId)
                    .filter(|n| got[n.index()] != before[n.index()])
                    .collect();
                changed.sort();
                moved.sort();
                assert_eq!(changed, moved, "changed list of {case}");
                // One visit leaves the gate's own rules satisfied, which is
                // why the worklist does not requeue the gate it is visiting.
                assert_eq!(rule(&mut got, &mut changed), Ok(()), "{case}");
                assert_eq!(changed, moved, "second visit of {case}");
            }
        }
    }

    #[test]
    fn single_pass_rule_matches_reference_rules_exhaustively() {
        for gtype in [GateType::Buf, GateType::Not] {
            check_gate_exhaustively(gtype, &[0], 1);
        }
        for gtype in [GateType::And, GateType::Nand, GateType::Or, GateType::Nor] {
            for n in 2..=4 {
                check_gate_exhaustively(gtype, &(0..n).collect::<Vec<_>>(), n);
            }
            // A net on two pins counts twice, as the reference counts it.
            check_gate_exhaustively(gtype, &[0, 1, 0], 2);
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
    fn a_panicking_call_leaves_no_stale_worklist() {
        let c = suite::c17();
        let big = generate(&GeneratorConfig::iscas_like("big", 6, 3, 60, 901));
        assert!(big
            .fanouts(NetId(0))
            .iter()
            .any(|g| g.index() >= c.n_nets()));
        // A store too small for the circuit panics mid-run, with gates
        // of `big` that `c17` does not have still queued.
        let mut small = Assignments::new(3);
        small.set(NetId(0), V2::steady(true)).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = imply(&big, &mut small);
        }));
        assert!(panicked.is_err());
        // The next call on this thread still reaches every gate it must.
        let mut a = Assignments::new(c.n_nets());
        for &pi in c.inputs() {
            a.set(pi, V2::transition(Edge::Rise)).unwrap();
        }
        imply_checked(&c, &mut a).unwrap();
        let truth = simulate_two_frames(&c, &[false; 5], &[true; 5]);
        assert_eq!(a.values(), truth.as_slice());
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
        /// conflicts ([`replay_checked`]), on small circuits.
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
            replay_checked(&c, &ops);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The same check on a suite circuit, as PODEM drives it: mostly
        /// one frame of one input per call, so one-frame seeding runs on
        /// cones of hundreds of gates, with the other frame's values
        /// already implied.
        #[test]
        fn one_frame_decisions_match_from_scratch_on_c880s(
            ops in prop::collection::vec(0u64..u64::MAX, 1..60),
        ) {
            let c = suite::synthetic("c880s").expect("suite circuit");
            replay_checked(&c, &ops);
        }
    }
}
