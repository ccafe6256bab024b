//! Cost of implication as PODEM drives it: a fixed sequence of one-frame
//! primary-input decisions, each on a snapshot of the store, with
//! backtracks that restore a snapshot and imply the complement, replayed
//! through `ssdm_logic::imply` on `c3540s` and `c7552s`.
//!
//! No cell library and no timing: this is the logic layer alone, so a
//! change to implication gets a number without a whole ATPG campaign.

use criterion::{criterion_group, BenchmarkId, Criterion};
use ssdm_logic::{imply, Assignments, Tri, V2};
use ssdm_netlist::{suite, Circuit, NetId};

/// Steps per replay.
const STEPS: usize = 400;
/// Decisions stacked before a backtrack is forced.
const MAX_DEPTH: usize = 24;

/// One step of the replay.
#[derive(Clone, Copy)]
enum Op {
    /// Snapshot the store, then set one frame of a primary input.
    Decide {
        pi: NetId,
        second: bool,
        value: bool,
    },
    /// PODEM's backtrack: drop the decisions already flipped, restore the
    /// snapshot of the latest unflipped one and set its complement.
    Backtrack,
    /// Every decision is flipped: the search space is exhausted, and the
    /// next fault starts from the all-`x` store.
    Restart,
}

/// The replay script: a seeded walk over the primary inputs' free frames.
/// Only decisions set primary inputs, so which frames are free is known
/// without implying, and every step implies without a conflict.
fn script(circuit: &Circuit, seed: u64) -> Vec<Op> {
    let mut state = seed;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let inputs = circuit.inputs();
    let mut free = vec![[true; 2]; inputs.len()];
    // (input, frame, flipped) per stacked decision.
    let mut stack: Vec<(usize, usize, bool)> = Vec::new();
    let mut ops = Vec::with_capacity(STEPS);
    while ops.len() < STEPS {
        let r = next();
        let can_backtrack = stack.iter().any(|&(.., flipped)| !flipped);
        if stack.len() < MAX_DEPTH && (r % 4 != 0 || !can_backtrack) {
            let (k, frame) = ((r >> 8) as usize % inputs.len(), (r >> 40) as usize & 1);
            if free[k][frame] {
                free[k][frame] = false;
                stack.push((k, frame, false));
                ops.push(Op::Decide {
                    pi: inputs[k],
                    second: frame == 1,
                    value: r >> 41 & 1 == 1,
                });
            }
        } else if can_backtrack {
            while let Some((k, frame, true)) = stack.last().copied() {
                free[k][frame] = true;
                stack.pop();
            }
            stack.last_mut().expect("an unflipped decision").2 = true;
            ops.push(Op::Backtrack);
        } else {
            stack.clear();
            free.iter_mut().for_each(|f| *f = [true; 2]);
            ops.push(Op::Restart);
        }
    }
    ops
}

/// A stacked decision of the replay.
struct Decision {
    snapshot: Assignments,
    pi: NetId,
    second: bool,
    value: bool,
    flipped: bool,
}

/// Replays `ops` from the all-`x` store.
fn replay(circuit: &Circuit, ops: &[Op]) {
    let frame_value = |second: bool, value: bool| {
        let v = Tri::from_bool(value);
        if second {
            V2::new(Tri::X, v)
        } else {
            V2::new(v, Tri::X)
        }
    };
    let mut a = Assignments::new(circuit.n_nets());
    let mut stack: Vec<Decision> = Vec::new();
    for &op in ops {
        let (pi, second, value) = match op {
            Op::Decide { pi, second, value } => {
                stack.push(Decision {
                    snapshot: a.clone(),
                    pi,
                    second,
                    value,
                    flipped: false,
                });
                (pi, second, value)
            }
            Op::Backtrack => {
                while stack.last().is_some_and(|d| d.flipped) {
                    stack.pop();
                }
                let d = stack
                    .last_mut()
                    .expect("the script backtracks to a decision");
                d.flipped = true;
                d.value = !d.value;
                a = d.snapshot.clone();
                (d.pi, d.second, d.value)
            }
            Op::Restart => {
                a = Assignments::new(circuit.n_nets());
                stack.clear();
                continue;
            }
        };
        a.set(pi, frame_value(second, value)).expect("free frame");
        imply(circuit, &mut a).expect("input decisions cannot conflict");
    }
}

/// The replayed circuits.
const CIRCUITS: [&str; 2] = ["c3540s", "c7552s"];
/// The script seed (the `sec7_atpg` site seed, for want of another).
const SEED: u64 = 7001;

fn bench_imply(c: &mut Criterion) {
    let mut group = c.benchmark_group("imply_podem_replay");
    for name in CIRCUITS {
        let circuit = suite::synthetic(name).expect("suite member");
        let ops = script(&circuit, SEED);
        let implications = ops.iter().filter(|op| !matches!(op, Op::Restart)).count();
        let id = BenchmarkId::new(name, format!("{implications}_implies"));
        group.bench_with_input(id, &ops, |b, ops| b.iter(|| replay(&circuit, ops)));
    }
    group.finish();
}

criterion_group!(benches, bench_imply);

fn main() {
    // `cargo bench -- --test` (CI's bench smoke) skips measurement, so
    // replay each script once there: the run still checks that every step
    // sets a free frame and implies without a conflict.
    if std::env::args().any(|a| a == "--test") {
        for name in CIRCUITS {
            let circuit = suite::synthetic(name).expect("suite member");
            replay(&circuit, &script(&circuit, SEED));
        }
        return;
    }
    benches();
}
