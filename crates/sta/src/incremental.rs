//! The incremental dirty-cone timing engine.
//!
//! [`Sta::run`](crate::Sta::run) recomputes every window of every gate
//! from scratch; ITR (Section 5 of the paper) needs windows once per ATPG
//! decision *and* per backtrack, making that the dominant cost of
//! timing-driven test generation. This module provides the engine ITR
//! refines with. It evaluates gates through the same kernel as plain STA
//! ([`GateTable::eval`]) and adds two ideas:
//!
//! 1. **Dirty-cone propagation.** The engine keeps the previous
//!    participation state of every net. A refinement call diffs the new
//!    participation against it, seeds a worklist with the changed nets
//!    and their fan-outs, and processes the worklist in topological
//!    order. A re-evaluated gate stores its new [`LineTiming`] and
//!    per-pin [`DelaysUsed`], but only a changed `LineTiming` enqueues its
//!    fan-outs: a fan-out reads its fan-ins' windows and participations,
//!    never their used delays. A single primary-input assignment
//!    therefore touches only its fan-out cone rather than the whole
//!    circuit.
//! 2. **Gate-evaluation memoization.** Every gate evaluation is a pure
//!    function of (gate, input windows, input participations, own
//!    participation) — the load, stage plan and cells are fixed per
//!    gate. Evaluations are cached under a bit-exact key, so PODEM
//!    backtracks that revisit an earlier assignment are served from
//!    cache without touching the characterized-cell fits.
//!
//! # Equivalence invariants
//!
//! The engine guarantees results **bit-identical** to a from-scratch
//! recomputation under the same participation map (see DESIGN.md §"The
//! incremental engine"):
//!
//! * per-gate evaluation is deterministic and depends only on the
//!   memo-key inputs, so a memo hit returns exactly what re-evaluation
//!   would;
//! * a gate outside the dirty cone has, by induction over topological
//!   order, bit-identical inputs to the full recomputation, so its
//!   stored result is exactly what re-evaluation would produce.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use ssdm_cells::CellLibrary;
use ssdm_core::Edge;
use ssdm_netlist::{Circuit, NetId};

use crate::engine::{StaConfig, StaResult};
use crate::error::StaError;
use crate::kernel::GateTable;
use crate::propagate::DelaysUsed;
use crate::window::{LineTiming, Participation, PinWindow};

/// Per-net, per-edge participation for a whole circuit, indexed
/// `map[net.index()][edge.index()]`. The all-[`Participation::May`] map
/// is plain STA.
pub type ParticipationMap = Vec<[Participation; 2]>;

/// An all-`May` participation map for `n` nets (the plain-STA case).
pub fn unconstrained_participation(n: usize) -> ParticipationMap {
    vec![[Participation::May; 2]; n]
}

/// Counters describing how much work the engine has avoided; useful for
/// benchmark reporting and ATPG diagnostics.
///
/// Every engine instance counts only its own work in a plain field, so
/// under a multi-worker driver (each worker owning one engine) the
/// per-worker values are race-free by construction and no other thread
/// (not even an `ssdm_obs::reset`) can change them; campaign totals come
/// from summing them with `+` / `+=`. When an engine drops it adds its
/// totals to the `ssdm-obs` registry under the `sta.incremental.*` names
/// ([`IncrementalStats::publish`]), so [`ssdm_obs::counter_total`] and
/// run reports aggregate every engine a process has finished with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Full passes (first run and explicit full recomputations).
    pub full_passes: u64,
    /// Incremental (dirty-cone) refinement calls.
    pub incremental_passes: u64,
    /// Nets whose participation diff seeded the worklist, summed over
    /// all incremental passes.
    pub dirty_seeds: u64,
    /// Gate evaluations actually performed (both pass kinds, including
    /// memo hits).
    pub gates_evaluated: u64,
    /// Gate evaluations answered from the memo cache.
    pub memo_hits: u64,
    /// Gate evaluations that had to run the window propagation.
    pub memo_misses: u64,
    /// Times the memo cache hit its size cap and was cleared.
    pub memo_evictions: u64,
    /// Copies of the window state made because a result taken by
    /// [`IncrementalSta::share`] still held it when a pass changed it
    /// (`itr.copy.cloned`).
    pub state_copies: u64,
}

impl IncrementalStats {
    /// The counts under their registry names.
    fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("sta.incremental.full_passes", self.full_passes),
            (
                "sta.incremental.incremental_passes",
                self.incremental_passes,
            ),
            ("sta.incremental.dirty_seeds", self.dirty_seeds),
            ("sta.incremental.gates_evaluated", self.gates_evaluated),
            ("sta.incremental.memo_hits", self.memo_hits),
            ("sta.incremental.memo_misses", self.memo_misses),
            ("sta.incremental.memo_evictions", self.memo_evictions),
            // The deferred half of the `itr.copy` span: the copy an ITR
            // result still alive at the next change costs.
            ("itr.copy.cloned", self.state_copies),
        ]
    }

    /// Adds these counts to the `ssdm-obs` registry totals under the
    /// `sta.incremental.*` names (`state_copies` as `itr.copy.cloned`).
    /// Engines call it when they drop; a harness reporting on a slice of
    /// a live engine's work publishes that slice's difference itself.
    pub fn publish(&self) {
        for (name, value) in self.named() {
            ssdm_obs::counter(name).add(value);
        }
    }

    /// Combines two readings field by field.
    fn zip_with(self, rhs: IncrementalStats, f: impl Fn(u64, u64) -> u64) -> IncrementalStats {
        IncrementalStats {
            full_passes: f(self.full_passes, rhs.full_passes),
            incremental_passes: f(self.incremental_passes, rhs.incremental_passes),
            dirty_seeds: f(self.dirty_seeds, rhs.dirty_seeds),
            gates_evaluated: f(self.gates_evaluated, rhs.gates_evaluated),
            memo_hits: f(self.memo_hits, rhs.memo_hits),
            memo_misses: f(self.memo_misses, rhs.memo_misses),
            memo_evictions: f(self.memo_evictions, rhs.memo_evictions),
            state_copies: f(self.state_copies, rhs.state_copies),
        }
    }
}

impl std::ops::Add for IncrementalStats {
    type Output = IncrementalStats;

    fn add(self, rhs: IncrementalStats) -> IncrementalStats {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl std::ops::Sub for IncrementalStats {
    type Output = IncrementalStats;

    /// The work done between two readings of one engine's statistics.
    fn sub(self, rhs: IncrementalStats) -> IncrementalStats {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl std::ops::AddAssign for IncrementalStats {
    fn add_assign(&mut self, rhs: IncrementalStats) {
        *self = *self + rhs;
    }
}

/// Gate evaluations beyond this many live memo entries, on top of one
/// per net, clear the cache (bounds memory on pathological PODEM runs;
/// normal campaigns stay far below it). The first pass alone fills one
/// entry per gate, which must not eat into this headroom, or a large
/// circuit's root state is cleared after a few decisions.
const MEMO_CAP: usize = 1 << 18;

/// The memo's hasher: one multiply-rotate step per key word. Keys are
/// short runs of `u64` words (see [`IncrementalSta::write_key`]), and a
/// probe still compares the whole key, so hash quality only affects speed.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits; the multiply leaves
        // its best-mixed bits at the top.
        self.0.rotate_left(26)
    }
}

/// Memoized gate evaluations under their bit-exact keys. The values live
/// in an append-only arena the table indexes, so growing the table moves
/// a key and a slot number, never a value.
#[derive(Default)]
struct Memo {
    slots: HashMap<Box<[u64]>, u32, BuildHasherDefault<WordHasher>>,
    values: Vec<(LineTiming, DelaysUsed)>,
}

impl Memo {
    fn get(&self, key: &[u64]) -> Option<(LineTiming, DelaysUsed)> {
        self.slots.get(key).map(|&slot| self.values[slot as usize])
    }

    /// Stores `value` under `key` unless the key is already present (its
    /// value is then the same: evaluation is pure in the key).
    fn insert(&mut self, key: Box<[u64]>, value: (LineTiming, DelaysUsed)) {
        if let Entry::Vacant(e) = self.slots.entry(key) {
            e.insert(u32::try_from(self.values.len()).expect("memo slot fits u32"));
            self.values.push(value);
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.values.clear();
    }
}

/// The dirty nets of one refinement: a min-heap of net indices plus a
/// flag per net against double entries. Kept across calls, so a call
/// allocates and resets nothing beyond the nets it touches.
#[derive(Default)]
struct Worklist {
    heap: BinaryHeap<Reverse<usize>>,
    queued: Vec<bool>,
}

impl Worklist {
    fn push(&mut self, i: usize) {
        if !self.queued[i] {
            self.queued[i] = true;
            self.heap.push(Reverse(i));
        }
    }

    /// The smallest queued net. Clearing its flag is safe: every later
    /// push is a fan-out of a popped net, so it has a larger index.
    fn pop(&mut self) -> Option<usize> {
        let Reverse(i) = self.heap.pop()?;
        self.queued[i] = false;
        Some(i)
    }

    /// Drops whatever a failed pass left queued.
    fn clear(&mut self) {
        while self.pop().is_some() {}
    }
}

fn push_line(words: &mut Vec<u64>, lt: &LineTiming) {
    for edge in Edge::BOTH {
        match lt.edge(edge) {
            None => words.push(u64::MAX),
            Some(et) => {
                words.push(1);
                words.push(et.arrival.s().as_ns().to_bits());
                words.push(et.arrival.l().as_ns().to_bits());
                words.push(et.ttime.s().as_ns().to_bits());
                words.push(et.ttime.l().as_ns().to_bits());
            }
        }
    }
}

fn part_code(p: [Participation; 2]) -> u64 {
    let code = |x: Participation| match x {
        Participation::Must => 0u64,
        Participation::May => 1,
        Participation::Cannot => 2,
    };
    code(p[0]) * 3 + code(p[1])
}

/// The incremental engine. Owns the previous analysis state; see the
/// module docs for the algorithm and its invariants.
pub struct IncrementalSta<'a> {
    table: GateTable<'a>,
    part: ParticipationMap,
    /// The windows and used delays under `part`, shared copy-on-write.
    state: StaResult,
    memo: Memo,
    /// Scratch buffer the serial passes build memo keys in.
    key: Vec<u64>,
    worklist: Worklist,
    stats: IncrementalStats,
    primed: bool,
}

impl std::fmt::Debug for IncrementalSta<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSta")
            .field("circuit", &self.table.circuit().name())
            .field("primed", &self.primed)
            .field("memo_entries", &self.memo.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a> IncrementalSta<'a> {
    /// Builds an engine: resolves every gate's cells and computes the
    /// static per-net loads (a [`GateTable`]).
    ///
    /// # Errors
    ///
    /// Fails when a gate cannot be mapped onto library cells.
    pub fn new(
        circuit: &'a Circuit,
        library: &'a CellLibrary,
        config: StaConfig,
    ) -> Result<IncrementalSta<'a>, StaError> {
        let table = GateTable::new(circuit, library, &config)?;
        let n = circuit.n_nets();
        let state = StaResult::new(
            vec![LineTiming::default(); n],
            vec![DelaysUsed::default(); n],
            table.inverting(),
            table.model(),
        );
        Ok(IncrementalSta {
            table,
            part: unconstrained_participation(n),
            state,
            memo: Memo::default(),
            key: Vec::new(),
            worklist: Worklist {
                heap: BinaryHeap::new(),
                queued: vec![false; n],
            },
            stats: IncrementalStats::default(),
            primed: false,
        })
    }

    /// Evaluates one net from the current `lines`/`part` state through
    /// the kernel ([`GateTable::eval`]). Pure in the memo-key inputs;
    /// every memo miss and primary input goes through it.
    ///
    /// When provenance events are enabled, each evaluation emits one
    /// `sta.corner` event per surviving output-edge bound. Memo hits do
    /// **not** re-emit (the corner decision is identical to the cached
    /// evaluation's, and re-emission would flood the rings on PODEM
    /// revisits); traced runs that need every gate's corner should use a
    /// fresh engine or [`crate::Sta::run`].
    fn eval_gate_uncached(&self, idx: usize) -> Result<(LineTiming, DelaysUsed), StaError> {
        self.table.eval(idx, self.part[idx], |f| PinWindow {
            timing: self.state.lines[f.index()],
            participation: self.part[f.index()],
        })
    }

    /// Writes the memo key of gate `idx` under the current state into
    /// `key`: the gate index, then the exact bit patterns of every
    /// participation and fan-in window field its evaluation reads.
    fn write_key(&self, idx: usize, key: &mut Vec<u64>) {
        key.clear();
        key.push(idx as u64);
        key.push(part_code(self.part[idx]));
        for &f in &self.table.circuit().gate(NetId(idx)).fanin {
            key.push(part_code(self.part[f.index()]));
            push_line(key, &self.state.lines[f.index()]);
        }
    }

    /// Evaluates one net through the memo cache; primary inputs bypass it
    /// (their evaluation is cheaper than a probe).
    fn eval_gate(&mut self, idx: usize) -> Result<(LineTiming, DelaysUsed), StaError> {
        self.stats.gates_evaluated += 1;
        if self.table.cells(NetId(idx)).is_none() {
            return self.eval_gate_uncached(idx);
        }
        let mut key = std::mem::take(&mut self.key);
        self.write_key(idx, &mut key);
        let value = match self.memo.get(&key) {
            Some(hit) => {
                self.stats.memo_hits += 1;
                Ok(hit)
            }
            None => self
                .eval_gate_uncached(idx)
                .inspect(|&value| self.memoize(key.as_slice().into(), value)),
        };
        self.key = key;
        value
    }

    /// Records a freshly evaluated gate under its key (a memo miss).
    fn memoize(&mut self, key: Box<[u64]>, value: (LineTiming, DelaysUsed)) {
        self.stats.memo_misses += 1;
        if self.memo.len() >= MEMO_CAP + self.table.circuit().n_nets() {
            self.memo.clear();
            self.stats.memo_evictions += 1;
        }
        self.memo.insert(key, value);
    }

    /// Stores net `idx`'s new state, copying the whole state first when a
    /// shared result still holds it.
    fn store(&mut self, idx: usize, lt: LineTiming, du: DelaysUsed) {
        let state = &mut self.state;
        let held = (Arc::as_ptr(&state.lines), Arc::as_ptr(&state.used));
        Arc::make_mut(&mut state.lines)[idx] = lt;
        Arc::make_mut(&mut state.used)[idx] = du;
        if held != (Arc::as_ptr(&state.lines), Arc::as_ptr(&state.used)) {
            self.stats.state_copies += 1;
        }
    }

    /// Recomputes every net sequentially under `part` (through the memo
    /// cache).
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    ///
    /// # Panics
    ///
    /// Panics when `part.len()` differs from the circuit's net count.
    pub(crate) fn full_pass(&mut self, part: &[[Participation; 2]]) -> Result<(), StaError> {
        let circuit = self.table.circuit();
        assert_eq!(part.len(), circuit.n_nets(), "participation size");
        let _span = ssdm_obs::span("sta.full_pass");
        self.part.copy_from_slice(part);
        self.stats.full_passes += 1;
        for id in circuit.topo() {
            let (lt, du) = self.eval_gate(id.index())?;
            self.store(id.index(), lt, du);
        }
        self.primed = true;
        Ok(())
    }

    /// Refines the analysis to `part`: diffs it against the previous
    /// participation map, then recomputes only the dirty cone, stopping
    /// at gates whose windows come out unchanged.
    ///
    /// The first call runs a full pass instead, evaluating every net.
    ///
    /// Returns the number of gate evaluations performed.
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    ///
    /// # Panics
    ///
    /// Panics when `part.len()` differs from the circuit's net count.
    pub fn refine(&mut self, part: &[[Participation; 2]]) -> Result<usize, StaError> {
        let circuit = self.table.circuit();
        assert_eq!(part.len(), circuit.n_nets(), "participation size");
        if !self.primed {
            self.full_pass(part)?;
            return Ok(circuit.n_nets());
        }
        let _span = ssdm_obs::span("sta.refine");
        self.stats.incremental_passes += 1;
        // Seed tracking only exists to attribute shrink events; skip the
        // allocation entirely on untraced runs.
        let events = ssdm_obs::events_enabled();
        let mut seeded = if events {
            vec![false; part.len()]
        } else {
            Vec::new()
        };
        // Dirty nets pop in index order: fan-outs always have larger
        // topological indices, so this both respects dependencies and
        // guarantees each net is evaluated at most once.
        let mut work = std::mem::take(&mut self.worklist);
        let mut seeds = 0u64;
        for (i, &p) in part.iter().enumerate() {
            if p != self.part[i] {
                self.part[i] = p;
                seeds += 1;
                if events {
                    seeded[i] = true;
                }
                work.push(i);
                for &c in circuit.fanouts(NetId(i)) {
                    work.push(c.index());
                }
            }
        }
        self.stats.dirty_seeds += seeds;
        let mut evaluated = 0usize;
        let mut outcome = Ok(());
        while let Some(i) = work.pop() {
            let (lt, du) = match self.eval_gate(i) {
                Ok(v) => v,
                Err(e) => {
                    outcome = Err(e);
                    work.clear();
                    break;
                }
            };
            evaluated += 1;
            // Fan-outs read this net's windows, not its used delays: a
            // change to the delays alone is stored without waking them.
            let window_changed = lt != self.state.lines[i];
            if window_changed || du != self.state.used[i] {
                if events {
                    emit_shrink_events(i as u32, &self.state.lines[i], &lt, seeded[i]);
                }
                self.store(i, lt, du);
            }
            if window_changed {
                for &c in circuit.fanouts(NetId(i)) {
                    work.push(c.index());
                }
            }
        }
        self.worklist = work;
        outcome?;
        if ssdm_obs::enabled() {
            ssdm_obs::histogram("sta.refine.cone_gates").record(evaluated as u64);
            ssdm_obs::histogram("sta.refine.dirty_seeds").record(seeds);
        }
        Ok(evaluated)
    }

    /// Shares the current state without copying it. Taking it copies
    /// nothing; the next pass that changes a window or used delay copies
    /// the engine's state once, and only while the result is still held.
    pub fn share(&self) -> StaResult {
        self.state.clone()
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }
}

impl Drop for IncrementalSta<'_> {
    fn drop(&mut self) {
        self.stats.publish();
    }
}

/// Emits one `itr.shrink` provenance event per output edge whose window
/// changed in a refinement step: a vetoed edge (window removed outright)
/// records [`ShrinkCause::Veto`]; otherwise the arrival-width delta is
/// recorded (positive = the window tightened), attributed to
/// [`ShrinkCause::Seed`] when the net's own participation changed this
/// pass and [`ShrinkCause::Upstream`] when the change rippled in through
/// its fan-in cone.
fn emit_shrink_events(net: u32, old: &LineTiming, new: &LineTiming, seed: bool) {
    use ssdm_obs::ShrinkCause;
    let cause = if seed {
        ShrinkCause::Seed
    } else {
        ShrinkCause::Upstream
    };
    for e in Edge::BOTH {
        match (old.edge(e), new.edge(e)) {
            (Some(_), None) => ssdm_obs::event(|| ssdm_obs::Event::ItrShrink {
                net,
                edge: crate::propagate::event_edge(e),
                cause: ShrinkCause::Veto,
                amount_ns: 0.0,
            }),
            (Some(o), Some(n)) if o.arrival != n.arrival => {
                ssdm_obs::event(|| ssdm_obs::Event::ItrShrink {
                    net,
                    edge: crate::propagate::event_edge(e),
                    cause,
                    amount_ns: (o.arrival.width() - n.arrival.width()).as_ns(),
                })
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sta;
    use crate::propagate::ModelKind;
    use crate::testlib::{library, timing_digest};
    use ssdm_netlist::suite;

    fn assert_matches_sta(circuit: &Circuit) {
        let lib = library();
        let sta = Sta::new(circuit, lib, StaConfig::default()).run().unwrap();
        let mut eng = IncrementalSta::new(circuit, lib, StaConfig::default()).unwrap();
        let part = unconstrained_participation(circuit.n_nets());
        eng.full_pass(&part).unwrap();
        assert_eq!(eng.share(), sta, "{}", circuit.name());
    }

    #[test]
    fn full_pass_matches_sta_run() {
        assert_matches_sta(&suite::c17());
        assert_matches_sta(&suite::synthetic("c880s").unwrap());
    }

    #[test]
    fn refine_touches_only_the_dirty_cone() {
        let c = suite::synthetic("c880s").unwrap();
        let lib = library();
        let mut eng = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
        let mut part = unconstrained_participation(c.n_nets());
        eng.full_pass(&part).unwrap();
        // Vetoing one PI's fall edge dirties only its cone.
        let pi = c.inputs()[0];
        part[pi.index()][Edge::Fall.index()] = Participation::Cannot;
        let evaluated = eng.refine(&part).unwrap();
        assert!(evaluated >= 1);
        assert!(
            evaluated < c.n_nets() / 4,
            "single-PI refinement evaluated {evaluated}/{} nets",
            c.n_nets()
        );
        // And the refinement matches a from-scratch recomputation.
        let mut fresh = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
        fresh.full_pass(&part).unwrap();
        assert_eq!(eng.share(), fresh.share());
    }

    /// A veto whose only effect downstream is on a fan-out's used delays
    /// (its windows stay bit-identical) re-evaluates the vetoed net and
    /// its fan-outs, and nothing behind them.
    #[test]
    fn a_used_delay_change_alone_wakes_no_fan_out() {
        let c = suite::synthetic("c880s").unwrap();
        let lib = library();
        let base = unconstrained_participation(c.n_nets());
        let mut eng = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
        eng.full_pass(&base).unwrap();
        let root = eng.share();
        let mut found = false;
        'search: for x in c.topo() {
            let mut fanouts = c.fanouts(x).to_vec();
            fanouts.sort();
            fanouts.dedup();
            for e in Edge::BOTH {
                let mut part = base.clone();
                part[x.index()][e.index()] = Participation::Cannot;
                let before = eng.stats().gates_evaluated;
                eng.refine(&part).unwrap();
                let evaluated = eng.stats().gates_evaluated - before;
                // Wanted: every fan-out keeps its windows, and one whose
                // used delays moved has a fan-out outside `x`'s, which
                // only the cutoff keeps asleep.
                let now = eng.share();
                let quiet = fanouts
                    .iter()
                    .all(|g| now.lines[g.index()] == root.lines[g.index()]);
                let used_only = fanouts.iter().any(|g| {
                    now.used[g.index()] != root.used[g.index()]
                        && c.fanouts(*g).iter().any(|h| !fanouts.contains(h))
                });
                if quiet && used_only {
                    assert_eq!(evaluated, 1 + fanouts.len() as u64, "net {x:?} {e}");
                    let mut fresh = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
                    fresh.full_pass(&part).unwrap();
                    assert_eq!(now, fresh.share());
                    found = true;
                    break 'search;
                }
                eng.refine(&base).unwrap();
            }
        }
        assert!(found, "no veto changes only a fan-out's used delays");
    }

    #[test]
    fn unchanged_participation_evaluates_nothing() {
        let c = suite::c17();
        let lib = library();
        let mut eng = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
        let part = unconstrained_participation(c.n_nets());
        eng.full_pass(&part).unwrap();
        assert_eq!(eng.refine(&part).unwrap(), 0);
    }

    #[test]
    fn memo_serves_repeated_states() {
        let c = suite::c17();
        let lib = library();
        let mut eng = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
        let base = unconstrained_participation(c.n_nets());
        eng.full_pass(&base).unwrap();
        let mut toggled = base.clone();
        let pi = c.inputs()[2];
        toggled[pi.index()] = [Participation::Must, Participation::Cannot];
        // Flip back and forth: the second visit to each state must be
        // all memo hits.
        eng.refine(&toggled).unwrap();
        eng.refine(&base).unwrap();
        let before = eng.stats();
        eng.refine(&toggled).unwrap();
        eng.refine(&base).unwrap();
        let after = eng.stats();
        assert!(after.memo_hits > before.memo_hits);
        assert_eq!(after.memo_misses, before.memo_misses, "revisit recomputed");
    }

    #[test]
    fn stats_sum_component_wise() {
        let a = IncrementalStats {
            full_passes: 1,
            incremental_passes: 2,
            dirty_seeds: 3,
            gates_evaluated: 4,
            memo_hits: 5,
            memo_misses: 6,
            memo_evictions: 7,
            state_copies: 8,
        };
        let mut b = a;
        b += a;
        assert_eq!(b.full_passes, 2);
        assert_eq!(b.gates_evaluated, 8);
        assert_eq!(b.memo_evictions, 14);
        assert_eq!(a + IncrementalStats::default(), a);
    }

    #[test]
    fn traced_refine_emits_shrink_and_corner_events() {
        let c = suite::c17();
        let lib = library();
        let mut eng = IncrementalSta::new(&c, lib, StaConfig::default()).unwrap();
        let mut part = unconstrained_participation(c.n_nets());
        eng.full_pass(&part).unwrap();
        ssdm_obs::set_events_enabled(true);
        let pi = c.inputs()[0];
        part[pi.index()][Edge::Fall.index()] = Participation::Cannot;
        eng.refine(&part).unwrap();
        ssdm_obs::set_events_enabled(false);
        let report = ssdm_obs::capture();
        let events: Vec<&ssdm_obs::EventRecord> = report
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .collect();
        // The vetoed PI edge records a Veto-cause shrink on its own net.
        assert!(
            events.iter().any(|r| matches!(
                r.event,
                ssdm_obs::Event::ItrShrink {
                    net,
                    cause: ssdm_obs::ShrinkCause::Veto,
                    ..
                } if net == pi.index() as u32
            )),
            "no veto shrink recorded for net {pi:?}"
        );
        // Recomputing the dirty cone records fresh corner decisions.
        assert!(events
            .iter()
            .any(|r| matches!(r.event, ssdm_obs::Event::StaCorner { .. })));
    }

    /// `Sta::run` digests on the fast test library, recorded before the
    /// window kernel was last optimized; any change to a window or
    /// `delay_used` bit under any model fails here.
    const PINNED_DIGESTS: [(&str, ModelKind, u64); 9] = [
        ("c17", ModelKind::PinToPin, 0xb560_6415_5f6d_e6ba),
        ("c17", ModelKind::Proposed, 0x1c2f_1a0d_fa8c_fc66),
        ("c17", ModelKind::ProposedMiller, 0x2606_2b42_247b_988e),
        ("c880s", ModelKind::PinToPin, 0xe861_a975_067e_fe68),
        ("c880s", ModelKind::Proposed, 0xeecc_f3ed_2a15_4e0d),
        ("c880s", ModelKind::ProposedMiller, 0xfdcc_8c22_9fc5_5ee2),
        ("c7552s", ModelKind::PinToPin, 0x0b00_de0c_d03d_b087),
        ("c7552s", ModelKind::Proposed, 0xce74_a684_a7cf_25d8),
        ("c7552s", ModelKind::ProposedMiller, 0x8556_f9b5_7a60_26b5),
    ];

    #[test]
    fn sta_run_and_parallel_pass_match_pinned_digests() {
        let lib = library();
        let circuit = |name: &str| match name {
            "c17" => suite::c17(),
            _ => suite::synthetic(name).unwrap(),
        };
        let got: Vec<_> = PINNED_DIGESTS
            .iter()
            .map(|&(name, model, _)| {
                let c = circuit(name);
                let cfg = StaConfig::default().with_model(model);
                let sta = Sta::new(&c, lib, cfg).run().unwrap();
                (name, model, timing_digest(&c, &sta))
            })
            .collect();
        assert_eq!(got, PINNED_DIGESTS);
        for &(name, model, want) in &PINNED_DIGESTS {
            // The level-parallel pass reaches the same state.
            let c = circuit(name);
            let cfg = StaConfig::default().with_model(model);
            let par = Sta::new(&c, lib, cfg.clone()).run_parallel(2).unwrap();
            assert_eq!(timing_digest(&c, &par), want, "{name} {model:?}");
            // The engine's first pass does too, and leaves it memoized:
            // an unchanged-state pass is all hits.
            let part = unconstrained_participation(c.n_nets());
            let mut eng = IncrementalSta::new(&c, lib, cfg).unwrap();
            eng.full_pass(&part).unwrap();
            assert_eq!(timing_digest(&c, &eng.share()), want, "{name} {model:?}");
            let before = eng.stats();
            eng.full_pass(&part).unwrap();
            assert_eq!(
                eng.stats().memo_misses,
                before.memo_misses,
                "{name} {model:?}"
            );
            assert_eq!(timing_digest(&c, &eng.share()), want, "{name} {model:?}");
            // So is retracting a decision back to the first pass's state.
            let mut decided = part.clone();
            decided[c.inputs()[0].index()] = [Participation::Must, Participation::Cannot];
            eng.refine(&decided).unwrap();
            let before = eng.stats();
            eng.refine(&part).unwrap();
            assert_eq!(
                eng.stats().memo_misses,
                before.memo_misses,
                "{name} {model:?}"
            );
            assert_eq!(timing_digest(&c, &eng.share()), want, "{name} {model:?}");
        }
    }

    #[test]
    fn snapshot_round_trips_model() {
        let c = suite::c17();
        let lib = library();
        let cfg = StaConfig::default();
        let mut eng = IncrementalSta::new(&c, lib, cfg.clone()).unwrap();
        eng.full_pass(&unconstrained_participation(c.n_nets()))
            .unwrap();
        let snap = eng.share();
        assert_eq!(snap.model(), cfg.model);
        assert_eq!(snap.lines().len(), c.n_nets());
    }
}
