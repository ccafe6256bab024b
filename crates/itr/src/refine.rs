//! The ITR window recomputation (Section 5.2).
//!
//! Two entry points compute the same refined windows:
//!
//! * [`Itr::refine`] — the production path. It maps the two-frame logic
//!   states onto per-net [`Participation`] and hands them to the shared
//!   [`IncrementalSta`] engine, which recomputes only the dirty cone of
//!   nets whose participation changed since the previous call (plus
//!   memoizes repeated per-gate states across backtracks).
//! * [`Itr::refine_full`] — a memo-free full pass through the same gate
//!   kernel ([`GateTable::pass`]), with no state reuse. This is the
//!   oracle the incremental path's dirty cone, memo and early cutoff are
//!   tested against: results must be **bit-identical**.
//!
//! Both paths run logic implication first, so a single call sees the full
//! transitive consequences of the caller's assignments.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use ssdm_cells::CellLibrary;
use ssdm_core::{Bound, Edge, Time};
use ssdm_logic::{imply, Assignments, TransState};
use ssdm_netlist::{Circuit, NetId};
use ssdm_sta::{
    DelaysUsed, GateTable, IncrementalSta, IncrementalStats, LineTiming, Participation,
    ParticipationMap, SharedTiming, StaConfig, TimingView,
};

use crate::error::ItrError;

/// The incremental timing refiner.
#[derive(Debug)]
pub struct Itr<'a> {
    circuit: &'a Circuit,
    library: &'a CellLibrary,
    config: StaConfig,
    /// Lazily-built shared engine; interior mutability keeps
    /// [`Itr::refine`] callable through `&self` (ATPG holds the refiner
    /// by shared reference while mutating its own search state).
    engine: RefCell<Option<IncrementalSta<'a>>>,
    /// The participation map of the latest call, refilled in place.
    part: RefCell<ParticipationMap>,
    /// Counters banked from engines dropped by [`Itr::rebuild_engine`],
    /// so [`Itr::stats`] stays monotone across rebuilds.
    retired_stats: Cell<IncrementalStats>,
}

/// Refined timing windows under a partial two-frame assignment.
///
/// A result shares the refiner's state copy-on-write, so returning it
/// copies nothing. Holding it across the next [`Itr::refine`] that changes
/// a window costs one copy of the state in that call; dropping it first
/// costs none.
#[derive(Debug, Clone)]
pub struct ItrResult {
    lines: Arc<Vec<LineTiming>>,
    used: Arc<Vec<DelaysUsed>>,
    inverting: Arc<[bool]>,
}

impl TimingView for ItrResult {
    fn line(&self, net: NetId) -> &LineTiming {
        &self.lines[net.index()]
    }

    fn delay_used(&self, gate: NetId, pin: usize, in_edge: Edge) -> Option<Bound> {
        self.used
            .get(gate.index())
            .and_then(|pins| pins.get(pin))
            .and_then(|edges| edges[in_edge.index()])
    }

    fn gate_inverting(&self, net: NetId) -> bool {
        self.inverting[net.index()]
    }
}

impl From<SharedTiming> for ItrResult {
    fn from(shared: SharedTiming) -> ItrResult {
        let SharedTiming {
            lines,
            used,
            inverting,
        } = shared;
        ItrResult {
            lines,
            used,
            inverting,
        }
    }
}

impl ItrResult {
    /// The windows of a line (inherent mirror of [`TimingView::line`]).
    pub fn line(&self, net: NetId) -> &LineTiming {
        &self.lines[net.index()]
    }

    /// Sum of all arrival-window widths — the refinement progress metric
    /// used by the experiments (smaller = tighter analysis).
    pub fn total_arrival_width(&self) -> Time {
        self.lines
            .iter()
            .flat_map(|lt| [lt.rise, lt.fall])
            .flatten()
            .map(|e| e.arrival.width())
            .sum()
    }
}

/// Maps a logic transition state onto timing participation.
fn participation(state: TransState) -> Participation {
    match state {
        TransState::Yes => Participation::Must,
        TransState::Maybe => Participation::May,
        TransState::No => Participation::Cannot,
    }
}

impl<'a> Itr<'a> {
    /// Creates a refiner. The configuration should match the STA run being
    /// refined.
    pub fn new(circuit: &'a Circuit, library: &'a CellLibrary, config: StaConfig) -> Itr<'a> {
        Itr {
            circuit,
            library,
            config,
            engine: RefCell::new(None),
            part: RefCell::new(ParticipationMap::new()),
            retired_stats: Cell::new(IncrementalStats::default()),
        }
    }

    /// Projects the full assignment state onto per-net edge participation
    /// in `part` — the only channel through which logic influences timing,
    /// which is what makes participation diffing a sound dirty-set seed.
    fn fill_participation(&self, assignments: &Assignments, part: &mut ParticipationMap) {
        part.clear();
        part.extend(self.circuit.topo().map(|id| {
            [
                participation(assignments.state(id, Edge::Rise)),
                participation(assignments.state(id, Edge::Fall)),
            ]
        }));
    }

    /// Recomputes all timing windows under `assignments`.
    ///
    /// Runs logic implication first (refining `assignments` in place), then
    /// propagates windows with each line's transition states deciding
    /// participation. A line whose logic value forbids an edge loses that
    /// edge's window entirely.
    ///
    /// Successive calls reuse the engine built on the first call: only the
    /// fan-out cone of nets whose participation changed is re-evaluated,
    /// and repeated per-gate states (common under ATPG backtracking) are
    /// served from a memo cache. The result is guaranteed bit-identical to
    /// [`Itr::refine_full`].
    ///
    /// When provenance events are on ([`ssdm_obs::set_events_enabled`]),
    /// every incremental pass records one `itr.shrink` event per window
    /// that tightened or was vetoed, attributed to the participation seed
    /// or to upstream ripple — the raw material for `ssdm-cli explain`
    /// and post-mortem refinement analysis. The first call (a full pass)
    /// records `sta.corner` decisions only.
    ///
    /// # Errors
    ///
    /// * [`ItrError::Logic`] — the assignment is self-inconsistent;
    /// * [`ItrError::Sta`] — cell lookup / propagation failure.
    pub fn refine(&self, assignments: &mut Assignments) -> Result<ItrResult, ItrError> {
        let _span = ssdm_obs::span("itr.refine");
        {
            let _span = ssdm_obs::span("itr.imply");
            imply(self.circuit, assignments)?;
        }
        let mut part = self.part.borrow_mut();
        self.fill_participation(assignments, &mut part);
        let mut slot = self.engine.borrow_mut();
        if slot.is_none() {
            *slot = Some(IncrementalSta::new(
                self.circuit,
                self.library,
                self.config.clone(),
            )?);
        }
        let engine = slot.as_mut().expect("engine initialized above");
        engine.refine(&part)?;
        let _span = ssdm_obs::span("itr.copy");
        Ok(engine.share().into())
    }

    /// Counters accumulated over this refiner's whole lifetime: the live
    /// engine's counters plus everything banked from engines retired by
    /// [`Itr::rebuild_engine`]. Monotone non-decreasing — zeroes before
    /// the first [`Itr::refine`] call.
    pub fn stats(&self) -> IncrementalStats {
        self.retired_stats.get()
            + self
                .engine
                .borrow()
                .as_ref()
                .map(|e| e.stats())
                .unwrap_or_default()
    }

    /// Drops the incremental engine (memo cache, window state), forcing
    /// the next [`Itr::refine`] to rebuild it with a fresh full pass.
    ///
    /// This is the memory-release valve for long campaigns: the memo
    /// cache and per-net state of a retired engine are freed, while its
    /// work counters are banked first so [`Itr::stats`] never goes
    /// backwards across a rebuild.
    pub fn rebuild_engine(&self) {
        if let Some(engine) = self.engine.borrow_mut().take() {
            self.retired_stats
                .set(self.retired_stats.get() + engine.stats());
        }
    }

    /// Recomputes all timing windows from scratch, ignoring and not
    /// touching any engine state.
    ///
    /// This is the reference implementation [`Itr::refine`] is verified
    /// against (see `tests/properties.rs`), and the baseline the
    /// `itr_incremental` benchmark compares to.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Itr::refine`].
    pub fn refine_full(&self, assignments: &mut Assignments) -> Result<ItrResult, ItrError> {
        let _span = ssdm_obs::span("itr.refine_full");
        imply(self.circuit, assignments)?;
        let mut part = ParticipationMap::new();
        self.fill_participation(assignments, &mut part);
        let table = GateTable::new(self.circuit, self.library, &self.config)?;
        Ok(SharedTiming::from(table.pass(&part)?).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_cells::{CellLibrary, CharConfig};
    use ssdm_logic::{Tri, V2};
    use ssdm_netlist::suite;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn library() -> &'static CellLibrary {
        static LIB: OnceLock<CellLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            CellLibrary::characterize_standard(&CharConfig::fast()).expect("characterization")
        })
    }

    /// Held by the tests that touch the process-global `ssdm-obs`
    /// state, so a reset in one cannot clear the events another records.
    fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sta_result(c: &Circuit) -> ssdm_sta::StaResult {
        ssdm_sta::Sta::new(c, library(), StaConfig::default())
            .run()
            .unwrap()
    }

    #[test]
    fn all_unknown_matches_sta() {
        // STA is the ITR special case where S = 0 everywhere (Section 5.1).
        let c = suite::c17();
        let sta = sta_result(&c);
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        let r = itr.refine(&mut a).unwrap();
        for id in c.topo() {
            assert_eq!(
                sta.line(id),
                r.line(id),
                "net {} diverges from STA",
                c.gate(id).name
            );
        }
    }

    #[test]
    fn incremental_matches_full_recompute_bit_for_bit() {
        // The core equivalence guarantee, on a non-trivial circuit with a
        // backtracking-style assignment sequence.
        let c = suite::synthetic("c880s").unwrap();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let inputs = c.inputs().to_vec();
        let mut a = Assignments::new(c.n_nets());
        let snapshot = a.clone();
        let steps = [
            (0usize, V2::transition(Edge::Rise)),
            (7, V2::steady(false)),
            (13, V2::transition(Edge::Fall)),
            (21, V2::steady(true)),
        ];
        for &(pi, v) in &steps {
            a.set(inputs[pi], v).unwrap();
            let inc = itr.refine(&mut a).unwrap();
            let full = itr.refine_full(&mut a.clone()).unwrap();
            for id in c.topo() {
                assert_eq!(inc.line(id), full.line(id), "net {}", c.gate(id).name);
            }
            assert_eq!(inc.used, full.used);
            assert_eq!(inc.inverting, full.inverting);
        }
        // Retract everything (PODEM backtrack) and check again.
        a = snapshot;
        let inc = itr.refine(&mut a).unwrap();
        let full = itr.refine_full(&mut a.clone()).unwrap();
        for id in c.topo() {
            assert_eq!(
                inc.line(id),
                full.line(id),
                "after retraction: net {}",
                c.gate(id).name
            );
        }
        let stats = itr.stats();
        assert!(stats.incremental_passes >= 4, "stats: {stats:?}");
        assert!(
            stats.memo_hits > 0,
            "backtrack should hit the memo: {stats:?}"
        );
    }

    #[test]
    fn held_result_keeps_its_windows_across_later_refines() {
        let c = suite::synthetic("c880s").unwrap();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let fresh = |a: &Assignments| {
            Itr::new(&c, library(), StaConfig::default())
                .refine(&mut a.clone())
                .unwrap()
        };
        let empty = Assignments::new(c.n_nets());
        let mut a = empty.clone();
        a.set(c.inputs()[0], V2::transition(Edge::Rise)).unwrap();
        let mut b = empty.clone();
        b.set(c.inputs()[5], V2::steady(false)).unwrap();
        // Results dropped before the next call cost no copy.
        for x in [&empty, &a, &empty] {
            drop(itr.refine(&mut x.clone()).unwrap());
        }
        assert_eq!(itr.stats().state_copies, 0);
        // A held result costs exactly one copy at the next change, and
        // still describes its own assignment afterwards.
        let held = itr.refine(&mut a.clone()).unwrap();
        let later = itr.refine(&mut b.clone()).unwrap();
        assert_eq!(itr.stats().state_copies, 1);
        for (got, want) in [(&held, fresh(&a)), (&later, fresh(&b))] {
            assert_eq!(got.lines, want.lines);
            assert_eq!(got.used, want.used);
            assert_eq!(got.inverting, want.inverting);
        }
        assert_ne!(held.lines, later.lines);
    }

    #[test]
    fn windows_shrink_monotonically_as_values_are_assigned() {
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        let mut prev = itr.refine(&mut a).unwrap();
        // Incrementally pin PIs to a two-frame vector pair: all-1 → mixed.
        let vals = [
            V2::steady(true),
            V2::transition(Edge::Fall),
            V2::steady(true),
            V2::transition(Edge::Fall),
            V2::steady(true),
        ];
        for (idx, &pi) in c.inputs().iter().enumerate() {
            a.set(pi, vals[idx]).unwrap();
            let next = itr.refine(&mut a).unwrap();
            for id in c.topo() {
                assert!(
                    prev.line(id)
                        .refined_by_within(next.line(id), Time::from_ps(2.0)),
                    "step {idx}: net {} widened: {:?} -> {:?}",
                    c.gate(id).name,
                    prev.line(id),
                    next.line(id)
                );
            }
            assert!(next.total_arrival_width() <= prev.total_arrival_width() + Time::from_ns(1e-9));
            prev = next;
        }
    }

    #[test]
    fn steady_lines_lose_their_windows() {
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        // All PIs steady-1: no transitions anywhere in frame logic.
        for &pi in c.inputs() {
            a.set(pi, V2::steady(true)).unwrap();
        }
        let r = itr.refine(&mut a).unwrap();
        for id in c.topo() {
            let lt = r.line(id);
            assert!(
                lt.rise.is_none(),
                "net {} keeps a rise window",
                c.gate(id).name
            );
            assert!(lt.fall.is_none());
        }
    }

    #[test]
    fn fully_specified_vectors_collapse_windows() {
        let c = suite::c17();
        let cfg = StaConfig {
            pi_ttime: Bound::point(Time::from_ns(0.3)),
            ..StaConfig::default()
        };
        let itr = Itr::new(&c, library(), cfg.clone());
        let mut a = Assignments::new(c.n_nets());
        // A vector pair that launches transitions: all inputs fall.
        for &pi in c.inputs() {
            a.set(pi, V2::transition(Edge::Fall)).unwrap();
        }
        let r = itr.refine(&mut a).unwrap();
        let sta = ssdm_sta::Sta::new(&c, library(), cfg).run().unwrap();
        // Windows become dramatically tighter than STA's (the paper:
        // "if all input values are specified, timing ranges become
        // points"; ours collapse to near-points, limited by the
        // transition-time upper bound kept on max corners).
        let o22 = c.find("22").unwrap();
        let sta_w = sta
            .line(o22)
            .rise
            .or(sta.line(o22).fall)
            .unwrap()
            .arrival
            .width();
        let itr_lt = r.line(o22);
        let itr_w = itr_lt
            .rise
            .or(itr_lt.fall)
            .expect("some PO transition survives")
            .arrival
            .width();
        assert!(
            itr_w < sta_w * 0.55,
            "expected strong collapse: itr {itr_w} vs sta {sta_w}"
        );
    }

    #[test]
    fn partial_values_propagate_through_implication() {
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        // Force input 3 (shared by gates 10 and 11) steady-0 in both
        // frames: 10 = NAND(1, 3) and 11 = NAND(3, 6) are pinned at 1,
        // so they lose both windows.
        let i3 = c.find("3").unwrap();
        a.set(i3, V2::steady(false)).unwrap();
        let r = itr.refine(&mut a).unwrap();
        let g10 = c.find("10").unwrap();
        let g11 = c.find("11").unwrap();
        assert!(r.line(g10).rise.is_none() && r.line(g10).fall.is_none());
        assert!(r.line(g11).rise.is_none() && r.line(g11).fall.is_none());
        // Downstream gate 16 = NAND(2, 11) can now only fall if 2 rises...
        // but 11 is steady-1 (non-controlling), so 16 still follows input 2
        // and keeps both windows.
        let g16 = c.find("16").unwrap();
        assert!(r.line(g16).rise.is_some());
        assert!(r.line(g16).fall.is_some());
    }

    #[test]
    fn stats_survive_engine_rebuild() {
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        itr.refine(&mut a).unwrap();
        a.set(c.inputs()[0], V2::transition(Edge::Rise)).unwrap();
        itr.refine(&mut a).unwrap();
        let before = itr.stats();
        assert!(before.full_passes >= 1 && before.incremental_passes >= 1);
        itr.rebuild_engine();
        assert_eq!(itr.stats(), before, "rebuild must bank, not reset");
        // Rebuilding twice in a row (no live engine) is harmless.
        itr.rebuild_engine();
        assert_eq!(itr.stats(), before);
        // Work after the rebuild accumulates on top of the banked values.
        let mut b = Assignments::new(c.n_nets());
        itr.refine(&mut b).unwrap();
        let after = itr.stats();
        assert_eq!(after.full_passes, before.full_passes + 1);
        assert!(after.gates_evaluated > before.gates_evaluated);
    }

    #[test]
    fn stats_are_unchanged_by_obs_reset() {
        let _obs = obs_lock();
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        itr.refine(&mut a).unwrap();
        a.set(c.inputs()[0], V2::transition(Edge::Rise)).unwrap();
        itr.refine(&mut a).unwrap();
        let before = itr.stats();
        assert!(before.full_passes == 1 && before.incremental_passes == 1);
        ssdm_obs::reset();
        assert_eq!(itr.stats(), before, "a registry reset changed engine stats");
        // The engine adds its totals to the registry when it drops.
        drop(itr);
        assert!(
            ssdm_obs::counter_total("sta.incremental.gates_evaluated") >= before.gates_evaluated
        );
    }

    #[test]
    fn traced_refinement_records_shrink_provenance() {
        let _obs = obs_lock();
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        // Prime with the all-unknown full pass, then trace a refinement
        // that pins one PI steady (vetoing both its edges).
        itr.refine(&mut a).unwrap();
        ssdm_obs::set_events_enabled(true);
        let pi = c.inputs()[0];
        a.set(pi, V2::steady(true)).unwrap();
        itr.refine(&mut a).unwrap();
        ssdm_obs::set_events_enabled(false);
        let report = ssdm_obs::capture();
        let shrinks: Vec<ssdm_obs::Event> = report
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|r| matches!(r.event, ssdm_obs::Event::ItrShrink { .. }))
            .map(|r| r.event)
            .collect();
        assert!(
            shrinks.iter().any(|e| matches!(
                e,
                ssdm_obs::Event::ItrShrink {
                    net,
                    cause: ssdm_obs::ShrinkCause::Veto,
                    ..
                } if *net == pi.index() as u32
            )),
            "steady PI must record a veto shrink; got {shrinks:?}"
        );
    }

    #[test]
    fn conflicting_assignment_is_reported() {
        let c = suite::c17();
        let itr = Itr::new(&c, library(), StaConfig::default());
        let mut a = Assignments::new(c.n_nets());
        for &pi in c.inputs() {
            a.set(pi, V2::new(Tri::One, Tri::X)).unwrap();
        }
        let o22 = c.find("22").unwrap();
        a.set(o22, V2::new(Tri::Zero, Tri::X)).unwrap();
        assert!(matches!(itr.refine(&mut a), Err(ItrError::Logic(_))));
    }
}
