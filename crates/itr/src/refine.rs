//! The ITR window recomputation (Section 5.2).
//!
//! [`Itr::refine`] runs logic implication, maps the two-frame logic
//! states onto per-net [`Participation`] and hands them to the shared
//! [`IncrementalSta`] engine. The engine recomputes only the dirty cone
//! of nets whose participation changed since the previous call and
//! memoizes repeated per-gate states across backtracks. Its result is a
//! plain [`StaResult`], bit-identical to a memo-free [`GateTable::pass`]
//! under the same participation map; the tests below check exactly that.
//!
//! [`GateTable::pass`]: ssdm_sta::GateTable::pass

use std::cell::RefCell;

use ssdm_cells::CellLibrary;
use ssdm_core::Edge;
use ssdm_logic::{imply, Assignments, TransState};
use ssdm_netlist::Circuit;
use ssdm_sta::{
    IncrementalSta, IncrementalStats, Participation, ParticipationMap, StaConfig, StaResult,
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
    /// served from a memo cache. The result is bit-identical to a
    /// from-scratch pass under the same participation.
    ///
    /// The result shares the engine's state copy-on-write, so returning it
    /// copies nothing. Holding it across the next call that changes a
    /// window costs one copy of the state in that call; dropping it first
    /// costs none.
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
    pub fn refine(&self, assignments: &mut Assignments) -> Result<StaResult, ItrError> {
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
        Ok(engine.share())
    }

    /// Counters of the refiner's engine since it was built by the first
    /// [`Itr::refine`] call (zeroes before it).
    pub fn stats(&self) -> IncrementalStats {
        self.engine
            .borrow()
            .as_ref()
            .map(|e| e.stats())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdm_core::{Bound, Time};
    use ssdm_logic::{Tri, V2};
    use ssdm_netlist::{generate, suite, GeneratorConfig};
    use ssdm_sta::GateTable;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The pinned fast-grid library, parsed once per test binary.
    fn library() -> &'static CellLibrary {
        static LIB: OnceLock<CellLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            CellLibrary::from_text(include_str!("../../../perfbench/data/library-fast.txt"))
                .expect("pinned library parses")
        })
    }

    /// The oracle [`Itr::refine`] is checked against: implication, then
    /// one memo-free kernel pass under the resulting participation, with
    /// no engine state.
    fn refine_full(itr: &Itr<'_>, assignments: &mut Assignments) -> Result<StaResult, ItrError> {
        imply(itr.circuit, assignments)?;
        let mut part = ParticipationMap::new();
        itr.fill_participation(assignments, &mut part);
        let table = GateTable::new(itr.circuit, itr.library, &itr.config)?;
        Ok(table.pass(&part)?)
    }

    /// Sum of all arrival-window widths: smaller means a tighter analysis.
    fn total_arrival_width(r: &StaResult) -> Time {
        r.lines()
            .iter()
            .flat_map(|lt| [lt.rise, lt.fall])
            .flatten()
            .map(|e| e.arrival.width())
            .sum()
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
        let itr = Itr::new(&c, library(), StaConfig::default());
        let r = itr.refine(&mut Assignments::new(c.n_nets())).unwrap();
        assert_eq!(r, sta_result(&c));
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
            let full = refine_full(&itr, &mut a.clone()).unwrap();
            assert_eq!(inc, full, "after PI {pi}");
        }
        // Retract everything (PODEM backtrack) and check again.
        a = snapshot;
        let inc = itr.refine(&mut a).unwrap();
        let full = refine_full(&itr, &mut a.clone()).unwrap();
        assert_eq!(inc, full, "after retraction");
        let stats = itr.stats();
        assert!(stats.incremental_passes >= 4, "stats: {stats:?}");
        assert!(
            stats.memo_hits > 0,
            "backtrack should hit the memo: {stats:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The incremental engine is bit-identical to a from-scratch
        /// recompute over random circuits and random assignment sequences,
        /// including retractions (PODEM-style backtracks restoring an
        /// earlier snapshot), which exercise the dirty-cone seeding in both
        /// directions and the memo cache on revisited states.
        #[test]
        fn incremental_itr_matches_full_recompute(seed in 0u64..300, n_gates in 40usize..140, script in 0u64..u64::MAX) {
            let cfg = GeneratorConfig::iscas_like("inc", 10, 5, n_gates, seed);
            let circuit = generate(&cfg);
            let itr = Itr::new(&circuit, library(), StaConfig::default());
            let pis = circuit.inputs().to_vec();
            let mut a = Assignments::new(circuit.n_nets());
            let mut stack: Vec<Assignments> = Vec::new();
            for step in 0..12u32 {
                let r = script >> (step * 5) & 0x1f;
                if r & 0b11 == 0 && !stack.is_empty() {
                    // Backtrack: retract to an earlier snapshot.
                    a = stack.pop().unwrap();
                } else {
                    let pi = pis[(r as usize >> 2) % pis.len()];
                    let v = match r % 4 {
                        0 => V2::steady(false),
                        1 => V2::steady(true),
                        2 => V2::transition(Edge::Rise),
                        _ => V2::transition(Edge::Fall),
                    };
                    let mut next = a.clone();
                    if next.set(pi, v).is_err() {
                        continue; // PI already pinned differently — skip step
                    }
                    stack.push(a);
                    a = next;
                }
                // Run both paths on clones so a conflict leaves `a` untouched.
                let mut a_inc = a.clone();
                let mut a_full = a.clone();
                match (itr.refine(&mut a_inc), refine_full(&itr, &mut a_full)) {
                    (Ok(inc), Ok(full)) => {
                        // Windows, used delays, inverting flags and model.
                        prop_assert_eq!(inc, full, "step {}", step);
                        a = a_inc; // keep the implied state for the next step
                    }
                    (Err(_), Err(_)) => {
                        // Both must agree the state is inconsistent; undo.
                        a = stack.pop().unwrap_or_else(|| Assignments::new(circuit.n_nets()));
                    }
                    (inc, full) => {
                        return Err(TestCaseError::fail(format!(
                            "paths disagree on consistency: incremental {:?} vs full {:?}",
                            inc.map(|_| ()), full.map(|_| ())
                        )));
                    }
                }
            }
        }
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
        assert_eq!(held, fresh(&a));
        assert_eq!(later, fresh(&b));
        assert_ne!(held.lines(), later.lines());
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
            assert!(total_arrival_width(&next) <= total_arrival_width(&prev) + Time::from_ns(1e-9));
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
