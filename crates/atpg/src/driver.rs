//! Parallel fault-level ATPG driver with fault dropping.
//!
//! The driver distributes whole crosstalk sites over a pool of worker
//! threads, each owning a long-lived [`Atpg`] engine (and therefore its own
//! incremental-STA/ITR state — [`ssdm_itr::Itr`] is single-threaded by
//! design). On top of the raw fan-out it implements **fault dropping**:
//! every generated two-pattern test is replayed through the event-driven
//! two-frame timing simulator (`ssdm-tsim`), and any *later* site whose
//! fault the test provably covers is removed from the queue without ever
//! entering the PODEM search.
//!
//! # Determinism
//!
//! [`AtpgDriver::run`] returns bit-identical outcomes and statistics for
//! every worker count, including one. The scheme:
//!
//! 1. *Speculative phase* (parallel only). Workers claim sites from a
//!    shared atomic cursor; each detected test is replayed and later,
//!    still-unclaimed sites it covers are flagged so no worker wastes a
//!    search on them. Everything produced here is provisional.
//! 2. *Resolve phase* (always, single-threaded). Sites are revisited in
//!    index order and the drop decisions are **recomputed** from scratch:
//!    a site is dropped iff some earlier *surviving* site's test covers
//!    it (first dropper wins). Speculative outcomes for sites the resolve
//!    pass decides to drop are discarded; sites the speculative phase
//!    skipped but the resolve pass keeps are searched on the spot.
//!
//! Because a site's PODEM outcome is a pure function of (circuit,
//! library, configuration, site) — the incremental timing engine is
//! bit-identical to a full recompute regardless of history — the resolve
//! pass reconstructs exactly the serial campaign no matter how the
//! speculative phase interleaved. The speculative flags are purely an
//! optimisation: wrong or missing flags cost time, never correctness.
//!
//! # Dropping soundness
//!
//! A test drops a fault only when, on the replayed good-machine trace,
//! (a) the victim and aggressor both switch with the fault's edges,
//! (b) their arrivals fall within the coupling alignment window,
//! (c) the slowed victim value is observable at a primary output, and
//! (d) a victim transition of that edge has setup-violation *potential*
//! under the static worst-case windows — the same late-arrival-versus-
//! required-time criterion PODEM uses to declare a fault detected, here
//! evaluated once per campaign on the unconstrained windows instead of
//! the test-refined ones. Unknown PI bits are filled deterministically
//! towards *steady* values, so the replay never invents transitions the
//! search did not ask for.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ssdm_cells::CellLibrary;
use ssdm_logic::Tri;
use ssdm_models::ProposedModel;
use ssdm_netlist::{Circuit, CrosstalkSite};
use ssdm_sta::IncrementalStats;
use ssdm_tsim::{SimInput, SimTrace, TimingSim};

use crate::error::AtpgError;
use crate::faulty::FaultCone;
use crate::podem::{Atpg, AtpgConfig, AtpgStats, FaultOutcome, RootTiming, TestPair};

/// Per-site campaign outcome, in input order.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteOutcome {
    /// The search engine produced (and timing-validated) a test.
    Detected(TestPair),
    /// Covered by replaying the test of the earlier site with index `by`;
    /// the search never ran. Counts as detected.
    Dropped {
        /// Index (into the campaign's site slice) of the site whose test
        /// covers this fault.
        by: usize,
    },
    /// Proven untestable.
    Undetectable,
    /// Abandoned on budget.
    Aborted,
}

/// Result of a driver campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Per-site outcomes, index-aligned with the input slice.
    pub outcomes: Vec<SiteOutcome>,
    /// Aggregate counters; `stats.dropped` counts the [`SiteOutcome::Dropped`]
    /// subset of `stats.detected`.
    pub stats: AtpgStats,
    /// Incremental-timing-engine counters summed over every engine the
    /// campaign used (all speculative workers plus the resolve engine).
    /// Diagnostics only: unlike `outcomes` and `stats`, these depend on
    /// the worker count and interleaving. Each fault polarity's first
    /// timing check reads the campaign's one root STA pass and refines
    /// nothing, so a campaign decided at the root counts no pass at all.
    pub timing: IncrementalStats,
}

impl CampaignResult {
    /// Fraction of targeted faults covered by dropping rather than search.
    pub fn drop_rate(&self) -> f64 {
        if self.stats.total() == 0 {
            return 0.0;
        }
        self.stats.dropped as f64 / self.stats.total() as f64
    }
}

/// A replayed test: the concrete good-machine timing trace of a filled
/// two-pattern stimulus.
#[derive(Debug)]
pub(crate) struct Replay {
    trace: SimTrace,
    /// Scratch for the observability check of [`TestReplayer::covers`].
    cone: RefCell<FaultCone>,
}

/// Replays generated tests through the two-frame timing simulator and
/// decides which other faults they cover. One replayer serves a whole
/// campaign: it is `Sync`, so every worker borrows it.
#[derive(Debug)]
pub(crate) struct TestReplayer<'a> {
    circuit: &'a Circuit,
    config: &'a AtpgConfig,
    sim: TimingSim<'a, ProposedModel>,
    /// The campaign's root timing, whose setup-potential table decides
    /// coverage; the driver hands it to every search engine too.
    root: Arc<RootTiming>,
}

impl<'a> TestReplayer<'a> {
    /// Creates a replayer sharing the campaign's timing configuration.
    /// Computes the campaign's [`RootTiming`] (one static STA pass).
    ///
    /// # Errors
    ///
    /// Propagates STA failures (unmappable gates, missing cells).
    pub(crate) fn new(
        circuit: &'a Circuit,
        library: &'a CellLibrary,
        config: &'a AtpgConfig,
    ) -> Result<TestReplayer<'a>, AtpgError> {
        Ok(TestReplayer {
            circuit,
            config,
            sim: TimingSim::new(circuit, library, ProposedModel::new())
                .with_config(config.sta.clone()),
            root: RootTiming::new(circuit, library, config)?,
        })
    }

    /// Fills the unspecified bits of a partially specified test and
    /// simulates it.
    ///
    /// The fill is deterministic and *steady-biased*: an unknown frame
    /// copies the other frame's value when that is known, and both-unknown
    /// inputs hold at zero. A filled input therefore never switches unless
    /// the search itself asked for the transition, so the replay cannot
    /// excite couplings through fill noise — only through the transitions
    /// the test genuinely implies.
    ///
    /// # Errors
    ///
    /// Propagates simulator infrastructure failures
    /// ([`AtpgError::Simulation`]).
    pub(crate) fn replay(&self, test: &TestPair) -> Result<Replay, AtpgError> {
        let (v1, v2) = fill(test);
        let trace = self.sim.run(&SimInput::step(self.circuit, &v1, &v2))?;
        Ok(Replay {
            trace,
            cone: RefCell::new(FaultCone::new(self.circuit)),
        })
    }

    /// Whether the replayed test covers `site`'s crosstalk fault: opposing
    /// victim/aggressor transitions aligned within the coupling window,
    /// the flipped victim value observable at a primary output, and
    /// setup-violation potential for the victim's realised edge under the
    /// static worst-case windows (the criterion a fault must meet to be
    /// declared detected by the search itself).
    ///
    /// Conservative on the concrete conditions — `false` whenever
    /// excitation, alignment, or observability is not *surely* established
    /// on the trace.
    pub(crate) fn covers(&self, replay: &Replay, site: CrosstalkSite) -> bool {
        let Some(ev_v) = replay.trace.event(site.victim) else {
            return false;
        };
        let Some(ev_a) = replay.trace.event(site.aggressor) else {
            return false;
        };
        // The trace realises at most one fault polarity: the victim's
        // actual edge. The aggressor must oppose it.
        if ev_a.edge != ev_v.edge.inverted() {
            return false;
        }
        if !self.config.fault_model.aligned(ev_v.arrival, ev_a.arrival) {
            return false;
        }
        if !self.root.may_violate(site.victim, ev_v.edge) {
            return false;
        }
        // Observation: some primary output samples a different value when
        // the victim's transition is held back (it keeps its first-frame
        // value, the complement of its second-frame one). The trace is a
        // full forward simulation with every value known, so the cone
        // kernel is exact on it.
        let trace = &replay.trace;
        replay
            .cone
            .borrow_mut()
            .propagate(self.circuit, site.victim, |n| {
                Tri::from_bool(trace.values(n).1)
            })
    }
}

/// Replays a test, recording the wall-clock latency in the
/// `atpg.replay.latency_ns` histogram when instrumentation is on.
fn replay_timed(replayer: &TestReplayer<'_>, test: &TestPair) -> Result<Replay, AtpgError> {
    let t0 = ssdm_obs::enabled().then(std::time::Instant::now);
    let replay = replayer.replay(test)?;
    if let Some(t0) = t0 {
        ssdm_obs::histogram("atpg.replay.latency_ns").record(t0.elapsed().as_nanos() as u64);
    }
    Ok(replay)
}

/// Deterministic steady-biased X-fill (see [`TestReplayer::replay`]).
fn fill(test: &TestPair) -> (Vec<bool>, Vec<bool>) {
    test.v1
        .iter()
        .zip(&test.v2)
        .map(|(&a, &b)| match (a.to_bool(), b.to_bool()) {
            (Some(x), Some(y)) => (x, y),
            (Some(x), None) => (x, x),
            (None, Some(y)) => (y, y),
            (None, None) => (false, false),
        })
        .unzip()
}

/// The parallel fault-level campaign driver.
///
/// See the [module docs](crate::driver) for the scheduling and
/// determinism contract.
#[derive(Debug)]
pub struct AtpgDriver<'a> {
    circuit: &'a Circuit,
    library: &'a CellLibrary,
    config: AtpgConfig,
    jobs: usize,
}

impl<'a> AtpgDriver<'a> {
    /// Creates a serial (one-worker) driver.
    pub fn new(
        circuit: &'a Circuit,
        library: &'a CellLibrary,
        config: AtpgConfig,
    ) -> AtpgDriver<'a> {
        AtpgDriver {
            circuit,
            library,
            config,
            jobs: 1,
        }
    }

    /// Sets the worker count (clamped to at least one). The result of
    /// [`AtpgDriver::run`] does not depend on this value.
    pub fn with_jobs(mut self, jobs: usize) -> AtpgDriver<'a> {
        self.jobs = jobs.max(1);
        self
    }

    /// Runs the campaign over `sites`, dropping faults covered by earlier
    /// sites' tests. Outcomes and statistics are bit-identical for every
    /// worker count; only [`CampaignResult::timing`] (and wall-clock time)
    /// varies.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only ([`AtpgError`]); search outcomes are
    /// data.
    pub fn run(&self, sites: &[CrosstalkSite]) -> Result<CampaignResult, AtpgError> {
        let _span = ssdm_obs::span("atpg.driver");
        let replayer = TestReplayer::new(self.circuit, self.library, &self.config)?;
        let (speculative, timing) = if self.jobs > 1 && sites.len() > 1 {
            self.speculate(sites, &replayer)?
        } else {
            (vec![None; sites.len()], IncrementalStats::default())
        };
        self.resolve(sites, &replayer, speculative, timing)
    }

    /// A search engine whose root timing checks read the replayer's.
    fn search_engine(&self, replayer: &TestReplayer<'_>) -> Atpg<'a> {
        let root = Arc::clone(&replayer.root);
        Atpg::with_root(self.circuit, self.library, self.config.clone(), root)
    }

    /// Parallel phase: workers claim sites from a shared cursor, searching
    /// each and flagging later sites whose faults a generated test covers
    /// so that no worker starts them. All results are provisional — the
    /// resolve pass re-derives the authoritative drop set.
    #[allow(clippy::type_complexity)]
    fn speculate(
        &self,
        sites: &[CrosstalkSite],
        replayer: &TestReplayer<'_>,
    ) -> Result<(Vec<Option<FaultOutcome>>, IncrementalStats), AtpgError> {
        let n = sites.len();
        let cursor = AtomicUsize::new(0);
        let dropped: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let worker =
            |w: usize| -> Result<(Vec<(usize, FaultOutcome)>, IncrementalStats), AtpgError> {
                if ssdm_obs::enabled() {
                    ssdm_obs::set_thread_label(format!("atpg.worker.{w}"));
                }
                let _span = ssdm_obs::span("atpg.speculate");
                let searched = ssdm_obs::counter("atpg.worker.searched");
                let skipped = ssdm_obs::counter("atpg.worker.skipped");
                let atpg = self.search_engine(replayer);
                let mut local = Vec::new();
                loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    if j >= n {
                        break;
                    }
                    if dropped[j].load(Ordering::Acquire) {
                        // Skipped, not decided: the resolve pass either
                        // confirms the drop or searches the site itself.
                        skipped.incr();
                        continue;
                    }
                    searched.incr();
                    let outcome = atpg.run_site(sites[j])?;
                    if let FaultOutcome::Detected(test) = &outcome {
                        let replay = replay_timed(replayer, test)?;
                        for (k, flag) in dropped.iter().enumerate().skip(j + 1) {
                            if !flag.load(Ordering::Relaxed) && replayer.covers(&replay, sites[k]) {
                                flag.store(true, Ordering::Release);
                            }
                        }
                    }
                    local.push((j, outcome));
                }
                Ok((local, atpg.timing_stats()))
            };
        // Spawning can wait for a core the workers already hold, so the
        // span covers it as well as the joins.
        let join_span = ssdm_obs::span("atpg.join");
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs)
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ATPG worker panicked"))
                .collect()
        });
        drop(join_span);
        let mut speculative: Vec<Option<FaultOutcome>> = vec![None; n];
        let mut timing = IncrementalStats::default();
        for r in results {
            let (local, stats) = r?;
            timing += stats;
            for (j, outcome) in local {
                speculative[j] = Some(outcome);
            }
        }
        Ok((speculative, timing))
    }

    /// Deterministic merge: walk sites in index order, recompute drop
    /// decisions from surviving tests (first dropper wins), reuse
    /// speculative outcomes where the decision matches, and search any
    /// site the speculative phase skipped but the merge keeps.
    fn resolve(
        &self,
        sites: &[CrosstalkSite],
        replayer: &TestReplayer<'_>,
        speculative: Vec<Option<FaultOutcome>>,
        mut timing: IncrementalStats,
    ) -> Result<CampaignResult, AtpgError> {
        let _span = ssdm_obs::span("atpg.resolve");
        let mut stats = AtpgStats::default();
        let atpg = self.search_engine(replayer);
        let n = sites.len();
        let mut dropped_by: Vec<Option<usize>> = vec![None; n];
        let mut outcomes: Vec<SiteOutcome> = Vec::with_capacity(n);
        for (j, slot) in speculative.into_iter().enumerate() {
            if let Some(by) = dropped_by[j] {
                stats.detected += 1;
                stats.dropped += 1;
                outcomes.push(SiteOutcome::Dropped { by });
                continue;
            }
            let outcome = match slot {
                Some(o) => o,
                None => atpg.run_site(sites[j])?,
            };
            if let FaultOutcome::Detected(test) = &outcome {
                if j + 1 < n {
                    let replay = replay_timed(replayer, test)?;
                    for k in j + 1..n {
                        if dropped_by[k].is_none() && replayer.covers(&replay, sites[k]) {
                            dropped_by[k] = Some(j);
                        }
                    }
                }
            }
            outcomes.push(match outcome {
                FaultOutcome::Detected(t) => {
                    stats.detected += 1;
                    SiteOutcome::Detected(t)
                }
                FaultOutcome::Undetectable => {
                    stats.undetectable += 1;
                    SiteOutcome::Undetectable
                }
                FaultOutcome::Aborted => {
                    stats.aborted += 1;
                    SiteOutcome::Aborted
                }
            });
        }
        timing += atpg.timing_stats();
        // The campaign's totals, summed across campaigns in run reports.
        for (name, n) in [
            ("atpg.campaign.detected", stats.detected),
            ("atpg.campaign.dropped", stats.dropped),
            ("atpg.campaign.undetectable", stats.undetectable),
            ("atpg.campaign.aborted", stats.aborted),
        ] {
            ssdm_obs::counter(name).add(n as u64);
        }
        Ok(CampaignResult {
            outcomes,
            stats,
            timing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_library as library;
    use ssdm_logic::Tri;
    use ssdm_netlist::{
        coupling_sites, generate, suite, CircuitBuilder, GateType, GeneratorConfig,
    };

    fn campaign(circuit: &Circuit, n_sites: usize, seed: u64, jobs: usize) -> CampaignResult {
        let sites = coupling_sites(circuit, n_sites, seed);
        let config = AtpgConfig::for_circuit(circuit, library()).expect("config");
        AtpgDriver::new(circuit, library(), config)
            .with_jobs(jobs)
            .run(&sites)
            .expect("campaign")
    }

    #[test]
    fn fill_is_steady_biased() {
        let test = TestPair {
            v1: vec![Tri::One, Tri::X, Tri::Zero, Tri::X],
            v2: vec![Tri::Zero, Tri::One, Tri::X, Tri::X],
        };
        let (v1, v2) = fill(&test);
        assert_eq!(v1, vec![true, true, false, false]);
        assert_eq!(v2, vec![false, true, false, false]);
        // Only the fully specified transition survives the fill.
        let switching = v1.iter().zip(&v2).filter(|(a, b)| a != b).count();
        assert_eq!(switching, 1);
    }

    #[test]
    fn serial_and_parallel_campaigns_are_bit_identical() {
        let c = suite::c17();
        let serial = campaign(&c, 10, 7, 1);
        for jobs in [2, 4, 8] {
            let parallel = campaign(&c, 10, 7, jobs);
            assert_eq!(serial.outcomes, parallel.outcomes, "jobs = {jobs}");
            assert_eq!(serial.stats, parallel.stats, "jobs = {jobs}");
        }
    }

    #[test]
    fn campaign_invariants_hold() {
        let cfg = GeneratorConfig::iscas_like("drv", 6, 3, 18, 3);
        let c = generate(&cfg);
        let r = campaign(&c, 8, 5, 4);
        assert_eq!(r.outcomes.len(), 8);
        assert_eq!(r.stats.total(), 8);
        assert!(r.stats.dropped <= r.stats.detected);
        assert!((0.0..=1.0).contains(&r.drop_rate()));
        for (j, outcome) in r.outcomes.iter().enumerate() {
            if let SiteOutcome::Dropped { by } = outcome {
                assert!(*by < j, "drops only flow forward");
                assert!(
                    matches!(r.outcomes[*by], SiteOutcome::Detected(_)),
                    "dropper must itself survive with a test"
                );
            }
        }
    }

    /// Two parallel inverter chains whose primary inputs couple both
    /// ways: a test for the (a → v) site toggles both lines with opposing,
    /// perfectly aligned edges, so it must also cover the mirrored
    /// (v → a) site.
    fn twin_chain() -> (Circuit, Vec<CrosstalkSite>) {
        let mut b = CircuitBuilder::new("twin");
        b.input("a");
        b.input("v");
        b.gate("v1", GateType::Not, &["v"]).unwrap();
        b.gate("v2", GateType::Not, &["v1"]).unwrap();
        b.gate("a1", GateType::Not, &["a"]).unwrap();
        b.gate("a2", GateType::Not, &["a1"]).unwrap();
        b.output("v2");
        b.output("a2");
        let c = b.build().unwrap();
        let a = c.find("a").unwrap();
        let v = c.find("v").unwrap();
        let sites = vec![
            CrosstalkSite {
                aggressor: a,
                victim: v,
            },
            CrosstalkSite {
                aggressor: v,
                victim: a,
            },
        ];
        (c, sites)
    }

    /// A dropped site never reaches the search engine: a campaign and the
    /// campaign truncated just before the dropped site leave the timing
    /// engine with identical counters (test replay runs outside it).
    #[test]
    fn dropped_sites_are_never_searched() {
        let (c, sites) = twin_chain();
        let config = AtpgConfig::for_circuit(&c, library()).expect("config");
        let driver = AtpgDriver::new(&c, library(), config);
        let full = driver.run(&sites).expect("campaign");
        assert!(
            matches!(full.outcomes[0], SiteOutcome::Detected(_)),
            "first site must be detected, got {:?}",
            full.outcomes[0]
        );
        assert_eq!(
            full.outcomes[1],
            SiteOutcome::Dropped { by: 0 },
            "mirrored site must be dropped by the first test"
        );
        assert_eq!(full.stats.dropped, 1);
        let prefix = driver.run(&sites[..1]).expect("prefix campaign");
        assert_eq!(
            prefix.timing, full.timing,
            "dropping the mirrored site must not touch the engine"
        );
        assert_eq!(full.stats.detected, prefix.stats.detected + 1);
    }

    /// Every c7552s §7 site is decided by its root checks, which read the
    /// campaign's root timing: no engine is ever built.
    #[test]
    fn root_decided_campaign_builds_no_engine() {
        let c = suite::synthetic("c7552s").unwrap();
        for jobs in [1, 2] {
            let r = campaign(&c, 40, 7001, jobs);
            assert_eq!(r.stats.undetectable, 40, "jobs = {jobs}");
            assert_eq!(r.timing, IncrementalStats::default(), "jobs = {jobs}");
        }
    }

    #[test]
    fn single_site_matches_run_site() {
        let c = suite::c17();
        let sites = coupling_sites(&c, 3, 9);
        let config = AtpgConfig::for_circuit(&c, library()).expect("config");
        let atpg = Atpg::new(&c, library(), config.clone());
        let driver = AtpgDriver::new(&c, library(), config);
        for &site in &sites {
            let direct = atpg.run_site(site).expect("run_site");
            let r = driver.run(&[site]).expect("campaign");
            let expected = match direct {
                FaultOutcome::Detected(t) => SiteOutcome::Detected(t),
                FaultOutcome::Undetectable => SiteOutcome::Undetectable,
                FaultOutcome::Aborted => SiteOutcome::Aborted,
            };
            assert_eq!(r.outcomes, vec![expected]);
            assert_eq!(r.stats.dropped, 0);
        }
    }
}
