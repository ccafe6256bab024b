//! PODEM-style two-pattern search for crosstalk delay faults, with
//! optional ITR pruning (the Section 7 framework).

use std::cell::{Cell, RefCell};

use ssdm_cells::CellLibrary;
use ssdm_core::{Bound, Edge, Time};
use ssdm_itr::Itr;
use ssdm_logic::{Assignments, TransState, Tri, V2};
use ssdm_netlist::{Circuit, CrosstalkSite, GateType, NetId};
use ssdm_obs::Event;
use ssdm_sta::{required_times, Sta, StaConfig, TimingView};

use crate::error::{itr_conflict, AtpgError};
use crate::fault::{CrosstalkFault, FaultModel};
use crate::faulty::FaultCone;

/// ATPG configuration.
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// Timing configuration shared with STA/ITR.
    pub sta: StaConfig,
    /// Crosstalk fault parameters.
    pub fault_model: FaultModel,
    /// The clock period setting the setup deadline at primary outputs.
    pub clock_period: Time,
    /// Backtrack budget per fault polarity; exceeding it aborts the fault.
    pub backtrack_limit: usize,
    /// When true, run incremental timing refinement after every decision
    /// and prune timing-infeasible branches early (the paper's ITR-based
    /// ATPG); when false, timing is only validated once a logic test has
    /// been found.
    pub use_itr: bool,
}

impl Default for AtpgConfig {
    fn default() -> AtpgConfig {
        AtpgConfig {
            sta: StaConfig::default(),
            fault_model: FaultModel::default(),
            // Tuned to c17-scale circuits (max delay ≈ 0.57 ns); larger
            // circuits should derive the period from an STA max-delay run
            // via [`AtpgConfig::with_clock`].
            clock_period: Time::from_ns(0.6),
            backtrack_limit: 30,
            use_itr: true,
        }
    }
}

impl AtpgConfig {
    /// The same configuration with a different clock period. Pick a period
    /// slightly above the circuit's STA max delay so that a slowed victim
    /// can actually violate setup.
    pub fn with_clock(mut self, clock_period: Time) -> AtpgConfig {
        self.clock_period = clock_period;
        self
    }

    /// The default configuration with the clock period derived from the
    /// circuit itself: an STA max-delay run under the default timing
    /// configuration, plus a 2 % setup margin. This replaces the
    /// c17-tuned [`AtpgConfig::default`] period for arbitrary circuits —
    /// a slowed victim can then actually violate setup, without the clock
    /// being so loose that nothing ever does.
    ///
    /// # Errors
    ///
    /// Propagates STA failures (unmappable gates, missing cells).
    pub fn for_circuit(circuit: &Circuit, library: &CellLibrary) -> Result<AtpgConfig, AtpgError> {
        let config = AtpgConfig::default();
        let sta = Sta::new(circuit, library, config.sta.clone()).run()?;
        let clock = sta.endpoint_max_delay(circuit) * 1.02;
        Ok(config.with_clock(clock))
    }

    /// The setup-violation potential of every line under `timing`: a
    /// transition of `net` on `edge`, slowed by the fault's extra delay,
    /// can miss its setup deadline when its latest arrival plus that
    /// delay exceeds its latest required time, the deadline being the
    /// clock period at every primary output.
    pub(crate) fn setup_potential<'t>(
        &self,
        circuit: &Circuit,
        timing: &'t impl TimingView,
    ) -> impl Fn(NetId, Edge) -> bool + 't {
        let deadline = Bound::new(Time::NEG_INFINITY, self.clock_period).expect("valid");
        let q = required_times(circuit, timing, [deadline, deadline]);
        let extra = self.fault_model.extra_delay;
        move |net, edge| {
            timing
                .line(net)
                .edge(edge)
                .is_some_and(|w| w.arrival.l() + extra > q[net.index()][edge.index()].l)
        }
    }
}

/// A (possibly partially specified) two-pattern test over the primary
/// inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestPair {
    /// First-frame PI values.
    pub v1: Vec<Tri>,
    /// Second-frame PI values.
    pub v2: Vec<Tri>,
}

/// Outcome of targeting one fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// A test was found (and its timing feasibility established).
    Detected(TestPair),
    /// The search space was exhausted: no test exists under the model.
    Undetectable,
    /// The backtrack or iteration budget ran out first.
    Aborted,
}

/// Aggregate campaign statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtpgStats {
    /// Faults with a test — generated by the search engine *or* inherited
    /// from another fault's test through fault dropping (see
    /// [`crate::driver`]); `dropped` counts the latter subset.
    pub detected: usize,
    /// Faults proven untestable.
    pub undetectable: usize,
    /// Faults abandoned on budget.
    pub aborted: usize,
    /// Of `detected`, the faults covered by replaying an earlier fault's
    /// test through the timing simulator instead of running the search.
    pub dropped: usize,
}

impl AtpgStats {
    /// Total faults targeted.
    pub fn total(&self) -> usize {
        self.detected + self.undetectable + self.aborted
    }

    /// The paper's efficiency metric: fraction of targeted faults either
    /// detected or proven undetectable.
    pub fn efficiency(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        (self.detected + self.undetectable) as f64 / self.total() as f64
    }
}

/// The crosstalk-delay-fault test generator.
#[derive(Debug)]
pub struct Atpg<'a> {
    circuit: &'a Circuit,
    itr: Itr<'a>,
    /// Scratch for the faulty-machine check (confined to one thread,
    /// like `itr`).
    cone: RefCell<FaultCone>,
    config: AtpgConfig,
    /// PODEM backtracks taken by this generator; added to the
    /// `ssdm-obs` registry total `atpg.podem.backtracks` when it drops
    /// (per-worker generators sum across the campaign).
    backtrack_count: Cell<u64>,
}

impl Drop for Atpg<'_> {
    fn drop(&mut self) {
        ssdm_obs::counter("atpg.podem.backtracks").add(self.backtrack_count.get());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    First,
    Second,
}

impl Frame {
    /// The 1-based frame number used in provenance events.
    fn number(self) -> u8 {
        match self {
            Frame::First => 1,
            Frame::Second => 2,
        }
    }
}

#[derive(Debug)]
struct Decision {
    pi: NetId,
    frame: Frame,
    value: bool,
    flipped: bool,
    snapshot: Assignments,
}

enum Step {
    Detected,
    Conflict,
    Objective(NetId, Frame, bool),
}

impl<'a> Atpg<'a> {
    /// Creates a generator.
    pub fn new(circuit: &'a Circuit, library: &'a CellLibrary, config: AtpgConfig) -> Atpg<'a> {
        Atpg {
            circuit,
            itr: Itr::new(circuit, library, config.sta.clone()),
            cone: RefCell::new(FaultCone::new(circuit)),
            config,
            backtrack_count: Cell::new(0),
        }
    }

    /// Counters from the refiner's shared incremental timing engine —
    /// useful for judging how much of the PODEM search cost the dirty-cone
    /// propagation and the memo cache absorbed.
    ///
    /// Thread-safety: one `Atpg` is confined to one thread (`Itr` uses a
    /// `RefCell`), so these counters can never be torn by concurrent
    /// updates. The parallel driver gives each worker its *own* `Atpg`
    /// and sums the per-worker snapshots with
    /// [`IncrementalStats`](ssdm_sta::IncrementalStats)'s `+` operator —
    /// see [`crate::driver::CampaignResult::timing`].
    pub fn timing_stats(&self) -> ssdm_sta::IncrementalStats {
        self.itr.stats()
    }

    /// Targets one site: tries both fault polarities; reports `Detected`
    /// if either yields a test, `Undetectable` only when both are proven
    /// untestable.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures ([`AtpgError`]); search outcomes are in
    /// the `Ok` value.
    pub fn run_site(&self, site: CrosstalkSite) -> Result<FaultOutcome, AtpgError> {
        let _span = ssdm_obs::span("atpg.site");
        let mut aborted = false;
        for fault in CrosstalkFault::polarities(site) {
            match self.run_fault(&fault)? {
                FaultOutcome::Detected(t) => return Ok(FaultOutcome::Detected(t)),
                FaultOutcome::Aborted => aborted = true,
                FaultOutcome::Undetectable => {}
            }
        }
        Ok(if aborted {
            FaultOutcome::Aborted
        } else {
            FaultOutcome::Undetectable
        })
    }

    /// Targets one fault polarity.
    ///
    /// # Errors
    ///
    /// As for [`Atpg::run_site`].
    pub fn run_fault(&self, fault: &CrosstalkFault) -> Result<FaultOutcome, AtpgError> {
        let _span = ssdm_obs::span("atpg.fault");
        let before = self.backtrack_count.get();
        let outcome = self.search_fault(fault);
        if ssdm_obs::enabled() {
            ssdm_obs::histogram("atpg.fault.backtracks")
                .record(self.backtrack_count.get() - before);
        }
        outcome
    }

    /// The PODEM search loop behind [`Atpg::run_fault`].
    fn search_fault(&self, fault: &CrosstalkFault) -> Result<FaultOutcome, AtpgError> {
        let mut a = Assignments::new(self.circuit.n_nets());
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;
        let iter_limit = self.config.backtrack_limit * 40 + 400;
        for _ in 0..iter_limit {
            let step = self.evaluate(&mut a, fault)?;
            match step {
                Step::Detected => {
                    return Ok(FaultOutcome::Detected(self.extract_test(&a)));
                }
                Step::Conflict => {
                    if backtracks >= self.config.backtrack_limit {
                        ssdm_obs::event(|| Event::AtpgAbort {
                            backtracks: backtracks as u64,
                        });
                        return Ok(FaultOutcome::Aborted);
                    }
                    backtracks += 1;
                    self.backtrack_count.set(self.backtrack_count.get() + 1);
                    ssdm_obs::event(|| Event::AtpgBacktrack {
                        depth: stack.len() as u32,
                    });
                    if !self.backtrack(&mut a, &mut stack) {
                        return Ok(FaultOutcome::Undetectable);
                    }
                }
                Step::Objective(net, frame, value) => {
                    ssdm_obs::event(|| Event::AtpgObjective {
                        net: net.index() as u32,
                        frame: frame.number(),
                        value,
                    });
                    match self.backtrace(&a, net, frame, value) {
                        Some((pi, v)) => {
                            let snapshot = a.clone();
                            if self.assign(&mut a, pi, frame, v).is_err() {
                                // Immediate conflict: try the complement in
                                // place of a fresh decision.
                                a = snapshot.clone();
                                if self.assign(&mut a, pi, frame, !v).is_err() {
                                    if backtracks >= self.config.backtrack_limit {
                                        ssdm_obs::event(|| Event::AtpgAbort {
                                            backtracks: backtracks as u64,
                                        });
                                        return Ok(FaultOutcome::Aborted);
                                    }
                                    backtracks += 1;
                                    self.backtrack_count.set(self.backtrack_count.get() + 1);
                                    ssdm_obs::event(|| Event::AtpgBacktrack {
                                        depth: stack.len() as u32,
                                    });
                                    a = snapshot;
                                    if !self.backtrack(&mut a, &mut stack) {
                                        return Ok(FaultOutcome::Undetectable);
                                    }
                                } else {
                                    ssdm_obs::event(|| Event::AtpgDecision {
                                        pi: pi.index() as u32,
                                        frame: frame.number(),
                                        value: !v,
                                        flipped: true,
                                    });
                                    stack.push(Decision {
                                        pi,
                                        frame,
                                        value: !v,
                                        flipped: true,
                                        snapshot,
                                    });
                                }
                            } else {
                                ssdm_obs::event(|| Event::AtpgDecision {
                                    pi: pi.index() as u32,
                                    frame: frame.number(),
                                    value: v,
                                    flipped: false,
                                });
                                stack.push(Decision {
                                    pi,
                                    frame,
                                    value: v,
                                    flipped: false,
                                    snapshot,
                                });
                            }
                        }
                        None => {
                            if backtracks >= self.config.backtrack_limit {
                                ssdm_obs::event(|| Event::AtpgAbort {
                                    backtracks: backtracks as u64,
                                });
                                return Ok(FaultOutcome::Aborted);
                            }
                            backtracks += 1;
                            self.backtrack_count.set(self.backtrack_count.get() + 1);
                            ssdm_obs::event(|| Event::AtpgBacktrack {
                                depth: stack.len() as u32,
                            });
                            if !self.backtrack(&mut a, &mut stack) {
                                return Ok(FaultOutcome::Undetectable);
                            }
                        }
                    }
                }
            }
        }
        ssdm_obs::event(|| Event::AtpgAbort {
            backtracks: backtracks as u64,
        });
        Ok(FaultOutcome::Aborted)
    }

    fn assign(&self, a: &mut Assignments, pi: NetId, frame: Frame, value: bool) -> Result<(), ()> {
        let v2 = match frame {
            Frame::First => V2::new(Tri::from_bool(value), Tri::X),
            Frame::Second => V2::new(Tri::X, Tri::from_bool(value)),
        };
        a.set(pi, v2).map_err(|_| ())?;
        let _span = ssdm_obs::span("atpg.imply");
        ssdm_logic::imply(self.circuit, a).map_err(|_| ())
    }

    /// Evaluates the current branch: conflict, detection, or the next
    /// objective. Runs implication (and, with `use_itr`, timing
    /// refinement + pruning) as a side effect on `a`.
    fn evaluate(&self, a: &mut Assignments, fault: &CrosstalkFault) -> Result<Step, AtpgError> {
        let implied = {
            let _span = ssdm_obs::span("atpg.imply");
            ssdm_logic::imply(self.circuit, a)
        };
        if implied.is_err() {
            return Ok(Step::Conflict);
        }
        let e_v = fault.victim_edge;
        let e_a = fault.aggressor_edge();
        let s_v = a.state(fault.victim(), e_v);
        let s_a = a.state(fault.aggressor(), e_a);
        if s_v == TransState::No || s_a == TransState::No {
            return Ok(Step::Conflict);
        }
        if self.config.use_itr && !self.timing_feasible(a, fault)? {
            return Ok(Step::Conflict);
        }
        // Justify the victim transition, then the aggressor's.
        for (net, state, edge) in [(fault.victim(), s_v, e_v), (fault.aggressor(), s_a, e_a)] {
            if state == TransState::Maybe {
                let v = a.get(net);
                if !v.first.is_known() {
                    return Ok(Step::Objective(net, Frame::First, edge.from_value()));
                }
                if !v.second.is_known() {
                    return Ok(Step::Objective(net, Frame::Second, edge.to_value()));
                }
                // Both frames known but state still Maybe is impossible.
                unreachable!("fully known value cannot be Maybe");
            }
        }
        // Both transitions justified: drive the fault effect to an output.
        let faulty_span = ssdm_obs::span("atpg.faulty");
        let mut cone = self.cone.borrow_mut();
        if cone.propagate(self.circuit, fault.victim(), |n| a.get(n).second) {
            drop(faulty_span);
            // Timing must hold (checked continuously with ITR; once, here,
            // without).
            if self.config.use_itr || self.timing_feasible(a, fault)? {
                return Ok(Step::Detected);
            }
            return Ok(Step::Conflict);
        }
        drop(faulty_span);
        for &gate_id in cone.frontier() {
            let gate = self.circuit.gate(gate_id);
            let Some(cv) = gate.gtype.controlling_value() else {
                continue;
            };
            for &side in &gate.fanin {
                let good = a.get(side).second;
                if !good.is_known() && cone.value(side, good) == good {
                    return Ok(Step::Objective(side, Frame::Second, !cv));
                }
            }
        }
        // Nothing to extend and not detected: dead branch.
        Ok(Step::Conflict)
    }

    /// ITR-based feasibility: both fault lines keep their transition
    /// windows, the windows are alignable within the coupling window, and
    /// the slowed victim can still miss its setup deadline somewhere.
    fn timing_feasible(
        &self,
        a: &mut Assignments,
        fault: &CrosstalkFault,
    ) -> Result<bool, AtpgError> {
        let refined = match self.itr.refine(a) {
            Ok(r) => r,
            Err(e) => {
                itr_conflict(e)?;
                return Ok(false);
            }
        };
        let Some(wv) = refined.line(fault.victim()).edge(fault.victim_edge) else {
            return Ok(false);
        };
        let Some(wa) = refined.line(fault.aggressor()).edge(fault.aggressor_edge()) else {
            return Ok(false);
        };
        // Alignment: some pair of arrivals within the coupling window.
        let w = self.config.fault_model.alignment_window;
        let expanded = Bound::new(wa.arrival.s() - w, wa.arrival.l() + w).expect("widening");
        if !expanded.overlaps(wv.arrival) {
            return Ok(false);
        }
        // Setup-violation potential under the refined windows.
        let may_violate = {
            let _span = ssdm_obs::span("atpg.required");
            self.config.setup_potential(self.circuit, &refined)
        };
        Ok(may_violate(fault.victim(), fault.victim_edge))
    }

    /// PODEM backtrace: walks an objective back to an unassigned primary
    /// input.
    fn backtrace(
        &self,
        a: &Assignments,
        mut net: NetId,
        frame: Frame,
        mut value: bool,
    ) -> Option<(NetId, bool)> {
        let frame_val = |a: &Assignments, n: NetId| match frame {
            Frame::First => a.get(n).first,
            Frame::Second => a.get(n).second,
        };
        loop {
            let gate = self.circuit.gate(net);
            match gate.gtype {
                GateType::Input => {
                    return if frame_val(a, net) == Tri::X {
                        Some((net, value))
                    } else {
                        None
                    };
                }
                GateType::Buf => net = gate.fanin[0],
                GateType::Not => {
                    net = gate.fanin[0];
                    value = !value;
                }
                GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
                    let cv = gate.gtype.controlling_value().expect("multi-input gate");
                    let core = if gate.gtype.inverting() {
                        !value
                    } else {
                        value
                    };
                    // And-core is true only when all inputs are 1 (= !cv);
                    // Or-core is false only when all are 0 (= !cv).
                    let need_all = match gate.gtype {
                        GateType::And | GateType::Nand => core,
                        _ => !core,
                    };
                    let target = if need_all { !cv } else { cv };
                    let next = gate
                        .fanin
                        .iter()
                        .copied()
                        .find(|&f| frame_val(a, f) == Tri::X)?;
                    net = next;
                    value = target;
                }
            }
        }
    }

    /// Restores the most recent unflipped decision with its complement;
    /// false when the space is exhausted.
    fn backtrack(&self, a: &mut Assignments, stack: &mut Vec<Decision>) -> bool {
        while let Some(mut d) = stack.pop() {
            if d.flipped {
                continue;
            }
            *a = d.snapshot.clone();
            if self.assign(a, d.pi, d.frame, !d.value).is_ok() {
                d.flipped = true;
                d.value = !d.value;
                stack.push(d);
                return true;
            }
            // The complement conflicts immediately: keep unwinding.
        }
        false
    }

    fn extract_test(&self, a: &Assignments) -> TestPair {
        let v1 = self
            .circuit
            .inputs()
            .iter()
            .map(|&pi| a.get(pi).first)
            .collect();
        let v2 = self
            .circuit
            .inputs()
            .iter()
            .map(|&pi| a.get(pi).second)
            .collect();
        TestPair { v1, v2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_library as library;
    use ssdm_logic::imply;
    use ssdm_netlist::suite;

    fn site(c: &Circuit, aggressor: &str, victim: &str) -> CrosstalkSite {
        CrosstalkSite {
            aggressor: c.find(aggressor).unwrap(),
            victim: c.find(victim).unwrap(),
        }
    }

    #[test]
    fn detects_a_simple_c17_fault() {
        let c = suite::c17();
        let atpg = Atpg::new(&c, library(), AtpgConfig::default());
        // Victim 10 feeds output 22 directly; aggressor 19 feeds 23.
        let outcome = atpg.run_site(site(&c, "19", "10")).unwrap();
        let FaultOutcome::Detected(test) = outcome else {
            panic!("expected detection, got {outcome:?}");
        };
        // The returned test must really produce opposing transitions on
        // the two lines under pure implication.
        let mut a = Assignments::new(c.n_nets());
        for (idx, &pi) in c.inputs().iter().enumerate() {
            a.set(pi, V2::new(test.v1[idx], test.v2[idx])).unwrap();
        }
        imply(&c, &mut a).unwrap();
        let v = c.find("10").unwrap();
        let g = c.find("19").unwrap();
        let sv = a.get(v);
        let sg = a.get(g);
        assert!(sv.is_fully_specified(), "victim value {sv}");
        assert!(sg.is_fully_specified(), "aggressor value {sg}");
        assert_ne!(sv.first, sv.second, "victim transitions");
        assert_ne!(sg.first, sg.second, "aggressor transitions");
        assert_ne!(sv.second, sg.second, "opposing transitions");
    }

    #[test]
    fn impossible_alignment_is_rejected() {
        let c = suite::c17();
        // A clock so generous that slack is huge everywhere: no fault can
        // cause a violation.
        let cfg = AtpgConfig::default().with_clock(Time::from_ns(1000.0));
        let atpg = Atpg::new(&c, library(), cfg);
        let outcome = atpg.run_site(site(&c, "19", "10")).unwrap();
        assert_eq!(outcome, FaultOutcome::Undetectable);
    }

    #[test]
    fn structurally_unpropagatable_fault_is_undetectable() {
        let c = suite::c17();
        // Victim is a primary output with... use a victim whose only path
        // is blocked by the aggressor requirement? Use victim 22 (a PO):
        // it is directly observable, so instead check a victim that cannot
        // transition opposite to the aggressor when they share logic.
        // Site (3, 10): aggressor drives the victim's own gate — but our
        // coupling extractor forbids that; emulate a hard case instead:
        // aggressor "1" (PI) and victim "23" with an impossibly tight
        // clock making everything feasible — should be detected.
        let atpg = Atpg::new(&c, library(), AtpgConfig::default());
        let outcome = atpg.run_site(site(&c, "1", "23")).unwrap();
        assert!(matches!(
            outcome,
            FaultOutcome::Detected(_) | FaultOutcome::Undetectable
        ));
    }

    #[test]
    fn campaign_statistics_add_up() {
        let c = suite::c17();
        let sites = ssdm_netlist::coupling_sites(&c, 6, 11);
        let driver = crate::AtpgDriver::new(&c, library(), AtpgConfig::default());
        let stats = driver.run(&sites).unwrap().stats;
        assert_eq!(stats.total(), sites.len());
        assert!(stats.efficiency() >= 0.0 && stats.efficiency() <= 1.0);
        // c17 is tiny: nothing should need aborting.
        assert_eq!(stats.aborted, 0, "stats = {stats:?}");
    }

    #[test]
    fn traced_search_records_objectives_and_decisions() {
        let c = suite::c17();
        let atpg = Atpg::new(&c, library(), AtpgConfig::default());
        ssdm_obs::set_events_enabled(true);
        let outcome = atpg.run_site(site(&c, "19", "10")).unwrap();
        ssdm_obs::set_events_enabled(false);
        assert!(matches!(outcome, FaultOutcome::Detected(_)));
        let report = ssdm_obs::capture();
        let events: Vec<&ssdm_obs::EventRecord> = report
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .collect();
        // PODEM must have posed at least one objective and committed at
        // least one PI decision on the way to the test.
        let n_pis = c.inputs().len() as u32;
        let mut saw_objective = false;
        let mut saw_decision = false;
        for r in &events {
            match r.event {
                Event::AtpgObjective { frame, .. } => {
                    assert!(frame == 1 || frame == 2, "frame {frame}");
                    saw_objective = true;
                }
                Event::AtpgDecision { pi, frame, .. } => {
                    assert!(pi < n_pis + c.n_nets() as u32);
                    assert!(frame == 1 || frame == 2, "frame {frame}");
                    saw_decision = true;
                }
                _ => {}
            }
        }
        assert!(saw_objective, "no atpg.objective events captured");
        assert!(saw_decision, "no atpg.decision events captured");
    }

    #[test]
    fn itr_pruning_never_loses_detections() {
        // Soundness of pruning: anything detected WITH ITR is also
        // logically detectable WITHOUT (the reverse may differ on budget).
        let c = suite::c17();
        let sites = ssdm_netlist::coupling_sites(&c, 6, 12);
        let with = Atpg::new(
            &c,
            library(),
            AtpgConfig {
                use_itr: true,
                ..Default::default()
            },
        );
        let without = Atpg::new(
            &c,
            library(),
            AtpgConfig {
                use_itr: false,
                ..Default::default()
            },
        );
        for &s in &sites {
            let a = with.run_site(s).unwrap();
            let b = without.run_site(s).unwrap();
            if matches!(a, FaultOutcome::Detected(_)) {
                assert!(
                    !matches!(b, FaultOutcome::Undetectable),
                    "ITR found a test where exhaustive search proved none: {s:?}"
                );
            }
        }
    }

    #[test]
    fn efficiency_metric() {
        let s = AtpgStats {
            detected: 3,
            undetectable: 1,
            aborted: 6,
            dropped: 2,
        };
        assert_eq!(s.total(), 10);
        assert!((s.efficiency() - 0.4).abs() < 1e-12);
        assert_eq!(AtpgStats::default().efficiency(), 1.0);
    }
}
