//! Cross-crate property-based tests: invariants the paper's method relies
//! on, exercised with randomized circuits, stimuli and assignments.

use std::sync::OnceLock;

use proptest::prelude::*;
use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::itr::Itr;
use ssdm::logic::{imply, simulate_two_frames, Assignments, Tri, V2};
use ssdm::models::{DelayModel, ProposedModel};
use ssdm::netlist::{generate, suite, GeneratorConfig};
use ssdm::sta::{ModelKind, Sta, StaConfig};
use ssdm::timing::{Edge, Time, Transition};

fn library() -> &'static CellLibrary {
    static LIB: OnceLock<CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        CellLibrary::characterize_standard(&CharConfig::fast()).expect("characterization")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The model's gate delay is bounded by its own V-shape extremes for
    /// any pair stimulus: never below the zero-skew floor, never above the
    /// slowest single switch.
    #[test]
    fn proposed_delay_is_bracketed(t0 in 0.15..1.5f64, t1 in 0.15..1.5f64, skew in -2.0..2.0f64) {
        let cell = library().require("NAND2").unwrap();
        let load = cell.ref_load();
        let base = Time::from_ns(2.0);
        let stim = [
            (0usize, Transition::new(Edge::Fall, base, Time::from_ns(t0))),
            (1usize, Transition::new(Edge::Fall, base + Time::from_ns(skew), Time::from_ns(t1))),
        ];
        let r = ProposedModel::new().response(cell, &stim, load).unwrap();
        let earliest = if skew < 0.0 { base + Time::from_ns(skew) } else { base };
        let delay = r.arrival - earliest;
        let v = cell.vshape_delay(0, 1, Time::from_ns(t0), Time::from_ns(t1), load).unwrap();
        let floor = v.vertex().1;
        let ceil = v.left_knee().1.max(v.right_knee().1);
        prop_assert!(delay >= floor - Time::from_ns(0.02), "delay {delay} under floor {floor}");
        prop_assert!(delay <= ceil + Time::from_ns(0.02), "delay {delay} over ceiling {ceil}");
    }

    /// STA windows are sound for random synthetic circuits: the proposed
    /// min never exceeds the pin-to-pin min, maxes agree, and windows are
    /// well-formed everywhere.
    #[test]
    fn sta_windows_are_well_formed(seed in 0u64..500, n_gates in 30usize..120) {
        let cfg = GeneratorConfig::iscas_like("prop", 12, 6, n_gates, seed);
        let circuit = generate(&cfg);
        let lib = library();
        let ours = Sta::new(&circuit, lib, StaConfig::default()).run().unwrap();
        let p2p = Sta::new(&circuit, lib, StaConfig::default().with_model(ModelKind::PinToPin))
            .run()
            .unwrap();
        for id in circuit.topo() {
            for e in Edge::BOTH {
                let (a, b) = (ours.line(id).edge(e), p2p.line(id).edge(e));
                let (Some(a), Some(b)) = (a, b) else {
                    prop_assert!(a.is_none() && b.is_none());
                    continue;
                };
                prop_assert!(a.arrival.s() <= a.arrival.l());
                prop_assert!(a.ttime.s() <= a.ttime.l());
                prop_assert!(a.ttime.s() > Time::ZERO, "non-positive transition time");
                // Proposed only ever *reduces* the early corner.
                prop_assert!(a.arrival.s() <= b.arrival.s() + Time::from_ns(1e-9));
                prop_assert!((a.arrival.l() - b.arrival.l()).abs() < Time::from_ns(1e-9));
            }
        }
    }

    /// ITR is conservative: for ANY fully specified vector pair drawn at
    /// random, every line's transition (if it has one) stays within the
    /// STA window of that edge.
    #[test]
    fn sta_windows_contain_all_full_vector_behaviours(bits1 in 0u8..32, bits2 in 0u8..32) {
        let circuit = suite::c17();
        let lib = library();
        let sta = Sta::new(&circuit, lib, StaConfig::default()).run().unwrap();
        let v1: Vec<bool> = (0..5).map(|i| bits1 & (1 << i) != 0).collect();
        let v2: Vec<bool> = (0..5).map(|i| bits2 & (1 << i) != 0).collect();
        let values = simulate_two_frames(&circuit, &v1, &v2);
        let itr = Itr::new(&circuit, lib, StaConfig::default());
        let mut a = Assignments::new(circuit.n_nets());
        for (idx, &pi) in circuit.inputs().iter().enumerate() {
            a.set(pi, values[pi.index()]).unwrap();
            let _ = idx;
        }
        let refined = itr.refine(&mut a).unwrap();
        for id in circuit.topo() {
            prop_assert!(
                sta.line(id).refined_by_within(refined.line(id), Time::from_ps(2.0)),
                "net {}: ITR left the STA window",
                circuit.gate(id).name
            );
        }
    }

    /// Implication soundness on random synthetic circuits: seeding a
    /// consistent subset of the truth never conflicts and never implies a
    /// wrong definite value.
    #[test]
    fn implication_sound_on_random_circuits(seed in 0u64..200, mask in 0u64..u64::MAX) {
        let cfg = GeneratorConfig::iscas_like("imp", 10, 5, 60, seed);
        let circuit = generate(&cfg);
        let v1: Vec<bool> = (0..10).map(|i| (seed >> i) & 1 != 0).collect();
        let v2: Vec<bool> = (0..10).map(|i| (seed >> (i + 10)) & 1 != 0).collect();
        let truth = simulate_two_frames(&circuit, &v1, &v2);
        let mut a = Assignments::new(circuit.n_nets());
        for id in circuit.topo() {
            if (mask >> (id.index() % 64)) & 1 == 1 {
                a.set(id, truth[id.index()]).unwrap();
            }
        }
        imply(&circuit, &mut a).expect("consistent seed must not conflict");
        for id in circuit.topo() {
            let implied = a.get(id);
            let t = truth[id.index()];
            prop_assert!(implied.first == Tri::X || implied.first == t.first);
            prop_assert!(implied.second == Tri::X || implied.second == t.second);
        }
    }

    /// Timing simulation is the oracle: every event it produces for any
    /// fully specified vector pair lies inside the corresponding STA
    /// window — and inside the ITR windows for that same assignment.
    #[test]
    fn simulated_events_land_inside_sta_and_itr_windows(bits1 in 0u8..32, bits2 in 0u8..32) {
        use ssdm::tsim::{SimInput, TimingSim};
        let circuit = suite::c17();
        let lib = library();
        // Match the simulator's launch conditions.
        let cfg = StaConfig {
            pi_ttime: ssdm::timing::Bound::point(Time::from_ns(0.3)),
            ..StaConfig::default()
        };
        let sta = Sta::new(&circuit, lib, cfg.clone()).run().unwrap();
        let v1: Vec<bool> = (0..5).map(|i| bits1 & (1 << i) != 0).collect();
        let v2: Vec<bool> = (0..5).map(|i| bits2 & (1 << i) != 0).collect();
        let trace = TimingSim::new(&circuit, lib, ProposedModel::new())
            .with_config(cfg.clone())
            .run(&SimInput::step(&circuit, &v1, &v2))
            .unwrap();
        // ITR windows under the same (fully specified) assignment.
        let itr = Itr::new(&circuit, lib, cfg);
        let mut a = Assignments::new(circuit.n_nets());
        for (idx, &pi) in circuit.inputs().iter().enumerate() {
            a.set(pi, V2::new(Tri::from_bool(v1[idx]), Tri::from_bool(v2[idx]))).unwrap();
        }
        let refined = itr.refine(&mut a).unwrap();
        let tol = Time::from_ps(5.0);
        for id in circuit.topo() {
            let Some(ev) = trace.event(id) else { continue };
            for (label, lt) in [("sta", sta.line(id)), ("itr", refined.line(id))] {
                let w = lt.edge(ev.edge);
                prop_assert!(w.is_some(), "{label}: net {} event on a vetoed edge", circuit.gate(id).name);
                let w = w.unwrap();
                prop_assert!(
                    w.arrival.s() - tol <= ev.arrival && ev.arrival <= w.arrival.l() + tol,
                    "{label}: net {} arrival {} outside {}",
                    circuit.gate(id).name, ev.arrival, w.arrival
                );
                prop_assert!(
                    w.ttime.s() - tol <= ev.ttime && ev.ttime <= w.ttime.l() + tol,
                    "{label}: net {} ttime {} outside {}",
                    circuit.gate(id).name, ev.ttime, w.ttime
                );
            }
        }
    }

    /// The incremental ITR engine is bit-identical to a from-scratch
    /// recompute over random circuits and random assignment sequences —
    /// including retractions (PODEM-style backtracks restoring an earlier
    /// snapshot), which exercise the dirty-cone seeding in both
    /// directions and the memo cache on revisited states.
    #[test]
    fn incremental_itr_matches_full_recompute(seed in 0u64..300, n_gates in 40usize..140, script in 0u64..u64::MAX) {
        use ssdm::sta::TimingView;
        let cfg = GeneratorConfig::iscas_like("inc", 10, 5, n_gates, seed);
        let circuit = generate(&cfg);
        let lib = library();
        let itr = Itr::new(&circuit, lib, StaConfig::default());
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
            let inc = itr.refine(&mut a_inc);
            let full = itr.refine_full(&mut a_full);
            match (inc, full) {
                (Ok(inc), Ok(full)) => {
                    for id in circuit.topo() {
                        prop_assert_eq!(inc.line(id), full.line(id), "net {}", circuit.gate(id).name);
                        prop_assert_eq!(inc.gate_inverting(id), full.gate_inverting(id));
                        for pin in 0..circuit.gate(id).fanin.len() {
                            for e in Edge::BOTH {
                                prop_assert_eq!(
                                    inc.delay_used(id, pin, e),
                                    full.delay_used(id, pin, e),
                                    "net {} pin {pin}", circuit.gate(id).name
                                );
                            }
                        }
                    }
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

    /// The parallel ATPG driver is bit-identical to the serial path for
    /// any worker count: per-site outcomes (including which sites were
    /// dropped, and by whom) and the campaign statistics do not depend on
    /// scheduling. Only the timing-engine diagnostics may differ.
    #[test]
    fn parallel_atpg_driver_matches_serial(seed in 0u64..100, jobs in 2usize..8) {
        use ssdm::atpg::{AtpgConfig, AtpgDriver};
        use ssdm::netlist::coupling_sites;
        let cfg = GeneratorConfig::iscas_like("par", 6, 3, 20, seed);
        let circuit = generate(&cfg);
        let lib = library();
        let config = AtpgConfig {
            backtrack_limit: 8,
            ..AtpgConfig::for_circuit(&circuit, lib).unwrap()
        };
        let sites = coupling_sites(&circuit, 5, seed ^ 0x5eed);
        let serial = AtpgDriver::new(&circuit, lib, config.clone())
            .run(&sites)
            .unwrap();
        let parallel = AtpgDriver::new(&circuit, lib, config)
            .with_jobs(jobs)
            .run(&sites)
            .unwrap();
        prop_assert_eq!(&serial.outcomes, &parallel.outcomes);
        prop_assert_eq!(serial.stats, parallel.stats);
    }

    /// Enabling `ssdm-obs` instrumentation never changes what a campaign
    /// decides: per-site outcomes and statistics are bit-identical with
    /// spans, histograms and counters on — and with another thread
    /// resetting the registry throughout the run — at 1, 2 and 8 workers.
    #[test]
    fn instrumentation_never_changes_campaign_outcomes(seed in 0u64..100) {
        use ssdm::atpg::{AtpgConfig, AtpgDriver};
        use ssdm::netlist::coupling_sites;
        let cfg = GeneratorConfig::iscas_like("obs", 6, 3, 20, seed);
        let circuit = generate(&cfg);
        let lib = library();
        let config = AtpgConfig {
            backtrack_limit: 8,
            ..AtpgConfig::for_circuit(&circuit, lib).unwrap()
        };
        let sites = coupling_sites(&circuit, 5, seed ^ 0x0b5);
        for jobs in [1usize, 2, 8] {
            let plain = AtpgDriver::new(&circuit, lib, config.clone())
                .with_jobs(jobs)
                .run(&sites)
                .unwrap();
            ssdm::obs::set_enabled(true);
            let instrumented = std::thread::scope(|scope| {
                let run = scope.spawn(|| {
                    AtpgDriver::new(&circuit, lib, config.clone())
                        .with_jobs(jobs)
                        .run(&sites)
                });
                while !run.is_finished() {
                    ssdm::obs::reset();
                    std::thread::yield_now();
                }
                run.join()
            });
            ssdm::obs::set_enabled(false);
            let instrumented = instrumented.expect("campaign panicked").unwrap();
            prop_assert_eq!(
                &plain.outcomes, &instrumented.outcomes,
                "outcomes diverged under instrumentation at jobs {}", jobs
            );
            prop_assert_eq!(
                plain.stats, instrumented.stats,
                "stats diverged under instrumentation at jobs {}", jobs
            );
        }
    }

    /// Assigning PI values one at a time only ever shrinks ITR windows.
    #[test]
    fn itr_shrinks_monotonically(bits1 in 0u8..32, bits2 in 0u8..32, order in 0usize..120) {
        let circuit = suite::c17();
        let lib = library();
        let itr = Itr::new(&circuit, lib, StaConfig::default());
        let mut a = Assignments::new(circuit.n_nets());
        let mut prev = itr.refine(&mut a).unwrap();
        // A permutation of the 5 PIs derived from `order`.
        let mut pis: Vec<_> = circuit.inputs().to_vec();
        pis.rotate_left(order % 5);
        if order % 2 == 1 {
            pis.reverse();
        }
        for (i, &pi) in pis.iter().enumerate() {
            let v = V2::new(
                Tri::from_bool(bits1 & (1 << i) != 0),
                Tri::from_bool(bits2 & (1 << i) != 0),
            );
            a.set(pi, v).unwrap();
            let next = itr.refine(&mut a).unwrap();
            for id in circuit.topo() {
                prop_assert!(
                    prev.line(id).refined_by_within(next.line(id), Time::from_ps(2.0)),
                    "net {} widened after assigning {}",
                    circuit.gate(id).name,
                    circuit.gate(pi).name
                );
            }
            prev = next;
        }
    }
}
