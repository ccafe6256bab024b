//! End-to-end integration tests spanning every crate: characterize →
//! model → STA → ITR → ATPG, on real and synthetic circuits.

use std::sync::OnceLock;

use ssdm::atpg::{Atpg, AtpgConfig, FaultOutcome};
use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::itr::Itr;
use ssdm::logic::{Assignments, V2};
use ssdm::models::{DelayModel, PinToPinModel, ProposedModel, SpiceReference};
use ssdm::netlist::{coupling_sites, parse_bench, suite, write_bench};
use ssdm::sta::{find_violations, required_times, ModelKind, Sta, StaConfig};
use ssdm::timing::{Bound, Edge, Time, Transition};

fn library() -> &'static CellLibrary {
    static LIB: OnceLock<CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        CellLibrary::characterize_standard(&CharConfig::fast()).expect("characterization")
    })
}

#[test]
fn library_round_trips_through_text() {
    let lib = library();
    let text = lib.to_text();
    let back = CellLibrary::from_text(&text).expect("parse back");
    assert_eq!(*lib, back);
    // Queries agree after the round trip.
    let a = lib.require("NAND3").unwrap();
    let b = back.require("NAND3").unwrap();
    let t = Time::from_ns(0.42);
    assert_eq!(
        a.pin_delay(Edge::Rise, 2, t, a.ref_load()).unwrap(),
        b.pin_delay(Edge::Rise, 2, t, b.ref_load()).unwrap()
    );
}

#[test]
fn proposed_model_tracks_spice_across_cells_and_stimuli() {
    // The paper's central accuracy claim, across the whole library.
    let lib = library();
    let reference = SpiceReference::default();
    let proposed = ProposedModel::new();
    let mut checked = 0;
    for name in ["NAND2", "NAND3", "NOR2"] {
        let cell = lib.require(name).unwrap();
        let in_edge = cell.ctrl_out_edge().inverted();
        let load = cell.ref_load();
        for (t0, t1, skew) in [
            (0.3, 0.3, 0.0),
            (0.3, 1.2, 0.0),
            (0.8, 0.4, 0.2),
            (0.5, 0.5, -0.25),
            (0.5, 0.5, 1.8),
        ] {
            let stim = [
                (
                    0usize,
                    Transition::new(in_edge, Time::from_ns(2.0), Time::from_ns(t0)),
                ),
                (
                    1usize,
                    Transition::new(in_edge, Time::from_ns(2.0 + skew), Time::from_ns(t1)),
                ),
            ];
            let r = reference.response(cell, &stim, load).unwrap();
            let p = proposed.response(cell, &stim, load).unwrap();
            let err = (r.arrival - p.arrival).abs();
            assert!(
                err < Time::from_ns(0.05),
                "{name} (T={t0}/{t1}, δ={skew}): spice {} vs proposed {}",
                r.arrival,
                p.arrival
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 15);
}

#[test]
fn table2_shape_holds_across_the_suite() {
    let lib = library();
    let mut strict_reductions = 0;
    let mut big_circuits = 0;
    for circuit in suite::bench_suite() {
        let ours = Sta::new(&circuit, lib, StaConfig::default()).run().unwrap();
        let p2p = Sta::new(
            &circuit,
            lib,
            StaConfig::default().with_model(ModelKind::PinToPin),
        )
        .run()
        .unwrap();
        let (min_ours, min_p2p) = (
            ours.endpoint_min_delay(&circuit),
            p2p.endpoint_min_delay(&circuit),
        );
        assert!(
            min_ours <= min_p2p + Time::from_ns(1e-9),
            "{}: proposed min {} vs p2p {}",
            circuit.name(),
            min_ours,
            min_p2p
        );
        let (max_ours, max_p2p) = (
            ours.endpoint_max_delay(&circuit),
            p2p.endpoint_max_delay(&circuit),
        );
        // The simultaneous-switching model leaves the max-delay corner
        // essentially untouched (a sharper min transition time can shift
        // it by a sliver through the T-window).
        assert!(
            (max_ours - max_p2p).abs() < max_p2p * 1e-3,
            "{}: max delays diverge: {max_ours} vs {max_p2p}",
            circuit.name()
        );
        if circuit.n_gates() > 100 {
            big_circuits += 1;
            if min_ours < min_p2p {
                strict_reductions += 1;
            }
        }
    }
    // The speed-up must actually bite on most large circuits (the paper:
    // 6 of 9 benchmarks affected).
    assert!(
        strict_reductions * 2 >= big_circuits,
        "min-delay reduction on only {strict_reductions}/{big_circuits} large circuits"
    );
}

#[test]
fn itr_refines_sta_on_a_synthetic_circuit() {
    let lib = library();
    let circuit = suite::synthetic("c880s").unwrap();
    let sta = Sta::new(&circuit, lib, StaConfig::default()).run().unwrap();
    let itr = Itr::new(&circuit, lib, StaConfig::default());
    let mut a = Assignments::new(circuit.n_nets());
    // Pin a quarter of the PIs to steady values.
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        if i % 4 == 0 {
            a.set(pi, V2::steady(i % 8 == 0)).unwrap();
        }
    }
    let refined = itr.refine(&mut a).unwrap();
    for id in circuit.topo() {
        assert!(
            sta.line(id)
                .refined_by_within(refined.line(id), Time::from_ps(2.0)),
            "net {} widened under refinement",
            circuit.gate(id).name
        );
    }
}

#[test]
fn required_times_and_violations_compose_with_itr() {
    let lib = library();
    let circuit = suite::c17();
    let itr = Itr::new(&circuit, lib, StaConfig::default());
    let mut a = Assignments::new(circuit.n_nets());
    for &pi in circuit.inputs() {
        a.set(pi, V2::transition(Edge::Fall)).unwrap();
    }
    let refined = itr.refine(&mut a).unwrap();
    let clock = Bound::new(Time::ZERO, Time::from_ns(5.0)).unwrap();
    let q = required_times(&circuit, &refined, [clock; 2]);
    assert_eq!(q.len(), circuit.n_nets());
    assert!(find_violations(&circuit, &refined, [clock; 2]).is_empty());
}

#[test]
fn atpg_with_itr_meets_or_beats_blind_search_on_c17() {
    let lib = library();
    let circuit = suite::c17();
    let sites = coupling_sites(&circuit, 10, 77);
    let with = Atpg::new(
        &circuit,
        lib,
        AtpgConfig {
            use_itr: true,
            ..AtpgConfig::default()
        },
    );
    let without = Atpg::new(
        &circuit,
        lib,
        AtpgConfig {
            use_itr: false,
            ..AtpgConfig::default()
        },
    );
    let sw = with.run_sites(&sites).unwrap();
    let so = without.run_sites(&sites).unwrap();
    assert!(
        sw.efficiency() >= so.efficiency() - 1e-12,
        "ITR efficiency {} < blind {}",
        sw.efficiency(),
        so.efficiency()
    );
    assert_eq!(sw.total(), sites.len());
}

#[test]
fn detected_tests_excite_opposing_aligned_transitions() {
    let lib = library();
    let circuit = suite::c17();
    let atpg = Atpg::new(&circuit, lib, AtpgConfig::default());
    let mut found = 0;
    for site in coupling_sites(&circuit, 12, 5) {
        if let FaultOutcome::Detected(test) = atpg.run_site(site).unwrap() {
            found += 1;
            // Re-simulate the returned test independently.
            let mut a = Assignments::new(circuit.n_nets());
            for (idx, &pi) in circuit.inputs().iter().enumerate() {
                a.set(pi, V2::new(test.v1[idx], test.v2[idx])).unwrap();
            }
            ssdm::logic::imply(&circuit, &mut a).unwrap();
            let v = a.get(site.victim);
            let g = a.get(site.aggressor);
            assert!(v.is_fully_specified() && g.is_fully_specified());
            assert_ne!(v.first, v.second, "victim must transition");
            assert_ne!(g.first, g.second, "aggressor must transition");
            assert_ne!(v.second, g.second, "transitions must oppose");
        }
    }
    assert!(found > 0, "campaign found no tests at all");
}

#[test]
fn bench_writer_round_trips_synthetic_circuits() {
    let circuit = suite::synthetic("c1355s").unwrap();
    let text = write_bench(&circuit);
    let back = parse_bench("c1355s", &text).unwrap();
    assert_eq!(back.n_gates(), circuit.n_gates());
    // STA agrees on the round-tripped netlist.
    let lib = library();
    let a = Sta::new(&circuit, lib, StaConfig::default()).run().unwrap();
    let b = Sta::new(&back, lib, StaConfig::default()).run().unwrap();
    assert!(
        (a.endpoint_max_delay(&circuit) - b.endpoint_max_delay(&back)).abs() < Time::from_ns(1e-9)
    );
}

#[test]
fn baselines_disagree_with_proposed_exactly_where_the_paper_says() {
    let lib = library();
    let cell = lib.require("NAND2").unwrap();
    let load = cell.ref_load();
    let pin2pin = PinToPinModel::new();
    let proposed = ProposedModel::new();
    // Zero skew: proposed is faster than pin-to-pin (speed-up captured).
    let stim = [
        (
            0usize,
            Transition::new(Edge::Fall, Time::from_ns(1.0), Time::from_ns(0.5)),
        ),
        (
            1usize,
            Transition::new(Edge::Fall, Time::from_ns(1.0), Time::from_ns(0.5)),
        ),
    ];
    let p = proposed.response(cell, &stim, load).unwrap();
    let b = pin2pin.response(cell, &stim, load).unwrap();
    assert!(p.arrival < b.arrival);
    // Single switch: identical.
    let single = [(
        0usize,
        Transition::new(Edge::Fall, Time::from_ns(1.0), Time::from_ns(0.5)),
    )];
    let p = proposed.response(cell, &single, load).unwrap();
    let b = pin2pin.response(cell, &single, load).unwrap();
    assert_eq!(p.arrival, b.arrival);
}

/// A real instrumented campaign produces a well-formed Chrome trace
/// (balanced B/E events, monotone timestamps per thread) and populates
/// the campaign counters. The golden-file tests in `ssdm-obs` pin the
/// renderers on synthetic input; this covers live multi-threaded capture.
#[test]
fn instrumented_campaign_yields_valid_trace_and_metrics() {
    let lib = library();
    let circuit = suite::c17();
    let sites = coupling_sites(&circuit, 8, 99);
    let config = ssdm::atpg::AtpgConfig::for_circuit(&circuit, lib).unwrap();
    ssdm::obs::set_enabled(true);
    let result = ssdm::atpg::AtpgDriver::new(&circuit, lib, config)
        .with_jobs(2)
        .run(&sites);
    ssdm::obs::set_enabled(false);
    let result = result.unwrap();
    assert_eq!(result.outcomes.len(), sites.len());

    let report = ssdm::obs::capture();
    let detected = report.counters.get("atpg.campaign.detected").copied();
    assert!(
        detected >= Some(result.stats.detected as u64),
        "campaign counter missing or behind: {detected:?}"
    );
    assert!(report.counters.contains_key("sta.incremental.full_passes"));
    assert!(!report.threads.is_empty());

    // Minimal single-line-event parse: no JSON dependency needed.
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\": ");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    let trace = report.to_chrome_trace();
    let mut depth: std::collections::BTreeMap<String, i64> = Default::default();
    let mut last_ts: std::collections::BTreeMap<String, f64> = Default::default();
    for line in trace.lines() {
        let Some(ph) = field(line, "ph") else {
            continue;
        };
        if ph == "M" {
            continue;
        }
        let tid = field(line, "tid").unwrap();
        let ts: f64 = field(line, "ts").unwrap().parse().unwrap();
        let prev = last_ts.insert(tid.clone(), ts).unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "timestamps regressed on tid {tid}");
        let d = depth.entry(tid.clone()).or_insert(0);
        *d += if ph == "B" { 1 } else { -1 };
        assert!(*d >= 0, "E before B on tid {tid}");
    }
    assert!(!depth.is_empty(), "trace recorded no duration events");
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "unbalanced events on tid {tid}");
    }
}

/// End-to-end runs of the provenance/observability CLI commands.
mod cli {
    use std::path::Path;
    use std::process::{Command, Output};

    /// Runs `ssdm-cli` from the workspace root (so the library cache under
    /// `target/ssdm-cache` is shared with every other invocation).
    fn cli(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_ssdm-cli"))
            .args(args)
            .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
            .output()
            .expect("spawn ssdm-cli")
    }

    #[test]
    fn explain_reconstructs_the_critical_path() {
        let out = cli(&["explain", "c17"]);
        assert!(
            out.status.success(),
            "explain failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("Critical path — c17"), "{text}");
        assert!(text.contains("(launch)"), "{text}");
        // Every stage names a V-shape term; with all-unknown inputs the
        // late corner is the single-switch arm.
        assert!(text.contains("DR"), "{text}");
        // The command self-checks that staged delays sum to the reported
        // arrival and exits non-zero otherwise, so reaching this line
        // means the reconstruction was exact.
        assert!(text.contains("reported worst arrival"), "{text}");
    }

    #[test]
    fn obs_diff_gates_on_counter_regressions() {
        let dir = std::env::temp_dir();
        let base = dir.join("ssdm_obs_diff_base.json");
        let cur = dir.join("ssdm_obs_diff_cur.json");
        let report = |backtracks: u64| {
            format!(
                r#"{{"schema": "ssdm-obs/2", "counters": {{"atpg.podem.backtracks": {backtracks}}}, "histograms": {{}}, "spans": {{}}, "threads": []}}"#
            )
        };
        std::fs::write(&base, report(100)).unwrap();
        std::fs::write(&cur, report(200)).unwrap();
        let base = base.to_str().unwrap();
        let cur = cur.to_str().unwrap();

        // A report diffed against itself is always clean.
        let out = cli(&["obs-diff", base, base]);
        assert!(
            out.status.success(),
            "self-diff regressed: {}",
            String::from_utf8_lossy(&out.stdout)
        );

        // A doubled counter exceeds the default ±50% threshold: exit 1
        // and the offending metric is named.
        let out = cli(&["obs-diff", base, cur]);
        assert_eq!(out.status.code(), Some(1));
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("atpg.podem.backtracks"), "{text}");

        // The same change passes once the threshold is raised above 2x.
        let out = cli(&["obs-diff", base, cur, "--default-threshold", "1.5"]);
        assert!(
            out.status.success(),
            "raised threshold still failed: {}",
            String::from_utf8_lossy(&out.stdout)
        );

        // ...but a drop regresses when the counter is higher-better and
        // the direction flips (200 -> 100 is exactly -50%, so gate it
        // with a threshold strictly below the change).
        let out = cli(&[
            "obs-diff",
            cur,
            base,
            "--higher-better",
            "atpg.podem.backtracks",
            "--default-threshold",
            "0.4",
        ]);
        assert_eq!(out.status.code(), Some(1));
    }

    #[test]
    fn obs_diff_fail_on_missing_gates_on_vanished_metrics() {
        let dir = std::env::temp_dir();
        let base = dir.join("ssdm_obs_diff_missing_base.json");
        let cur = dir.join("ssdm_obs_diff_missing_cur.json");
        // The baseline has a counter the candidate lost entirely — the
        // shape of a span or counter silently compiled out.
        std::fs::write(
            &base,
            r#"{"schema": "ssdm-obs/2", "counters": {"atpg.podem.backtracks": 100, "atpg.sites.dropped": 40}, "histograms": {}, "spans": {}, "threads": []}"#,
        )
        .unwrap();
        std::fs::write(
            &cur,
            r#"{"schema": "ssdm-obs/2", "counters": {"atpg.podem.backtracks": 100}, "histograms": {}, "spans": {}, "threads": []}"#,
        )
        .unwrap();
        let base = base.to_str().unwrap();
        let cur = cur.to_str().unwrap();

        // Without the flag the vanished counter is reported but not
        // gating: exit 0.
        let out = cli(&["obs-diff", base, cur]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "missing metric gated without --fail-on-missing: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("only-in-baseline"), "{text}");

        // With it, the same diff exits 1 and names the count.
        let out = cli(&["obs-diff", base, cur, "--fail-on-missing"]);
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("absent from the current report"), "{err}");

        // Metrics only in the *candidate* (new instrumentation) never
        // trip the flag.
        let out = cli(&["obs-diff", cur, base, "--fail-on-missing"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "new metric tripped --fail-on-missing: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
