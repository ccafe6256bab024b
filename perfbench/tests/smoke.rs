//! Smoke self-test: every workload at a tiny size, in both modes, and
//! every output check broken on purpose once.

use std::path::{Path, PathBuf};

use ssdm_perfbench::{run, Opts, RunReport, Scale, Workload};

fn tiny(workload: Workload) -> Opts {
    let mut opts = Opts::new(workload, 7);
    opts.scale = Scale::Tiny;
    opts.seconds = 0.01;
    opts.out_dir = None;
    opts
}

/// The metric names one section of `BENCHMARK.json` lists, in order.
fn listed_metrics(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

fn names(report: &RunReport) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_clean(report: &RunReport) {
    assert_eq!(report.failed, 0, "failures: {:#?}", report.notes);
    assert!(report.attempted > 0);
    assert!(report.result_line().starts_with("{\"correct\": true,"));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let listed = listed_metrics("end_to_end");
    for w in Workload::ALL {
        let report = run(&tiny(w));
        assert_clean(&report);
        let mut got = names(&report);
        let mut want = listed.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{}", w.name());
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn every_traced_workload_reports_every_layer_metric() {
    let listed = listed_metrics("per_layer");
    for w in Workload::ALL {
        let report = run(&Opts {
            trace: true,
            ..tiny(w)
        });
        assert_clean(&report);
        let mut got = names(&report);
        let mut want = listed.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{}", w.name());
    }
}

#[test]
fn each_broken_check_fails_the_run() {
    let checks = [
        (Workload::StaScale, false, "library.digest"),
        (Workload::StaScale, false, "char.cell"),
        (Workload::StaScale, false, "sta.repeat"),
        (Workload::StaScale, false, "sta.parallel"),
        (Workload::StaScale, false, "itr.retract"),
        (Workload::StaScale, false, "itr.fresh"),
        (Workload::StaScale, false, "itr.base"),
        (Workload::StaScale, false, "itr.repeat"),
        (Workload::AtpgSec7, false, "atpg.repeat"),
        (Workload::AtpgSec7, false, "atpg.jobs"),
        (Workload::AtpgSec7, true, "itr.imply"),
    ];
    for (w, trace, check) in checks {
        let report = run(&Opts {
            trace,
            tamper: Some(check.to_owned()),
            ..tiny(w)
        });
        assert!(report.failed > 0, "breaking {check} went unnoticed");
        assert!(
            report.notes.iter().any(|n| n.contains(check)),
            "{check}: {:?}",
            report.notes
        );
        assert!(report.result_line().starts_with("{\"correct\": false,"));
    }
}

#[test]
fn a_corrupted_library_copy_is_caught() {
    let original = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/library-fast.txt");
    let text = std::fs::read_to_string(&original).expect("library copy");
    // Change one digit inside the INV cell's first pin record; the text
    // still parses, so only the checks can notice.
    let pin = text.find("cell INV ").expect("INV cell")
        + text[text.find("cell INV ").unwrap()..]
            .find("\npin ")
            .expect("INV pin record");
    let digit = pin
        + text[pin..]
            .find(|c: char| c.is_ascii_digit() && c != '0')
            .expect("digit");
    let mut corrupted = text.clone();
    let old = corrupted.as_bytes()[digit];
    corrupted.replace_range(digit..=digit, if old == b'1' { "2" } else { "1" });
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-library");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let library = dir.join("library-fast.txt");
    std::fs::write(&library, corrupted).expect("write library");
    std::fs::copy(
        original.with_extension("digest"),
        library.with_extension("digest"),
    )
    .expect("copy digest");
    let report = run(&Opts {
        library,
        ..tiny(Workload::CharFast)
    });
    for check in ["library.digest", "char.cell"] {
        assert!(
            report.notes.iter().any(|n| n.contains(check)),
            "{check} missed the corruption: {:?}",
            report.notes
        );
    }
}
