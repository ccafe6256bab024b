//! Parallel fault-level ATPG with fault dropping versus the serial
//! no-dropping baseline.
//!
//! The workload is a coupled bus — `K` parallel inverter chains with a
//! crosstalk site between adjacent chains at every stage — the dense
//! simultaneous-switching structure the paper targets. One generated
//! two-pattern test toggles a whole chain pair, so replay-based dropping
//! retires most of that pair's remaining sites without ever searching
//! them.
//!
//! Three configurations are timed and printed explicitly:
//!
//! 1. `Atpg::run_sites` — serial, every site searched (no dropping);
//! 2. `AtpgDriver` with `jobs = 1` — serial driver with dropping;
//! 3. `AtpgDriver` with `jobs = 8` — speculative parallel phase plus the
//!    deterministic resolve pass.
//!
//! The dropping speedup (1 vs 2) is machine-independent; the worker
//! speedup (2 vs 3) needs real cores, so its ≥3× acceptance assert is
//! gated on `available_parallelism() >= 4`. A summary baseline is written
//! to `BENCH_atpg.json` at the workspace root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssdm_atpg::{Atpg, AtpgConfig, AtpgDriver, CampaignResult};
use ssdm_bench::fast_library;
use ssdm_cells::CellLibrary;
use ssdm_netlist::{Circuit, CircuitBuilder, CrosstalkSite, GateType};

/// Chains on the bus (`K - 1` coupled pairs).
const K: usize = 9;
/// Inverter stages per chain (sites per coupled pair).
const DEPTH: usize = 8;

/// Builds `K` parallel inverter chains of `DEPTH` stages, each driven by
/// its own primary input, with a crosstalk site between adjacent chains
/// at every stage (victim on chain `i`, aggressor on chain `i + 1`).
fn coupled_bus() -> (Circuit, Vec<CrosstalkSite>) {
    let mut b = CircuitBuilder::new("bus9x8");
    for chain in 0..K {
        b.input(format!("i{chain}"));
        let mut prev = format!("i{chain}");
        for stage in 0..DEPTH {
            let name = format!("n{chain}_{stage}");
            b.gate(&name, GateType::Not, &[&prev]).expect("gate");
            prev = name;
        }
        b.output(&prev);
    }
    let circuit = b.build().expect("bus circuit");
    let mut sites = Vec::new();
    for chain in 0..K - 1 {
        for stage in 0..DEPTH {
            // Stage nets of adjacent chains run side by side on the bus.
            let victim = if stage == 0 {
                circuit.find(&format!("i{chain}")).expect("victim")
            } else {
                circuit
                    .find(&format!("n{chain}_{}", stage - 1))
                    .expect("victim")
            };
            let aggressor = if stage == 0 {
                circuit.find(&format!("i{}", chain + 1)).expect("aggressor")
            } else {
                circuit
                    .find(&format!("n{}_{}", chain + 1, stage - 1))
                    .expect("aggressor")
            };
            sites.push(CrosstalkSite { victim, aggressor });
        }
    }
    (circuit, sites)
}

/// Mean wall-clock seconds of `f` over a fixed batch.
fn measure(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let iters = 5;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn run_driver(
    circuit: &Circuit,
    lib: &CellLibrary,
    config: &AtpgConfig,
    sites: &[CrosstalkSite],
    jobs: usize,
) -> CampaignResult {
    AtpgDriver::new(circuit, lib, config.clone())
        .with_jobs(jobs)
        .run(sites)
        .expect("campaign")
}

fn report_speedup(circuit: &Circuit, lib: &CellLibrary, sites: &[CrosstalkSite]) {
    let config = AtpgConfig::for_circuit(circuit, lib).expect("config");

    let serial = run_driver(circuit, lib, &config, sites, 1);
    let parallel = run_driver(circuit, lib, &config, sites, 8);
    assert_eq!(
        serial.outcomes, parallel.outcomes,
        "parallel campaign diverged from serial"
    );
    assert!(
        parallel.drop_rate() > 0.5,
        "coupled bus should drop most sites, got {:.0}%",
        parallel.drop_rate() * 100.0
    );

    let t_nodrop = measure(|| {
        Atpg::new(circuit, lib, config.clone())
            .run_sites(sites)
            .expect("baseline");
    });
    let t_serial = measure(|| {
        run_driver(circuit, lib, &config, sites, 1);
    });
    let t_parallel = measure(|| {
        run_driver(circuit, lib, &config, sites, 8);
    });

    // Two orthogonal effects: dropping (no-drop vs driver, both serial —
    // machine-independent) and workers (driver x1 vs x8 — needs cores).
    let drop_speedup = t_nodrop / t_serial;
    let worker_speedup = t_serial / t_parallel;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "atpg_parallel: {} ({} sites, drop rate {:.0}%): no-drop serial {:.2} ms, \
         driver x1 {:.2} ms, driver x8 {:.2} ms → dropping {drop_speedup:.1}x, \
         workers {worker_speedup:.1}x ({cores} core(s))",
        circuit.name(),
        sites.len(),
        parallel.drop_rate() * 100.0,
        t_nodrop * 1e3,
        t_serial * 1e3,
        t_parallel * 1e3,
    );

    write_baseline(
        circuit,
        sites.len(),
        &parallel,
        t_nodrop,
        t_serial,
        t_parallel,
        cores,
    );

    // One more 8-worker campaign with instrumentation on; the obs run
    // report lands next to the timing baseline for the CI artifact. Runs
    // after every timed section so those keep the disabled fast path.
    let instrumented = ssdm_bench::instrumented_report("atpg_parallel", || {
        run_driver(circuit, lib, &config, sites, 8)
    });
    assert_eq!(
        instrumented.outcomes, parallel.outcomes,
        "instrumentation changed campaign outcomes"
    );

    // The worker-scaling bar needs real cores; the dropping payoff is
    // architectural and holds on any machine.
    assert!(
        drop_speedup >= 3.0,
        "fault dropping below the 3x acceptance bar: {drop_speedup:.2}x"
    );
    if cores >= 4 {
        assert!(
            worker_speedup >= 3.0,
            "8-worker driver below the 3x acceptance bar on {cores} cores: {worker_speedup:.2}x"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn write_baseline(
    circuit: &Circuit,
    n_sites: usize,
    result: &CampaignResult,
    t_nodrop: f64,
    t_serial: f64,
    t_parallel: f64,
    cores: usize,
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_atpg.json");
    let json = format!(
        "{{\n  \"bench\": \"atpg_parallel\",\n  \"circuit\": \"{}\",\n  \"sites\": {},\n  \
         \"detected\": {},\n  \"dropped\": {},\n  \"undetectable\": {},\n  \"aborted\": {},\n  \
         \"drop_rate\": {:.4},\n  \"nodrop_serial_ms\": {:.3},\n  \"driver_1_worker_ms\": {:.3},\n  \
         \"driver_8_workers_ms\": {:.3},\n  \"dropping_speedup\": {:.2},\n  \
         \"worker_speedup\": {:.2},\n  \"cores\": {}\n}}\n",
        circuit.name(),
        n_sites,
        result.stats.detected,
        result.stats.dropped,
        result.stats.undetectable,
        result.stats.aborted,
        result.drop_rate(),
        t_nodrop * 1e3,
        t_serial * 1e3,
        t_parallel * 1e3,
        t_nodrop / t_serial,
        t_serial / t_parallel,
        cores,
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("atpg_parallel: could not write {path}: {e}");
    }
}

fn bench_atpg_parallel(c: &mut Criterion) {
    let lib = fast_library().expect("library");
    let (circuit, sites) = coupled_bus();
    report_speedup(&circuit, &lib, &sites);

    let config = AtpgConfig::for_circuit(&circuit, &lib).expect("config");
    let mut group = c.benchmark_group("atpg_campaign_bus9x8");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("no_drop_serial"),
        &(),
        |b, ()| {
            b.iter(|| {
                Atpg::new(&circuit, &lib, config.clone())
                    .run_sites(&sites)
                    .expect("baseline")
            })
        },
    );
    for jobs in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("driver_x{jobs}")),
            &jobs,
            |b, &jobs| b.iter(|| run_driver(&circuit, &lib, &config, &sites, jobs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_atpg_parallel);
criterion_main!(benches);
