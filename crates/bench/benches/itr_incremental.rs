//! Single-assignment refinement: the incremental dirty-cone engine versus
//! a from-scratch recompute, on the largest suite circuit (`c7552s`).
//!
//! This is the workload PODEM generates: assign one primary input, refine,
//! retract it, refine again. The incremental engine re-evaluates only the
//! fan-out cone of that input (and serves revisited states from its memo
//! cache), while the baseline walks all ~3.5k gates every time. The bench
//! prints the measured speedup explicitly; the PR acceptance bar is ≥3×.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssdm_bench::fast_library;
use ssdm_cells::CellLibrary;
use ssdm_core::Edge;
use ssdm_itr::Itr;
use ssdm_logic::{imply, Assignments, TransState, V2};
use ssdm_netlist::{Circuit, NetId};
use ssdm_sta::{GateTable, Participation, ParticipationMap, StaConfig};

/// One PODEM-style step: assign `pi`, refine, retract, refine.
fn step_incremental(itr: &Itr<'_>, base: &Assignments, pi: NetId) {
    let mut a = base.clone();
    a.set(pi, V2::transition(Edge::Rise)).unwrap();
    itr.refine(&mut a).unwrap();
    itr.refine(&mut base.clone()).unwrap();
}

/// A from-scratch refinement with no engine state: implication, the
/// participation map, then a fresh gate table and one memo-free pass.
fn full_recompute(circuit: &Circuit, lib: &CellLibrary, a: &mut Assignments) {
    imply(circuit, a).unwrap();
    let participation = |s: TransState| match s {
        TransState::Yes => Participation::Must,
        TransState::Maybe => Participation::May,
        TransState::No => Participation::Cannot,
    };
    let part: ParticipationMap = circuit
        .topo()
        .map(|id| Edge::BOTH.map(|e| participation(a.state(id, e))))
        .collect();
    GateTable::new(circuit, lib, &StaConfig::default())
        .unwrap()
        .pass(&part)
        .unwrap();
}

fn step_full(circuit: &Circuit, lib: &CellLibrary, base: &Assignments, pi: NetId) {
    let mut a = base.clone();
    a.set(pi, V2::transition(Edge::Rise)).unwrap();
    full_recompute(circuit, lib, &mut a);
    full_recompute(circuit, lib, &mut base.clone());
}

/// Measures the mean time of `f` over enough iterations to be stable.
fn measure(mut f: impl FnMut()) -> f64 {
    // Warm up (primes the engine + memo the same way PODEM's long
    // searches do), then time a fixed batch.
    for _ in 0..3 {
        f();
    }
    let iters = 20;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn report_speedup(circuit: &Circuit, lib: &CellLibrary) {
    let base = Assignments::new(circuit.n_nets());
    let pi = circuit.inputs()[circuit.inputs().len() / 2];

    let itr = Itr::new(circuit, lib, StaConfig::default());
    itr.refine(&mut base.clone()).unwrap(); // prime the engine
    let t_inc = measure(|| step_incremental(&itr, &base, pi));
    let t_full = measure(|| step_full(circuit, lib, &base, pi));

    let speedup = t_full / t_inc;
    println!(
        "itr_incremental: {} single-PI refinement: full {:.3} ms, incremental {:.3} ms, speedup {speedup:.1}x",
        circuit.name(),
        t_full * 1e3,
        t_inc * 1e3,
    );
    assert!(
        speedup >= 3.0,
        "incremental refinement below the 3x acceptance bar: {speedup:.2}x"
    );

    // A short instrumented pass (after all timed sections) so the obs run
    // report documents the dirty-cone and memo behaviour of this workload.
    // The engine outlives the report, so the pass publishes its own share
    // of the engine's counters.
    ssdm_bench::instrumented_report("itr_incremental", || {
        let before = itr.stats();
        for _ in 0..5 {
            step_incremental(&itr, &base, pi);
        }
        (itr.stats() - before).publish();
    });
}

fn bench_incremental(c: &mut Criterion) {
    let lib = fast_library().expect("library");
    let circuit = ssdm_netlist::suite::synthetic("c7552s").expect("suite member");
    report_speedup(&circuit, &lib);

    let base = Assignments::new(circuit.n_nets());
    let pi = circuit.inputs()[circuit.inputs().len() / 2];
    let itr = Itr::new(&circuit, &lib, StaConfig::default());
    itr.refine(&mut base.clone()).unwrap();

    let mut group = c.benchmark_group("itr_single_assignment_c7552s");
    group.bench_with_input(BenchmarkId::from_parameter("incremental"), &pi, |b, &pi| {
        b.iter(|| step_incremental(&itr, &base, pi))
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("full_recompute"),
        &pi,
        |b, &pi| b.iter(|| step_full(&circuit, &lib, &base, pi)),
    );
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
