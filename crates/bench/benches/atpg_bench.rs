//! Per-fault ATPG cost with and without ITR pruning on c17.

use criterion::{criterion_group, criterion_main, Criterion};
use ssdm_atpg::{Atpg, AtpgConfig};
use ssdm_bench::fast_library;
use ssdm_netlist::{coupling_sites, suite};

fn bench_atpg(c: &mut Criterion) {
    let lib = fast_library().expect("library");
    let circuit = suite::c17();
    let sites = coupling_sites(&circuit, 4, 9);
    let mut group = c.benchmark_group("atpg_c17_4faults");
    group.sample_size(10);
    for use_itr in [true, false] {
        let atpg = Atpg::new(
            &circuit,
            &lib,
            AtpgConfig {
                use_itr,
                ..AtpgConfig::default()
            },
        );
        group.bench_function(if use_itr { "with_itr" } else { "without_itr" }, |b| {
            b.iter(|| {
                for &site in &sites {
                    atpg.run_site(site).unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_atpg);
criterion_main!(benches);
