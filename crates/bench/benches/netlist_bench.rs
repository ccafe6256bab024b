//! Cost of circuit construction: `generate` of `sta_scale`'s 100k-gate
//! circuit, and `parse_bench` of `c7552s` written out as `.bench` text.
//! Both end in `CircuitBuilder::build`; no cell library and no timing.

use criterion::{criterion_group, Criterion};
use ssdm_netlist::{generate, parse_bench, suite, write_bench, GeneratorConfig};

/// The `sta_scale` circuit: 2k inputs, 1k outputs, 100k gates.
fn scale_config() -> GeneratorConfig {
    GeneratorConfig::iscas_like("scale", 2_000, 1_000, 100_000, 100_003)
}

fn bench_netlist(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist");
    let cfg = scale_config();
    group.bench_function("generate/100k", |b| b.iter(|| generate(&cfg)));
    let text = write_bench(&suite::synthetic("c7552s").expect("suite member"));
    group.bench_function("parse_bench/c7552s", |b| {
        b.iter(|| parse_bench("c7552s", &text).expect("written text parses"))
    });
    group.finish();
}

criterion_group!(benches, bench_netlist);

fn main() {
    // `cargo bench -- --test` (CI's bench smoke) skips measurement, so
    // build each circuit once there and check its size.
    if std::env::args().any(|a| a == "--test") {
        assert_eq!(generate(&scale_config()).n_gates(), 100_000);
        let c7552s = suite::synthetic("c7552s").expect("suite member");
        let parsed = parse_bench("c7552s", &write_bench(&c7552s)).expect("written text parses");
        assert_eq!(parsed, c7552s);
        return;
    }
    benches();
}
