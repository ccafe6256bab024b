//! Static timing analysis across the benchmark suite: the Table 2 story.
//!
//! Runs STA twice on every circuit — with the conventional pin-to-pin
//! model and with the proposed simultaneous-switching model — and prints
//! the min/max delays at the primary outputs. Max delays agree; min
//! delays shrink under the proposed model, which is exactly the hold-time
//! margin conventional STA overestimates.
//!
//! ```text
//! cargo run --release --example sta_min_delay
//! ```

use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::netlist::suite;
use ssdm::sta::{ModelKind, Sta, StaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CharConfig::fast();
    let cache = CellLibrary::cache_path("target/ssdm-cache".as_ref(), &config);
    let lib = CellLibrary::load_or_characterize_standard(&cache, &config)?;

    println!(
        "{:<10}{:>8}{:>12}{:>12}{:>12}{:>10}",
        "circuit", "gates", "min(p2p)", "min(ours)", "max(both)", "ratio"
    );
    for circuit in suite::bench_suite() {
        let p2p = Sta::new(
            &circuit,
            &lib,
            StaConfig::default().with_model(ModelKind::PinToPin),
        )
        .run()?;
        let ours = Sta::new(&circuit, &lib, StaConfig::default()).run()?;
        let min_p2p = p2p.endpoint_min_delay(&circuit);
        let min_ours = ours.endpoint_min_delay(&circuit);
        let max = ours.endpoint_max_delay(&circuit);
        println!(
            "{:<10}{:>8}{:>10.3}ns{:>10.3}ns{:>10.3}ns{:>10.3}",
            circuit.name(),
            circuit.n_gates(),
            min_p2p.as_ns(),
            min_ours.as_ns(),
            max.as_ns(),
            min_p2p / min_ours,
        );
    }
    println!();
    println!("ratio > 1 means conventional STA overestimates the minimum delay");
    println!("(Table 2 of the paper reports ratios of 1.05–1.31).");
    Ok(())
}
