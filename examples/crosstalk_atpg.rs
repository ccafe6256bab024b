//! Crosstalk-delay-fault test generation with and without ITR pruning
//! (the Section 7 application).
//!
//! ```text
//! cargo run --release --example crosstalk_atpg
//! ```

use ssdm::atpg::{Atpg, AtpgConfig, FaultOutcome};
use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::logic::Tri;
use ssdm::netlist::{coupling_sites, suite};

fn render(frame: &[Tri]) -> String {
    frame
        .iter()
        .map(|t| match t {
            Tri::Zero => '0',
            Tri::One => '1',
            Tri::X => 'x',
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CharConfig::fast();
    let cache = CellLibrary::cache_path("target/ssdm-cache".as_ref(), &config);
    let lib = CellLibrary::load_or_characterize_standard(&cache, &config)?;
    let c17 = suite::c17();
    let sites = coupling_sites(&c17, 8, 2001);

    for use_itr in [false, true] {
        let atpg = Atpg::new(
            &c17,
            &lib,
            AtpgConfig {
                use_itr,
                ..AtpgConfig::default()
            },
        );
        let mut stats = ssdm::atpg::AtpgStats::default();
        println!(
            "--- c17, {} ---",
            if use_itr {
                "with ITR pruning"
            } else {
                "timing checked only at the end"
            }
        );
        for &site in &sites {
            let a = c17.gate(site.aggressor).name.clone();
            let v = c17.gate(site.victim).name.clone();
            match atpg.run_site(site)? {
                FaultOutcome::Detected(test) => {
                    stats.detected += 1;
                    println!(
                        "  ({a} ↯ {v}): detected, test v1={} v2={}",
                        render(&test.v1),
                        render(&test.v2)
                    );
                }
                FaultOutcome::Undetectable => {
                    stats.undetectable += 1;
                    println!("  ({a} ↯ {v}): proven undetectable");
                }
                FaultOutcome::Aborted => {
                    stats.aborted += 1;
                    println!("  ({a} ↯ {v}): aborted (budget)");
                }
            }
        }
        println!(
            "  efficiency: {:.1}%  (detected {}, undetectable {}, aborted {})",
            stats.efficiency() * 100.0,
            stats.detected,
            stats.undetectable,
            stats.aborted
        );
        println!();
    }
    Ok(())
}
