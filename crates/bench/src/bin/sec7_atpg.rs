//! **Section 7**: crosstalk-delay-fault ATPG efficiency with and without
//! ITR pruning.
//!
//! The paper reports that ITR raised efficiency (the fraction of targeted
//! faults detected or proven undetectable within budget) from 39.63 % to
//! 82.75 %. We run identical fault campaigns with timing pruning enabled
//! and disabled under a fixed backtrack budget; the shape to reproduce is
//! a large efficiency gap in ITR's favor.

use ssdm_atpg::{AtpgConfig, AtpgDriver, AtpgStats};
use ssdm_bench::full_library;
use ssdm_netlist::{coupling_sites, suite, Circuit};

fn campaign(
    circuit: &Circuit,
    lib: &ssdm_cells::CellLibrary,
    sites: &[ssdm_netlist::CrosstalkSite],
    use_itr: bool,
    backtrack_limit: usize,
) -> Result<AtpgStats, Box<dyn std::error::Error>> {
    // Clock derived from the circuit's own STA max delay so slowed
    // victims can miss setup.
    let cfg = AtpgConfig {
        use_itr,
        backtrack_limit,
        ..AtpgConfig::for_circuit(circuit, lib)?
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = AtpgDriver::new(circuit, lib, cfg)
        .with_jobs(jobs)
        .run(sites)?;
    Ok(result.stats)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Section 7 — crosstalk ATPG efficiency, ITR on vs off");
    println!();
    println!(
        "{:<10}{:>7}{:>22}{:>22}",
        "circuit", "faults", "efficiency (no ITR)", "efficiency (ITR)"
    );
    // The whole experiment runs instrumented, library load included (a
    // cold run's report shows characterization); the obs run report
    // (span tree, counters, histograms) lands next to `BENCH_atpg.json`.
    let (agg_with, agg_without) = ssdm_bench::instrumented_report("sec7_atpg", || {
        let lib = full_library()?;
        let mut agg_with = AtpgStats::default();
        let mut agg_without = AtpgStats::default();
        for (name, n_sites, backtracks) in [("c17", 20, 12), ("c880s", 30, 12), ("c1355s", 30, 12)]
        {
            let circuit = if name == "c17" {
                suite::c17()
            } else {
                suite::synthetic(name).expect("suite member")
            };
            let sites = coupling_sites(&circuit, n_sites, 7001);
            let with = campaign(&circuit, &lib, &sites, true, backtracks)?;
            let without = campaign(&circuit, &lib, &sites, false, backtracks)?;
            println!(
                "{:<10}{:>7}{:>20.1}%{:>20.1}%   (aborted {} → {})",
                name,
                sites.len(),
                without.efficiency() * 100.0,
                with.efficiency() * 100.0,
                without.aborted,
                with.aborted
            );
            agg_with.detected += with.detected;
            agg_with.undetectable += with.undetectable;
            agg_with.aborted += with.aborted;
            agg_without.detected += without.detected;
            agg_without.undetectable += without.undetectable;
            agg_without.aborted += without.aborted;
        }
        Ok::<_, Box<dyn std::error::Error>>((agg_with, agg_without))
    })?;
    println!();
    println!(
        "overall: {:.2}% → {:.2}%   (paper: 39.63% → 82.75%)",
        agg_without.efficiency() * 100.0,
        agg_with.efficiency() * 100.0
    );
    Ok(())
}
