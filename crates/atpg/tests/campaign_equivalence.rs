//! A driver campaign, whose search engines share the campaign's root
//! timing, equals a loop of `Atpg::run_site` on one standalone generator,
//! which builds its own: outcomes, statistics and PODEM backtracks.
//!
//! Backtracks are read from the process-global `ssdm-obs` registry, so
//! this binary holds a single test.

use ssdm_atpg::{Atpg, AtpgConfig, AtpgDriver, AtpgStats, FaultOutcome, SiteOutcome};
use ssdm_cells::CellLibrary;
use ssdm_netlist::{coupling_sites, suite, Circuit};

fn library() -> CellLibrary {
    CellLibrary::from_text(include_str!("../../../perfbench/data/library-fast.txt"))
        .expect("pinned library parses")
}

/// Runs `f` and returns its result with the registry counter `name`'s
/// growth over the call.
fn counting<T>(name: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let before = ssdm_obs::counter_total(name);
    let out = f();
    (out, ssdm_obs::counter_total(name) - before)
}

#[test]
fn driver_campaign_equals_a_run_site_loop() {
    let lib = library();
    let circuits: Vec<Circuit> = std::iter::once(suite::c17())
        .chain(["c880s", "c1355s", "c3540s", "c7552s"].map(|n| suite::synthetic(n).unwrap()))
        .collect();
    for c in &circuits {
        let sites = coupling_sites(c, 40, 7001);
        let config = AtpgConfig::for_circuit(c, &lib).unwrap();
        for jobs in [1, 2] {
            let (campaign, backtracks) = counting("atpg.podem.backtracks", || {
                AtpgDriver::new(c, &lib, config.clone())
                    .with_jobs(jobs)
                    .run(&sites)
                    .unwrap()
            });
            // The loop searches what the campaign did not drop.
            let ((outcomes, root_checks), loop_backtracks) =
                counting("atpg.podem.backtracks", || {
                    counting("atpg.root_checks", || {
                        let atpg = Atpg::new(c, &lib, config.clone());
                        sites
                            .iter()
                            .zip(&campaign.outcomes)
                            .filter(|(_, o)| !matches!(o, SiteOutcome::Dropped { .. }))
                            .map(|(&site, _)| atpg.run_site(site).unwrap())
                            .collect::<Vec<_>>()
                    })
                });
            let searched: Vec<SiteOutcome> = campaign
                .outcomes
                .iter()
                .filter(|o| !matches!(o, SiteOutcome::Dropped { .. }))
                .cloned()
                .collect();
            let mut stats = AtpgStats {
                dropped: campaign.stats.dropped,
                detected: campaign.stats.dropped,
                ..AtpgStats::default()
            };
            let looped: Vec<SiteOutcome> = outcomes
                .into_iter()
                .map(|o| match o {
                    FaultOutcome::Detected(t) => {
                        stats.detected += 1;
                        SiteOutcome::Detected(t)
                    }
                    FaultOutcome::Undetectable => {
                        stats.undetectable += 1;
                        SiteOutcome::Undetectable
                    }
                    FaultOutcome::Aborted => {
                        stats.aborted += 1;
                        SiteOutcome::Aborted
                    }
                })
                .collect();
            let name = c.name();
            assert_eq!(searched, looped, "{name}, jobs = {jobs}");
            assert_eq!(campaign.stats, stats, "{name}, jobs = {jobs}");
            // Both polarities of an undecided site are searched, each
            // starting with one root check.
            assert!(root_checks >= looped.len() as u64, "{name}");
            // At one job the campaign searches exactly the loop's sites.
            // At two, a worker may also search a site the resolve pass
            // then drops; with nothing dropped the searches are the same.
            if jobs == 1 || campaign.stats.dropped == 0 {
                assert_eq!(backtracks, loop_backtracks, "{name}, jobs = {jobs}");
            } else {
                assert!(backtracks >= loop_backtracks, "{name}, jobs = {jobs}");
            }
        }
    }
}
