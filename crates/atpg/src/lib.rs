//! Timing-based ATPG for crosstalk delay faults (Section 7 of the paper).
//!
//! The paper's framework needs four components, all present here or in the
//! sibling crates: (1) a delay model able to handle min-max ranges with
//! worst-case corner identification (`ssdm-models` / `ssdm-sta`),
//! (2) fault excitation and propagation conditions ([`fault`], [`faulty`]),
//! (3) a search engine implicitly enumerating the logic space
//! ([`podem`] — a PODEM-style two-frame branch-and-bound), and
//! (4) **ITR** recomputing timing ranges as values are specified, pruning
//! branches whose alignment or slack requirements become impossible.
//!
//! The headline experiment toggles ITR pruning on and off and compares
//! ATPG *efficiency* — the fraction of faults either detected or proven
//! undetectable within a backtrack budget (the paper reports
//! 39.63 % → 82.75 %).
//!
//! # Example
//!
//! ```no_run
//! use ssdm_atpg::{AtpgConfig, AtpgDriver};
//! use ssdm_cells::{CellLibrary, CharConfig};
//! use ssdm_netlist::{coupling_sites, suite};
//!
//! let lib = CellLibrary::characterize_standard(&CharConfig::fast())?;
//! let c = suite::c17();
//! let sites = coupling_sites(&c, 10, 7);
//! let campaign = AtpgDriver::new(&c, &lib, AtpgConfig::default()).run(&sites)?;
//! println!("efficiency: {:.2}%", campaign.stats.efficiency() * 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod error;
pub mod fault;
pub mod faulty;
pub mod podem;

pub use driver::{AtpgDriver, CampaignResult, SiteOutcome};
pub use error::AtpgError;
pub use fault::{CrosstalkFault, FaultModel};
pub use podem::{Atpg, AtpgConfig, AtpgStats, FaultOutcome, TestPair};

/// The pinned fast-grid library, parsed once per test binary and shared
/// by every test module in this crate.
#[cfg(test)]
pub(crate) fn test_library() -> &'static ssdm_cells::CellLibrary {
    use std::sync::OnceLock;
    static LIB: OnceLock<ssdm_cells::CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        ssdm_cells::CellLibrary::from_text(include_str!("../../../perfbench/data/library-fast.txt"))
            .expect("pinned library parses")
    })
}
