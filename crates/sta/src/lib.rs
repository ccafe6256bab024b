//! Static timing analysis on the simultaneous-switching delay model
//! (Section 4 of the paper).
//!
//! STA propagates min-max **timing windows** — arrival and transition
//! times for rising and falling transitions — forward from primary inputs
//! (and required times backward from primary outputs) without considering
//! any specific vector. The key machinery:
//!
//! * [`window`] — the eight-field per-line timing record of Figure 7, plus
//!   participation states that make ITR a refinement of STA,
//! * [`propagate`] — the Section 4.2 window calculation with worst-case
//!   corner identification: bi-tonic delay peaks (`T*`, Figure 9),
//!   `SK_{t,min}` transition-time optima and simultaneous-switching
//!   minima,
//! * [`stage`] — mapping netlist gates onto characterized cells (AND/OR
//!   decompose into NAND/NOR + INV),
//! * [`engine`] — the full-circuit forward pass,
//! * [`incremental`] — the dirty-cone engine shared by STA and ITR:
//!   participation-diff worklists, bit-exact gate-evaluation memoization
//!   and parallel full passes,
//! * [`backward`] — required times and the delay-error check,
//! * [`report`] — endpoint summaries and critical-path extraction.
//!
//! # Example
//!
//! ```no_run
//! use ssdm_cells::{CellLibrary, CharConfig};
//! use ssdm_netlist::suite;
//! use ssdm_sta::{ModelKind, Sta, StaConfig};
//!
//! let lib = CellLibrary::characterize_standard(&CharConfig::fast())?;
//! let c17 = suite::c17();
//! let proposed = Sta::new(&c17, &lib, StaConfig::default()).run()?;
//! let baseline = Sta::new(
//!     &c17,
//!     &lib,
//!     StaConfig::default().with_model(ModelKind::PinToPin),
//! )
//! .run()?;
//! // Table 2: pin-to-pin overestimates the minimum delay.
//! assert!(proposed.endpoint_min_delay(&c17) <= baseline.endpoint_min_delay(&c17));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backward;
pub mod engine;
pub mod error;
pub mod incremental;
pub mod propagate;
pub mod report;
pub mod stage;
pub mod window;

pub use backward::{find_violations, required_times, violates, Required};
pub use incremental::{
    unconstrained_participation, IncrementalSta, IncrementalStats, ParticipationMap, SharedTiming,
};

pub use engine::{Sta, StaConfig, StaResult, TimingView};
pub use error::StaError;
pub use propagate::{
    stage_windows, stage_windows_traced, CornerChoice, DelaysUsed, ModelKind, StageProvenance,
};
pub use report::{critical_path, slowest_endpoint, timing_report, PathStep};
pub use stage::{stage_plan, StagePlan};
pub use window::{EdgeTiming, LineTiming, Participation, PinWindow};

#[cfg(test)]
pub(crate) mod testlib {
    //! Shared, once-per-binary characterized library for tests.
    use ssdm_cells::{CellLibrary, CharConfig};
    use ssdm_core::Edge;
    use ssdm_netlist::Circuit;
    use std::sync::OnceLock;

    use crate::TimingView;

    pub fn library() -> &'static CellLibrary {
        static LIB: OnceLock<CellLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            CellLibrary::characterize_standard(&CharConfig::fast()).expect("characterization")
        })
    }

    /// FNV-1a over the exact bit patterns of every line's eight window
    /// fields and every `delay_used` entry, in topological order.
    pub fn timing_digest(circuit: &Circuit, view: &impl TimingView) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for id in circuit.topo() {
            for e in Edge::BOTH {
                match view.line(id).edge(e) {
                    None => word(u64::MAX),
                    Some(et) => {
                        for t in [et.arrival.s(), et.arrival.l(), et.ttime.s(), et.ttime.l()] {
                            word(t.as_ns().to_bits());
                        }
                    }
                }
            }
            for pin in 0..circuit.gate(id).fanin.len() {
                for e in Edge::BOTH {
                    match view.delay_used(id, pin, e) {
                        None => word(u64::MAX),
                        Some(b) => {
                            word(b.s().as_ns().to_bits());
                            word(b.l().as_ns().to_bits());
                        }
                    }
                }
            }
        }
        h
    }
}
