//! Gate delay models: the paper's proposed simultaneous-switching model and
//! the baselines it is compared against.
//!
//! All models implement [`DelayModel`]: given a characterized cell, a set of
//! switching inputs (each a fully specified [`ssdm_core::Transition`]) and an
//! output load, they predict the output response (edge, arrival, transition
//! time). The implementations are:
//!
//! * [`ProposedModel`] — the paper's contribution: pin-to-pin quadratics for
//!   single switching, V-shape interpolation for simultaneous
//!   to-controlling transitions, pin-to-pin latest-arrival composition for
//!   to-non-controlling transitions (Section 3).
//!   [`ProposedModel::with_miller`] additionally enables the Section 3.6
//!   extension (Λ-shaped Miller slowdown of simultaneous
//!   to-non-controlling transitions),
//! * [`PinToPinModel`] — the SDF-style baseline used by conventional STA:
//!   no simultaneous-switching awareness at all,
//! * [`JunModel`] — the inverter-collapsing baseline of Jun et al. \[6\]:
//!   collapses the switching transistors into an equivalent inverter and
//!   ignores skew saturation (accurate near zero skew, wrong for large
//!   skew — Figure 12),
//! * [`NabaviModel`] — the inverter model of Nabavi-Lishi & Rumin \[18\]:
//!   additionally assumes simultaneous transitions share a start time
//!   (accurate only when the transition times match — Figure 11),
//! * [`SpiceReference`] — the transistor-level simulator itself behind the
//!   same interface, playing HSPICE's role in every comparison.
//!
//! # Example
//!
//! ```no_run
//! use ssdm_cells::{CharConfig, Characterizer};
//! use ssdm_core::{Edge, Time, Transition};
//! use ssdm_models::{DelayModel, ProposedModel};
//! use ssdm_spice::GateKind;
//!
//! let cell = Characterizer::min_size("NAND2", GateKind::Nand, 2, CharConfig::fast())?
//!     .characterize()?;
//! let model = ProposedModel::new();
//! let t = |a: f64| Transition::new(Edge::Fall, Time::from_ns(a), Time::from_ns(0.5));
//! let resp = model.response(&cell, &[(0, t(1.0)), (1, t(1.1))], cell.ref_load())?;
//! assert_eq!(resp.out_edge, Edge::Rise);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod error;
pub mod model;
pub mod proposed;
pub mod reference;

pub use baseline::{JunModel, NabaviModel, PinToPinModel};
pub use error::ModelError;
pub use model::{DelayModel, GateResponse, SwitchClass};
pub use proposed::ProposedModel;
pub use reference::SpiceReference;

/// A cell of the pinned fast-grid library, parsed once per test binary (it
/// equals a cold `CharConfig::fast()` characterization; `ssdm-cells`
/// checks that).
#[cfg(test)]
pub(crate) fn test_cell(name: &str) -> &'static ssdm_cells::CharacterizedGate {
    use std::sync::OnceLock;
    static LIB: OnceLock<ssdm_cells::CellLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        ssdm_cells::CellLibrary::from_text(include_str!("../../../perfbench/data/library-fast.txt"))
            .expect("pinned library parses")
    })
    .get(name)
    .expect("standard cell")
}
