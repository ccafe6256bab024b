//! Incremental timing refinement (Section 5 of the paper).
//!
//! STA's min-max ranges assume nothing about the input vectors. During
//! test generation, values are specified incrementally; ITR recomputes the
//! timing windows under the partially specified two-frame logic values,
//! using each line's transition state `S ∈ {1, 0, −1}` to include, exclude
//! or require its participation in each window corner. STA is exactly the
//! all-unknown special case, and every refinement can only shrink windows.
//!
//! * [`refine`] — the window recomputation given an [`ssdm_logic::Assignments`],
//! * [`rules`] — the Table 1 zero-value-setting rules, reconstructed from
//!   the paper's five rules for corner excitation.
//!
//! # Example
//!
//! ```no_run
//! use ssdm_cells::{CellLibrary, CharConfig};
//! use ssdm_itr::Itr;
//! use ssdm_logic::{Assignments, V2};
//! use ssdm_netlist::suite;
//! use ssdm_sta::{Sta, StaConfig, TimingView};
//!
//! let lib = CellLibrary::characterize_standard(&CharConfig::fast())?;
//! let c = suite::c17();
//! let sta = Sta::new(&c, &lib, StaConfig::default()).run()?;
//! let itr = Itr::new(&c, &lib, StaConfig::default());
//!
//! let mut a = Assignments::new(c.n_nets());
//! a.set(c.inputs()[0], V2::steady(true))?;
//! let refined = itr.refine(&mut a)?;
//! // Windows only ever shrink as values are specified.
//! for id in c.topo() {
//!     assert!(sta.line(id).refined_by(refined.line(id)));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod refine;
pub mod rules;

pub use error::ItrError;
pub use refine::Itr;
pub use rules::{implied_settings, OptTarget, Setting};
