//! Nine-value two-frame logic and the implication engine (Section 5.1).
//!
//! Two-pattern tests carry timing information in the *pair* of values each
//! line takes across two time frames. Each line holds a [`V2`] — a pair of
//! three-valued ([`Tri`]) frame values, giving the paper's nine logic
//! values `{00, 01, 0x, 10, 11, 1x, x0, x1, xx}`. From a line's `V2` the
//! transition state `S ∈ {1, 0, −1}` ([`TransState`]) says whether a given
//! transition definitely occurs, may occur, or cannot.
//!
//! [`fn@imply`] runs forward and backward three-valued implication to a
//! fixpoint over a [`ssdm_netlist::Circuit`], the basic engine (extended to
//! two time frames, per reference \[20\] of the paper) that ITR and the ATPG
//! are built on.
//!
//! # Example
//!
//! ```
//! use ssdm_logic::{imply, Assignments, TransState, V2};
//! use ssdm_netlist::suite;
//! use ssdm_core::Edge;
//!
//! let c = suite::c17();
//! let mut a = Assignments::new(c.n_nets());
//! // Force a rising transition on output "22" and let implication work
//! // backwards.
//! let out = c.find("22").unwrap();
//! a.set(out, V2::transition(Edge::Rise))?;
//! imply(&c, &mut a)?;
//! assert_eq!(a.state(out, Edge::Rise), TransState::Yes);
//! # Ok::<(), ssdm_logic::LogicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod error;
pub mod imply;
pub mod value;

pub use assign::Assignments;
pub use error::LogicError;
pub use imply::{assign_and_imply, edges_of, imply, simulate_two_frames};
pub use value::{TransState, Tri, V2};
