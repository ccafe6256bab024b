//! Cell characterization for the simultaneous-switching delay model.
//!
//! Section 3.7 of the paper: *"For each NAND/NOR gate with different
//! transistor sizes in a cell library, formulas for DR, D0R, and SR need to
//! be determined in pre-characterization. Note that this is a one-time
//! effort."* This crate is that pre-characterization machinery:
//!
//! * [`lsq`] — linear least squares via normal equations (the "curve
//!   fitting" of Section 3.4),
//! * [`fit`] — the paper's empirical function forms: quadratic `DR(T)`,
//!   the product-of-cube-roots surface `D0R(T_X, T_Y)` and the quadratic
//!   skew-knee surface `SR(T_X, T_Y)`,
//! * [`sweep`] — drives the reference simulator (`ssdm-spice`) over
//!   transition-time and skew grids and extracts the fit points,
//! * [`cell`] — [`CharacterizedGate`]: every fitted artifact for one cell,
//!   with query methods the delay models consume,
//! * [`library`] — [`CellLibrary`]: a keyed collection of characterized
//!   cells with a text (de)serialization format.
//!
//! # Example
//!
//! ```no_run
//! use ssdm_cells::{CharConfig, CellLibrary};
//!
//! // One-time effort: characterize the standard cells (NAND2-4, NOR2-3, INV).
//! let lib = CellLibrary::characterize_standard(&CharConfig::fast())?;
//! let nand2 = lib.get("NAND2").unwrap();
//! println!("{}", nand2.name());
//! # Ok::<(), ssdm_cells::CellError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod error;
pub mod fit;
pub mod library;
pub mod lsq;
pub mod sweep;

pub use cell::{CharacterizedGate, PairTiming, PinCorner, PinTiming};
pub use error::CellError;
pub use fit::{D0Surface, Poly1, Quad2};
pub use library::CellLibrary;
pub use sweep::{CharConfig, Characterizer};
