//! An analytical transistor-level transient simulator — the workspace's
//! stand-in for HSPICE.
//!
//! The DAC 2001 paper characterizes its delay model against HSPICE
//! (SPICE LEVEL 3, 0.5 µm). This crate plays that role: it simulates CMOS
//! primitive gates at the transistor level with an alpha-power-law MOSFET
//! model (Sakurai–Newton), full series-stack internal nodes, junction and
//! gate–drain (Miller) capacitances, and saturating-ramp inputs with
//! arbitrary arrival and transition times.
//!
//! The simulator reproduces the four phenomena the paper's model is fitted
//! to:
//!
//! 1. simultaneous to-controlling transitions activate parallel
//!    charge/discharge paths and speed the output up (Figure 1),
//! 2. inputs far from the output in the series stack are slower because the
//!    switching transistor must also (dis)charge internal-node capacitance
//!    (Section 3.1.2),
//! 3. pin-to-pin delay versus input transition time is monotone or
//!    bi-tonic — it can even go negative for very slow ramps (Section 3.3),
//! 4. output transition time grows monotonically with input transition
//!    time.
//!
//! # Example
//!
//! ```
//! use ssdm_core::{Capacitance, Edge, Time, Transition};
//! use ssdm_spice::GateSim;
//!
//! let sim = GateSim::nand(2);
//! // Falling transition on input 0, the other input held at non-controlling 1.
//! let fall = Transition::new(Edge::Fall, Time::from_ns(1.0), Time::from_ns(0.5));
//! let m = sim.measure_switching(&[(0, fall)], Capacitance::from_ff(12.0))?;
//! assert_eq!(m.out_edge, Edge::Rise);
//! assert!(m.delay > Time::ZERO);
//! # Ok::<(), ssdm_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod error;
pub mod gates;
pub mod measure;
pub mod mosfet;
pub mod process;
pub mod transient;
pub mod waveform;

pub use circuit::{Circuit, Node, Transistor};
pub use error::SpiceError;
pub use gates::GateKind;
pub use measure::{GateSim, Measured, PinState};
pub use mosfet::{MosParams, MosType};
pub use process::Process;
pub use transient::{Transient, TransientConfig};
pub use waveform::{InputWave, Trace};
