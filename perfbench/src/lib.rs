//! The SSDM benchmark: three workloads that time the paper's flow end to
//! end — cold cell characterization, STA/ITR on a 100k-gate circuit and
//! the §7 ATPG campaigns — plus a traced run that breaks each into its
//! layers. It calls the library crates through their public entry points
//! only and checks every simulated or analysed result exactly.
//!
//! See README.md for the workloads, the metrics and how to run them.

#![forbid(unsafe_code)]

pub mod harness;
pub mod layers;
pub mod workload;

pub use harness::RunReport;
pub use workload::{run, Opts, Scale, Workload, DEFAULT_SEED};
