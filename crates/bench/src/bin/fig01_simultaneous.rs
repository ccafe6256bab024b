//! **Figure 1**: single vs. simultaneous to-controlling transitions at the
//! inputs of a NAND2.
//!
//! The paper's schematic reports 0.30 ns for a single falling input and
//! 0.17 ns when both inputs fall together (a ~1.8× speed-up from the two
//! parallel PMOS charge paths). We reproduce the experiment on the
//! transistor-level reference simulator; absolute numbers differ (our
//! devices are not the authors' 0.5 µm deck) but the speed-up factor is
//! the result.

use ssdm_core::{Edge, Time, Transition};
use ssdm_spice::GateSim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = GateSim::nand(2);
    let load = sim.inverter_load();
    let fall = Transition::new(Edge::Fall, Time::from_ns(1.0), Time::from_ns(0.5));

    let single = sim.measure_switching(&[(0, fall)], load)?;
    let both = sim.measure_switching(&[(0, fall), (1, fall)], load)?;

    println!("Figure 1 — NAND2, T = 0.5 ns, one minimum-inverter load");
    println!();
    println!(
        "  single falling input : delay = {:.3} ns",
        single.delay.as_ns()
    );
    println!(
        "  both inputs, δ = 0   : delay = {:.3} ns",
        both.delay.as_ns()
    );
    println!();
    println!(
        "  speed-up factor      : {:.2}×   (paper: 0.30 ns / 0.17 ns = 1.76×)",
        single.delay / both.delay
    );
    Ok(())
}
