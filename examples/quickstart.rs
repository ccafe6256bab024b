//! Quickstart: characterize a NAND2, query the proposed delay model and
//! check it against the transistor-level reference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::models::{DelayModel, PinToPinModel, ProposedModel, SpiceReference};
use ssdm::timing::{Edge, Time, Transition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One-time effort (Section 3.7): characterize the standard cells
    // against the built-in transistor-level simulator. Cached on disk so
    // subsequent runs start instantly.
    let config = CharConfig::fast();
    let cache = CellLibrary::cache_path("target/ssdm-cache".as_ref(), &config);
    let lib = CellLibrary::load_or_characterize_standard(&cache, &config)?;
    let nand2 = lib.require("NAND2")?;
    let load = nand2.ref_load();

    println!(
        "characterized cells: {}",
        lib.names().collect::<Vec<_>>().join(", ")
    );
    println!();

    // The headline phenomenon (Figure 1): simultaneous to-controlling
    // transitions switch the gate faster than a single one.
    let fall =
        |arrival: f64| Transition::new(Edge::Fall, Time::from_ns(arrival), Time::from_ns(0.5));
    let proposed = ProposedModel::new();
    let pin2pin = PinToPinModel::new();
    let reference = SpiceReference::default();

    println!("NAND2, T = 0.5 ns, inverter load — gate delay (output rise):");
    println!(
        "{:<28}{:>12}{:>12}{:>12}",
        "stimulus", "spice", "proposed", "pin-to-pin"
    );
    for (label, stim) in [
        ("single input (X)", vec![(0usize, fall(1.0))]),
        ("simultaneous (δ = 0)", vec![(0, fall(1.0)), (1, fall(1.0))]),
        (
            "skewed (δ = 0.15 ns)",
            vec![(0, fall(1.0)), (1, fall(1.15))],
        ),
        ("far apart (δ = 2 ns)", vec![(0, fall(1.0)), (1, fall(3.0))]),
    ] {
        let spice_d = reference.response(nand2, &stim, load)?.arrival - Time::from_ns(1.0);
        let prop_d = proposed.response(nand2, &stim, load)?.arrival - Time::from_ns(1.0);
        let p2p_d = pin2pin.response(nand2, &stim, load)?.arrival - Time::from_ns(1.0);
        println!(
            "{label:<28}{:>10.3}ns{:>10.3}ns{:>10.3}ns",
            spice_d.as_ns(),
            prop_d.as_ns(),
            p2p_d.as_ns()
        );
    }

    println!();
    println!("The proposed model follows the simulator through the whole skew");
    println!("range; the pin-to-pin model misses the simultaneous speed-up.");
    Ok(())
}
