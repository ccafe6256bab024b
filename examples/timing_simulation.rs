//! Timing simulation vs. static timing analysis: run several fully
//! specified vector pairs through the event-driven simulator ("TS" in the
//! paper) and show every event landing inside the vector-independent STA
//! windows.
//!
//! ```text
//! cargo run --release --example timing_simulation
//! ```

use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::models::ProposedModel;
use ssdm::netlist::suite;
use ssdm::sta::{Sta, StaConfig};
use ssdm::timing::{Bound, Time};
use ssdm::tsim::{SimInput, TimingSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CharConfig::fast();
    let cache = CellLibrary::cache_path("target/ssdm-cache".as_ref(), &config);
    let lib = CellLibrary::load_or_characterize_standard(&cache, &config)?;
    let c17 = suite::c17();

    // STA with launch conditions matching the simulator's.
    let cfg = StaConfig {
        pi_ttime: Bound::point(Time::from_ns(0.3)),
        ..StaConfig::default()
    };
    let sta = Sta::new(&c17, &lib, cfg.clone()).run()?;
    let sim = TimingSim::new(&c17, &lib, ProposedModel::new()).with_config(cfg);

    let vector_pairs: [(&str, [bool; 5], [bool; 5]); 3] = [
        ("all fall", [true; 5], [false; 5]),
        ("all rise", [false; 5], [true; 5]),
        (
            "mixed",
            [true, false, true, false, true],
            [false, true, true, true, false],
        ),
    ];
    for (label, v1, v2) in vector_pairs {
        let trace = sim.run(&SimInput::step(&c17, &v1, &v2))?;
        println!("vector pair {label:<9} → {} events", trace.n_events());
        for &po in c17.outputs() {
            let name = &c17.gate(po).name;
            match trace.event(po) {
                Some(ev) => {
                    let w = sta.line(po).edge(ev.edge).expect("STA keeps both edges");
                    let inside = w.arrival.contains(ev.arrival);
                    println!(
                        "  PO {name}: {} at {:.3} — STA window {:.3} {}",
                        ev.edge,
                        ev.arrival,
                        w.arrival,
                        if inside { "✓ inside" } else { "✗ OUTSIDE" }
                    );
                }
                None => println!("  PO {name}: steady"),
            }
        }
    }
    println!();
    println!("Every simulated arrival sits inside the vector-independent window —");
    println!("STA is sound; the window width is the price of not knowing the vector.");
    Ok(())
}
