//! Sweep the input skew of a NAND2 and print the delay predicted by every
//! model next to the transistor-level reference — a text rendering of the
//! paper's Figure 12.
//!
//! ```text
//! cargo run --release --example skew_sweep
//! ```

use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::models::{DelayModel, JunModel, NabaviModel, ProposedModel, SpiceReference};
use ssdm::timing::{Edge, Time, Transition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CharConfig::fast();
    let cache = CellLibrary::cache_path("target/ssdm-cache".as_ref(), &config);
    let lib = CellLibrary::load_or_characterize_standard(&cache, &config)?;
    let nand2 = lib.require("NAND2")?;
    let load = nand2.ref_load();

    let models: Vec<Box<dyn DelayModel>> = vec![
        Box::new(SpiceReference::default()),
        Box::new(ProposedModel::new()),
        Box::new(JunModel::default()),
        Box::new(NabaviModel::default()),
    ];

    let t_x = Time::from_ns(0.5);
    let t_y = Time::from_ns(0.9);
    println!("NAND2 rising delay vs skew δ = A_Y − A_X  (T_X = 0.5 ns, T_Y = 0.9 ns)");
    print!("{:>8}", "δ (ns)");
    for m in &models {
        print!("{:>12}", m.name());
    }
    println!();
    let base = Time::from_ns(2.0);
    for step in -8..=8 {
        let skew = Time::from_ns(step as f64 * 0.15);
        let stim = [
            (0usize, Transition::new(Edge::Fall, base, t_x)),
            (1usize, Transition::new(Edge::Fall, base + skew, t_y)),
        ];
        print!("{:>8.2}", skew.as_ns());
        for m in &models {
            let r = m.response(nand2, &stim, load)?;
            let delay = r.arrival - base.min(base + skew);
            print!("{:>10.3}ns", delay.as_ns());
        }
        println!();
    }
    println!();
    println!("Expected shape: the proposed model tracks spice across the whole");
    println!("range; Jun stays at the combined-drive delay even for large |δ|;");
    println!("Nabavi drifts because the ramps do not share a start time.");
    Ok(())
}
