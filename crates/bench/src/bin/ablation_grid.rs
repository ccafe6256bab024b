//! **Ablation**: characterization-grid density versus model accuracy.
//!
//! The Section 3.7 "one-time effort" scales with the transition-time grid.
//! This ablation characterizes a NAND2 at three grid densities and scores
//! each against dense off-grid simulation, showing where the returns
//! diminish.

use ssdm_cells::{CharConfig, Characterizer};
use ssdm_core::{Edge, Time, Transition};
use ssdm_spice::{GateKind, GateSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation — characterization grid density (NAND2)");
    println!();
    let grids: [(&str, Vec<f64>); 3] = [
        ("3-point", vec![0.15, 0.7, 1.6]),
        ("6-point", vec![0.1, 0.25, 0.5, 0.9, 1.4, 2.0]),
        (
            "9-point",
            vec![0.1, 0.2, 0.32, 0.5, 0.72, 1.0, 1.3, 1.65, 2.0],
        ),
    ];
    let sim = GateSim::nand(2);
    println!(
        "{:<10}{:>14}{:>14}{:>16}",
        "grid", "pin RMS (ns)", "pair RMS (ns)", "sims (approx)"
    );
    for (name, grid) in grids {
        let n_grid = grid.len();
        let cfg = CharConfig {
            t_grid: grid,
            ..CharConfig::full()
        };
        let cell = Characterizer::min_size("NAND2", GateKind::Nand, 2, cfg)?.characterize()?;
        let load = cell.ref_load();

        // Pin-to-pin accuracy at off-grid transition times.
        let mut pin_sq = 0.0;
        let mut pin_n = 0;
        for i in 0..10 {
            let t = Time::from_ns(0.13 + i as f64 * 0.19);
            let truth = sim.pin_to_pin(0, Edge::Fall, t, load)?.delay;
            let model = cell.pin_delay(Edge::Rise, 0, t, load)?;
            pin_sq += (model - truth).as_ns().powi(2);
            pin_n += 1;
        }

        // Simultaneous-switching accuracy at off-grid (T, δ) points.
        let base = Time::from_ns(2.0);
        let mut pair_sq = 0.0;
        let mut pair_n = 0;
        for (tx, ty, skew) in [
            (0.33, 0.77, 0.0),
            (0.61, 0.2, 0.11),
            (1.1, 1.1, -0.17),
            (0.45, 1.3, 0.3),
            (0.9, 0.52, -0.06),
        ] {
            let t_x = Time::from_ns(tx);
            let t_y = Time::from_ns(ty);
            let truth = sim
                .measure_switching(
                    &[
                        (0, Transition::new(Edge::Fall, base, t_x)),
                        (
                            1,
                            Transition::new(Edge::Fall, base + Time::from_ns(skew), t_y),
                        ),
                    ],
                    load,
                )?
                .delay;
            let model = cell
                .vshape_delay(0, 1, t_x, t_y, load)?
                .eval(Time::from_ns(skew));
            pair_sq += (model - truth).as_ns().powi(2);
            pair_n += 1;
        }

        // Rough simulator-call budget of this characterization.
        let sims = n_grid * n_grid * 30 + n_grid * 8;
        println!(
            "{:<10}{:>14.4}{:>14.4}{:>16}",
            name,
            (pin_sq / pin_n as f64).sqrt(),
            (pair_sq / pair_n as f64).sqrt(),
            sims
        );
    }
    println!();
    println!("Reading: pin-to-pin accuracy improves with the grid and then");
    println!("saturates; the pairwise error is dominated by the V-shape's");
    println!("piecewise-linear form itself (the paper's deliberate trade of a");
    println!("few ps of accuracy for analytically searchable corners), so");
    println!("denser grids buy little there.");
    Ok(())
}
