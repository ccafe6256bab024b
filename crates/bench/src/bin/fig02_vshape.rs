//! **Figure 2**: rising delay of a 2-input NAND as a function of the input
//! skew `δ_{X,Y}`, and its three-point V-shape linear approximation.
//!
//! Also validates the paper's two claims (Section 3.5):
//! * **Claim 1** — the minimal delay always occurs at `δ = 0`;
//! * **Claim 2** — the V-shape captures the true curve accurately for all
//!   fixed `(T_X, T_Y)`.

use ssdm_bench::{full_library, header, row};
use ssdm_core::{Edge, Time, Transition};
use ssdm_spice::GateSim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = full_library()?;
    let cell = lib.require("NAND2")?;
    let sim = GateSim::nand(2);
    let load = cell.ref_load();
    let (t_x, t_y) = (Time::from_ns(0.5), Time::from_ns(0.8));
    let v = cell.vshape_delay(0, 1, t_x, t_y, load)?;

    println!("Figure 2 — NAND2 rising delay vs skew (T_X = 0.5 ns, T_Y = 0.8 ns)");
    println!();
    println!(
        "  V-shape points: (SYR, DYR) = ({:.3}, {:.3})  (S0R, D0R) = ({:.3}, {:.3})  (SR, DR) = ({:.3}, {:.3})",
        v.left_knee().0.as_ns(),
        v.left_knee().1.as_ns(),
        v.vertex().0.as_ns(),
        v.vertex().1.as_ns(),
        v.right_knee().0.as_ns(),
        v.right_knee().1.as_ns(),
    );
    println!();
    println!("{}", header("δ (ns)", &["spice", "v-shape", "error"]));
    let base = Time::from_ns(2.0);
    let mut worst = 0.0f64;
    for step in -10..=10 {
        let skew = Time::from_ns(step as f64 * 0.12);
        let m = sim.measure_switching(
            &[
                (0, Transition::new(Edge::Fall, base, t_x)),
                (1, Transition::new(Edge::Fall, base + skew, t_y)),
            ],
            load,
        )?;
        let approx = v.eval(skew);
        let err = (m.delay - approx).abs().as_ns();
        worst = worst.max(err);
        println!(
            "{}",
            row(
                &format!("{:+.2}", skew.as_ns()),
                &[m.delay.as_ns(), approx.as_ns(), err]
            )
        );
    }
    println!();
    println!("  worst |error| over the sweep: {worst:.4} ns");

    // --- Claim validation over a (T_X, T_Y) grid --------------------------
    println!();
    println!("Claim validation over the (T_X, T_Y) grid:");
    let grid = [0.15, 0.4, 0.8, 1.4];
    let mut claim1_worst = 0.0f64;
    let mut claim2_worst = 0.0f64;
    for &tx in &grid {
        for &ty in &grid {
            let t_x = Time::from_ns(tx);
            let t_y = Time::from_ns(ty);
            let v = cell.vshape_delay(0, 1, t_x, t_y, load)?;
            // Claim 1: scan the simulator for the minimizing skew.
            let mut best = (0.0f64, f64::INFINITY);
            for step in -12..=12 {
                let skew = Time::from_ns(step as f64 * 0.05);
                let m = sim.measure_switching(
                    &[
                        (0, Transition::new(Edge::Fall, base, t_x)),
                        (1, Transition::new(Edge::Fall, base + skew, t_y)),
                    ],
                    load,
                )?;
                if m.delay.as_ns() < best.1 {
                    best = (skew.as_ns(), m.delay.as_ns());
                }
                // Claim 2: V-shape error at this skew.
                claim2_worst = claim2_worst.max((m.delay - v.eval(skew)).abs().as_ns());
            }
            claim1_worst = claim1_worst.max(best.0.abs());
        }
    }
    println!("  claim 1: |argmin_δ d(δ)| ≤ {claim1_worst:.3} ns over the grid (paper: exactly 0)");
    println!("  claim 2: worst V-shape error {claim2_worst:.4} ns over grid × skew sweep");
    Ok(())
}
