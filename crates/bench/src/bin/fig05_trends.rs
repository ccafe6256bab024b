//! **Figure 5**: trend shapes of every timing function against each input
//! variable — the monotone/bi-tonic structure that makes worst-case corner
//! identification sound (Section 3.3 and the sufficient condition of
//! Section 6.1).
//!
//! Panels reproduced:
//! * (a)/(b) delay vs `T` — monotone for a balanced gate, **bi-tonic**
//!   (rising then falling, eventually negative) for a high-βp gate,
//! * (c) delay vs skew — V-shaped (fall-rise),
//! * (d)/(e) output transition time vs `T` — always increasing,
//! * (f) transition time vs skew — fall-rise with a possibly non-zero
//!   minimum.

use ssdm_core::{CurveShape, Edge, Samples, Time, Transition};
use ssdm_spice::{GateKind, GateSim, Process};

fn sweep_t(
    sim: &GateSim,
    out: &mut Vec<(f64, f64, f64)>,
) -> Result<(), Box<dyn std::error::Error>> {
    let load = sim.inverter_load();
    for i in 0..14 {
        let t = 0.1 + i as f64 * 0.45;
        let m = sim.pin_to_pin(0, Edge::Fall, Time::from_ns(t), load)?;
        out.push((t, m.delay.as_ns(), m.ttime.as_ns()));
    }
    Ok(())
}

fn shape_with_tol(points: &[(f64, f64)], tol: f64) -> CurveShape {
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    Samples::new(xs, ys).expect("valid sweep").shape(tol)
}

fn shape_of(points: &[(f64, f64)]) -> CurveShape {
    shape_with_tol(points, 1e-4)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 5 — qualitative shapes of the timing functions");
    println!();

    // (a) balanced gate: monotone increasing delay (case 1).
    let balanced = GateSim::nand(2);
    let mut pts = Vec::new();
    sweep_t(&balanced, &mut pts)?;
    let d: Vec<(f64, f64)> = pts.iter().map(|&(t, d, _)| (t, d)).collect();
    let tt: Vec<(f64, f64)> = pts.iter().map(|&(t, _, tt)| (t, tt)).collect();
    println!("  (a) d vs T, balanced βn/βp      : {:?}", shape_of(&d));
    println!("  (d) t_out vs T, balanced         : {:?}", shape_of(&tt));

    // (b) strong-PMOS gate: bi-tonic delay crossing zero (case 2).
    let strong_p = GateSim::new(GateKind::Nand, 2, 1.0, 9.0, Process::p05um())?;
    let mut pts = Vec::new();
    sweep_t(&strong_p, &mut pts)?;
    let d2: Vec<(f64, f64)> = pts.iter().map(|&(t, d, _)| (t, d)).collect();
    let goes_negative = d2.iter().any(|&(_, d)| d < 0.0);
    println!(
        "  (b) d vs T, strong PMOS          : {:?}, goes negative: {goes_negative}",
        shape_of(&d2)
    );
    let tt2: Vec<(f64, f64)> = pts.iter().map(|&(t, _, tt)| (t, tt)).collect();
    println!("  (e) t_out vs T, strong PMOS      : {:?}", shape_of(&tt2));

    // (c)/(f) vs skew.
    let load = balanced.inverter_load();
    let base = Time::from_ns(2.0);
    let mut dskew = Vec::new();
    let mut tskew = Vec::new();
    for i in -10..=10 {
        let s = i as f64 * 0.08;
        let t = Time::from_ns(0.5);
        let m = balanced.measure_switching(
            &[
                (0, Transition::new(Edge::Fall, base, t)),
                (1, Transition::new(Edge::Fall, base + Time::from_ns(s), t)),
            ],
            load,
        )?;
        dskew.push((s, m.delay.as_ns()));
        tskew.push((s, m.ttime.as_ns()));
    }
    println!(
        "  (c) d vs δ                       : {:?}",
        shape_with_tol(&dskew, 2.5e-3)
    );
    println!(
        "  (f) t_out vs δ                   : {:?}",
        shape_with_tol(&tskew, 2.5e-3)
    );
    let tmin = tskew
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "      minimal t_out at δ = {:+.2} ns (need not be 0, unlike the delay)",
        tmin.0
    );

    println!();
    println!("All shapes monotone or bi-tonic → the Section 6.1 sufficient");
    println!("condition for worst-case corner identification holds.");
    Ok(())
}
