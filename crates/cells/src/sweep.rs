//! Characterization sweeps: driving the reference simulator to produce the
//! fit points for every empirical function.
//!
//! A characterization decomposes into independent **units** — one per
//! (output edge, pin), per simultaneous pair, per Miller pair, and per
//! k-way floor. Units are pure functions of the simulator and the grid,
//! and they carry their own identity, so one worker pool
//! (`characterize_cells`) runs them in any order for a single cell and
//! for a whole library alike, and the assembled [`CharacterizedGate`] is
//! bit-identical for every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

use ssdm_core::{math, Capacitance, Edge, Time, Transition};
use ssdm_spice::{GateKind, GateSim, Measured, Process};

use crate::cell::{CharacterizedGate, PairTiming, PinTiming};
use crate::error::CellError;
use crate::fit::{D0Surface, Poly1, Quad2};

/// One independent characterization work unit (the scheduling granularity
/// for parallel sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CharUnit {
    /// Pin-to-pin fit for one (output edge, input position).
    Pin {
        /// Output edge being fitted.
        out_edge: Edge,
        /// Input position.
        pos: usize,
    },
    /// Simultaneous to-controlling pair `(i, j)`, `i < j`.
    Pair {
        /// Earlier pin.
        i: usize,
        /// Later pin.
        j: usize,
    },
    /// Simultaneous to-non-controlling (Miller) pair `(i, j)`, `i < j`.
    NonctrlPair {
        /// Earlier pin.
        i: usize,
        /// Later pin.
        j: usize,
    },
    /// Zero-skew `k`-way floor.
    Kway {
        /// Number of simultaneously switching pins.
        k: usize,
    },
}

/// The measurement a unit produced, tagged with its identity so assembly
/// can place it canonically regardless of completion order.
#[derive(Debug, Clone)]
enum UnitResult {
    /// Result of [`CharUnit::Pin`].
    Pin {
        /// Output edge fitted.
        out_edge: Edge,
        /// Input position.
        pos: usize,
        /// The fitted pin timing.
        timing: PinTiming,
    },
    /// Result of [`CharUnit::Pair`].
    Pair(PairTiming),
    /// Result of [`CharUnit::NonctrlPair`].
    NonctrlPair(PairTiming),
    /// Result of [`CharUnit::Kway`].
    Kway {
        /// Number of simultaneously switching pins.
        k: usize,
        /// The fitted zero-skew floor.
        floor: Poly1,
    },
}

/// Characterization grid configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CharConfig {
    /// Input transition times (ns) at which fits are sampled.
    pub t_grid: Vec<f64>,
    /// Reference output load (fF); `None` means one minimum-size inverter.
    pub ref_load_ff: Option<f64>,
    /// Alternate load (multiple of the reference) for load-slope
    /// extraction.
    pub alt_load_factor: f64,
    /// Absolute tolerance for the skew-knee bisection (ns).
    pub skew_tol: f64,
    /// Bracket half-width for the skew-knee search (ns).
    pub max_skew: f64,
    /// Fraction of the pin-to-pin delay treated as "no longer affected"
    /// when locating the knees.
    pub knee_epsilon: f64,
    /// Also characterize simultaneous **to-non-controlling** pairs (the
    /// Miller-effect slowdown, the paper's Section 3.6 extension).
    pub nonctrl_pairs: bool,
}

impl CharConfig {
    /// A coarse grid for tests and quick runs (3 transition times).
    pub fn fast() -> CharConfig {
        CharConfig {
            t_grid: vec![0.15, 0.7, 1.6],
            ref_load_ff: None,
            alt_load_factor: 3.0,
            skew_tol: 0.01,
            max_skew: 3.5,
            knee_epsilon: 0.03,
            nonctrl_pairs: true,
        }
    }

    /// The full grid used for the paper experiments (6 transition times
    /// spanning the "typical range" of Section 3).
    pub fn full() -> CharConfig {
        CharConfig {
            t_grid: vec![0.1, 0.25, 0.5, 0.9, 1.4, 2.0],
            ref_load_ff: None,
            alt_load_factor: 3.0,
            skew_tol: 0.004,
            max_skew: 3.5,
            knee_epsilon: 0.02,
            nonctrl_pairs: true,
        }
    }

    fn t_range(&self) -> (Time, Time) {
        (
            Time::from_ns(*self.t_grid.first().expect("non-empty grid")),
            Time::from_ns(*self.t_grid.last().expect("non-empty grid")),
        )
    }
}

impl Default for CharConfig {
    fn default() -> CharConfig {
        CharConfig::full()
    }
}

/// Characterizes one gate instance against the reference simulator.
#[derive(Debug)]
pub struct Characterizer {
    sim: GateSim,
    name: String,
    config: CharConfig,
    ref_load: Capacitance,
}

impl Characterizer {
    /// Creates a characterizer for a gate of `kind` with `n` inputs and the
    /// given widths in `process`.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError::Simulation`] for invalid gate parameters and
    /// [`CellError::TooFewPoints`] for an unusably small grid.
    pub fn new(
        name: impl Into<String>,
        kind: GateKind,
        n: usize,
        wn_um: f64,
        wp_um: f64,
        process: Process,
        config: CharConfig,
    ) -> Result<Characterizer, CellError> {
        if config.t_grid.len() < 3 {
            return Err(CellError::TooFewPoints {
                what: "characterization grid",
                got: config.t_grid.len(),
                need: 3,
            });
        }
        let sim = GateSim::new(kind, n, wn_um, wp_um, process)?;
        let ref_load = Capacitance::from_ff(
            config
                .ref_load_ff
                .unwrap_or_else(|| sim.inverter_load().as_ff()),
        );
        Ok(Characterizer {
            sim,
            name: name.into(),
            config,
            ref_load,
        })
    }

    /// A characterizer with default widths (minimum-size gate).
    ///
    /// # Errors
    ///
    /// As for [`Characterizer::new`].
    pub fn min_size(
        name: impl Into<String>,
        kind: GateKind,
        n: usize,
        config: CharConfig,
    ) -> Result<Characterizer, CellError> {
        Characterizer::new(
            name,
            kind,
            n,
            GateSim::DEFAULT_WN_UM,
            GateSim::DEFAULT_WP_UM,
            Process::p05um(),
            config,
        )
    }

    /// Runs the full characterization: pin-to-pin fits for both output
    /// edges and every position, pairwise simultaneous-switching fits for
    /// the to-controlling response, and k-way zero-skew floors.
    ///
    /// The sweep units run on every available core, on the same pool that
    /// [`CellLibrary::characterize_standard`](crate::CellLibrary::characterize_standard)
    /// uses, and the result does not depend on the worker count.
    ///
    /// # Errors
    ///
    /// Propagates simulation and fitting failures.
    pub fn characterize(&self) -> Result<CharacterizedGate, CellError> {
        let _span = ssdm_obs::span("cells.sweep");
        let mut gates = characterize_cells(std::slice::from_ref(self), all_cores())?;
        Ok(gates.pop().expect("one gate per characterizer"))
    }

    /// The unit decomposition, in the canonical sweep order.
    fn units(&self) -> Vec<CharUnit> {
        let n = self.sim.n_inputs();
        let mut units = Vec::new();
        for out_edge in Edge::BOTH {
            for pos in 0..n {
                units.push(CharUnit::Pin { out_edge, pos });
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                units.push(CharUnit::Pair { i, j });
                if self.config.nonctrl_pairs {
                    units.push(CharUnit::NonctrlPair { i, j });
                }
            }
        }
        for k in 3..=n {
            units.push(CharUnit::Kway { k });
        }
        units
    }

    /// Runs one unit sweep, inside a span named after the unit kind.
    ///
    /// The unit measures on a harness of its own. Its probes share
    /// trajectory prefixes with each other, hardly ever with other units,
    /// so the simulator's memos are freed with the unit and memory stays
    /// bounded by the units in flight (DESIGN.md §10).
    fn run_unit(&self, unit: CharUnit) -> Result<UnitResult, CellError> {
        let unit_char = Characterizer {
            sim: self.sim.clone(),
            name: self.name.clone(),
            config: self.config.clone(),
            ref_load: self.ref_load,
        };
        unit_char.sweep_unit(unit)
    }

    fn sweep_unit(&self, unit: CharUnit) -> Result<UnitResult, CellError> {
        Ok(match unit {
            CharUnit::Pin { out_edge, pos } => {
                let _span = ssdm_obs::span("cells.unit.pin");
                UnitResult::Pin {
                    out_edge,
                    pos,
                    timing: self.characterize_pin(out_edge, pos)?,
                }
            }
            CharUnit::Pair { i, j } => {
                let _span = ssdm_obs::span("cells.unit.pair");
                UnitResult::Pair(self.characterize_pair(i, j)?)
            }
            CharUnit::NonctrlPair { i, j } => {
                let _span = ssdm_obs::span("cells.unit.nonctrl");
                UnitResult::NonctrlPair(self.characterize_nonctrl_pair(i, j)?)
            }
            CharUnit::Kway { k } => {
                let _span = ssdm_obs::span("cells.unit.kway");
                UnitResult::Kway {
                    k,
                    floor: self.characterize_kway(k)?,
                }
            }
        })
    }

    /// Assembles unit results (in any order) into the canonical gate
    /// layout: pins indexed by (edge, position), pairs sorted `(i, j)`
    /// lexicographically, k-way floors contiguous from 3.
    ///
    /// # Panics
    ///
    /// Panics if `results` is not exactly the set produced by running
    /// every unit from [`Characterizer::units`] — an internal invariant
    /// of [`characterize_cells`].
    fn assemble(&self, results: Vec<UnitResult>) -> CharacterizedGate {
        let n = self.sim.n_inputs();
        let mut pins: [Vec<Option<PinTiming>>; 2] = [vec![None; n], vec![None; n]];
        let mut pairs = Vec::new();
        let mut npairs = Vec::new();
        let mut kway: Vec<(usize, Poly1)> = Vec::new();
        for r in results {
            match r {
                UnitResult::Pin {
                    out_edge,
                    pos,
                    timing,
                } => pins[out_edge.index()][pos] = Some(timing),
                UnitResult::Pair(p) => pairs.push(p),
                UnitResult::NonctrlPair(p) => npairs.push(p),
                UnitResult::Kway { k, floor } => kway.push((k, floor)),
            }
        }
        let pins = pins.map(|edge| {
            edge.into_iter()
                .map(|p| p.expect("complete unit set"))
                .collect()
        });
        pairs.sort_by_key(|p: &PairTiming| (p.i, p.j));
        npairs.sort_by_key(|p: &PairTiming| (p.i, p.j));
        kway.sort_by_key(|&(k, _)| k);
        CharacterizedGate::new(
            self.name.clone(),
            self.sim.kind(),
            n,
            self.sim.wn_um(),
            self.sim.wp_um(),
            self.ref_load.as_ff(),
            self.sim.input_cap().as_ff(),
            self.config.t_range(),
            pins,
            pairs,
            npairs,
            kway.into_iter().map(|(_, p)| p).collect(),
        )
    }

    fn characterize_pin(&self, out_edge: Edge, pos: usize) -> Result<PinTiming, CellError> {
        let in_edge = out_edge.inverted();
        let mut delays = Vec::with_capacity(self.config.t_grid.len());
        let mut ttimes = Vec::with_capacity(self.config.t_grid.len());
        for &t in &self.config.t_grid {
            let m = self
                .sim
                .pin_to_pin(pos, in_edge, Time::from_ns(t), self.ref_load)?;
            delays.push(m.delay.as_ns());
            ttimes.push(m.ttime.as_ns());
        }
        let delay = Poly1::fit(&self.config.t_grid, &delays, "pin delay")?;
        let ttime = Poly1::fit(&self.config.t_grid, &ttimes, "pin transition time")?;

        // Load slope from the grid midpoint at the alternate load; the
        // sweep above already measured the midpoint at the reference load.
        let mid = self.config.t_grid.len() / 2;
        let t_mid = Time::from_ns(self.config.t_grid[mid]);
        let alt_load = Capacitance::from_ff(self.ref_load.as_ff() * self.config.alt_load_factor);
        let m_alt = self.sim.pin_to_pin(pos, in_edge, t_mid, alt_load)?;
        let dl = (alt_load - self.ref_load).as_ff();
        Ok(PinTiming {
            delay,
            ttime,
            delay_load_slope: (m_alt.delay.as_ns() - delays[mid]) / dl,
            ttime_load_slope: (m_alt.ttime.as_ns() - ttimes[mid]) / dl,
        })
    }

    /// Input `i`'s arrival in a pair measurement, late enough that input
    /// `j` arrives after 0 at every bracketed skew.
    fn pair_base(&self) -> Time {
        Time::from_ns(2.0 + self.config.max_skew)
    }

    /// Measures the gate with `in_edge` transitions on positions `i` and
    /// `j` at skew `δ = A_j − A_i`; other inputs steady at
    /// non-controlling.
    fn measure_pair(
        &self,
        in_edge: Edge,
        (i, j): (usize, usize),
        (t_i, t_j): (Time, Time),
        skew: Time,
    ) -> Result<Measured, CellError> {
        let base = self.pair_base();
        let switching = [
            (i, Transition::new(in_edge, base, t_i)),
            (j, Transition::new(in_edge, base + skew, t_j)),
        ];
        Ok(self.sim.measure_switching(&switching, self.ref_load)?)
    }

    fn characterize_pair(&self, i: usize, j: usize) -> Result<PairTiming, CellError> {
        let in_edge = self.sim.kind().ctrl_out_edge().inverted();
        let grid = &self.config.t_grid;
        let mut d0_pts = Vec::new();
        let mut sr_pts = Vec::new();
        let mut syr_pts = Vec::new();
        let mut t0_pts = Vec::new();
        let mut skt_pts = Vec::new();
        for &ti in grid {
            for &tj in grid {
                let ts = (Time::from_ns(ti), Time::from_ns(tj));
                // Vertex: zero-skew simultaneous switching.
                let d0 = self.measure_pair(in_edge, (i, j), ts, Time::ZERO)?.delay;
                d0_pts.push((ti, tj, d0.as_ns()));
                // Saturated single-switch references.
                let d_i = self.sim.pin_to_pin(i, in_edge, ts.0, self.ref_load)?.delay;
                let d_j = self.sim.pin_to_pin(j, in_edge, ts.1, self.ref_load)?.delay;
                // Right knee SR: smallest δ > 0 with delay(δ) ≥ d_i − ε.
                let sr = self.find_knee((i, j), ts, d_i, d0, true);
                sr_pts.push((ti, tj, sr.as_ns()));
                // Left knee SYR (δ < 0), relative to d_j.
                let syr = self.find_knee((i, j), ts, d_j, d0, false);
                syr_pts.push((ti, tj, syr.as_ns()));
                // Output transition time optimum over the δ-simultaneous
                // window (unimodal per Figure 5(f)).
                let (s_best, tt_best) = math::golden_min(
                    |s| {
                        self.measure_pair(in_edge, (i, j), ts, Time::from_ns(s))
                            .map(|m| m.ttime.as_ns())
                            .unwrap_or(f64::INFINITY)
                    },
                    syr.as_ns(),
                    sr.as_ns(),
                    self.config.skew_tol * 4.0,
                );
                t0_pts.push((ti, tj, tt_best));
                skt_pts.push((ti, tj, s_best));
            }
        }
        Ok(PairTiming {
            i,
            j,
            d0: D0Surface::fit(&d0_pts, "D0")?,
            sr: Quad2::fit(&sr_pts, "SR")?,
            syr: Quad2::fit(&syr_pts, "SYR")?,
            t0: D0Surface::fit(&t0_pts, "t0")?,
            sk_t_min: Quad2::fit(&skt_pts, "SK_t_min")?,
        })
    }

    /// Characterizes the Section 3.6 extension: the Miller-effect slowdown
    /// of simultaneous to-non-controlling transitions, as a Λ-shape over
    /// skew (peak `D0N` at δ = 0, decaying to the single-switch response
    /// beyond the knees). Delays run from the **latest** arrival, the
    /// paper's convention for to-non-controlling responses.
    fn characterize_nonctrl_pair(&self, i: usize, j: usize) -> Result<PairTiming, CellError> {
        // The inputs release the output: the reverse of the controlling move.
        let in_edge = self.sim.kind().ctrl_out_edge();
        let base = self.pair_base();
        let measure = |ts: (Time, Time), skew: Time| -> Result<(Time, Time), CellError> {
            let m = self.measure_pair(in_edge, (i, j), ts, skew)?;
            Ok((m.arrival - base.max(base + skew), m.ttime))
        };
        let grid = &self.config.t_grid;
        let far = Time::from_ns(self.config.max_skew);
        let mut d0_pts = Vec::new();
        let mut sr_pts = Vec::new();
        let mut syr_pts = Vec::new();
        let mut t0_pts = Vec::new();
        let mut skt_pts = Vec::new();
        for &ti in grid {
            for &tj in grid {
                let ts = (Time::from_ns(ti), Time::from_ns(tj));
                let (d0n, tt0n) = measure(ts, Time::ZERO)?;
                d0_pts.push((ti, tj, d0n.as_ns()));
                t0_pts.push((ti, tj, tt0n.as_ns()));
                skt_pts.push((ti, tj, 0.0));
                // Saturation references at large skew on each side.
                let (sat_r, _) = measure(ts, far)?;
                let (sat_l, _) = measure(ts, -far)?;
                // Knees: the smallest |δ| where the peak has decayed to
                // within ε of the saturation level `sat` (the Λ is
                // monotone on each flank to first order).
                let knee = |sat: Time, lo: f64, hi: f64| {
                    let eps =
                        (d0n - sat).as_ns().abs().max(1e-3) * self.config.knee_epsilon.max(0.1);
                    let g = |s: f64| -> f64 {
                        measure(ts, Time::from_ns(s))
                            .map(|(d, _)| d.as_ns() - (sat.as_ns() + eps))
                            .unwrap_or(-eps)
                    };
                    math::bisect(g, lo, hi, self.config.skew_tol * 4.0)
                };
                let sr = knee(sat_r, 0.0, far.as_ns()).unwrap_or(0.0);
                let syr = knee(sat_l, -far.as_ns(), 0.0)
                    .map(|s| s.min(0.0))
                    .unwrap_or(0.0);
                sr_pts.push((ti, tj, sr.max(0.0)));
                syr_pts.push((ti, tj, syr));
            }
        }
        Ok(PairTiming {
            i,
            j,
            d0: D0Surface::fit(&d0_pts, "D0N")?,
            sr: Quad2::fit(&sr_pts, "SRN")?,
            syr: Quad2::fit(&syr_pts, "SYRN")?,
            t0: D0Surface::fit(&t0_pts, "t0N")?,
            sk_t_min: Quad2::fit(&skt_pts, "SK_tN")?,
        })
    }

    /// Locates a to-controlling V-shape knee by bisecting
    /// `delay(δ) − (d_single − ε)` on the positive (`positive_side`) or
    /// negative skew axis.
    fn find_knee(
        &self,
        pair: (usize, usize),
        ts: (Time, Time),
        d_single: Time,
        d0: Time,
        positive_side: bool,
    ) -> Time {
        let in_edge = self.sim.kind().ctrl_out_edge().inverted();
        let eps = (d_single - d0).as_ns().abs().max(1e-3) * self.config.knee_epsilon;
        let target = d_single.as_ns() - eps;
        let g = |s: f64| -> f64 {
            self.measure_pair(in_edge, pair, ts, Time::from_ns(s))
                .map(|m| m.delay.as_ns() - target)
                .unwrap_or(eps)
        };
        let (lo, hi, edge) = if positive_side {
            (0.0, self.config.max_skew, self.config.max_skew)
        } else {
            // Left flank: g(−max) ≈ +ε, g(0) < 0.
            (-self.config.max_skew, 0.0, -self.config.max_skew)
        };
        // No sign change: simultaneous switching never reached the
        // single-switch level inside the bracket; saturate at the bracket
        // edge.
        Time::from_ns(math::bisect(g, lo, hi, self.config.skew_tol).unwrap_or(edge))
    }

    /// Zero-skew floor for `k` simultaneous equal-`T` switches on positions
    /// `0..k`.
    fn characterize_kway(&self, k: usize) -> Result<Poly1, CellError> {
        let in_edge = self.sim.kind().ctrl_out_edge().inverted();
        let mut ds = Vec::with_capacity(self.config.t_grid.len());
        for &t in &self.config.t_grid {
            let tr = Transition::new(in_edge, Time::from_ns(2.0), Time::from_ns(t));
            let switching: Vec<(usize, Transition)> = (0..k).map(|p| (p, tr)).collect();
            let m = self.sim.measure_switching(&switching, self.ref_load)?;
            ds.push(m.delay.as_ns());
        }
        Poly1::fit(&self.config.t_grid, &ds, "k-way floor")
    }
}

/// The worker count that uses every available core.
pub(crate) fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Characterizes every cell of `chars` on `jobs` scoped workers and
/// returns one gate per characterizer, in the same order.
///
/// All the cells' units go into one queue that the workers drain through
/// an atomic cursor, so they stay busy even when cells are wildly uneven
/// (a NAND4's pair sweeps dwarf an inverter, and a NAND2's controlling
/// pair dwarfs its pin units). Every unit measures on a harness of its
/// own and [`Characterizer::assemble`] places results by their identity,
/// so the gates are bit-identical for every worker count.
///
/// # Errors
///
/// Returns the error of a failed unit.
pub(crate) fn characterize_cells(
    chars: &[Characterizer],
    jobs: usize,
) -> Result<Vec<CharacterizedGate>, CellError> {
    let queue: Vec<(usize, CharUnit)> = chars
        .iter()
        .enumerate()
        .flat_map(|(ci, ch)| ch.units().into_iter().map(move |u| (ci, u)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let worker = |w: usize| -> Result<Vec<(usize, UnitResult)>, CellError> {
        if ssdm_obs::enabled() {
            ssdm_obs::set_thread_label(format!("cells.worker.{w}"));
        }
        let _span = ssdm_obs::span("cells.worker");
        let units_done = ssdm_obs::counter("cells.sweep.units");
        let mut local = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(ci, unit)) = queue.get(idx) else {
                break;
            };
            local.push((ci, chars[ci].run_unit(unit)?));
            units_done.incr();
        }
        Ok(local)
    };
    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.clamp(1, queue.len().max(1)))
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("characterizer thread panicked"))
            .collect()
    });
    let mut per_cell: Vec<Vec<UnitResult>> = vec![Vec::new(); chars.len()];
    for r in per_worker {
        for (ci, result) in r? {
            per_cell[ci].push(result);
        }
    }
    Ok(chars
        .iter()
        .zip(per_cell)
        .map(|(ch, results)| ch.assemble(results))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::tests::pinned_library;
    use ssdm_core::Bound;

    /// A cell of the pinned fast library, which equals a cold
    /// `CharConfig::fast()` characterization
    /// (`cold_fast_library_matches_pinned_copy`).
    fn pinned(name: &str) -> &'static CharacterizedGate {
        pinned_library().get(name).expect("standard cell")
    }

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    fn ff(x: f64) -> Capacitance {
        Capacitance::from_ff(x)
    }

    #[test]
    fn rejects_tiny_grid() {
        let mut cfg = CharConfig::fast();
        cfg.t_grid = vec![0.5, 1.0];
        assert!(matches!(
            Characterizer::min_size("NAND2", GateKind::Nand, 2, cfg),
            Err(CellError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn nand2_characterization_matches_simulator() {
        let cell = pinned("NAND2");
        let load = cell.ref_load();
        let sim = &GateSim::nand(2);

        // Pin-to-pin delay model vs direct simulation at an off-grid T.
        let t = ns(0.45);
        let model = cell.pin_delay(Edge::Rise, 0, t, load).unwrap();
        let meas = sim.pin_to_pin(0, Edge::Fall, t, load).unwrap().delay;
        assert!(
            (model - meas).abs() < ns(0.02),
            "model {model} vs simulator {meas}"
        );

        // Zero-skew simultaneous delay.
        let v = cell.vshape_delay(0, 1, t, t, load).unwrap();
        let m0 = {
            let tr = Transition::new(Edge::Fall, ns(2.0), t);
            sim.measure_switching(&[(0, tr), (1, tr)], load)
                .unwrap()
                .delay
        };
        assert!(
            (v.vertex().1 - m0).abs() < ns(0.02),
            "D0 model {} vs simulator {m0}",
            v.vertex().1
        );
        // The vertex must be a real speed-up over the knees.
        assert!(v.vertex().1 < v.right_knee().1);
        assert!(v.vertex().1 < v.left_knee().1);
        // Knees at plausible skews.
        assert!(v.right_knee().0 > ns(0.05) && v.right_knee().0 < ns(3.5));
        assert!(v.left_knee().0 < ns(-0.05) && v.left_knee().0 > ns(-3.5));
    }

    #[test]
    fn nand2_vshape_tracks_simulator_across_skews() {
        let cell = pinned("NAND2");
        let load = cell.ref_load();
        let sim = GateSim::nand(2);
        let t = ns(0.5);
        let mut worst = Time::ZERO;
        for s in [-1.2, -0.4, -0.15, 0.0, 0.1, 0.25, 0.6, 1.5] {
            let skew = ns(s);
            let model = cell.vshape_delay(0, 1, t, t, load).unwrap().eval(skew);
            let tr_i = Transition::new(Edge::Fall, ns(2.0), t);
            let tr_j = Transition::new(Edge::Fall, ns(2.0) + skew, t);
            let meas = sim
                .measure_switching(&[(0, tr_i), (1, tr_j)], load)
                .unwrap()
                .delay;
            worst = worst.max((model - meas).abs());
        }
        assert!(worst < ns(0.035), "worst V-shape error {worst}");
    }

    /// `name`'s block of the pinned fast library, from its `cell` line to
    /// its `end` line.
    fn pinned_block(name: &str) -> &'static str {
        let text = include_str!("../../../perfbench/data/library-fast.txt");
        let start = text.find(&format!("\ncell {name} ")).expect("pinned cell") + 1;
        let len = text[start..].find("\nend\n").expect("terminated cell") + "\nend\n".len();
        &text[start..start + len]
    }

    /// `cell` printed as a library block, without the library's header
    /// line.
    fn block_of(cell: &CharacterizedGate) -> String {
        let mut lib = crate::CellLibrary::new();
        lib.insert(cell.clone());
        let text = lib.to_text();
        text.split_once('\n').expect("header line").1.to_string()
    }

    #[test]
    /// The one `Characterizer::characterize` in the unit tests (its units
    /// run on every core): a cold INV prints byte for byte as the pinned
    /// copy's INV block.
    fn inverter_has_no_pairs() {
        let ch = Characterizer::min_size("INV", GateKind::Inv, 1, CharConfig::fast()).unwrap();
        let cell = ch.characterize().unwrap();
        assert_eq!(
            block_of(&cell),
            pinned_block("INV"),
            "cold INV differs from the pinned copy"
        );
        assert!(cell.pairs().is_empty());
        assert!(cell.kway_fits().is_empty());
        let d = cell
            .pin_delay(Edge::Fall, 0, ns(0.5), cell.ref_load())
            .unwrap();
        assert!(d > Time::ZERO);
    }

    #[test]
    /// A NAND2 (pin, pair and Miller units) characterized on one worker and
    /// on three prints the same bytes, equal to its pinned block.
    fn nand2_is_identical_at_any_worker_count() {
        let ch = [Characterizer::min_size("NAND2", GateKind::Nand, 2, CharConfig::fast()).unwrap()];
        for jobs in [1, 3] {
            let cells = characterize_cells(&ch, jobs).unwrap();
            assert_eq!(cells.len(), 1);
            assert_eq!(
                block_of(&cells[0]),
                pinned_block("NAND2"),
                "NAND2 on {jobs} worker(s) differs from the pinned copy"
            );
        }
    }

    #[test]
    fn nand3_kway_floor_is_below_pairwise() {
        let cell = pinned("NAND3");
        let t = ns(0.7);
        let floor3 = cell.kway_floor(3, t).unwrap();
        let floor2 = cell.kway_floor(2, t).unwrap();
        // Three parallel charge paths beat two.
        assert!(floor3 < floor2, "3-way {floor3} vs 2-way {floor2}");
        // And the 2-way floor beats single-switch.
        let single = cell
            .pin_delay(cell.ctrl_out_edge(), 0, t, cell.ref_load())
            .unwrap();
        assert!(floor2 < single);
    }

    #[test]
    fn vshape_min_over_unbounded_is_vertex() {
        let cell = pinned("NAND2");
        let v = cell
            .vshape_delay(0, 1, ns(0.5), ns(0.9), cell.ref_load())
            .unwrap();
        let (s, val) = v.argmin_over(Bound::unbounded());
        assert_eq!(s, Time::ZERO, "Claim 1: minimum at zero skew");
        assert_eq!(val, v.vertex().1);
    }

    #[test]
    fn unit_decomposition_covers_the_serial_sweep() {
        let ch = Characterizer::min_size("NAND3", GateKind::Nand, 3, CharConfig::fast()).unwrap();
        let units = ch.units();
        // 2 edges × 3 pins + 3 ctrl pairs + 3 Miller pairs + one 3-way floor.
        assert_eq!(units.len(), 6 + 3 + 3 + 1);
        let pins = units
            .iter()
            .filter(|u| matches!(u, CharUnit::Pin { .. }))
            .count();
        assert_eq!(pins, 6);
        assert!(units.contains(&CharUnit::Kway { k: 3 }));
        // Pairs are emitted i < j.
        for u in &units {
            if let CharUnit::Pair { i, j } | CharUnit::NonctrlPair { i, j } = u {
                assert!(i < j);
            }
        }
    }

    #[test]
    fn load_slope_is_positive() {
        let cell = pinned("NAND2");
        let light = cell.pin_delay(Edge::Rise, 0, ns(0.5), ff(9.0)).unwrap();
        let heavy = cell.pin_delay(Edge::Rise, 0, ns(0.5), ff(36.0)).unwrap();
        assert!(heavy > light);
    }
}
