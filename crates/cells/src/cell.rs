//! A characterized cell: every fitted timing artifact for one gate.

use ssdm_core::{Capacitance, CoreError, Edge, Time, VShape};
use ssdm_spice::GateKind;

use crate::error::CellError;
use crate::fit::{D0Surface, Poly1, Quad2};

/// Pin-to-pin timing for one (output edge, input position): fitted
/// quadratics at the reference load plus linear load slopes (the paper
/// treats delay as linear in load, Section 3.6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PinTiming {
    /// Delay `d(T)` at the reference load.
    pub delay: Poly1,
    /// Output transition time `t(T)` at the reference load.
    pub ttime: Poly1,
    /// Delay increase per fF of extra load (ns/fF).
    pub delay_load_slope: f64,
    /// Output-transition-time increase per fF of extra load (ns/fF).
    pub ttime_load_slope: f64,
}

/// Simultaneous-switching timing for one ordered input pair `(i, j)` with
/// `i < j`, valid for the gate's to-controlling response edge.
///
/// Skew convention matches the paper: `δ = A_j − A_i` (positive when the
/// higher-position... no — when input `j` lags input `i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTiming {
    /// First input position.
    pub i: usize,
    /// Second input position.
    pub j: usize,
    /// Zero-skew simultaneous delay surface `D0(T_i, T_j)`.
    pub d0: D0Surface,
    /// Right knee `SR(T_i, T_j) > 0`: the skew beyond which a lagging `j`
    /// no longer affects the delay.
    pub sr: Quad2,
    /// Left knee `SYR(T_i, T_j) < 0`: the (negative) skew beyond which a
    /// leading `j` alone determines the delay.
    pub syr: Quad2,
    /// Output transition time at its optimum skew, `t0(T_i, T_j)`.
    pub t0: D0Surface,
    /// The skew minimizing the output transition time,
    /// `SK_{t,min}(T_i, T_j)` — the paper's (possibly non-zero) `S0` for
    /// transition time.
    pub sk_t_min: Quad2,
}

/// One input's clamped transition-time corner with what every pair
/// V-shape through it needs: the corner's cube root and the
/// to-controlling pin delay and output transition time at one load.
/// Built by [`CharacterizedGate::pin_corner`]; the default value
/// (position 0 at a zero transition time) only fills fixed-capacity
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PinCorner {
    position: usize,
    t: Time,
    cbrt: f64,
    delay: Time,
    ttime: Time,
}

/// A fully characterized gate.
///
/// Indexing conventions: output edges use [`Edge::index`]; input positions
/// follow the paper's Figure 3 (0 adjacent to the output).
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizedGate {
    name: String,
    kind: GateKind,
    n: usize,
    wn_um: f64,
    wp_um: f64,
    ref_load_ff: f64,
    input_cap_ff: f64,
    t_lo: Time,
    t_hi: Time,
    /// `pins[edge.index()][position]`.
    pins: [Vec<PinTiming>; 2],
    /// Pairwise simultaneous timing, to-controlling response.
    pairs: Vec<PairTiming>,
    /// Pairwise simultaneous timing, **to-non-controlling** response (the
    /// Miller-effect slowdown — Section 3.6 extension). May be empty when
    /// characterization skipped it.
    npairs: Vec<PairTiming>,
    /// `kway[k - 3]` is the zero-skew floor for `k` simultaneous switches
    /// of equal transition time on positions `0..k`.
    kway: Vec<Poly1>,
}

impl CharacterizedGate {
    /// Assembles a characterized gate.
    ///
    /// # Panics
    ///
    /// Panics if the pin tables do not have exactly `n` entries per edge,
    /// if a pair references an out-of-range position or has `i >= j`, or if
    /// `kway` has more than `n − 2` entries — these indicate a
    /// characterizer bug, not user error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: String,
        kind: GateKind,
        n: usize,
        wn_um: f64,
        wp_um: f64,
        ref_load_ff: f64,
        input_cap_ff: f64,
        t_range: (Time, Time),
        pins: [Vec<PinTiming>; 2],
        pairs: Vec<PairTiming>,
        npairs: Vec<PairTiming>,
        kway: Vec<Poly1>,
    ) -> CharacterizedGate {
        assert!(
            pins[0].len() == n && pins[1].len() == n,
            "pin table size mismatch"
        );
        for p in pairs.iter().chain(&npairs) {
            assert!(p.i < p.j && p.j < n, "bad pair ({}, {})", p.i, p.j);
        }
        assert!(kway.len() <= n.saturating_sub(2), "too many k-way floors");
        assert!(t_range.0 < t_range.1, "empty characterized range");
        CharacterizedGate {
            name,
            kind,
            n,
            wn_um,
            wp_um,
            ref_load_ff,
            input_cap_ff,
            t_lo: t_range.0,
            t_hi: t_range.1,
            pins,
            pairs,
            npairs,
            kway,
        }
    }

    /// Cell name (e.g. `"NAND2"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Number of inputs.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n
    }

    /// NMOS width (µm) of the characterized instance.
    pub fn wn_um(&self) -> f64 {
        self.wn_um
    }

    /// PMOS width (µm) of the characterized instance.
    pub fn wp_um(&self) -> f64 {
        self.wp_um
    }

    /// The load at which the base fits were taken.
    pub fn ref_load(&self) -> Capacitance {
        Capacitance::from_ff(self.ref_load_ff)
    }

    /// Input capacitance one pin of this cell presents to its driver.
    #[inline]
    pub fn input_cap(&self) -> Capacitance {
        Capacitance::from_ff(self.input_cap_ff)
    }

    /// The characterized transition-time range; queries are clamped to it.
    pub fn t_range(&self) -> (Time, Time) {
        (self.t_lo, self.t_hi)
    }

    /// The output edge of the gate's to-controlling response (rising for
    /// NAND, falling for NOR; see [`GateKind::ctrl_out_edge`]).
    #[inline]
    pub fn ctrl_out_edge(&self) -> Edge {
        self.kind.ctrl_out_edge()
    }

    /// Raw pin-timing record.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] for an out-of-range position.
    #[inline]
    pub fn pin(&self, out_edge: Edge, position: usize) -> Result<&PinTiming, CellError> {
        self.pins[out_edge.index()]
            .get(position)
            .ok_or(CellError::BadPin {
                pin: position,
                n: self.n,
            })
    }

    /// Clamps a queried transition time into the characterized range, per
    /// the standard library-characterization practice.
    #[inline]
    pub fn clamp_t(&self, t: Time) -> Time {
        t.clamp(self.t_lo, self.t_hi)
    }

    /// Pin-to-pin delay `d^Z_{X,tr}(T)` at an arbitrary load.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] for an out-of-range position.
    #[inline]
    pub fn pin_delay(
        &self,
        out_edge: Edge,
        position: usize,
        t_in: Time,
        load: Capacitance,
    ) -> Result<Time, CellError> {
        let p = self.pin(out_edge, position)?;
        let base = p.delay.eval(self.clamp_t(t_in));
        Ok(base + Time::from_ns(p.delay_load_slope * (load.as_ff() - self.ref_load_ff)))
    }

    /// Pin-to-pin output transition time `t^Z_{X,tr}(T)` at a load.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] for an out-of-range position.
    #[inline]
    pub fn pin_ttime(
        &self,
        out_edge: Edge,
        position: usize,
        t_in: Time,
        load: Capacitance,
    ) -> Result<Time, CellError> {
        let p = self.pin(out_edge, position)?;
        let base = p.ttime.eval(self.clamp_t(t_in));
        Ok(base + Time::from_ns(p.ttime_load_slope * (load.as_ff() - self.ref_load_ff)))
    }

    /// The pairwise simultaneous record for positions `(i, j)` (order
    /// normalized), or `None` when the pair was not characterized (e.g.
    /// single-input gates).
    #[inline]
    pub fn pair(&self, a: usize, b: usize) -> Option<&PairTiming> {
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        self.pairs.iter().find(|p| p.i == i && p.j == j)
    }

    /// All characterized pairs.
    pub fn pairs(&self) -> &[PairTiming] {
        &self.pairs
    }

    /// The pairwise **to-non-controlling** record for positions `(a, b)`
    /// (order normalized), or `None` when not characterized.
    pub fn npair(&self, a: usize, b: usize) -> Option<&PairTiming> {
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        self.npairs.iter().find(|p| p.i == i && p.j == j)
    }

    /// All characterized to-non-controlling pairs.
    pub fn npairs(&self) -> &[PairTiming] {
        &self.npairs
    }

    /// The delay **Λ-shape** for simultaneous to-non-controlling
    /// transitions on positions `(i, j)`: delay (from the **latest**
    /// arrival) peaks at `(0, D0N)` from the Miller effect and decays to
    /// the single-switch pin delays beyond the knees. Skew is
    /// `δ = A_j − A_i`; for `δ ≫ 0` input `j` is last and its pin delay
    /// applies.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] when the pair was not characterized.
    pub fn vshape_nonctrl_delay(
        &self,
        i: usize,
        j: usize,
        t_i: Time,
        t_j: Time,
        load: Capacitance,
    ) -> Result<VShape, CellError> {
        let out_edge = self.ctrl_out_edge().inverted();
        let pair = self.npair(i, j).ok_or(CellError::BadPin {
            pin: j.max(i),
            n: self.n,
        })?;
        let mirrored = i > j;
        let (ti_n, tj_n) = if mirrored { (t_j, t_i) } else { (t_i, t_j) };
        let (ti_c, tj_c) = (self.clamp_t(ti_n), self.clamp_t(tj_n));
        // δ ≫ 0: j is the last (release) input; δ ≪ 0: i is.
        let d_i = self.pin_delay(out_edge, pair.i, ti_c, load)?;
        let d_j = self.pin_delay(out_edge, pair.j, tj_c, load)?;
        let dload = self.pair_load_term(out_edge, pair, load, |p| p.delay_load_slope);
        let d0n = pair.d0.eval(ti_c, tj_c) + dload;
        let (sr, syr) = knees(pair, ti_c, tj_c);
        let v = make_vshape((syr, d_i), (Time::ZERO, d0n), (sr, d_j))?;
        Ok(if mirrored { v.mirrored() } else { v })
    }

    /// The output transition time at zero skew for a simultaneous
    /// to-non-controlling pair (slower than either single switch).
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] when the pair was not characterized.
    pub fn nonctrl_ttime_peak(
        &self,
        i: usize,
        j: usize,
        t_i: Time,
        t_j: Time,
    ) -> Result<Time, CellError> {
        let pair = self.npair(i, j).ok_or(CellError::BadPin {
            pin: j.max(i),
            n: self.n,
        })?;
        let (ti_n, tj_n) = if i > j { (t_j, t_i) } else { (t_i, t_j) };
        Ok(pair.t0.eval(self.clamp_t(ti_n), self.clamp_t(tj_n)))
    }

    /// The delay V-shape for simultaneous to-controlling transitions on
    /// positions `(i, j)` with transition times `(t_i, t_j)` at `load`:
    /// vertex `(0, D0)`, right knee `(SR, DR_i)`, left knee `(SYR, DYR_j)`.
    /// Skew is `δ = A_j − A_i`.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] when the pair was not characterized.
    pub fn vshape_delay(
        &self,
        i: usize,
        j: usize,
        t_i: Time,
        t_j: Time,
        load: Capacitance,
    ) -> Result<VShape, CellError> {
        let ([[v]], _) = self.pair_vshapes_at(
            &[self.pin_corner(i, t_i, load)?],
            &[self.pin_corner(j, t_j, load)?],
            load,
        )?;
        Ok(v)
    }

    /// Prepares input `position`'s transition-time corner `t_in` for
    /// [`CharacterizedGate::pair_vshapes_at`]: the clamped corner, its cube
    /// root and the to-controlling pin delay and transition time there at
    /// `load`. A gate evaluation builds each corner once and shares it
    /// between every pair V-shape that uses it.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] for an out-of-range position.
    #[inline]
    pub fn pin_corner(
        &self,
        position: usize,
        t_in: Time,
        load: Capacitance,
    ) -> Result<PinCorner, CellError> {
        let t = self.clamp_t(t_in);
        let edge = self.ctrl_out_edge();
        Ok(PinCorner {
            position,
            t,
            cbrt: t.as_ns().cbrt(),
            delay: self.pin_delay(edge, position, t, load)?,
            ttime: self.pin_ttime(edge, position, t, load)?,
        })
    }

    /// Every V-shape a to-controlling gate evaluation searches for the
    /// input pair `(a, b)`, from each input's transition-time corners
    /// prepared by [`CharacterizedGate::pin_corner`] at `load` (the STA
    /// kernel passes `[S, L]`, a single response one corner each): the
    /// delay shapes `delay[ci][cj]` of corners `a[ci]` and `b[cj]`, and the
    /// transition-time shape at the first corners `(a[0], b[0])`.
    ///
    /// This is the one construction of a to-controlling pair's V-shapes;
    /// [`CharacterizedGate::vshape_delay`] and
    /// [`CharacterizedGate::vshape_ttime`] are its one-corner cases. The
    /// pair is looked up and each load term computed once for all the
    /// shapes, and the transition-time shape shares the `(a[0], b[0])`
    /// delay shape's knees.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] when the pair was not characterized.
    ///
    /// # Panics
    ///
    /// Panics if `N` is 0.
    #[inline]
    pub fn pair_vshapes_at<const N: usize>(
        &self,
        a: &[PinCorner; N],
        b: &[PinCorner; N],
        load: Capacitance,
    ) -> Result<([[VShape; N]; N], VShape), CellError> {
        if a[0].position > b[0].position {
            let (delay, ttime) = self.pair_vshapes_at(b, a, load)?;
            let delay =
                std::array::from_fn(|ci| std::array::from_fn(|cj| delay[cj][ci].mirrored()));
            return Ok((delay, ttime.mirrored()));
        }
        let pair = self
            .pair(a[0].position, b[0].position)
            .ok_or(CellError::BadPin {
                pin: b[0].position,
                n: self.n,
            })?;
        let edge = self.ctrl_out_edge();
        let dload = self.pair_load_term(edge, pair, load, |p| p.delay_load_slope);
        let first_knees = knees(pair, a[0].t, b[0].t);
        let mut delay = [[VShape::flat(Time::ZERO); N]; N];
        for (ci, i) in a.iter().enumerate() {
            for (cj, j) in b.iter().enumerate() {
                let knees = if ci == 0 && cj == 0 {
                    first_knees
                } else {
                    knees(pair, i.t, j.t)
                };
                delay[ci][cj] = delay_vshape(pair, knees, dload, i, j)?;
            }
        }
        let tload = self.pair_load_term(edge, pair, load, |p| p.ttime_load_slope);
        let ttime = ttime_vshape(pair, first_knees, tload, &a[0], &b[0])?;
        Ok((delay, ttime))
    }

    /// The output-transition-time V-shape for the same pair: vertex at
    /// `(SK_{t,min}, t0)` (possibly non-zero skew), knees at the pin
    /// transition times.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] when the pair was not characterized.
    pub fn vshape_ttime(
        &self,
        i: usize,
        j: usize,
        t_i: Time,
        t_j: Time,
        load: Capacitance,
    ) -> Result<VShape, CellError> {
        let (_, v) = self.pair_vshapes_at(
            &[self.pin_corner(i, t_i, load)?],
            &[self.pin_corner(j, t_j, load)?],
            load,
        )?;
        Ok(v)
    }

    /// The zero-skew floor delay for `k ≥ 2` simultaneous switches of
    /// equal transition time `t` (positions `0..k`), at the reference
    /// load. For `k = 2` this is the `D0` diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::BadPin`] when `k` is out of range or the floor
    /// was not characterized.
    #[inline]
    pub fn kway_floor(&self, k: usize, t: Time) -> Result<Time, CellError> {
        let tc = self.clamp_t(t);
        match k {
            2 => {
                let pair = self
                    .pair(0, 1)
                    .ok_or(CellError::BadPin { pin: 1, n: self.n })?;
                let x = tc.as_ns().cbrt();
                Ok(pair.d0.eval_cbrt(x, x))
            }
            k if k >= 3 && k <= self.n => self
                .kway
                .get(k - 3)
                .map(|p| p.eval(tc))
                .ok_or(CellError::BadPin { pin: k, n: self.n }),
            _ => Err(CellError::BadPin { pin: k, n: self.n }),
        }
    }

    /// The k-way floor fits (serialization support).
    pub fn kway_fits(&self) -> &[Poly1] {
        &self.kway
    }

    /// A pair's load term on `edge`: the mean of its two pins' `slope`
    /// times the load's offset from the reference load.
    #[inline]
    fn pair_load_term(
        &self,
        edge: Edge,
        pair: &PairTiming,
        load: Capacitance,
        slope: impl Fn(&PinTiming) -> f64,
    ) -> Time {
        let pins = &self.pins[edge.index()];
        Time::from_ns(
            0.5 * (slope(&pins[pair.i]) + slope(&pins[pair.j])) * (load.as_ff() - self.ref_load_ff),
        )
    }
}

/// A pair's V-shape knees `(SR, SYR)` at clamped corners in its
/// normalized orientation, `SR ≥ 0 ≥ SYR`.
#[inline]
fn knees(pair: &PairTiming, ti: Time, tj: Time) -> (Time, Time) {
    (
        pair.sr.eval(ti, tj).max(Time::ZERO),
        pair.syr.eval(ti, tj).min(Time::ZERO),
    )
}

/// The delay V-shape of `pair` (normalized orientation) at corners `i`
/// and `j` with knees `(SR, SYR)` and delay load term `dload`: vertex
/// `(0, D0 + dload)`, left knee `(SYR, d_j)`, right knee `(SR, d_i)`.
#[inline]
fn delay_vshape(
    pair: &PairTiming,
    (sr, syr): (Time, Time),
    dload: Time,
    i: &PinCorner,
    j: &PinCorner,
) -> Result<VShape, CellError> {
    let d0 = pair.d0.eval_cbrt(i.cbrt, j.cbrt) + dload;
    make_vshape((syr, j.delay), (Time::ZERO, d0), (sr, i.delay))
}

/// The transition-time V-shape of `pair` (normalized orientation) at
/// corners `i` and `j` with knees `(SR, SYR)` and transition-time load
/// term `tload`: vertex `(SK_{t,min}, t0 + tload)`, the vertex skew
/// clamped between the knees, and the pin transition times at the knees.
#[inline]
fn ttime_vshape(
    pair: &PairTiming,
    (sr, syr): (Time, Time),
    tload: Time,
    i: &PinCorner,
    j: &PinCorner,
) -> Result<VShape, CellError> {
    let t0 = pair.t0.eval_cbrt(i.cbrt, j.cbrt) + tload;
    let s0 = pair.sk_t_min.eval(i.t, j.t).clamp(syr, sr);
    make_vshape((syr, j.ttime), (s0, t0), (sr, i.ttime))
}

/// Builds a V-shape, repairing the knee ordering if curve-fit noise pushed
/// a knee across zero.
#[inline]
fn make_vshape(
    left: (Time, Time),
    vertex: (Time, Time),
    right: (Time, Time),
) -> Result<VShape, CellError> {
    let l = (left.0.min(vertex.0), left.1);
    let r = (right.0.max(vertex.0), right.1);
    VShape::new(l, vertex, r).map_err(|_: CoreError| CellError::SingularFit {
        what: "v-shape assembly",
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    /// A hand-built NAND2 characterization with analytically convenient
    /// numbers.
    pub(crate) fn toy_nand2() -> CharacterizedGate {
        let delay0 = Poly1 { k: [0.0, 0.1, 0.1] }; // d = 0.1T + 0.1
        let delay1 = Poly1 {
            k: [0.0, 0.1, 0.12],
        }; // slightly slower at pos 1
        let ttime = Poly1 {
            k: [0.0, 0.3, 0.15],
        };
        let mk = |d: Poly1| PinTiming {
            delay: d,
            ttime,
            delay_load_slope: 0.01,
            ttime_load_slope: 0.02,
        };
        let pair = PairTiming {
            i: 0,
            j: 1,
            d0: D0Surface {
                k: [0.0, 0.0, 0.0, 0.08],
            }, // constant 0.08
            sr: Quad2 {
                k: [0.0, 0.0, 0.0, 0.0, 0.0, 0.3],
            }, // constant +0.3
            syr: Quad2 {
                k: [0.0, 0.0, 0.0, 0.0, 0.0, -0.25],
            },
            t0: D0Surface {
                k: [0.0, 0.0, 0.0, 0.12],
            },
            sk_t_min: Quad2 {
                k: [0.0, 0.0, 0.0, 0.0, 0.0, 0.05],
            },
        };
        // A to-non-controlling record: peak 0.25 at zero skew, decaying to
        // the pin delays within ±0.2 ns.
        let npair = PairTiming {
            i: 0,
            j: 1,
            d0: D0Surface {
                k: [0.0, 0.0, 0.0, 0.25],
            },
            sr: Quad2 {
                k: [0.0, 0.0, 0.0, 0.0, 0.0, 0.2],
            },
            syr: Quad2 {
                k: [0.0, 0.0, 0.0, 0.0, 0.0, -0.2],
            },
            t0: D0Surface {
                k: [0.0, 0.0, 0.0, 0.4],
            },
            sk_t_min: Quad2 { k: [0.0; 6] },
        };
        CharacterizedGate::new(
            "NAND2".into(),
            GateKind::Nand,
            2,
            1.5,
            3.0,
            9.0,
            9.0,
            (ns(0.1), ns(2.0)),
            [vec![mk(delay0), mk(delay1)], vec![mk(delay0), mk(delay1)]],
            vec![pair],
            vec![npair],
            vec![],
        )
    }

    #[test]
    fn pin_delay_with_load_scaling() {
        let g = toy_nand2();
        let at_ref = g
            .pin_delay(Edge::Rise, 0, ns(0.5), Capacitance::from_ff(9.0))
            .unwrap();
        assert!((at_ref.as_ns() - 0.15).abs() < 1e-12);
        let heavy = g
            .pin_delay(Edge::Rise, 0, ns(0.5), Capacitance::from_ff(19.0))
            .unwrap();
        assert!((heavy.as_ns() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ttime_query_and_clamping() {
        let g = toy_nand2();
        // T = 5 ns clamps to the characterized maximum of 2 ns.
        let tt = g
            .pin_ttime(Edge::Rise, 0, ns(5.0), Capacitance::from_ff(9.0))
            .unwrap();
        assert!((tt.as_ns() - (0.3 * 2.0 + 0.15)).abs() < 1e-12);
    }

    #[test]
    fn bad_pin_is_reported() {
        let g = toy_nand2();
        assert!(matches!(
            g.pin_delay(Edge::Rise, 5, ns(0.5), Capacitance::from_ff(9.0)),
            Err(CellError::BadPin { pin: 5, .. })
        ));
    }

    #[test]
    fn vshape_delay_assembly() {
        let g = toy_nand2();
        let v = g
            .vshape_delay(0, 1, ns(0.5), ns(0.5), Capacitance::from_ff(9.0))
            .unwrap();
        assert_eq!(v.vertex().0, Time::ZERO);
        assert!((v.vertex().1.as_ns() - 0.08).abs() < 1e-12);
        // Right knee: X-only pin-to-pin = 0.15; left knee: Y pin = 0.17.
        assert!((v.right_knee().1.as_ns() - 0.15).abs() < 1e-12);
        assert!((v.left_knee().1.as_ns() - 0.17).abs() < 1e-12);
        assert!((v.right_knee().0.as_ns() - 0.3).abs() < 1e-12);
        assert!((v.left_knee().0.as_ns() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn vshape_delay_mirrored_orientation() {
        let g = toy_nand2();
        let v = g
            .vshape_delay(0, 1, ns(0.5), ns(1.0), Capacitance::from_ff(9.0))
            .unwrap();
        let m = g
            .vshape_delay(1, 0, ns(1.0), ns(0.5), Capacitance::from_ff(9.0))
            .unwrap();
        // Mirrored: v(δ) == m(−δ).
        for d in [-0.4, -0.1, 0.0, 0.2, 0.5] {
            assert!((v.eval(ns(d)) - m.eval(ns(-d))).abs() < ns(1e-12));
        }
    }

    #[test]
    fn unknown_pair_reports_the_out_of_range_pin_in_both_orientations() {
        let g = toy_nand2();
        let (t, load) = (ns(0.5), Capacitance::from_ff(9.0));
        for (i, j) in [(0, 5), (5, 0)] {
            assert!(matches!(
                g.vshape_delay(i, j, t, t, load),
                Err(CellError::BadPin { pin: 5, n: 2 })
            ));
            assert!(matches!(
                g.vshape_ttime(i, j, t, t, load),
                Err(CellError::BadPin { pin: 5, n: 2 })
            ));
        }
    }

    #[test]
    fn vshape_ttime_has_offset_vertex() {
        let g = toy_nand2();
        let v = g
            .vshape_ttime(0, 1, ns(0.5), ns(0.5), Capacitance::from_ff(9.0))
            .unwrap();
        assert!((v.vertex().0.as_ns() - 0.05).abs() < 1e-12);
        assert!((v.vertex().1.as_ns() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn kway_floor_k2_uses_d0_diagonal() {
        let g = toy_nand2();
        assert!((g.kway_floor(2, ns(0.7)).unwrap().as_ns() - 0.08).abs() < 1e-12);
        assert!(g.kway_floor(3, ns(0.7)).is_err());
        assert!(g.kway_floor(1, ns(0.7)).is_err());
    }

    #[test]
    fn metadata_accessors() {
        let g = toy_nand2();
        assert_eq!(g.name(), "NAND2");
        assert_eq!(g.kind(), GateKind::Nand);
        assert_eq!(g.n_inputs(), 2);
        assert_eq!(g.ctrl_out_edge(), Edge::Rise);
        assert_eq!(g.ref_load().as_ff(), 9.0);
        assert_eq!(g.input_cap().as_ff(), 9.0);
        assert_eq!(g.t_range(), (ns(0.1), ns(2.0)));
        assert_eq!(g.pairs().len(), 1);
        assert!(g.pair(1, 0).is_some(), "order-normalized lookup");
    }

    /// The pinned fast-grid library (parsed, not characterized).
    pub(crate) fn pinned_library() -> &'static crate::CellLibrary {
        static LIB: std::sync::OnceLock<crate::CellLibrary> = std::sync::OnceLock::new();
        LIB.get_or_init(|| {
            crate::CellLibrary::from_text(include_str!("../../../perfbench/data/library-fast.txt"))
                .expect("pinned library parses")
        })
    }

    /// `vshape_delay` as it was built before it became a one-corner case
    /// of `pair_vshapes_at`: the reference the single construction is
    /// pinned to.
    fn reference_vshape_delay(
        g: &CharacterizedGate,
        i: usize,
        j: usize,
        t_i: Time,
        t_j: Time,
        load: Capacitance,
    ) -> Result<VShape, CellError> {
        let out_edge = g.ctrl_out_edge();
        let pair = g.pair(i, j).ok_or(CellError::BadPin {
            pin: j.max(i),
            n: g.n,
        })?;
        let mirrored = i > j;
        let (ti_n, tj_n) = if mirrored { (t_j, t_i) } else { (t_i, t_j) };
        let (ti_c, tj_c) = (g.clamp_t(ti_n), g.clamp_t(tj_n));
        let d_i = g.pin_delay(out_edge, pair.i, ti_c, load)?;
        let d_j = g.pin_delay(out_edge, pair.j, tj_c, load)?;
        let dload = g.pair_load_term(out_edge, pair, load, |p| p.delay_load_slope);
        let d0 = pair.d0.eval(ti_c, tj_c) + dload;
        let (sr, syr) = knees(pair, ti_c, tj_c);
        let v = make_vshape((syr, d_j), (Time::ZERO, d0), (sr, d_i))?;
        Ok(if mirrored { v.mirrored() } else { v })
    }

    /// `vshape_ttime` as it was built before it became a one-corner case
    /// of `pair_vshapes_at`.
    fn reference_vshape_ttime(
        g: &CharacterizedGate,
        i: usize,
        j: usize,
        t_i: Time,
        t_j: Time,
        load: Capacitance,
    ) -> Result<VShape, CellError> {
        let out_edge = g.ctrl_out_edge();
        let pair = g.pair(i, j).ok_or(CellError::BadPin {
            pin: j.max(i),
            n: g.n,
        })?;
        let mirrored = i > j;
        let (ti_n, tj_n) = if mirrored { (t_j, t_i) } else { (t_i, t_j) };
        let (ti_c, tj_c) = (g.clamp_t(ti_n), g.clamp_t(tj_n));
        let tt_i = g.pin_ttime(out_edge, pair.i, ti_c, load)?;
        let tt_j = g.pin_ttime(out_edge, pair.j, tj_c, load)?;
        let tload = g.pair_load_term(out_edge, pair, load, |p| p.ttime_load_slope);
        let t0 = pair.t0.eval(ti_c, tj_c) + tload;
        let (sr, syr) = knees(pair, ti_c, tj_c);
        let s0 = pair.sk_t_min.eval(ti_c, tj_c).clamp(syr, sr);
        let v = make_vshape((syr, tt_j), (s0, t0), (sr, tt_i))?;
        Ok(if mirrored { v.mirrored() } else { v })
    }

    fn shape_bits(v: &VShape) -> [u64; 6] {
        let [(a, b), (c, d), (e, f)] = [v.left_knee(), v.vertex(), v.right_knee()];
        [a, b, c, d, e, f].map(|t| t.as_ns().to_bits())
    }

    proptest::proptest! {
        /// The one construction against the reference: the kernel's
        /// two-corner shapes and the one-corner `vshape_delay` /
        /// `vshape_ttime`. Corners outside `t_range` exercise the clamp
        /// before the cube root; loads away from `ref_load` exercise the
        /// load terms; both pin orders exercise the mirrored orientation.
        #[test]
        fn pair_vshapes_at_is_bit_identical(
            cell in 0usize..6,
            i in 0usize..4,
            offset in 0usize..3,
            t_a_s in 0.0f64..2.5,
            t_a_l in 0.0f64..2.5,
            t_b_s in 0.0f64..2.5,
            t_b_l in 0.0f64..2.5,
            load in 1.0f64..40.0,
        ) {
            let (t_a, t_b) = ([t_a_s, t_a_l], [t_b_s, t_b_l]);
            let name = ["NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4"][cell];
            let g = pinned_library().get(name).expect("standard cell");
            let n = g.n_inputs();
            let (i, j) = (i % n, (i % n + 1 + offset % (n - 1)) % n);
            let load = Capacitance::from_ff(load);
            let a = t_a.map(|t| g.pin_corner(i, ns(t), load).unwrap());
            let b = t_b.map(|t| g.pin_corner(j, ns(t), load).unwrap());
            let (delay, ttime) = g.pair_vshapes_at(&a, &b, load).unwrap();
            for (ci, cj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let (t_i, t_j) = (ns(t_a[ci]), ns(t_b[cj]));
                let want = reference_vshape_delay(g, i, j, t_i, t_j, load).unwrap();
                proptest::prop_assert_eq!(
                    shape_bits(&delay[ci][cj]), shape_bits(&want),
                    "{} ({}, {}) corner ({}, {})", name, i, j, ci, cj
                );
                let one = g.vshape_delay(i, j, t_i, t_j, load).unwrap();
                proptest::prop_assert_eq!(shape_bits(&one), shape_bits(&want), "{} ({}, {}) one corner", name, i, j);
                let want = reference_vshape_ttime(g, i, j, t_i, t_j, load).unwrap();
                let one = g.vshape_ttime(i, j, t_i, t_j, load).unwrap();
                proptest::prop_assert_eq!(shape_bits(&one), shape_bits(&want), "{} ({}, {}) one ttime", name, i, j);
            }
            let want = reference_vshape_ttime(g, i, j, ns(t_a[0]), ns(t_b[0]), load).unwrap();
            proptest::prop_assert_eq!(shape_bits(&ttime), shape_bits(&want), "{} ({}, {}) ttime", name, i, j);
        }

        /// The two-way floor takes its one cube root once.
        #[test]
        fn kway_floor_is_the_d0_diagonal(cell in 0usize..6, t in 0.0f64..2.5) {
            let name = ["NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4"][cell];
            let g = pinned_library().get(name).expect("standard cell");
            let tc = g.clamp_t(ns(t));
            let want = g.pair(0, 1).unwrap().d0.eval(tc, tc);
            let got = g.kway_floor(2, ns(t)).unwrap();
            proptest::prop_assert_eq!(got.as_ns().to_bits(), want.as_ns().to_bits(), "{}", name);
        }
    }

    #[test]
    #[should_panic(expected = "pin table")]
    fn constructor_validates_pin_tables() {
        let g = toy_nand2();
        let _bad = CharacterizedGate::new(
            "X".into(),
            GateKind::Nand,
            3,
            1.0,
            1.0,
            9.0,
            9.0,
            (ns(0.1), ns(2.0)),
            [g.pins[0].clone(), g.pins[1].clone()],
            vec![],
            vec![],
            vec![],
        );
    }
}
