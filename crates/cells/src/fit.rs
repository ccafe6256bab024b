//! The paper's empirical function forms (Section 3.4) and their fitting.
//!
//! * `DR(T) = K10·T² + K11·T + K12` — [`Poly1`],
//! * `D0R(T_X, T_Y) = (K20·T_X^⅓ + K21)·(K22·T_Y^⅓ + K23) + K24` —
//!   [`D0Surface`] (stored in the expanded, linearly-fittable form
//!   `a·x·y + b·x + c·y + d` with `x = T_X^⅓`, `y = T_Y^⅓`; the paper's
//!   five-K parametrization is redundant and recoverable),
//! * `SR(T_X, T_Y) = K30·T_X² + K31·T_Y² + K32·T_X·T_Y + K33·T_X +
//!   K34·T_Y + K35` — [`Quad2`].

use ssdm_core::Time;

use crate::error::CellError;
use crate::lsq;

/// A univariate quadratic `k0·T² + k1·T + k2` over transition time.
///
/// This is the paper's form for pin-to-pin delay `DR` and output
/// transition time; a parabola captures both the monotone case (vertex
/// outside the characterized range) and the bi-tonic case (vertex inside),
/// which is exactly the structure STA's corner search exploits (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Poly1 {
    /// Coefficients `[k0, k1, k2]` (quadratic, linear, constant).
    pub k: [f64; 3],
}

impl Poly1 {
    /// Fits the quadratic to `(t, value)` samples (times in ns).
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the least-squares solver.
    pub fn fit(ts: &[f64], values: &[f64], what: &'static str) -> Result<Poly1, CellError> {
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t * t, t, 1.0]).collect();
        let k = lsq::solve(&rows, values, what)?;
        Ok(Poly1 {
            k: [k[0], k[1], k[2]],
        })
    }

    /// Evaluates at transition time `t`.
    #[inline]
    pub fn eval(&self, t: Time) -> Time {
        let x = t.as_ns();
        Time::from_ns(self.k[0] * x * x + self.k[1] * x + self.k[2])
    }

    /// The vertex abscissa `−k1/(2·k0)`, i.e. the transition time at which
    /// the parabola peaks (concave, `k0 < 0`) or bottoms (convex,
    /// `k0 > 0`). `None` when effectively linear.
    #[inline]
    pub fn vertex(&self) -> Option<Time> {
        if self.k[0].abs() < 1e-12 {
            None
        } else {
            Some(Time::from_ns(-self.k[1] / (2.0 * self.k[0])))
        }
    }

    /// The transition time **maximizing** the quadratic over `[lo, hi]`:
    /// the vertex if concave and interior, else the better endpoint. This
    /// is `T*` in the paper's `A^Z_{R,L}` formula.
    #[inline]
    pub fn argmax_over(&self, lo: Time, hi: Time) -> Time {
        let mut best = (lo, self.eval(lo));
        let at_hi = self.eval(hi);
        if at_hi > best.1 {
            best = (hi, at_hi);
        }
        if self.k[0] < 0.0 {
            if let Some(v) = self.vertex() {
                if v > lo && v < hi {
                    let at_v = self.eval(v);
                    if at_v > best.1 {
                        best = (v, at_v);
                    }
                }
            }
        }
        best.0
    }

    /// The transition time **minimizing** the quadratic over `[lo, hi]`.
    #[inline]
    pub fn argmin_over(&self, lo: Time, hi: Time) -> Time {
        let mut best = (lo, self.eval(lo));
        let at_hi = self.eval(hi);
        if at_hi < best.1 {
            best = (hi, at_hi);
        }
        if self.k[0] > 0.0 {
            if let Some(v) = self.vertex() {
                if v > lo && v < hi {
                    let at_v = self.eval(v);
                    if at_v < best.1 {
                        best = (v, at_v);
                    }
                }
            }
        }
        best.0
    }
}

/// The zero-skew simultaneous-switching surface in expanded form:
/// `a·x·y + b·x + c·y + d` with `x = T_X^⅓`, `y = T_Y^⅓`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct D0Surface {
    /// Coefficients `[a, b, c, d]` of `x·y`, `x`, `y`, `1`.
    pub k: [f64; 4],
}

impl D0Surface {
    /// Fits the surface to `(t_x, t_y, value)` samples (times in ns).
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the least-squares solver.
    pub fn fit(points: &[(f64, f64, f64)], what: &'static str) -> Result<D0Surface, CellError> {
        let rows: Vec<Vec<f64>> = points
            .iter()
            .map(|&(tx, ty, _)| {
                let x = tx.cbrt();
                let y = ty.cbrt();
                vec![x * y, x, y, 1.0]
            })
            .collect();
        let values: Vec<f64> = points.iter().map(|p| p.2).collect();
        let k = lsq::solve(&rows, &values, what)?;
        Ok(D0Surface {
            k: [k[0], k[1], k[2], k[3]],
        })
    }

    /// Evaluates at `(t_x, t_y)`.
    #[inline]
    pub fn eval(&self, tx: Time, ty: Time) -> Time {
        self.eval_cbrt(tx.as_ns().cbrt(), ty.as_ns().cbrt())
    }

    /// Evaluates at precomputed cube roots `x = T_X^⅓`, `y = T_Y^⅓` (ns):
    /// the exact expression [`D0Surface::eval`] applies after taking them.
    #[inline]
    pub fn eval_cbrt(&self, x: f64, y: f64) -> Time {
        Time::from_ns(self.k[0] * x * y + self.k[1] * x + self.k[2] * y + self.k[3])
    }

    /// A paper-form parametrization `(K20, K21, K22, K23, K24)` such that
    /// `(K20·x + K21)(K22·y + K23) + K24` equals the stored expanded form.
    /// The five-parameter form is redundant; this picks `K20 = 1` (or a
    /// degenerate separable fallback when the product coefficient
    /// vanishes).
    pub fn paper_coefficients(&self) -> [f64; 5] {
        let [a, b, c, d] = self.k;
        if a.abs() < 1e-12 {
            // No product term: (1·x + 0)(0·y + b) + (c·y + d) has no exact
            // match; return the closest degenerate form (x-linear only).
            return [1.0, 0.0, 0.0, b, d];
        }
        // (x + b/a)(a·y + c) + (d − b·c/a) = a·x·y + c·x + b·y + ...
        // Careful: expand (K20 x + K21)(K22 y + K23) = K20K22 xy + K20K23 x
        // + K21K22 y + K21K23. Want K20K22 = a, K20K23 = b, K21K22 = c.
        // Pick K20 = 1 → K22 = a, K23 = b, K21 = c/a, K24 = d − K21K23.
        let k21 = c / a;
        [1.0, k21, a, b, d - k21 * b]
    }
}

/// A bivariate quadratic over `(T_X, T_Y)` — the paper's form for the
/// skew knee `SR`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quad2 {
    /// Coefficients `[k30, k31, k32, k33, k34, k35]` of
    /// `T_X², T_Y², T_X·T_Y, T_X, T_Y, 1`.
    pub k: [f64; 6],
}

impl Quad2 {
    /// Fits the quadratic surface to `(t_x, t_y, value)` samples.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the least-squares solver.
    pub fn fit(points: &[(f64, f64, f64)], what: &'static str) -> Result<Quad2, CellError> {
        let rows: Vec<Vec<f64>> = points
            .iter()
            .map(|&(tx, ty, _)| vec![tx * tx, ty * ty, tx * ty, tx, ty, 1.0])
            .collect();
        let values: Vec<f64> = points.iter().map(|p| p.2).collect();
        let k = lsq::solve(&rows, &values, what)?;
        Ok(Quad2 {
            k: [k[0], k[1], k[2], k[3], k[4], k[5]],
        })
    }

    /// Evaluates at `(t_x, t_y)`.
    #[inline]
    pub fn eval(&self, tx: Time, ty: Time) -> Time {
        let x = tx.as_ns();
        let y = ty.as_ns();
        Time::from_ns(
            self.k[0] * x * x
                + self.k[1] * y * y
                + self.k[2] * x * y
                + self.k[3] * x
                + self.k[4] * y
                + self.k[5],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn poly1_exact_recovery_and_eval() {
        let ts = [0.1, 0.5, 1.0, 1.5, 2.0];
        let vals: Vec<f64> = ts.iter().map(|&t| -0.05 * t * t + 0.3 * t + 0.1).collect();
        let p = Poly1::fit(&ts, &vals, "DR").unwrap();
        assert!((p.eval(ns(0.7)).as_ns() - (-0.05 * 0.49 + 0.21 + 0.1)).abs() < 1e-9);
        // Concave: vertex at −0.3/(2·−0.05) = 3.0.
        assert!((p.vertex().unwrap().as_ns() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn poly1_argmax_cases() {
        // Concave with interior peak at T = 1.
        let p = Poly1 {
            k: [-1.0, 2.0, 0.0],
        };
        assert_eq!(p.argmax_over(ns(0.0), ns(2.0)), ns(1.0));
        // Peak left of the range: max at the left endpoint.
        assert_eq!(p.argmax_over(ns(1.5), ns(2.0)), ns(1.5));
        // Peak right of the range: max at the right endpoint.
        assert_eq!(p.argmax_over(ns(0.0), ns(0.5)), ns(0.5));
        // Convex: max at an endpoint.
        let q = Poly1 {
            k: [1.0, -2.0, 0.0],
        };
        assert_eq!(q.argmax_over(ns(0.0), ns(3.0)), ns(3.0));
        // Linear.
        let l = Poly1 { k: [0.0, 1.0, 0.0] };
        assert_eq!(l.argmax_over(ns(0.0), ns(3.0)), ns(3.0));
        assert!(l.vertex().is_none());
    }

    #[test]
    fn poly1_argmin_cases() {
        let convex = Poly1 {
            k: [1.0, -2.0, 0.0],
        }; // min at T = 1
        assert_eq!(convex.argmin_over(ns(0.0), ns(2.0)), ns(1.0));
        assert_eq!(convex.argmin_over(ns(1.5), ns(2.0)), ns(1.5));
        let concave = Poly1 {
            k: [-1.0, 2.0, 0.0],
        };
        // Concave min is at an endpoint.
        let m = concave.argmin_over(ns(0.0), ns(3.0));
        assert!(m == ns(0.0) || m == ns(3.0));
        assert_eq!(concave.eval(m), ns(-3.0));
    }

    #[test]
    fn d0_surface_exact_recovery() {
        // Construct from a known paper-form: (0.2·x − 0.05)(0.3·y + 0.1) + 0.08.
        let f = |tx: f64, ty: f64| {
            let x = tx.cbrt();
            let y = ty.cbrt();
            (0.2 * x - 0.05) * (0.3 * y + 0.1) + 0.08
        };
        let mut pts = Vec::new();
        for &tx in &[0.1, 0.5, 1.0, 2.0] {
            for &ty in &[0.1, 0.5, 1.0, 2.0] {
                pts.push((tx, ty, f(tx, ty)));
            }
        }
        let s = D0Surface::fit(&pts, "D0R").unwrap();
        for &(tx, ty, v) in &pts {
            assert!((s.eval(ns(tx), ns(ty)).as_ns() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn d0_paper_coefficients_round_trip() {
        let s = D0Surface {
            k: [0.06, 0.02, -0.015, 0.08],
        };
        let [k20, k21, k22, k23, k24] = s.paper_coefficients();
        for &(tx, ty) in &[(0.1f64, 0.3f64), (0.5, 1.2), (2.0, 0.7)] {
            let x: f64 = tx.cbrt();
            let y: f64 = ty.cbrt();
            let paper = (k20 * x + k21) * (k22 * y + k23) + k24;
            let direct = s.eval(ns(tx), ns(ty)).as_ns();
            assert!((paper - direct).abs() < 1e-9, "{paper} vs {direct}");
        }
    }

    #[test]
    fn d0_paper_coefficients_degenerate() {
        let s = D0Surface {
            k: [0.0, 0.5, 0.0, 0.1],
        };
        let [k20, _k21, k22, k23, k24] = s.paper_coefficients();
        // Degenerate form must still reproduce x-linear surfaces.
        let x: f64 = 0.8f64.cbrt();
        let paper = (k20 * x) * k22 + k23 * x * k20 + k24;
        // The fallback is only approximate in form; evaluate the documented
        // shape: (1·x + 0)(0·y + b) + d = b·x + d.
        let direct = s.eval(ns(0.8), ns(1.0)).as_ns();
        assert!((0.5 * x + 0.1 - direct).abs() < 1e-12);
        let _ = paper;
    }

    #[test]
    fn quad2_exact_recovery() {
        let f = |x: f64, y: f64| 0.1 * x * x - 0.2 * y * y + 0.05 * x * y + 0.3 * x - 0.1 * y + 0.4;
        let mut pts = Vec::new();
        for &tx in &[0.1, 0.4, 0.9, 1.5] {
            for &ty in &[0.2, 0.6, 1.1, 1.8] {
                pts.push((tx, ty, f(tx, ty)));
            }
        }
        let s = Quad2::fit(&pts, "SR").unwrap();
        for &(tx, ty, v) in &pts {
            assert!((s.eval(ns(tx), ns(ty)).as_ns() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn fit_with_degenerate_grid_fails_cleanly() {
        // All t_y equal: the T_Y² and T_Y columns are linearly dependent
        // with the constant column.
        let pts: Vec<(f64, f64, f64)> = (0..8).map(|i| (0.1 * i as f64 + 0.1, 0.5, 1.0)).collect();
        assert!(Quad2::fit(&pts, "SR").is_err());
    }

    proptest! {
        #[test]
        fn poly1_argmax_beats_scan(k0 in -1.0..1.0f64, k1 in -1.0..1.0f64, k2 in -1.0..1.0f64,
                                   lo in 0.05..1.0f64, span in 0.1..2.0f64) {
            let p = Poly1 { k: [k0, k1, k2] };
            let hi = lo + span;
            let best = p.argmax_over(ns(lo), ns(hi));
            let best_val = p.eval(best);
            for i in 0..=40 {
                let t = lo + span * i as f64 / 40.0;
                prop_assert!(p.eval(ns(t)) <= best_val + ns(1e-9));
            }
            let bmin = p.argmin_over(ns(lo), ns(hi));
            let bmin_val = p.eval(bmin);
            for i in 0..=40 {
                let t = lo + span * i as f64 / 40.0;
                prop_assert!(p.eval(ns(t)) >= bmin_val - ns(1e-9));
            }
        }
    }
}
