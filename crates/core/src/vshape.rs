//! The three-point V-shape skew approximation (Figure 2 of the paper).

use std::fmt;

use crate::bound::Bound;
use crate::error::CoreError;
use crate::math::lerp;
use crate::units::Time;

/// Piecewise-linear V-shape approximation of a timing quantity as a
/// function of the input skew `δ = A_Y − A_X`.
///
/// Defined by three points, exactly as in Figure 2:
///
/// * the **left knee** `(SYR, DYR)`: for `δ ≤ SYR` (Y leads by a lot) the
///   quantity saturates at Y's single-switch value,
/// * the **vertex** `(S0, D0)`: the extreme simultaneous-switching value
///   (`S0 = 0` for gate delay by Claim 1; possibly non-zero for output
///   transition time),
/// * the **right knee** `(SR, DR)`: for `δ ≥ SR` (Y lags by a lot) X alone
///   determines the quantity.
///
/// Between knees the function is linear on each side of the vertex. Two
/// transitions are *δ-simultaneous* when `SYR ≤ δ ≤ SR`
/// ([`VShape::simultaneous_window`]).
///
/// # Example
///
/// ```
/// use ssdm_core::{Time, VShape};
/// let v = VShape::new(
///     (Time::from_ns(-0.2), Time::from_ns(0.28)),
///     (Time::ZERO, Time::from_ns(0.17)),
///     (Time::from_ns(0.3), Time::from_ns(0.30)),
/// )?;
/// // Halfway up the right flank.
/// assert_eq!(v.eval(Time::from_ns(0.15)), Time::from_ns(0.235));
/// # Ok::<(), ssdm_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VShape {
    left: (Time, Time),
    vertex: (Time, Time),
    right: (Time, Time),
}

impl VShape {
    /// Creates a V-shape from `(skew, value)` points: left knee, vertex,
    /// right knee.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedVShape`] unless
    /// `left.0 ≤ vertex.0 ≤ right.0` and all coordinates are finite.
    #[inline]
    pub fn new(
        left: (Time, Time),
        vertex: (Time, Time),
        right: (Time, Time),
    ) -> Result<VShape, CoreError> {
        let coords = [left.0, left.1, vertex.0, vertex.1, right.0, right.1];
        if coords.iter().any(|t| !t.is_finite()) {
            return Err(CoreError::MalformedVShape {
                reason: "coordinates must be finite",
            });
        }
        if !(left.0 <= vertex.0 && vertex.0 <= right.0) {
            return Err(CoreError::MalformedVShape {
                reason: "knees must bracket the vertex skew",
            });
        }
        Ok(VShape {
            left,
            vertex,
            right,
        })
    }

    /// A degenerate V-shape that is constant at `value` (used when only a
    /// single input can switch, so skew is irrelevant).
    #[inline]
    pub fn flat(value: Time) -> VShape {
        VShape {
            left: (Time::ZERO, value),
            vertex: (Time::ZERO, value),
            right: (Time::ZERO, value),
        }
    }

    /// The same shape with the skew axis reversed, so that
    /// `v.mirrored().eval(δ)` is `v.eval(−δ)` up to rounding: the V-shape of
    /// a pair queried in the opposite orientation. Only the three skews are
    /// negated, which is exact, so the mirror of a valid shape is valid and
    /// mirroring twice gives `self` back bit for bit.
    #[inline]
    pub fn mirrored(&self) -> VShape {
        VShape {
            left: (-self.right.0, self.right.1),
            vertex: (-self.vertex.0, self.vertex.1),
            right: (-self.left.0, self.left.1),
        }
    }

    /// Left knee `(SYR, DYR)`.
    #[inline]
    pub fn left_knee(&self) -> (Time, Time) {
        self.left
    }

    /// Vertex `(S0, D0)`.
    #[inline]
    pub fn vertex(&self) -> (Time, Time) {
        self.vertex
    }

    /// Right knee `(SR, DR)`.
    #[inline]
    pub fn right_knee(&self) -> (Time, Time) {
        self.right
    }

    /// The δ-simultaneous window `[SYR, SR]` inside which the lagging
    /// transition still affects the output.
    #[inline]
    pub fn simultaneous_window(&self) -> Bound {
        Bound::new(self.left.0, self.right.0).expect("invariant: left <= right")
    }

    /// Evaluates the V-shape at skew `δ`.
    #[inline]
    pub fn eval(&self, skew: Time) -> Time {
        if skew <= self.left.0 {
            self.left.1
        } else if skew < self.vertex.0 {
            let t = (skew - self.left.0) / (self.vertex.0 - self.left.0);
            Time::from_ns(lerp(self.left.1.as_ns(), self.vertex.1.as_ns(), t))
        } else if skew == self.vertex.0 {
            self.vertex.1
        } else if skew < self.right.0 {
            let t = (skew - self.vertex.0) / (self.right.0 - self.vertex.0);
            Time::from_ns(lerp(self.vertex.1.as_ns(), self.right.1.as_ns(), t))
        } else {
            self.right.1
        }
    }

    /// Breakpoints of the piecewise-linear function.
    #[inline]
    fn breakpoints(&self) -> [Time; 3] {
        [self.left.0, self.vertex.0, self.right.0]
    }

    /// Minimum of the V-shape over a skew interval.
    ///
    /// Since the function is piecewise linear, the minimum is attained at an
    /// interval endpoint or at an interior breakpoint.
    #[inline]
    pub fn min_over(&self, skews: Bound) -> Time {
        self.extremum_over(skews, Time::min, Time::INFINITY)
    }

    /// Maximum of the V-shape over a skew interval.
    #[inline]
    pub fn max_over(&self, skews: Bound) -> Time {
        self.extremum_over(skews, Time::max, Time::NEG_INFINITY)
    }

    /// The skew in `skews` minimizing the V-shape, with the attained value.
    pub fn argmin_over(&self, skews: Bound) -> (Time, Time) {
        let mut best = (skews.s(), self.eval(skews.s()));
        for cand in self.candidates(skews) {
            let v = self.eval(cand);
            if v < best.1 {
                best = (cand, v);
            }
        }
        best
    }

    fn candidates(&self, skews: Bound) -> impl Iterator<Item = Time> + '_ {
        [skews.s(), skews.l()].into_iter().chain(
            self.breakpoints()
                .into_iter()
                .filter(move |b| skews.contains(*b)),
        )
    }

    /// Folds `pick` from `init` over the shape's values at the candidate
    /// skews in a fixed order: `s`, `l`, then each breakpoint inside
    /// `skews`. Straight-line code, so the kernel's corner search compiles
    /// flat; the order fixes which of two equal values (`±0`) survives.
    #[inline]
    fn extremum_over(&self, skews: Bound, pick: impl Fn(Time, Time) -> Time, init: Time) -> Time {
        let mut acc = pick(pick(init, self.eval(skews.s())), self.eval(skews.l()));
        for b in self.breakpoints() {
            if skews.contains(b) {
                acc = pick(acc, self.eval(b));
            }
        }
        acc
    }
}

impl fmt::Display for VShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "V[({}, {}) ({}, {}) ({}, {})]",
            self.left.0, self.left.1, self.vertex.0, self.vertex.1, self.right.0, self.right.1
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

    fn sample() -> VShape {
        VShape::new(
            (ns(-0.25), ns(0.30)),
            (ns(0.0), ns(0.17)),
            (ns(0.25), ns(0.30)),
        )
        .unwrap()
    }

    #[test]
    fn eval_saturates_outside_knees() {
        let v = sample();
        assert_eq!(v.eval(ns(-10.0)), ns(0.30));
        assert_eq!(v.eval(ns(10.0)), ns(0.30));
        assert_eq!(v.eval(ns(-0.25)), ns(0.30));
        assert_eq!(v.eval(ns(0.25)), ns(0.30));
    }

    #[test]
    fn eval_vertex_is_minimum() {
        let v = sample();
        assert_eq!(v.eval(Time::ZERO), ns(0.17));
        for i in -50..=50 {
            let d = ns(i as f64 * 0.02);
            assert!(v.eval(d) >= ns(0.17) - ns(1e-12));
        }
    }

    #[test]
    fn eval_is_linear_between_points() {
        let v = sample();
        let mid_right = v.eval(ns(0.125));
        assert!((mid_right.as_ns() - 0.235).abs() < 1e-12);
        let mid_left = v.eval(ns(-0.125));
        assert!((mid_left.as_ns() - 0.235).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_vertex_for_transition_time() {
        // S0 may be non-zero for output transition time (Section 3.4).
        let v = VShape::new((ns(-0.3), ns(0.5)), (ns(0.1), ns(0.2)), (ns(0.4), ns(0.45))).unwrap();
        assert_eq!(v.eval(ns(0.1)), ns(0.2));
        assert_eq!(v.argmin_over(Bound::unbounded()).0, ns(0.1));
    }

    #[test]
    fn mirror_reverses_the_skew_axis_exactly() {
        let v = VShape::new((ns(-0.3), ns(0.5)), (ns(0.1), ns(0.2)), (ns(0.4), ns(0.45))).unwrap();
        let m = v.mirrored();
        assert_eq!(m.left_knee(), (ns(-0.4), ns(0.45)));
        assert_eq!(m.vertex(), (ns(-0.1), ns(0.2)));
        assert_eq!(m.right_knee(), (ns(0.3), ns(0.5)));
        assert_eq!(m.mirrored(), v);
        for i in -30..=30 {
            let d = ns(i as f64 * 0.025);
            assert!((m.eval(d) - v.eval(-d)).abs() < ns(1e-12));
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(VShape::new((ns(0.5), ns(1.0)), (ns(0.0), ns(0.5)), (ns(1.0), ns(1.0))).is_err());
        assert!(VShape::new(
            (ns(f64::NAN), ns(1.0)),
            (ns(0.0), ns(0.5)),
            (ns(1.0), ns(1.0))
        )
        .is_err());
    }

    #[test]
    fn flat_is_constant() {
        let v = VShape::flat(ns(0.3));
        assert_eq!(v.eval(ns(-5.0)), ns(0.3));
        assert_eq!(v.eval(ns(5.0)), ns(0.3));
        assert_eq!(v.min_over(Bound::unbounded()), ns(0.3));
        assert_eq!(v.max_over(Bound::unbounded()), ns(0.3));
    }

    #[test]
    fn min_max_over_windows() {
        let v = sample();
        let w = Bound::new(ns(-0.1), ns(0.4)).unwrap();
        assert_eq!(v.min_over(w), ns(0.17));
        assert_eq!(v.max_over(w), ns(0.30));
        // Window strictly to the right of the vertex: min at its left edge.
        let w2 = Bound::new(ns(0.1), ns(0.2)).unwrap();
        assert_eq!(v.min_over(w2), v.eval(ns(0.1)));
        assert_eq!(v.max_over(w2), v.eval(ns(0.2)));
        // Degenerate window.
        let w3 = Bound::point(ns(0.05));
        assert_eq!(v.min_over(w3), v.eval(ns(0.05)));
        assert_eq!(v.min_over(w3), v.max_over(w3));
    }

    #[test]
    fn argmin_picks_vertex_when_contained() {
        let v = sample();
        let (s, val) = v.argmin_over(Bound::new(ns(-1.0), ns(1.0)).unwrap());
        assert_eq!(s, Time::ZERO);
        assert_eq!(val, ns(0.17));
        // When the vertex is excluded the closest endpoint wins.
        let (s, _) = v.argmin_over(Bound::new(ns(0.05), ns(0.2)).unwrap());
        assert_eq!(s, ns(0.05));
    }

    #[test]
    fn simultaneous_window_matches_knees() {
        let v = sample();
        let w = v.simultaneous_window();
        assert_eq!(w.s(), ns(-0.25));
        assert_eq!(w.l(), ns(0.25));
    }

    #[test]
    fn display_mentions_all_points() {
        let txt = sample().to_string();
        assert!(txt.contains("0.17ns"));
        assert!(txt.contains("-0.25ns"));
    }

    /// The iterator fold `min_over`/`max_over` ran before the
    /// straight-line one: the bit-exact reference for it.
    fn reference_extremum(
        v: &VShape,
        skews: Bound,
        pick: fn(Time, Time) -> Time,
        init: Time,
    ) -> Time {
        v.candidates(skews).map(|x| v.eval(x)).fold(init, pick)
    }

    /// `0.0`, `-0.0` or `x`, by `sel`: signed zeros are where `min` and
    /// `max` may tie-break either way, so the fold order shows there.
    fn signed_zero_or(sel: usize, x: f64) -> f64 {
        match sel % 3 {
            0 => 0.0,
            1 => -0.0,
            _ => x,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Degenerate intervals, intervals ending on a breakpoint and
        /// signed-zero skews and values all appear.
        #[test]
        fn straight_line_extrema_match_the_iterator_fold(
            lk in -1.0..0.0f64, rk in 0.0..1.0f64, t in 0.0..1.0f64,
            dl in -0.5..0.5f64, dv in -0.5..0.5f64, dr in -0.5..0.5f64,
            sel in 0usize..729, lo in -2.0..2.0f64, w in 0.0..2.0f64,
            mode in 0usize..5, bp in 0usize..3,
        ) {
            let sk = signed_zero_or(sel, lk + (rk - lk) * t);
            let (lk, rk) = (lk.min(sk), rk.max(sk));
            let v = VShape::new(
                (ns(lk), ns(signed_zero_or(sel / 3, dl))),
                (ns(sk), ns(signed_zero_or(sel / 9, dv))),
                (ns(rk), ns(signed_zero_or(sel / 27, dr))),
            ).unwrap();
            let b = v.breakpoints()[bp].as_ns();
            let (s, l) = match mode {
                0 => (lo, lo + w),
                1 => (lo, lo),
                2 => (b, b + w),
                3 => (b - w, b),
                _ => (signed_zero_or(sel / 81, lo.min(0.0)), signed_zero_or(sel / 243, w)),
            };
            let w = Bound::new(ns(s.min(l)), ns(l.max(s))).unwrap();
            let bits = |x: Time| x.as_ns().to_bits();
            prop_assert_eq!(
                bits(v.min_over(w)),
                bits(reference_extremum(&v, w, Time::min, Time::INFINITY)),
                "min of {} over {}", v, w
            );
            prop_assert_eq!(
                bits(v.max_over(w)),
                bits(reference_extremum(&v, w, Time::max, Time::NEG_INFINITY)),
                "max of {} over {}", v, w
            );
        }
    }

    proptest! {
        #[test]
        fn min_max_over_bracket_pointwise_eval(
            lk in -1.0..0.0f64, rk in 0.0..1.0f64,
            dv in 0.0..0.5f64, dl in 0.0..0.5f64, dr in 0.0..0.5f64,
            w_lo in -2.0..2.0f64, w_w in 0.0..2.0f64, t in 0.0..1.0f64,
        ) {
            let v = VShape::new((ns(lk), ns(dv + dl)), (ns(0.0), ns(dv)), (ns(rk), ns(dv + dr))).unwrap();
            let w = Bound::new(ns(w_lo), ns(w_lo + w_w)).unwrap();
            let x = ns(w_lo + w_w * t);
            let y = v.eval(x);
            prop_assert!(v.min_over(w) <= y + ns(1e-12));
            prop_assert!(v.max_over(w) >= y - ns(1e-12));
            // argmin result is inside the window and attains min_over.
            let (s, val) = v.argmin_over(w);
            prop_assert!(w.contains(s));
            prop_assert!((val - v.min_over(w)).abs() <= ns(1e-12));
        }

        #[test]
        fn vertex_is_global_min_when_knees_are_higher(
            lk in -1.0..-0.01f64, rk in 0.01..1.0f64,
            dv in 0.0..0.5f64, dl in 0.001..0.5f64, dr in 0.001..0.5f64,
            x in -3.0..3.0f64,
        ) {
            let v = VShape::new((ns(lk), ns(dv + dl)), (ns(0.0), ns(dv)), (ns(rk), ns(dv + dr))).unwrap();
            prop_assert!(v.eval(ns(x)) >= ns(dv) - ns(1e-12));
        }
    }
}
