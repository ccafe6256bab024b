//! Smallest/largest intervals — the timing windows of STA.

use std::fmt;

use crate::error::CoreError;
use crate::units::Time;

/// A closed interval `[s, l]` of times, `s ≤ l`.
///
/// This is the min-max range STA propagates for each of the eight timing
/// fields of a line (arrival/transition × rise/fall × smallest/largest,
/// Figure 7 in the paper). Endpoints may be negative (skews, bi-tonic
/// negative delays).
///
/// # Example
///
/// ```
/// use ssdm_core::{Bound, Time};
/// let a = Bound::new(Time::from_ns(1.0), Time::from_ns(2.0))?;
/// let b = Bound::new(Time::from_ns(1.5), Time::from_ns(3.0))?;
/// assert!(a.overlaps(b));
/// assert_eq!(a.union(b), Bound::new(Time::from_ns(1.0), Time::from_ns(3.0))?);
/// assert_eq!(a.intersect(b), Some(Bound::new(Time::from_ns(1.5), Time::from_ns(2.0))?));
/// # Ok::<(), ssdm_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    s: Time,
    l: Time,
}

impl Bound {
    /// Creates a bound from its smallest and largest values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvertedBound`] when `s > l` and
    /// [`CoreError::NotFinite`] when either endpoint is NaN.
    #[inline]
    pub fn new(s: Time, l: Time) -> Result<Bound, CoreError> {
        if s.is_nan() || l.is_nan() {
            return Err(CoreError::NotFinite {
                what: "bound endpoint",
            });
        }
        if s > l {
            return Err(CoreError::InvertedBound {
                s: s.as_ns(),
                l: l.as_ns(),
            });
        }
        Ok(Bound { s, l })
    }

    /// A degenerate bound `[t, t]`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    #[inline]
    pub fn point(t: Time) -> Bound {
        assert!(!t.is_nan(), "Bound::point: NaN");
        Bound { s: t, l: t }
    }

    /// The whole real line; the starting window before analysis constrains it.
    #[inline]
    pub fn unbounded() -> Bound {
        Bound {
            s: Time::NEG_INFINITY,
            l: Time::INFINITY,
        }
    }

    /// The tightest bound containing both `a` and `b` even if disjoint.
    #[inline]
    pub fn hull(a: Time, b: Time) -> Bound {
        Bound {
            s: a.min(b),
            l: a.max(b),
        }
    }

    /// Smallest value.
    #[inline]
    pub fn s(&self) -> Time {
        self.s
    }

    /// Largest value.
    #[inline]
    pub fn l(&self) -> Time {
        self.l
    }

    /// Width `l − s`.
    #[inline]
    pub fn width(&self) -> Time {
        self.l - self.s
    }

    /// True when `t ∈ [s, l]`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.s <= t && t <= self.l
    }

    /// True when `other ⊆ self`.
    #[inline]
    pub fn contains_bound(&self, other: Bound) -> bool {
        self.s <= other.s && other.l <= self.l
    }

    /// True when the intervals share at least one point.
    #[inline]
    pub fn overlaps(&self, other: Bound) -> bool {
        self.s <= other.l && other.s <= self.l
    }

    /// Smallest interval containing both.
    #[inline]
    pub fn union(&self, other: Bound) -> Bound {
        Bound {
            s: self.s.min(other.s),
            l: self.l.max(other.l),
        }
    }

    /// Intersection, or `None` when disjoint.
    #[inline]
    pub fn intersect(&self, other: Bound) -> Option<Bound> {
        let s = self.s.max(other.s);
        let l = self.l.min(other.l);
        if s <= l {
            Some(Bound { s, l })
        } else {
            None
        }
    }

    /// Translates both endpoints by `dt`.
    #[inline]
    pub fn shift(&self, dt: Time) -> Bound {
        Bound {
            s: self.s + dt,
            l: self.l + dt,
        }
    }

    /// Interval sum `[s₁+s₂, l₁+l₂]` (arrival window + delay window).
    #[inline]
    pub fn add(&self, other: Bound) -> Bound {
        Bound {
            s: self.s + other.s,
            l: self.l + other.l,
        }
    }

    /// Interval difference `self − other = [s₁−l₂, l₁−s₂]`
    /// (e.g. the window of possible skews between two arrival windows).
    #[inline]
    pub fn sub(&self, other: Bound) -> Bound {
        Bound {
            s: self.s - other.l,
            l: self.l - other.s,
        }
    }

    /// The value in the bound closest to `t` (i.e. `t` clamped).
    #[inline]
    pub fn closest_to(&self, t: Time) -> Time {
        t.clamp(self.s, self.l)
    }

    /// True when `other` is a (not necessarily strict) tightening of `self`.
    #[inline]
    pub fn refines(&self, other: Bound) -> bool {
        self.contains_bound(other)
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = f.precision() {
            write!(f, "[{:.*}, {:.*}]", p, self.s.as_ns(), p, self.l.as_ns())
        } else {
            write!(f, "[{}, {}]", self.s.as_ns(), self.l.as_ns())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(s: f64, l: f64) -> Bound {
        Bound::new(Time::from_ns(s), Time::from_ns(l)).unwrap()
    }

    #[test]
    fn rejects_inverted() {
        assert!(matches!(
            Bound::new(Time::from_ns(2.0), Time::from_ns(1.0)),
            Err(CoreError::InvertedBound { .. })
        ));
    }

    #[test]
    fn rejects_nan() {
        assert!(matches!(
            Bound::new(Time::from_ns(f64::NAN), Time::ZERO),
            Err(CoreError::NotFinite { .. })
        ));
    }

    #[test]
    fn point_and_hull() {
        let p = Bound::point(Time::from_ns(1.0));
        assert_eq!(p.width(), Time::ZERO);
        let h = Bound::hull(Time::from_ns(3.0), Time::from_ns(-1.0));
        assert_eq!(h, b(-1.0, 3.0));
    }

    #[test]
    fn set_operations() {
        let a = b(0.0, 2.0);
        let c = b(1.0, 3.0);
        let d = b(5.0, 6.0);
        assert!(a.overlaps(c));
        assert!(!a.overlaps(d));
        assert_eq!(a.union(c), b(0.0, 3.0));
        assert_eq!(a.intersect(c), Some(b(1.0, 2.0)));
        assert_eq!(a.intersect(d), None);
        assert!(b(0.0, 3.0).contains_bound(c));
        assert!(!c.contains_bound(a));
    }

    #[test]
    fn interval_arithmetic() {
        let a = b(1.0, 2.0);
        let c = b(0.5, 1.0);
        assert_eq!(a.add(c), b(1.5, 3.0));
        assert_eq!(a.sub(c), b(0.0, 1.5));
        assert_eq!(a.shift(Time::from_ns(-1.0)), b(0.0, 1.0));
    }

    #[test]
    fn closest_to_clamps() {
        let a = b(1.0, 2.0);
        assert_eq!(a.closest_to(Time::from_ns(0.0)), Time::from_ns(1.0));
        assert_eq!(a.closest_to(Time::from_ns(1.5)), Time::from_ns(1.5));
        assert_eq!(a.closest_to(Time::from_ns(9.0)), Time::from_ns(2.0));
    }

    #[test]
    fn unbounded_contains_everything() {
        let u = Bound::unbounded();
        assert!(u.contains(Time::from_ns(-1e12)));
        assert!(u.contains(Time::from_ns(1e12)));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", b(0.5, 1.0)), "[0.5, 1]");
        assert_eq!(format!("{:.2}", b(0.5, 1.0)), "[0.50, 1.00]");
    }

    proptest! {
        #[test]
        fn union_contains_both(s1 in -10.0..10.0f64, w1 in 0.0..5.0f64,
                               s2 in -10.0..10.0f64, w2 in 0.0..5.0f64) {
            let a = b(s1, s1 + w1);
            let c = b(s2, s2 + w2);
            let u = a.union(c);
            prop_assert!(u.contains_bound(a));
            prop_assert!(u.contains_bound(c));
        }

        #[test]
        fn intersect_is_subset_of_both(s1 in -10.0..10.0f64, w1 in 0.0..5.0f64,
                                       s2 in -10.0..10.0f64, w2 in 0.0..5.0f64) {
            let a = b(s1, s1 + w1);
            let c = b(s2, s2 + w2);
            if let Some(i) = a.intersect(c) {
                prop_assert!(a.contains_bound(i));
                prop_assert!(c.contains_bound(i));
            } else {
                prop_assert!(!a.overlaps(c));
            }
        }

        #[test]
        fn add_sub_are_consistent(s1 in -10.0..10.0f64, w1 in 0.0..5.0f64,
                                  s2 in -10.0..10.0f64, w2 in 0.0..5.0f64,
                                  x in 0.0..1.0f64, y in 0.0..1.0f64) {
            // For any points p ∈ a, q ∈ c: p+q ∈ a.add(c) and p−q ∈ a.sub(c).
            let a = b(s1, s1 + w1);
            let c = b(s2, s2 + w2);
            let p = a.s() + a.width() * x;
            let q = c.s() + c.width() * y;
            prop_assert!(a.add(c).contains(p + q));
            prop_assert!(a.sub(c).contains(p - q));
        }
    }
}
