//! The crosstalk delay fault model (Section 7, after reference \[8\]).

use ssdm_core::{Edge, Time};
use ssdm_netlist::{CrosstalkSite, NetId};

/// A crosstalk delay fault: opposing transitions on the aggressor and the
/// victim, aligned within a coupling window, slow the victim's transition
/// by an extra delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkFault {
    /// The coupled line pair.
    pub site: CrosstalkSite,
    /// The victim transition direction being slowed.
    pub victim_edge: Edge,
}

impl CrosstalkFault {
    /// Both polarities of a site (slow-to-rise and slow-to-fall victims).
    pub fn polarities(site: CrosstalkSite) -> [CrosstalkFault; 2] {
        [
            CrosstalkFault {
                site,
                victim_edge: Edge::Rise,
            },
            CrosstalkFault {
                site,
                victim_edge: Edge::Fall,
            },
        ]
    }

    /// The aggressor transition that injects the worst-case coupling for
    /// this victim edge: the opposing direction.
    pub fn aggressor_edge(&self) -> Edge {
        self.victim_edge.inverted()
    }

    /// The victim line.
    pub fn victim(&self) -> NetId {
        self.site.victim
    }

    /// The aggressor line.
    pub fn aggressor(&self) -> NetId {
        self.site.aggressor
    }
}

/// Fault-model parameters shared by excitation checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Maximum |arrival(A) − arrival(B)| at which coupling still matters.
    pub alignment_window: Time,
    /// Extra delay injected on the victim when excited.
    pub extra_delay: Time,
}

impl FaultModel {
    /// Whether two concrete arrivals are close enough for the coupling to
    /// matter: `|a − b| ≤ alignment_window`.
    pub fn aligned(&self, a: Time, b: Time) -> bool {
        (a - b).abs() <= self.alignment_window
    }
}

impl Default for FaultModel {
    fn default() -> FaultModel {
        FaultModel {
            alignment_window: Time::from_ns(0.3),
            extra_delay: Time::from_ns(0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_pairing() {
        let site = CrosstalkSite {
            aggressor: NetId(1),
            victim: NetId(2),
        };
        let [r, f] = CrosstalkFault::polarities(site);
        assert_eq!(r.victim_edge, Edge::Rise);
        assert_eq!(r.aggressor_edge(), Edge::Fall);
        assert_eq!(f.victim_edge, Edge::Fall);
        assert_eq!(f.aggressor_edge(), Edge::Rise);
        assert_eq!(r.victim(), NetId(2));
        assert_eq!(r.aggressor(), NetId(1));
    }

    #[test]
    fn default_model_is_sane() {
        let m = FaultModel::default();
        assert!(m.alignment_window > Time::ZERO);
        assert!(m.extra_delay > Time::ZERO);
    }

    #[test]
    fn alignment_is_symmetric_and_bounded() {
        let m = FaultModel {
            alignment_window: Time::from_ns(0.3),
            extra_delay: Time::from_ns(0.5),
        };
        let t = Time::from_ns(2.0);
        assert!(m.aligned(t, t));
        assert!(m.aligned(t, t + Time::from_ns(0.3)));
        assert!(m.aligned(t + Time::from_ns(0.3), t));
        assert!(!m.aligned(t, t + Time::from_ns(0.31)));
    }
}
