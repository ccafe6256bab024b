//! The per-net two-frame value store.

use ssdm_core::Edge;
use ssdm_netlist::NetId;

use crate::error::LogicError;
use crate::value::{TransState, V2};

/// Two-frame values for every net of a circuit.
///
/// Values only ever *refine* (x → 0/1); [`Assignments::set`] intersects
/// with the existing value and reports conflicts. Snapshots (plain clones)
/// give ATPG cheap backtracking.
///
/// The store also remembers whether its values are closed under
/// [`crate::imply`] and which nets [`Assignments::set`] changed since, so
/// the next implication only revisits the gates around those nets.
/// Closure is relative to the circuit the store was last implied against:
/// implying one store against two different circuits is not supported.
/// Clones keep this bookkeeping; `==` compares values only.
#[derive(Debug, Clone)]
pub struct Assignments {
    values: Vec<V2>,
    /// Nets whose value [`Assignments::set`] changed since the store was
    /// last closed (recorded only while `closed` holds).
    pending: Vec<NetId>,
    /// True when `values` is a fixpoint of implication (up to `pending`).
    closed: bool,
}

impl PartialEq for Assignments {
    fn eq(&self, other: &Assignments) -> bool {
        self.values == other.values
    }
}

impl Eq for Assignments {}

impl Assignments {
    /// All-`xx` store for `n` nets. It is already closed: no gate implies
    /// anything from all-`x` values.
    pub fn new(n: usize) -> Assignments {
        Assignments {
            values: vec![V2::XX; n],
            pending: Vec::new(),
            closed: true,
        }
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the store covers zero nets.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current value of `net`.
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range.
    pub fn get(&self, net: NetId) -> V2 {
        self.values[net.index()]
    }

    /// Refines `net` with `value` (frame-wise intersection).
    ///
    /// Returns `true` when the stored value actually changed.
    ///
    /// # Errors
    ///
    /// * [`LogicError::BadNet`] — out-of-range index;
    /// * [`LogicError::Conflict`] — the new value contradicts the old.
    pub fn set(&mut self, net: NetId, value: V2) -> Result<bool, LogicError> {
        let n = self.values.len();
        let slot = self
            .values
            .get_mut(net.index())
            .ok_or(LogicError::BadNet { net, n })?;
        match slot.meet(value) {
            Some(merged) => {
                let changed = merged != *slot;
                *slot = merged;
                if changed && self.closed {
                    self.pending.push(net);
                }
                Ok(changed)
            }
            None => Err(LogicError::Conflict { net }),
        }
    }

    /// The transition state `S_tr` of `net`.
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range.
    pub fn state(&self, net: NetId, edge: Edge) -> TransState {
        self.get(net).state(edge)
    }

    /// Count of fully specified nets — a cheap progress metric for search.
    pub fn n_specified(&self) -> usize {
        self.values
            .iter()
            .filter(|v| v.is_fully_specified())
            .count()
    }

    /// Raw values (read-only).
    pub fn values(&self) -> &[V2] {
        &self.values
    }

    /// The nets implication must revisit: `Some` of the nets changed since
    /// the store was last closed, or `None` when every gate must be
    /// revisited. Leaves the store unclosed until [`Assignments::close`].
    pub(crate) fn take_pending(&mut self) -> Option<Vec<NetId>> {
        let pending = std::mem::take(&mut self.pending);
        let closed = std::mem::replace(&mut self.closed, false);
        closed.then_some(pending)
    }

    /// Marks the values as a fixpoint of implication, handing back the
    /// (emptied) pending buffer so its allocation is reused.
    pub(crate) fn close(&mut self, mut pending: Vec<NetId>) {
        pending.clear();
        self.pending = pending;
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Tri;

    #[test]
    fn set_refines_and_detects_change() {
        let mut a = Assignments::new(3);
        assert!(a.set(NetId(0), V2::parse("0x").unwrap()).unwrap());
        assert!(!a.set(NetId(0), V2::parse("0x").unwrap()).unwrap());
        assert!(a.set(NetId(0), V2::parse("x1").unwrap()).unwrap());
        assert_eq!(a.get(NetId(0)), V2::parse("01").unwrap());
    }

    #[test]
    fn set_conflicts() {
        let mut a = Assignments::new(1);
        a.set(NetId(0), V2::steady(true)).unwrap();
        assert_eq!(
            a.set(NetId(0), V2::steady(false)),
            Err(LogicError::Conflict { net: NetId(0) })
        );
    }

    #[test]
    fn set_out_of_range() {
        let mut a = Assignments::new(1);
        assert!(matches!(
            a.set(NetId(5), V2::XX),
            Err(LogicError::BadNet {
                net: NetId(5),
                n: 1
            })
        ));
    }

    #[test]
    fn state_and_progress() {
        let mut a = Assignments::new(2);
        assert_eq!(a.state(NetId(0), Edge::Rise), TransState::Maybe);
        a.set(NetId(0), V2::transition(Edge::Rise)).unwrap();
        assert_eq!(a.state(NetId(0), Edge::Rise), TransState::Yes);
        assert_eq!(a.state(NetId(0), Edge::Fall), TransState::No);
        assert_eq!(a.n_specified(), 1);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.values()[1], V2::new(Tri::X, Tri::X));
    }

    #[test]
    fn equality_ignores_implication_bookkeeping() {
        let mut a = Assignments::new(2);
        a.set(NetId(0), V2::steady(true)).unwrap();
        let mut b = a.clone();
        b.pending.clear();
        b.closed = false;
        assert_eq!(a, b);
        b.set(NetId(1), V2::steady(true)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_rollback_via_clone() {
        let mut a = Assignments::new(2);
        a.set(NetId(0), V2::steady(true)).unwrap();
        let snap = a.clone();
        a.set(NetId(1), V2::steady(false)).unwrap();
        assert_ne!(a, snap);
        let a = snap;
        assert_eq!(a.get(NetId(1)), V2::XX);
    }
}
