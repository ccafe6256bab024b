//! Typed provenance events: bounded per-thread rings of structured
//! records emitted by the engines while [`crate::events_enabled`] is on.
//!
//! Events answer *why* questions the aggregate metrics cannot: which
//! input pin and V-shape segment won a gate's worst-case corner search,
//! what caused an ITR window to shrink, where PODEM spent its backtracks.
//! Each recording thread owns a ring of [`EVENT_RING_CAP`] records; when
//! the ring is full the **oldest** record is dropped (and counted), so a
//! long run keeps its most recent history. Records carry a per-thread
//! sequence number instead of a timestamp — ordering is what provenance
//! consumers need, and skipping the clock read keeps emission cheap.
//!
//! While events are disabled, [`crate::event`] is a single relaxed atomic
//! load and the event-building closure is never invoked.

use std::collections::VecDeque;

/// Capacity of each per-thread event ring. Sized so one sequential STA
/// pass over the largest suite circuit (c7552s: ~3.5k nets × 4 corner
/// events) fits with an order of magnitude to spare.
pub const EVENT_RING_CAP: usize = 1 << 16;

/// Which signal edge an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventEdge {
    /// Rising transition.
    Rise,
    /// Falling transition.
    Fall,
}

impl EventEdge {
    /// Single-letter rendering used in reports (`R`/`F`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventEdge::Rise => "R",
            EventEdge::Fall => "F",
        }
    }
}

/// Which window bound a corner decision produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventBound {
    /// The early (smallest-arrival) corner.
    Min,
    /// The late (largest-arrival) corner.
    Max,
}

impl EventBound {
    /// Rendering used in reports (`min`/`max`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventBound::Min => "min",
            EventBound::Max => "max",
        }
    }
}

/// The V-shape segment (paper §3) that produced a corner delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelayTerm {
    /// `DR`: the single-switch arm — one pin switches alone, or skew is
    /// past the saturation knee so others do not matter.
    Dr,
    /// `D0R`: the zero-skew vertex — the k-way simultaneous-switching
    /// floor bound the corner.
    D0r,
    /// `SR`: the saturation-skew bound — a partial simultaneous overlap
    /// scaled the single-switch delay by the skew ratio.
    Sr,
    /// Miller bump on a non-controlling corner (§3.6 extension).
    Miller,
}

impl DelayTerm {
    /// Paper-style rendering (`DR`/`D0R`/`SR`/`MILLER`).
    pub fn as_str(self) -> &'static str {
        match self {
            DelayTerm::Dr => "DR",
            DelayTerm::D0r => "D0R",
            DelayTerm::Sr => "SR",
            DelayTerm::Miller => "MILLER",
        }
    }
}

/// Why an ITR refinement changed a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShrinkCause {
    /// The net's own participation changed (it seeded the dirty cone).
    Seed,
    /// A fan-in window changed upstream and propagated here.
    Upstream,
    /// The logic state ruled the edge out entirely (`S = −1`).
    Veto,
}

impl ShrinkCause {
    /// Rendering used in reports (`seed`/`upstream`/`veto`).
    pub fn as_str(self) -> &'static str {
        match self {
            ShrinkCause::Seed => "seed",
            ShrinkCause::Upstream => "upstream",
            ShrinkCause::Veto => "veto",
        }
    }
}

/// One structured provenance event.
///
/// Net, pin and PI identifiers are the emitting engine's dense indices
/// (netlist topological ids / gate input positions / PI positions) —
/// consumers that need names resolve them against the circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// STA corner decision: on gate output `net`, the `bound` corner of
    /// `edge` was won by input `pin` through model term `term`,
    /// contributing `delay_ns` from that pin's arrival bound.
    StaCorner {
        /// Output net index of the gate.
        net: u32,
        /// Output edge the corner belongs to.
        edge: EventEdge,
        /// Which window bound the decision produced.
        bound: EventBound,
        /// Winning input pin position.
        pin: u32,
        /// V-shape segment that produced the delay.
        term: DelayTerm,
        /// Contributed stage delay in nanoseconds.
        delay_ns: f64,
    },
    /// ITR refinement changed the `edge` window of `net`: shrunk by
    /// `amount_ns` of arrival-window width (negative = widened, e.g. on
    /// backtrack), or vetoed entirely.
    ItrShrink {
        /// Net whose window changed.
        net: u32,
        /// Edge of the changed window.
        edge: EventEdge,
        /// Why it changed.
        cause: ShrinkCause,
        /// Arrival-width reduction in nanoseconds (0 for vetoes).
        amount_ns: f64,
    },
    /// PODEM picked a justification/propagation objective.
    AtpgObjective {
        /// Objective net.
        net: u32,
        /// Two-frame index (1 or 2).
        frame: u8,
        /// Target logic value.
        value: bool,
    },
    /// PODEM pushed a primary-input decision.
    AtpgDecision {
        /// Primary-input position.
        pi: u32,
        /// Two-frame index (1 or 2).
        frame: u8,
        /// Assigned value.
        value: bool,
        /// Whether this is the retry arm of a flipped decision.
        flipped: bool,
    },
    /// PODEM backtracked; `depth` is the decision-stack depth before the
    /// flip.
    AtpgBacktrack {
        /// Decision-stack depth at the backtrack.
        depth: u32,
    },
    /// PODEM gave up on a fault after exhausting its budget.
    AtpgAbort {
        /// Backtracks spent before aborting.
        backtracks: u64,
    },
}

impl Event {
    /// Stable dotted kind name used in the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::StaCorner { .. } => "sta.corner",
            Event::ItrShrink { .. } => "itr.shrink",
            Event::AtpgObjective { .. } => "atpg.objective",
            Event::AtpgDecision { .. } => "atpg.decision",
            Event::AtpgBacktrack { .. } => "atpg.backtrack",
            Event::AtpgAbort { .. } => "atpg.abort",
        }
    }
}

/// An [`Event`] plus its per-thread sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Position in the emitting thread's event stream (0-based, gapless
    /// until the ring overflows).
    pub seq: u64,
    /// The recorded event.
    pub event: Event,
}

/// Bounded per-thread ring of event records.
#[derive(Default)]
pub(crate) struct EventRing {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<EventRecord>,
}

impl EventRing {
    pub(crate) fn push(&mut self, event: Event) {
        if self.buf.len() == EVENT_RING_CAP {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(EventRecord {
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    pub(crate) fn records(&self) -> Vec<EventRecord> {
        self.buf.iter().copied().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = EventRing::default();
        for i in 0..(EVENT_RING_CAP as u32 + 3) {
            ring.push(Event::AtpgBacktrack { depth: i });
        }
        assert_eq!(ring.dropped(), 3);
        let records = ring.records();
        assert_eq!(records.len(), EVENT_RING_CAP);
        // Oldest three records are gone; sequence numbers are preserved.
        assert_eq!(records[0].seq, 3);
        assert_eq!(records[0].event, Event::AtpgBacktrack { depth: 3 });
        assert_eq!(records.last().unwrap().seq, EVENT_RING_CAP as u64 + 2);
        ring.clear();
        assert_eq!(ring.records().len(), 0);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn kind_names_are_stable() {
        let e = Event::StaCorner {
            net: 1,
            edge: EventEdge::Rise,
            bound: EventBound::Max,
            pin: 0,
            term: DelayTerm::Dr,
            delay_ns: 0.5,
        };
        assert_eq!(e.kind(), "sta.corner");
        assert_eq!(EventEdge::Fall.as_str(), "F");
        assert_eq!(EventBound::Min.as_str(), "min");
        assert_eq!(DelayTerm::D0r.as_str(), "D0R");
        assert_eq!(ShrinkCause::Veto.as_str(), "veto");
    }
}
