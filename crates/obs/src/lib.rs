//! The SSDM workspace's run recorder: hierarchical timing spans,
//! counters, histograms and provenance events, rendered after the run as
//! text, JSON and Chrome-trace reports.
//!
//! The engines in this workspace (incremental STA, ITR, the parallel ATPG
//! driver, the timing simulator, cell characterization) are instrumented
//! with *stable dotted names* through this crate. Instrumentation is
//! **disabled by default** and the disabled path is designed to vanish:
//!
//! * [`fn@span`] checks one relaxed atomic load and returns an inert guard —
//!   no clock read, no allocation, no lock;
//! * [`Histogram::record`] checks the same flag and returns;
//! * [`Counter`]s are private atomic cells owned by whoever created them
//!   (one relaxed `fetch_add` per increment, enabled or not).
//!
//! The engines' public statistics (`IncrementalStats`, `AtpgStats`) are
//! plain fields of the engines, not registry cells: an engine adds its
//! totals to the registry when it drops or finishes, so [`reset`] can
//! never change what an engine returns.
//!
//! # Spans
//!
//! [`fn@span`] opens a RAII timing span on the current thread; dropping the
//! guard records `(name, start, duration, depth)` into a per-thread log.
//! Nesting is tracked per thread, so worker-pool activity (each ATPG
//! worker owning its own engine) lands in its own timeline lane. Label
//! lanes with [`set_thread_label`].
//!
//! # Counters and histograms
//!
//! [`counter`] creates a **new** atomic cell registered under a dotted
//! name. Many instances may share one name — one per ATPG worker, say —
//! and [`counter_total`] sums them (live instances plus the banked values
//! of dropped ones), which is how per-worker statistics aggregate without
//! bespoke `Add` impls. [`histogram`] returns a handle to the single
//! shared log₂-bucketed histogram of that name.
//!
//! # Provenance events
//!
//! [`fn@event`] records a typed [`Event`] into the current thread's bounded
//! ring — which corner won a gate's worst-case search, why an ITR window
//! shrank, where PODEM backtracked. Events have their **own** enable
//! flag ([`set_events_enabled`]): while off, [`fn@event`] is a single
//! relaxed atomic load and the event-building closure is never invoked,
//! so metrics-only runs pay nothing for the tracing layer.
//!
//! # Reporters
//!
//! [`capture`] snapshots everything into a [`Report`], which renders as
//! a human text tree ([`Report::to_text`]), a machine-readable JSON run
//! report ([`Report::to_json`], schema `ssdm-obs/2`) and a Chrome
//! trace-event file loadable in Perfetto or `chrome://tracing`
//! ([`Report::to_chrome_trace`]). The [`diff`] module parses run reports
//! back and compares two of them against
//! relative regression thresholds — the engine behind `ssdm-cli
//! obs-diff` and the CI perf gate.
//!
//! # Example
//!
//! ```
//! ssdm_obs::set_enabled(true);
//! let faults = ssdm_obs::counter("atpg.campaign.detected");
//! {
//!     let _campaign = ssdm_obs::span("atpg.campaign");
//!     let _search = ssdm_obs::span("atpg.search");
//!     faults.incr();
//! }
//! let report = ssdm_obs::capture();
//! assert_eq!(report.counters["atpg.campaign.detected"], 1);
//! println!("{}", report.to_text());
//! ssdm_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diff;
pub mod event;
mod json;
pub mod registry;
pub mod report;
pub mod span;

pub use event::{
    DelayTerm, Event, EventBound, EventEdge, EventRecord, ShrinkCause, EVENT_RING_CAP,
};
pub use registry::{Counter, Histogram, HistogramSnapshot, Registry};
pub use report::{Report, SpanNode, ThreadReport};
pub use span::{set_thread_label, span, Span, SpanRecord};

/// The process-wide registry every instrumentation call goes through.
pub fn registry() -> &'static Registry {
    Registry::global()
}

/// Whether instrumentation is currently enabled (spans and histograms
/// record only while it is).
pub fn enabled() -> bool {
    registry().enabled()
}

/// Turns span/histogram recording on or off. Counters always count.
///
/// Toggle only between campaigns: spans open across a toggle are dropped
/// without being recorded, never torn.
pub fn set_enabled(on: bool) {
    registry().set_enabled(on);
}

/// Whether provenance-event recording is on (independent of
/// [`enabled`], so metric runs stay lean while traced runs opt in).
pub fn events_enabled() -> bool {
    registry().events_enabled()
}

/// Turns provenance-event recording on or off.
pub fn set_events_enabled(on: bool) {
    registry().set_events_enabled(on);
}

/// Records the event built by `build` into the current thread's bounded
/// ring. While events are disabled this is a single relaxed atomic load
/// — `build` is **not** invoked, so emit sites can capture and format
/// state for free on the disabled path.
#[inline]
pub fn event(build: impl FnOnce() -> Event) {
    if !registry().events_enabled() {
        return;
    }
    span::record_event(build());
}

/// Attaches a metadata entry (`key` → `value`) merged into every
/// captured report's `meta` section — e.g. a bench name labelling the
/// run for `obs-diff`. Cleared by [`reset`].
pub fn set_meta(key: impl Into<String>, value: impl Into<String>) {
    registry().set_meta(key, value);
}

/// Creates a new counter instance registered under `name`.
///
/// See [`Counter`] for the instance/total semantics.
pub fn counter(name: impl Into<String>) -> Counter {
    registry().counter(name)
}

/// The sum of every instance ever registered under `name` (live ones
/// plus the banked values of dropped ones).
pub fn counter_total(name: &str) -> u64 {
    registry().counter_total(name)
}

/// The shared histogram registered under `name` (created on first use).
pub fn histogram(name: impl Into<String>) -> Histogram {
    registry().histogram(name)
}

/// Snapshots all counters, histograms and span logs into a [`Report`].
pub fn capture() -> Report {
    Report::capture(registry())
}

/// Clears all recorded data: counters (live cells and banked totals),
/// histograms, span logs, event rings and caller-set metadata. Thread registrations and the enable flags are kept.
/// Intended for tests and between independent runs.
pub fn reset() {
    registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Instrumentation state is process-global; tests that touch it run
    /// one at a time.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = serial();
        reset();
        set_enabled(false);
        {
            let _s = span("test.disabled");
        }
        let report = capture();
        assert!(report
            .threads
            .iter()
            .all(|t| !t.spans.iter().any(|s| s.name == "test.disabled")));
    }

    #[test]
    fn disabled_events_record_nothing() {
        let _guard = serial();
        reset();
        set_events_enabled(false);
        let built = std::cell::Cell::new(false);
        event(|| {
            built.set(true);
            Event::AtpgBacktrack { depth: 1 }
        });
        assert!(
            !built.get(),
            "disabled event() must not invoke the builder closure"
        );
        let report = capture();
        assert!(report
            .threads
            .iter()
            .all(|t| t.events.is_empty() && t.events_dropped == 0));
    }

    #[test]
    fn events_record_in_order_and_reset_clears_them() {
        let _guard = serial();
        reset();
        set_events_enabled(true);
        event(|| Event::AtpgBacktrack { depth: 4 });
        event(|| Event::AtpgAbort { backtracks: 30 });
        set_events_enabled(false);
        let report = capture();
        let thread = report
            .threads
            .iter()
            .find(|t| !t.events.is_empty())
            .expect("event thread");
        let ours: Vec<&EventRecord> = thread
            .events
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    Event::AtpgBacktrack { depth: 4 } | Event::AtpgAbort { backtracks: 30 }
                )
            })
            .collect();
        assert_eq!(ours.len(), 2);
        assert!(ours[0].seq < ours[1].seq, "per-thread order preserved");
        assert!(matches!(ours[0].event, Event::AtpgBacktrack { .. }));
        reset();
        let report = capture();
        assert!(report.threads.iter().all(|t| t.events.is_empty()));
    }

    #[test]
    fn meta_entries_reach_the_report_and_reset_clears_them() {
        let _guard = serial();
        reset();
        set_meta("bench", "unit-test");
        let report = capture();
        assert_eq!(
            report.meta.get("bench").map(String::as_str),
            Some("unit-test")
        );
        // Auto-stamped entries are always present.
        assert!(report.meta.contains_key("started_unix_ms"));
        assert!(report.meta.contains_key("workers"));
        assert!(report.meta.contains_key("cmdline"));
        reset();
        assert!(!capture().meta.contains_key("bench"));
    }

    #[test]
    fn counters_count_even_while_disabled() {
        let _guard = serial();
        reset();
        set_enabled(false);
        let c = counter("test.always");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        assert_eq!(counter_total("test.always"), 4);
    }

    #[test]
    fn counter_totals_sum_instances_and_survive_drops() {
        let _guard = serial();
        reset();
        let a = counter("test.workers");
        let b = counter("test.workers");
        a.add(2);
        b.add(5);
        assert_eq!(counter_total("test.workers"), 7);
        drop(a);
        assert_eq!(counter_total("test.workers"), 7, "dropped value banked");
        b.add(1);
        assert_eq!(counter_total("test.workers"), 8);
    }

    #[test]
    fn spans_nest_and_report() {
        let _guard = serial();
        reset();
        set_enabled(true);
        set_thread_label("test-main");
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        set_enabled(false);
        let report = capture();
        let t = report
            .threads
            .iter()
            .find(|t| t.spans.iter().any(|s| s.name == "test.outer"))
            .expect("span thread");
        assert_eq!(t.label, "test-main");
        let outer = t.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn histograms_record_only_while_enabled() {
        let _guard = serial();
        reset();
        set_enabled(false);
        let h = histogram("test.hist");
        h.record(10);
        assert_eq!(h.snapshot().count, 0);
        set_enabled(true);
        h.record(10);
        h.record(1000);
        set_enabled(false);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 1010);
        assert_eq!(snap.min, 10);
        assert_eq!(snap.max, 1000);
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = serial();
        reset();
        set_enabled(true);
        let c = counter("test.reset");
        c.add(9);
        let h = histogram("test.reset.hist");
        h.record(5);
        {
            let _s = span("test.reset.span");
        }
        reset();
        set_enabled(false);
        assert_eq!(c.get(), 0);
        assert_eq!(counter_total("test.reset"), 0);
        assert_eq!(h.snapshot().count, 0);
        let report = capture();
        assert!(report
            .threads
            .iter()
            .all(|t| !t.spans.iter().any(|s| s.name == "test.reset.span")));
    }
}
