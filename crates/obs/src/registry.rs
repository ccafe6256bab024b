//! The global metric registry: counters, histograms, span logs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::span::ThreadLog;

/// Number of log₂ buckets a histogram keeps (`u64` values need 65:
/// one for zero plus one per bit position).
const N_BUCKETS: usize = 65;

/// Locks a mutex, surviving poisoning (a panicking instrumented thread
/// must not take the whole registry down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-name counter bookkeeping: live instances plus the banked sum of
/// dropped ones.
#[derive(Default)]
struct CounterSlot {
    retired: u64,
    live: Vec<Weak<AtomicU64>>,
}

impl CounterSlot {
    fn total(&self) -> u64 {
        self.retired
            + self
                .live
                .iter()
                .filter_map(Weak::upgrade)
                .map(|c| c.load(Ordering::Relaxed))
                .sum::<u64>()
    }
}

/// The process-wide instrumentation state. Obtain it through
/// [`fn@crate::registry`]; all members of the workspace share one instance.
pub struct Registry {
    enabled: AtomicBool,
    events_enabled: AtomicBool,
    epoch: Instant,
    started_unix_ms: u128,
    counters: Mutex<BTreeMap<String, CounterSlot>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    threads: Mutex<Vec<Arc<ThreadLog>>>,
    meta: Mutex<BTreeMap<String, String>>,
    next_tid: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .field("counters", &lock(&self.counters).len())
            .field("histograms", &lock(&self.histograms).len())
            .field("threads", &lock(&self.threads).len())
            .finish()
    }
}

impl Registry {
    fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            events_enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis()),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            threads: Mutex::new(Vec::new()),
            meta: Mutex::new(BTreeMap::new()),
            next_tid: AtomicU64::new(0),
        }
    }

    /// The singleton registry.
    pub fn global() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::new)
    }

    /// Whether span/histogram recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span/histogram recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether provenance-event recording is on. Independent of
    /// [`Registry::enabled`] so event-heavy tracing never taxes a plain
    /// metrics run.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.events_enabled.load(Ordering::Relaxed)
    }

    /// Turns provenance-event recording on or off.
    pub fn set_events_enabled(&self, on: bool) {
        self.events_enabled.store(on, Ordering::Relaxed);
    }

    /// Wall-clock process start, milliseconds since the Unix epoch (the
    /// instant the registry singleton was created).
    pub fn started_unix_ms(&self) -> u128 {
        self.started_unix_ms
    }

    /// Attaches a caller-supplied metadata entry merged into every
    /// captured report's `meta` section (e.g. a bench name). Cleared by
    /// [`Registry::reset`].
    pub fn set_meta(&self, key: impl Into<String>, value: impl Into<String>) {
        lock(&self.meta).insert(key.into(), value.into());
    }

    /// The caller-supplied metadata entries.
    pub fn meta_entries(&self) -> BTreeMap<String, String> {
        lock(&self.meta).clone()
    }

    /// Nanoseconds since the registry was created — the timebase of every
    /// span record.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Creates a new [`Counter`] instance registered under `name`.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let name = name.into();
        let cell = Arc::new(AtomicU64::new(0));
        let mut counters = lock(&self.counters);
        let slot = counters.entry(name.clone()).or_default();
        slot.live.retain(|w| w.strong_count() > 0);
        slot.live.push(Arc::downgrade(&cell));
        Counter { cell, name }
    }

    /// The sum of all instances under `name` (live plus banked).
    pub fn counter_total(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, CounterSlot::total)
    }

    /// All counter totals, by name.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        lock(&self.counters)
            .iter()
            .map(|(name, slot)| (name.clone(), slot.total()))
            .collect()
    }

    /// Banks the final value of a dropping counter instance.
    fn retire_counter(&self, name: &str, value: u64) {
        if let Some(slot) = lock(&self.counters).get_mut(name) {
            slot.retired += value;
            slot.live.retain(|w| w.strong_count() > 0);
        }
    }

    /// The shared histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: impl Into<String>) -> Histogram {
        let core = lock(&self.histograms)
            .entry(name.into())
            .or_insert_with(|| Arc::new(HistogramCore::new()))
            .clone();
        Histogram { core }
    }

    /// Snapshots of every histogram, by name.
    pub fn histogram_snapshots(&self) -> BTreeMap<String, HistogramSnapshot> {
        lock(&self.histograms)
            .iter()
            .map(|(name, core)| (name.clone(), core.snapshot()))
            .collect()
    }

    /// Registers a new per-thread span log and assigns it a stable id.
    pub(crate) fn register_thread(&self) -> Arc<ThreadLog> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let log = Arc::new(ThreadLog::new(tid));
        lock(&self.threads).push(Arc::clone(&log));
        log
    }

    /// Clones the current set of per-thread logs.
    pub(crate) fn thread_logs(&self) -> Vec<Arc<ThreadLog>> {
        lock(&self.threads).clone()
    }

    /// Clears all recorded data (counter values, histograms, span
    /// records). Registrations, labels and the enable flag survive.
    pub fn reset(&self) {
        {
            let mut counters = lock(&self.counters);
            for slot in counters.values_mut() {
                slot.retired = 0;
                slot.live.retain(|w| w.strong_count() > 0);
                for cell in slot.live.iter().filter_map(Weak::upgrade) {
                    cell.store(0, Ordering::Relaxed);
                }
            }
        }
        for core in lock(&self.histograms).values() {
            core.clear();
        }
        for log in lock(&self.threads).iter() {
            log.clear();
        }
        lock(&self.meta).clear();
    }
}

/// A monotonically increasing counter instance.
///
/// Each call to [`crate::counter`] creates a **private atomic cell**;
/// the owner increments it contention-free (ATPG workers, simulators).
/// All instances registered under the same dotted name are summed by
/// [`crate::counter_total`] and in reports — when an instance drops, its
/// final value is banked so totals stay monotone. An engine publishing a
/// finished total calls `counter(name).add(total)` and drops the handle.
///
/// Counters are deliberately *not* gated on [`crate::enabled`]: one
/// relaxed `fetch_add` on an uncontended cell costs next to nothing, and
/// totals then hold for uninstrumented runs too.
#[derive(Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    name: String,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// This instance's current value (not the cross-instance total).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The instance's registered dotted name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Counter {
    fn drop(&mut self) {
        Registry::global().retire_counter(&self.name, self.get());
    }
}

/// Lock-free log₂-bucketed histogram state.
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn clear(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_midpoint(i);
                }
            }
            bucket_midpoint(N_BUCKETS - 1)
        };
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        let max = self.max.load(Ordering::Relaxed);
        // Bucket midpoints can overshoot the actually observed extremes
        // (every sample equal to 558 lands in [512, 1024), midpoint 767);
        // min/max are tracked exactly, so clamp the estimates to them.
        let q = |p: f64| quantile(p).clamp(min, max);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

/// Bucket index of `value`: 0 for zero, else one past the highest set
/// bit (so bucket `b` covers `[2^(b−1), 2^b)`).
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (u64::BITS - value.leading_zeros()) as usize
    }
}

/// Representative value of a bucket (its midpoint), used for quantile
/// estimates.
fn bucket_midpoint(bucket: usize) -> u64 {
    if bucket == 0 {
        return 0;
    }
    let lo = 1u64 << (bucket - 1);
    let hi = lo.saturating_mul(2).saturating_sub(1);
    lo + (hi - lo) / 2
}

/// Handle to a shared histogram. Recording is gated on
/// [`crate::enabled`]; while disabled, [`Histogram::record`] is a single
/// relaxed flag load.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl std::fmt::Debug for HistogramCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCore")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// Records one sample (no-op while instrumentation is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if Registry::global().enabled() {
            self.core.record(value);
        }
    }

    /// The current aggregate view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// Point-in-time aggregate view of a histogram. Quantiles are log₂-bucket
/// midpoints clamped to the observed `[min, max]`, i.e. estimates with at
/// most ~0.5× relative error that never leave the observed range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..N_BUCKETS {
            let mid = bucket_midpoint(b);
            assert_eq!(bucket_of(mid), b, "midpoint of bucket {b} stays inside");
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let _guard = crate::tests::serial();
        crate::reset();
        crate::set_enabled(true);
        let h = crate::histogram("test.registry.quantiles");
        for v in 1..=1000u64 {
            h.record(v);
        }
        crate::set_enabled(false);
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.max * 2, "log2 estimate stays in range");
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn quantiles_never_leave_the_observed_range() {
        let _guard = crate::tests::serial();
        crate::reset();
        crate::set_enabled(true);
        // The OBS_sec7_atpg.json regression: samples of 558 fall in the
        // [512, 1024) bucket whose midpoint 767 exceeded the true max.
        let h = crate::histogram("test.registry.clamp.hi");
        for _ in 0..100 {
            h.record(558);
        }
        // Min side: a single 15 sits in [8, 16) with midpoint 11 < min.
        let lo = crate::histogram("test.registry.clamp.lo");
        lo.record(15);
        crate::set_enabled(false);
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (558, 558));
        assert_eq!((s.p50, s.p90, s.p99), (558, 558, 558));
        let s = lo.snapshot();
        assert_eq!((s.min, s.max), (15, 15));
        assert_eq!(s.p50, 15);
    }
}
