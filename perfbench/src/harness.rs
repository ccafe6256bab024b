//! Measurement plumbing: output checks, spans, statistics, digests, seeded
//! randomness and the result record printed as the run's last line.

use std::cell::RefCell;
use std::time::Instant;

/// Counts attempted and failed operations. Every measured call and every
/// output check goes through here; an `Err` or a mismatch is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    tamper: Option<String>,
    /// One line per failure, printed before the result line.
    pub failures: Vec<String>,
}

impl Checks {
    /// A recorder. `tamper` names one check whose observed value is
    /// perturbed before comparison, so the smoke tests can prove that the
    /// check really compares something.
    pub fn new(tamper: Option<String>) -> Checks {
        Checks {
            tamper,
            ..Checks::default()
        }
    }

    /// Records one operation's result; returns its value when it succeeded.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a failed operation whose error was already reported.
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }

    /// Checks that two digests agree.
    pub fn same(&mut self, check: &str, got: u64, want: u64) {
        let got = if self.tamper.as_deref() == Some(check) {
            got ^ 1
        } else {
            got
        };
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            self.failures
                .push(format!("check {check}: got {got:016x}, want {want:016x}"));
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// One closed span of the benchmark's own trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Dotted layer name, e.g. `sta.full_pass`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u128,
    /// Duration in nanoseconds.
    pub dur_ns: u128,
}

/// In-memory span log around the public calls into each layer. Spans are
/// always timed (the per-layer numbers come from them); they are written
/// out only by the traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, start.elapsed());
        out
    }

    /// Durations of every span called `name`, in seconds.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Records a span timed by the caller (for spans named after their
    /// outcome).
    pub fn record(&self, name: &'static str, start: Instant, dur: std::time::Duration) {
        self.spans.borrow_mut().push(SpanRecord {
            name,
            start_ns: start.duration_since(self.origin).as_nanos(),
            dur_ns: dur.as_nanos(),
        });
    }

    /// Median duration of the spans called `name`, in seconds (0 when
    /// there are none).
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.secs(name))
    }

    /// The span log as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let items: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                    s.name, s.start_ns, s.dur_ns
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// 64-bit FNV-1a digest. Stable across platforms and toolchains, so the
/// pinned values in the checks never depend on `std`'s hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a word.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a byte string.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

/// SplitMix64: a tiny seeded generator for benchmark inputs, independent
/// of the library's own RNG so that changing one never moves the other.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream, so that inputs drawn for
    /// one purpose do not shift when another purpose draws more.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ digest_bytes(stream.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Run metadata (`nproc`, seed, digests, sizes, ...).
    pub meta: Vec<(String, String)>,
    /// Human-readable detail lines (per-cell times, failures).
    pub notes: Vec<String>,
}

impl RunReport {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values cannot be written as
    /// JSON numbers, so they are reported as failures instead.
    pub fn result_line(&self) -> String {
        let mut failed = self.failed;
        let mut items = Vec::new();
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                m.value
            } else {
                failed += 1;
                0.0
            };
            items.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            failed,
            items.join(", ")
        )
    }
}

/// Key/value pairs as one JSON object of strings.
pub fn json_object(pairs: &[(String, String)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", k, v.replace(['"', '\\'], "'")))
        .collect();
    format!("{{{}}}", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        // Reference value of FNV-1a 64 for "a".
        assert_eq!(digest_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn tampered_check_fails() {
        let mut ck = Checks::new(Some("x".into()));
        ck.same("x", 5, 5);
        ck.same("y", 5, 5);
        assert_eq!((ck.attempted(), ck.failed()), (2, 1));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let r = RunReport {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            }],
            ..RunReport::default()
        };
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
