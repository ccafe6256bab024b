//! Parsing and regression-diffing of ssdm-obs JSON run reports.
//!
//! [`parse_report`] reads a report written by [`crate::Report::to_json`]
//! (schema `ssdm-obs/2`) and flattens it into comparable scalar metrics:
//!
//! * `counter:<name>` — counter totals,
//! * `hist:<name>.mean` / `.p50` / `.p90` / `.p99` / `.count` —
//!   histogram statistics,
//! * `span:<path>.self_us` — per-node self time of the aggregated span
//!   tree, with nesting rendered as `outer/inner`,
//! * `derived:memo_hit_rate` — `memo_hits / (memo_hits + memo_misses)`
//!   when the incremental-STA counters are present (higher is better).
//!
//! [`diff_reports`] compares two parsed reports against relative
//! thresholds: a metric regresses when its worse-direction relative
//! change exceeds the threshold (counters/histograms default to
//! [`DiffOptions::default_rel`], the noisier wall-clock span times to
//! [`DiffOptions::span_rel`]). Values below a noise floor on both sides
//! are skipped, so a counter going 2 → 6 does not page anyone.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, JsonValue};

/// A run report flattened to comparable scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedReport {
    /// Declared schema version (`ssdm-obs/2`).
    pub schema: String,
    /// Run metadata.
    pub meta: BTreeMap<String, String>,
    /// Flattened metrics, keyed `kind:name[.stat]`.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a JSON run report into flat metrics.
///
/// # Errors
///
/// Returns a message when the text is not JSON, lacks a `schema` field,
/// or declares a schema other than `ssdm-obs/2`.
pub fn parse_report(text: &str) -> Result<ParsedReport, String> {
    let root = json::parse(text)?;
    let schema = root
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("report lacks a \"schema\" field")?
        .to_string();
    if schema != "ssdm-obs/2" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let mut meta = BTreeMap::new();
    if let Some(m) = root.get("meta") {
        for (key, value) in m.entries() {
            if let Some(s) = value.as_str() {
                meta.insert(key.clone(), s.to_string());
            }
        }
    }
    let mut metrics = BTreeMap::new();
    if let Some(counters) = root.get("counters") {
        for (name, value) in counters.entries() {
            if let Some(v) = value.as_f64() {
                metrics.insert(format!("counter:{name}"), v);
            }
        }
    }
    if let Some(histograms) = root.get("histograms") {
        for (name, h) in histograms.entries() {
            for stat in ["count", "mean", "p50", "p90", "p99"] {
                if let Some(v) = h.get(stat).and_then(JsonValue::as_f64) {
                    metrics.insert(format!("hist:{name}.{stat}"), v);
                }
            }
        }
    }
    if let Some(spans) = root.get("spans") {
        flatten_spans(spans, &mut String::new(), &mut metrics);
    }
    let hits = metrics.get("counter:sta.incremental.memo_hits").copied();
    let misses = metrics.get("counter:sta.incremental.memo_misses").copied();
    if let (Some(h), Some(m)) = (hits, misses) {
        if h + m > 0.0 {
            metrics.insert("derived:memo_hit_rate".to_string(), h / (h + m));
        }
    }
    Ok(ParsedReport {
        schema,
        meta,
        metrics,
    })
}

fn flatten_spans(node: &JsonValue, path: &mut String, metrics: &mut BTreeMap<String, f64>) {
    for (name, span) in node.entries() {
        let saved = path.len();
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(name);
        if let Some(v) = span.get("self_us").and_then(JsonValue::as_f64) {
            metrics.insert(format!("span:{path}.self_us"), v);
        }
        if let Some(children) = span.get("children") {
            flatten_spans(children, path, metrics);
        }
        path.truncate(saved);
    }
}

/// Thresholds and direction hints for [`diff_reports`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative-change threshold for counters, histogram statistics and
    /// derived metrics.
    pub default_rel: f64,
    /// Relative-change threshold for span self-times (wall clock is far
    /// noisier across machines).
    pub span_rel: f64,
    /// Per-metric threshold overrides, keyed by the flattened metric key
    /// or by the bare name after `kind:`.
    pub per_metric: BTreeMap<String, f64>,
    /// Metrics where *larger* is better (e.g. `sta.incremental.memo_hits`);
    /// `derived:memo_hit_rate` is always treated as higher-better.
    pub higher_better: BTreeSet<String>,
    /// Counters/histogram stats below this on both sides are skipped.
    pub counter_floor: f64,
    /// Span self-times below this (µs) on both sides are skipped.
    pub span_floor_us: f64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            default_rel: 0.5,
            span_rel: 2.0,
            per_metric: BTreeMap::new(),
            higher_better: BTreeSet::new(),
            counter_floor: 16.0,
            span_floor_us: 500.0,
        }
    }
}

impl DiffOptions {
    fn is_span(key: &str) -> bool {
        key.starts_with("span:")
    }

    /// Floor below which a metric is considered noise.
    fn floor(&self, key: &str) -> f64 {
        if Self::is_span(key) {
            self.span_floor_us
        } else if key.starts_with("counter:") || key.ends_with(".count") {
            self.counter_floor
        } else {
            // Histogram value statistics and derived ratios are exact
            // functions of counted work — no wall-clock noise to floor.
            0.0
        }
    }

    fn threshold(&self, key: &str) -> f64 {
        if let Some(&t) = self.per_metric.get(key) {
            return t;
        }
        if let Some(bare) = key.split_once(':').map(|(_, rest)| rest) {
            if let Some(&t) = self.per_metric.get(bare) {
                return t;
            }
        }
        if Self::is_span(key) {
            self.span_rel
        } else {
            self.default_rel
        }
    }

    fn is_higher_better(&self, key: &str) -> bool {
        if key == "derived:memo_hit_rate" {
            return true;
        }
        self.higher_better.contains(key)
            || key
                .split_once(':')
                .is_some_and(|(_, bare)| self.higher_better.contains(bare))
    }
}

/// Verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within threshold.
    Ok,
    /// Changed beyond threshold in the good direction.
    Improved,
    /// Changed beyond threshold in the bad direction.
    Regressed,
    /// Present only in the current report.
    MissingInBaseline,
    /// Present only in the baseline report.
    MissingInCurrent,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Flattened metric key.
    pub metric: String,
    /// Baseline value, if present.
    pub base: Option<f64>,
    /// Current value, if present.
    pub current: Option<f64>,
    /// Signed relative change `(current − base) / |base|` (0 when either
    /// side is missing).
    pub rel_change: f64,
    /// Threshold the change was judged against.
    pub threshold: f64,
    /// Verdict.
    pub status: DiffStatus,
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// One entry per compared metric (noise-floored metrics excluded).
    pub entries: Vec<DiffEntry>,
    /// Metrics skipped because both sides sat below the noise floor.
    pub skipped: usize,
}

impl DiffReport {
    /// Number of regressed metrics.
    pub fn regressions(&self) -> usize {
        self.count(DiffStatus::Regressed)
    }

    /// Number of metrics present on only one side.
    pub fn missing(&self) -> usize {
        self.missing_in_baseline() + self.missing_in_current()
    }

    /// Number of metrics present only in the current report (new
    /// coverage).
    pub fn missing_in_baseline(&self) -> usize {
        self.count(DiffStatus::MissingInBaseline)
    }

    /// Number of metrics present in the baseline but absent from the
    /// current report (lost coverage — what `--fail-on-missing` gates
    /// on).
    pub fn missing_in_current(&self) -> usize {
        self.count(DiffStatus::MissingInCurrent)
    }

    /// Whether no metric regressed (missing metrics do not count; gate
    /// on [`DiffReport::missing`] separately for strict comparisons).
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    fn count(&self, status: DiffStatus) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }

    /// Renders the human summary: one line per out-of-threshold metric
    /// plus totals.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for entry in &self.entries {
            let tag = match entry.status {
                DiffStatus::Ok => continue,
                DiffStatus::Improved => "IMPROVED",
                DiffStatus::Regressed => "REGRESSED",
                DiffStatus::MissingInBaseline => "MISSING-IN-BASELINE",
                DiffStatus::MissingInCurrent => "MISSING-IN-CURRENT",
            };
            let _ = write!(out, "{tag:<19}  {}", entry.metric);
            match (entry.base, entry.current) {
                (Some(b), Some(c)) => {
                    let _ = writeln!(
                        out,
                        "  {b} -> {c}  ({:+.1}% vs ±{:.0}%)",
                        entry.rel_change * 100.0,
                        entry.threshold * 100.0
                    );
                }
                (Some(b), None) => {
                    let _ = writeln!(out, "  {b} -> (absent)");
                }
                (None, Some(c)) => {
                    let _ = writeln!(out, "  (absent) -> {c}");
                }
                (None, None) => {
                    let _ = writeln!(out);
                }
            }
        }
        let _ = writeln!(
            out,
            "{} metric(s) compared, {} ok, {} improved, {} regressed, \
             {} only-in-baseline, {} only-in-current, {} below noise floor",
            self.entries.len(),
            self.count(DiffStatus::Ok),
            self.count(DiffStatus::Improved),
            self.regressions(),
            self.missing_in_current(),
            self.missing_in_baseline(),
            self.skipped
        );
        out
    }
}

/// Compares `current` against `base` metric-by-metric.
pub fn diff_reports(base: &ParsedReport, current: &ParsedReport, opts: &DiffOptions) -> DiffReport {
    let keys: BTreeSet<&String> = base.metrics.keys().chain(current.metrics.keys()).collect();
    let mut report = DiffReport::default();
    for key in keys {
        let b = base.metrics.get(key).copied();
        let c = current.metrics.get(key).copied();
        // The noise floor applies only when both sides actually measured
        // a value. A metric present in one report and absent from the
        // other is a coverage change, not noise — flooring it (a missing
        // side used to read as 0 here) silently hid baseline metrics
        // that vanished from the candidate.
        if let (Some(b), Some(c)) = (b, c) {
            let floor = opts.floor(key);
            if b.abs() < floor && c.abs() < floor {
                report.skipped += 1;
                continue;
            }
        }
        let threshold = opts.threshold(key);
        let (rel_change, status) = match (b, c) {
            (Some(b), Some(c)) => {
                let rel = if b != 0.0 {
                    (c - b) / b.abs()
                } else if c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                let worse = if opts.is_higher_better(key) {
                    -rel
                } else {
                    rel
                };
                let status = if worse > threshold {
                    DiffStatus::Regressed
                } else if worse < -threshold {
                    DiffStatus::Improved
                } else {
                    DiffStatus::Ok
                };
                (rel, status)
            }
            (Some(_), None) => (0.0, DiffStatus::MissingInCurrent),
            (None, Some(_)) => (0.0, DiffStatus::MissingInBaseline),
            (None, None) => continue,
        };
        report.entries.push(DiffEntry {
            metric: key.clone(),
            base: b,
            current: c,
            rel_change,
            threshold,
            status,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counters: &[(&str, f64)]) -> ParsedReport {
        ParsedReport {
            schema: "ssdm-obs/2".to_string(),
            meta: BTreeMap::new(),
            metrics: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn rejects_v1_schema_by_name() {
        let v2 = r#"{
  "schema": "ssdm-obs/2",
  "meta": {"git": "abc123"},
  "counters": {"sta.incremental.memo_hits": 18150, "sta.incremental.memo_misses": 0},
  "histograms": {"sta.refine.cone_gates": {"count": 10, "sum": 18160, "min": 1816, "max": 1816, "mean": 1816.000, "p50": 1535, "p90": 1535, "p99": 1535}},
  "spans": {"itr.refine": {"count": 10, "total_us": 10030.487, "self_us": 3083.047, "children": {
    "sta.refine": {"count": 10, "total_us": 6947.440, "self_us": 6947.440, "children": {}}}}},
  "threads": [],
  "events": []
}"#;
        let parsed = parse_report(v2).unwrap();
        assert_eq!(parsed.schema, "ssdm-obs/2");
        assert_eq!(parsed.meta["git"], "abc123");
        assert_eq!(parsed.metrics["counter:sta.incremental.memo_hits"], 18150.0);
        assert_eq!(parsed.metrics["hist:sta.refine.cone_gates.mean"], 1816.0);
        assert_eq!(
            parsed.metrics["span:itr.refine/sta.refine.self_us"],
            6947.44
        );
        assert_eq!(parsed.metrics["derived:memo_hit_rate"], 1.0);

        let v1 = v2.replace("ssdm-obs/2", "ssdm-obs/1");
        let err = parse_report(&v1).unwrap_err();
        assert!(
            err.contains("ssdm-obs/1"),
            "error must name the schema: {err}"
        );
    }

    #[test]
    fn rejects_unknown_schema_and_non_reports() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report(r#"{"schema": "ssdm-obs/9"}"#).is_err());
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn self_diff_is_clean() {
        let r = report(&[("counter:atpg.podem.backtracks", 97.0)]);
        let d = diff_reports(&r, &r, &DiffOptions::default());
        assert!(d.is_clean());
        assert_eq!(d.missing(), 0);
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.entries[0].status, DiffStatus::Ok);
    }

    #[test]
    fn doubled_counter_regresses() {
        let base = report(&[("counter:atpg.podem.backtracks", 100.0)]);
        let cur = report(&[("counter:atpg.podem.backtracks", 200.0)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(d.regressions(), 1);
        assert!(!d.is_clean());
        let e = &d.entries[0];
        assert_eq!(e.status, DiffStatus::Regressed);
        assert!((e.rel_change - 1.0).abs() < 1e-12);
        assert!(d.to_text().contains("REGRESSED"));
    }

    #[test]
    fn halved_counter_improves() {
        let base = report(&[("counter:atpg.podem.backtracks", 200.0)]);
        let cur = report(&[("counter:atpg.podem.backtracks", 80.0)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert!(d.is_clean());
        assert_eq!(d.entries[0].status, DiffStatus::Improved);
        // Exactly at the threshold is neither regression nor improvement.
        let at = report(&[("counter:atpg.podem.backtracks", 100.0)]);
        let d = diff_reports(&base, &at, &DiffOptions::default());
        assert_eq!(d.entries[0].status, DiffStatus::Ok);
    }

    #[test]
    fn higher_better_metrics_invert_direction() {
        let base = report(&[("counter:sta.incremental.memo_hits", 200.0)]);
        let cur = report(&[("counter:sta.incremental.memo_hits", 80.0)]);
        let neutral = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(neutral.entries[0].status, DiffStatus::Improved);
        let opts = DiffOptions {
            higher_better: ["sta.incremental.memo_hits".to_string()].into(),
            ..DiffOptions::default()
        };
        let d = diff_reports(&base, &cur, &opts);
        assert_eq!(d.entries[0].status, DiffStatus::Regressed);
        // Hit *rate* falling is a regression without any configuration.
        let base = report(&[("derived:memo_hit_rate", 0.9)]);
        let cur = report(&[("derived:memo_hit_rate", 0.2)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(d.regressions(), 1);
    }

    #[test]
    fn missing_metrics_are_reported_on_either_side() {
        let base = report(&[("counter:a.old", 100.0)]);
        let cur = report(&[("counter:b.new", 100.0)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(d.missing(), 2);
        assert!(d.is_clean(), "missing alone is not a regression");
        let by_status: Vec<_> = d.entries.iter().map(|e| e.status).collect();
        assert!(by_status.contains(&DiffStatus::MissingInCurrent));
        assert!(by_status.contains(&DiffStatus::MissingInBaseline));
        assert_eq!(d.missing_in_current(), 1);
        assert_eq!(d.missing_in_baseline(), 1);
        let text = d.to_text();
        assert!(text.contains("MISSING-IN-CURRENT"));
        assert!(text.contains("MISSING-IN-BASELINE"));
        assert!(text.contains("1 only-in-baseline"));
        assert!(text.contains("1 only-in-current"));
    }

    #[test]
    fn missing_metrics_below_the_noise_floor_still_surface() {
        // Regression guard: the floor used to read a missing side as 0,
        // so a baseline-only counter worth less than the floor vanished
        // from the diff entirely.
        let base = report(&[("counter:tiny.gone", 2.0)]);
        let cur = report(&[]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(d.skipped, 0);
        assert_eq!(d.missing_in_current(), 1);
        assert_eq!(d.entries[0].status, DiffStatus::MissingInCurrent);
        // Symmetric direction: a tiny brand-new metric is still new.
        let d = diff_reports(&cur, &base, &DiffOptions::default());
        assert_eq!(d.missing_in_baseline(), 1);
    }

    #[test]
    fn noise_floor_skips_tiny_values() {
        let base = report(&[("counter:tiny", 2.0), ("span:quick.self_us", 40.0)]);
        let cur = report(&[("counter:tiny", 6.0), ("span:quick.self_us", 400.0)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert!(d.entries.is_empty());
        assert_eq!(d.skipped, 2);
        // A large current value against a tiny baseline still compares.
        let cur = report(&[("counter:tiny", 60.0)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(d.regressions(), 1);
    }

    #[test]
    fn per_metric_thresholds_override_defaults() {
        let base = report(&[("counter:a.b", 100.0)]);
        let cur = report(&[("counter:a.b", 130.0)]);
        assert!(diff_reports(&base, &cur, &DiffOptions::default()).is_clean());
        let opts = DiffOptions {
            per_metric: [("a.b".to_string(), 0.1)].into(),
            ..DiffOptions::default()
        };
        assert_eq!(diff_reports(&base, &cur, &opts).regressions(), 1);
    }

    #[test]
    fn zero_baseline_handled() {
        let base = report(&[("counter:fresh", 0.0)]);
        let cur = report(&[("counter:fresh", 50.0)]);
        let d = diff_reports(&base, &cur, &DiffOptions::default());
        assert_eq!(d.regressions(), 1, "0 -> 50 is an infinite increase");
        let d = diff_reports(&base, &base, &DiffOptions::default());
        assert_eq!(d.skipped, 1, "0 -> 0 sits under the floor");
    }
}
