//! Report capture and the three renderers: human text tree, JSON run
//! report, Chrome trace-event export.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::OnceLock;

use crate::event::{Event, EventRecord};
use crate::json::{push_key, push_micros, push_str_lit};
use crate::registry::{HistogramSnapshot, Registry};
use crate::span::SpanRecord;

/// One thread's captured timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThreadReport {
    /// Stable thread id assigned at registration (Chrome trace `tid`).
    pub tid: u64,
    /// Label set via [`crate::set_thread_label`] (may be empty).
    pub label: String,
    /// Finished spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Provenance events, oldest first (bounded; see
    /// [`crate::EVENT_RING_CAP`]).
    pub events: Vec<EventRecord>,
    /// Events dropped from this thread's ring because it overflowed.
    pub events_dropped: u64,
}

/// A point-in-time snapshot of everything the registry has recorded.
///
/// All fields are public and plainly constructible so tests can build
/// deterministic reports (see the golden-file test of the JSON schema).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Run metadata labelling the capture (git describe, wall-clock
    /// start, worker count, command line, caller-set entries).
    pub meta: BTreeMap<String, String>,
    /// Cross-instance counter totals, by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots, by dotted name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-thread span timelines, ordered by thread id.
    pub threads: Vec<ThreadReport>,
}

/// `git describe --always --dirty` of the working directory, cached for
/// the process (one subprocess spawn ever). `None` outside a git
/// checkout or without git on PATH.
fn git_describe() -> Option<&'static str> {
    static GIT: OnceLock<Option<String>> = OnceLock::new();
    GIT.get_or_init(|| {
        let out = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8(out.stdout).ok()?;
        let text = text.trim();
        (!text.is_empty()).then(|| text.to_string())
    })
    .as_deref()
}

/// One thread's lane summary: `(tid, label, {span name → (count,
/// total_ns)})`.
pub type ThreadTotals = (u64, String, BTreeMap<String, (u64, u64)>);

/// An aggregated node of the span tree: all spans sharing one name path,
/// summed across threads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNode {
    /// Number of spans aggregated into this node.
    pub count: u64,
    /// Total wall-clock nanoseconds (summed over threads, so parallel
    /// lanes can exceed the parent's elapsed time).
    pub total_ns: u64,
    /// Children keyed by span name, in name order.
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    /// Nanoseconds spent in this node outside any child span.
    pub fn self_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.children.values().map(|c| c.total_ns).sum())
    }
}

impl Report {
    /// Snapshots the registry, stamping run metadata (`meta`): caller
    /// entries from [`crate::set_meta`] plus `git` (when available),
    /// `started_unix_ms`, `workers` and `cmdline`.
    pub fn capture(registry: &Registry) -> Report {
        let mut threads: Vec<ThreadReport> = registry
            .thread_logs()
            .iter()
            .map(|log| {
                let (events, events_dropped) = log.events();
                ThreadReport {
                    tid: log.tid,
                    label: log.label(),
                    spans: log.records(),
                    events,
                    events_dropped,
                }
            })
            .collect();
        threads.sort_by_key(|t| t.tid);
        let mut meta = registry.meta_entries();
        if let Some(git) = git_describe() {
            meta.insert("git".to_string(), git.to_string());
        }
        meta.insert(
            "started_unix_ms".to_string(),
            registry.started_unix_ms().to_string(),
        );
        meta.insert(
            "workers".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        );
        meta.insert(
            "cmdline".to_string(),
            std::env::args().collect::<Vec<_>>().join(" "),
        );
        Report {
            meta,
            counters: registry.counter_totals(),
            histograms: registry.histogram_snapshots(),
            threads,
        }
    }

    /// Aggregates every thread's spans into one tree keyed by name path.
    ///
    /// Nesting is reconstructed per thread from the recorded depths: a
    /// span of depth `d` is a child of the most recent span of depth
    /// `d − 1` on the same thread.
    pub fn span_tree(&self) -> BTreeMap<String, SpanNode> {
        let mut roots: BTreeMap<String, SpanNode> = BTreeMap::new();
        for thread in &self.threads {
            let mut ordered = thread.spans.clone();
            ordered.sort_by_key(|s| (s.start_ns, s.depth));
            // Names of the currently open ancestors, by depth.
            let mut path: Vec<String> = Vec::new();
            for span in ordered {
                path.truncate(span.depth as usize);
                path.push(span.name.clone());
                let mut node = roots.entry(path[0].clone()).or_default();
                for name in &path[1..] {
                    node = node.children.entry(name.clone()).or_default();
                }
                node.count += 1;
                node.total_ns += span.dur_ns;
            }
        }
        roots
    }

    /// Per-thread span totals by name — the per-lane summary used for
    /// worker-pool balance checks.
    pub fn thread_totals(&self) -> Vec<ThreadTotals> {
        self.threads
            .iter()
            .map(|t| {
                let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
                for s in &t.spans {
                    let e = by_name.entry(s.name.clone()).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += s.dur_ns;
                }
                (t.tid, t.label.clone(), by_name)
            })
            .collect()
    }

    /// Renders the human summary: span tree, counters, histograms.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let tree = self.span_tree();
        if !tree.is_empty() {
            out.push_str("spans (wall clock, summed across threads):\n");
            for (name, node) in &tree {
                render_text_node(&mut out, name, node, 0);
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in &self.counters {
                let name = sanitize_display(name);
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if self.histograms.values().any(|h| h.count > 0) {
            out.push_str("histograms (count / mean / p50 / p99 / max):\n");
            for (name, h) in &self.histograms {
                if h.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {}  {} / {:.1} / {} / {} / {}",
                    sanitize_display(name),
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p99,
                    h.max
                );
            }
        }
        out
    }

    /// Renders the machine-readable JSON run report (`ssdm-obs/2`
    /// schema): run metadata, counters, histograms, the aggregated span
    /// tree, per-thread summaries and provenance events.
    /// [`crate::diff::parse_report`] reads it back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  ");
        push_key(&mut out, "schema");
        out.push_str("\"ssdm-obs/2\",\n  ");

        push_key(&mut out, "meta");
        out.push('{');
        for (i, (key, value)) in self.meta.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_key(&mut out, key);
            push_str_lit(&mut out, value);
        }
        out.push_str(if self.meta.is_empty() {
            "},\n  "
        } else {
            "\n  },\n  "
        });

        push_key(&mut out, "counters");
        out.push('{');
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_key(&mut out, name);
            let _ = write!(out, "{value}");
        }
        out.push_str(if self.counters.is_empty() {
            "},\n  "
        } else {
            "\n  },\n  "
        });

        push_key(&mut out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_key(&mut out, name);
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50,
                h.p90,
                h.p99
            );
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n  "
        } else {
            "\n  },\n  "
        });

        push_key(&mut out, "spans");
        let tree = self.span_tree();
        render_json_tree(&mut out, &tree, 2);
        out.push_str(",\n  ");

        push_key(&mut out, "threads");
        out.push('[');
        let totals = self.thread_totals();
        let mut first_thread = true;
        for (tid, label, by_name) in &totals {
            if by_name.is_empty() {
                continue;
            }
            out.push_str(if first_thread { "\n    " } else { ",\n    " });
            first_thread = false;
            let _ = write!(out, "{{\"tid\": {tid}, ");
            push_key(&mut out, "label");
            push_str_lit(&mut out, label);
            out.push_str(", \"spans\": {");
            for (i, (name, (count, total_ns))) in by_name.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_key(&mut out, name);
                let _ = write!(out, "{{\"count\": {count}, \"total_us\": ");
                push_micros(&mut out, *total_ns);
                out.push('}');
            }
            out.push_str("}}");
        }
        out.push_str(if first_thread { "],\n  " } else { "\n  ],\n  " });

        push_key(&mut out, "events");
        out.push('[');
        let mut first_lane = true;
        for thread in &self.threads {
            if thread.events.is_empty() && thread.events_dropped == 0 {
                continue;
            }
            out.push_str(if first_lane { "\n    " } else { ",\n    " });
            first_lane = false;
            let _ = write!(
                out,
                "{{\"tid\": {}, \"dropped\": {}, \"records\": [",
                thread.tid, thread.events_dropped
            );
            for (i, record) in thread.events.iter().enumerate() {
                out.push_str(if i == 0 { "\n      " } else { ",\n      " });
                push_event_json(&mut out, record);
            }
            out.push_str(if thread.events.is_empty() {
                "]}"
            } else {
                "\n    ]}"
            });
        }
        out.push_str(if first_lane { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }

    /// Renders the Chrome trace-event export: a `traceEvents` array of
    /// balanced `B`/`E` duration events (timestamps in microseconds,
    /// non-decreasing per thread) plus `thread_name` metadata, one event
    /// per line. Load the file in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"traceEvents\": [\n");
        let mut first = true;
        let mut push_event = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for thread in &self.threads {
            if thread.spans.is_empty() && thread.label.is_empty() {
                continue;
            }
            let name = if thread.label.is_empty() {
                format!("thread-{}", thread.tid)
            } else {
                thread.label.clone()
            };
            let mut meta = String::from("{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, ");
            let _ = write!(meta, "\"tid\": {}, \"args\": {{\"name\": ", thread.tid);
            push_str_lit(&mut meta, &name);
            meta.push_str("}}");
            push_event(&mut out, meta);
        }
        for thread in &self.threads {
            let mut ordered = thread.spans.clone();
            ordered.sort_by_key(|s| (s.start_ns, s.depth));
            // Emit B on entering each span and E when the innermost open
            // span ends before the next one starts. Spans on one thread
            // nest properly (RAII), so a stack suffices and the emitted
            // timestamps are non-decreasing.
            let mut stack: Vec<(String, u64)> = Vec::new();
            let mut emit = |out: &mut String, ph: &str, name: &str, ts_ns: u64| {
                let mut line = String::from("{\"ph\": \"");
                line.push_str(ph);
                line.push_str("\", \"name\": ");
                push_str_lit(&mut line, name);
                let _ = write!(line, ", \"pid\": 1, \"tid\": {}, \"ts\": ", thread.tid);
                push_micros(&mut line, ts_ns);
                line.push('}');
                push_event(out, line);
            };
            for span in ordered {
                while let Some((name, end_ns)) = stack.last() {
                    if *end_ns <= span.start_ns {
                        let (name, end_ns) = (name.clone(), *end_ns);
                        emit(&mut out, "E", &name, end_ns);
                        stack.pop();
                    } else {
                        break;
                    }
                }
                emit(&mut out, "B", &span.name, span.start_ns);
                let end_ns = span.end_ns();
                stack.push((span.name, end_ns));
            }
            while let Some((name, end_ns)) = stack.pop() {
                emit(&mut out, "E", &name, end_ns);
            }
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Renders one event record as a single-line JSON object.
fn push_event_json(out: &mut String, record: &EventRecord) {
    let _ = write!(
        out,
        "{{\"seq\": {}, \"kind\": \"{}\", ",
        record.seq,
        record.event.kind()
    );
    match record.event {
        Event::StaCorner {
            net,
            edge,
            bound,
            pin,
            term,
            delay_ns,
        } => {
            let _ = write!(
                out,
                "\"net\": {net}, \"edge\": \"{}\", \"bound\": \"{}\", \
                 \"pin\": {pin}, \"term\": \"{}\", \"delay_ns\": {delay_ns:.6}",
                edge.as_str(),
                bound.as_str(),
                term.as_str()
            );
        }
        Event::ItrShrink {
            net,
            edge,
            cause,
            amount_ns,
        } => {
            let _ = write!(
                out,
                "\"net\": {net}, \"edge\": \"{}\", \"cause\": \"{}\", \
                 \"amount_ns\": {amount_ns:.6}",
                edge.as_str(),
                cause.as_str()
            );
        }
        Event::AtpgObjective { net, frame, value } => {
            let _ = write!(
                out,
                "\"net\": {net}, \"frame\": {frame}, \"value\": {value}"
            );
        }
        Event::AtpgDecision {
            pi,
            frame,
            value,
            flipped,
        } => {
            let _ = write!(
                out,
                "\"pi\": {pi}, \"frame\": {frame}, \"value\": {value}, \
                 \"flipped\": {flipped}"
            );
        }
        Event::AtpgBacktrack { depth } => {
            let _ = write!(out, "\"depth\": {depth}");
        }
        Event::AtpgAbort { backtracks } => {
            let _ = write!(out, "\"backtracks\": {backtracks}");
        }
    }
    out.push('}');
}

/// Replaces control characters in a metric/span name with `_` for
/// single-line display. Dotted names pass through unchanged, so
/// well-formed reports render byte-identically.
fn sanitize_display(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_control() { '_' } else { c })
        .collect()
}

fn render_text_node(out: &mut String, name: &str, node: &SpanNode, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    // A span name with embedded control characters cannot break the
    // text tree's line structure.
    let name = sanitize_display(name);
    let ms = node.total_ns as f64 / 1e6;
    let self_ms = node.self_ns() as f64 / 1e6;
    if node.children.is_empty() {
        let _ = writeln!(out, "{pad}{name:<32} {:>8}x {ms:>12.3} ms", node.count);
    } else {
        let _ = writeln!(
            out,
            "{pad}{name:<32} {:>8}x {ms:>12.3} ms  (self {self_ms:.3} ms)",
            node.count
        );
    }
    for (child_name, child) in &node.children {
        render_text_node(out, child_name, child, indent + 1);
    }
}

fn render_json_tree(out: &mut String, nodes: &BTreeMap<String, SpanNode>, indent: usize) {
    if nodes.is_empty() {
        out.push_str("{}");
        return;
    }
    let pad = "  ".repeat(indent + 1);
    out.push('{');
    for (i, (name, node)) in nodes.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&pad);
        push_key(out, name);
        let _ = write!(out, "{{\"count\": {}, \"total_us\": ", node.count);
        push_micros(out, node.total_ns);
        out.push_str(", \"self_us\": ");
        push_micros(out, node.self_ns());
        out.push_str(", \"children\": ");
        render_json_tree(out, &node.children, indent + 1);
        out.push('}');
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, start_ns: u64, dur_ns: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_ns,
            dur_ns,
            depth,
        }
    }

    #[test]
    fn display_sanitizer_flattens_control_characters() {
        assert_eq!(sanitize_display("a\tb\u{1}c"), "a_b_c");
        assert_eq!(sanitize_display("atpg.worker.0"), "atpg.worker.0");
    }

    #[test]
    fn span_tree_nests_by_depth() {
        let report = Report {
            threads: vec![ThreadReport {
                tid: 0,
                label: "main".into(),
                spans: vec![
                    record("inner", 10, 20, 1),
                    record("inner", 40, 10, 1),
                    record("outer", 0, 100, 0),
                ],
                ..Default::default()
            }],
            ..Default::default()
        };
        let tree = report.span_tree();
        assert_eq!(tree.len(), 1);
        let outer = &tree["outer"];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ns, 100);
        let inner = &outer.children["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.total_ns, 30);
        assert_eq!(outer.self_ns(), 70);
    }

    #[test]
    fn chrome_trace_balances_b_and_e() {
        let report = Report {
            threads: vec![ThreadReport {
                tid: 3,
                label: "worker".into(),
                spans: vec![
                    record("child", 10, 20, 1),
                    record("sibling", 35, 5, 1),
                    record("parent", 0, 50, 0),
                ],
                ..Default::default()
            }],
            ..Default::default()
        };
        let trace = report.to_chrome_trace();
        let b = trace.matches("\"ph\": \"B\"").count();
        let e = trace.matches("\"ph\": \"E\"").count();
        assert_eq!(b, 3);
        assert_eq!(e, 3);
        assert!(trace.contains("\"thread_name\""));
        // Nesting order: parent opens first, closes last.
        let first_b = trace.find("\"ph\": \"B\"").unwrap();
        assert!(trace[first_b..].find("parent").unwrap() < trace[first_b..].find("child").unwrap());
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let report = Report::default();
        let json = report.to_json();
        assert!(json.starts_with("{"));
        assert!(json.contains("\"schema\": \"ssdm-obs/2\""));
        assert!(json.contains("\"meta\": {}"));
        assert!(json.contains("\"events\": []"));
        assert!(json.trim_end().ends_with("}"));
        let trace = report.to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
    }

    #[test]
    fn events_render_with_thread_and_drop_attribution() {
        use crate::event::{Event, EventRecord};
        let report = Report {
            threads: vec![ThreadReport {
                tid: 2,
                label: "worker".into(),
                events: vec![EventRecord {
                    seq: 7,
                    event: Event::AtpgAbort { backtracks: 30 },
                }],
                events_dropped: 5,
                ..Default::default()
            }],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"tid\": 2, \"dropped\": 5, \"records\": ["));
        assert!(json.contains("{\"seq\": 7, \"kind\": \"atpg.abort\", \"backtracks\": 30}"));
    }
}
