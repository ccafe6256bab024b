//! `ssdm-cli` — drive the workspace from the command line.
//!
//! ```text
//! ssdm-cli sta <netlist.bench> [--pin-to-pin] [--full-lib]
//!     Run static timing analysis on an ISCAS85-format netlist and print
//!     the endpoint report, the critical path and the min/max delays.
//!
//! ssdm-cli gen <name>
//!     Emit a suite circuit (c17, c880s, c1355s, c1908s, c3540s, c7552s)
//!     as .bench text on stdout.
//!
//! ssdm-cli atpg <netlist.bench> <n_faults> [--no-itr] [--jobs N]
//!     Run a crosstalk-delay-fault ATPG campaign with fault dropping over
//!     N parallel workers and print the statistics.
//!
//! ssdm-cli characterize [--full-lib] [--jobs N]
//!     Build (or refresh) the cached cell library on N worker threads and
//!     print its summary.
//!
//! ssdm-cli explain <netlist.bench> [--pin-to-pin] [--full-lib]
//!     Run STA with provenance events enabled and reconstruct the
//!     critical path from the recorded corner decisions: one line per
//!     stage naming the winning input pin, the V-shape segment
//!     (DR / D0R / SR / MILLER) and the delay it contributed. The staged
//!     delays are checked to sum to the reported worst arrival.
//!
//! ssdm-cli obs-diff <baseline.json> <current.json> [options]
//!     Compare two ssdm-obs JSON run reports and exit non-zero when any
//!     metric regressed beyond its relative threshold. Options:
//!         --default-threshold R   counters/histograms (default 0.5)
//!         --span-threshold R      span self-times (default 2.0)
//!         --threshold NAME=R      per-metric override (repeatable)
//!         --higher-better NAME    larger is better (repeatable)
//!         --strict                also fail when a metric is present on
//!                                 only one side
//!         --fail-on-missing       fail when a baseline metric is absent
//!                                 from the current report (lost coverage)
//! ```
//!
//! Every command additionally accepts the observability flags:
//!
//! ```text
//! --metrics-out <file.json>    write the ssdm-obs JSON run report
//! --trace-out <file.json>      write a Chrome trace-event file
//!                              (load it at https://ui.perfetto.dev)
//! ```
//!
//! Either flag enables instrumentation for the run and prints an
//! end-of-run summary table (span tree, counters, histograms) to stderr;
//! a SIGINT (Ctrl-C) during an instrumented run still writes the
//! requested reports before exiting with code 130. Campaign outcomes are
//! bit-identical with and without instrumentation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use std::path::PathBuf;
use std::process::ExitCode;

use ssdm::atpg::{AtpgConfig, AtpgDriver};
use ssdm::cells::{CellLibrary, CharConfig};
use ssdm::netlist::{coupling_sites, parse_bench, suite, Circuit};
use ssdm::sta::{timing_report, ModelKind, Sta, StaConfig};

fn char_config(full: bool) -> CharConfig {
    if full {
        CharConfig::full()
    } else {
        CharConfig::fast()
    }
}

fn cache_path(full: bool) -> PathBuf {
    CellLibrary::cache_path("target/ssdm-cache".as_ref(), &char_config(full))
}

/// Parses an option taking a path value (e.g. `--metrics-out m.json`).
fn parse_path_opt(
    args: &[String],
    flag: &str,
) -> Result<Option<PathBuf>, Box<dyn std::error::Error>> {
    match args.iter().position(|a| a == flag) {
        Some(idx) => args
            .get(idx + 1)
            .map(|s| Some(PathBuf::from(s)))
            .ok_or_else(|| format!("{flag} needs a file path").into()),
        None => Ok(None),
    }
}

/// The observability flags shared by every command.
#[derive(Debug, Clone, PartialEq)]
struct ObsArgs {
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl ObsArgs {
    fn parse(args: &[String]) -> Result<ObsArgs, Box<dyn std::error::Error>> {
        Ok(ObsArgs {
            metrics_out: parse_path_opt(args, "--metrics-out")?,
            trace_out: parse_path_opt(args, "--trace-out")?,
        })
    }

    fn active(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some()
    }

    /// Captures the run report, writes the requested files and prints the
    /// summary table (to stderr, keeping stdout parseable).
    fn finish(&self) -> Result<(), Box<dyn std::error::Error>> {
        if !self.active() {
            return Ok(());
        }
        ssdm::obs::set_enabled(false);
        let report = ssdm::obs::capture();
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, report.to_json())?;
            eprintln!("metrics written to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, report.to_chrome_trace())?;
            eprintln!("trace written to {} (open in Perfetto)", path.display());
        }
        eprint!("{}", report.to_text());
        Ok(())
    }
}

/// Set by the SIGINT handler; polled by the interrupt watcher thread.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    // Async-signal-safe: a single atomic store, nothing else.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler and the watcher thread that writes the
/// final reports before exiting 130. Only called for instrumented runs,
/// so uninstrumented runs spawn no thread and keep default Ctrl-C
/// behaviour.
fn install_sigint_reporter(obs_args: &ObsArgs) {
    // Hand-declared to keep the workspace dependency-free; `signal` with
    // a flag-only handler is portable across the unix targets we build.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
    let metrics_out = obs_args.metrics_out.clone();
    let trace_out = obs_args.trace_out.clone();
    std::thread::spawn(move || loop {
        if INTERRUPTED.load(Ordering::SeqCst) {
            ssdm::obs::set_enabled(false);
            let report = ssdm::obs::capture();
            if let Some(path) = &metrics_out {
                if std::fs::write(path, report.to_json()).is_ok() {
                    eprintln!(
                        "ssdm-cli: interrupted; metrics written to {}",
                        path.display()
                    );
                }
            }
            if let Some(path) = &trace_out {
                let _ = std::fs::write(path, report.to_chrome_trace());
            }
            eprintln!("ssdm-cli: interrupted (SIGINT), exiting");
            std::process::exit(130);
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}

/// Parses an option taking an `f64` value (e.g. `--default-threshold 0.5`).
fn parse_f64_opt(args: &[String], flag: &str) -> Result<Option<f64>, Box<dyn std::error::Error>> {
    match args.iter().position(|a| a == flag) {
        Some(idx) => args
            .get(idx + 1)
            .and_then(|s| s.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a number").into()),
        None => Ok(None),
    }
}

/// Collects the values of every occurrence of a repeatable option.
fn parse_multi_opt(args: &[String], flag: &str) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            values.push(
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))?,
            );
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(values)
}

/// Parses `--jobs N`, defaulting to the available cores.
fn parse_jobs(args: &[String]) -> Result<usize, Box<dyn std::error::Error>> {
    match args.iter().position(|a| a == "--jobs") {
        Some(idx) => args
            .get(idx + 1)
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| "--jobs needs a positive integer".into()),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

fn load_library(full: bool, jobs: usize) -> Result<CellLibrary, Box<dyn std::error::Error>> {
    Ok(CellLibrary::load_or_characterize_standard_with_jobs(
        &cache_path(full),
        &char_config(full),
        jobs,
    )?)
}

fn load_circuit(path: &str) -> Result<Circuit, Box<dyn std::error::Error>> {
    if let Some(c) = (path == "c17")
        .then(suite::c17)
        .or_else(|| suite::synthetic(path))
    {
        return Ok(c);
    }
    let text = std::fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    Ok(parse_bench(name, &text)?)
}

fn cmd_sta(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("usage: ssdm-cli sta <netlist.bench>")?;
    let pin_to_pin = args.iter().any(|a| a == "--pin-to-pin");
    let full = args.iter().any(|a| a == "--full-lib");
    let circuit = load_circuit(path)?;
    let lib = load_library(full, parse_jobs(args)?)?;
    let model = if pin_to_pin {
        ModelKind::PinToPin
    } else {
        ModelKind::Proposed
    };
    let result = Sta::new(&circuit, &lib, StaConfig::default().with_model(model)).run()?;
    print!("{}", timing_report(&circuit, &result));
    println!();
    println!(
        "model: {:?}   min delay: {:.4}   max delay: {:.4}",
        model,
        result.endpoint_min_delay(&circuit),
        result.endpoint_max_delay(&circuit)
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let name = args.first().ok_or("usage: ssdm-cli gen <suite-name>")?;
    let circuit = if name == "c17" {
        suite::c17()
    } else {
        suite::synthetic(name).ok_or_else(|| {
            format!(
                "unknown suite member {name:?}; try: {}",
                suite::suite_names().join(", ")
            )
        })?
    };
    print!("{}", ssdm::netlist::write_bench(&circuit));
    Ok(())
}

fn cmd_atpg(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args
        .first()
        .ok_or("usage: ssdm-cli atpg <netlist.bench> <n_faults>")?;
    let n_faults: usize = args
        .get(1)
        .ok_or("missing fault count")?
        .parse()
        .map_err(|_| "fault count must be an integer")?;
    let use_itr = !args.iter().any(|a| a == "--no-itr");
    let jobs = parse_jobs(args)?;
    let circuit = load_circuit(path)?;
    let lib = load_library(false, jobs)?;
    let sites = coupling_sites(&circuit, n_faults, 42);
    // Clock derived from the circuit's own STA max delay.
    let config = AtpgConfig {
        use_itr,
        ..AtpgConfig::for_circuit(&circuit, &lib)?
    };
    let result = AtpgDriver::new(&circuit, &lib, config)
        .with_jobs(jobs)
        .run(&sites)?;
    let s = result.stats;
    println!(
        "{}: {} faults, ITR {}, {jobs} worker(s): detected {} ({} dropped), undetectable {}, aborted {} → efficiency {:.1}%",
        circuit.name(),
        sites.len(),
        if use_itr { "on" } else { "off" },
        s.detected,
        s.dropped,
        s.undetectable,
        s.aborted,
        s.efficiency() * 100.0
    );
    Ok(())
}

fn cmd_characterize(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let full = args.iter().any(|a| a == "--full-lib");
    let lib = load_library(full, parse_jobs(args)?)?;
    println!(
        "library {:?} ({} cells): {}",
        cache_path(full),
        lib.len(),
        lib.names().collect::<Vec<_>>().join(", ")
    );
    for cell in lib.iter() {
        println!(
            "  {:<6} {} inputs, {} simultaneous pairs, input cap {}",
            cell.name(),
            cell.n_inputs(),
            cell.pairs().len(),
            cell.input_cap()
        );
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use ssdm::obs::{Event, EventBound, EventEdge};
    use ssdm::sta::propagate::event_edge;
    use ssdm::sta::slowest_endpoint;
    use std::collections::HashMap;

    let path = args
        .first()
        .ok_or("usage: ssdm-cli explain <netlist.bench>")?;
    let pin_to_pin = args.iter().any(|a| a == "--pin-to-pin");
    let full = args.iter().any(|a| a == "--full-lib");
    let circuit = load_circuit(path)?;
    let lib = load_library(full, parse_jobs(args)?)?;
    let model = if pin_to_pin {
        ModelKind::PinToPin
    } else {
        ModelKind::Proposed
    };
    ssdm::obs::set_events_enabled(true);
    let result = Sta::new(&circuit, &lib, StaConfig::default().with_model(model)).run()?;
    ssdm::obs::set_events_enabled(false);
    let report = ssdm::obs::capture();

    // Index the recorded corner decisions: the last event per
    // (net, edge, bound) is the one the final windows came from.
    type Corner = (u64, usize, ssdm::obs::DelayTerm, f64);
    let mut corners: HashMap<(u32, EventEdge, EventBound), Corner> = HashMap::new();
    for thread in &report.threads {
        for r in &thread.events {
            if let Event::StaCorner {
                net,
                edge,
                bound,
                pin,
                term,
                delay_ns,
            } = r.event
            {
                let slot = corners.entry((net, edge, bound)).or_insert((
                    r.seq,
                    pin as usize,
                    term,
                    delay_ns,
                ));
                if r.seq >= slot.0 {
                    *slot = (r.seq, pin as usize, term, delay_ns);
                }
            }
        }
    }

    let (po, end_edge, end_arrival) = slowest_endpoint(&circuit, &result)
        .ok_or("no timed endpoint: every output window is vetoed")?;

    // Walk the provenance chain backward: each corner event names the
    // winning pin, so the chain is fully determined by the events.
    let mut stages = Vec::new();
    let mut net = po;
    let mut edge = end_edge;
    while !circuit.is_input(net) {
        let key = (net.index() as u32, event_edge(edge), EventBound::Max);
        let &(_, pin, term, delay_ns) = corners.get(&key).ok_or_else(|| {
            format!(
                "no corner provenance recorded for net {} ({edge})",
                circuit.gate(net).name
            )
        })?;
        stages.push((net, edge, pin, term, delay_ns));
        let gate = circuit.gate(net);
        let fanin = *gate
            .fanin
            .get(pin)
            .ok_or("corner event names a pin the gate does not have")?;
        edge = edge.through(result.gate_inverting(net));
        net = fanin;
    }
    stages.reverse();

    let launch = result
        .line(net)
        .edge(edge)
        .ok_or("launch input has no window")?
        .arrival
        .l();
    println!(
        "Critical path — {} (model {:?}), endpoint {} {} @ {:.6} ns",
        circuit.name(),
        model,
        circuit.gate(po).name,
        end_edge,
        end_arrival.as_ns()
    );
    println!();
    println!(
        "{:<14}{:<6}{:<18}{:<8}{:>12}{:>14}",
        "net", "edge", "from", "term", "delay ns", "arrival ns"
    );
    println!(
        "{:<14}{:<6}{:<18}{:<8}{:>12}{:>14.6}",
        circuit.gate(net).name,
        edge_str(edge),
        "(launch)",
        "—",
        "—",
        launch.as_ns()
    );
    let mut sum = launch.as_ns();
    for &(net, edge, pin, term, delay_ns) in &stages {
        sum += delay_ns;
        let gate = circuit.gate(net);
        let arrival = result
            .line(net)
            .edge(edge)
            .map_or(f64::NAN, |et| et.arrival.l().as_ns());
        println!(
            "{:<14}{:<6}{:<18}{:<8}{:>12.6}{:>14.6}",
            gate.name,
            edge_str(edge),
            format!("{} (pin {pin})", circuit.gate(gate.fanin[pin]).name),
            term.as_str(),
            delay_ns,
            arrival
        );
    }
    println!();
    println!(
        "staged delays: {:.6} ns launch + {:.6} ns through {} stage(s) = {:.6} ns",
        launch.as_ns(),
        sum - launch.as_ns(),
        stages.len(),
        sum
    );
    let reported = end_arrival.as_ns();
    let err = (sum - reported).abs();
    if err > 1e-6 {
        return Err(format!(
            "provenance does not reconstruct the arrival: \
             staged sum {sum:.9} ns vs reported {reported:.9} ns (|Δ| = {err:.3e})"
        )
        .into());
    }
    println!("reported worst arrival: {reported:.6} ns (reconstruction error {err:.1e})");
    Ok(())
}

fn edge_str(e: ssdm::timing::Edge) -> &'static str {
    match e {
        ssdm::timing::Edge::Rise => "R",
        ssdm::timing::Edge::Fall => "F",
    }
}

fn cmd_obs_diff(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use ssdm::obs::diff::{diff_reports, parse_report, DiffOptions, ParsedReport};

    const USAGE: &str = "usage: ssdm-cli obs-diff <baseline.json> <current.json> [options]";
    let base_path = args.first().filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let cur_path = args.get(1).filter(|a| !a.starts_with("--")).ok_or(USAGE)?;
    let mut opts = DiffOptions::default();
    if let Some(v) = parse_f64_opt(args, "--default-threshold")? {
        opts.default_rel = v;
    }
    if let Some(v) = parse_f64_opt(args, "--span-threshold")? {
        opts.span_rel = v;
    }
    for spec in parse_multi_opt(args, "--threshold")? {
        let (name, value) = spec
            .split_once('=')
            .ok_or("--threshold needs NAME=RELATIVE")?;
        let value: f64 = value
            .parse()
            .map_err(|_| "--threshold needs NAME=RELATIVE")?;
        opts.per_metric.insert(name.to_string(), value);
    }
    for name in parse_multi_opt(args, "--higher-better")? {
        opts.higher_better.insert(name);
    }
    let strict = args.iter().any(|a| a == "--strict");
    let fail_on_missing = args.iter().any(|a| a == "--fail-on-missing");

    let load = |path: &str| -> Result<ParsedReport, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_report(&text).map_err(|e| format!("{path}: {e}").into())
    };
    let base = load(base_path)?;
    let current = load(cur_path)?;
    let describe = |r: &ParsedReport| {
        let tags: Vec<String> = r.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if tags.is_empty() {
            r.schema.clone()
        } else {
            format!("{}, {}", r.schema, tags.join(", "))
        }
    };
    println!("baseline: {base_path} ({})", describe(&base));
    println!("current:  {cur_path} ({})", describe(&current));
    let diff = diff_reports(&base, &current, &opts);
    print!("{}", diff.to_text());
    if !diff.is_clean() {
        return Err(format!(
            "{} metric(s) regressed beyond threshold",
            diff.regressions()
        )
        .into());
    }
    if strict && diff.missing() > 0 {
        return Err(format!(
            "{} metric(s) present on only one side (--strict)",
            diff.missing()
        )
        .into());
    }
    if fail_on_missing && diff.missing_in_current() > 0 {
        return Err(format!(
            "{} baseline metric(s) absent from the current report (--fail-on-missing)",
            diff.missing_in_current()
        )
        .into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<(), Box<dyn std::error::Error>> {
        let (cmd, rest) = args.split_first().ok_or(
            "usage: ssdm-cli <sta|gen|atpg|characterize|explain|obs-diff> …  (see crate docs)",
        )?;
        let obs_args = ObsArgs::parse(rest)?;
        if obs_args.active() {
            ssdm::obs::set_thread_label("main");
            ssdm::obs::set_enabled(true);
            install_sigint_reporter(&obs_args);
        }
        match cmd.as_str() {
            "sta" => cmd_sta(rest)?,
            "gen" => cmd_gen(rest)?,
            "atpg" => cmd_atpg(rest)?,
            "characterize" => cmd_characterize(rest)?,
            "explain" => cmd_explain(rest)?,
            "obs-diff" => cmd_obs_diff(rest)?,
            other => return Err(format!("unknown command {other:?}").into()),
        }
        obs_args.finish()
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ssdm-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn obs_args_default_to_inactive() {
        let parsed = ObsArgs::parse(&args(&["c17", "10", "--jobs", "4"])).unwrap();
        assert_eq!(parsed.metrics_out, None);
        assert_eq!(parsed.trace_out, None);
        assert!(!parsed.active());
    }

    #[test]
    fn obs_args_parse_every_flag() {
        let parsed = ObsArgs::parse(&args(&[
            "c17",
            "--metrics-out",
            "m.json",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(parsed.metrics_out, Some(PathBuf::from("m.json")));
        assert_eq!(parsed.trace_out, Some(PathBuf::from("t.json")));
        assert!(parsed.active());
    }

    #[test]
    fn each_flag_alone_activates_instrumentation() {
        for flags in [&["--metrics-out", "m.json"][..], &["--trace-out", "t.json"]] {
            let parsed = ObsArgs::parse(&args(flags)).unwrap();
            assert!(parsed.active(), "{flags:?} must activate");
        }
    }

    #[test]
    fn obs_args_reject_bad_values() {
        // Missing values.
        assert!(ObsArgs::parse(&args(&["--metrics-out"])).is_err());
        assert!(ObsArgs::parse(&args(&["--trace-out"])).is_err());
    }
}
