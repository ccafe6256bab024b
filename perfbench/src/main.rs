//! `ssdm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints detail lines, a `meta:` line, and as the last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use ssdm_perfbench::harness::json_object;
use ssdm_perfbench::{run, Opts, Workload, DEFAULT_SEED};

fn parse(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("missing --workload <name>")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = match value("--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
        None => DEFAULT_SEED,
    };
    let mut opts = Opts::new(workload, seed);
    if let Some(s) = value("--seconds") {
        opts.seconds = s
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("bad --seconds {s:?}"))?;
    }
    opts.trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(s) => return Err(format!("bad --trace {s:?}; 0 or 1")),
    };
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ssdm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for note in &report.notes {
        println!("{note}");
    }
    println!("meta: {}", json_object(&report.meta));
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
