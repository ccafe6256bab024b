//! Shared plumbing for the experiment binaries: cached cell libraries and
//! small table/series formatting helpers.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the
//! paper; see DESIGN.md §4 for the index. Libraries are characterized once
//! per machine and cached as text under `target/ssdm-cache/`, in a file
//! named after a hash of the grid ([`CellLibrary::cache_path`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use ssdm_cells::{CellError, CellLibrary, CharConfig};

/// The on-disk cache directory (inside the workspace `target/`).
pub fn cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ssdm-cache")
}

/// The full-grid standard library used by the paper experiments
/// (characterized on first use, then cached).
///
/// # Errors
///
/// Propagates characterization/IO failures.
pub fn full_library() -> Result<CellLibrary, CellError> {
    let config = CharConfig::full();
    CellLibrary::load_or_characterize_standard(
        &CellLibrary::cache_path(&cache_dir(), &config),
        &config,
    )
}

/// The coarse-grid library for quick runs.
///
/// # Errors
///
/// Propagates characterization/IO failures.
pub fn fast_library() -> Result<CellLibrary, CellError> {
    let config = CharConfig::fast();
    CellLibrary::load_or_characterize_standard(
        &CellLibrary::cache_path(&cache_dir(), &config),
        &config,
    )
}

/// Runs `f` with `ssdm-obs` instrumentation enabled and writes the JSON
/// run report to `OBS_<bench>.json` at the workspace root, next to
/// `BENCH_atpg.json`. The registry is reset before and after, so timed
/// sections elsewhere in the harness keep the disabled fast path and the
/// report covers exactly this one run.
pub fn instrumented_report<T>(bench: &str, f: impl FnOnce() -> T) -> T {
    ssdm_obs::reset();
    ssdm_obs::set_thread_label("main");
    ssdm_obs::set_meta("bench", bench);
    ssdm_obs::set_enabled(true);
    let out = f();
    ssdm_obs::set_enabled(false);
    let report = ssdm_obs::capture();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../OBS_{bench}.json"));
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("{bench}: obs run report written to {}", path.display()),
        Err(e) => eprintln!("{bench}: could not write {}: {e}", path.display()),
    }
    ssdm_obs::reset();
    out
}

/// Starts the live-telemetry HTTP exporter when the `SSDM_OBS_SERVE`
/// environment variable is set (e.g. `SSDM_OBS_SERVE=127.0.0.1:0`) and
/// prints the resolved scrape address, so local bench runs and the CI
/// scrape check can watch `/metrics` and `/healthz` while the harness
/// runs. Idempotent: the first call binds, later calls are no-ops. When
/// the variable is unset nothing happens — no listener, no thread — and
/// the `OBS_*.json` baselines are unaffected either way because
/// heartbeat state never enters the JSON run report.
pub fn serve_from_env() {
    use std::sync::OnceLock;
    static SERVER: OnceLock<Option<ssdm_obs::ObsServer>> = OnceLock::new();
    SERVER.get_or_init(|| {
        let addr = std::env::var("SSDM_OBS_SERVE").ok()?;
        ssdm_obs::progress::set_enabled(true);
        match ssdm_obs::serve::serve(addr.as_str()) {
            Ok(server) => {
                println!(
                    "serving obs telemetry on http://{}/metrics (also /snapshot, /healthz)",
                    server.addr()
                );
                Some(server)
            }
            Err(e) => {
                eprintln!("SSDM_OBS_SERVE={addr}: cannot serve: {e}");
                None
            }
        }
    });
}

/// Formats one row of right-aligned numeric columns after a left-aligned
/// label.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<22}");
    for v in values {
        s.push_str(&format!("{v:>12.4}"));
    }
    s
}

/// Formats a header row matching [`row`].
pub fn header(label: &str, columns: &[&str]) -> String {
    let mut s = format!("{label:<22}");
    for c in columns {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_aligns() {
        let h = header("x", &["a", "b"]);
        let r = row("x", &[1.0, 2.0]);
        assert_eq!(h.len(), r.len());
        assert!(h.contains("           a"));
        assert!(r.contains("      1.0000"));
    }

    #[test]
    fn cache_dir_is_inside_target() {
        assert!(cache_dir().ends_with("target/ssdm-cache"));
    }
}
