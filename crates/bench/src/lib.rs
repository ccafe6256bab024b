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
