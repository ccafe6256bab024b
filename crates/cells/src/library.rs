//! A keyed collection of characterized cells with text (de)serialization.
//!
//! The format is deliberately simple and line-oriented so characterized
//! libraries can be versioned and diffed; no external serialization
//! dependency is needed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ssdm_core::Time;
use ssdm_spice::GateKind;

use crate::cell::{CharacterizedGate, PairTiming, PinTiming};
use crate::error::CellError;
use crate::fit::{D0Surface, Poly1, Quad2};
use crate::sweep::{all_cores, characterize_cells, CharConfig, Characterizer};

const MAGIC: &str = "ssdm-cell-library v2";

/// Version of what a fresh characterization writes: the text format, the
/// sweeps and the simulator behind them. It is part of every
/// [`CellLibrary::cache_path`], so bump it whenever a change makes a
/// cached library stale.
pub const LIBRARY_FORMAT_VERSION: u32 = 1;

/// A collection of characterized cells, keyed by name.
///
/// # Example
///
/// ```no_run
/// use ssdm_cells::{CellLibrary, CharConfig};
/// let lib = CellLibrary::characterize_standard(&CharConfig::fast())?;
/// let text = lib.to_text();
/// let reloaded = CellLibrary::from_text(&text)?;
/// assert_eq!(lib.names().count(), reloaded.names().count());
/// # Ok::<(), ssdm_cells::CellError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellLibrary {
    cells: BTreeMap<String, CharacterizedGate>,
}

impl CellLibrary {
    /// An empty library.
    pub fn new() -> CellLibrary {
        CellLibrary::default()
    }

    /// Inserts a cell, returning any previous cell with the same name.
    pub fn insert(&mut self, cell: CharacterizedGate) -> Option<CharacterizedGate> {
        self.cells.insert(cell.name().to_owned(), cell)
    }

    /// Looks up a cell by name.
    pub fn get(&self, name: &str) -> Option<&CharacterizedGate> {
        self.cells.get(name)
    }

    /// Looks up a cell, returning an error naming the missing cell.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::UnknownCell`] if absent.
    pub fn require(&self, name: &str) -> Result<&CharacterizedGate, CellError> {
        self.get(name).ok_or_else(|| CellError::UnknownCell {
            name: name.to_owned(),
        })
    }

    /// Iterates cell names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.cells.keys().map(String::as_str)
    }

    /// Iterates cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CharacterizedGate> {
        self.cells.values()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Characterizes the standard cell set: `INV`, `NAND2`–`NAND4`,
    /// `NOR2`–`NOR4` at minimum size in the default process. This is the
    /// paper's "one-time effort" (Section 3.7). Uses every available core
    /// — see [`CellLibrary::characterize_standard_with_jobs`].
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn characterize_standard(config: &CharConfig) -> Result<CellLibrary, CellError> {
        CellLibrary::characterize_standard_with_jobs(config, all_cores())
    }

    /// [`CellLibrary::characterize_standard`] with an explicit worker
    /// count. All cells' characterization units go into one global queue,
    /// on the pool that [`Characterizer::characterize`] runs a single cell
    /// on, so the workers stay busy even when cells are wildly uneven (a
    /// NAND4's pair sweeps dwarf an inverter) — per-cell threads would
    /// idle six workers while the seventh finishes. The assembled library
    /// is bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn characterize_standard_with_jobs(
        config: &CharConfig,
        jobs: usize,
    ) -> Result<CellLibrary, CellError> {
        let plan: &[(&str, GateKind, usize)] = &[
            ("INV", GateKind::Inv, 1),
            ("NAND2", GateKind::Nand, 2),
            ("NAND3", GateKind::Nand, 3),
            ("NAND4", GateKind::Nand, 4),
            ("NOR2", GateKind::Nor, 2),
            ("NOR3", GateKind::Nor, 3),
            ("NOR4", GateKind::Nor, 4),
        ];
        let chars = plan
            .iter()
            .map(|&(name, kind, n)| Characterizer::min_size(name, kind, n, config.clone()))
            .collect::<Result<Vec<_>, CellError>>()?;
        let _span = ssdm_obs::span("cells.library");
        let mut lib = CellLibrary::new();
        for gate in characterize_cells(&chars, jobs)? {
            lib.insert(gate);
        }
        Ok(lib)
    }

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        for cell in self.cells.values() {
            write_cell(&mut out, cell);
        }
        out
    }

    /// Parses a library from the text format.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::Parse`] with a line number for any malformed
    /// input: bad syntax, a non-finite number, an input count the text
    /// cannot hold, an empty characterized range, or a record that does
    /// not fit its cell. It never panics.
    pub fn from_text(text: &str) -> Result<CellLibrary, CellError> {
        Parser::new(text).parse()
    }

    /// Where the standard library characterized with `config` is cached
    /// inside `dir`. The file name carries an FNV-1a hash of every
    /// `config` field and of [`LIBRARY_FORMAT_VERSION`], so a library
    /// cached under another grid, or by an older simulator, is never
    /// picked up.
    pub fn cache_path(dir: &std::path::Path, config: &CharConfig) -> std::path::PathBuf {
        let CharConfig {
            t_grid,
            ref_load_ff,
            alt_load_factor,
            skew_tol,
            max_skew,
            knee_epsilon,
            nonctrl_pairs,
        } = config;
        let mut words = vec![u64::from(LIBRARY_FORMAT_VERSION), t_grid.len() as u64];
        words.extend(t_grid.iter().map(|t| t.to_bits()));
        words.push(ref_load_ff.map_or(u64::MAX, f64::to_bits));
        words.push(u64::from(ref_load_ff.is_some()));
        for x in [alt_load_factor, skew_tol, max_skew, knee_epsilon] {
            words.push(x.to_bits());
        }
        words.push(u64::from(*nonctrl_pairs));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        dir.join(format!("library-{hash:016x}.txt"))
    }

    /// Loads a persisted standard library from `path`, or characterizes it
    /// with `config` and saves it there — so the "one-time effort" of
    /// Section 3.7 really happens once per machine. A corrupt cache is
    /// re-characterized, not an error.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures and [`CellError::Io`] when the
    /// fresh result cannot be written.
    pub fn load_or_characterize_standard(
        path: &std::path::Path,
        config: &CharConfig,
    ) -> Result<CellLibrary, CellError> {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        CellLibrary::load_or_characterize_standard_with_jobs(path, config, jobs)
    }

    /// [`CellLibrary::load_or_characterize_standard`] with an explicit
    /// worker count for the characterization fallback.
    ///
    /// # Errors
    ///
    /// As for [`CellLibrary::load_or_characterize_standard`].
    pub fn load_or_characterize_standard_with_jobs(
        path: &std::path::Path,
        config: &CharConfig,
        jobs: usize,
    ) -> Result<CellLibrary, CellError> {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(lib) = CellLibrary::from_text(&text) {
                return Ok(lib);
            }
        }
        let lib = CellLibrary::characterize_standard_with_jobs(config, jobs)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| CellError::Io {
                path: path.display().to_string(),
                reason: e.to_string(),
            })?;
        }
        std::fs::write(path, lib.to_text()).map_err(|e| CellError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Ok(lib)
    }
}

fn kind_str(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Inv => "inv",
        GateKind::Nand => "nand",
        GateKind::Nor => "nor",
    }
}

fn write_floats(out: &mut String, xs: &[f64]) {
    for x in xs {
        // RFC-compatible round-trip formatting.
        let _ = write!(out, " {x:?}");
    }
}

fn write_cell(out: &mut String, cell: &CharacterizedGate) {
    let _ = writeln!(
        out,
        "cell {} {} {} {:?} {:?} {:?} {:?} {:?} {:?}",
        cell.name(),
        kind_str(cell.kind()),
        cell.n_inputs(),
        cell.wn_um(),
        cell.wp_um(),
        cell.ref_load().as_ff(),
        cell.input_cap().as_ff(),
        cell.t_range().0.as_ns(),
        cell.t_range().1.as_ns(),
    );
    for edge_name in ["rise", "fall"] {
        let edge = if edge_name == "rise" {
            ssdm_core::Edge::Rise
        } else {
            ssdm_core::Edge::Fall
        };
        for pos in 0..cell.n_inputs() {
            let p = cell.pin(edge, pos).expect("in-range by construction");
            let mut line = format!("pin {edge_name} {pos}");
            write_floats(&mut line, &p.delay.k);
            write_floats(&mut line, &p.ttime.k);
            write_floats(&mut line, &[p.delay_load_slope, p.ttime_load_slope]);
            let _ = writeln!(out, "{line}");
        }
    }
    for (keyword, list) in [("pair", cell.pairs()), ("npair", cell.npairs())] {
        for pair in list {
            let mut line = format!("{keyword} {} {}", pair.i, pair.j);
            write_floats(&mut line, &pair.d0.k);
            write_floats(&mut line, &pair.sr.k);
            write_floats(&mut line, &pair.syr.k);
            write_floats(&mut line, &pair.t0.k);
            write_floats(&mut line, &pair.sk_t_min.k);
            let _ = writeln!(out, "{line}");
        }
    }
    for (idx, poly) in cell.kway_fits().iter().enumerate() {
        let mut line = format!("kway {}", idx + 3);
        write_floats(&mut line, &poly.k);
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "end");
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// Lines in the whole text. A cell with `n` inputs needs `2n` pin
    /// lines, so this bounds every table sized from a header.
    n_lines: usize,
}

struct CellHeader {
    name: String,
    kind: GateKind,
    n: usize,
    wn: f64,
    wp: f64,
    ref_load: f64,
    input_cap: f64,
    t_lo: f64,
    t_hi: f64,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().enumerate(),
            n_lines: text.lines().count(),
        }
    }

    fn err(line: usize, reason: impl Into<String>) -> CellError {
        CellError::Parse {
            line: line + 1,
            reason: reason.into(),
        }
    }

    fn parse(mut self) -> Result<CellLibrary, CellError> {
        let (n0, first) = self
            .lines
            .next()
            .ok_or_else(|| Self::err(0, "empty input"))?;
        if first.trim() != MAGIC {
            return Err(Self::err(n0, format!("expected header {MAGIC:?}")));
        }
        let mut lib = CellLibrary::new();
        while let Some((ln, line)) = self.lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("cell") => {
                    let header = Self::parse_cell_header(ln, toks, self.n_lines)?;
                    let cell = self.parse_cell_body(header)?;
                    lib.insert(cell);
                }
                Some(other) => {
                    return Err(Self::err(ln, format!("expected 'cell', got {other:?}")))
                }
                None => unreachable!("non-empty line has a token"),
            }
        }
        Ok(lib)
    }

    fn parse_cell_header<'t>(
        ln: usize,
        mut toks: impl Iterator<Item = &'t str>,
        n_lines: usize,
    ) -> Result<CellHeader, CellError> {
        let mut next = |what: &str| -> Result<&'t str, CellError> {
            toks.next()
                .ok_or_else(|| Self::err(ln, format!("missing {what}")))
        };
        let name = next("cell name")?.to_owned();
        let kind = match next("kind")? {
            "inv" => GateKind::Inv,
            "nand" => GateKind::Nand,
            "nor" => GateKind::Nor,
            other => return Err(Self::err(ln, format!("unknown kind {other:?}"))),
        };
        let parse_f = |s: &str, what: &str| -> Result<f64, CellError> {
            s.parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .ok_or_else(|| Self::err(ln, format!("bad {what}: {s:?}")))
        };
        let n: usize = next("n")?
            .parse()
            .map_err(|_| Self::err(ln, "bad input count"))?;
        if n == 0 || (kind == GateKind::Inv && n != 1) {
            return Err(Self::err(ln, format!("a {kind} cannot have {n} inputs")));
        }
        if n > n_lines / 2 {
            return Err(Self::err(
                ln,
                format!("{n} inputs need more pin lines than the text has"),
            ));
        }
        let header = CellHeader {
            name,
            kind,
            n,
            wn: parse_f(next("wn")?, "wn")?,
            wp: parse_f(next("wp")?, "wp")?,
            ref_load: parse_f(next("ref_load")?, "ref_load")?,
            input_cap: parse_f(next("input_cap")?, "input_cap")?,
            t_lo: parse_f(next("t_lo")?, "t_lo")?,
            t_hi: parse_f(next("t_hi")?, "t_hi")?,
        };
        if header.t_lo >= header.t_hi {
            return Err(Self::err(
                ln,
                format!(
                    "empty characterized range [{}, {}]",
                    header.t_lo, header.t_hi
                ),
            ));
        }
        Ok(header)
    }

    fn parse_cell_body(&mut self, h: CellHeader) -> Result<CharacterizedGate, CellError> {
        let mut pins: [Vec<PinTiming>; 2] = [
            vec![PinTiming::default(); h.n],
            vec![PinTiming::default(); h.n],
        ];
        let mut seen = [vec![false; h.n], vec![false; h.n]];
        let mut pairs = Vec::new();
        let mut npairs = Vec::new();
        let mut kway: Vec<(usize, Poly1)> = Vec::new();
        loop {
            let (ln, line) = self
                .lines
                .next()
                .ok_or_else(|| Self::err(usize::MAX - 1, "unterminated cell"))?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("end") => break,
                Some("pin") => {
                    let edge = match toks.next() {
                        Some("rise") => 0usize,
                        Some("fall") => 1usize,
                        other => return Err(Self::err(ln, format!("bad edge {other:?}"))),
                    };
                    let pos: usize = toks
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Self::err(ln, "bad pin position"))?;
                    if pos >= h.n {
                        return Err(Self::err(ln, format!("pin {pos} out of range")));
                    }
                    let f = Self::parse_floats(ln, toks, 8)?;
                    pins[edge][pos] = PinTiming {
                        delay: Poly1 {
                            k: [f[0], f[1], f[2]],
                        },
                        ttime: Poly1 {
                            k: [f[3], f[4], f[5]],
                        },
                        delay_load_slope: f[6],
                        ttime_load_slope: f[7],
                    };
                    seen[edge][pos] = true;
                }
                Some(kw @ ("pair" | "npair")) => {
                    let i: usize = toks
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Self::err(ln, "bad pair i"))?;
                    let j: usize = toks
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Self::err(ln, "bad pair j"))?;
                    if !(i < j && j < h.n) {
                        return Err(Self::err(ln, format!("bad pair ({i}, {j})")));
                    }
                    let f = Self::parse_floats(ln, toks, 4 + 6 + 6 + 4 + 6)?;
                    let record = PairTiming {
                        i,
                        j,
                        d0: D0Surface {
                            k: [f[0], f[1], f[2], f[3]],
                        },
                        sr: Quad2 {
                            k: [f[4], f[5], f[6], f[7], f[8], f[9]],
                        },
                        syr: Quad2 {
                            k: [f[10], f[11], f[12], f[13], f[14], f[15]],
                        },
                        t0: D0Surface {
                            k: [f[16], f[17], f[18], f[19]],
                        },
                        sk_t_min: Quad2 {
                            k: [f[20], f[21], f[22], f[23], f[24], f[25]],
                        },
                    };
                    if kw == "pair" {
                        pairs.push(record);
                    } else {
                        npairs.push(record);
                    }
                }
                Some("kway") => {
                    let k: usize = toks
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Self::err(ln, "bad kway k"))?;
                    if !(3..=h.n).contains(&k) {
                        return Err(Self::err(ln, format!("kway {k} out of range")));
                    }
                    let f = Self::parse_floats(ln, toks, 3)?;
                    kway.push((
                        k,
                        Poly1 {
                            k: [f[0], f[1], f[2]],
                        },
                    ));
                }
                Some(other) => return Err(Self::err(ln, format!("unknown record {other:?}"))),
                None => unreachable!("non-empty line has a token"),
            }
        }
        for (edge, seen_edge) in seen.iter().enumerate() {
            if let Some(pos) = seen_edge.iter().position(|&s| !s) {
                return Err(CellError::Parse {
                    line: 0,
                    reason: format!(
                        "cell {}: missing pin record for edge {edge} position {pos}",
                        h.name
                    ),
                });
            }
        }
        // Every floor the sweep characterizes must be there: the window
        // kernel and the proposed model read the k-way floor of any k ≥ 3
        // switches, and a missing one would be an error in the middle of
        // an analysis.
        kway.sort_by_key(|&(k, _)| k);
        if !kway.iter().map(|&(k, _)| k).eq(3..=h.n) {
            return Err(CellError::Parse {
                line: 0,
                reason: format!(
                    "cell {}: k-way floors must be exactly k = 3..={}",
                    h.name, h.n
                ),
            });
        }
        Ok(CharacterizedGate::new(
            h.name,
            h.kind,
            h.n,
            h.wn,
            h.wp,
            h.ref_load,
            h.input_cap,
            (Time::from_ns(h.t_lo), Time::from_ns(h.t_hi)),
            pins,
            pairs,
            npairs,
            kway.into_iter().map(|(_, p)| p).collect(),
        ))
    }

    fn parse_floats<'t>(
        ln: usize,
        toks: impl Iterator<Item = &'t str>,
        want: usize,
    ) -> Result<Vec<f64>, CellError> {
        let f: Result<Vec<f64>, CellError> = toks
            .map(|s| {
                s.parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite())
                    .ok_or_else(|| Self::err(ln, format!("bad float {s:?}")))
            })
            .collect();
        let f = f?;
        if f.len() != want {
            return Err(Self::err(
                ln,
                format!("expected {want} floats, got {}", f.len()),
            ));
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::tests::toy_nand2;

    /// The one test that characterizes a whole library from scratch: a
    /// cold fast library, built on two workers, is byte-identical to the
    /// pinned copy the benchmark checks against, and parsing that copy
    /// gives back the characterized library. Every other test binary
    /// parses the pinned copy instead of characterizing.
    #[test]
    fn cold_fast_library_matches_pinned_copy() {
        let pinned = include_str!("../../../perfbench/data/library-fast.txt");
        let cold = CellLibrary::characterize_standard_with_jobs(&CharConfig::fast(), 2).unwrap();
        let text = cold.to_text();
        if let Some((ln, (got, want))) = text
            .lines()
            .zip(pinned.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!("line {}: got {got:?}, pinned {want:?}", ln + 1);
        }
        assert_eq!(text, pinned);
        assert_eq!(CellLibrary::from_text(pinned).unwrap(), cold);
    }

    #[test]
    fn cache_path_keys_on_every_config_field() {
        let dir = std::path::Path::new("cache");
        let fast = CellLibrary::cache_path(dir, &CharConfig::fast());
        assert_eq!(fast, CellLibrary::cache_path(dir, &CharConfig::fast()));
        assert!(fast.starts_with(dir));
        let variants: Vec<CharConfig> = vec![
            CharConfig::full(),
            CharConfig {
                t_grid: vec![0.15, 0.7, 1.7],
                ..CharConfig::fast()
            },
            CharConfig {
                ref_load_ff: Some(9.0),
                ..CharConfig::fast()
            },
            CharConfig {
                alt_load_factor: 2.0,
                ..CharConfig::fast()
            },
            CharConfig {
                skew_tol: 0.02,
                ..CharConfig::fast()
            },
            CharConfig {
                max_skew: 3.0,
                ..CharConfig::fast()
            },
            CharConfig {
                knee_epsilon: 0.05,
                ..CharConfig::fast()
            },
            CharConfig {
                nonctrl_pairs: false,
                ..CharConfig::fast()
            },
        ];
        let mut names: Vec<_> = variants
            .iter()
            .map(|c| CellLibrary::cache_path(dir, c))
            .collect();
        names.push(fast);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), variants.len() + 1);
    }

    #[test]
    fn round_trip_through_text() {
        let mut lib = CellLibrary::new();
        lib.insert(toy_nand2());
        let text = lib.to_text();
        let back = CellLibrary::from_text(&text).unwrap();
        assert_eq!(lib, back);
    }

    #[test]
    fn lookup_and_require() {
        let mut lib = CellLibrary::new();
        assert!(lib.is_empty());
        lib.insert(toy_nand2());
        assert_eq!(lib.len(), 1);
        assert!(lib.get("NAND2").is_some());
        assert!(lib.get("NOR2").is_none());
        assert!(matches!(
            lib.require("NOR2"),
            Err(CellError::UnknownCell { .. })
        ));
        assert_eq!(lib.names().collect::<Vec<_>>(), vec!["NAND2"]);
    }

    #[test]
    fn insert_replaces_by_name() {
        let mut lib = CellLibrary::new();
        assert!(lib.insert(toy_nand2()).is_none());
        assert!(lib.insert(toy_nand2()).is_some());
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(matches!(
            CellLibrary::from_text("nonsense"),
            Err(CellError::Parse { line: 1, .. })
        ));
        assert!(CellLibrary::from_text("").is_err());
    }

    #[test]
    fn parse_rejects_truncated_cell() {
        let mut lib = CellLibrary::new();
        lib.insert(toy_nand2());
        let text = lib.to_text();
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(CellLibrary::from_text(&truncated).is_err());
    }

    #[test]
    fn parse_rejects_corrupt_floats() {
        let mut lib = CellLibrary::new();
        lib.insert(toy_nand2());
        let text = lib.to_text().replace("0.08", "zebra");
        assert!(matches!(
            CellLibrary::from_text(&text),
            Err(CellError::Parse { .. })
        ));
    }

    #[test]
    fn parse_rejects_missing_pin_record() {
        let mut lib = CellLibrary::new();
        lib.insert(toy_nand2());
        let text: String = lib
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("pin fall 1"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(CellLibrary::from_text(&text).is_err());
    }

    #[test]
    fn parse_rejects_unknown_record() {
        let mut lib = CellLibrary::new();
        lib.insert(toy_nand2());
        let text = lib.to_text().replace("pair 0 1", "mystery 0 1");
        assert!(CellLibrary::from_text(&text).is_err());
    }

    /// Corrupt headers and records that used to panic or abort the
    /// process (an empty range, input counts sized into a 6.4 TB table or
    /// past `usize` capacity, a k-way floor the cell cannot have) are
    /// parse errors on their line.
    #[test]
    fn corrupt_headers_and_records_are_parse_errors() {
        let pinned = include_str!("../../../perfbench/data/library-fast.txt");
        let header = "cell NOR3 nor 3 1.5 3.0 9.0 9.0 0.15 1.6";
        let line = 1 + pinned.lines().position(|l| l == header).unwrap();
        for bad in [
            "cell NOR3 nor 3 1.5 3.0 9.0 9.0 1e400 1.6",
            "cell NOR3 nor 100000000000 1.5 3.0 9.0 9.0 0.15 1.6",
            "cell NOR3 nor 18446744073709551615 1.5 3.0 9.0 9.0 0.15 1.6",
            "cell NOR3 nor 3 1.5 3.0 9.0 9.0 1.6 0.15",
            "cell NOR3 nor 3 1.5 NaN 9.0 9.0 0.15 1.6",
            "cell NOR3 nor 0 1.5 3.0 9.0 9.0 0.15 1.6",
            "cell NOR3 inv 3 1.5 3.0 9.0 9.0 0.15 1.6",
        ] {
            match CellLibrary::from_text(&pinned.replace(header, bad)) {
                Err(CellError::Parse { line: l, .. }) => assert_eq!(l, line, "{bad}"),
                other => panic!("{bad}: expected a parse error, got {other:?}"),
            }
        }
        let nand2 = pinned.replace(
            "cell NAND2 nand 2 1.5 3.0 9.0 9.0 0.15 1.6",
            "cell NAND2 nand 2 1.5 3.0 9.0 9.0 0.15 1.6\nkway 3 0.1 0.2 0.3",
        );
        assert!(matches!(
            CellLibrary::from_text(&nand2),
            Err(CellError::Parse { .. })
        ));
        let inf = pinned.replacen(" 0.0", " inf", 1);
        assert_ne!(inf, pinned);
        assert!(matches!(
            CellLibrary::from_text(&inf),
            Err(CellError::Parse { .. })
        ));
    }

    /// A library that lacks a k-way floor of a cell with three or more
    /// inputs is rejected, naming the cell, instead of silently dropping
    /// the floor from every analysis that reads it.
    #[test]
    fn parse_needs_every_kway_floor() {
        let pinned = include_str!("../../../perfbench/data/library-fast.txt");
        let without = |drop: &dyn Fn(usize, &str) -> bool| -> String {
            pinned
                .lines()
                .enumerate()
                .filter(|&(ln, l)| !drop(ln, l))
                .map(|(_, l)| format!("{l}\n"))
                .collect()
        };
        let reason_of = |text: &str| match CellLibrary::from_text(text) {
            Err(CellError::Parse { reason, .. }) => reason,
            other => panic!("expected a parse error, got {other:?}"),
        };
        let reason = reason_of(&without(&|_, l| l.starts_with("kway ")));
        assert!(reason.contains("cell NAND3"), "{reason}");
        // Each floor on its own: dropping it names the cell it belongs to.
        let mut cell = "";
        let mut dropped = 0;
        for (ln, line) in pinned.lines().enumerate() {
            if let Some(header) = line.strip_prefix("cell ") {
                cell = header.split_whitespace().next().unwrap();
            }
            if line.starts_with("kway ") {
                let reason = reason_of(&without(&|l, _| l == ln));
                assert!(reason.contains(&format!("cell {cell}:")), "{reason}");
                dropped += 1;
            }
        }
        // NAND3 and NOR3 have one floor, NAND4 and NOR4 two.
        assert_eq!(dropped, 6);
    }

    #[test]
    fn parse_skips_blank_lines() {
        let mut lib = CellLibrary::new();
        lib.insert(toy_nand2());
        let text = lib.to_text().replace("end", "\nend\n");
        assert_eq!(CellLibrary::from_text(&text).unwrap(), lib);
    }
}
