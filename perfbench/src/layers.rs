//! The benchmark's calls into each library layer, through public entry
//! points only, plus the digests that pin their outputs.

use std::time::Instant;

use ssdm_atpg::{AtpgConfig, AtpgDriver, CampaignResult, SiteOutcome};
use ssdm_cells::{CellLibrary, CharConfig, Characterizer};
use ssdm_core::Edge;
use ssdm_itr::Itr;
use ssdm_logic::{Assignments, TransState, Tri, V2};
use ssdm_netlist::{Circuit, CrosstalkSite, NetId};
use ssdm_spice::GateKind;
use ssdm_sta::{Participation, ParticipationMap, TimingView};

use crate::harness::Digest;

/// The standard cell set, as `CellLibrary::characterize_standard` builds it.
pub const STANDARD_CELLS: &[(&str, GateKind, usize)] = &[
    ("INV", GateKind::Inv, 1),
    ("NAND2", GateKind::Nand, 2),
    ("NAND3", GateKind::Nand, 3),
    ("NAND4", GateKind::Nand, 4),
    ("NOR2", GateKind::Nor, 2),
    ("NOR3", GateKind::Nor, 3),
    ("NOR4", GateKind::Nor, 4),
];

/// The §7 backtrack budget (as in the `sec7_atpg` experiment).
pub const BACKTRACK_LIMIT: usize = 12;

/// The raw text of one cell's block (`cell NAME ...` through `end`) of a
/// serialized library, preceded by the library header line — i.e. exactly
/// what `to_text` writes for a library holding only that cell.
pub fn cell_block(library_text: &str, name: &str) -> Option<String> {
    let mut lines = library_text.lines();
    let header = lines.next()?;
    let prefix = format!("cell {name} ");
    let mut out = format!("{header}\n");
    let mut inside = false;
    for line in lines {
        if line.starts_with(&prefix) {
            inside = true;
        }
        if inside {
            out.push_str(line);
            out.push('\n');
            if line == "end" {
                return Some(out);
            }
        }
    }
    None
}

/// Characterizes one standard cell serially (`Characterizer::characterize`)
/// and serializes it as a one-cell library.
pub fn characterize_cell(name: &str) -> Result<String, String> {
    let &(_, kind, n) = STANDARD_CELLS
        .iter()
        .find(|(c, ..)| *c == name)
        .ok_or_else(|| format!("unknown cell {name}"))?;
    let cell = Characterizer::min_size(name, kind, n, CharConfig::fast())
        .and_then(|ch| ch.characterize())
        .map_err(|e| e.to_string())?;
    let mut lib = CellLibrary::new();
    lib.insert(cell);
    Ok(lib.to_text())
}

/// Digest of every field a forward analysis produces: the eight window
/// fields per line, the used delay bounds per (gate, pin, edge) and the
/// inverting flags.
pub fn timing_digest<V: TimingView + ?Sized>(circuit: &Circuit, view: &V) -> u64 {
    let mut d = Digest::default();
    for id in circuit.topo() {
        let lt = view.line(id);
        for e in Edge::BOTH {
            match lt.edge(e) {
                None => d.u64(u64::MAX),
                Some(w) => {
                    d.f64(w.arrival.s().as_ns());
                    d.f64(w.arrival.l().as_ns());
                    d.f64(w.ttime.s().as_ns());
                    d.f64(w.ttime.l().as_ns());
                }
            }
        }
        for pin in 0..circuit.gate(id).fanin.len() {
            for e in Edge::BOTH {
                match view.delay_used(id, pin, e) {
                    None => d.u64(u64::MAX),
                    Some(b) => {
                        d.f64(b.s().as_ns());
                        d.f64(b.l().as_ns());
                    }
                }
            }
        }
        d.u64(u64::from(view.gate_inverting(id)));
    }
    d.finish()
}

/// Digest of a two-frame assignment.
pub fn assignment_digest(a: &Assignments) -> u64 {
    let mut d = Digest::default();
    for v in a.values() {
        d.bytes(v.to_string().as_bytes());
    }
    d.finish()
}

fn tri_code(t: Tri) -> u64 {
    match t {
        Tri::Zero => 0,
        Tri::One => 1,
        Tri::X => 2,
    }
}

/// Digest of a campaign's per-site outcomes and aggregate statistics (the
/// parts `AtpgDriver` promises are identical for every worker count).
pub fn outcome_digest(result: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    for o in &result.outcomes {
        match o {
            SiteOutcome::Detected(t) => {
                d.u64(0);
                for &x in t.v1.iter().chain(&t.v2) {
                    d.u64(tri_code(x));
                }
            }
            SiteOutcome::Dropped { by } => {
                d.u64(1);
                d.u64(*by as u64);
            }
            SiteOutcome::Undetectable => d.u64(2),
            SiteOutcome::Aborted => d.u64(3),
        }
    }
    let s = result.stats;
    for x in [s.detected, s.undetectable, s.aborted, s.dropped] {
        d.u64(x as u64);
    }
    d.finish()
}

/// One §7 campaign's inputs: a circuit and its seeded coupling sites.
#[derive(Debug)]
pub struct Campaign {
    /// The circuit under test.
    pub circuit: Circuit,
    /// Crosstalk sites to target.
    pub sites: Vec<CrosstalkSite>,
}

/// A finished campaign with its wall time (including
/// `AtpgConfig::for_circuit`, as users pay it).
#[derive(Debug)]
pub struct CampaignRun {
    /// Seconds of host time.
    pub secs: f64,
    /// The `AtpgDriver` result.
    pub result: CampaignResult,
}

/// The §7 configuration for `circuit`: clock from its STA max delay,
/// fixed backtrack budget, ITR on or off.
pub fn atpg_config(
    circuit: &Circuit,
    lib: &CellLibrary,
    use_itr: bool,
) -> Result<AtpgConfig, String> {
    let base = AtpgConfig::for_circuit(circuit, lib).map_err(|e| e.to_string())?;
    Ok(AtpgConfig {
        use_itr,
        backtrack_limit: BACKTRACK_LIMIT,
        ..base
    })
}

/// Runs one campaign with `jobs` workers.
pub fn run_campaign(
    campaign: &Campaign,
    lib: &CellLibrary,
    use_itr: bool,
    jobs: usize,
) -> Result<CampaignRun, String> {
    let start = Instant::now();
    let config = atpg_config(&campaign.circuit, lib, use_itr)?;
    let result = AtpgDriver::new(&campaign.circuit, lib, config)
        .with_jobs(jobs)
        .run(&campaign.sites)
        .map_err(|e| e.to_string())?;
    Ok(CampaignRun {
        secs: start.elapsed().as_secs_f64(),
        result,
    })
}

/// The participation map `Itr::refine` derives from an (implied)
/// assignment: a line's transition states decide which edges take part.
pub fn participation_map(circuit: &Circuit, a: &Assignments) -> ParticipationMap {
    let part = |s: TransState| match s {
        TransState::Yes => Participation::Must,
        TransState::Maybe => Participation::May,
        TransState::No => Participation::Cannot,
    };
    circuit
        .topo()
        .map(|id| [part(a.state(id, Edge::Rise)), part(a.state(id, Edge::Fall))])
        .collect()
}

/// One seeded ITR decision: a primary input and the two-frame value it is
/// assigned before being retracted again.
pub type Decision = (NetId, V2);

/// The `k`-th of the four values a PODEM decision can give a primary
/// input (`k` taken modulo 4).
pub fn decision_value(k: usize) -> V2 {
    match k % 4 {
        0 => V2::transition(Edge::Rise),
        1 => V2::transition(Edge::Fall),
        2 => V2::steady(false),
        _ => V2::steady(true),
    }
}

/// The assignment of one decision on top of the empty base.
pub fn decision_assignment(
    circuit: &Circuit,
    (pi, value): Decision,
) -> Result<Assignments, String> {
    let mut a = Assignments::new(circuit.n_nets());
    a.set(pi, value).map_err(|e| e.to_string())?;
    Ok(a)
}

/// A fresh refiner's result digest on `a` — the reference every
/// incremental step is compared against.
pub fn fresh_refine_digest(
    circuit: &Circuit,
    lib: &CellLibrary,
    a: &Assignments,
) -> Result<u64, String> {
    let itr = Itr::new(circuit, lib, ssdm_sta::StaConfig::default());
    let mut a = a.clone();
    let r = itr.refine(&mut a).map_err(|e| e.to_string())?;
    Ok(timing_digest(circuit, &r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_block_extracts_one_cell_with_header() {
        let text = "hdr v2\ncell A x\npin 1\nend\ncell B y\nend\n";
        assert_eq!(
            cell_block(text, "B").as_deref(),
            Some("hdr v2\ncell B y\nend\n")
        );
        assert_eq!(
            cell_block(text, "A").as_deref(),
            Some("hdr v2\ncell A x\npin 1\nend\n")
        );
        assert_eq!(cell_block(text, "C"), None);
    }
}
