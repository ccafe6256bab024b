//! The gate kernel: the one place a netlist gate is evaluated.
//!
//! A [`GateTable`] resolves every `(gate type, fan-in)` pair of a circuit
//! to its characterized cells and every net to its load, once per
//! analysis. [`GateTable::eval`] then evaluates one gate from its fan-in
//! windows and participations: the stage-plan composition, the mid-net
//! edge swap of two-stage gates, the `S = −1` veto and the two-stage
//! [`DelaysUsed`] sum. Plain STA ([`crate::Sta::run`]), the incremental
//! engine and ITR's full-recompute oracle all evaluate through it.

use ssdm_cells::{CellLibrary, CharacterizedGate};
use ssdm_core::{Capacitance, Edge};
use ssdm_netlist::{Circuit, GateType, NetId};

use crate::engine::{StaConfig, StaResult};
use crate::error::StaError;
use crate::propagate::{
    check_width, emit_corner_events, stage_windows_traced, DelaysUsed, ModelKind, StageProvenance,
    MAX_PINS,
};
use crate::stage::stage_plan;
use crate::window::{LineTiming, Participation, PinWindow};

/// The characterized cells one netlist gate maps onto: a NAND/NOR/INV
/// first stage and, for AND/OR/BUF, an inverter second stage.
#[derive(Debug, Clone, Copy)]
pub struct StageCells<'a> {
    /// First-stage cell (receives the gate's fan-ins).
    pub first: &'a CharacterizedGate,
    /// Optional second-stage inverter.
    pub second: Option<&'a CharacterizedGate>,
}

impl StageCells<'_> {
    /// True when the composite gate is logically inverting (one stage).
    pub fn inverting(&self) -> bool {
        self.second.is_none()
    }
}

/// A circuit resolved onto library cells, and the gate evaluation over it.
#[derive(Debug)]
pub struct GateTable<'a> {
    circuit: &'a Circuit,
    model: ModelKind,
    /// The primary-input windows before the veto.
    pi: LineTiming,
    /// Per net; `None` for primary inputs.
    cells: Vec<Option<StageCells<'a>>>,
    loads: Vec<Capacitance>,
}

/// Drops the window of every edge `part` rules out (`S = −1`).
fn veto(lt: &mut LineTiming, part: [Participation; 2]) {
    for e in Edge::BOTH {
        if !part[e.index()].possible() {
            lt.set_edge(e, None);
        }
    }
}

impl<'a> GateTable<'a> {
    /// Resolves every gate of `circuit` (stage plan and library lookups run
    /// once per gate type and fan-in) and sums every net's load: its
    /// fan-out cells' input capacitances plus `config.po_load` on primary
    /// outputs.
    ///
    /// # Errors
    ///
    /// Fails when a gate cannot be mapped onto library cells, including a
    /// cell wider than the kernel's four-pin capacity.
    pub fn new(
        circuit: &'a Circuit,
        library: &'a CellLibrary,
        config: &StaConfig,
    ) -> Result<GateTable<'a>, StaError> {
        let n = circuit.n_nets();
        let mut resolved: Vec<((GateType, usize), StageCells<'a>)> = Vec::new();
        let mut cells = Vec::with_capacity(n);
        let mut loads = vec![Capacitance::ZERO; n];
        for id in circuit.topo() {
            let gate = circuit.gate(id);
            if gate.gtype == GateType::Input {
                cells.push(None);
                continue;
            }
            let key = (gate.gtype, gate.fanin.len());
            let stage = match resolved.iter().find(|(k, _)| *k == key) {
                Some(&(_, stage)) => stage,
                None => {
                    let stage = resolve(library, key.0, key.1, &gate.name)?;
                    resolved.push((key, stage));
                    stage
                }
            };
            let cap = stage.first.input_cap();
            for &f in &gate.fanin {
                loads[f.index()] = loads[f.index()] + cap;
            }
            cells.push(Some(stage));
        }
        for &po in circuit.outputs() {
            loads[po.index()] = loads[po.index()] + config.po_load;
        }
        Ok(GateTable {
            circuit,
            model: config.model,
            pi: LineTiming::symmetric(config.pi_arrival, config.pi_ttime),
            cells,
            loads,
        })
    }

    /// The circuit the table resolves.
    pub(crate) fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// The delay model gates are evaluated with.
    pub(crate) fn model(&self) -> ModelKind {
        self.model
    }

    /// The cells driving `net`; `None` for a primary input.
    pub fn cells(&self, net: NetId) -> Option<StageCells<'a>> {
        self.cells[net.index()]
    }

    /// The capacitive load on each net, indexed by net.
    pub fn loads(&self) -> &[Capacitance] {
        &self.loads
    }

    /// Whether the gate driving each net inverts (primary inputs count as
    /// inverting), indexed by net.
    pub(crate) fn inverting(&self) -> Vec<bool> {
        self.cells
            .iter()
            .map(|c| c.is_none_or(|c| c.inverting()))
            .collect()
    }

    /// Evaluates net `idx` under its own participation `own`, reading each
    /// fan-in net `f`'s windows and participation as `pin(f)`. Pure in
    /// those inputs. With provenance events on, it records the gate's
    /// `sta.corner` decisions.
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    pub fn eval(
        &self,
        idx: usize,
        own: [Participation; 2],
        pin: impl Fn(NetId) -> PinWindow,
    ) -> Result<(LineTiming, DelaysUsed), StaError> {
        let (mut lt, used, prov) = match self.cells[idx] {
            None => (self.pi, DelaysUsed::default(), StageProvenance::default()),
            Some(stage) => {
                let fanin = &self.circuit.gate(NetId(idx)).fanin;
                let mut buf = [PinWindow::sta(LineTiming::default()); MAX_PINS];
                for (slot, &f) in buf.iter_mut().zip(fanin) {
                    *slot = pin(f);
                }
                let pins = &buf[..fanin.len()];
                let load = self.loads[idx];
                match stage.second {
                    None => stage_windows_traced(stage.first, self.model, pins, load)?,
                    Some(inv) => {
                        let (mut mid, used1, prov1) =
                            stage_windows_traced(stage.first, self.model, pins, inv.input_cap())?;
                        // The internal net is the complement of the gate
                        // output, so its participation is the output's
                        // with edges swapped.
                        let mut mid_part = [Participation::May; 2];
                        for e in Edge::BOTH {
                            mid_part[e.index()] = own[e.inverted().index()];
                        }
                        veto(&mut mid, mid_part);
                        let mid_pin = PinWindow {
                            timing: mid,
                            participation: mid_part,
                        };
                        let (out, used2, prov2) =
                            stage_windows_traced(inv, self.model, &[mid_pin], load)?;
                        (
                            out,
                            DelaysUsed::compose(&used1, &used2),
                            StageProvenance::compose(&prov1, &prov2),
                        )
                    }
                }
            }
        };
        veto(&mut lt, own);
        if ssdm_obs::events_enabled() {
            emit_corner_events(idx as u32, &lt, &prov);
        }
        Ok((lt, used))
    }

    /// One memo-free forward pass under `part`, in topological order.
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    ///
    /// # Panics
    ///
    /// Panics when `part.len()` differs from the circuit's net count.
    pub fn pass(&self, part: &[[Participation; 2]]) -> Result<StaResult, StaError> {
        let n = self.circuit.n_nets();
        assert_eq!(part.len(), n, "participation size");
        let mut lines = vec![LineTiming::default(); n];
        let mut used = vec![DelaysUsed::default(); n];
        for id in self.circuit.topo() {
            let i = id.index();
            let (lt, du) = self.eval(i, part[i], |f| PinWindow {
                timing: lines[f.index()],
                participation: part[f.index()],
            })?;
            lines[i] = lt;
            used[i] = du;
        }
        Ok(StaResult::from_parts(
            lines,
            used,
            self.inverting(),
            self.model,
        ))
    }

    /// [`GateTable::pass`] with each topological level's gates evaluated
    /// across `threads` worker threads; bit-identical to the serial pass.
    ///
    /// # Errors
    ///
    /// Propagates cell-query failures.
    ///
    /// # Panics
    ///
    /// Panics when `part.len()` differs from the circuit's net count or
    /// `threads` is zero.
    pub(crate) fn pass_parallel(
        &self,
        part: &[[Participation; 2]],
        threads: usize,
    ) -> Result<StaResult, StaError> {
        let n = self.circuit.n_nets();
        assert_eq!(part.len(), n, "participation size");
        let mut state = (
            vec![LineTiming::default(); n],
            vec![DelaysUsed::default(); n],
        );
        run_levels(
            self.circuit,
            threads,
            &mut state,
            |(lines, _), i| {
                self.eval(i, part[i], |f| PinWindow {
                    timing: lines[f.index()],
                    participation: part[f.index()],
                })
            },
            |(lines, used), i, (lt, du)| {
                lines[i] = lt;
                used[i] = du;
            },
        )?;
        let (lines, used) = state;
        Ok(StaResult::from_parts(
            lines,
            used,
            self.inverting(),
            self.model,
        ))
    }
}

/// Maps one gate type and fan-in onto library cells.
fn resolve<'a>(
    library: &'a CellLibrary,
    gtype: GateType,
    fanin: usize,
    gate: &str,
) -> Result<StageCells<'a>, StaError> {
    let plan = stage_plan(gtype, fanin, gate)?;
    let first = library.require(&plan.first)?;
    let second = match &plan.second {
        Some(name) => Some(library.require(name)?),
        None => None,
    };
    for cell in std::iter::once(first).chain(second) {
        check_width(cell, gate)?;
    }
    Ok(StageCells { first, second })
}

/// Evaluates every net level by level: `eval` runs each level's gates on
/// up to `threads` scoped worker threads against the state the lower
/// levels left (gates on one level never depend on each other), then
/// `commit` stores the level's results on this thread, in net order.
pub(crate) fn run_levels<S: Sync, T: Send>(
    circuit: &Circuit,
    threads: usize,
    state: &mut S,
    eval: impl Fn(&S, usize) -> Result<T, StaError> + Sync,
    mut commit: impl FnMut(&mut S, usize, T),
) -> Result<(), StaError> {
    assert!(threads > 0, "at least one thread");
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); circuit.depth() + 1];
    for id in circuit.topo() {
        levels[circuit.level(id)].push(id.index());
    }
    for ids in &levels {
        let chunk = ids.len().div_ceil(threads).max(1);
        let shared: &S = state;
        let eval = &eval;
        let results: Vec<Result<Vec<(usize, T)>, StaError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .chunks(chunk)
                .enumerate()
                .map(|(w, ids)| {
                    scope.spawn(move || {
                        if ssdm_obs::enabled() {
                            ssdm_obs::set_thread_label(format!("sta.worker.{w}"));
                        }
                        let _span = ssdm_obs::span("sta.level");
                        ids.iter().map(|&i| Ok((i, eval(shared, i)?))).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for r in results {
            for (i, t) in r? {
                commit(state, i, t);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_cells::{PinTiming, Poly1};
    use ssdm_core::Time;
    use ssdm_netlist::CircuitBuilder;
    use ssdm_spice::GateKind;

    /// A hand-built NAND cell with `n` inputs under `name`.
    fn wide_nand(name: &str, n: usize) -> CharacterizedGate {
        let pin = PinTiming {
            delay: Poly1 { k: [0.0, 0.1, 0.1] },
            ttime: Poly1 {
                k: [0.0, 0.3, 0.15],
            },
            delay_load_slope: 0.01,
            ttime_load_slope: 0.02,
        };
        CharacterizedGate::new(
            name.into(),
            GateKind::Nand,
            n,
            1.5,
            3.0,
            9.0,
            9.0,
            (Time::from_ns(0.1), Time::from_ns(2.0)),
            [vec![pin; n], vec![pin; n]],
            vec![],
            vec![],
            vec![],
        )
    }

    #[test]
    fn cells_wider_than_the_kernel_are_unmappable() {
        let cell = wide_nand("NAND5", 5);
        let pins = [PinWindow::sta(LineTiming::default()); 5];
        let err = crate::stage_windows(&cell, ModelKind::Proposed, &pins, cell.ref_load());
        assert!(
            matches!(&err, Err(StaError::Unmappable { gate, .. }) if gate == "NAND5"),
            "{err:?}"
        );

        // A library whose NAND4 is five inputs wide fails when the table
        // is built, naming the gate.
        let mut lib = CellLibrary::new();
        lib.insert(wide_nand("NAND4", 5));
        let mut b = CircuitBuilder::new("wide");
        for pi in ["a", "b", "c", "d"] {
            b.input(pi);
        }
        b.gate("g", GateType::Nand, &["a", "b", "c", "d"]).unwrap();
        b.output("g");
        let c = b.build().unwrap();
        let err = GateTable::new(&c, &lib, &StaConfig::default());
        assert!(
            matches!(&err, Err(StaError::Unmappable { gate, reason })
                if gate == "g" && reason.contains("at most 4")),
            "{err:?}"
        );
    }
}
