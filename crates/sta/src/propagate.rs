//! Window propagation through one library cell — the Section 4.2
//! calculation with worst-case corner identification, generalized with
//! participation states so that ITR (Section 5.2) is the refined case and
//! plain STA the all-`May` case.

use ssdm_cells::{CharacterizedGate, PinCorner};
use ssdm_core::{Bound, Capacitance, Edge, Time, VShape};
use ssdm_obs::{DelayTerm, Event, EventBound, EventEdge};

use crate::error::StaError;
use crate::window::{EdgeTiming, LineTiming, Participation, PinWindow};

/// Which delay model drives the propagation.
///
/// All three kinds run the *same* window machinery — eight fields per
/// line, min/max corner search over the achievable `β, γ ∈ {S, L}`
/// transition-time box — and differ only in which per-cell fitted
/// functions the corner search may consult:
///
/// * [`ModelKind::PinToPin`] uses only the per-position single-switch
///   quadratics `DR(T)`, exactly what an SDF flow sees. It cannot
///   represent the parallel-path speed-up, so its minimum-arrival bounds
///   are systematically pessimistic (the Table 2 gap).
/// * [`ModelKind::Proposed`] adds the simultaneous to-controlling
///   V-shapes (`D0R` zero-skew floor, `SR` saturation skew): when several
///   participating inputs can switch toward the controlling value within
///   each other's saturation skew, the min-corner slides down the V toward
///   `D0R`. Max corners are unchanged — simultaneous switching only ever
///   *speeds up* a to-controlling output.
/// * [`ModelKind::ProposedMiller`] additionally applies the §3.6
///   to-non-controlling extension, which *raises* max corners (Miller
///   coupling slows the opposing edge). It is opt-in precisely because it
///   moves the other bound: Table 2 of the paper predates the extension.
///
/// The kind is part of the analysis configuration (`StaConfig::model`),
/// and — because results depend on it — part of the incremental engine's
/// identity: memoized results never cross models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's model: pin-to-pin quadratics plus simultaneous
    /// to-controlling V-shapes.
    Proposed,
    /// The paper's model plus its Section 3.6 **extension**: the
    /// Miller-effect slowdown of simultaneous to-non-controlling
    /// transitions (announced as in-development in the paper; opt-in here
    /// because it raises max delays, which the paper's Table 2 did not).
    ProposedMiller,
    /// SDF-style pin-to-pin only (the Table 2 baseline).
    PinToPin,
}

impl ModelKind {
    /// True when simultaneous to-controlling V-shapes apply.
    pub fn vshape(self) -> bool {
        matches!(self, ModelKind::Proposed | ModelKind::ProposedMiller)
    }

    /// True when the to-non-controlling Miller extension applies.
    pub fn miller(self) -> bool {
        self == ModelKind::ProposedMiller
    }
}

/// The kernel's pin capacity: `stage_plan`'s fan-in cap, so every
/// per-pin buffer of a gate evaluation is a fixed-size array.
pub(crate) const MAX_PINS: usize = 4;

/// The delay window (min, max) each input pin contributed to each of its
/// input edges, recorded for the backward (required-time) pass. Indexed
/// `used[pin][in_edge.index()]`: a `Copy` record of at most four pins that
/// dereferences to the slice of the gate's own pins.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelaysUsed {
    len: usize,
    pins: [[Option<Bound>; 2]; MAX_PINS],
}

impl DelaysUsed {
    /// A record of `len` pins, none of them used yet.
    fn new(len: usize) -> DelaysUsed {
        assert!(len <= MAX_PINS, "{len} pins exceed the kernel capacity");
        DelaysUsed {
            len,
            ..DelaysUsed::default()
        }
    }

    /// Composes a two-stage gate's per-pin bounds: the final edge `e`
    /// enters pin `i` of the first stage as edge `e` (two inversions) and
    /// the inverter as `e.inverted()`.
    pub(crate) fn compose(first: &DelaysUsed, second: &DelaysUsed) -> DelaysUsed {
        let mut total = DelaysUsed::new(first.len);
        for (out, stage1) in total.iter_mut().zip(first.iter()) {
            for e in Edge::BOTH {
                out[e.index()] = match (stage1[e.index()], second[0][e.inverted().index()]) {
                    (Some(a), Some(b)) => Some(a.add(b)),
                    _ => None,
                };
            }
        }
        total
    }
}

impl std::ops::Deref for DelaysUsed {
    type Target = [[Option<Bound>; 2]];

    fn deref(&self) -> &Self::Target {
        &self.pins[..self.len]
    }
}

impl std::ops::DerefMut for DelaysUsed {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.pins[..self.len]
    }
}

/// The winning corner of one bound of one output-edge window: which input
/// pin's transition was binding, through which model term, and the stage
/// delay it contributed. By construction the winner's arrival bound plus
/// `delay` equals the output arrival bound exactly (for a single stage) or
/// within one rounding of the composed sum (two stages), which is what
/// lets `ssdm-cli explain` re-derive an arrival from its attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerChoice {
    /// Input pin index of the binding transition.
    pub pin: usize,
    /// The V-shape segment / model term that produced the delay.
    pub term: DelayTerm,
    /// The stage delay the winner contributed.
    pub delay: Time,
}

/// Per-gate provenance: the winning corner of each output-edge arrival
/// bound, recorded by [`stage_windows_traced`]. Indexed
/// `corners[out_edge.index()][bound]` with bound 0 = min (earliest), 1 =
/// max (latest); `None` when that output edge has no window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageProvenance {
    /// The winning corner per output edge and bound.
    pub corners: [[Option<CornerChoice>; 2]; 2],
}

impl StageProvenance {
    /// Composes two stages' provenance (a NAND/NOR/INV first stage
    /// followed by an inverter): the final output edge `e` leaves the
    /// first stage as `e.inverted()`, the winning pin and term come from
    /// the first stage, and the two stage delays sum.
    pub fn compose(first: &StageProvenance, second: &StageProvenance) -> StageProvenance {
        let mut out = StageProvenance::default();
        for e in Edge::BOTH {
            let m = e.inverted();
            for bound in 0..2 {
                out.corners[e.index()][bound] = match (
                    first.corners[m.index()][bound],
                    second.corners[e.index()][bound],
                ) {
                    (Some(c1), Some(c2)) => Some(CornerChoice {
                        pin: c1.pin,
                        term: c1.term,
                        delay: c1.delay + c2.delay,
                    }),
                    _ => None,
                };
            }
        }
        out
    }
}

/// Emits one `sta.corner` provenance event per surviving output-edge
/// bound of a freshly evaluated gate. Vetoed edges (no window in `lt`)
/// are skipped. Call sites should guard on [`ssdm_obs::events_enabled`];
/// the per-event closure guard inside [`ssdm_obs::event`] still makes
/// this free when tracing is off.
pub fn emit_corner_events(net: u32, lt: &LineTiming, prov: &StageProvenance) {
    for e in Edge::BOTH {
        if lt.edge(e).is_none() {
            continue;
        }
        for (bound, kind) in [(0, EventBound::Min), (1, EventBound::Max)] {
            if let Some(c) = prov.corners[e.index()][bound] {
                ssdm_obs::event(|| Event::StaCorner {
                    net,
                    edge: event_edge(e),
                    bound: kind,
                    pin: c.pin as u32,
                    term: c.term,
                    delay_ns: c.delay.as_ns(),
                });
            }
        }
    }
}

/// The obs-crate rendering of a core [`Edge`].
pub fn event_edge(e: Edge) -> EventEdge {
    match e {
        Edge::Rise => EventEdge::Rise,
        Edge::Fall => EventEdge::Fall,
    }
}

/// Propagates input windows through one cell stage.
///
/// Returns the output [`LineTiming`] and the per-pin delay windows used.
/// An output edge is `None` when no participating input can trigger it.
///
/// # Errors
///
/// Returns [`StaError::Unmappable`] for a cell wider than the kernel's
/// four-pin capacity, and propagates characterized-cell query failures.
///
/// # Panics
///
/// Panics if `pins.len()` differs from the cell's input count.
pub fn stage_windows(
    cell: &CharacterizedGate,
    model: ModelKind,
    pins: &[PinWindow],
    load: Capacitance,
) -> Result<(LineTiming, DelaysUsed), StaError> {
    let (out, used, _) = stage_windows_traced(cell, model, pins, load)?;
    Ok((out, used))
}

/// [`stage_windows`] plus per-bound corner provenance: which input pin
/// won each output-edge arrival bound, through which model term, and the
/// delay it contributed. The timing results are bit-identical to the
/// untraced call (which delegates here).
///
/// # Errors
///
/// Same as [`stage_windows`].
///
/// # Panics
///
/// Panics if `pins.len()` differs from the cell's input count.
pub fn stage_windows_traced(
    cell: &CharacterizedGate,
    model: ModelKind,
    pins: &[PinWindow],
    load: Capacitance,
) -> Result<(LineTiming, DelaysUsed, StageProvenance), StaError> {
    check_width(cell, cell.name())?;
    assert_eq!(
        pins.len(),
        cell.n_inputs(),
        "pin count mismatch for {}",
        cell.name()
    );
    let mut out = LineTiming::default();
    let mut used = DelaysUsed::new(pins.len());
    let mut prov = StageProvenance::default();
    for out_edge in Edge::BOTH {
        let (timing, corners) = edge_windows(cell, model, pins, load, out_edge, &mut used)?;
        out.set_edge(out_edge, timing);
        prov.corners[out_edge.index()] = corners;
    }
    Ok((out, used, prov))
}

/// Rejects a cell wider than the kernel's pin capacity, naming `gate`.
pub(crate) fn check_width(cell: &CharacterizedGate, gate: &str) -> Result<(), StaError> {
    if cell.n_inputs() > MAX_PINS {
        return Err(StaError::Unmappable {
            gate: gate.to_owned(),
            reason: format!(
                "cell {} has {} inputs; the timing kernel takes at most {MAX_PINS}",
                cell.name(),
                cell.n_inputs()
            ),
        });
    }
    Ok(())
}

/// One active input, with its pre-computed pin-delay corners.
#[derive(Clone, Copy)]
struct Active {
    pin: usize,
    arrival: Bound,
    ttime: Bound,
    must: bool,
    /// Delay at the minimizing transition-time corner.
    dmin: Time,
    /// Delay at the maximizing corner (peak-aware, Figure 9).
    dmax: Time,
    ttmin: Time,
    ttmax: Time,
}

/// One output edge of [`stage_windows_traced`]: the edge's windows and
/// winning corners, with each active pin's delay window written into
/// `used` under the input edge.
fn edge_windows(
    cell: &CharacterizedGate,
    model: ModelKind,
    pins: &[PinWindow],
    load: Capacitance,
    out_edge: Edge,
    used: &mut DelaysUsed,
) -> Result<(Option<EdgeTiming>, [Option<CornerChoice>; 2]), StaError> {
    let in_edge = out_edge.inverted();
    let blank = Active {
        pin: 0,
        arrival: Bound::point(Time::ZERO),
        ttime: Bound::point(Time::ZERO),
        must: false,
        dmin: Time::ZERO,
        dmax: Time::ZERO,
        ttmin: Time::ZERO,
        ttmax: Time::ZERO,
    };
    let mut buf = [blank; MAX_PINS];
    let mut n_active = 0;
    for (pin, pw) in pins.iter().enumerate() {
        if !pw.part(in_edge).possible() {
            continue;
        }
        let Some(et) = pw.timing.edge(in_edge) else {
            continue;
        };
        let (t_lo, t_hi) = clamp_range(cell, et.ttime);
        let fit = cell.pin(out_edge, pin)?;
        // Figure 9: the delay-maximizing transition time may be the peak of
        // a concave fit, either endpoint otherwise.
        let t_for_max = fit.delay.argmax_over(t_lo, t_hi);
        let t_for_min = fit.delay.argmin_over(t_lo, t_hi);
        let dmax = cell.pin_delay(out_edge, pin, t_for_max, load)?;
        let dmin = cell.pin_delay(out_edge, pin, t_for_min, load)?;
        let tt_for_max = fit.ttime.argmax_over(t_lo, t_hi);
        let tt_for_min = fit.ttime.argmin_over(t_lo, t_hi);
        buf[n_active] = Active {
            pin,
            arrival: et.arrival,
            ttime: et.ttime,
            must: pw.part(in_edge) == Participation::Must,
            dmin,
            dmax,
            ttmin: cell.pin_ttime(out_edge, pin, tt_for_min, load)?,
            ttmax: cell.pin_ttime(out_edge, pin, tt_for_max, load)?,
        };
        n_active += 1;
    }
    let active = &buf[..n_active];
    if active.is_empty() {
        return Ok((None, [None, None]));
    }
    let ctrl = cell.n_inputs() >= 2 && out_edge == cell.ctrl_out_edge();
    let any_must = active.iter().any(|a| a.must);
    // Only the V-shape corner search reads the pair table.
    let shapes = if ctrl && model.vshape() {
        Some(PairShapes::build(cell, load, active)?)
    } else {
        None
    };

    // --- Arrival window -------------------------------------------------
    // Alongside each bound, remember which input's corner was binding
    // (first strictly-better candidate wins, preserving the exact values
    // the previous fold-based search produced).
    let mut min_choice: Option<CornerChoice> = None;
    let mut max_choice: Option<CornerChoice> = None;
    // Each active pin's minimum delay, lowered below by V-shape speed-ups.
    let mut min_used = [Time::ZERO; MAX_PINS];
    for (slot, a) in min_used.iter_mut().zip(active) {
        *slot = a.dmin;
    }
    let (a_s, a_l) = if ctrl {
        // To-controlling: the earliest participating transition triggers
        // the output.
        let a_l = if any_must {
            // A definite transition caps the latest arrival; additional
            // definite transitions compose V-shape speed-ups even on the
            // late corner (this is what collapses windows toward points
            // when vectors are fully specified, Section 5).
            let mut best = Time::INFINITY;
            for (t, trig) in active.iter().enumerate().filter(|(_, a)| a.must) {
                let (d, term) = if let Some(shapes) = &shapes {
                    composed_max(cell, shapes, t, active)
                } else {
                    (trig.dmax, DelayTerm::Dr)
                };
                let cand = trig.arrival.l() + d;
                if cand < best {
                    best = cand;
                    max_choice = Some(CornerChoice {
                        pin: trig.pin,
                        term,
                        delay: d,
                    });
                }
            }
            best
        } else {
            // Any single input might be the only one switching.
            let mut best = Time::NEG_INFINITY;
            for a in active {
                let cand = a.arrival.l() + a.dmax;
                if cand > best {
                    best = cand;
                    max_choice = Some(CornerChoice {
                        pin: a.pin,
                        term: DelayTerm::Dr,
                        delay: a.dmax,
                    });
                }
            }
            best
        };
        let mut a_s = Time::INFINITY;
        for (idx, trig) in active.iter().enumerate() {
            let (d, term) = if let Some(shapes) = &shapes {
                composed_min(cell, shapes, idx, active)
            } else {
                (trig.dmin, DelayTerm::Dr)
            };
            min_used[idx] = min_used[idx].min(d);
            let cand = trig.arrival.s() + d;
            if cand < a_s {
                a_s = cand;
                min_choice = Some(CornerChoice {
                    pin: trig.pin,
                    term,
                    delay: d,
                });
            }
        }
        (a_s, a_l)
    } else {
        // To-non-controlling (or single-input): the output waits for the
        // last needed transition; every `Must` input must complete. Under
        // the proposed model, near-simultaneous companions additionally
        // slow the release (Miller effect, Section 3.6 extension).
        let mut a_l = Time::NEG_INFINITY;
        for trig in active {
            let mut d = trig.dmax;
            let mut term = DelayTerm::Dr;
            if model.miller() && cell.n_inputs() >= 2 {
                for other in active {
                    if other.pin == trig.pin {
                        continue;
                    }
                    let Ok(v) = cell.vshape_nonctrl_delay(
                        trig.pin,
                        other.pin,
                        cell.clamp_t(trig.ttime.l()),
                        cell.clamp_t(other.ttime.l()),
                        load,
                    ) else {
                        continue;
                    };
                    let skews = other.arrival.sub(trig.arrival);
                    let bump = (v.max_over(skews) - v.left_knee().1).max(Time::ZERO);
                    if bump > Time::ZERO {
                        term = DelayTerm::Miller;
                    }
                    d += bump;
                }
            }
            let cand = trig.arrival.l() + d;
            if cand > a_l {
                a_l = cand;
                max_choice = Some(CornerChoice {
                    pin: trig.pin,
                    term,
                    delay: d,
                });
            }
        }
        let mut single_min = Time::INFINITY;
        let mut single_choice: Option<CornerChoice> = None;
        for a in active {
            let cand = a.arrival.s() + a.dmin;
            if cand < single_min {
                single_min = cand;
                single_choice = Some(CornerChoice {
                    pin: a.pin,
                    term: DelayTerm::Dr,
                    delay: a.dmin,
                });
            }
        }
        let mut must_min = Time::NEG_INFINITY;
        let mut must_choice: Option<CornerChoice> = None;
        for a in active.iter().filter(|a| a.must) {
            let cand = a.arrival.s() + a.dmin;
            if cand > must_min {
                must_min = cand;
                must_choice = Some(CornerChoice {
                    pin: a.pin,
                    term: DelayTerm::Dr,
                    delay: a.dmin,
                });
            }
        }
        let a_s = if any_must && must_min >= single_min {
            min_choice = must_choice;
            must_min
        } else {
            min_choice = single_choice;
            single_min
        };
        (a_s, a_l)
    };

    // --- Transition-time window ------------------------------------------
    let mut tt_l = active
        .iter()
        .map(|a| a.ttmax)
        .fold(Time::NEG_INFINITY, Time::max);
    if !ctrl && model.miller() && cell.n_inputs() >= 2 {
        // Simultaneous to-non-controlling transitions blunt the output
        // edge: the Λ peak transition time can exceed any single switch.
        for (ii, i) in active.iter().enumerate() {
            for j in active.iter().skip(ii + 1) {
                let (ti, tj) = (cell.clamp_t(i.ttime.l()), cell.clamp_t(j.ttime.l()));
                let (Ok(v), Ok(tpk)) = (
                    cell.vshape_nonctrl_delay(i.pin, j.pin, ti, tj, load),
                    cell.nonctrl_ttime_peak(i.pin, j.pin, ti, tj),
                ) else {
                    continue;
                };
                if j.arrival.sub(i.arrival).overlaps(v.simultaneous_window()) {
                    tt_l = tt_l.max(tpk);
                }
            }
        }
    }
    let mut tt_s = active
        .iter()
        .map(|a| a.ttmin)
        .fold(Time::INFINITY, Time::min);
    if let Some(shapes) = &shapes {
        // Simultaneous switching can sharpen the output edge below any
        // single-switch transition time; the minimum may sit at a non-zero
        // skew SK_{t,min} (Section 4.2).
        for (ii, i) in active.iter().enumerate() {
            for (jj, j) in active.iter().enumerate().skip(ii + 1) {
                let skews = j.arrival.sub(i.arrival);
                tt_s = tt_s.min(shapes.ttime(ii, jj).min_over(skews));
            }
        }
    }

    // Guard against fit noise producing inverted bounds.
    let arrival = Bound::hull(a_s, a_l);
    let ttime = Bound::hull(tt_s, tt_l);
    for (idx, a) in active.iter().enumerate() {
        used[a.pin][in_edge.index()] = Some(Bound::hull(min_used[idx], a.dmax));
    }
    Ok((
        Some(EdgeTiming { arrival, ttime }),
        [min_choice, max_choice],
    ))
}

/// The to-controlling V-shapes of every pair of active inputs, built once
/// per edge evaluation so that [`composed_min`], [`composed_max`] and the
/// transition-time search share them.
///
/// `get(t, o)[ci][cj]` is exactly `cell.vshape_delay(t.pin, o.pin, Tt, To)`
/// with `Tt` / `To` the clamped corner `ci` / `cj` (0 = `S`, 1 = `L`) of the
/// trigger's and the companion's transition times. Active inputs are in
/// pin order, so `t < o` is the pair's normalized orientation; the other
/// one is the normalized shape's [`VShape::mirrored`], which is what
/// `vshape_delay` itself returns for a reversed query. `ttime(t, o)`, for
/// `t < o`, is `cell.vshape_ttime` at the two `S` corners.
///
/// Each active input's two corners are prepared once, and each pair's
/// shapes come from one [`CharacterizedGate::pair_vshapes_at`] call.
struct PairShapes {
    n: usize,
    delay: [[[VShape; 2]; 2]; MAX_PINS * MAX_PINS],
    ttime: [VShape; MAX_PINS * MAX_PINS],
}

impl PairShapes {
    fn build(
        cell: &CharacterizedGate,
        load: Capacitance,
        active: &[Active],
    ) -> Result<PairShapes, StaError> {
        let n = active.len();
        let mut corners = [[PinCorner::default(); 2]; MAX_PINS];
        for (c, a) in corners.iter_mut().zip(active) {
            *c = [
                cell.pin_corner(a.pin, a.ttime.s(), load)?,
                cell.pin_corner(a.pin, a.ttime.l(), load)?,
            ];
        }
        let flat = VShape::flat(Time::ZERO);
        let mut shapes = PairShapes {
            n,
            delay: [[[flat; 2]; 2]; MAX_PINS * MAX_PINS],
            ttime: [flat; MAX_PINS * MAX_PINS],
        };
        for t in 0..n {
            for o in t + 1..n {
                let (delay, ttime) = cell.pair_vshapes_at(&corners[t], &corners[o], load)?;
                for (ci, row) in delay.iter().enumerate() {
                    for (cj, v) in row.iter().enumerate() {
                        shapes.delay[o * n + t][cj][ci] = v.mirrored();
                    }
                }
                shapes.delay[t * n + o] = delay;
                shapes.ttime[t * n + o] = ttime;
            }
        }
        Ok(shapes)
    }

    /// The delay shapes with active input `t` triggering and `o` the
    /// companion.
    fn get(&self, t: usize, o: usize) -> &[[VShape; 2]; 2] {
        &self.delay[t * self.n + o]
    }

    /// The transition-time shape of active inputs `t < o`.
    fn ttime(&self, t: usize, o: usize) -> &VShape {
        &self.ttime[t * self.n + o]
    }
}

/// The smallest delay achievable when active input `t` is the earliest
/// switching one: its pin-to-pin minimum, scaled down by each other
/// input's best pairwise V-shape ratio over the achievable skews, floored
/// by the characterized k-way zero-skew delay (Section 3.6 extension).
///
/// Also classifies which model term produced the result: `DR` when no
/// companion speed-up applied, `SR` when a saturation-skew ratio scaled
/// the delay, `D0R` when the k-way zero-skew floor was binding.
fn composed_min(
    cell: &CharacterizedGate,
    shapes: &PairShapes,
    t: usize,
    active: &[Active],
) -> (Time, DelayTerm) {
    let trig = &active[t];
    let mut d = trig.dmin;
    let mut scaled = false;
    let mut k_sim = 1usize;
    let mut t_small_sum = cell.clamp_t(trig.ttime.s());
    for (o, other) in active.iter().enumerate() {
        if o == t {
            continue;
        }
        // Achievable skews δ = A_other − A_trig.
        let skews = other.arrival.sub(trig.arrival);
        let mut best_ratio = 1.0f64;
        let mut in_window = false;
        for v in shapes.get(t, o).iter().flatten() {
            let knee = v.right_knee().1;
            if knee > Time::ZERO {
                let r = (v.min_over(skews) / knee).clamp(0.0, 1.0);
                best_ratio = best_ratio.min(r);
            }
            if skews.overlaps(v.simultaneous_window()) {
                in_window = true;
            }
        }
        if best_ratio < 1.0 {
            scaled = true;
        }
        d = d * best_ratio;
        if in_window {
            k_sim += 1;
            t_small_sum += cell.clamp_t(other.ttime.s());
        }
    }
    let mut term = if scaled { DelayTerm::Sr } else { DelayTerm::Dr };
    if k_sim >= 2 {
        if let Ok(floor) = cell.kway_floor(k_sim, t_small_sum / k_sim as f64) {
            if floor > d {
                d = floor;
                term = DelayTerm::D0r;
            }
        }
    }
    (d, term)
}

/// The largest delay achievable when active input `t` (a `Must` input)
/// may be the latest trigger: its pin-to-pin maximum, scaled by each other
/// `Must` input's *worst-case* (largest) pairwise V-shape ratio over the
/// achievable skews — a definite companion transition reduces the delay by
/// at least that much. Term classification as in [`composed_min`].
fn composed_max(
    cell: &CharacterizedGate,
    shapes: &PairShapes,
    t: usize,
    active: &[Active],
) -> (Time, DelayTerm) {
    let trig = &active[t];
    let mut d = trig.dmax;
    let mut scaled = false;
    let mut k_sim = 1usize;
    let mut t_large_sum = cell.clamp_t(trig.ttime.l());
    for (o, other) in active.iter().enumerate() {
        if o == t || !other.must {
            continue;
        }
        let skews = other.arrival.sub(trig.arrival);
        let mut worst_ratio = 0.0f64;
        let mut always_in_window = true;
        for v in shapes.get(t, o).iter().flatten() {
            let knee = v.right_knee().1;
            if knee > Time::ZERO {
                let r = (v.max_over(skews) / knee).clamp(0.0, 1.0);
                worst_ratio = worst_ratio.max(r);
            } else {
                worst_ratio = 1.0;
            }
            if !v.simultaneous_window().contains_bound(skews) {
                always_in_window = false;
            }
        }
        if worst_ratio < 1.0 {
            scaled = true;
        }
        d = d * worst_ratio;
        if always_in_window {
            k_sim += 1;
            t_large_sum += cell.clamp_t(other.ttime.l());
        }
    }
    let mut term = if scaled { DelayTerm::Sr } else { DelayTerm::Dr };
    // The composed upper bound must never dip below the characterized
    // zero-skew floor (a lower bound on any simultaneous delay).
    if k_sim >= 2 {
        if let Ok(floor) = cell.kway_floor(k_sim, t_large_sum / k_sim as f64) {
            if floor > d {
                d = floor;
                term = DelayTerm::D0r;
            }
        }
    }
    (d, term)
}

fn clamp_range(cell: &CharacterizedGate, t: Bound) -> (Time, Time) {
    let lo = cell.clamp_t(t.s());
    let hi = cell.clamp_t(t.l());
    (lo, hi.max(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_cells::{CharConfig, Characterizer};
    use ssdm_spice::GateKind;
    use std::sync::OnceLock;

    fn nand2() -> &'static CharacterizedGate {
        static CELL: OnceLock<CharacterizedGate> = OnceLock::new();
        CELL.get_or_init(|| {
            Characterizer::min_size("NAND2", GateKind::Nand, 2, CharConfig::fast())
                .unwrap()
                .characterize()
                .unwrap()
        })
    }

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    fn b(s: f64, l: f64) -> Bound {
        Bound::new(ns(s), ns(l)).unwrap()
    }

    fn sta_pin(a: Bound, t: Bound) -> PinWindow {
        PinWindow::sta(LineTiming::symmetric(a, t))
    }

    #[test]
    fn sta_windows_have_both_edges() {
        let cell = nand2();
        let pins = vec![
            sta_pin(b(0.0, 1.0), b(0.2, 0.6)),
            sta_pin(b(0.0, 1.0), b(0.2, 0.6)),
        ];
        let (lt, used) = stage_windows(cell, ModelKind::Proposed, &pins, cell.ref_load()).unwrap();
        let rise = lt.rise.unwrap();
        let fall = lt.fall.unwrap();
        assert!(rise.arrival.s() < rise.arrival.l());
        assert!(rise.arrival.s() > Time::ZERO);
        assert!(fall.arrival.l() > fall.arrival.s());
        assert!(rise.ttime.s() > Time::ZERO);
        assert!(used[0][Edge::Fall.index()].is_some());
        assert!(used[1][Edge::Rise.index()].is_some());
    }

    #[test]
    fn proposed_min_is_below_pin_to_pin_min() {
        // Table 2's mechanism: the proposed model lowers min arrival (the
        // simultaneous speed-up) and leaves max arrival unchanged.
        let cell = nand2();
        let pins = vec![
            sta_pin(b(0.0, 0.5), b(0.2, 0.6)),
            sta_pin(b(0.0, 0.5), b(0.2, 0.6)),
        ];
        let (prop, _) = stage_windows(cell, ModelKind::Proposed, &pins, cell.ref_load()).unwrap();
        let (p2p, _) = stage_windows(cell, ModelKind::PinToPin, &pins, cell.ref_load()).unwrap();
        let pr = prop.rise.unwrap();
        let br = p2p.rise.unwrap();
        assert!(
            pr.arrival.s() < br.arrival.s(),
            "proposed {} vs pin-to-pin {}",
            pr.arrival.s(),
            br.arrival.s()
        );
        assert_eq!(pr.arrival.l(), br.arrival.l(), "max delay must match");
        // Falling (to-non-controlling) edge is pin-to-pin in both.
        assert_eq!(prop.fall, p2p.fall);
    }

    #[test]
    fn disjoint_arrival_windows_disable_the_speedup() {
        // If the two inputs can never be δ-simultaneous, the proposed
        // model's min equals pin-to-pin.
        let cell = nand2();
        let pins = vec![
            sta_pin(b(0.0, 0.1), b(0.3, 0.3)),
            sta_pin(b(8.0, 9.0), b(0.3, 0.3)),
        ];
        let (prop, _) = stage_windows(cell, ModelKind::Proposed, &pins, cell.ref_load()).unwrap();
        let (p2p, _) = stage_windows(cell, ModelKind::PinToPin, &pins, cell.ref_load()).unwrap();
        let d = (prop.rise.unwrap().arrival.s() - p2p.rise.unwrap().arrival.s()).abs();
        assert!(d < ns(1e-9), "no overlap → no speed-up, diff {d}");
    }

    #[test]
    fn cannot_participation_removes_edges() {
        let cell = nand2();
        let mut p0 = sta_pin(b(0.0, 1.0), b(0.2, 0.6));
        let mut p1 = sta_pin(b(0.0, 1.0), b(0.2, 0.6));
        // Neither input can fall → the output can never rise.
        p0.participation[Edge::Fall.index()] = Participation::Cannot;
        p1.participation[Edge::Fall.index()] = Participation::Cannot;
        let (lt, used) =
            stage_windows(cell, ModelKind::Proposed, &[p0, p1], cell.ref_load()).unwrap();
        assert!(lt.rise.is_none());
        assert!(lt.fall.is_some());
        assert!(used[0][Edge::Fall.index()].is_none());
    }

    #[test]
    fn must_participation_tightens_latest_arrival() {
        let cell = nand2();
        let base = [
            sta_pin(b(0.0, 0.2), b(0.3, 0.3)),
            sta_pin(b(0.0, 3.0), b(0.3, 0.3)),
        ];
        let (all_may, _) =
            stage_windows(cell, ModelKind::Proposed, &base, cell.ref_load()).unwrap();
        // Pin 0 definitely falls: the rise can no longer wait for pin 1.
        let mut refined = base;
        refined[0].participation[Edge::Fall.index()] = Participation::Must;
        let (tight, _) =
            stage_windows(cell, ModelKind::Proposed, &refined, cell.ref_load()).unwrap();
        assert!(
            tight.rise.unwrap().arrival.l() < all_may.rise.unwrap().arrival.l(),
            "must-fall on the early pin caps the latest rise"
        );
        // Refinement invariant.
        assert!(all_may.refined_by(&tight));
    }

    #[test]
    fn must_participation_raises_earliest_non_controlling() {
        let cell = nand2();
        let base = [
            sta_pin(b(0.0, 0.2), b(0.3, 0.3)),
            sta_pin(b(2.0, 3.0), b(0.3, 0.3)),
        ];
        let (all_may, _) =
            stage_windows(cell, ModelKind::Proposed, &base, cell.ref_load()).unwrap();
        // Pin 1 definitely rises: the output fall must wait for it.
        let mut refined = base;
        refined[1].participation[Edge::Rise.index()] = Participation::Must;
        let (tight, _) =
            stage_windows(cell, ModelKind::Proposed, &refined, cell.ref_load()).unwrap();
        assert!(
            tight.fall.unwrap().arrival.s() > all_may.fall.unwrap().arrival.s(),
            "must-rise on the late pin raises the earliest fall"
        );
        assert!(all_may.refined_by(&tight));
    }

    #[test]
    #[should_panic(expected = "pin count mismatch")]
    fn pin_count_is_validated() {
        let cell = nand2();
        let _ = stage_windows(cell, ModelKind::Proposed, &[], cell.ref_load());
    }

    #[test]
    fn traced_corners_reconstruct_the_arrival_bounds() {
        let cell = nand2();
        let pins = vec![
            sta_pin(b(0.0, 1.0), b(0.2, 0.6)),
            sta_pin(b(0.3, 0.8), b(0.2, 0.6)),
        ];
        let (lt, used, prov) =
            stage_windows_traced(cell, ModelKind::Proposed, &pins, cell.ref_load()).unwrap();
        let (lt2, used2) =
            stage_windows(cell, ModelKind::Proposed, &pins, cell.ref_load()).unwrap();
        assert_eq!(lt, lt2, "traced and untraced timing must be identical");
        assert_eq!(used, used2);
        for e in Edge::BOTH {
            let et = lt.edge(e).expect("both edges live");
            let in_edge = e.inverted();
            // Min bound: winner's earliest arrival plus its delay is the
            // output's earliest arrival, exactly.
            let c = prov.corners[e.index()][0].expect("min corner");
            let win = pins[c.pin].timing.edge(in_edge).unwrap();
            assert_eq!(win.arrival.s() + c.delay, et.arrival.s(), "{e} min");
            // Max bound likewise.
            let c = prov.corners[e.index()][1].expect("max corner");
            let win = pins[c.pin].timing.edge(in_edge).unwrap();
            assert_eq!(win.arrival.l() + c.delay, et.arrival.l(), "{e} max");
        }
    }

    #[test]
    fn traced_terms_classify_the_model_segment() {
        let cell = nand2();
        // Overlapping arrival windows: the to-controlling (rise) min
        // corner rides a V-shape segment, not the single-switch arm.
        let pins = vec![
            sta_pin(b(0.0, 0.5), b(0.2, 0.6)),
            sta_pin(b(0.0, 0.5), b(0.2, 0.6)),
        ];
        let (_, _, prov) =
            stage_windows_traced(cell, ModelKind::Proposed, &pins, cell.ref_load()).unwrap();
        let rise_min = prov.corners[Edge::Rise.index()][0].unwrap();
        assert!(
            matches!(rise_min.term, DelayTerm::Sr | DelayTerm::D0r),
            "simultaneous speed-up must be attributed to a V-shape term, got {:?}",
            rise_min.term
        );
        // The max bound of a to-controlling output without Must inputs is
        // a plain single-switch corner.
        let rise_max = prov.corners[Edge::Rise.index()][1].unwrap();
        assert_eq!(rise_max.term, DelayTerm::Dr);
        // Pin-to-pin never attributes V-shape terms anywhere.
        let (_, _, p2p) =
            stage_windows_traced(cell, ModelKind::PinToPin, &pins, cell.ref_load()).unwrap();
        for e in Edge::BOTH {
            for bound in 0..2 {
                assert_eq!(p2p.corners[e.index()][bound].unwrap().term, DelayTerm::Dr);
            }
        }
        // Disjoint windows disable the speed-up and the attribution
        // follows suit.
        let far = vec![
            sta_pin(b(0.0, 0.1), b(0.3, 0.3)),
            sta_pin(b(8.0, 9.0), b(0.3, 0.3)),
        ];
        let (_, _, prov) =
            stage_windows_traced(cell, ModelKind::Proposed, &far, cell.ref_load()).unwrap();
        assert_eq!(
            prov.corners[Edge::Rise.index()][0].unwrap().term,
            DelayTerm::Dr,
            "no overlap → single-switch arm"
        );
    }

    fn shape_bits(v: &VShape) -> [u64; 6] {
        let [(a, b), (c, d), (e, f)] = [v.left_knee(), v.vertex(), v.right_knee()];
        [a, b, c, d, e, f].map(|t| t.as_ns().to_bits())
    }

    proptest::proptest! {
        /// Every shape the table holds, in both orientations, is the
        /// cell's own `vshape_delay` / `vshape_ttime` at the same corners.
        /// Pins 0 and 1 are always active; `mask` adds the others.
        #[test]
        fn pair_shapes_match_the_cell_queries(
            cell in 0usize..6,
            mask in 0usize..16,
            corners in proptest::collection::vec(0.0f64..2.5, 8..9),
            load in 1.0f64..40.0,
        ) {
            let name = ["NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4"][cell];
            let g = crate::testlib::library().get(name).expect("standard cell");
            let load = Capacitance::from_ff(load);
            let active: Vec<Active> = (0..g.n_inputs())
                .filter(|p| (mask | 0b11) >> p & 1 == 1)
                .map(|pin| {
                    let (s, w) = (corners[2 * pin], corners[2 * pin + 1]);
                    Active {
                        pin,
                        arrival: Bound::point(Time::ZERO),
                        ttime: b(s, s + w),
                        must: false,
                        dmin: Time::ZERO,
                        dmax: Time::ZERO,
                        ttmin: Time::ZERO,
                        ttmax: Time::ZERO,
                    }
                })
                .collect();
            let shapes = PairShapes::build(g, load, &active).unwrap();
            for (t, x) in active.iter().enumerate() {
                for (o, y) in active.iter().enumerate().filter(|&(o, _)| o != t) {
                    for (ci, tx) in [x.ttime.s(), x.ttime.l()].into_iter().enumerate() {
                        for (cj, ty) in [y.ttime.s(), y.ttime.l()].into_iter().enumerate() {
                            let want = g.vshape_delay(x.pin, y.pin, tx, ty, load).unwrap();
                            proptest::prop_assert_eq!(
                                shape_bits(&shapes.get(t, o)[ci][cj]), shape_bits(&want),
                                "{} pins ({}, {}) corner ({}, {})", name, x.pin, y.pin, ci, cj
                            );
                        }
                    }
                    if t < o {
                        let want = g
                            .vshape_ttime(x.pin, y.pin, g.clamp_t(x.ttime.s()), g.clamp_t(y.ttime.s()), load)
                            .unwrap();
                        proptest::prop_assert_eq!(
                            shape_bits(shapes.ttime(t, o)), shape_bits(&want),
                            "{} pins ({}, {}) ttime", name, x.pin, y.pin
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn composed_provenance_sums_stage_delays() {
        let first = StageProvenance {
            corners: [
                [
                    Some(CornerChoice {
                        pin: 1,
                        term: DelayTerm::Sr,
                        delay: ns(0.25),
                    }),
                    None,
                ],
                [None, None],
            ],
        };
        let second = StageProvenance {
            corners: [
                [None, None],
                [
                    Some(CornerChoice {
                        pin: 0,
                        term: DelayTerm::Dr,
                        delay: ns(0.125),
                    }),
                    None,
                ],
            ],
        };
        let out = StageProvenance::compose(&first, &second);
        // Final fall min: first stage's rise min (pin 1, SR) plus the
        // inverter's fall min delay.
        let c = out.corners[Edge::Fall.index()][0].unwrap();
        assert_eq!(c.pin, 1);
        assert_eq!(c.term, DelayTerm::Sr);
        assert_eq!(c.delay, ns(0.375));
        // Anything missing a stage stays None.
        assert!(out.corners[Edge::Rise.index()][0].is_none());
        assert!(out.corners[Edge::Fall.index()][1].is_none());
    }
}
