//! The paper's proposed delay model.
//!
//! * Single switching input → pin-to-pin quadratics (position-aware).
//! * Two simultaneous to-controlling transitions → the V-shape of Figure 2
//!   evaluated at the actual skew.
//! * More than two → the Section 3.6 extension, reconstructed here (the
//!   paper defers details to tech report \[9\]): starting from the earliest
//!   input's pin-to-pin delay, each additional δ-simultaneous input
//!   contributes its pairwise V-shape speed-up multiplicatively, floored by
//!   the characterized k-way zero-skew delay so the model stays exact at
//!   the calibration points.
//! * To-non-controlling transitions → pin-to-pin with latest-arrival
//!   composition, exactly as the paper prescribes.

use ssdm_cells::CharacterizedGate;
use ssdm_core::{Capacitance, Time, Transition};

use crate::error::ModelError;
use crate::model::{classify, DelayModel, GateResponse, SwitchClass};

/// The proposed simultaneous-switching delay model (Section 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposedModel {
    miller: bool,
}

impl ProposedModel {
    /// The model exactly as evaluated in the paper: V-shapes for
    /// simultaneous to-controlling transitions, plain pin-to-pin for
    /// to-non-controlling ones.
    pub fn new() -> ProposedModel {
        ProposedModel { miller: false }
    }

    /// The model plus the Section 3.6 extension: Λ-shaped Miller slowdown
    /// for simultaneous to-non-controlling transitions. It reads the
    /// to-non-controlling pair records of a library characterized with
    /// `nonctrl_pairs`; a response that needs a missing one fails with
    /// [`ModelError::Cell`].
    pub fn with_miller() -> ProposedModel {
        ProposedModel { miller: true }
    }
}

impl DelayModel for ProposedModel {
    fn name(&self) -> &str {
        if self.miller {
            "proposed+miller"
        } else {
            "proposed"
        }
    }

    fn response(
        &self,
        cell: &CharacterizedGate,
        switching: &[(usize, Transition)],
        load: Capacitance,
    ) -> Result<GateResponse, ModelError> {
        let stim = classify(cell, switching)?;
        match stim.class {
            SwitchClass::ToNonControlling => {
                // Pin-to-pin, latest arrival wins (the paper's base rule)…
                let mut winner: Option<(usize, Transition)> = None;
                let mut arrival = Time::NEG_INFINITY;
                let mut ttime = Time::ZERO;
                for &(pin, tr) in switching {
                    let d = cell.pin_delay(stim.out_edge, pin, tr.ttime, load)?;
                    let a = tr.arrival + d;
                    if a > arrival {
                        arrival = a;
                        ttime = cell.pin_ttime(stim.out_edge, pin, tr.ttime, load)?;
                        winner = Some((pin, tr));
                    }
                }
                // …plus the Section 3.6 extension: near-simultaneous
                // companions slow the release (Miller effect), as a
                // Λ-shaped bump over skew when characterized.
                if let Some((w_pin, w_tr)) = winner.filter(|_| self.miller) {
                    for &(pin, tr) in switching {
                        if pin == w_pin {
                            continue;
                        }
                        let v =
                            cell.vshape_nonctrl_delay(w_pin, pin, w_tr.ttime, tr.ttime, load)?;
                        let skew = tr.arrival - w_tr.arrival;
                        // Bump relative to the winner's own saturated
                        // (single-switch) flank at δ → −∞ (the companion
                        // leads the winner).
                        let flank = v.left_knee().1;
                        arrival += (v.eval(skew) - flank).max(Time::ZERO);
                        if v.simultaneous_window().contains(skew) {
                            let tpk = cell.nonctrl_ttime_peak(w_pin, pin, w_tr.ttime, tr.ttime)?;
                            ttime = ttime.max(tpk);
                        }
                    }
                }
                Ok(GateResponse {
                    out_edge: stim.out_edge,
                    arrival,
                    ttime,
                })
            }
            SwitchClass::ToControlling => self.to_controlling(cell, &stim, load),
        }
    }
}

impl ProposedModel {
    // "to-controlling" is the paper's transition class, not a conversion.
    #[allow(clippy::wrong_self_convention)]
    fn to_controlling(
        &self,
        cell: &CharacterizedGate,
        stim: &crate::model::Stimulus<'_>,
        load: Capacitance,
    ) -> Result<GateResponse, ModelError> {
        let switching = stim.switching;
        // Earliest switching input is the reference (paper's definition of
        // the to-controlling gate delay).
        let (e_idx, &(e_pin, e_tr)) = switching
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1 .1
                    .arrival
                    .partial_cmp(&b.1 .1.arrival)
                    .expect("finite arrivals")
            })
            .expect("classify guarantees non-empty");
        // A single switch keeps its pin-to-pin timing; each further input
        // composes its pairwise V-shape with the earliest one.
        let mut delay = cell.pin_delay(stim.out_edge, e_pin, e_tr.ttime, load)?;
        let mut ttime = cell.pin_ttime(stim.out_edge, e_pin, e_tr.ttime, load)?;
        let corner = |pin, t| cell.pin_corner(pin, t, load).map(|c| [c]);
        let mut n_simultaneous = 1usize;
        let mut t_sum = e_tr.ttime;
        for (m_idx, &(m_pin, m_tr)) in switching.iter().enumerate() {
            if m_idx == e_idx {
                continue;
            }
            let skew = m_tr.arrival - e_tr.arrival; // δ = A_m − A_e ≥ 0
            let (e, m) = (corner(e_pin, e_tr.ttime)?, corner(m_pin, m_tr.ttime)?);
            let ([[v]], vt) = cell.pair_vshapes_at(&e, &m, load)?;
            let pair_delay = v.eval(skew);
            // Multiplicative composition: each additional input scales the
            // delay by its pairwise ratio (1 when outside the
            // δ-simultaneous window).
            let knee = v.right_knee().1;
            if knee > Time::ZERO {
                delay = delay * (pair_delay / knee).min(1.0);
            } else {
                delay = delay.min(pair_delay);
            }
            if v.simultaneous_window().contains(skew) {
                n_simultaneous += 1;
                t_sum += m_tr.ttime;
            }
            // Output transition time: best (smallest) pairwise prediction.
            ttime = ttime.min(vt.eval(skew));
        }
        // Floor at the characterized k-way zero-skew delay so that k equal
        // simultaneous switches reproduce their calibration measurement.
        if n_simultaneous >= 2 {
            let t_mean = t_sum / n_simultaneous as f64;
            delay = delay.max(cell.kway_floor(n_simultaneous, t_mean)?);
        }
        Ok(GateResponse {
            out_edge: stim.out_edge,
            arrival: e_tr.arrival + delay,
            ttime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_core::Edge;

    fn nand2() -> &'static CharacterizedGate {
        crate::test_cell("NAND2")
    }

    fn nand3() -> &'static CharacterizedGate {
        crate::test_cell("NAND3")
    }

    fn fall(a: f64, t: f64) -> Transition {
        Transition::new(Edge::Fall, Time::from_ns(a), Time::from_ns(t))
    }

    #[test]
    fn single_switch_equals_pin_to_pin() {
        let cell = nand2();
        let m = ProposedModel::new();
        let r = m
            .response(cell, &[(1, fall(1.0, 0.5))], cell.ref_load())
            .unwrap();
        let d = cell
            .pin_delay(Edge::Rise, 1, Time::from_ns(0.5), cell.ref_load())
            .unwrap();
        assert_eq!(r.arrival, Time::from_ns(1.0) + d);
        assert_eq!(r.out_edge, Edge::Rise);
    }

    #[test]
    fn zero_skew_pair_hits_d0() {
        let cell = nand2();
        let m = ProposedModel::new();
        let r = m
            .response(
                cell,
                &[(0, fall(1.0, 0.5)), (1, fall(1.0, 0.5))],
                cell.ref_load(),
            )
            .unwrap();
        let v = cell
            .vshape_delay(
                0,
                1,
                Time::from_ns(0.5),
                Time::from_ns(0.5),
                cell.ref_load(),
            )
            .unwrap();
        let d = r.arrival - Time::from_ns(1.0);
        assert!(
            (d - v.vertex().1).abs() < Time::from_ns(1e-9),
            "composed {d} vs D0 {}",
            v.vertex().1
        );
    }

    #[test]
    fn huge_skew_reduces_to_single_switch() {
        let cell = nand2();
        let m = ProposedModel::new();
        let single = m
            .response(cell, &[(0, fall(1.0, 0.5))], cell.ref_load())
            .unwrap();
        let pair = m
            .response(
                cell,
                &[(0, fall(1.0, 0.5)), (1, fall(9.0, 0.5))],
                cell.ref_load(),
            )
            .unwrap();
        assert!((pair.arrival - single.arrival).abs() < Time::from_ns(1e-9));
    }

    #[test]
    fn simultaneous_is_faster_than_single() {
        let cell = nand2();
        let m = ProposedModel::new();
        let single = m
            .response(cell, &[(0, fall(1.0, 0.5))], cell.ref_load())
            .unwrap();
        let pair = m
            .response(
                cell,
                &[(0, fall(1.0, 0.5)), (1, fall(1.05, 0.5))],
                cell.ref_load(),
            )
            .unwrap();
        assert!(pair.arrival < single.arrival);
        assert!(pair.ttime <= single.ttime + Time::from_ns(1e-9));
    }

    #[test]
    fn three_way_floor_is_respected() {
        let cell = nand3();
        let m = ProposedModel::new();
        let r = m
            .response(
                cell,
                &[
                    (0, fall(1.0, 0.7)),
                    (1, fall(1.0, 0.7)),
                    (2, fall(1.0, 0.7)),
                ],
                cell.ref_load(),
            )
            .unwrap();
        let floor = cell.kway_floor(3, Time::from_ns(0.7)).unwrap();
        let d = r.arrival - Time::from_ns(1.0);
        // Exactly at the calibration point the floor binds.
        assert!(
            (d - floor).abs() < Time::from_ns(0.02),
            "three-way delay {d} vs floor {floor}"
        );
        // And three switches beat two.
        let two = m
            .response(
                cell,
                &[(0, fall(1.0, 0.7)), (1, fall(1.0, 0.7))],
                cell.ref_load(),
            )
            .unwrap();
        assert!(r.arrival < two.arrival);
        // Without its 3-way floor the three-switch response fails instead
        // of dropping the floor.
        let pins = Edge::BOTH.map(|e| (0..3).map(|p| *cell.pin(e, p).unwrap()).collect());
        let floorless = CharacterizedGate::new(
            cell.name().into(),
            cell.kind(),
            3,
            cell.wn_um(),
            cell.wp_um(),
            cell.ref_load().as_ff(),
            cell.input_cap().as_ff(),
            cell.t_range(),
            pins,
            cell.pairs().to_vec(),
            cell.npairs().to_vec(),
            vec![],
        );
        let three = [
            (0, fall(1.0, 0.7)),
            (1, fall(1.0, 0.7)),
            (2, fall(1.0, 0.7)),
        ];
        assert!(m.response(&floorless, &three, cell.ref_load()).is_err());
    }

    #[test]
    fn miller_extension_improves_nonctrl_accuracy() {
        // Simultaneous rising inputs on a NAND are slower than pin-to-pin
        // predicts (Miller effect); the extension recovers most of the gap.
        use crate::reference::SpiceReference;
        let cell = nand2();
        let base = ProposedModel::new();
        let ext = ProposedModel::with_miller();
        let reference = SpiceReference::default();
        let rise = |a: f64, t: f64| Transition::new(Edge::Rise, Time::from_ns(a), Time::from_ns(t));
        let stim = [(0usize, rise(2.0, 0.8)), (1usize, rise(2.0, 0.8))];
        let truth = reference.response(cell, &stim, cell.ref_load()).unwrap();
        let rb = base.response(cell, &stim, cell.ref_load()).unwrap();
        let re = ext.response(cell, &stim, cell.ref_load()).unwrap();
        let err_base = (truth.arrival - rb.arrival).abs();
        let err_ext = (truth.arrival - re.arrival).abs();
        assert!(re.arrival > rb.arrival, "extension must add a bump");
        assert!(
            err_ext < err_base,
            "extension should be closer to spice: {err_ext} vs {err_base}"
        );
        assert!(err_ext < Time::from_ns(0.04), "residual error {err_ext}");
        // Far-apart transitions: no bump, identical to the base model.
        let far = [(0usize, rise(2.0, 0.8)), (1usize, rise(6.0, 0.8))];
        let rb = base.response(cell, &far, cell.ref_load()).unwrap();
        let re = ext.response(cell, &far, cell.ref_load()).unwrap();
        assert!((re.arrival - rb.arrival).abs() < Time::from_ps(25.0));
        assert_eq!(base.name(), "proposed");
        assert_eq!(ext.name(), "proposed+miller");
    }

    #[test]
    fn miller_without_npair_records_fails_and_the_base_model_does_not() {
        let text: String = include_str!("../../../perfbench/data/library-fast.txt")
            .lines()
            .filter(|l| !l.starts_with("npair "))
            .map(|l| format!("{l}\n"))
            .collect();
        let lib = ssdm_cells::CellLibrary::from_text(&text).unwrap();
        let bare = lib.get("NAND2").unwrap();
        let rise = |a: f64| Transition::new(Edge::Rise, Time::from_ns(a), Time::from_ns(0.8));
        let stim = [(0usize, rise(2.0)), (1usize, rise(2.1))];
        let load = bare.ref_load();
        let r = ProposedModel::with_miller().response(bare, &stim, load);
        assert!(
            matches!(
                r,
                Err(ModelError::Cell(ssdm_cells::CellError::BadPin { .. }))
            ),
            "{r:?}"
        );
        let base = ProposedModel::new();
        assert_eq!(
            base.response(bare, &stim, load).unwrap(),
            base.response(nand2(), &stim, load).unwrap()
        );
    }

    #[test]
    fn to_non_controlling_takes_latest() {
        let cell = nand2();
        let m = ProposedModel::new();
        let rise = |a: f64| Transition::new(Edge::Rise, Time::from_ns(a), Time::from_ns(0.5));
        let r = m
            .response(cell, &[(0, rise(1.0)), (1, rise(2.0))], cell.ref_load())
            .unwrap();
        assert_eq!(r.out_edge, Edge::Fall);
        let d1 = cell
            .pin_delay(Edge::Fall, 1, Time::from_ns(0.5), cell.ref_load())
            .unwrap();
        assert_eq!(r.arrival, Time::from_ns(2.0) + d1);
    }
}
