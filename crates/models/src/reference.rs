//! The transistor-level simulator behind the [`DelayModel`] interface.

use ssdm_cells::CharacterizedGate;
use ssdm_core::{Capacitance, Transition};
use ssdm_spice::{GateSim, Process};

use crate::error::ModelError;
use crate::model::{classify, DelayModel, GateResponse};

/// Direct transistor-level simulation (the workspace's HSPICE stand-in)
/// exposed as a delay model, so experiment harnesses can sweep the
/// reference and the analytical models through identical stimuli.
#[derive(Debug, Clone)]
pub struct SpiceReference {
    process: Process,
}

impl SpiceReference {
    /// Creates the reference for a process.
    pub fn new(process: Process) -> SpiceReference {
        SpiceReference { process }
    }
}

impl Default for SpiceReference {
    fn default() -> SpiceReference {
        SpiceReference::new(Process::p05um())
    }
}

impl DelayModel for SpiceReference {
    fn name(&self) -> &str {
        "spice"
    }

    fn response(
        &self,
        cell: &CharacterizedGate,
        switching: &[(usize, Transition)],
        load: Capacitance,
    ) -> Result<GateResponse, ModelError> {
        let stim = classify(cell, switching)?;
        let sim = GateSim::new(
            cell.kind(),
            cell.n_inputs(),
            cell.wn_um(),
            cell.wp_um(),
            self.process.clone(),
        )?;
        let m = sim.measure_switching(switching, load)?;
        debug_assert_eq!(m.out_edge, stim.out_edge);
        Ok(GateResponse {
            out_edge: m.out_edge,
            arrival: m.arrival,
            ttime: m.ttime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposed::ProposedModel;
    use ssdm_core::{Edge, Time};

    fn nand2() -> &'static CharacterizedGate {
        crate::test_cell("NAND2")
    }

    fn fall(a: f64, t: f64) -> Transition {
        Transition::new(Edge::Fall, Time::from_ns(a), Time::from_ns(t))
    }

    #[test]
    fn reference_agrees_with_direct_simulation_conventions() {
        let cell = nand2();
        let r = SpiceReference::default()
            .response(cell, &[(0, fall(1.0, 0.5))], cell.ref_load())
            .unwrap();
        assert_eq!(r.out_edge, Edge::Rise);
        assert!(r.arrival > Time::from_ns(1.0));
        assert!(r.ttime > Time::ZERO);
    }

    #[test]
    fn proposed_tracks_reference_within_tolerance() {
        // The central accuracy claim, in miniature: over a mixed stimulus
        // set the proposed model stays close to the reference.
        let cell = nand2();
        let reference = SpiceReference::default();
        let proposed = ProposedModel::new();
        let stimuli: Vec<Vec<(usize, Transition)>> = vec![
            vec![(0, fall(1.0, 0.3))],
            vec![(1, fall(1.0, 1.2))],
            vec![(0, fall(1.0, 0.5)), (1, fall(1.0, 0.5))],
            vec![(0, fall(1.0, 0.3)), (1, fall(1.15, 0.9))],
            vec![(0, fall(1.4, 0.9)), (1, fall(1.0, 0.3))],
            vec![(0, fall(1.0, 0.5)), (1, fall(2.5, 0.5))],
        ];
        for stim in &stimuli {
            let r = reference.response(cell, stim, cell.ref_load()).unwrap();
            let p = proposed.response(cell, stim, cell.ref_load()).unwrap();
            let err = (r.arrival - p.arrival).abs();
            assert!(
                err < Time::from_ns(0.04),
                "stimulus {stim:?}: reference {} vs proposed {}",
                r.arrival,
                p.arrival
            );
        }
    }

    #[test]
    fn rejects_malformed_stimuli() {
        let cell = nand2();
        let r = SpiceReference::default().response(cell, &[], cell.ref_load());
        assert!(matches!(r, Err(ModelError::BadStimulus { .. })));
    }
}
