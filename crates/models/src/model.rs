//! The [`DelayModel`] trait and shared stimulus plumbing.

use ssdm_cells::CharacterizedGate;
use ssdm_core::{Capacitance, Edge, Time, Transition};
use ssdm_spice::GateKind;

use crate::error::ModelError;

/// Classification of a stimulus per the paper's Section 3 definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchClass {
    /// All switching inputs move **toward the controlling value** (e.g.
    /// falling inputs of a NAND); the earliest one triggers the output.
    ToControlling,
    /// All switching inputs move toward the non-controlling value; the
    /// latest one releases the output.
    ToNonControlling,
}

/// A model's prediction for one gate response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateResponse {
    /// Output transition direction.
    pub out_edge: Edge,
    /// Absolute output arrival time (50 % crossing).
    pub arrival: Time,
    /// Output transition time (10 %–90 %).
    pub ttime: Time,
}

/// A validated stimulus: same-direction transitions on distinct pins.
#[derive(Debug, Clone)]
pub struct Stimulus<'a> {
    /// The switching inputs `(position, transition)`.
    pub switching: &'a [(usize, Transition)],
    /// Common input edge.
    pub in_edge: Edge,
    /// Resulting output edge.
    pub out_edge: Edge,
    /// To-controlling or to-non-controlling.
    pub class: SwitchClass,
}

/// Validates a stimulus against a cell and classifies it.
///
/// # Errors
///
/// Returns [`ModelError::BadStimulus`] for an empty stimulus, mixed
/// transition directions, duplicated pins or out-of-range positions.
pub fn classify<'a>(
    cell: &CharacterizedGate,
    switching: &'a [(usize, Transition)],
) -> Result<Stimulus<'a>, ModelError> {
    let (first, rest) = switching
        .split_first()
        .ok_or_else(|| ModelError::BadStimulus {
            reason: "no switching inputs".into(),
        })?;
    let in_edge = first.1.edge;
    if rest.iter().any(|(_, t)| t.edge != in_edge) {
        return Err(ModelError::BadStimulus {
            reason: "switching inputs mix rising and falling transitions".into(),
        });
    }
    for (idx, &(pin, _)) in switching.iter().enumerate() {
        if pin >= cell.n_inputs() {
            return Err(ModelError::BadStimulus {
                reason: format!("pin {pin} out of range for {}", cell.name()),
            });
        }
        if switching[..idx].iter().any(|&(p, _)| p == pin) {
            return Err(ModelError::BadStimulus {
                reason: format!("pin {pin} appears twice in the stimulus"),
            });
        }
    }
    // The inverter is a degenerate case: both directions behave alike.
    let class =
        if cell.kind() == GateKind::Inv || in_edge.to_value() == cell.kind().controlling_value() {
            SwitchClass::ToControlling
        } else {
            SwitchClass::ToNonControlling
        };
    Ok(Stimulus {
        switching,
        in_edge,
        out_edge: in_edge.inverted(),
        class,
    })
}

/// A gate delay model.
///
/// Implementations must be deterministic. The trait is object-safe so
/// experiment harnesses can iterate a `Vec<Box<dyn DelayModel>>` over the
/// same stimulus set.
pub trait DelayModel {
    /// Short display name (e.g. `"proposed"`, `"pin-to-pin"`).
    fn name(&self) -> &str;

    /// Predicts the output response of `cell` when the listed inputs
    /// switch (all in the same direction) and every other input is steady
    /// at the non-controlling value.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadStimulus`] for malformed stimuli, and
    /// model-specific errors otherwise.
    fn response(
        &self,
        cell: &CharacterizedGate,
        switching: &[(usize, Transition)],
        load: Capacitance,
    ) -> Result<GateResponse, ModelError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand2() -> &'static CharacterizedGate {
        crate::test_cell("NAND2")
    }

    fn tr(edge: Edge, a: f64) -> Transition {
        Transition::new(edge, Time::from_ns(a), Time::from_ns(0.5))
    }

    #[test]
    fn classify_to_controlling_nand() {
        let cell = nand2();
        let sw = [(0, tr(Edge::Fall, 1.0)), (1, tr(Edge::Fall, 1.2))];
        let s = classify(cell, &sw).unwrap();
        assert_eq!(s.class, SwitchClass::ToControlling);
        assert_eq!(s.out_edge, Edge::Rise);
        assert_eq!(s.in_edge, Edge::Fall);
    }

    #[test]
    fn classify_to_non_controlling_nand() {
        let cell = nand2();
        let sw = [(0, tr(Edge::Rise, 1.0))];
        let s = classify(cell, &sw).unwrap();
        assert_eq!(s.class, SwitchClass::ToNonControlling);
        assert_eq!(s.out_edge, Edge::Fall);
    }

    #[test]
    fn classify_rejects_bad_stimuli() {
        let cell = nand2();
        assert!(classify(cell, &[]).is_err());
        let mixed = [(0, tr(Edge::Fall, 1.0)), (1, tr(Edge::Rise, 1.0))];
        assert!(classify(cell, &mixed).is_err());
        let dup = [(0, tr(Edge::Fall, 1.0)), (0, tr(Edge::Fall, 1.5))];
        assert!(classify(cell, &dup).is_err());
        let oob = [(7, tr(Edge::Fall, 1.0))];
        assert!(classify(cell, &oob).is_err());
    }
}
