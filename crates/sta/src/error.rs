//! STA error types.

use std::error::Error;
use std::fmt;

use ssdm_cells::CellError;

/// Errors produced by static timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// The library lacks a cell needed to map a netlist gate.
    Cell(CellError),
    /// A gate type/fan-in combination has no stage mapping (e.g. fan-in
    /// beyond the characterized maximum).
    Unmappable {
        /// Netlist gate (output net) name.
        gate: String,
        /// Reason.
        reason: String,
    },
    /// The Miller model ([`crate::ModelKind::ProposedMiller`]) reads
    /// to-non-controlling pair records that the library's cell lacks, as in
    /// a library characterized without `nonctrl_pairs`.
    NoMillerPairs {
        /// Cell name.
        cell: String,
    },
    /// An output edge had no possible triggering input — only possible
    /// under refined (ITR) participation states.
    NoTrigger {
        /// Gate name.
        gate: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Cell(e) => write!(f, "cell lookup failed: {e}"),
            StaError::Unmappable { gate, reason } => {
                write!(f, "cannot map gate {gate:?} onto library cells: {reason}")
            }
            StaError::NoMillerPairs { cell } => {
                write!(
                    f,
                    "cell {cell:?} lacks the pair records of the Miller model"
                )
            }
            StaError::NoTrigger { gate } => {
                write!(f, "no input can trigger the requested edge at {gate:?}")
            }
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Cell(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CellError> for StaError {
    fn from(e: CellError) -> StaError {
        StaError::Cell(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = StaError::Unmappable {
            gate: "g1".into(),
            reason: "fan-in 9".into(),
        };
        assert!(e.to_string().contains("g1"));
        let e = StaError::from(CellError::UnknownCell {
            name: "NAND9".into(),
        });
        assert!(e.to_string().contains("NAND9"));
        assert!(Error::source(&e).is_some());
        let e = StaError::NoMillerPairs {
            cell: "NAND3".into(),
        };
        assert!(e.to_string().contains("NAND3"));
    }
}
