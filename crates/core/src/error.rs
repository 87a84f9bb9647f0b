//! Engine error type.

use evprop_jtree::JtreeError;
use evprop_potential::{PotentialError, VarId};
use std::error::Error;
use std::fmt;

/// Errors produced by the inference engines.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The queried variable appears in no clique.
    VariableNotInTree(VarId),
    /// The evidence is impossible under the model (probability zero), so
    /// posteriors are undefined.
    ImpossibleEvidence,
    /// The unnormalized mass `P(C, e)` a posterior is read from is not
    /// a finite number: finite but huge likelihood weights multiplied
    /// past `f64::MAX` (and the Hugin division then computed
    /// `inf / inf`). No posterior is produced rather than a `NaN` one.
    EvidenceOverflow {
        /// The mass the read-out found (`inf` or `NaN`).
        mass: f64,
    },
    /// Junction-tree construction or validation failed.
    Jtree(JtreeError),
    /// A potential-table operation failed.
    Potential(PotentialError),
    /// A scheduler worker thread panicked while executing the job. The
    /// pool survives (panics are contained per job), but this query
    /// produced no result.
    WorkerPanicked(String),
    /// The job's cancellation token fired (typically a query deadline)
    /// before propagation completed: workers stopped at task
    /// boundaries and no result was produced. Cancellation never
    /// alters a result that *is* produced — a query that completes is
    /// bit-identical to an uncancelled run.
    Cancelled,
    /// An observed state index is out of range for its variable.
    InvalidEvidenceState {
        /// The observed variable.
        var: VarId,
        /// The rejected state index.
        state: usize,
        /// The variable's state count.
        cardinality: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::VariableNotInTree(v) => {
                write!(f, "variable {v} does not appear in any clique")
            }
            EngineError::ImpossibleEvidence => {
                write!(f, "evidence has probability zero under the model")
            }
            EngineError::EvidenceOverflow { mass } => write!(
                f,
                "evidence overflows f64 (unnormalized posterior mass {mass}): \
                 scale the likelihood weights down"
            ),
            EngineError::Jtree(e) => write!(f, "junction tree error: {e}"),
            EngineError::Potential(e) => write!(f, "potential-table error: {e}"),
            EngineError::WorkerPanicked(msg) => {
                write!(f, "worker thread panicked during the job: {msg}")
            }
            EngineError::Cancelled => {
                write!(f, "job cancelled before completion")
            }
            EngineError::InvalidEvidenceState {
                var,
                state,
                cardinality,
            } => {
                write!(
                    f,
                    "state {state} is out of range for variable {var} ({cardinality} states)"
                )
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Jtree(e) => Some(e),
            EngineError::Potential(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JtreeError> for EngineError {
    fn from(e: JtreeError) -> Self {
        EngineError::Jtree(e)
    }
}

impl From<PotentialError> for EngineError {
    fn from(e: PotentialError) -> Self {
        EngineError::Potential(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let errs: Vec<EngineError> = vec![
            EngineError::VariableNotInTree(VarId(1)),
            EngineError::ImpossibleEvidence,
            EngineError::EvidenceOverflow { mass: f64::NAN },
            EngineError::Jtree(JtreeError::BadCliqueId(3)),
            EngineError::Potential(PotentialError::UnknownVariable(VarId(0))),
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(errs[3].source().is_some());
        assert!(errs[0].source().is_none());
    }
}
