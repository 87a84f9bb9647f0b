//! Error type for Bayesian-network construction and queries.

use evprop_potential::{PotentialError, VarId};
use std::error::Error;
use std::fmt;

/// Errors produced while building or querying a Bayesian network.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BayesError {
    /// The directed graph contains a cycle (edges must form a DAG, §2).
    CyclicGraph,
    /// A CPT references a variable that was never declared.
    UnknownVariable(VarId),
    /// A variable was declared twice.
    DuplicateVariable(VarId),
    /// A variable is missing its CPT.
    MissingCpt(VarId),
    /// A variable was given more than one CPT.
    DuplicateCpt(VarId),
    /// A CPT row (one parent configuration) does not sum to 1.
    UnnormalizedCpt {
        /// The child variable.
        var: VarId,
        /// Flat index of the offending parent configuration.
        parent_config: usize,
        /// The row sum found.
        sum: f64,
    },
    /// A CPT entry is negative or not finite.
    BadCptEntry {
        /// The child variable.
        var: VarId,
        /// Flat index of the offending parent configuration.
        parent_config: usize,
        /// The entry found.
        value: f64,
    },
    /// A CPT was supplied with the wrong number of rows or columns.
    CptShapeMismatch {
        /// The child variable.
        var: VarId,
        /// Expected (rows, cols) = (parent configs, child states).
        expected: (usize, usize),
        /// Supplied (rows, cols).
        found: (usize, usize),
    },
    /// An underlying potential-table operation failed.
    Potential(PotentialError),
    /// A BIF file could not be parsed.
    Bif(crate::bif::BifParseError),
}

impl fmt::Display for BayesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesError::CyclicGraph => write!(f, "directed edges form a cycle; not a DAG"),
            BayesError::UnknownVariable(v) => write!(f, "variable {v} was never declared"),
            BayesError::DuplicateVariable(v) => write!(f, "variable {v} declared twice"),
            BayesError::MissingCpt(v) => write!(f, "variable {v} has no CPT"),
            BayesError::DuplicateCpt(v) => write!(f, "variable {v} given more than one CPT"),
            BayesError::UnnormalizedCpt {
                var,
                parent_config,
                sum,
            } => write!(
                f,
                "CPT of {var} does not normalize at parent configuration {parent_config} (sum {sum})"
            ),
            BayesError::BadCptEntry {
                var,
                parent_config,
                value,
            } => write!(
                f,
                "CPT of {var} has entry {value} at parent configuration {parent_config}; \
                 probabilities must be finite and >= 0"
            ),
            BayesError::CptShapeMismatch {
                var,
                expected,
                found,
            } => write!(
                f,
                "CPT of {var} has shape {found:?}, expected {expected:?} (parent configs, states)"
            ),
            BayesError::Potential(e) => write!(f, "potential-table error: {e}"),
            BayesError::Bif(e) => write!(f, "{e}"),
        }
    }
}

impl Error for BayesError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BayesError::Potential(e) => Some(e),
            BayesError::Bif(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PotentialError> for BayesError {
    fn from(e: PotentialError) -> Self {
        BayesError::Potential(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = vec![
            BayesError::CyclicGraph,
            BayesError::UnknownVariable(VarId(0)),
            BayesError::DuplicateVariable(VarId(0)),
            BayesError::MissingCpt(VarId(1)),
            BayesError::DuplicateCpt(VarId(1)),
            BayesError::UnnormalizedCpt {
                var: VarId(2),
                parent_config: 0,
                sum: 0.9,
            },
            BayesError::BadCptEntry {
                var: VarId(2),
                parent_config: 1,
                value: -0.5,
            },
            BayesError::CptShapeMismatch {
                var: VarId(2),
                expected: (2, 2),
                found: (1, 2),
            },
            BayesError::Potential(PotentialError::UnknownVariable(VarId(0))),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_for_potential() {
        let e = BayesError::from(PotentialError::UnknownVariable(VarId(3)));
        assert!(e.source().is_some());
    }
}
