//! Error type for potential-table operations.

use crate::VarId;
use std::error::Error;
use std::fmt;

/// Errors produced by potential-table construction and primitives.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PotentialError {
    /// A domain was constructed with the same variable appearing twice.
    DuplicateVariable(VarId),
    /// Two occurrences of a variable disagree on cardinality.
    CardinalityMismatch {
        /// The offending variable.
        var: VarId,
        /// Cardinality seen first.
        expected: usize,
        /// Conflicting cardinality.
        found: usize,
    },
    /// Table data length does not match the domain size.
    DataSizeMismatch {
        /// Entries implied by the domain (product of cardinalities).
        expected: usize,
        /// Entries supplied.
        found: usize,
    },
    /// An operation required one domain to be a subset of another.
    NotSubdomain {
        /// A variable present in the would-be subdomain but missing from
        /// the superdomain.
        missing: VarId,
    },
    /// A variable referenced by an operation is not in the table's domain.
    UnknownVariable(VarId),
    /// A state index was out of range for its variable.
    StateOutOfRange {
        /// The variable whose state was addressed.
        var: VarId,
        /// The offending state index.
        state: usize,
        /// The variable's cardinality.
        cardinality: usize,
    },
    /// An operation required two tables over the *same* domain.
    DomainMismatch,
    /// An entry range was out of bounds or ill-formed.
    BadRange {
        /// Range start.
        start: usize,
        /// Range end (exclusive).
        end: usize,
        /// Table length.
        len: usize,
    },
    /// A kernel plan stores its target indices and partial-block
    /// lengths as `u32`, so the table it scans (and so its target) must
    /// have fewer than `u32::MAX` entries.
    PlanTargetTooLarge {
        /// Entries of the scanned table.
        len: usize,
    },
}

impl fmt::Display for PotentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PotentialError::DuplicateVariable(v) => {
                write!(f, "variable {v} appears more than once in domain")
            }
            PotentialError::CardinalityMismatch {
                var,
                expected,
                found,
            } => write!(
                f,
                "variable {var} has conflicting cardinalities {expected} and {found}"
            ),
            PotentialError::DataSizeMismatch { expected, found } => write!(
                f,
                "table data has {found} entries but domain implies {expected}"
            ),
            PotentialError::NotSubdomain { missing } => write!(
                f,
                "domain is not a subdomain: variable {missing} missing from superdomain"
            ),
            PotentialError::UnknownVariable(v) => {
                write!(f, "variable {v} is not in the table's domain")
            }
            PotentialError::StateOutOfRange {
                var,
                state,
                cardinality,
            } => write!(
                f,
                "state {state} out of range for variable {var} with {cardinality} states"
            ),
            PotentialError::DomainMismatch => {
                write!(f, "operation requires both tables to share one domain")
            }
            PotentialError::BadRange { start, end, len } => {
                write!(
                    f,
                    "entry range {start}..{end} invalid for table of length {len}"
                )
            }
            PotentialError::PlanTargetTooLarge { len } => write!(
                f,
                "a kernel plan scans fewer than {} entries, not {len}",
                u32::MAX
            ),
        }
    }
}

impl Error for PotentialError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let samples: Vec<PotentialError> = vec![
            PotentialError::DuplicateVariable(VarId(1)),
            PotentialError::CardinalityMismatch {
                var: VarId(1),
                expected: 2,
                found: 3,
            },
            PotentialError::DataSizeMismatch {
                expected: 4,
                found: 5,
            },
            PotentialError::NotSubdomain { missing: VarId(2) },
            PotentialError::UnknownVariable(VarId(9)),
            PotentialError::DomainMismatch,
            PotentialError::StateOutOfRange {
                var: VarId(0),
                state: 7,
                cardinality: 2,
            },
            PotentialError::BadRange {
                start: 3,
                end: 1,
                len: 8,
            },
            PotentialError::PlanTargetTooLarge { len: 1 << 33 },
        ];
        for e in samples {
            assert!(!format!("{e}").is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_err(PotentialError::UnknownVariable(VarId(0)));
    }
}
