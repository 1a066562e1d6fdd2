//! Typed staging errors.
//!
//! The panicking accessors on [`crate::engine::ReadStep`] delegate to
//! fallible `try_*` twins returning these, so fault-tolerant consumers
//! (a reader facing a truncated stream may legitimately see a step with
//! variables missing) can recover instead of unwinding.

use crate::variable::Dtype;
use std::fmt;

/// Errors surfaced by the staging engine's fallible accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StagingError {
    /// The requested variable does not exist in the step.
    MissingVariable {
        /// Variable name requested.
        name: String,
        /// Stream step index.
        step: u64,
    },
    /// The variable exists but holds a different element type.
    DtypeMismatch {
        /// Variable name requested.
        name: String,
        /// Dtype the caller asked for.
        expected: Dtype,
        /// Dtype actually published.
        found: Dtype,
    },
    /// A writer-side call arrived outside the step protocol (e.g. a
    /// `put` with no open step, or `end_step` without `begin_step`).
    Protocol {
        /// Which protocol rule was violated.
        what: &'static str,
    },
}

impl fmt::Display for StagingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StagingError::MissingVariable { name, step } => {
                write!(f, "no variable {name} in step {step}")
            }
            StagingError::DtypeMismatch {
                name,
                expected,
                found,
            } => {
                write!(f, "variable {name} is not {expected:?} (found {found:?})")
            }
            StagingError::Protocol { what } => {
                write!(f, "step protocol violation: {what}")
            }
        }
    }
}

impl std::error::Error for StagingError {}
