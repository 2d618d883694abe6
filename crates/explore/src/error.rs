//! Typed errors for the exploration crate.

use std::fmt;

/// Why an exploration run failed outright (individual trial failures are
/// tolerated and recorded; see `TrialOutcome`).
#[derive(Debug)]
pub enum ExploreError {
    /// The objective failed (panicked or returned a non-finite value) on
    /// every attempt, so there is nothing to model or return.
    AllTrialsFailed {
        /// Trials attempted before giving up.
        attempted: usize,
        /// Message of the most recent failure.
        last_failure: String,
    },
    /// A group-exploration thread died outside the panic-isolated
    /// objective — a bug in the exploration driver itself.
    GroupPanicked(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::AllTrialsFailed {
                attempted,
                last_failure,
            } => write!(
                f,
                "all {attempted} exploration trials failed (last: {last_failure})"
            ),
            ExploreError::GroupPanicked(m) => {
                write!(f, "group exploration thread panicked: {m}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}
