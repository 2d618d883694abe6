//! Invariant verification for the PUFFER placement flow.
//!
//! The placement flow's quality claims only hold when the substrate is
//! silently correct: a NaN that leaks out of a Nesterov step, a net with a
//! dangling pin from the generator, or a congestion map whose demand no
//! longer matches its histogram all corrupt results without failing any
//! test. [`validate`] makes such defects loud: the [`Validate`] trait plus
//! deep invariant checkers for designs/netlists, placements, congestion
//! maps, padding state, checkpoint journals, and metrics JSONL files,
//! including cross-file consistency between a journal and the telemetry of
//! the run that wrote it. Exposed as `puffer audit <design|journal|run>`,
//! `puffer trace` and as the `--validate` flow hook via [`flow_validator`].
//!
//! The workspace's own source policy is not a library concern: its
//! structural rules (crate layering, `#![forbid(unsafe_code)]` in every
//! crate root) are the test `tests/lint_fixtures.rs`, and the rest is
//! `clippy.toml` plus `scripts/policy.sh`.

#![forbid(unsafe_code)]

pub mod validate;

pub use validate::{
    audit_metrics, audit_metrics_records, audit_run, flow_validator, MetricsSummary, PadAudit,
    PlacementAudit, PlacementStage,
};

use std::fmt;

/// One violated invariant: which check tripped and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short stable name of the check (e.g. `finite-coords`).
    pub check: &'static str,
    /// What was wrong, with enough context to locate the defect.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.message)
    }
}

/// The result of a failed [`Validate::validate`] call: the audited subject
/// plus every violated invariant (checkers never stop at the first hit).
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// What was audited (e.g. `design 'or1200'`).
    pub subject: String,
    /// All violations found, in check order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} invariant violation(s)",
            self.subject,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditReport {}

/// Deep invariant verification. Implementors walk their whole structure
/// and report *every* violation, each with a precise message, instead of
/// bailing at the first defect.
pub trait Validate {
    /// Short label naming the audited subject, used in reports.
    fn subject(&self) -> String;

    /// Appends every invariant violation to `out`.
    fn check_into(&self, out: &mut Vec<Violation>);

    /// Runs all checks; `Err` carries the full report.
    ///
    /// # Errors
    ///
    /// [`AuditReport`] listing each violated invariant.
    fn validate(&self) -> Result<(), AuditReport> {
        let mut violations = Vec::new();
        self.check_into(&mut violations);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(AuditReport {
                subject: self.subject(),
                violations,
            })
        }
    }
}
