//! White-space-assisted legalization (paper §III-D).
//!
//! PUFFER inherits the cell padding from global placement into
//! legalization so that the white space protecting congested regions
//! survives the snap to legal positions:
//!
//! * [`discrete`] — the staircase discretization of Eq. (17) and the 5%
//!   padding-area budget with smallest-first relegation;
//! * [`abacus`] — an Abacus-based legalizer operating on padded footprints
//!   over macro-aware row segments;
//! * [`check`] — an independent legality checker used by tests and flows.
//!
//! # Example
//!
//! ```
//! use puffer_legal::{legalize_bounded, check_legal};
//! use puffer_budget::Budget;
//! use puffer_gen::{generate, GeneratorConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GeneratorConfig {
//!     num_cells: 200, num_nets: 220, utilization: 0.5,
//!     ..GeneratorConfig::default()
//! })?;
//! let pad = vec![0u32; design.netlist().num_cells()];
//! let out =
//!     legalize_bounded(&design, &design.initial_placement(), &pad, &Budget::unbounded())?;
//! check_legal(&design, &out.placement, &pad)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod abacus;
pub mod check;
pub mod discrete;
pub mod segments;

pub use abacus::{legalize_bounded, LegalizeOutcome};
pub use check::check_legal;
pub use discrete::{discretize_padding, enforce_budget};
pub use segments::{row_segments, RowSegment};

use std::error::Error;
use std::fmt;

/// Errors produced by legalization.
#[derive(Debug)]
pub enum LegalizeError {
    /// Input vectors disagreed with the design.
    BadInput(String),
    /// Cells could not be fit into the available row segments.
    OutOfCapacity(String),
    /// A legality check failed (from [`check_legal`]).
    Illegal(String),
    /// The execution budget expired or was cancelled mid-legalization
    /// (from [`legalize_bounded`]). A partially legalized placement
    /// is never returned — callers keep the pre-legalization snapshot.
    Cancelled(puffer_budget::Cancelled),
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::BadInput(m) => write!(f, "bad legalization input: {m}"),
            LegalizeError::OutOfCapacity(m) => write!(f, "out of placement capacity: {m}"),
            LegalizeError::Illegal(m) => write!(f, "illegal placement: {m}"),
            LegalizeError::Cancelled(c) => write!(f, "legalization cancelled: {c}"),
        }
    }
}

impl Error for LegalizeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_budget::Budget;

    #[test]
    fn error_display_variants() {
        assert!(LegalizeError::BadInput("x".into())
            .to_string()
            .contains("bad"));
        assert!(LegalizeError::OutOfCapacity("y".into())
            .to_string()
            .contains("capacity"));
        assert!(LegalizeError::Illegal("z".into())
            .to_string()
            .contains("illegal"));
    }

    #[test]
    fn nan_coordinates_are_a_bad_input_error() {
        use puffer_db::geom::Point;
        use puffer_gen::{generate, GeneratorConfig};
        let d = generate(&GeneratorConfig {
            num_cells: 50,
            num_nets: 55,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let mut p = d.initial_placement();
        let victim = d.netlist().movable_cells().next().unwrap();
        p.set(victim, Point::new(f64::NAN, 1.0));
        let pad = vec![0u32; d.netlist().num_cells()];
        let err = legalize_bounded(&d, &p, &pad, &Budget::unbounded()).unwrap_err();
        assert!(matches!(err, LegalizeError::BadInput(_)), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn end_to_end_with_generated_design_and_padding() {
        use puffer_gen::{generate, GeneratorConfig};
        let d = generate(&GeneratorConfig {
            num_cells: 500,
            num_nets: 550,
            num_macros: 2,
            utilization: 0.6,
            ..GeneratorConfig::default()
        })
        .unwrap();
        // Continuous padding on a slice of cells, as the optimizer would
        // produce.
        let n = d.netlist().num_cells();
        let continuous: Vec<f64> = (0..n).map(|i| if i % 7 == 0 { 0.4 } else { 0.0 }).collect();
        let mut discrete = discretize_padding(&continuous, 4.0);
        enforce_budget(
            d.netlist(),
            &continuous,
            &mut discrete,
            d.tech().site_width,
            0.05,
        );
        let out =
            legalize_bounded(&d, &d.initial_placement(), &discrete, &Budget::unbounded()).unwrap();
        check_legal(&d, &out.placement, &discrete).unwrap();
        assert!(out.max_displacement.is_finite());
    }
}
