//! ePlace-style electrostatic global placement engine (paper §II-B).
//!
//! This crate is the "basic placement engine" underneath PUFFER: it solves
//! the unconstrained problem `min W(x,y) + λ·D(x,y)` (Eq. (1)) with
//!
//! * [`wirelength`] — the weighted-average (WA) wirelength model and its
//!   analytic gradient (Eq. (2));
//! * [`density`] — the electrostatic density system solved by DCT/DST
//!   spectral methods on top of [`puffer_fft`] (Eq. (3)–(6));
//! * [`nesterov`] — Nesterov's accelerated gradient method with a
//!   backtracked Lipschitz step size;
//! * [`quadratic`] — the other engine family of §I: a bound-to-bound
//!   quadratic model solved by preconditioned conjugate gradients (a
//!   standalone kernel: [`GlobalPlacer::with_placement`] takes its output);
//! * [`engine`] — the [`GlobalPlacer`] main loop, with per-cell *effective
//!   widths* so a routability optimizer can pad cells between iterations.
//!
//! See [`GlobalPlacer`] for a runnable example.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod density;
pub mod engine;
pub mod nesterov;
pub mod quadratic;
pub mod sentinel;
pub mod wirelength;

pub use density::{DensityEval, DensityModel, DensityWorkspace};
pub use engine::{GlobalPlacer, GpLanes, IterationStats, PlacerConfig, PlacerSnapshot};
pub use nesterov::{NesterovOptimizer, NesterovState};
pub use quadratic::{quadratic_placement, QuadraticConfig};
pub use sentinel::{Divergence, DivergenceSentinel};
pub use wirelength::{wa_wirelength_grad_threaded, WaCounts, WaWorkspace, WirelengthGrad};

use std::error::Error;
use std::fmt;

/// Errors produced by the placement engine.
#[derive(Debug)]
pub enum PlaceError {
    /// The design has no movable cells to place.
    NoMovableCells,
    /// A fixed macro has no location.
    UnplacedMacro(String),
    /// A snapshot's shapes or values do not match the design being placed.
    BadSnapshot(String),
    /// A [`PlacerConfig`] value the placer cannot run with.
    BadConfig(String),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NoMovableCells => write!(f, "design has no movable cells"),
            PlaceError::UnplacedMacro(msg) => write!(f, "unplaced macro: {msg}"),
            PlaceError::BadSnapshot(msg) => write!(f, "bad placer snapshot: {msg}"),
            PlaceError::BadConfig(msg) => write!(f, "bad placer configuration: {msg}"),
        }
    }
}

impl Error for PlaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(PlaceError::NoMovableCells
            .to_string()
            .contains("no movable"));
        assert!(PlaceError::UnplacedMacro("m1".into())
            .to_string()
            .contains("m1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<PlaceError>();
    }
}
