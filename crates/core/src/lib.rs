//! # PUFFER — routability-driven placement via cell padding with multiple
//! # features and strategy exploration
//!
//! A from-scratch Rust reproduction of the DAC 2023 paper *"PUFFER: A
//! Routability-Driven Placement Framework via Cell Padding with Multiple
//! Features and Strategy Exploration"* (Cai et al.). Like the puffer fish,
//! cells in this framework adjust their sizes according to their status:
//! congested cells grow filler padding that makes the electrostatic global
//! placer spread them apart, and the padding follows them into
//! legalization.
//!
//! The framework is assembled from the workspace substrates:
//!
//! | Stage (paper Fig. 2) | Crate |
//! |---|---|
//! | Global placement engine (ePlace) | [`puffer_place`] |
//! | Congestion estimation (§III-A) | [`puffer_congest`] |
//! | Multi-feature cell padding (§III-B) | [`puffer_pad`] |
//! | Strategy exploration (§III-C) | [`puffer_explore`] |
//! | White-space-assisted legalization (§III-D) | [`puffer_legal`] |
//! | Routability evaluation (global router) | [`puffer_route`] |
//! | Benchmarks (Table I) | [`puffer_gen`] |
//!
//! This crate ties them together:
//!
//! * [`Job`] — the full PUFFER flow, the one way to run it;
//! * [`ReferencePlacer`] / [`ReplacePlacer`] — the two Table II baselines
//!   (commercial-style router-in-the-loop inflation, and RePlAce-style
//!   bulk inflation);
//! * [`evaluate_bounded`]/[`ComparisonTable`] — routing-based evaluation
//!   and the Table II report format;
//! * [`strategy_space`]/[`tuned_strategy`] — the glue between
//!   [`puffer_pad::PaddingStrategy`] and the Bayesian exploration.
//!
//! # Quickstart
//!
//! ```
//! use puffer::{evaluate_bounded, Job, PufferConfig};
//! use puffer_budget::Budget;
//! use puffer_gen::{generate, presets};
//! use puffer_route::RouterConfig;
//! use puffer_trace::Trace;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&presets::or1200(0.003)?)?; // tiny scale for docs
//! let mut config = PufferConfig::default();
//! config.placer.max_iters = 50;
//! let result = Job::new(config).run(&design)?;
//! let report = evaluate_bounded(
//!     &design,
//!     &result.placement,
//!     &RouterConfig::default(),
//!     &Budget::unbounded(),
//!     &Trace::disabled(),
//! )?;
//! println!("HOF {:.2}% VOF {:.2}% WL {:.0}", report.hof_pct, report.vof_pct,
//!          report.wirelength);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod checkpoint;
pub mod flow;
pub mod job;
pub mod report;
pub mod scale;

pub use baselines::{
    ReferenceConfig, ReferencePlacer, ReplaceConfig, ReplacePlacer, WsaConfig, WsaPlacer,
};
pub use checkpoint::{CheckpointPolicy, FlowCheckpoint, FlowStage, JournalError};
pub use flow::{FlowResult, PufferConfig, StageObserver, StagePoint, StageReport};
pub use job::Job;
pub use report::{ComparisonTable, EvalRow, FlowSummary};
pub use scale::ScaleClass;

use puffer_budget::Budget;
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_explore::{ParamSpec, Space};
use puffer_pad::PaddingStrategy;
use puffer_route::{GlobalRouter, RouteError, RouteReport, RouterConfig};
use puffer_trace::Trace;
use std::error::Error;
use std::fmt;

/// Errors produced by the placement flows.
#[derive(Debug)]
pub enum PufferError {
    /// Global placement could not run.
    Place(String),
    /// A congestion-analysis round (estimator or in-the-loop router) failed.
    Congest(String),
    /// Legalization failed.
    Legalize(String),
    /// A checkpoint journal could not be written or read.
    Journal(String),
    /// A loaded checkpoint could not be applied to the design.
    Resume(String),
    /// A `--validate` stage observer rejected an intermediate state.
    Validate(String),
}

impl fmt::Display for PufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PufferError::Place(m) => write!(f, "placement failed: {m}"),
            PufferError::Congest(m) => write!(f, "congestion analysis failed: {m}"),
            PufferError::Legalize(m) => write!(f, "legalization failed: {m}"),
            PufferError::Journal(m) => write!(f, "checkpoint journal failed: {m}"),
            PufferError::Resume(m) => write!(f, "resume failed: {m}"),
            PufferError::Validate(m) => write!(f, "validation failed: {m}"),
        }
    }
}

impl Error for PufferError {}

/// Routes a placement with the shared evaluator and returns the Table II
/// quantities. Routing runs inside a `route` span and emits one
/// `route.done` record; the router checks `budget` between rip-up rounds
/// and rerouted nets, so an expiring deadline stops refinement early and
/// the report describes the best routing so far.
///
/// # Errors
///
/// [`RouteError`] when the router refuses the input (a non-finite cell
/// position, a placement of the wrong size, a zero-capacity grid) or a
/// worker panics.
pub fn evaluate_bounded(
    design: &Design,
    placement: &Placement,
    config: &RouterConfig,
    budget: &Budget,
    trace: &Trace,
) -> Result<RouteReport, RouteError> {
    let report = {
        let _route = trace.span("route");
        let mut router = GlobalRouter::new(design, config.clone());
        router.set_budget(budget.clone());
        router.try_route(design, placement)?
    };
    trace
        .record("route.done")
        .num("hof_pct", report.hof_pct)
        .num("vof_pct", report.vof_pct)
        .num("wirelength", report.wirelength)
        .int("overflow_gcells", report.overflow_gcells as i64)
        .int("rounds", report.rounds as i64)
        .int("segments", cast::u64_i64(report.segments))
        .int("reroutes", cast::u64_i64(report.reroutes))
        .int("maze_pops", cast::u64_i64(report.maze_pops))
        .int("maze_pushes", cast::u64_i64(report.maze_pushes))
        .write();
    Ok(report)
}

/// The strategy-exploration space of §III-C as a [`puffer_explore::Space`]
/// (built from [`PaddingStrategy::parameter_space`]).
pub fn strategy_space() -> Space {
    Space::new(
        PaddingStrategy::parameter_space()
            .into_iter()
            .map(|r| ParamSpec::continuous(r.name, r.lo, r.hi))
            .collect(),
    )
}

/// Converts an assignment over [`strategy_space`] into a
/// [`PaddingStrategy`] (unknown/missing parameters keep their defaults).
pub fn tuned_strategy(space: &Space, values: &[f64]) -> PaddingStrategy {
    let mut s = PaddingStrategy::default();
    for (p, &v) in space.params().iter().zip(values) {
        s.apply(&p.name, v);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(PufferError::Place("x".into())
            .to_string()
            .contains("placement"));
        assert!(PufferError::Legalize("y".into())
            .to_string()
            .contains("legalization"));
    }

    #[test]
    fn strategy_space_round_trip() {
        let space = strategy_space();
        assert!(space.len() >= 10);
        let mid = space.midpoint();
        let s = tuned_strategy(&space, &mid);
        // Midpoint of alpha0's [0, 4] range.
        assert!((s.alpha[0] - 2.0).abs() < 1e-9);
        assert!(s.pu_low <= s.pu_high);
    }

    #[test]
    fn evaluate_runs_end_to_end() {
        use puffer_gen::{generate, GeneratorConfig};
        let d = generate(&GeneratorConfig {
            num_cells: 200,
            num_nets: 220,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let rep = evaluate_bounded(
            &d,
            &d.initial_placement(),
            &RouterConfig::default(),
            &Budget::unbounded(),
            &Trace::disabled(),
        )
        .unwrap();
        assert!(rep.wirelength >= 0.0);
    }
}
