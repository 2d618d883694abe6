//! Bayesian strategy exploration via SMBO with the tree-structured Parzen
//! estimator (paper §III-C, Algorithms 2–3).
//!
//! Placement is an evaluation-expensive, derivative-free black box; instead
//! of manual tuning, PUFFER searches its strategy space with sequential
//! model-based optimization (SMBO) using the TPE of Bergstra et al. This
//! crate implements the scheme generically so it works for "other black-box
//! problems with configurable strategy parameters", as the paper claims:
//!
//! * [`space`] — parameter spaces (continuous / integer / categorical);
//! * [`tpe`] — the TPE sampler: split observations at the γ quantile, model
//!   the good and bad sets with Parzen (kernel) density estimators, and
//!   suggest the candidate maximizing `l(x)/g(x)`;
//! * [`smbo`] — Algorithm 2 (parameter exploration with an early-stop
//!   counter and range updating) and Algorithm 3 (global exploration, then
//!   grouped local exploration — groups run in parallel threads).
//!
//! # Example
//!
//! ```
//! use puffer_budget::Budget;
//! use puffer_explore::{Domain, ParamSpec, Space, explore_params_bounded, ExplorationConfig};
//! use puffer_trace::Trace;
//! let space = Space::new(vec![
//!     ParamSpec::continuous("x", -5.0, 5.0),
//!     ParamSpec::continuous("y", -5.0, 5.0),
//! ]);
//! // Minimise a shifted bowl.
//! let outcome = explore_params_bounded(
//!     &space,
//!     |v| (v[0] - 1.0).powi(2) + (v[1] + 2.0).powi(2),
//!     &ExplorationConfig { max_evals: 120, ..ExplorationConfig::default() },
//!     &Trace::disabled(),
//!     &Budget::unbounded(),
//! ).unwrap();
//! assert!(outcome.best_value < 1.0);
//! # let _ = Domain::Continuous { lo: 0.0, hi: 1.0 };
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod smbo;
pub mod space;
pub mod tpe;

pub use error::ExploreError;
pub use smbo::{
    explore_params_bounded, explore_strategy_traced, ExplorationConfig, ExplorationOutcome,
    StrategyConfig, StrategyOutcome, TrialOutcome, CAPPED_TRIALS_REMAINING,
    MAX_CONSECUTIVE_FAILURES,
};
pub use space::{Domain, ParamSpec, Space};
pub use tpe::Tpe;
