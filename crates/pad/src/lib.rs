//! Multi-feature-based cell padding (paper §III-B).
//!
//! This crate is PUFFER's routability optimizer: given a congestion map it
//! decides how much filler width to attach to each cell so the
//! electrostatic placer spreads congested logic apart.
//!
//! * [`features`] — local, CNN-inspired (surrounding), and GNN-inspired
//!   (pin-congestion) feature extraction (Eq. (9)–(13));
//! * [`padding`] — the padding formula (Eq. (14)), padding recycling
//!   (Eq. (15)), utilization control (Eq. (16)), Algorithm 1, and the
//!   trigger conditions (τ, η, ξ);
//! * [`strategy`] — every tunable strategy parameter plus the parameter
//!   space and grouping consumed by the Bayesian exploration (§III-C);
//! * [`RoutabilityOptimizer`] — the assembled Algorithm 1.
//!
//! # Example
//!
//! ```
//! use puffer_pad::{RoutabilityOptimizer, PaddingStrategy};
//! use puffer_congest::EstimatorConfig;
//! use puffer_gen::{generate, GeneratorConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GeneratorConfig {
//!     num_cells: 300, num_nets: 340, ..GeneratorConfig::default()
//! })?;
//! let mut opt = RoutabilityOptimizer::new(
//!     &design, EstimatorConfig::default(), PaddingStrategy::default());
//! let placement = design.initial_placement();
//! let round = opt.optimize(&design, &placement)?;
//! assert_eq!(opt.padding().len(), design.netlist().num_cells());
//! assert!(round.utilization <= round.target_utilization + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod features;
pub mod padding;
pub mod strategy;

pub use features::{extract_features, Feature, FeatureConfig, FeatureMatrix, NUM_FEATURES};
pub use padding::{
    padding_formula, padding_round, padding_vector, should_trigger, PaddingRound, PaddingState,
};
pub use strategy::{PaddingStrategy, ParamRange};

use puffer_congest::{CongestError, CongestionEstimator, EstimatorConfig};
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_trace::Trace;

/// PUFFER's routability optimizer: congestion estimation → feature
/// extraction → padding computation/recycling/scaling (Algorithm 1),
/// carrying the padding history across rounds.
#[derive(Debug, Clone)]
pub struct RoutabilityOptimizer {
    estimator: CongestionEstimator,
    feature_config: FeatureConfig,
    strategy: PaddingStrategy,
    state: PaddingState,
    available_area: f64,
    trace: Trace,
}

impl RoutabilityOptimizer {
    /// Builds the optimizer for a design.
    pub fn new(
        design: &Design,
        estimator_config: EstimatorConfig,
        strategy: PaddingStrategy,
    ) -> Self {
        let estimator = CongestionEstimator::new(design, estimator_config);
        // `A` of Algorithm 1: the available placement area (the macro-free
        // core). The utilization schedule pu_i of Eq. (16) is measured
        // against this, so pu_high ≈ the fraction of the core the padding
        // may claim.
        let available_area = design.free_area();
        RoutabilityOptimizer {
            estimator,
            feature_config: FeatureConfig::default(),
            strategy,
            state: PaddingState::new(design.netlist().num_cells()),
            available_area,
            trace: Trace::disabled(),
        }
    }

    /// Attaches a telemetry handle: every [`RoutabilityOptimizer::optimize`]
    /// round emits a `pad.round` record (utilization, padded/recycled cell
    /// counts, scale), and the handle is forwarded to the embedded
    /// congestion estimator for its per-round records.
    pub fn set_trace(&mut self, trace: Trace) {
        self.estimator.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Replaces the feature-extraction configuration (kernel radius, Z-bend
    /// sampling), returning `self` for chaining.
    pub fn with_feature_config(mut self, feature_config: FeatureConfig) -> Self {
        self.feature_config = feature_config;
        self
    }

    /// The padding history state.
    pub fn state(&self) -> &PaddingState {
        &self.state
    }

    /// Replaces the padding history, e.g. when resuming a checkpointed
    /// flow. The optimizer continues exactly as if it had produced the
    /// state itself (same rounds executed, same accumulated padding).
    ///
    /// # Errors
    ///
    /// A message naming the offending field (and cell index) when the
    /// state's vectors do not match the design's cell count, a padding is
    /// negative or non-finite, or the utilization is NaN — the state may
    /// come from a journal on disk. The optimizer is untouched.
    pub fn set_state(&mut self, state: PaddingState) -> Result<(), String> {
        let n = self.state.pad.len();
        if state.pad.len() != n || state.pad_count.len() != n {
            return Err(format!(
                "padding state has {}/{} entries, design has {n} cells",
                state.pad.len(),
                state.pad_count.len()
            ));
        }
        if let Some((i, p)) = state
            .pad
            .iter()
            .enumerate()
            .find(|(_, p)| !(p.is_finite() && **p >= 0.0))
        {
            return Err(format!(
                "cell {i}: optimizer padding {p:?} must be finite and non-negative"
            ));
        }
        if state.last_utilization.is_nan() {
            return Err("pad_util must not be NaN (infinity marks a fresh state)".into());
        }
        self.state = state;
        Ok(())
    }

    /// Current cumulative per-cell padding.
    pub fn padding(&self) -> &[f64] {
        &self.state.pad
    }

    /// Whether the optimizer should run this iteration (the three trigger
    /// conditions of §III-B.3).
    pub fn should_trigger(&self, density_overflow: f64) -> bool {
        padding::should_trigger(density_overflow, &self.state, &self.strategy)
    }

    /// Runs one full round of Algorithm 1 against a placement snapshot and
    /// returns its statistics; the new padding is available via
    /// [`RoutabilityOptimizer::padding`].
    ///
    /// # Errors
    ///
    /// [`CongestError`] when the congestion estimate fails (a demand worker
    /// panicked); the padding state is untouched.
    pub fn optimize(
        &mut self,
        design: &Design,
        placement: &Placement,
    ) -> Result<PaddingRound, CongestError> {
        let map = self.estimator.try_estimate(design, placement)?;
        let features = extract_features(design, placement, &map, &self.feature_config);
        let round = padding_round(
            design.netlist(),
            &features,
            &self.strategy,
            &mut self.state,
            self.available_area,
        );
        if self.trace.is_enabled() {
            self.trace
                .add("pad.recycled_cells", cast::idx_u64(round.recycled_cells));
            self.trace
                .record("pad.round")
                .int("round", cast::idx_i64(round.round))
                .num("utilization", round.utilization)
                .num("target_utilization", round.target_utilization)
                .int("padded_cells", cast::idx_i64(round.padded_cells))
                .int("recycled_cells", cast::idx_i64(round.recycled_cells))
                .num("scale", round.scale)
                .write();
        }
        Ok(round)
    }

    /// Coarsens the congestion-estimation grid by `factor` (see
    /// [`puffer_congest::CongestionEstimator::coarsen`]). Used by the
    /// graceful-degradation ladder when a deadline nears: later padding
    /// rounds trade map resolution for time.
    pub fn coarsen_estimator(&mut self, design: &Design, factor: f64) {
        self.estimator.coarsen(design, factor);
    }

    /// Forwards a cooperative budget to the embedded congestion estimator,
    /// so a long padding round skips its optional detour expansion once the
    /// flow deadline expires.
    pub fn set_budget(&mut self, budget: puffer_budget::Budget) {
        self.estimator.set_budget(budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Point;
    use puffer_gen::{generate, GeneratorConfig};

    fn design() -> Design {
        generate(&GeneratorConfig {
            num_cells: 400,
            num_nets: 450,
            num_macros: 1,
            hotspot: 0.8,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    fn clustered(d: &Design) -> Placement {
        let r = d.region();
        let c = r.center();
        let n = d.netlist().movable_cells().count();
        let cols = (n as f64).sqrt().ceil() as usize;
        let mut p = d.initial_placement();
        for (i, id) in d.netlist().movable_cells().enumerate() {
            p.set(
                id,
                Point::new(
                    c.x + (((i % cols) as f64 + 0.5) / cols as f64 - 0.5) * 0.3 * r.width(),
                    c.y + (((i / cols) as f64 + 0.5) / cols as f64 - 0.5) * 0.3 * r.height(),
                ),
            );
        }
        p
    }

    #[test]
    fn optimize_rounds_accumulate_and_respect_budget() {
        let d = design();
        let mut opt = RoutabilityOptimizer::new(
            &d,
            puffer_congest::EstimatorConfig::default(),
            PaddingStrategy::default(),
        );
        let p = clustered(&d);
        let r1 = opt.optimize(&d, &p).unwrap();
        assert!(r1.padded_cells > 0, "congested snapshot must pad something");
        assert!(r1.utilization <= r1.target_utilization + 1e-9);
        let r2 = opt.optimize(&d, &p).unwrap();
        assert_eq!(r2.round, 2);
        assert!(r2.target_utilization >= r1.target_utilization);
    }

    #[test]
    fn trigger_respects_round_cap() {
        let d = design();
        let mut opt = RoutabilityOptimizer::new(
            &d,
            puffer_congest::EstimatorConfig::default(),
            PaddingStrategy {
                max_rounds: 2,
                ..PaddingStrategy::default()
            },
        );
        let p = clustered(&d);
        assert!(opt.should_trigger(0.05));
        opt.optimize(&d, &p).unwrap();
        opt.optimize(&d, &p).unwrap();
        assert!(!opt.should_trigger(0.05), "round cap ξ reached");
    }

    #[test]
    fn state_roundtrip_continues_identically() {
        let d = design();
        let p = clustered(&d);
        let fresh = || {
            RoutabilityOptimizer::new(
                &d,
                puffer_congest::EstimatorConfig::default(),
                PaddingStrategy::default(),
            )
        };
        let mut reference = fresh();
        reference.optimize(&d, &p).unwrap();
        let saved = reference.state().clone();
        reference.optimize(&d, &p).unwrap();

        let mut resumed = fresh();
        resumed.set_state(saved).unwrap();
        resumed.optimize(&d, &p).unwrap();
        assert_eq!(reference.state(), resumed.state());
        assert_eq!(reference.padding(), resumed.padding());
    }

    #[test]
    #[should_panic(expected = "padding state has 3/3 entries")]
    fn set_state_rejects_wrong_cell_count() {
        let d = design();
        let mut opt = RoutabilityOptimizer::new(
            &d,
            puffer_congest::EstimatorConfig::default(),
            PaddingStrategy::default(),
        );
        opt.set_state(PaddingState::new(3)).unwrap();
    }

    #[test]
    fn set_state_names_the_scribbled_field() {
        let d = design();
        let n = d.netlist().num_cells();
        let mut opt = RoutabilityOptimizer::new(
            &d,
            puffer_congest::EstimatorConfig::default(),
            PaddingStrategy::default(),
        );
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut state = PaddingState::new(n);
            state.pad[2] = bad;
            let err = opt.set_state(state).unwrap_err();
            assert!(err.starts_with("cell 2: optimizer padding"), "{err}");
        }
        let mut state = PaddingState::new(n);
        state.last_utilization = f64::NAN;
        let err = opt.set_state(state).unwrap_err();
        assert!(err.contains("pad_util"), "{err}");
        assert_eq!(
            opt.state(),
            &PaddingState::new(n),
            "a rejected state changes nothing"
        );
    }

    #[test]
    fn padding_is_zero_for_macros() {
        let d = design();
        let mut opt = RoutabilityOptimizer::new(
            &d,
            puffer_congest::EstimatorConfig::default(),
            PaddingStrategy::default(),
        );
        opt.optimize(&d, &clustered(&d)).unwrap();
        for id in d.netlist().fixed_macros() {
            assert_eq!(opt.padding()[id.index()], 0.0);
        }
    }
}
