//! Routing-detour-imitating congestion estimation (paper §III-A).
//!
//! The estimator produces a 2-D congestion map from a (possibly heavily
//! overlapped) global-placement snapshot in three steps:
//!
//! 1. **Blockage-aware capacity** ([`capacity`]) — per-Gcell horizontal and
//!    vertical track counts from the metal stack, minus resources blocked by
//!    macros and a power-grid derate (Eq. (8));
//! 2. **Topology-based probabilistic demand** ([`demand`]) — each net is
//!    decomposed into two-point nets on its RSMT (via [`puffer_flute`]);
//!    I-shaped segments deposit a full track of demand along their Gcells,
//!    L-shaped segments spread an average demand over their bounding box,
//!    and a pin penalty captures local nets (§III-A.2);
//! 3. **Detour-imitating expansion** ([`detour`]) — demand of congested
//!    I-shaped segments is pushed to neighbouring rows/columns with slack,
//!    imitating either a routing detour (Steiner endpoints, which adds
//!    perpendicular connection demand) or future cell spreading (pin
//!    endpoints, which adds none) (§III-A.3).
//!
//! The result is a [`CongestionMap`] exposing the paper's overflow (Eq. (7))
//! and congestion (Eq. (9)–(11)) quantities. An estimate is one stateless
//! pass over the placement: nothing carries from one padding round to the
//! next but the capacity maps.
//!
//! # Example
//!
//! ```
//! use puffer_congest::{CongestionEstimator, EstimatorConfig};
//! use puffer_gen::{generate, GeneratorConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GeneratorConfig { num_cells: 500, num_nets: 600,
//!     ..GeneratorConfig::default() })?;
//! let est = CongestionEstimator::new(&design, EstimatorConfig::default());
//! let map = est.try_estimate(&design, &design.initial_placement())?;
//! assert!(map.total_demand() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod capacity;
pub mod demand;
pub mod detour;
pub mod map;

pub use capacity::{build_capacity, GCELL_ROWS, POWER_DERATE};
pub use demand::{try_build_demand, PIN_PENALTY};
pub use map::CongestionMap;

use puffer_budget::Budget;
/// Shared worker-thread defaults (hoisted to `puffer-budget` so the
/// estimator and the global router clamp identically).
pub use puffer_budget::{clamp_threads, default_threads};
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_db::grid::Grid;
use puffer_trace::Trace;

/// Errors from the fallible estimator entry points.
#[derive(Debug)]
pub enum CongestError {
    /// A demand worker thread panicked; the payload message is preserved
    /// instead of unwinding (and possibly aborting) through `join()`.
    WorkerPanic(String),
}

impl std::fmt::Display for CongestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CongestError::WorkerPanic(m) => write!(f, "demand worker panicked: {m}"),
        }
    }
}

impl std::error::Error for CongestError {}

/// Configuration of the congestion estimator.
///
/// The Gcell geometry is not configured here: it is [`GCELL_ROWS`] and
/// [`POWER_DERATE`] in [`capacity`], shared with the global router. Nor is
/// the local-net demand: that is [`PIN_PENALTY`] in [`demand`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Whether to run the detour-imitating expansion at all (ablation knob).
    pub expand_detours: bool,
    /// Upper bound on the worker threads of the per-net demand pass: the
    /// estimator runs it on one lane per `DEMAND_NETS_PER_LANE` nets, at
    /// most this many. The result is identical for any value.
    pub threads: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            expand_detours: true,
            threads: default_threads(),
        }
    }
}

/// The congestion estimator: capacity is computed once per design, demand is
/// recomputed per placement snapshot.
#[derive(Debug, Clone)]
pub struct CongestionEstimator {
    config: EstimatorConfig,
    /// Lanes of the demand pass, sized by the design's nets.
    lanes: usize,
    /// Gcell edge in row heights: [`GCELL_ROWS`], scaled by
    /// [`CongestionEstimator::coarsen`].
    edge_rows: f64,
    h_cap: Grid<f64>,
    v_cap: Grid<f64>,
    trace: Trace,
    budget: Budget,
}

impl CongestionEstimator {
    /// Builds the estimator (and its blockage-aware capacity maps) for a
    /// design.
    pub fn new(design: &Design, config: EstimatorConfig) -> Self {
        let (h_cap, v_cap) = capacity::build_capacity(design, GCELL_ROWS);
        let nets = design.netlist().num_nets();
        CongestionEstimator {
            lanes: puffer_par::lanes(config.threads, nets, demand::DEMAND_NETS_PER_LANE),
            config,
            edge_rows: GCELL_ROWS,
            h_cap,
            v_cap,
            trace: Trace::disabled(),
            budget: Budget::unbounded(),
        }
    }

    /// Attaches an execution budget. When it is exhausted the estimator
    /// skips the detour-imitating expansion — a cheaper, slightly less
    /// accurate estimate instead of blowing the deadline.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Coarsens the estimation grid by `factor` (e.g. `2.0` doubles the
    /// Gcell edge, quartering the cell count) and rebuilds the capacity
    /// maps. First rung of the graceful-degradation ladder: demand and
    /// expansion cost scale with the Gcell count, so a coarser grid trades
    /// map resolution for time.
    pub fn coarsen(&mut self, design: &Design, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "bad coarsen factor {factor}"
        );
        self.edge_rows *= factor;
        let (h_cap, v_cap) = capacity::build_capacity(design, self.edge_rows);
        self.h_cap = h_cap;
        self.v_cap = v_cap;
    }

    /// Attaches a telemetry handle: every estimate emits one
    /// `congest.round` record (overflow ratios plus 8-bucket congestion
    /// histograms).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The estimator configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Horizontal capacity map (tracks per Gcell).
    pub fn h_capacity(&self) -> &Grid<f64> {
        &self.h_cap
    }

    /// Vertical capacity map (tracks per Gcell).
    pub fn v_capacity(&self) -> &Grid<f64> {
        &self.v_cap
    }

    /// Estimates congestion for a placement snapshot: probabilistic demand,
    /// then (if enabled) detour-imitating expansion.
    ///
    /// # Errors
    ///
    /// [`CongestError::WorkerPanic`] when a demand worker thread panics
    /// (e.g. a placement shorter than the netlist).
    pub fn try_estimate(
        &self,
        design: &Design,
        placement: &Placement,
    ) -> Result<CongestionMap, CongestError> {
        let (h_dmd, v_dmd, segments) =
            demand::try_build_demand(design, placement, &self.h_cap, PIN_PENALTY, self.lanes)?;
        let mut map = CongestionMap::new(self.h_cap.clone(), self.v_cap.clone(), h_dmd, v_dmd);
        if self.config.expand_detours && !self.budget.is_exhausted() {
            detour::expand(&mut map, &segments);
        }
        if self.trace.is_enabled() {
            self.trace.add("congest.rounds", 1);
            self.trace
                .record("congest.round")
                .num("overflow_h", map.overflow_ratio_h())
                .num("overflow_v", map.overflow_ratio_v())
                .num("demand", map.total_demand())
                .num("capacity", map.h_capacity().sum() + map.v_capacity().sum())
                .int("congested", cast::idx_i64(map.congested_cells()))
                .nums("h_hist", &congestion_histogram(&map, true))
                .nums("v_hist", &congestion_histogram(&map, false))
                .write();
        }
        Ok(map)
    }

    /// [`CongestionEstimator::try_estimate`], kept for its one caller, the
    /// repo benchmark's frozen adapter (`benchmark/src/layers.rs`).
    ///
    /// # Errors
    ///
    /// As [`CongestionEstimator::try_estimate`].
    #[doc(hidden)]
    pub fn try_estimate_incremental(
        &self,
        design: &Design,
        placement: &Placement,
    ) -> Result<CongestionMap, CongestError> {
        self.try_estimate(design, placement)
    }
}

/// 8-bucket histogram of per-Gcell congestion (demand/capacity), bucket
/// width 0.25 with the last bucket catching everything ≥ 1.75. Computed
/// only when a trace is attached — it walks the whole grid.
fn congestion_histogram(map: &CongestionMap, horizontal: bool) -> Vec<f64> {
    let mut hist = vec![0.0; 8];
    for iy in 0..map.ny() {
        for ix in 0..map.nx() {
            let cg = if horizontal {
                map.cg_h(ix, iy)
            } else {
                map.cg_v(ix, iy)
            };
            let bucket = cast::trunc_idx(cg / 0.25).min(7);
            hist[bucket] += 1.0;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_gen::{generate, GeneratorConfig};

    fn tiny_design() -> puffer_db::design::Design {
        generate(&GeneratorConfig {
            num_cells: 400,
            num_nets: 450,
            num_macros: 2,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn estimator_produces_consistent_shapes() {
        let d = tiny_design();
        let est = CongestionEstimator::new(&d, EstimatorConfig::default());
        let map = est.try_estimate(&d, &d.initial_placement()).unwrap();
        assert_eq!(map.h_demand().nx(), est.h_capacity().nx());
        assert_eq!(map.v_demand().ny(), est.v_capacity().ny());
        assert!(map.total_demand() > 0.0);
    }

    /// Cells laid out in index order (so the generator's cluster locality
    /// becomes spatial locality, like a real placement), compressed into a
    /// central box covering `frac` of each region dimension.
    fn clustered_placement(d: &puffer_db::design::Design, frac: f64) -> Placement {
        let r = d.region();
        let c = r.center();
        let n = d.netlist().movable_cells().count();
        let cluster = 48usize;
        let tiles = n.div_ceil(cluster);
        let tiles_per_row = (tiles as f64).sqrt().ceil() as usize;
        let inner = (cluster as f64).sqrt().ceil() as usize;
        let mut p = d.initial_placement();
        for (i, id) in d.netlist().movable_cells().enumerate() {
            let t = i / cluster;
            let j = i % cluster;
            let (tx, ty) = (t % tiles_per_row, t / tiles_per_row);
            let (jx, jy) = (j % inner, j / inner);
            let fx = (tx as f64 + (jx as f64 + 0.5) / inner as f64) / tiles_per_row as f64 - 0.5;
            let fy = (ty as f64 + (jy as f64 + 0.5) / inner as f64) / tiles_per_row as f64 - 0.5;
            p.set(
                id,
                puffer_db::geom::Point::new(
                    c.x + fx * frac * r.width(),
                    c.y + fy * frac * r.height(),
                ),
            );
        }
        p
    }

    #[test]
    fn clustered_placement_is_more_congested_than_spread() {
        let d = tiny_design();
        let est = CongestionEstimator::new(&d, EstimatorConfig::default());
        let tight = est
            .try_estimate(&d, &clustered_placement(&d, 0.25))
            .unwrap();
        let loose = est
            .try_estimate(&d, &clustered_placement(&d, 0.95))
            .unwrap();
        assert!(
            tight.overflow_ratio_h() + tight.overflow_ratio_v()
                > loose.overflow_ratio_h() + loose.overflow_ratio_v(),
            "tight ({}, {}) should exceed loose ({}, {})",
            tight.overflow_ratio_h(),
            tight.overflow_ratio_v(),
            loose.overflow_ratio_h(),
            loose.overflow_ratio_v()
        );
    }

    #[test]
    fn traced_estimate_emits_round_records() {
        let d = tiny_design();
        let mut est = CongestionEstimator::new(&d, EstimatorConfig::default());
        let dir = std::env::temp_dir().join("puffer-congest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rounds.jsonl");
        let trace = Trace::with_sink(&path).unwrap();
        est.set_trace(trace.clone());
        est.try_estimate(&d, &d.initial_placement()).unwrap();
        est.try_estimate(&d, &d.initial_placement()).unwrap();
        trace.flush().unwrap();
        let records = puffer_trace::read_jsonl(&path).unwrap();
        let rounds: Vec<_> = records
            .iter()
            .filter(|r| r.kind() == Some("congest.round"))
            .collect();
        assert_eq!(rounds.len(), 2);
        let r = rounds[0];
        assert!(r.num("overflow_h").unwrap() >= 0.0);
        assert!(r.num("demand").unwrap() > 0.0);
        let Some(puffer_trace::Value::Arr(hist)) = r.get("h_hist") else {
            panic!("missing h_hist");
        };
        assert_eq!(hist.len(), 8);
        let total: f64 = hist.iter().map(|b| b.unwrap_or(0.0)).sum();
        assert_eq!(
            total as usize,
            est.h_capacity().nx() * est.h_capacity().ny()
        );
        assert_eq!(trace.counters(), vec![("congest.rounds".to_string(), 2)]);
    }

    /// The first rung of the degradation ladder: `coarsen` rebuilds the
    /// capacity maps — the only state an estimate reads besides its
    /// inputs — and the next estimate runs on the coarser grid.
    #[test]
    fn coarsen_shrinks_the_grid() {
        let d = tiny_design();
        let mut est = CongestionEstimator::new(&d, EstimatorConfig::default());
        let (nx, ny) = (est.h_capacity().nx(), est.h_capacity().ny());
        est.coarsen(&d, 2.0);
        assert!(
            est.h_capacity().nx() < nx,
            "{} < {nx}",
            est.h_capacity().nx()
        );
        assert!(
            est.h_capacity().ny() < ny,
            "{} < {ny}",
            est.h_capacity().ny()
        );
        // The Gcell edge doubled: 2 · GCELL_ROWS row heights.
        let edge = 2.0 * GCELL_ROWS * d.tech().row_height;
        let region = d.region();
        assert_eq!(
            est.h_capacity().nx(),
            (region.width() / edge).ceil() as usize
        );
        assert_eq!(
            est.h_capacity().ny(),
            (region.height() / edge).ceil() as usize
        );
        // The coarser estimator still produces a usable map.
        let map = est.try_estimate(&d, &d.initial_placement()).unwrap();
        assert!(map.total_demand() > 0.0);
    }

    #[test]
    fn exhausted_budget_skips_detour_expansion() {
        let d = tiny_design();
        let p = clustered_placement(&d, 0.2);
        let mut bounded = CongestionEstimator::new(&d, EstimatorConfig::default());
        let token = puffer_budget::CancelToken::new();
        token.cancel();
        bounded.set_budget(Budget::unbounded().with_token(token));
        let without = CongestionEstimator::new(
            &d,
            EstimatorConfig {
                expand_detours: false,
                ..EstimatorConfig::default()
            },
        );
        let a = bounded.try_estimate(&d, &p).unwrap();
        let b = without.try_estimate(&d, &p).unwrap();
        assert_eq!(a.h_demand().as_slice(), b.h_demand().as_slice());
        assert_eq!(a.v_demand().as_slice(), b.v_demand().as_slice());
    }

    #[test]
    fn expansion_toggle_changes_result() {
        let d = tiny_design();
        let with = CongestionEstimator::new(&d, EstimatorConfig::default());
        let without = CongestionEstimator::new(
            &d,
            EstimatorConfig {
                expand_detours: false,
                ..EstimatorConfig::default()
            },
        );
        let p = clustered_placement(&d, 0.2);
        let a = with.try_estimate(&d, &p).unwrap();
        let b = without.try_estimate(&d, &p).unwrap();
        // The clustered placement is congested, so expansion must have moved
        // something.
        assert!(
            a.h_demand().as_slice() != b.h_demand().as_slice()
                || a.v_demand().as_slice() != b.v_demand().as_slice()
        );
        // Expansion transfers demand, it must not manufacture horizontal
        // mass out of nothing (Steiner detours may add perpendicular mass).
        assert!(a.h_demand().sum() <= b.h_demand().sum() + b.v_demand().sum() + 1e-6);
    }
}
