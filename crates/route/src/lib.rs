//! Global router and routability evaluator for PUFFER.
//!
//! The paper evaluates every placement with the Innovus global router; that
//! tool is proprietary, so this crate provides the substitute: a
//! from-scratch Gcell-grid global router with
//!
//! * blockage-aware capacity (shared with [`puffer_congest`], Eq. (8));
//! * FLUTE-style RSMT decomposition of every net into two-point nets
//!   ([`puffer_flute`]) — the estimator's own quantize-first decomposition,
//!   [`puffer_congest::demand::decompose_net`];
//! * pattern routing (best of L/Z candidates) for the initial solution;
//! * PathFinder-style negotiated-congestion rip-up-and-reroute with A*
//!   maze routing for overflowed segments ([`path::MazeScratch::route`]:
//!   one search state per `try_route` call, so a reroute costs what it
//!   explores);
//! * a [`RouteReport`] with the Table II quantities — HOF(%), VOF(%),
//!   routed wirelength — plus Fig. 5-style congestion maps;
//! * [`GlobalRouter::try_route`], which rejects hostile inputs (NaN
//!   coordinates, zero-capacity grids, a placement of another design)
//!   with a typed [`RouteError`] instead of routing garbage.
//!
//! All three placement flows in the reproduction are judged by this same
//! router, mirroring the paper's use of one common evaluator.
//!
//! # Example
//!
//! ```
//! use puffer_route::{GlobalRouter, RouterConfig};
//! use puffer_gen::{generate, GeneratorConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GeneratorConfig {
//!     num_cells: 300, num_nets: 330, ..GeneratorConfig::default()
//! })?;
//! let router = GlobalRouter::new(&design, RouterConfig::default());
//! let report = router.try_route(&design, &design.initial_placement())?;
//! assert!(report.wirelength >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod grid;
pub mod layers;
pub mod path;

pub use grid::{Dir, RoutingGrid};
pub use layers::{assign_layers, LayerAssignment, LayerReport};

use puffer_db::cast;
use puffer_budget::Budget;
/// Shared worker-thread defaults (hoisted to `puffer-budget` so the router
/// and the congestion estimator clamp identically).
pub use puffer_budget::{clamp_threads, default_threads};
use puffer_congest::demand::decompose_net;
use puffer_congest::{build_capacity, CongestionMap, GCELL_ROWS};
use puffer_db::design::{Design, Placement};

/// Errors produced by [`GlobalRouter::try_route`]: hostile inputs the
/// router refuses to route rather than producing garbage.
#[derive(Debug)]
pub enum RouteError {
    /// A cell position is NaN or infinite, so Gcell binning is undefined.
    NonFinitePlacement {
        /// Name of the first offending cell.
        cell: String,
    },
    /// The routing grid has no capacity in one direction (e.g. a
    /// technology with no routing layer in it): overflow ratios are
    /// meaningless.
    ZeroCapacity(String),
    /// The placement's coordinate vectors do not match the design.
    BadInput(String),
    /// A worker thread panicked; the payload message is preserved. The
    /// panic is contained here instead of unwinding through `join()` —
    /// re-raising inside `thread::scope` aborts the whole process when a
    /// second worker panics during the unwind.
    WorkerPanic(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NonFinitePlacement { cell } => {
                write!(f, "cell '{cell}' has a non-finite position")
            }
            RouteError::ZeroCapacity(m) => write!(f, "routing grid has no capacity: {m}"),
            RouteError::BadInput(m) => write!(f, "bad routing input: {m}"),
            RouteError::WorkerPanic(m) => write!(f, "router worker panicked: {m}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Z-pattern bend samples per direction for pattern routing.
const MAX_BENDS: usize = 6;

/// Nets one lane of [`decompose`] must have to pay for its spawn: the
/// router gives the decomposition one lane per this many nets.
/// `examples/lane_calibration.rs` (EXPERIMENTS.md, "Lane calibration")
/// measured two lanes winning 25–42 % from 4.3 K nets up but 6–13 % at
/// 1.3 K; the second lane starts between the two, at 2.4 K.
const DECOMPOSE_NETS_PER_LANE: usize = 1_200;

/// The two end Gcells `(x, y)` of one two-point segment.
pub type Segment = ((usize, usize), (usize, usize));

/// Router configuration.
///
/// The router's Gcells are the estimator's: [`GCELL_ROWS`] and
/// [`puffer_congest::POWER_DERATE`] in [`puffer_congest::capacity`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Maximum rip-up-and-reroute rounds after the initial pattern pass.
    pub max_rounds: usize,
    /// Upper bound on the worker threads of topology construction: the
    /// router decomposes on one lane per `DECOMPOSE_NETS_PER_LANE` nets,
    /// at most this many. The report is the same for every value.
    pub threads: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_rounds: 12,
            threads: default_threads(),
        }
    }
}

/// The routing result: the quantities of the paper's Table II.
#[derive(Debug, Clone)]
pub struct RouteReport {
    /// Horizontal overflow ratio in percent (Table II "HOF(%)").
    pub hof_pct: f64,
    /// Vertical overflow ratio in percent (Table II "VOF(%)").
    pub vof_pct: f64,
    /// Routed wirelength in database units (Table II "WL").
    pub wirelength: f64,
    /// Number of Gcells still overused after the final round.
    pub overflow_gcells: usize,
    /// Rip-up rounds actually executed.
    pub rounds: usize,
    /// Final usage/capacity maps (for Fig. 5 congestion maps).
    pub congestion: CongestionMap,
    /// The final 2-D path of every routed two-point net (input to
    /// [`assign_layers`]).
    pub paths: Vec<path::Path>,
    /// Two-point segments routed (`paths.len()`).
    pub segments: u64,
    /// Maze searches run by rip-up-and-reroute, over all rounds.
    pub reroutes: u64,
    /// Reroutes whose maze result is the very path they ripped up
    /// (`reroutes_kept <= reroutes`).
    pub reroutes_kept: u64,
    /// Heap pops over all maze searches (stale entries included).
    pub maze_pops: u64,
    /// Heap pushes over all maze searches, each search's source push
    /// included — so `maze_pops <= maze_pushes`.
    pub maze_pushes: u64,
}

impl RouteReport {
    /// The paper's pass criterion: both overflow ratios below 1%.
    pub fn passes(&self) -> bool {
        self.hof_pct < 1.0 && self.vof_pct < 1.0
    }
}

/// The global router. Capacity is computed once per design.
#[derive(Debug, Clone)]
pub struct GlobalRouter {
    config: RouterConfig,
    /// Lanes of the net decomposition, sized by the design's nets.
    lanes: usize,
    base: RoutingGrid,
    budget: Budget,
}

impl GlobalRouter {
    /// Builds the router (and its capacity maps) for a design.
    pub fn new(design: &Design, config: RouterConfig) -> Self {
        let (h_cap, v_cap) = build_capacity(design, GCELL_ROWS);
        let nets = design.netlist().num_nets();
        GlobalRouter {
            lanes: puffer_par::lanes(config.threads, nets, DECOMPOSE_NETS_PER_LANE),
            config,
            base: RoutingGrid::new(h_cap, v_cap),
            budget: Budget::unbounded(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Attaches an execution budget. Rip-up-and-reroute checks it between
    /// rounds (and every few hundred nets within a round): an expired
    /// deadline or an external cancel stops refinement and reports the
    /// best-so-far routing — the initial pattern pass always completes, so
    /// the report is well-formed either way.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Routes a placement and reports HOF/VOF/WL.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadInput`] when the placement's size disagrees with
    /// the design, [`RouteError::NonFinitePlacement`] when any cell position is
    /// NaN/infinite, and [`RouteError::ZeroCapacity`] when a direction's
    /// total routing capacity is not a positive number.
    pub fn try_route(
        &self,
        design: &Design,
        placement: &Placement,
    ) -> Result<RouteReport, RouteError> {
        let netlist_check = design.netlist();
        if placement.len() != netlist_check.num_cells() {
            return Err(RouteError::BadInput(format!(
                "placement has {} cells, design has {}",
                placement.len(),
                netlist_check.num_cells()
            )));
        }
        for (id, _) in netlist_check.iter_cells() {
            let p = placement.pos(id);
            if !p.x.is_finite() || !p.y.is_finite() {
                return Err(RouteError::NonFinitePlacement {
                    cell: netlist_check.cell(id).name.clone(),
                });
            }
        }
        for (d, name) in [(Dir::H, "horizontal"), (Dir::V, "vertical")] {
            let total = self.base.total_capacity(d);
            if !(total.is_finite() && total > 0.0) {
                return Err(RouteError::ZeroCapacity(name.into()));
            }
        }

        let mut grid = self.base.clone();
        let netlist = design.netlist();

        let mut endpoints = decompose(netlist, placement, self.base.cap_of(Dir::H), self.lanes)?;
        // Short segments first: they have the least routing freedom.
        endpoints.sort_by_key(|&(a, b)| (a.0.abs_diff(b.0) + a.1.abs_diff(b.1), a, b));

        // --- initial pattern pass ----------------------------------------
        let mut paths: Vec<path::Path> = Vec::with_capacity(endpoints.len());
        for &(a, b) in &endpoints {
            let p = path::pattern_route(&grid, a, b, MAX_BENDS);
            path::apply_path(&mut grid, &p, 1.0);
            paths.push(p);
        }

        // --- negotiated rip-up-and-reroute --------------------------------
        // Cancellation points: between rounds and every 256 maze routes
        // within a round. Stopping mid-round is safe — each reroute leaves
        // the grid and `paths` mutually consistent — so the report below is
        // simply the best routing found so far.
        let mut rounds = 0;
        let mut kept = 0u64;
        let mut scratch = path::MazeScratch::new();
        'ripup: for _ in 0..self.config.max_rounds {
            if grid.overflow_gcells() == 0 || self.budget.is_exhausted() {
                break;
            }
            rounds += 1;
            grid.update_history();
            let mut rerouted = 0usize;
            for i in 0..paths.len() {
                if !path::path_overflows(&grid, &paths[i]) {
                    continue;
                }
                let (a, b) = endpoints[i];
                path::apply_path(&mut grid, &paths[i], -1.0);
                let p = scratch.route(&grid, a, b);
                path::apply_path(&mut grid, &p, 1.0);
                kept += u64::from(p == paths[i]);
                paths[i] = p;
                rerouted += 1;
                if rerouted.is_multiple_of(256) && self.budget.is_exhausted() {
                    break 'ripup;
                }
            }
            if rerouted == 0 {
                break;
            }
        }

        // --- report -------------------------------------------------------
        let (hof, vof) = grid.overflow_ratios();
        let mut wirelength = 0.0;
        for p in &paths {
            for w in p.windows(2) {
                wirelength += if w[0].1 == w[1].1 {
                    grid.dx()
                } else {
                    grid.dy()
                };
            }
        }
        Ok(RouteReport {
            hof_pct: hof * 100.0,
            vof_pct: vof * 100.0,
            wirelength,
            overflow_gcells: grid.overflow_gcells(),
            rounds,
            congestion: grid.to_congestion_map(),
            segments: cast::idx_u64(paths.len()),
            paths,
            reroutes: scratch.searches(),
            reroutes_kept: kept,
            maze_pops: scratch.pops(),
            maze_pushes: scratch.pushes(),
        })
    }
}

/// Decomposes every net of `netlist` into the two-point segments the
/// router routes, on exactly `lanes` workers (clamped to `1..=32`): the
/// estimator's quantize-first RSMT decomposition
/// ([`puffer_congest::demand::decompose_net`]) on the Gcells of `gcells`,
/// minus the segments that stay inside one Gcell, in net order.
///
/// Chunking, lane clamping and panic draining go through `puffer-par`:
/// fixed net-index chunks, one segment list per chunk, concatenated in
/// chunk order — the same list for every lane count.
///
/// # Errors
///
/// [`RouteError::WorkerPanic`] with the first worker's panic message.
pub fn decompose(
    netlist: &puffer_db::netlist::Netlist,
    placement: &Placement,
    gcells: &puffer_db::grid::Grid<f64>,
    lanes: usize,
) -> Result<Vec<Segment>, RouteError> {
    let net_ids: Vec<_> = netlist.iter_nets().map(|(id, _)| id).collect();
    let parts = puffer_par::try_map_chunks(net_ids.len(), lanes, |range| {
        let mut segs = Vec::new();
        for i in range {
            decompose_net(netlist, placement, gcells, net_ids[i], &mut segs);
        }
        segs.iter()
            .map(|s| ((s.ax, s.ay), (s.bx, s.by)))
            .filter(|(a, b)| a != b)
            .collect::<Vec<Segment>>()
    })
    .map_err(|e| RouteError::WorkerPanic(e.0))?;
    Ok(parts.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Point;
    use puffer_gen::{generate, GeneratorConfig};

    fn design(hotspot: f64) -> Design {
        generate(&GeneratorConfig {
            num_cells: 400,
            num_nets: 440,
            num_macros: 1,
            hotspot,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    fn spread_placement(d: &Design, frac: f64) -> Placement {
        let r = d.region();
        let c = r.center();
        let n = d.netlist().movable_cells().count();
        let cluster = 48usize;
        let tiles = n.div_ceil(cluster);
        let tpr = (tiles as f64).sqrt().ceil() as usize;
        let inner = (cluster as f64).sqrt().ceil() as usize;
        let mut p = d.initial_placement();
        for (i, id) in d.netlist().movable_cells().enumerate() {
            let t = i / cluster;
            let j = i % cluster;
            let fx =
                ((t % tpr) as f64 + ((j % inner) as f64 + 0.5) / inner as f64) / tpr as f64 - 0.5;
            let fy =
                ((t / tpr) as f64 + ((j / inner) as f64 + 0.5) / inner as f64) / tpr as f64 - 0.5;
            p.set(
                id,
                Point::new(c.x + fx * frac * r.width(), c.y + fy * frac * r.height()),
            );
        }
        p
    }

    #[test]
    fn router_reports_finite_metrics() {
        let d = design(0.2);
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let rep = router.try_route(&d, &spread_placement(&d, 0.9)).unwrap();
        assert!(rep.hof_pct >= 0.0 && rep.hof_pct.is_finite());
        assert!(rep.vof_pct >= 0.0 && rep.vof_pct.is_finite());
        assert!(rep.wirelength > 0.0);
    }

    #[test]
    fn clustered_placements_route_worse() {
        let d = design(0.5);
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let tight = router.try_route(&d, &spread_placement(&d, 0.25)).unwrap();
        let loose = router.try_route(&d, &spread_placement(&d, 0.9)).unwrap();
        assert!(
            tight.hof_pct + tight.vof_pct > loose.hof_pct + loose.vof_pct,
            "tight ({}, {}) vs loose ({}, {})",
            tight.hof_pct,
            tight.vof_pct,
            loose.hof_pct,
            loose.vof_pct
        );
    }

    #[test]
    fn rip_up_reduces_overflow() {
        let d = design(0.6);
        let no_riprup = GlobalRouter::new(
            &d,
            RouterConfig {
                max_rounds: 0,
                ..RouterConfig::default()
            },
        );
        let with = GlobalRouter::new(&d, RouterConfig::default());
        let p = spread_placement(&d, 0.5);
        let before = no_riprup.try_route(&d, &p).unwrap();
        let after = with.try_route(&d, &p).unwrap();
        assert!(
            after.overflow_gcells <= before.overflow_gcells,
            "rip-up should not increase overflow ({} -> {})",
            before.overflow_gcells,
            after.overflow_gcells
        );
    }

    #[test]
    fn same_gcell_nets_route_to_zero_wirelength() {
        // Pins are quantized to Gcells before the RSMT is built, so a net
        // whose pins all land in one Gcell must decompose to nothing: no
        // segments, no routed wirelength, no demand. Before the
        // quantize-first change, Steiner medians of the continuous pin
        // coordinates could straddle a Gcell edge and emit phantom
        // cross-Gcell segments for such nets.
        let d = design(0.2);
        let r = d.region();
        let router = GlobalRouter::new(&d, RouterConfig::default());
        // Collapse every movable cell to one point well inside a Gcell.
        let target = Point::new(
            r.xl + 0.37 * r.width(),
            r.yl + 0.41 * r.height(),
        );
        let mut p = d.initial_placement();
        for id in d.netlist().movable_cells() {
            p.set(id, target);
        }
        let rep = router.try_route(&d, &p).unwrap();
        // Fixed macros still exist, so only assert the collapsed point adds
        // nothing: every routed path endpoint pair must differ (zero-length
        // two-point nets are filtered at decomposition time).
        for path in &rep.paths {
            assert!(
                path.len() > 1 && path.first() != path.last(),
                "degenerate same-Gcell segment leaked into routing"
            );
        }
        assert!(rep.wirelength.is_finite());
    }

    #[test]
    fn routing_is_deterministic() {
        let d = design(0.3);
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let p = spread_placement(&d, 0.6);
        let a = router.try_route(&d, &p).unwrap();
        let b = router.try_route(&d, &p).unwrap();
        assert_eq!(a.wirelength, b.wirelength);
        assert_eq!(a.hof_pct, b.hof_pct);
        assert_eq!(a.overflow_gcells, b.overflow_gcells);
    }

    #[test]
    fn layer_assignment_consumes_route_paths() {
        let d = design(0.2);
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let rep = router.try_route(&d, &spread_placement(&d, 0.9)).unwrap();
        assert!(!rep.paths.is_empty());
        let assignment = assign_layers(&d, &rep.paths, rep.congestion.h_capacity());
        assert!(assignment.vias > 0);
        // All 2-D usage mass lands on some layer.
        let layered: f64 = assignment.layers.iter().map(|l| l.usage.sum()).sum();
        let flat = rep.congestion.h_demand().sum() + rep.congestion.v_demand().sum();
        assert!(
            (layered - flat).abs() < 1e-6,
            "layered {layered} vs flat {flat}"
        );
    }

    #[test]
    fn try_route_rejects_nan_coordinates() {
        let d = design(0.2);
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let mut p = spread_placement(&d, 0.9);
        let victim = d.netlist().movable_cells().next().unwrap();
        p.set(victim, Point::new(f64::NAN, 1.0));
        let err = router.try_route(&d, &p).unwrap_err();
        assert!(
            matches!(err, RouteError::NonFinitePlacement { .. }),
            "{err}"
        );
    }

    #[test]
    fn try_route_rejects_mismatched_placement() {
        let d = design(0.2);
        let other = generate(&GeneratorConfig {
            num_cells: 50,
            num_nets: 55,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let err = router.try_route(&d, &other.initial_placement()).unwrap_err();
        assert!(matches!(err, RouteError::BadInput(_)), "{err}");
    }

    #[test]
    fn try_route_rejects_zero_capacity_grids() {
        use puffer_db::geom::Rect;
        let d = design(0.2);
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let router = GlobalRouter {
            config: RouterConfig::default(),
            lanes: 1,
            base: RoutingGrid::new(
                puffer_db::grid::Grid::filled(r, 4, 4, 0.0),
                puffer_db::grid::Grid::filled(r, 4, 4, 2.0),
            ),
            budget: Budget::unbounded(),
        };
        let err = router
            .try_route(&d, &d.initial_placement())
            .unwrap_err();
        assert!(matches!(err, RouteError::ZeroCapacity(_)), "{err}");
    }

    #[test]
    fn try_route_rejects_non_finite_capacity() {
        use puffer_db::geom::Rect;
        let d = design(0.2);
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut v_cap = puffer_db::grid::Grid::filled(r, 4, 4, 2.0);
            *v_cap.at_mut(1, 2) = bad;
            let router = GlobalRouter {
                config: RouterConfig::default(),
                lanes: 1,
                base: RoutingGrid::new(puffer_db::grid::Grid::filled(r, 4, 4, 2.0), v_cap),
                budget: Budget::unbounded(),
            };
            let err = router.try_route(&d, &d.initial_placement()).unwrap_err();
            assert!(matches!(err, RouteError::ZeroCapacity(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn panicking_worker_becomes_an_error_not_an_abort() {
        // Exercises the join path behind try_route's decomposition chunks,
        // now provided by puffer-par: a panicking worker must surface as
        // Err, and — critically — a *second* panicking worker must not
        // abort the process (the old `join().expect(...)` re-panic did
        // exactly that by unwinding through `thread::scope` while another
        // handle was still hot).
        let result = puffer_par::try_map_chunks(64, 4, |range| {
            if range.contains(&1) {
                panic!("worker one exploded");
            }
            if range.contains(&35) {
                std::panic::panic_any("worker two exploded".to_string());
            }
            range.len()
        });
        let msg = result.unwrap_err().0;
        assert!(msg.contains("exploded"), "{msg}");
        assert!(matches!(
            RouteError::WorkerPanic(msg),
            RouteError::WorkerPanic(_)
        ));
    }

    #[test]
    fn chunked_workers_preserve_results_when_no_panic() {
        let result = puffer_par::try_map_chunks(4, 4, |range| range.start * range.start);
        assert_eq!(result.unwrap(), vec![0, 1, 4, 9]);
    }

    #[test]
    fn cancelled_budget_skips_ripup_but_still_reports() {
        let d = design(0.6);
        let p = spread_placement(&d, 0.5);
        let mut router = GlobalRouter::new(&d, RouterConfig::default());
        let token = puffer_budget::CancelToken::new();
        token.cancel();
        router.set_budget(Budget::unbounded().with_token(token));
        let rep = router.try_route(&d, &p).unwrap();
        assert_eq!(rep.rounds, 0, "cancelled budget must skip rip-up rounds");
        assert!(rep.wirelength > 0.0, "pattern pass still routes everything");
        assert!(rep.hof_pct.is_finite() && rep.vof_pct.is_finite());
    }

    #[test]
    fn default_threads_is_clamped() {
        let t = default_threads();
        assert!((1..=32).contains(&t), "{t}");
    }

    #[test]
    fn pass_criterion_matches_1_percent() {
        let d = design(0.0);
        let router = GlobalRouter::new(&d, RouterConfig::default());
        let mut rep = router.try_route(&d, &spread_placement(&d, 0.9)).unwrap();
        rep.hof_pct = 0.5;
        rep.vof_pct = 0.99;
        assert!(rep.passes());
        rep.vof_pct = 1.01;
        assert!(!rep.passes());
    }
}
