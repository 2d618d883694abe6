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
//! * every path in one arena of row-major Gcell indices ([`path::Paths`],
//!   the type of [`RouteReport::paths`]);
//! * a [`RouteReport`] with the Table II quantities — HOF(%), VOF(%),
//!   routed wirelength — plus Fig. 5-style congestion maps;
//! * [`GlobalRouter::try_route`], which rejects hostile inputs (NaN
//!   coordinates, zero-capacity grids, a placement of another design)
//!   with a typed [`RouteError`] instead of routing garbage.
//!
//! All three placement flows in the reproduction are judged by this same
//! router, mirroring the paper's use of one common evaluator.
//!
//! # Reroutes that need no search
//!
//! Within a round, suppose a reroute kept its path, and the next
//! overflowing segment has the same endpoints and the same path. Then
//! that segment is kept too, with no rip-up and no search
//! ([`RouteReport::reroutes_reused`]). This moves no bit:
//!
//! * The kept reroute charged −½ and then +½ on the same Gcells. Usage is
//!   always a multiple of ½ and far below 2⁵³, so both sums are exact. The
//!   clamp at 0 never fires, because the path's own usage is still there.
//!   So every usage, and every step cost `charge` recomputes from it,
//!   comes back bit for bit.
//! * The segments between the two do not overflow and only read the grid;
//!   history changes only between rounds.
//! * [`path::MazeScratch`] carries nothing a search can observe from one
//!   search to the next.
//!
//! The skipped search would thus read the grid the previous one read,
//! between the same endpoints, and return the same path. The budget check
//! still counts every reroute, so cancellation points do not move.
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

use puffer_budget::Budget;
/// Shared worker-thread defaults (hoisted to `puffer-budget` so the router
/// and the congestion estimator clamp identically).
pub use puffer_budget::{clamp_threads, default_threads};
use puffer_congest::demand::decompose_net;
use puffer_congest::{build_capacity, CongestionMap, GCELL_ROWS};
use puffer_db::cast;
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

/// The two end Gcells of one two-point segment, as row-major indices
/// (`y·nx + x`, see [`path::node`]).
pub type Segment = (u32, u32);

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
    /// The final 2-D path of every routed two-point net, in routing order
    /// (input to [`assign_layers`]).
    pub paths: path::Paths,
    /// Two-point segments routed (`paths.len()`).
    pub segments: u64,
    /// Overflowing segments ripped up by rip-up-and-reroute, over all
    /// rounds: each one is either searched again or, for
    /// `reroutes_reused`, kept on the previous reroute's answer.
    pub reroutes: u64,
    /// Reroutes that ended on the very path they ripped up
    /// (`reroutes_kept <= reroutes`).
    pub reroutes_kept: u64,
    /// Kept reroutes that ran no search, because the round's previous
    /// reroute had just kept the same path between the same endpoints
    /// (`reroutes_reused <= reroutes_kept`).
    pub reroutes_reused: u64,
    /// Heap pops over the maze searches that ran (stale entries included).
    pub maze_pops: u64,
    /// Heap pushes over the maze searches that ran, each search's source
    /// push included — so `maze_pops <= maze_pushes`.
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
    /// Test hook: search every reroute, even one the previous reroute has
    /// already answered.
    #[cfg(test)]
    reuse_disabled: bool,
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
            #[cfg(test)]
            reuse_disabled: false,
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
        let nx = grid.nx();
        let cell = |node| path::cell(nx, node);

        let mut segments = decompose(
            design.netlist(),
            placement,
            self.base.cap_of(Dir::H),
            self.lanes,
        )?;
        // Short segments first: they have the least routing freedom. The
        // key compares cells as (x, y), which row-major indices do not.
        // Equal keys are equal segments, so no order among them shows.
        segments.sort_unstable_by_key(|&(a, b)| {
            let (a, b) = (cell(a), cell(b));
            (manhattan(a, b), a, b)
        });

        // --- initial pattern pass ----------------------------------------
        // L and Z routes are monotone: Manhattan length + 1 cells each.
        let cells = segments
            .iter()
            .map(|&(a, b)| manhattan(cell(a), cell(b)) + 1)
            .sum();
        let mut paths = path::Paths::with_capacity(nx, segments.len(), cells);
        for &(a, b) in &segments {
            let p = path::pattern_route(&grid, cell(a), cell(b), MAX_BENDS);
            path::apply_path(&mut grid, p.iter().copied(), 1.0);
            paths.push(&p);
        }

        // --- negotiated rip-up-and-reroute --------------------------------
        // Cancellation points: between rounds and every 256 reroutes within
        // a round. Stopping mid-round is safe — each reroute leaves the
        // grid and `paths` mutually consistent — so the report below is
        // simply the best routing found so far.
        let mut rounds = 0;
        let (mut reroutes, mut kept, mut reused) = (0u64, 0u64, 0u64);
        let mut scratch = path::MazeScratch::new();
        'ripup: for _ in 0..self.config.max_rounds {
            if grid.overflow_gcells() == 0 || self.budget.is_exhausted() {
                break;
            }
            rounds += 1;
            grid.update_history();
            let mut rerouted = 0usize;
            // The round's previous reroute, if it kept its path: it left
            // the grid bit for bit as it found it (crate docs).
            let mut last_kept: Option<usize> = None;
            for i in 0..paths.len() {
                if !path::path_overflows(&grid, paths.get(i).cells()) {
                    continue;
                }
                let answered = last_kept
                    .is_some_and(|j| segments[j] == segments[i] && paths.get(j) == paths.get(i));
                let keeps = if answered && self.reuse_enabled() {
                    reused += 1;
                    true
                } else {
                    let (a, b) = segments[i];
                    path::apply_path(&mut grid, paths.get(i).cells(), -1.0);
                    let p = scratch.route(&grid, cell(a), cell(b));
                    path::apply_path(&mut grid, p.iter().copied(), 1.0);
                    let keeps = paths.get(i) == p[..];
                    if !keeps {
                        paths.set(i, &p);
                    }
                    keeps
                };
                kept += u64::from(keeps);
                last_kept = keeps.then_some(i);
                reroutes += 1;
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
        for p in paths.iter() {
            for (_, _, d) in path::moves(p.cells()) {
                wirelength += match d {
                    Dir::H => grid.dx(),
                    Dir::V => grid.dy(),
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
            reroutes,
            reroutes_kept: kept,
            reroutes_reused: reused,
            maze_pops: scratch.pops(),
            maze_pushes: scratch.pushes(),
        })
    }

    /// Whether rip-up may keep a segment on the previous reroute's answer
    /// instead of searching (always, outside this crate's tests).
    fn reuse_enabled(&self) -> bool {
        #[cfg(test)]
        if self.reuse_disabled {
            return false;
        }
        true
    }
}

fn manhattan(a: (usize, usize), b: (usize, usize)) -> usize {
    a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
}

/// Decomposes every net of `netlist` into the two-point segments the
/// router routes, on exactly `lanes` workers (clamped to `1..=32`): the
/// estimator's quantize-first RSMT decomposition
/// ([`puffer_congest::demand::decompose_net`]) on the Gcells of `gcells`,
/// minus the segments that stay inside one Gcell, in net order. Each
/// segment is a pair of row-major Gcell indices (`y·nx + x`).
///
/// Chunking, lane clamping and panic draining go through `puffer-par`:
/// fixed net-index chunks, one segment list per chunk, appended in chunk
/// order to one exactly reserved list — the same list for every lane
/// count. Each chunk's list is freed as soon as it is appended, so the
/// segments are never held twice over.
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
    let nx = gcells.nx();
    let net_ids: Vec<_> = netlist.iter_nets().map(|(id, _)| id).collect();
    let parts = puffer_par::try_map_chunks(net_ids.len(), lanes, |range| {
        let (mut part, mut net_segments) = (Vec::new(), Vec::new());
        for i in range {
            net_segments.clear();
            decompose_net(netlist, placement, gcells, net_ids[i], &mut net_segments);
            part.extend(
                net_segments
                    .iter()
                    .map(|s| (path::node(nx, (s.ax, s.ay)), path::node(nx, (s.bx, s.by))))
                    .filter(|(a, b)| a != b),
            );
        }
        part
    })
    .map_err(|e| RouteError::WorkerPanic(e.0))?;
    let mut segments = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        segments.extend_from_slice(&part);
    }
    Ok(segments)
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
        let target = Point::new(r.xl + 0.37 * r.width(), r.yl + 0.41 * r.height());
        let mut p = d.initial_placement();
        for id in d.netlist().movable_cells() {
            p.set(id, target);
        }
        let rep = router.try_route(&d, &p).unwrap();
        // Fixed macros still exist, so only assert the collapsed point adds
        // nothing: every routed path endpoint pair must differ (zero-length
        // two-point nets are filtered at decomposition time).
        for path in rep.paths.iter() {
            assert!(
                path.len() > 1 && path.cell(0) != path.cell(path.len() - 1),
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

    /// The bits a report is judged by: paths, demand, HOF/VOF/WL and the
    /// counters the skip rule must not move.
    fn same_routing(a: &RouteReport, b: &RouteReport) -> Result<(), String> {
        let bits = |r: &RouteReport| {
            let demand = |g: &puffer_db::grid::Grid<f64>| {
                g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            (
                demand(r.congestion.h_demand()),
                demand(r.congestion.v_demand()),
                [r.hof_pct, r.vof_pct, r.wirelength].map(f64::to_bits),
                [r.segments, r.reroutes, r.reroutes_kept],
                (r.rounds, r.overflow_gcells),
            )
        };
        puffer_rng::prop_check!(a.paths == b.paths, "paths differ");
        puffer_rng::prop_check!(bits(a) == bits(b), "report bits or counters differ");
        Ok(())
    }

    /// A die of `sites` pin sites and `nets` two-pin nets, each joining two
    /// random sites through cells of their own: with many nets per pair
    /// of sites, rip-up meets long runs of equal segments, on equal and on
    /// different paths.
    fn bundles(rng: &mut puffer_rng::StdRng, sites: usize, nets: usize) -> (Design, Placement) {
        use puffer_db::geom::Rect;
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        let region = Rect::new(0.0, 0.0, 60.0, 60.0);
        let sites: Vec<Point> = (0..sites)
            .map(|_| Point::new(rng.gen_range(2.0..58.0), rng.gen_range(2.0..58.0)))
            .collect();
        let mut nb = NetlistBuilder::new();
        let mut at = Vec::new();
        for n in 0..nets {
            let net = nb.add_net(format!("n{n}"));
            let a = rng.gen_range(0..sites.len());
            let b = (a + rng.gen_range(1..sites.len())) % sites.len();
            for site in [a, b] {
                let cell = nb.add_cell(format!("c{}", at.len()), 1.0, 1.0, CellKind::Movable);
                nb.connect(net, cell, Point::ORIGIN).unwrap();
                at.push(sites[site]);
            }
        }
        let d = Design::new(
            "bundles",
            nb.build().unwrap(),
            puffer_db::tech::Technology::default(),
            region,
        )
        .unwrap();
        let mut p = d.initial_placement();
        for (id, &pos) in d.netlist().movable_cells().zip(&at) {
            p.set(id, pos);
        }
        (d, p)
    }

    #[test]
    fn reusing_a_kept_reroute_moves_no_bit() {
        let mut fired = 0;
        puffer_rng::check::run_cases(
            8,
            0x5EED_0033,
            |rng| {
                if rng.gen_bool(0.5) {
                    let sites = rng.gen_range(2..6usize);
                    let nets = rng.gen_range(150..400usize);
                    return bundles(rng, sites, nets);
                }
                let cells = rng.gen_range(250..450usize);
                let d = generate(&GeneratorConfig {
                    num_cells: cells,
                    num_nets: cells + cells / 8,
                    num_macros: rng.gen_range(0..3usize),
                    hotspot: rng.gen_range(0.3..0.7),
                    seed: rng.next_u64(),
                    ..GeneratorConfig::default()
                })
                .unwrap();
                let p = spread_placement(&d, rng.gen_range(0.3..0.6));
                (d, p)
            },
            |(d, p)| {
                for threads in [1, 2] {
                    let config = RouterConfig {
                        threads,
                        ..RouterConfig::default()
                    };
                    let reusing = GlobalRouter::new(d, config.clone());
                    let mut searching = GlobalRouter::new(d, config);
                    searching.reuse_disabled = true;
                    let on = reusing.try_route(d, p).map_err(|e| e.to_string())?;
                    let off = searching.try_route(d, p).map_err(|e| e.to_string())?;
                    same_routing(&on, &off)?;
                    puffer_rng::prop_check!(off.reroutes_reused == 0, "the hook skipped");
                    puffer_rng::prop_check!(on.reroutes_reused <= on.reroutes_kept);
                    if on.reroutes_reused > 0 {
                        fired += 1;
                        puffer_rng::prop_check!(
                            on.maze_pops < off.maze_pops && on.maze_pushes < off.maze_pushes,
                            "{} reused reroutes saved no heap traffic",
                            on.reroutes_reused
                        );
                    } else {
                        puffer_rng::prop_check!(
                            (on.maze_pops, on.maze_pushes) == (off.maze_pops, off.maze_pushes)
                        );
                    }
                }
                Ok(())
            },
        );
        assert!(fired > 0, "no case reused a reroute");
    }

    /// Two nets along a row of one track: both overflow in every round,
    /// the second is kept on the first one's answer, and a bend costs so
    /// much that history needs rounds to push the first net off the row.
    /// Once it does, the answer of the round before must not keep it.
    #[test]
    fn a_kept_answer_does_not_outlive_its_round() {
        use puffer_db::geom::Rect;
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        let mut nb = NetlistBuilder::new();
        for n in 0..2 {
            let net = nb.add_net(format!("n{n}"));
            for k in 0..2 {
                let cell = nb.add_cell(format!("c{n}_{k}"), 0.5, 0.5, CellKind::Movable);
                nb.connect(net, cell, Point::ORIGIN).unwrap();
            }
        }
        let region = Rect::new(0.0, 0.0, 8.0, 3.0);
        let d = Design::new("row", nb.build().unwrap(), Default::default(), region).unwrap();
        let mut p = d.initial_placement();
        for (k, id) in d.netlist().movable_cells().enumerate() {
            p.set(id, Point::new(if k % 2 == 0 { 0.5 } else { 7.5 }, 1.5));
        }
        let mut h_cap = puffer_db::grid::Grid::filled(region, 8, 3, 10.0);
        for x in 0..8 {
            *h_cap.at_mut(x, 1) = 1.0;
        }
        let mut base = RoutingGrid::new(h_cap, puffer_db::grid::Grid::filled(region, 8, 3, 10.0));
        base.bend_cost = 10.0;
        let router = |reuse_disabled| GlobalRouter {
            config: RouterConfig::default(),
            lanes: 1,
            base: base.clone(),
            budget: Budget::unbounded(),
            reuse_disabled,
        };
        let on = router(false).try_route(&d, &p).unwrap();
        let off = router(true).try_route(&d, &p).unwrap();
        same_routing(&on, &off).unwrap();
        assert!(on.reroutes_reused > 0, "nothing reused");
        assert!(on.reroutes > on.reroutes_kept, "no path moved");
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
        let err = router
            .try_route(&d, &other.initial_placement())
            .unwrap_err();
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
            reuse_disabled: false,
        };
        let err = router.try_route(&d, &d.initial_placement()).unwrap_err();
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
                reuse_disabled: false,
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
