//! The routing grid: per-Gcell capacity, usage, and negotiated-congestion
//! cost bookkeeping (PathFinder-style).
//!
//! # The step table
//!
//! Path search prices a move between adjacent Gcells as the mean of
//! [`RoutingGrid::cost`]`(.., 0.5)` at its two ends, tens of millions of
//! times per routed design, while usage changes at a dozen Gcells per
//! reroute. The grid therefore keeps that value per Gcell and direction
//! ([`RoutingGrid::step_costs`]) under one invariant:
//!
//! > `step_costs(d)[iy * nx + ix]` **is** `cost(ix, iy, d, 0.5)`, bit for
//! > bit, at every Gcell, whenever the grid can be observed.
//!
//! Every entry is written by calling `cost` — there is no second formula
//! to drift — and everything `cost` reads is private to this module:
//! usage changes only through [`RoutingGrid::charge`] (which refreshes the
//! one entry it touches), history only through
//! [`RoutingGrid::update_history`] and capacity only in
//! [`RoutingGrid::new`] (which refresh every entry), and the two penalty
//! weights are constants of `new`. A reader of the table thus gets the
//! `f64` a call to `cost` would have returned, so a search that reads it
//! relaxes, pushes and pops exactly as one that calls `cost`.

use puffer_congest::CongestionMap;
use puffer_db::grid::Grid;

/// Routing direction of a move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Horizontal (east/west moves).
    H,
    /// Vertical (north/south moves).
    V,
}

/// Mutable routing state over the Gcell grid.
///
/// Usage is charged per Gcell in each direction: a move between
/// horizontally adjacent Gcells adds half a track of horizontal usage to
/// each endpoint Gcell (wire length within each cell), matching the
/// Gcell-based resource model of §II-C.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    h_cap: Grid<f64>,
    v_cap: Grid<f64>,
    h_use: Grid<f64>,
    v_use: Grid<f64>,
    h_hist: Grid<f64>,
    v_hist: Grid<f64>,
    /// `cost(ix, iy, Dir::H, 0.5)` per Gcell (the module's step table).
    h_step: Vec<f64>,
    /// `cost(ix, iy, Dir::V, 0.5)` per Gcell.
    v_step: Vec<f64>,
    /// Present-congestion penalty weight.
    present_weight: f64,
    /// History penalty weight.
    history_weight: f64,
    /// Cost of a bend (direction change), modelling a via.
    pub bend_cost: f64,
}

impl RoutingGrid {
    /// Builds the grid from capacity maps.
    pub fn new(h_cap: Grid<f64>, v_cap: Grid<f64>) -> Self {
        let zero = h_cap.map(|_| 0.0);
        let mut grid = RoutingGrid {
            h_use: zero.clone(),
            v_use: zero.clone(),
            h_hist: zero.clone(),
            v_hist: zero,
            h_step: vec![0.0; h_cap.len()],
            v_step: vec![0.0; h_cap.len()],
            h_cap,
            v_cap,
            present_weight: 4.0,
            history_weight: 1.0,
            bend_cost: 0.8,
        };
        grid.refresh_steps();
        grid
    }

    /// Grid width in Gcells.
    pub fn nx(&self) -> usize {
        self.h_cap.nx()
    }

    /// Grid height in Gcells.
    pub fn ny(&self) -> usize {
        self.h_cap.ny()
    }

    /// Gcell width in database units.
    pub fn dx(&self) -> f64 {
        self.h_cap.dx()
    }

    /// Gcell height in database units.
    pub fn dy(&self) -> f64 {
        self.h_cap.dy()
    }

    /// Gcell containing a point (clamped to the grid).
    pub fn cell_of(&self, p: puffer_db::geom::Point) -> (usize, usize) {
        self.h_cap.cell_of(p)
    }

    /// Total horizontal capacity over the whole grid.
    pub fn total_capacity(&self, d: Dir) -> f64 {
        self.cap_of(d).sum()
    }

    fn use_of(&self, d: Dir) -> &Grid<f64> {
        match d {
            Dir::H => &self.h_use,
            Dir::V => &self.v_use,
        }
    }

    /// Capacity map of direction `d` (both share the Gcell geometry).
    pub(crate) fn cap_of(&self, d: Dir) -> &Grid<f64> {
        match d {
            Dir::H => &self.h_cap,
            Dir::V => &self.v_cap,
        }
    }

    fn hist_of(&self, d: Dir) -> &Grid<f64> {
        match d {
            Dir::H => &self.h_hist,
            Dir::V => &self.v_hist,
        }
    }

    /// Adds (or removes, for negative `amount`) usage at one Gcell.
    pub fn charge(&mut self, ix: usize, iy: usize, d: Dir, amount: f64) {
        let g = match d {
            Dir::H => &mut self.h_use,
            Dir::V => &mut self.v_use,
        };
        let v = g.at_mut(ix, iy);
        *v = (*v + amount).max(0.0);
        self.refresh_step(ix, iy, d);
    }

    /// Overuse (tracks beyond capacity) at a Gcell in a direction.
    pub fn overuse(&self, ix: usize, iy: usize, d: Dir) -> f64 {
        (self.use_of(d).at(ix, iy) - self.cap_of(d).at(ix, iy)).max(0.0)
    }

    /// The negotiated-congestion cost of adding `inc` usage at a Gcell.
    pub fn cost(&self, ix: usize, iy: usize, d: Dir, inc: f64) -> f64 {
        let cap = *self.cap_of(d).at(ix, iy);
        let usage = *self.use_of(d).at(ix, iy);
        let over = (usage + inc - cap).max(0.0) / cap.max(1.0);
        let hist = *self.hist_of(d).at(ix, iy);
        1.0 + self.present_weight * over + self.history_weight * hist * over.clamp(0.1, 1.0)
    }

    /// `cost(ix, iy, d, 0.5)` of every Gcell, row-major (`iy * nx + ix`):
    /// what one end of a unit move in direction `d` costs. Maintained by
    /// this module; see the module docs for why it never goes stale.
    pub fn step_costs(&self, d: Dir) -> &[f64] {
        match d {
            Dir::H => &self.h_step,
            Dir::V => &self.v_step,
        }
    }

    fn refresh_step(&mut self, ix: usize, iy: usize, d: Dir) {
        let step = self.cost(ix, iy, d, 0.5);
        let node = self.h_cap.idx(ix, iy);
        match d {
            Dir::H => self.h_step[node] = step,
            Dir::V => self.v_step[node] = step,
        }
    }

    fn refresh_steps(&mut self) {
        for iy in 0..self.ny() {
            for ix in 0..self.nx() {
                self.refresh_step(ix, iy, Dir::H);
                self.refresh_step(ix, iy, Dir::V);
            }
        }
    }

    /// End-of-round history update: every overused Gcell accumulates
    /// pressure that persists across rounds.
    pub fn update_history(&mut self) {
        for iy in 0..self.ny() {
            for ix in 0..self.nx() {
                let oh = self.overuse(ix, iy, Dir::H);
                if oh > 0.0 {
                    *self.h_hist.at_mut(ix, iy) += oh / self.h_cap.at(ix, iy).max(1.0);
                }
                let ov = self.overuse(ix, iy, Dir::V);
                if ov > 0.0 {
                    *self.v_hist.at_mut(ix, iy) += ov / self.v_cap.at(ix, iy).max(1.0);
                }
            }
        }
        self.refresh_steps();
    }

    /// Number of Gcells overused in either direction.
    pub fn overflow_gcells(&self) -> usize {
        let mut n = 0;
        for iy in 0..self.ny() {
            for ix in 0..self.nx() {
                if self.overuse(ix, iy, Dir::H) > 1e-9 || self.overuse(ix, iy, Dir::V) > 1e-9 {
                    n += 1;
                }
            }
        }
        n
    }

    /// `(HOF, VOF)` overflow ratios: total overused tracks over total
    /// capacity, per direction (the Table II quantities, as fractions).
    pub fn overflow_ratios(&self) -> (f64, f64) {
        let mut oh = 0.0;
        let mut ov = 0.0;
        for iy in 0..self.ny() {
            for ix in 0..self.nx() {
                oh += self.overuse(ix, iy, Dir::H);
                ov += self.overuse(ix, iy, Dir::V);
            }
        }
        (
            oh / self.h_cap.sum().max(1e-9),
            ov / self.v_cap.sum().max(1e-9),
        )
    }

    /// Snapshot of the final routing state as a [`CongestionMap`] (demand =
    /// usage), for Fig. 5-style congestion maps.
    pub fn to_congestion_map(&self) -> CongestionMap {
        CongestionMap::new(
            self.h_cap.clone(),
            self.v_cap.clone(),
            self.h_use.clone(),
            self.v_use.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Rect;

    fn grid(cap: f64) -> RoutingGrid {
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        RoutingGrid::new(Grid::filled(r, 8, 8, cap), Grid::filled(r, 8, 8, cap))
    }

    #[test]
    fn charge_and_overuse() {
        let mut g = grid(2.0);
        g.charge(3, 3, Dir::H, 2.5);
        assert!((g.overuse(3, 3, Dir::H) - 0.5).abs() < 1e-12);
        assert_eq!(g.overuse(3, 3, Dir::V), 0.0);
        g.charge(3, 3, Dir::H, -2.5);
        assert_eq!(g.overuse(3, 3, Dir::H), 0.0);
    }

    #[test]
    fn negative_usage_clamps_to_zero() {
        let mut g = grid(2.0);
        g.charge(0, 0, Dir::V, -5.0);
        assert_eq!(g.overuse(0, 0, Dir::V), 0.0);
        assert!(g.cost(0, 0, Dir::V, 0.5) >= 1.0);
    }

    #[test]
    fn cost_rises_with_congestion() {
        let mut g = grid(2.0);
        let free = g.cost(1, 1, Dir::H, 1.0);
        g.charge(1, 1, Dir::H, 3.0);
        let busy = g.cost(1, 1, Dir::H, 1.0);
        assert!(busy > free);
        assert!(
            (free - 1.0).abs() < 1e-9,
            "uncongested cost is the base cost"
        );
    }

    #[test]
    fn history_accumulates_over_rounds() {
        let mut g = grid(1.0);
        g.charge(2, 2, Dir::H, 3.0);
        let before = g.cost(2, 2, Dir::H, 0.5);
        g.update_history();
        let after1 = g.cost(2, 2, Dir::H, 0.5);
        g.update_history();
        let after2 = g.cost(2, 2, Dir::H, 0.5);
        assert!(after1 > before);
        assert!(after2 > after1);
    }

    #[test]
    fn overflow_accounting() {
        let mut g = grid(2.0);
        assert_eq!(g.overflow_gcells(), 0);
        g.charge(0, 0, Dir::H, 3.0);
        g.charge(5, 5, Dir::V, 2.5);
        assert_eq!(g.overflow_gcells(), 2);
        let (hof, vof) = g.overflow_ratios();
        assert!((hof - 1.0 / 128.0).abs() < 1e-9);
        assert!((vof - 0.5 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_map_snapshot_matches_usage() {
        let mut g = grid(2.0);
        g.charge(1, 2, Dir::H, 1.5);
        let m = g.to_congestion_map();
        assert_eq!(*m.h_demand().at(1, 2), 1.5);
        assert_eq!(*m.v_demand().at(1, 2), 0.0);
    }
}
