//! Path search: pattern routing (L/Z) and A* maze routing on the Gcell
//! grid with negotiated-congestion costs.
//!
//! # The epoch-stamped search state
//!
//! A rip-up round runs thousands of searches that each touch a few dozen
//! Gcells of a grid holding thousands. [`MazeScratch`] therefore outlives
//! the search: its `dist`/`parent` arrays are allocated once per grid size
//! and never cleared. Instead every search runs in a new *epoch* and
//!
//! > `dist[node]` reads as `[∞, ∞]` unless `stamp[node] == epoch`;
//!
//! the first relaxation to reach a node in an epoch writes the stamp and
//! resets the pair. Every comparison a search makes is thus against
//! exactly what a freshly `∞`-filled array would hold, so it pushes and
//! pops the same entries in the same order — and `BinaryHeap`'s order,
//! tie order among equal `f` included, is a function of that sequence
//! alone (the heap is emptied, not rebuilt, between searches). Same paths,
//! same usage, same report, at the cost of what the search explores. The
//! arrays are rebuilt only when the grid's Gcell count changes or the
//! `u32` epoch would wrap. Step costs come from the table
//! [`RoutingGrid::step_costs`] maintains, which holds the very `f64`s
//! `RoutingGrid::cost(.., 0.5)` returns.

use puffer_db::cast;
use crate::grid::{Dir, RoutingGrid};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A routed path: the Gcell sequence from source to target (inclusive).
pub type Path = Vec<(usize, usize)>;

/// Cost of traversing `path` under the grid's current state (as if the
/// path were about to be added).
pub fn path_cost(grid: &RoutingGrid, path: &Path) -> f64 {
    let nx = grid.nx();
    let mut cost = 0.0;
    let mut prev_dir: Option<Dir> = None;
    for w in path.windows(2) {
        let (a, b) = (w[0], w[1]);
        let d = if a.1 == b.1 { Dir::H } else { Dir::V };
        let step = grid.step_costs(d);
        cost += 0.5 * (step[a.1 * nx + a.0] + step[b.1 * nx + b.0]);
        if let Some(p) = prev_dir {
            if p != d {
                cost += grid.bend_cost;
            }
        }
        prev_dir = Some(d);
    }
    cost
}

/// Charges (`sign = +1`) or refunds (`sign = -1`) a path's usage.
pub fn apply_path(grid: &mut RoutingGrid, path: &Path, sign: f64) {
    for w in path.windows(2) {
        let (a, b) = (w[0], w[1]);
        let d = if a.1 == b.1 { Dir::H } else { Dir::V };
        grid.charge(a.0, a.1, d, 0.5 * sign);
        grid.charge(b.0, b.1, d, 0.5 * sign);
    }
}

/// Whether any Gcell along the path is overused.
pub fn path_overflows(grid: &RoutingGrid, path: &Path) -> bool {
    for w in path.windows(2) {
        let (a, b) = (w[0], w[1]);
        let d = if a.1 == b.1 { Dir::H } else { Dir::V };
        if grid.overuse(a.0, a.1, d) > 1e-9 || grid.overuse(b.0, b.1, d) > 1e-9 {
            return true;
        }
    }
    false
}

fn straight(path: &mut Path, from: (usize, usize), to: (usize, usize)) {
    debug_assert!(from.0 == to.0 || from.1 == to.1);
    let mut cur = from;
    while cur != to {
        if cur.0 < to.0 {
            cur.0 += 1;
        } else if cur.0 > to.0 {
            cur.0 -= 1;
        } else if cur.1 < to.1 {
            cur.1 += 1;
        } else {
            cur.1 -= 1;
        }
        path.push(cur);
    }
}

/// Builds the two L-shaped and up to `2·bends` Z-shaped candidate
/// paths and returns the cheapest under the grid's current cost.
pub fn pattern_route(
    grid: &RoutingGrid,
    a: (usize, usize),
    b: (usize, usize),
    bends: usize,
) -> Path {
    if a == b {
        return vec![a];
    }
    let mut candidates: Vec<Path> = Vec::new();
    if a.0 == b.0 || a.1 == b.1 {
        let mut p = vec![a];
        straight(&mut p, a, b);
        candidates.push(p);
    } else {
        // L via (b.x, a.y) and via (a.x, b.y).
        for bend in [(b.0, a.1), (a.0, b.1)] {
            let mut p = vec![a];
            straight(&mut p, a, bend);
            straight(&mut p, bend, b);
            candidates.push(p);
        }
        // Z with a vertical middle leg at column cx.
        let (xl, xh) = (a.0.min(b.0), a.0.max(b.0));
        for cx in sample(xl, xh, bends) {
            let mut p = vec![a];
            straight(&mut p, a, (cx, a.1));
            straight(&mut p, (cx, a.1), (cx, b.1));
            straight(&mut p, (cx, b.1), b);
            candidates.push(p);
        }
        // Z with a horizontal middle leg at row cy.
        let (yl, yh) = (a.1.min(b.1), a.1.max(b.1));
        for cy in sample(yl, yh, bends) {
            let mut p = vec![a];
            straight(&mut p, a, (a.0, cy));
            straight(&mut p, (a.0, cy), (b.0, cy));
            straight(&mut p, (b.0, cy), b);
            candidates.push(p);
        }
    }
    candidates
        .into_iter()
        .min_by(|p, q| path_cost(grid, p).total_cmp(&path_cost(grid, q)))
        .unwrap_or_else(|| {
            // Both branches above push at least one candidate; as a
            // defensive fallback, route the two pins with a single L.
            let mut p = vec![a];
            straight(&mut p, a, b);
            p
        })
}

fn sample(lo: usize, hi: usize, max: usize) -> Vec<usize> {
    if hi - lo < 2 || max == 0 {
        return Vec::new();
    }
    let count = (hi - lo - 1).min(max);
    (1..=count)
        .map(|i| lo + i * (hi - lo) / (count + 1))
        .collect()
}

#[derive(PartialEq)]
struct HeapEntry {
    f: f64,
    g: f64,
    node: usize,
    dir: u8, // 0 = none, 1 = H, 2 = V
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f.
        other.f.total_cmp(&self.f)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The A* search state, kept across calls so that a search pays for the
/// nodes it touches and not for the grid (see the module docs).
#[derive(Default)]
pub struct MazeScratch {
    /// Best known cost per (node, incoming direction) state, so bends
    /// price correctly. Meaningful only where `stamp[node] == epoch`.
    dist: Vec<[f64; 2]>,
    /// `parent[node][dir - 1]` is (parent node, parent's incoming dir);
    /// written together with the `dist` entry it belongs to.
    parent: Vec<[(usize, u8); 2]>,
    /// The epoch in which `dist[node]` was last reset; 0 = never.
    stamp: Vec<u32>,
    /// The running search's number, ≥ 1 once a search has started.
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    searches: u64,
    pops: u64,
    pushes: u64,
}

impl MazeScratch {
    /// An empty scratch; it sizes itself to the first grid it searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch whose next search runs in epoch `epoch + 1` (or wraps):
    /// lets tests cross the `u32` wrap without four billion searches.
    #[doc(hidden)]
    pub fn starting_at_epoch(epoch: u32) -> Self {
        MazeScratch {
            epoch,
            ..Self::default()
        }
    }

    /// Searches run so far (`a == b` needs none and is not counted).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Heap pops over every search so far, stale entries included.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Heap pushes over every search so far, each search's source included.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Opens a new epoch over a grid of `cells` Gcells: every `dist` entry
    /// reads as `[∞, ∞]` again without being written.
    fn begin(&mut self, cells: usize) {
        if self.stamp.len() != cells || self.epoch == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(cells, 0);
            self.dist.resize(cells, [f64::INFINITY; 2]);
            self.parent.resize(cells, [(0, 0); 2]);
            if self.epoch == u32::MAX {
                self.epoch = 0;
            }
        }
        self.epoch += 1;
        self.heap.clear();
        self.searches += 1;
    }

    fn push(&mut self, entry: HeapEntry) {
        self.pushes += 1;
        self.heap.push(entry);
    }

    /// A* maze route from `a` to `b` with congestion-aware costs. Always
    /// finds a path (the grid is fully connected); the admissible heuristic
    /// is the Manhattan distance at base cost.
    pub fn route(&mut self, grid: &RoutingGrid, a: (usize, usize), b: (usize, usize)) -> Path {
        if a == b {
            return vec![a];
        }
        let (nx, ny) = (grid.nx(), grid.ny());
        let idx = |x: usize, y: usize| y * nx + x;
        let steps = [grid.step_costs(Dir::H), grid.step_costs(Dir::V)];
        self.begin(nx * ny);
        self.push(HeapEntry {
            f: 0.0,
            g: 0.0,
            node: idx(a.0, a.1),
            dir: 0,
        });

        let h = |x: usize, y: usize| -> f64 { cast::idx_f64(x.abs_diff(b.0) + y.abs_diff(b.1)) };

        let target = idx(b.0, b.1);
        while let Some(HeapEntry { g, node, dir, .. }) = self.heap.pop() {
            self.pops += 1;
            // A popped (node, dir != 0) state was relaxed in this epoch, so
            // its stamp is current and `dist` holds this search's value.
            if dir != 0 && g > self.dist[node][usize::from(dir - 1)] + 1e-12 {
                continue;
            }
            if node == target {
                // Reconstruct by walking (node, dir) pairs back to the source.
                let mut path = Vec::new();
                let mut cur = node;
                let mut cur_dir = dir;
                loop {
                    path.push((cur % nx, cur / nx));
                    if cur_dir == 0 {
                        break;
                    }
                    (cur, cur_dir) = self.parent[cur][usize::from(cur_dir - 1)];
                }
                path.reverse();
                debug_assert_eq!(path.first(), Some(&a));
                return path;
            }
            let (x, y) = (node % nx, node / nx);
            for (dx, dy, nd) in [(-1i64, 0i64, 1u8), (1, 0, 1), (0, -1, 2), (0, 1, 2)] {
                let (tx, ty) = (cast::idx_i64(x) + dx, cast::idx_i64(y) + dy);
                if tx < 0 || ty < 0 || tx >= cast::idx_i64(nx) || ty >= cast::idx_i64(ny) {
                    continue;
                }
                let (tx, ty) = (cast::i64_idx(tx), cast::i64_idx(ty));
                let tnode = idx(tx, ty);
                let lane = usize::from(nd - 1);
                let mut step = 0.5 * (steps[lane][node] + steps[lane][tnode]);
                if dir != 0 && dir != nd {
                    step += grid.bend_cost;
                }
                let ng = g + step;
                if self.stamp[tnode] != self.epoch {
                    self.stamp[tnode] = self.epoch;
                    self.dist[tnode] = [f64::INFINITY; 2];
                }
                if ng + 1e-12 < self.dist[tnode][lane] {
                    self.dist[tnode][lane] = ng;
                    self.parent[tnode][lane] = (node, dir);
                    self.push(HeapEntry {
                        f: ng + h(tx, ty),
                        g: ng,
                        node: tnode,
                        dir: nd,
                    });
                }
            }
        }
        // Unreachable on a connected grid, but fall back to a pattern route.
        pattern_route(grid, a, b, 4)
    }
}

/// [`MazeScratch::route`] on a scratch of its own: one search, nothing
/// kept. A caller with many searches to run keeps a [`MazeScratch`].
pub fn maze_route(grid: &RoutingGrid, a: (usize, usize), b: (usize, usize)) -> Path {
    MazeScratch::new().route(grid, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Rect;
    use puffer_db::grid::Grid;

    fn grid(cap: f64) -> RoutingGrid {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        RoutingGrid::new(Grid::filled(r, 10, 10, cap), Grid::filled(r, 10, 10, cap))
    }

    /// A congested wall on column 5, rows 0..8 (gap at row 9).
    fn walled() -> RoutingGrid {
        let mut g = grid(1.0);
        for y in 0..9 {
            g.charge(5, y, Dir::H, 50.0);
            g.charge(5, y, Dir::V, 50.0);
        }
        g
    }

    fn is_connected(path: &Path) -> bool {
        path.windows(2)
            .all(|w| w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1) == 1)
    }

    #[test]
    fn pattern_route_straight() {
        let g = grid(10.0);
        let p = pattern_route(&g, (2, 3), (7, 3), 4);
        assert_eq!(p.len(), 6);
        assert!(is_connected(&p));
        assert!(p.iter().all(|&(_, y)| y == 3));
    }

    #[test]
    fn pattern_route_l_shape() {
        let g = grid(10.0);
        let p = pattern_route(&g, (1, 1), (5, 6), 0);
        assert!(is_connected(&p));
        assert_eq!(p.first(), Some(&(1, 1)));
        assert_eq!(p.last(), Some(&(5, 6)));
        // Minimal length: manhattan + 1.
        assert_eq!(p.len(), 4 + 5 + 1);
    }

    #[test]
    fn pattern_route_picks_cheaper_l() {
        let mut g = grid(2.0);
        // Congest the bend at (5, 1) heavily.
        for x in 1..=5 {
            g.charge(x, 1, Dir::H, 10.0);
        }
        let p = pattern_route(&g, (1, 1), (5, 6), 0);
        // Should prefer the L through (1, 6).
        assert!(p.contains(&(1, 6)), "path {p:?}");
    }

    #[test]
    fn pattern_route_uses_z_when_both_ls_are_hot() {
        let mut g = grid(2.0);
        // Heat both L bend corners; a Z through the middle stays cool.
        for x in 1..=5 {
            g.charge(x, 1, Dir::H, 10.0); // bottom leg
            g.charge(x, 6, Dir::H, 10.0); // top leg
        }
        let p = pattern_route(&g, (1, 1), (5, 6), 4);
        assert!(is_connected(&p));
        // A Z route has exactly two bends; it must leave row 1 before x=5
        // and join row 6 after x=1, i.e. use some intermediate row fully.
        let intermediate_h = p
            .windows(2)
            .filter(|w| w[0].1 == w[1].1 && w[0].1 != 1 && w[0].1 != 6)
            .count();
        assert!(intermediate_h > 0, "expected a Z-shaped route, got {p:?}");
    }

    #[test]
    fn maze_route_prices_bends() {
        // With a high bend cost and a free grid, the maze route uses a
        // minimal-bend (L-shaped) path.
        let mut g = grid(100.0);
        g.bend_cost = 10.0;
        let p = maze_route(&g, (0, 0), (6, 6));
        let bends = p
            .windows(3)
            .filter(|w| {
                let d1 = w[0].1 == w[1].1;
                let d2 = w[1].1 == w[2].1;
                d1 != d2
            })
            .count();
        assert_eq!(bends, 1, "expected exactly one bend, got {p:?}");
        assert_eq!(p.len(), 13);
    }

    #[test]
    fn apply_and_refund_are_inverse() {
        let mut g = grid(2.0);
        let p = pattern_route(&g, (0, 0), (4, 4), 2);
        apply_path(&mut g, &p, 1.0);
        assert!(g.to_congestion_map().total_demand() > 0.0);
        apply_path(&mut g, &p, -1.0);
        assert_eq!(g.to_congestion_map().total_demand(), 0.0);
    }

    #[test]
    fn maze_route_connects_and_is_minimal_when_free() {
        let g = grid(10.0);
        let p = maze_route(&g, (2, 2), (8, 5));
        assert!(is_connected(&p));
        assert_eq!(p.first(), Some(&(2, 2)));
        assert_eq!(p.last(), Some(&(8, 5)));
        assert_eq!(p.len(), 6 + 3 + 1, "uncongested maze route is shortest");
    }

    #[test]
    fn maze_route_detours_around_congestion() {
        let g = walled();
        let p = maze_route(&g, (2, 2), (8, 2));
        assert!(is_connected(&p));
        assert_eq!(p.last(), Some(&(8, 2)));
        // The shortest path (through the wall) costs > the detour via row 9.
        let through: f64 = 6.0 + 1.0; // would be if free
        assert!(path_cost(&g, &p) > through, "sanity");
        assert!(
            p.iter().any(|&(_, y)| y > 6),
            "expected a detour towards the gap, got {p:?}"
        );
    }

    #[test]
    fn epoch_wrap_forgets_the_stamps_of_the_first_epochs() {
        // The scratch's first search leaves stamp 1 on everything it
        // reached, with distances from (8, 2). After the wrap epoch 1 comes
        // round again, for a search *towards* (8, 2): were the old stamps
        // believed, nothing near the target could be relaxed and the search
        // would fall through to a pattern route across the wall.
        let g = walled();
        let mut scratch = MazeScratch::new();
        assert_eq!(
            scratch.route(&g, (8, 2), (2, 2)),
            maze_route(&g, (8, 2), (2, 2))
        );
        scratch.epoch = u32::MAX;
        let back = scratch.route(&g, (2, 2), (8, 2));
        assert_eq!(scratch.epoch, 1);
        assert_eq!(back, maze_route(&g, (2, 2), (8, 2)));
        assert!(back.contains(&(5, 9)), "through the gap: {back:?}");
    }

    #[test]
    fn path_overflow_detection() {
        let mut g = grid(1.0);
        let p = pattern_route(&g, (0, 0), (5, 0), 0);
        apply_path(&mut g, &p, 1.0);
        assert!(!path_overflows(&g, &p));
        // Route three more times over the same row: capacity 1 exceeded.
        for _ in 0..3 {
            apply_path(&mut g, &p, 1.0);
        }
        assert!(path_overflows(&g, &p));
    }

    #[test]
    fn degenerate_single_cell_path() {
        let g = grid(1.0);
        assert_eq!(pattern_route(&g, (3, 3), (3, 3), 4), vec![(3, 3)]);
        assert_eq!(maze_route(&g, (3, 3), (3, 3)), vec![(3, 3)]);
        assert_eq!(path_cost(&g, &vec![(3, 3)]), 0.0);
    }
}
