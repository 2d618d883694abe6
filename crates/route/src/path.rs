//! Path search and path storage: pattern routing (L/Z) and A* maze routing
//! on the Gcell grid with negotiated-congestion costs, and [`Paths`], the
//! one arena every routed path lives in.
//!
//! # The path arena
//!
//! A search returns a transient [`Path`] of `(x, y)` cells. What the
//! router keeps is a [`Paths`]: every path's row-major Gcell indices
//! (`y·nx + x`, as `u32`) in one `Vec`, and a `(start, len)` span per path.
//! One allocation holds all of them instead of one heap block per path,
//! at a quarter of the bytes per cell. Its invariants:
//!
//! * path `i`'s cells are `cells[start..start + len]` of span `i`, and no
//!   two spans overlap;
//! * the cells no span covers (*dead* cells) never outnumber the live
//!   ones: [`Paths::set`] overwrites a span in place when the new path
//!   fits and appends it otherwise, and compacts the arena, in path
//!   order, as soon as the dead cells would outnumber the live ones;
//! * equality ([`PartialEq`]) compares the paths, never the layout, so
//!   two routings that agree path by path are equal however their
//!   arenas were filled.
//!
//! Readers get a path as a [`PathRef`], which hands out `(x, y)` cells.
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

use crate::grid::{Dir, RoutingGrid};
use puffer_db::cast;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// A routed path: the Gcell sequence from source to target (inclusive).
pub type Path = Vec<(usize, usize)>;

/// The row-major index (`y·nx + x`) of Gcell `(x, y)` on a grid `nx` wide.
pub fn node(nx: usize, (x, y): (usize, usize)) -> u32 {
    cast::idx_u32(y * nx + x)
}

/// The Gcell `(x, y)` of row-major index `node` on a grid `nx` wide.
pub fn cell(nx: usize, node: u32) -> (usize, usize) {
    let node = cast::u32_idx(node);
    (node % nx, node / nx)
}

/// Every routed path of one routing, in one arena of row-major Gcell
/// indices (see the module docs for its invariants).
#[derive(Debug, Clone)]
pub struct Paths {
    /// Width of the grid the indices are row-major on.
    nx: usize,
    /// The arena: every path's Gcell indices, one span per path.
    cells: Vec<u32>,
    /// `(start, len)` of path `i` in `cells`.
    spans: Vec<(u32, u32)>,
    /// Cells of `cells` that no span covers.
    dead: usize,
}

impl Paths {
    /// No paths, on a grid `nx` Gcells wide.
    pub fn new(nx: usize) -> Self {
        Self::with_capacity(nx, 0, 0)
    }

    /// No paths, with room for `paths` paths of `cells` Gcells in all.
    pub(crate) fn with_capacity(nx: usize, paths: usize, cells: usize) -> Self {
        Paths {
            nx,
            cells: Vec::with_capacity(cells),
            spans: Vec::with_capacity(paths),
            dead: 0,
        }
    }

    /// Width of the grid the paths run on.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether there is no path.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Path `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn get(&self, i: usize) -> PathRef<'_> {
        let (start, len) = self.spans[i];
        let start = cast::u32_idx(start);
        PathRef {
            nodes: &self.cells[start..start + cast::u32_idx(len)],
            nx: self.nx,
        }
    }

    /// Every path, in order.
    pub fn iter(&self) -> impl Iterator<Item = PathRef<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends `path` as the last path.
    pub fn push(&mut self, path: &[(usize, usize)]) {
        let start = cast::idx_u32(self.cells.len());
        self.spans.push((start, cast::idx_u32(path.len())));
        self.append(path);
    }

    /// Replaces path `i` by `path`: in place when it fits in the old
    /// span, at the end of the arena otherwise; then compacts the arena if
    /// its dead cells outnumber the live ones.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    pub fn set(&mut self, i: usize, path: &[(usize, usize)]) {
        let (start, len) = self.spans[i];
        let (start, len) = (cast::u32_idx(start), cast::u32_idx(len));
        if path.len() <= len {
            let nx = self.nx;
            for (slot, &c) in self.cells[start..].iter_mut().zip(path) {
                *slot = node(nx, c);
            }
            self.dead += len - path.len();
        } else {
            self.dead += len;
            self.spans[i].0 = cast::idx_u32(self.cells.len());
            self.append(path);
        }
        self.spans[i].1 = cast::idx_u32(path.len());
        if self.dead > self.live_cells() {
            self.compact();
        }
    }

    /// Cells some path covers.
    pub fn live_cells(&self) -> usize {
        self.cells.len() - self.dead
    }

    /// Cells of the arena no path covers (never more than
    /// [`Paths::live_cells`]).
    pub fn dead_cells(&self) -> usize {
        self.dead
    }

    fn append(&mut self, path: &[(usize, usize)]) {
        let nx = self.nx;
        self.cells.extend(path.iter().map(|&c| node(nx, c)));
    }

    /// Rewrites the arena with the live cells only, path by path.
    fn compact(&mut self) {
        let mut cells = Vec::with_capacity(self.live_cells());
        for span in &mut self.spans {
            let start = cast::u32_idx(span.0);
            let end = start + cast::u32_idx(span.1);
            span.0 = cast::idx_u32(cells.len());
            cells.extend_from_slice(&self.cells[start..end]);
        }
        self.cells = cells;
        self.dead = 0;
    }
}

impl PartialEq for Paths {
    /// Path by path; the arenas' layouts may differ.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One path of a [`Paths`]: its Gcells, source to target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRef<'a> {
    nodes: &'a [u32],
    nx: usize,
}

impl<'a> PathRef<'a> {
    /// Number of Gcells.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path has no Gcell.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The row-major Gcell indices (`y·nx + x`).
    pub fn nodes(&self) -> &'a [u32] {
        self.nodes
    }

    /// Gcell `k` as `(x, y)`.
    ///
    /// # Panics
    ///
    /// If `k >= self.len()`.
    pub fn cell(&self, k: usize) -> (usize, usize) {
        cell(self.nx, self.nodes[k])
    }

    /// The Gcells as `(x, y)`, source to target.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + 'a {
        let nx = self.nx;
        self.nodes.iter().map(move |&n| cell(nx, n))
    }

    /// The Gcells `range` of this path.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds.
    pub(crate) fn slice(&self, range: Range<usize>) -> PathRef<'a> {
        PathRef {
            nodes: &self.nodes[range],
            nx: self.nx,
        }
    }
}

impl PartialEq<[(usize, usize)]> for PathRef<'_> {
    fn eq(&self, path: &[(usize, usize)]) -> bool {
        self.len() == path.len() && self.cells().eq(path.iter().copied())
    }
}

/// The unit moves of a path given as its cells: `(from, to, direction)`.
pub(crate) fn moves(
    cells: impl IntoIterator<Item = (usize, usize)>,
) -> impl Iterator<Item = ((usize, usize), (usize, usize), Dir)> {
    cells
        .into_iter()
        .scan(None, |prev, b| {
            Some(prev.replace(b).map(|a| {
                let d = if a.1 == b.1 { Dir::H } else { Dir::V };
                (a, b, d)
            }))
        })
        .flatten()
}

/// Cost of traversing `path` under the grid's current state (as if the
/// path were about to be added).
pub fn path_cost(grid: &RoutingGrid, path: &Path) -> f64 {
    let nx = grid.nx();
    let mut cost = 0.0;
    let mut prev_dir: Option<Dir> = None;
    for (a, b, d) in moves(path.iter().copied()) {
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

/// Charges (`sign = +1`) or refunds (`sign = -1`) the usage of the path
/// whose cells are `cells`.
pub fn apply_path(
    grid: &mut RoutingGrid,
    cells: impl IntoIterator<Item = (usize, usize)>,
    sign: f64,
) {
    for (a, b, d) in moves(cells) {
        grid.charge(a.0, a.1, d, 0.5 * sign);
        grid.charge(b.0, b.1, d, 0.5 * sign);
    }
}

/// Whether any Gcell along the path whose cells are `cells` is overused.
pub fn path_overflows(grid: &RoutingGrid, cells: impl IntoIterator<Item = (usize, usize)>) -> bool {
    moves(cells)
        .any(|(a, b, d)| grid.overuse(a.0, a.1, d) > 1e-9 || grid.overuse(b.0, b.1, d) > 1e-9)
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
        apply_path(&mut g, p.iter().copied(), 1.0);
        assert!(g.to_congestion_map().total_demand() > 0.0);
        apply_path(&mut g, p.iter().copied(), -1.0);
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
        apply_path(&mut g, p.iter().copied(), 1.0);
        assert!(!path_overflows(&g, p.iter().copied()));
        // Route three more times over the same row: capacity 1 exceeded.
        for _ in 0..3 {
            apply_path(&mut g, p.iter().copied(), 1.0);
        }
        assert!(path_overflows(&g, p.iter().copied()));
    }

    /// The cells of every path of `paths`.
    fn cells_of(paths: &Paths) -> Vec<Path> {
        paths.iter().map(|p| p.cells().collect()).collect()
    }

    #[test]
    fn the_arena_overwrites_appends_and_compacts() {
        let row = |x0: usize, n: usize, y: usize| (x0..x0 + n).map(|x| (x, y)).collect::<Path>();
        let mut paths = Paths::with_capacity(10, 3, 12);
        for p in [row(0, 4, 0), row(2, 4, 5), row(1, 4, 9)] {
            paths.push(&p);
        }
        assert_eq!(paths.get(1).nodes(), &[52, 53, 54, 55]);
        assert_eq!(paths.get(2).cell(3), (4, 9));
        // Shorter: overwritten in place, its tail dead.
        paths.set(1, &row(3, 2, 5));
        assert_eq!((paths.live_cells(), paths.dead_cells()), (10, 2));
        // Longer: appended, its whole old span dead.
        paths.set(0, &row(0, 6, 1));
        assert_eq!((paths.live_cells(), paths.dead_cells()), (12, 6));
        assert_eq!(cells_of(&paths), [row(0, 6, 1), row(3, 2, 5), row(1, 4, 9)]);
        paths.set(2, &row(0, 8, 7));
        assert_eq!((paths.live_cells(), paths.dead_cells()), (16, 10));
        // Dead would outnumber live: compacted, path order kept.
        paths.set(2, &row(0, 9, 8));
        assert_eq!((paths.live_cells(), paths.dead_cells()), (17, 0));
        assert_eq!(cells_of(&paths), [row(0, 6, 1), row(3, 2, 5), row(0, 9, 8)]);
        assert_eq!(paths.get(0).nodes(), &[10, 11, 12, 13, 14, 15]);
        assert_eq!(paths.get(2).nodes()[0], 80);

        // Equality is by path, not by layout.
        let mut fresh = Paths::new(10);
        for p in cells_of(&paths) {
            fresh.push(&p);
        }
        paths.set(1, &row(3, 2, 5));
        assert!(fresh == paths);
        paths.set(1, &row(4, 2, 5));
        assert!(fresh != paths);
        assert!(paths.get(1) == row(4, 2, 5)[..]);
        assert!(paths.get(1) != row(3, 2, 5)[..]);
    }

    #[test]
    fn degenerate_single_cell_path() {
        let g = grid(1.0);
        assert_eq!(pattern_route(&g, (3, 3), (3, 3), 4), vec![(3, 3)]);
        assert_eq!(maze_route(&g, (3, 3), (3, 3)), vec![(3, 3)]);
        assert_eq!(path_cost(&g, &vec![(3, 3)]), 0.0);
    }
}
