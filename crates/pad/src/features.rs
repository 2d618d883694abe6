//! CNN- and GNN-inspired feature extraction (paper §III-B.1).
//!
//! Three families of per-cell features are computed from a congestion map
//! and the current placement:
//!
//! * **local** — the cell's own Gcell congestion (Eq. (9)–(11), keeping the
//!   signed value so slack regions count negatively) and local pin density;
//! * **CNN-inspired** — mean-filter aggregates of congestion and pin
//!   density over an expanded window around the cell, like a convolution
//!   kernel reading the neighbourhood;
//! * **GNN-inspired** — pin congestion (Eq. (12)–(13)): for each pin, the
//!   minimum over all candidate L/Z routes of its two-point nets of the
//!   maximum congestion along the route — information aggregated over the
//!   routing topology graph rather than Euclidean space.

use puffer_congest::CongestionMap;
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_db::grid::Grid;
use puffer_db::netlist::CellId;
use puffer_flute::Topology;

/// Number of features per cell.
pub const NUM_FEATURES: usize = 5;

/// Feature indices into a [`FeatureMatrix`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Local congestion `LCg(c)` (Eq. (9)).
    LocalCongestion = 0,
    /// Local pin density.
    LocalPinDensity = 1,
    /// Surrounding (mean-filtered) congestion.
    SurroundCongestion = 2,
    /// Surrounding (mean-filtered) pin density.
    SurroundPinDensity = 3,
    /// Pin congestion `PCg(c)` (Eq. (12)).
    PinCongestion = 4,
}

impl Feature {
    /// Row offset of this feature in a [`FeatureMatrix`] row; mirrors the
    /// enum discriminants without an `as` cast.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Feature::LocalCongestion => 0,
            Feature::LocalPinDensity => 1,
            Feature::SurroundCongestion => 2,
            Feature::SurroundPinDensity => 3,
            Feature::PinCongestion => 4,
        }
    }
}

/// Dense per-cell feature storage: `cells × NUM_FEATURES`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    num_cells: usize,
}

impl FeatureMatrix {
    /// Builds a matrix with only the local-congestion feature populated
    /// (zeros elsewhere) — useful for tests and custom optimizers that
    /// bring their own congestion signal.
    ///
    /// # Panics
    ///
    /// Panics if `lcg.len() > num_cells`.
    pub fn from_local_congestion(num_cells: usize, lcg: &[f64]) -> Self {
        assert!(lcg.len() <= num_cells, "more congestion values than cells");
        let mut m = Self::zeroed(num_cells);
        for (i, &v) in lcg.iter().enumerate() {
            m.set(CellId(cast::idx_u32(i)), Feature::LocalCongestion, v);
        }
        m
    }

    pub(crate) fn zeroed(num_cells: usize) -> Self {
        FeatureMatrix {
            data: vec![0.0; num_cells * NUM_FEATURES],
            num_cells,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// The feature vector of one cell.
    pub fn row(&self, cell: CellId) -> &[f64] {
        let i = cell.index() * NUM_FEATURES;
        &self.data[i..i + NUM_FEATURES]
    }

    /// One feature value.
    pub fn get(&self, cell: CellId, feature: Feature) -> f64 {
        self.data[cell.index() * NUM_FEATURES + feature.index()]
    }

    pub(crate) fn set(&mut self, cell: CellId, feature: Feature, value: f64) {
        self.data[cell.index() * NUM_FEATURES + feature.index()] = value;
    }
}

/// Feature-extraction configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Mean-filter kernel radius in Gcells (kernel size = `2r + 1`).
    pub kernel_radius: usize,
    /// Cap on enumerated Z-path bend positions per segment (the L paths are
    /// always considered); bends are sampled evenly when the span is wider.
    pub max_z_bends: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            kernel_radius: 2,
            max_z_bends: 8,
        }
    }
}

/// Extracts the full feature matrix for every cell.
///
/// `map` must come from the same design/Gcell geometry. The returned matrix
/// has one row per cell (fixed macros get all-zero rows: they are never
/// padded).
pub fn extract_features(
    design: &Design,
    placement: &Placement,
    map: &CongestionMap,
    config: &FeatureConfig,
) -> FeatureMatrix {
    let netlist = design.netlist();
    let mut out = FeatureMatrix::zeroed(netlist.num_cells());

    // Scalar congestion per Gcell (Eq. (10)) and pin density per Gcell.
    let template = map.h_capacity();
    let mut cg: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
    for iy in 0..map.ny() {
        for ix in 0..map.nx() {
            *cg.at_mut(ix, iy) = map.cg(ix, iy);
        }
    }
    let site_area = design.tech().site_width * design.tech().row_height;
    let sites_per_gcell = (template.dx() * template.dy() / site_area).max(1.0);
    let mut pin_density: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
    for i in 0..netlist.num_pins() {
        let pid = puffer_db::netlist::PinId(cast::idx_u32(i));
        let (ix, iy) = pin_density.cell_of(placement.pin_pos(netlist, pid));
        *pin_density.at_mut(ix, iy) += 1.0 / sites_per_gcell;
    }

    // Prefix sums for O(1) mean filters.
    let cg_sum = PrefixSum2D::new(&cg);
    let pd_sum = PrefixSum2D::new(&pin_density);

    // Local + CNN features.
    for (id, cell) in netlist.iter_cells() {
        if !cell.is_movable() {
            continue;
        }
        let shape = placement.cell_rect(netlist, id);
        let Some((ix_lo, ix_hi, iy_lo, iy_hi)) = cg.cells_overlapping(&shape) else {
            continue;
        };
        // LCg(c): max congestion over the Gcells the cell overlaps (Eq. 9).
        let mut lcg = f64::NEG_INFINITY;
        let mut lpd = f64::NEG_INFINITY;
        for iy in iy_lo..=iy_hi {
            for ix in ix_lo..=ix_hi {
                lcg = lcg.max(*cg.at(ix, iy));
                lpd = lpd.max(*pin_density.at(ix, iy));
            }
        }
        out.set(id, Feature::LocalCongestion, lcg);
        out.set(id, Feature::LocalPinDensity, lpd);

        // Surrounding: mean filter over the bbox expanded by the kernel
        // radius (the convolution of §III-B.1 with a mean kernel).
        let r = config.kernel_radius;
        let sx_lo = ix_lo.saturating_sub(r);
        let sy_lo = iy_lo.saturating_sub(r);
        let sx_hi = (ix_hi + r).min(cg.nx() - 1);
        let sy_hi = (iy_hi + r).min(cg.ny() - 1);
        out.set(
            id,
            Feature::SurroundCongestion,
            cg_sum.mean(sx_lo, sx_hi, sy_lo, sy_hi),
        );
        out.set(
            id,
            Feature::SurroundPinDensity,
            pd_sum.mean(sx_lo, sx_hi, sy_lo, sy_hi),
        );
    }

    // GNN feature: pin congestion over the routing topology.
    let mut pin_cg = vec![f64::INFINITY; netlist.num_pins()];
    for (net_id, _) in netlist.iter_nets() {
        if netlist.net_degree(net_id) < 2 {
            continue;
        }
        let topo = Topology::for_net(netlist, placement, net_id);
        for seg in topo.segments() {
            let na = topo.nodes()[seg.a];
            let nb = topo.nodes()[seg.b];
            let a = cg.cell_of(na.pos);
            let b = cg.cell_of(nb.pos);
            let best = best_path_congestion(&cg, a, b, config.max_z_bends);
            for &(node, _other) in &[(seg.a, seg.b), (seg.b, seg.a)] {
                for &pid in topo.pins_at(node) {
                    if pid.index() < pin_cg.len() {
                        let slot = &mut pin_cg[pid.index()];
                        *slot = slot.min(best);
                    }
                }
            }
        }
    }
    for (id, cell) in netlist.iter_cells() {
        if !cell.is_movable() {
            continue;
        }
        let total: f64 = netlist
            .cell_pins(id)
            .iter()
            .map(|p| {
                let v = pin_cg[p.index()];
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            })
            .sum();
        out.set(id, Feature::PinCongestion, total);
    }
    out
}

/// Minimum over candidate L/Z paths of the maximum congestion along the
/// path (Eq. (13) for one two-point net).
fn best_path_congestion(
    cg: &Grid<f64>,
    a: (usize, usize),
    b: (usize, usize),
    max_z_bends: usize,
) -> f64 {
    let (ax, ay) = a;
    let (bx, by) = b;
    if ax == bx && ay == by {
        return *cg.at(ax, ay);
    }
    if ax == bx || ay == by {
        // Straight path: single candidate.
        return max_along(cg, a, (bx, by));
    }
    let mut best = f64::INFINITY;
    // Two L paths: bend at (bx, ay) and at (ax, by).
    best = best.min(path_max_l(cg, a, b, (bx, ay)));
    best = best.min(path_max_l(cg, a, b, (ax, by)));
    // Z paths with a vertical middle leg at column cx (H-V-H) ...
    for cx in sample_between(ax, bx, max_z_bends) {
        let m = max_along(cg, (ax.min(cx), ay), (ax.max(cx), ay))
            .max(max_along(cg, (cx, ay.min(by)), (cx, ay.max(by))))
            .max(max_along(cg, (cx.min(bx), by), (cx.max(bx), by)));
        best = best.min(m);
    }
    // ... and with a horizontal middle leg at row cy (V-H-V).
    for cy in sample_between(ay, by, max_z_bends) {
        let m = max_along(cg, (ax, ay.min(cy)), (ax, ay.max(cy)))
            .max(max_along(cg, (ax.min(bx), cy), (ax.max(bx), cy)))
            .max(max_along(cg, (bx, cy.min(by)), (bx, cy.max(by))));
        best = best.min(m);
    }
    best
}

fn path_max_l(cg: &Grid<f64>, a: (usize, usize), b: (usize, usize), bend: (usize, usize)) -> f64 {
    let leg1 = max_along(
        cg,
        (a.0.min(bend.0), a.1.min(bend.1)),
        (a.0.max(bend.0), a.1.max(bend.1)),
    );
    let leg2 = max_along(
        cg,
        (b.0.min(bend.0), b.1.min(bend.1)),
        (b.0.max(bend.0), b.1.max(bend.1)),
    );
    leg1.max(leg2)
}

/// Maximum congestion along a straight Gcell run (inclusive); `a` must be
/// the min corner component-wise for the straight legs used here.
fn max_along(cg: &Grid<f64>, a: (usize, usize), b: (usize, usize)) -> f64 {
    debug_assert!(
        a.0 == b.0 || a.1 == b.1,
        "max_along requires a straight run"
    );
    let mut m = f64::NEG_INFINITY;
    for x in a.0..=b.0 {
        for y in a.1..=b.1 {
            m = m.max(*cg.at(x, y));
        }
    }
    m
}

/// Strictly-between sample positions, at most `max` of them, evenly spaced.
fn sample_between(a: usize, b: usize, max: usize) -> Vec<usize> {
    let (lo, hi) = (a.min(b), a.max(b));
    if hi - lo < 2 || max == 0 {
        return Vec::new();
    }
    let count = (hi - lo - 1).min(max);
    (1..=count)
        .map(|i| lo + i * (hi - lo) / (count + 1))
        .filter(|&v| v > lo && v < hi)
        .collect()
}

/// 2-D inclusive prefix sums for O(1) window means.
struct PrefixSum2D {
    sums: Vec<f64>,
    nx: usize,
}

impl PrefixSum2D {
    fn new(g: &Grid<f64>) -> Self {
        let (nx, ny) = (g.nx(), g.ny());
        let mut sums = vec![0.0; (nx + 1) * (ny + 1)];
        for iy in 0..ny {
            for ix in 0..nx {
                sums[(iy + 1) * (nx + 1) + (ix + 1)] =
                    g.at(ix, iy) + sums[iy * (nx + 1) + (ix + 1)] + sums[(iy + 1) * (nx + 1) + ix]
                        - sums[iy * (nx + 1) + ix];
            }
        }
        PrefixSum2D { sums, nx }
    }

    fn mean(&self, x_lo: usize, x_hi: usize, y_lo: usize, y_hi: usize) -> f64 {
        let w = self.nx + 1;
        let total = self.sums[(y_hi + 1) * w + (x_hi + 1)]
            - self.sums[y_lo * w + (x_hi + 1)]
            - self.sums[(y_hi + 1) * w + x_lo]
            + self.sums[y_lo * w + x_lo];
        total / cast::idx_f64((x_hi - x_lo + 1) * (y_hi - y_lo + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_congest::{CongestionEstimator, EstimatorConfig};
    use puffer_db::geom::{Point, Rect};
    use puffer_gen::{generate, GeneratorConfig};

    fn cg_grid(values: &[(usize, usize, f64)], n: usize) -> Grid<f64> {
        let mut g: Grid<f64> = Grid::new(Rect::new(0.0, 0.0, n as f64, n as f64), n, n);
        for &(x, y, v) in values {
            *g.at_mut(x, y) = v;
        }
        g
    }

    #[test]
    fn straight_path_is_its_own_best() {
        let g = cg_grid(&[(2, 3, 0.9)], 8);
        assert_eq!(best_path_congestion(&g, (0, 3), (5, 3), 8), 0.9);
        assert_eq!(best_path_congestion(&g, (2, 0), (2, 7), 8), 0.9);
        assert_eq!(best_path_congestion(&g, (4, 4), (4, 4), 8), 0.0);
    }

    #[test]
    fn l_and_z_paths_route_around_hotspots() {
        // Both L bends are hot, but a Z path through the middle is clean.
        let mut vals = Vec::new();
        for x in 0..8 {
            vals.push((x, 0, if x > 2 { 1.0 } else { 0.0 })); // bottom row hot right
            vals.push((x, 5, if x < 5 { 1.0 } else { 0.0 })); // top row hot left
        }
        let g = cg_grid(&vals, 8);
        // From (0,0) to (7,5): L via (7,0) hits bottom-right heat, L via
        // (0,5) hits top-left heat; a Z bending at column 1..2 avoids both?
        // Bottom row is hot for x>2, so the H leg 0..cx at y=0 is clean for
        // cx<=2; top row hot for x<5 — H leg cx..7 at y=5 passes x<5: hot.
        // V-H-V: vertical at x=0 (clean), horizontal at middle row y (clean),
        // vertical at x=7 (clean) => best = 0.
        let best = best_path_congestion(&g, (0, 0), (7, 5), 8);
        assert_eq!(best, 0.0);
    }

    #[test]
    fn sample_between_bounds_and_count() {
        assert!(sample_between(3, 4, 8).is_empty());
        let s = sample_between(0, 10, 4);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|&v| v > 0 && v < 10));
        let all = sample_between(0, 5, 100);
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn prefix_sum_mean_matches_naive() {
        let mut g: Grid<f64> = Grid::new(Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        for iy in 0..4 {
            for ix in 0..4 {
                *g.at_mut(ix, iy) = (ix * 4 + iy) as f64;
            }
        }
        let ps = PrefixSum2D::new(&g);
        for (x_lo, x_hi, y_lo, y_hi) in [(0, 3, 0, 3), (1, 2, 0, 1), (2, 2, 3, 3)] {
            let mut sum = 0.0;
            let mut n = 0;
            for iy in y_lo..=y_hi {
                for ix in x_lo..=x_hi {
                    sum += *g.at(ix, iy);
                    n += 1;
                }
            }
            assert!((ps.mean(x_lo, x_hi, y_lo, y_hi) - sum / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn features_on_generated_design() {
        let d = generate(&GeneratorConfig {
            num_cells: 300,
            num_nets: 330,
            num_macros: 1,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let est = CongestionEstimator::new(&d, EstimatorConfig::default());
        // Spread cells a bit so segments exist.
        let mut p = d.initial_placement();
        let r = d.region();
        for (i, id) in d.netlist().movable_cells().enumerate() {
            p.set(
                id,
                Point::new(
                    r.xl + (i % 17) as f64 / 17.0 * r.width(),
                    r.yl + (i % 13) as f64 / 13.0 * r.height(),
                ),
            );
        }
        let map = est.try_estimate(&d, &p).unwrap();
        let fm = extract_features(&d, &p, &map, &FeatureConfig::default());
        assert_eq!(fm.num_cells(), d.netlist().num_cells());
        // All features finite; at least one cell has nonzero pin density.
        let mut any_pd = false;
        for id in d.netlist().movable_cells() {
            let row = fm.row(id);
            assert!(row.iter().all(|v| v.is_finite()), "cell {id}: {row:?}");
            if fm.get(id, Feature::LocalPinDensity) > 0.0 {
                any_pd = true;
            }
        }
        assert!(any_pd);
        // Macports (fixed) rows stay zero.
        for id in d.netlist().fixed_macros() {
            assert!(fm.row(id).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn surround_feature_smooths_local_feature() {
        // A cell on a lone hotspot has local >= surround; a cell in a
        // uniform field has local == surround.
        let d = generate(&GeneratorConfig {
            num_cells: 64,
            num_nets: 70,
            num_macros: 0,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let est = CongestionEstimator::new(&d, EstimatorConfig::default());
        let mut p = d.initial_placement();
        // Pile everything into one corner Gcell region to make a hotspot.
        let r = d.region();
        for id in d.netlist().movable_cells() {
            p.set(id, Point::new(r.xl + 0.6, r.yl + 0.6));
        }
        let map = est.try_estimate(&d, &p).unwrap();
        let fm = extract_features(&d, &p, &map, &FeatureConfig::default());
        let id = d.netlist().movable_cells().next().unwrap();
        assert!(
            fm.get(id, Feature::LocalCongestion) >= fm.get(id, Feature::SurroundCongestion),
            "hotspot local should dominate surround"
        );
    }
}
