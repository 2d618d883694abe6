//! Blockage-aware routing-capacity map generation (paper Eq. (8)).
//!
//! Capacity is evaluated per Gcell (not per edge), matching the Gcell-based
//! routing resource model of §II-C: a Gcell's horizontal capacity is the
//! number of horizontal tracks all horizontal layers provide across its
//! height, minus the tracks blocked by macros overlapping the Gcell, minus a
//! uniform power-grid derate.
//!
//! The Gcell geometry is declared here once: [`GCELL_ROWS`] and
//! [`POWER_DERATE`] are what the estimator, the global router and its layer
//! assignment all build on, so the map a placer reads and the map the
//! router judges it by share their Gcells by construction.

use puffer_db::cast;
use puffer_db::design::Design;
use puffer_db::geom::Rect;
use puffer_db::grid::Grid;
use puffer_db::tech::PreferredDirection;

/// Gcell edge length in multiples of the row height (square Gcells).
pub const GCELL_ROWS: f64 = 3.0;

/// Fraction of every Gcell's capacity reserved for the power grid.
pub const POWER_DERATE: f64 = 0.12;

/// Builds the `(horizontal, vertical)` capacity maps for a design on
/// Gcells `edge_rows` row heights wide ([`GCELL_ROWS`] unless the
/// estimator was coarsened).
///
/// Macros are assumed to block every routing layer except the topmost layer
/// in each direction (the standard over-the-macro routing assumption), so a
/// Gcell fully covered by a macro keeps only its top-layer tracks.
pub fn build_capacity(design: &Design, edge_rows: f64) -> (Grid<f64>, Grid<f64>) {
    let tech = design.tech();
    let region = design.region();
    let gsize = (edge_rows * tech.row_height).max(tech.row_height);
    let nx = cast::trunc_idx((region.width() / gsize).ceil().max(1.0));
    let ny = cast::trunc_idx((region.height() / gsize).ceil().max(1.0));

    // The Gcell geometry alone (`()` cells hold no data), walked below
    // while both capacity maps are written.
    let gcells: Grid<()> = Grid::new(region, nx, ny);
    let dy = gcells.dy();
    let dx = gcells.dx();

    // Basic capacity: horizontal tracks stack across the Gcell height,
    // vertical tracks across its width.
    let keep = 1.0 - POWER_DERATE;
    let h_basic = tech.basic_capacity(PreferredDirection::Horizontal, dy) * keep;
    let v_basic = tech.basic_capacity(PreferredDirection::Vertical, dx) * keep;
    let mut h_cap = Grid::filled(region, nx, ny, h_basic);
    let mut v_cap = Grid::filled(region, nx, ny, v_basic);

    // Blocked capacity: per overlapping macro, subtract the tracks of all
    // but the top routing layer in each direction, prorated by overlap.
    let h_layers: Vec<_> = tech.horizontal_layers().collect();
    let v_layers: Vec<_> = tech.vertical_layers().collect();
    let h_blocked_per_len: f64 = h_layers
        .iter()
        .take(h_layers.len().saturating_sub(1))
        .map(|l| 1.0 / l.pitch())
        .sum();
    let v_blocked_per_len: f64 = v_layers
        .iter()
        .take(v_layers.len().saturating_sub(1))
        .map(|l| 1.0 / l.pitch())
        .sum();

    for_each_macro_overlap(design, &gcells, |ix, iy, ov, cell| {
        // OL_H(b, g): the vertical extent of the overlap scaled by its
        // horizontal coverage — i.e. the blocked horizontal track length.
        let h_fraction = ov.width() / cell.width();
        let v_fraction = ov.height() / cell.height();
        let h_loss = ov.height() * h_blocked_per_len * h_fraction;
        let v_loss = ov.width() * v_blocked_per_len * v_fraction;
        let hc = h_cap.at_mut(ix, iy);
        *hc = (*hc - h_loss).max(0.0);
        let vc = v_cap.at_mut(ix, iy);
        *vc = (*vc - v_loss).max(0.0);
    });
    (h_cap, v_cap)
}

/// Calls `visit(ix, iy, overlap, gcell)` for every Gcell of `gcells` that a
/// macro overlaps with positive area: macro by macro in design order, each
/// macro's Gcells row by row. The one macro-blockage walk of Eq. (8), shared
/// by [`build_capacity`] and the router's per-layer capacity.
pub fn for_each_macro_overlap<T>(
    design: &Design,
    gcells: &Grid<T>,
    mut visit: impl FnMut(usize, usize, &Rect, &Rect),
) {
    for (_, shape) in design.macro_shapes() {
        let Some((ix_lo, ix_hi, iy_lo, iy_hi)) = gcells.cells_overlapping(&shape) else {
            continue;
        };
        for iy in iy_lo..=iy_hi {
            for ix in ix_lo..=ix_hi {
                let cell = gcells.cell_rect(ix, iy);
                let ov = shape.intersection(&cell);
                if ov.area() <= 0.0 {
                    continue;
                }
                visit(ix, iy, &ov, &cell);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::{Point, Rect};
    use puffer_db::netlist::{CellKind, NetlistBuilder};
    use puffer_db::tech::Technology;

    fn empty_design(w: f64, h: f64) -> Design {
        let nl = NetlistBuilder::new().build().unwrap();
        Design::new("t", nl, Technology::default(), Rect::new(0.0, 0.0, w, h)).unwrap()
    }

    fn design_with_macro() -> Design {
        let mut nb = NetlistBuilder::new();
        let m = nb.add_cell("ram", 12.0, 12.0, CellKind::FixedMacro);
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 48.0, 48.0),
        )
        .unwrap();
        d.place_macro(m, Point::new(24.0, 24.0)).unwrap();
        d
    }

    #[test]
    fn uniform_capacity_without_blockages() {
        let d = empty_design(30.0, 30.0);
        let (h, v) = build_capacity(&d, GCELL_ROWS);
        let h0 = *h.at(0, 0);
        assert!(h0 > 0.0);
        assert!(h.as_slice().iter().all(|&c| (c - h0).abs() < 1e-9));
        let v0 = *v.at(0, 0);
        assert!(v.as_slice().iter().all(|&c| (c - v0).abs() < 1e-9));
    }

    #[test]
    fn capacity_scales_with_derate() {
        let d = empty_design(30.0, 30.0);
        let (h, v) = build_capacity(&d, GCELL_ROWS);
        let tech = d.tech();
        let keep = 1.0 - POWER_DERATE;
        let h_tracks = tech.basic_capacity(PreferredDirection::Horizontal, h.dy());
        let v_tracks = tech.basic_capacity(PreferredDirection::Vertical, v.dx());
        assert!((h.at(0, 0) / h_tracks - keep).abs() < 1e-9);
        assert!((v.at(0, 0) / v_tracks - keep).abs() < 1e-9);
    }

    #[test]
    fn macro_reduces_capacity_under_it() {
        let d = design_with_macro();
        let (h, v) = build_capacity(&d, GCELL_ROWS);
        let (cx, cy) = h.cell_of(Point::new(24.0, 24.0));
        let (ex, ey) = h.cell_of(Point::new(3.0, 3.0));
        assert!(*h.at(cx, cy) < *h.at(ex, ey));
        assert!(*v.at(cx, cy) < *v.at(ex, ey));
        // But not to zero: the top layer still routes over the macro.
        assert!(*h.at(cx, cy) > 0.0);
        assert!(*v.at(cx, cy) > 0.0);
    }

    #[test]
    fn partial_overlap_blocks_proportionally() {
        let d = design_with_macro();
        let (h, _) = build_capacity(&d, GCELL_ROWS);
        // A Gcell only partially covered by the macro loses less.
        let (cx, cy) = h.cell_of(Point::new(24.0, 24.0));
        let (px, py) = h.cell_of(Point::new(18.5, 24.0)); // macro edge at 18
        if (px, py) != (cx, cy) {
            assert!(*h.at(px, py) >= *h.at(cx, cy));
        }
    }

    #[test]
    fn capacity_is_never_negative() {
        // Even with huge blockage coverage.
        let mut nb = NetlistBuilder::new();
        let m = nb.add_cell("big", 29.0, 29.0, CellKind::FixedMacro);
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 30.0, 30.0),
        )
        .unwrap();
        d.place_macro(m, Point::new(15.0, 15.0)).unwrap();
        let (h, v) = build_capacity(&d, GCELL_ROWS);
        assert!(h.as_slice().iter().all(|&c| c >= 0.0));
        assert!(v.as_slice().iter().all(|&c| c >= 0.0));
    }
}
