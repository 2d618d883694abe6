//! Dense 2-D grids over the placement region.
//!
//! Both the density bins of the electrostatic placer (paper Eq. (3)) and the
//! Gcell maps of the congestion estimator (paper §II-C) are uniform grids
//! over the same region; [`Grid`] is the shared representation.

use crate::cast;
use crate::geom::{Point, Rect};

/// A dense `nx × ny` grid of `T` laid over a rectangular region.
///
/// Cell `(ix, iy)` covers
/// `[xl + ix·dx, xl + (ix+1)·dx) × [yl + iy·dy, yl + (iy+1)·dy)`.
/// Storage is row-major in `iy` (i.e. index = `iy * nx + ix`).
///
/// ```
/// use puffer_db::geom::{Point, Rect};
/// use puffer_db::grid::Grid;
/// let g: Grid<f64> = Grid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 5, 5);
/// assert_eq!(g.cell_of(Point::new(3.0, 9.0)), (1, 4));
/// assert_eq!(g.cell_rect(1, 4), Rect::new(2.0, 8.0, 4.0, 10.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    region: Rect,
    nx: usize,
    ny: usize,
    dx: f64,
    dy: f64,
    data: Vec<T>,
}

impl<T: Clone + Default> Grid<T> {
    /// Creates a grid filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or the region is degenerate.
    pub fn new(region: Rect, nx: usize, ny: usize) -> Self {
        Self::filled(region, nx, ny, T::default())
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a grid filled with copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or the region is degenerate.
    pub fn filled(region: Rect, nx: usize, ny: usize, value: T) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        assert!(
            region.width() > 0.0 && region.height() > 0.0,
            "grid region is degenerate"
        );
        let dx = region.width() / cast::idx_f64(nx);
        let dy = region.height() / cast::idx_f64(ny);
        Grid {
            region,
            nx,
            ny,
            dx,
            dy,
            data: vec![value; nx * ny],
        }
    }

    /// Fills every cell with copies of `value`.
    pub fn fill(&mut self, value: T) {
        for v in &mut self.data {
            *v = value.clone();
        }
    }
}

impl<T> Grid<T> {
    /// The covered region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell width.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Cell height.
    pub fn dy(&self) -> f64 {
        self.dy
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has zero cells (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if out of bounds.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(
            ix < self.nx && iy < self.ny,
            "grid index ({ix},{iy}) out of bounds"
        );
        iy * self.nx + ix
    }

    /// Reference to the value in cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, ix: usize, iy: usize) -> &T {
        &self.data[self.idx(ix, iy)]
    }

    /// Mutable reference to the value in cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at_mut(&mut self, ix: usize, iy: usize) -> &mut T {
        let i = self.idx(ix, iy);
        &mut self.data[i]
    }

    /// The raw row-major data slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw mutable row-major data slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Grid cell containing `p`, clamped to the boundary for points outside
    /// the region.
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x - self.region.xl) / self.dx).floor();
        let iy = ((p.y - self.region.yl) / self.dy).floor();
        (
            cast::trunc_idx(ix.max(0.0)).min(self.nx - 1),
            cast::trunc_idx(iy.max(0.0)).min(self.ny - 1),
        )
    }

    /// The rectangle covered by cell `(ix, iy)`.
    pub fn cell_rect(&self, ix: usize, iy: usize) -> Rect {
        let xl = self.region.xl + cast::idx_f64(ix) * self.dx;
        let yl = self.region.yl + cast::idx_f64(iy) * self.dy;
        Rect::new(xl, yl, xl + self.dx, yl + self.dy)
    }

    /// Inclusive index range `(ix_lo..=ix_hi, iy_lo..=iy_hi)` of cells
    /// overlapping `r` (clamped to the grid). Returns `None` when `r` does
    /// not overlap the region at all.
    pub fn cells_overlapping(&self, r: &Rect) -> Option<(usize, usize, usize, usize)> {
        if !r.overlaps(&self.region) {
            return None;
        }
        let c = r.intersection(&self.region);
        let ix_lo =
            cast::trunc_idx(((c.xl - self.region.xl) / self.dx).floor().max(0.0)).min(self.nx - 1);
        let iy_lo =
            cast::trunc_idx(((c.yl - self.region.yl) / self.dy).floor().max(0.0)).min(self.ny - 1);
        // Subtract a hair so rects ending exactly on a boundary do not bleed
        // into the next cell.
        let eps = 1e-12 * (self.dx + self.dy);
        let ix_hi =
            cast::trunc_idx(((c.xh - self.region.xl) / self.dx - eps).floor().max(0.0)).min(self.nx - 1);
        let iy_hi =
            cast::trunc_idx(((c.yh - self.region.yl) / self.dy - eps).floor().max(0.0)).min(self.ny - 1);
        Some((ix_lo, ix_hi.max(ix_lo), iy_lo, iy_hi.max(iy_lo)))
    }

    /// Iterator over `((ix, iy), &T)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let nx = self.nx;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i % nx, i / nx), v))
    }

    /// Maps every value through `f`, producing a grid of the same shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            region: self.region,
            nx: self.nx,
            ny: self.ny,
            dx: self.dx,
            dy: self.dy,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl Grid<f64> {
    /// Sum of all cell values.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Splats `amount` uniformly over the part of `r` inside the region,
    /// area-weighted per overlapped cell. A rect with zero area deposits the
    /// whole `amount` into its containing cell.
    ///
    /// Returns the inclusive cell window `(ix_lo, ix_hi, iy_lo, iy_hi)`
    /// outside which nothing was written (`None` when nothing was written
    /// at all), so a caller reusing a scratch grid can find — and clear —
    /// what a batch of splats touched without scanning the whole grid.
    pub fn splat(&mut self, r: &Rect, amount: f64) -> Option<(usize, usize, usize, usize)> {
        if amount == 0.0 {
            return None;
        }
        if r.area() <= 0.0 {
            let (ix, iy) = self.cell_of(r.center());
            *self.at_mut(ix, iy) += amount;
            return Some((ix, ix, iy, iy));
        }
        let (ix_lo, ix_hi, iy_lo, iy_hi) = self.cells_overlapping(r)?;
        let clipped = r.intersection(&self.region);
        let total = clipped.area();
        if total <= 0.0 {
            return None;
        }
        // Separable overlap: a cell's overlap area is (x-extent overlap) ×
        // (y-extent overlap), so compute the y part once per row and only
        // the x part per cell — the same min/max/multiply operand values
        // the old per-cell `Rect::intersection(..).area()` produced (the
        // result is bit-identical), at half the arithmetic and without
        // materializing a Rect per cell.
        for iy in iy_lo..=iy_hi {
            let cyl = self.region.yl + cast::idx_f64(iy) * self.dy;
            let oyl = clipped.yl.max(cyl);
            let oy = clipped.yh.min(cyl + self.dy).max(oyl) - oyl;
            let row = iy * self.nx;
            for ix in ix_lo..=ix_hi {
                let cxl = self.region.xl + cast::idx_f64(ix) * self.dx;
                let oxl = clipped.xl.max(cxl);
                let ox = clipped.xh.min(cxl + self.dx).max(oxl) - oxl;
                let ov = ox * oy;
                if ov > 0.0 {
                    self.data[row + ix] += amount * ov / total;
                }
            }
        }
        Some((ix_lo, ix_hi, iy_lo, iy_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid<f64> {
        Grid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 5, 5)
    }

    #[test]
    fn geometry_derivation() {
        let g = grid();
        assert_eq!(g.nx(), 5);
        assert_eq!(g.dx(), 2.0);
        assert_eq!(g.len(), 25);
        assert_eq!(g.cell_rect(0, 0), Rect::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(g.cell_rect(4, 4), Rect::new(8.0, 8.0, 10.0, 10.0));
    }

    #[test]
    fn cell_of_clamps() {
        let g = grid();
        assert_eq!(g.cell_of(Point::new(-5.0, -5.0)), (0, 0));
        assert_eq!(g.cell_of(Point::new(50.0, 50.0)), (4, 4));
        assert_eq!(g.cell_of(Point::new(9.999, 0.0)), (4, 0));
    }

    #[test]
    fn indexing_round_trips() {
        let mut g = grid();
        *g.at_mut(3, 2) = 7.5;
        assert_eq!(*g.at(3, 2), 7.5);
        assert_eq!(g.as_slice()[g.idx(3, 2)], 7.5);
    }

    #[test]
    fn cells_overlapping_clamps_and_rejects() {
        let g = grid();
        assert_eq!(
            g.cells_overlapping(&Rect::new(1.0, 1.0, 5.0, 3.0)),
            Some((0, 2, 0, 1))
        );
        // Rect ending exactly on a cell boundary stays in the lower cell.
        assert_eq!(
            g.cells_overlapping(&Rect::new(0.0, 0.0, 2.0, 2.0)),
            Some((0, 0, 0, 0))
        );
        assert_eq!(
            g.cells_overlapping(&Rect::new(100.0, 100.0, 101.0, 101.0)),
            None
        );
    }

    #[test]
    fn splat_conserves_mass_inside() {
        let mut g = grid();
        g.splat(&Rect::new(1.0, 1.0, 5.0, 5.0), 8.0);
        assert!((g.sum() - 8.0).abs() < 1e-9);
        // Cell (0,0) holds the 1x1 corner of the 4x4 rect: 8 * 1/16.
        assert!((*g.at(0, 0) - 0.5).abs() < 1e-9);
        // Cell (1,1) is fully covered: 8 * 4/16.
        assert!((*g.at(1, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn splat_reports_the_window_it_wrote() {
        let mut g = grid();
        let wide = Rect::new(1.0, 1.0, 5.0, 3.0);
        assert_eq!(g.splat(&wide, 8.0), Some((0, 2, 0, 1)));
        let point = Rect::new(3.0, 3.0, 3.0, 3.0);
        assert_eq!(g.splat(&point, 1.0), Some((1, 1, 1, 1)));
        assert_eq!(g.splat(&wide, 0.0), None);
        assert_eq!(g.splat(&Rect::new(20.0, 20.0, 21.0, 21.0), 1.0), None);
        // Every non-zero cell lies inside the union of the reported windows.
        for ((ix, iy), v) in g.iter() {
            assert!(*v == 0.0 || (ix <= 2 && iy <= 1), "({ix},{iy}) = {v}");
        }
    }

    #[test]
    fn splat_clips_to_region() {
        let mut g = grid();
        // Half the rect hangs outside; all mass lands in the clipped part.
        g.splat(&Rect::new(-2.0, 0.0, 2.0, 2.0), 4.0);
        assert!((g.sum() - 4.0).abs() < 1e-9);
        assert!((*g.at(0, 0) - 4.0).abs() < 1e-9);
    }

    /// Regression: the separable splat must reproduce the per-cell
    /// `intersection().area()` formulation bit-for-bit (density partials
    /// feed the bit-identity parallel gates).
    #[test]
    fn splat_matches_per_cell_intersection_bitwise() {
        let mut fast = grid();
        let r = Rect::new(0.7, 1.3, 6.9, 8.05);
        fast.splat(&r, 3.7);
        let mut slow = grid();
        let (ix_lo, ix_hi, iy_lo, iy_hi) = slow.cells_overlapping(&r).unwrap();
        let clipped = r.intersection(&Rect::new(0.0, 0.0, 10.0, 10.0));
        let total = clipped.area();
        for iy in iy_lo..=iy_hi {
            for ix in ix_lo..=ix_hi {
                let cell = slow.cell_rect(ix, iy);
                let ov = clipped.intersection(&cell).area();
                if ov > 0.0 {
                    *slow.at_mut(ix, iy) += 3.7 * ov / total;
                }
            }
        }
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn splat_of_point_rect_hits_one_cell() {
        let mut g = grid();
        g.splat(&Rect::new(3.0, 3.0, 3.0, 3.0), 1.0);
        assert_eq!(*g.at(1, 1), 1.0);
    }

    #[test]
    fn map_preserves_shape() {
        let mut g = grid();
        *g.at_mut(2, 2) = -3.0;
        let m = g.map(|v| v.abs() as i64);
        assert_eq!(*m.at(2, 2), 3);
        assert_eq!(m.nx(), g.nx());
    }

    #[test]
    fn iter_yields_row_major_coords() {
        let g: Grid<i32> = Grid::new(Rect::new(0.0, 0.0, 4.0, 2.0), 2, 2);
        let coords: Vec<_> = g.iter().map(|(c, _)| c).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_dimension_panics() {
        let _: Grid<f64> = Grid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0, 3);
    }
}
