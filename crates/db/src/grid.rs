//! Dense 2-D grids over the placement region.
//!
//! Both the density bins of the electrostatic placer (paper Eq. (3)) and the
//! Gcell maps of the congestion estimator (paper §II-C) are uniform grids
//! over the same region; [`Grid`] is the shared representation.
//!
//! Spreading a rectangle over the cells it covers ([`Grid::splat`]) and
//! averaging a grid over a rectangle are the same walk read two ways, and
//! the density partials and gradients built on them feed the placer's
//! bit-identity gates. So the overlap arithmetic exists once —
//! [`Overlap::for_each`] — and its invariant is: **a cell's overlap area is
//! `ox · oy`, from the operand values `Rect::intersection(..).area()` of
//! the clipped rectangle and the cell's rectangle would use, in that
//! order.**

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

    /// The walk over the cells `r` overlaps; `None` when `r` does not
    /// overlap the region at all.
    pub fn overlap(&self, r: &Rect) -> Option<Overlap> {
        let (ix_lo, ix_hi, iy_lo, iy_hi) = self.cells_overlapping(r)?;
        Some(Overlap {
            clipped: r.intersection(&self.region),
            ix_lo,
            ix_hi,
            iy_lo,
            iy_hi,
            xl: self.region.xl,
            yl: self.region.yl,
            dx: self.dx,
            dy: self.dy,
            nx: self.nx,
        })
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

/// The cells of one grid that one rectangle overlaps ([`Grid::overlap`]):
/// the only copy of the overlap arithmetic in the workspace. It borrows
/// nothing, so a visitor is free to write the grid it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overlap {
    /// The rectangle clipped to the region.
    clipped: Rect,
    ix_lo: usize,
    ix_hi: usize,
    iy_lo: usize,
    iy_hi: usize,
    /// The grid's geometry.
    xl: f64,
    yl: f64,
    dx: f64,
    dy: f64,
    nx: usize,
}

impl Overlap {
    /// Area of the rectangle inside the region — what the overlap areas
    /// add up to. Zero for a degenerate rectangle, which overlaps no cell.
    pub fn total(&self) -> f64 {
        self.clipped.area()
    }

    /// Calls `visit(flat index, overlap area)` for every cell the rectangle
    /// overlaps with positive area, row by row.
    ///
    /// Separable: a cell's overlap area is (x-extent overlap) × (y-extent
    /// overlap), so the y part is computed once per row and only the x
    /// part per cell — the same min/max/multiply operand values the
    /// per-cell `Rect::intersection(..).area()` produces, so the result is
    /// bit-identical to it.
    #[inline]
    pub fn for_each(&self, mut visit: impl FnMut(usize, f64)) {
        let clipped = &self.clipped;
        for iy in self.iy_lo..=self.iy_hi {
            let cyl = self.yl + cast::idx_f64(iy) * self.dy;
            let oyl = clipped.yl.max(cyl);
            let oy = clipped.yh.min(cyl + self.dy).max(oyl) - oyl;
            let row = iy * self.nx;
            for ix in self.ix_lo..=self.ix_hi {
                let cxl = self.xl + cast::idx_f64(ix) * self.dx;
                let oxl = clipped.xl.max(cxl);
                let ox = clipped.xh.min(cxl + self.dx).max(oxl) - oxl;
                let ov = ox * oy;
                if ov > 0.0 {
                    visit(row + ix, ov);
                }
            }
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
    pub fn splat(&mut self, r: &Rect, amount: f64) {
        self.deposit(r, amount, |_| {});
    }

    /// [`Grid::splat`], pushing onto `touched` the flat index of every cell
    /// the deposit moved off `+0.0` (the bit pattern, so a cell that turned
    /// `−0.0` or NaN counts and one whose addend rounded to zero does not).
    ///
    /// For a caller reusing a scratch grid that is `+0.0` between batches:
    /// after a batch of these over one list, every cell that is not `+0.0`
    /// is on the list — more than once if it came back to `+0.0` in
    /// between — so the batch can be found, and cleared, at the cost of
    /// what it wrote instead of a scan of the grid.
    pub fn splat_touched(&mut self, r: &Rect, amount: f64, touched: &mut Vec<usize>) {
        self.deposit(r, amount, |cell| touched.push(cell));
    }

    /// The one deposit behind both splats; `left_zero` hears of every cell
    /// moved off `+0.0`.
    #[inline]
    fn deposit(&mut self, r: &Rect, amount: f64, mut left_zero: impl FnMut(usize)) {
        /// Adds `v` to `slot`; whether that moved it off `+0.0`.
        #[inline]
        fn bump(slot: &mut f64, v: f64) -> bool {
            let was_zero = slot.to_bits() == 0;
            *slot += v;
            was_zero && slot.to_bits() != 0
        }
        if amount == 0.0 {
            return;
        }
        if r.area() <= 0.0 {
            let (ix, iy) = self.cell_of(r.center());
            let cell = self.idx(ix, iy);
            if bump(&mut self.data[cell], amount) {
                left_zero(cell);
            }
            return;
        }
        let Some(overlap) = self.overlap(r) else {
            return;
        };
        let total = overlap.total();
        overlap.for_each(|cell, ov| {
            if bump(&mut self.data[cell], amount * ov / total) {
                left_zero(cell);
            }
        });
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

    /// The cells of `g` that are not `+0.0`, by bit pattern.
    fn off_zero(g: &Grid<f64>) -> Vec<usize> {
        let cells = g.as_slice().iter().enumerate();
        cells
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(i, _)| i)
            .collect()
    }

    fn sorted_set(mut cells: Vec<usize>) -> Vec<usize> {
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    #[test]
    fn splat_touched_lists_exactly_the_cells_moved_off_zero() {
        let mut g = grid();
        let mut touched = Vec::new();
        let wide = Rect::new(1.0, 1.0, 5.0, 3.0);
        g.splat_touched(&wide, 8.0, &mut touched);
        assert_eq!(touched, vec![0, 1, 2, 5, 6, 7], "row by row");
        // A second deposit into cells already off zero lists only new ones.
        g.splat_touched(&Rect::new(3.0, 1.0, 7.0, 2.0), 1.0, &mut touched);
        assert_eq!(touched[6..], [3]);
        // The point splat of a zero-area rect, here clamped into the grid.
        g.splat_touched(&Rect::new(30.0, 3.0, 30.0, 3.0), 1.0, &mut touched);
        assert_eq!(touched[7..], [g.idx(4, 1)]);
        // Clipped: only the part inside the region is walked.
        g.splat_touched(&Rect::new(-4.0, 7.0, 1.0, 12.0), 2.0, &mut touched);
        assert_eq!(touched[8..], [g.idx(0, 3), g.idx(0, 4)]);
        // Nothing to deposit, nowhere to deposit it.
        let before = touched.len();
        g.splat_touched(&wide, 0.0, &mut touched);
        g.splat_touched(&wide, -0.0, &mut touched);
        g.splat_touched(&Rect::new(20.0, 20.0, 21.0, 21.0), 1.0, &mut touched);
        assert_eq!(touched.len(), before);
        assert_eq!(sorted_set(touched), off_zero(&g));
    }

    #[test]
    fn splat_touched_goes_by_the_bit_pattern() {
        let mut g = grid();
        let mut touched = Vec::new();
        let cell = Rect::new(2.0, 2.0, 4.0, 4.0);
        // An addend that rounds to zero leaves the cell at +0.0: unlisted.
        let half = Rect::new(2.0, 2.0, 8.0, 4.0);
        g.splat_touched(&half, 5e-324, &mut touched);
        assert!(touched.is_empty() && off_zero(&g).is_empty());
        // NaN and ∞ are off zero like any other value.
        g.splat_touched(&cell, f64::NAN, &mut touched);
        g.splat_touched(&Rect::new(6.0, 6.0, 8.0, 8.0), f64::INFINITY, &mut touched);
        assert_eq!(touched, vec![g.idx(1, 1), g.idx(3, 3)]);
        // A cell that came back to +0.0 is listed again when it leaves again,
        // so the list over-reports but never misses.
        let other = Rect::new(4.0, 0.0, 6.0, 2.0);
        g.splat_touched(&other, 3.0, &mut touched);
        g.splat_touched(&other, -3.0, &mut touched);
        assert_eq!(g.as_slice()[g.idx(2, 0)].to_bits(), 0);
        g.splat_touched(&other, 1.5, &mut touched);
        assert_eq!(touched[2..], [g.idx(2, 0), g.idx(2, 0)]);
        assert_eq!(sorted_set(touched), off_zero(&g));
    }

    /// The record is what `splat` would have written: same grid, bit for bit.
    #[test]
    fn splat_and_splat_touched_write_the_same_bits() {
        let (mut plain, mut recorded) = (grid(), grid());
        let mut touched = Vec::new();
        let rects = [
            (Rect::new(0.7, 1.3, 6.9, 8.05), 3.7),
            (Rect::new(-2.5, 4.4, 3.3, 20.0), 0.013),
            (Rect::new(5.0, 5.0, 5.0, 5.0), 2.0),
            (Rect::new(1.1, 1.1, 1.2, 9.9), -0.4),
        ];
        for (r, amount) in rects {
            plain.splat(&r, amount);
            recorded.splat_touched(&r, amount, &mut touched);
        }
        for (a, b) in plain.as_slice().iter().zip(recorded.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(sorted_set(touched), off_zero(&plain));
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

    /// The twin for the gather: the walk's overlap areas and their total
    /// are the per-cell `intersection().area()` values, bit for bit, over
    /// the same cells — for a rect inside the region and one clipped by it.
    #[test]
    fn overlap_walk_matches_per_cell_intersection_bitwise() {
        let g = grid();
        for r in [
            Rect::new(0.7, 1.3, 6.9, 8.05),
            Rect::new(-3.1, 7.7, 2.0, 13.0),
            Rect::new(4.0, 4.0, 6.0, 6.0),
        ] {
            let overlap = g.overlap(&r).unwrap();
            let mut fast = Vec::new();
            overlap.for_each(|cell, ov| fast.push((cell, ov.to_bits())));
            let (ix_lo, ix_hi, iy_lo, iy_hi) = g.cells_overlapping(&r).unwrap();
            let clipped = r.intersection(&g.region());
            let mut slow = Vec::new();
            for iy in iy_lo..=iy_hi {
                for ix in ix_lo..=ix_hi {
                    let ov = clipped.intersection(&g.cell_rect(ix, iy)).area();
                    if ov > 0.0 {
                        slow.push((g.idx(ix, iy), ov.to_bits()));
                    }
                }
            }
            assert_eq!(fast, slow, "{r}");
            assert_eq!(overlap.total().to_bits(), clipped.area().to_bits());
        }
        assert_eq!(g.overlap(&Rect::new(20.0, 20.0, 21.0, 21.0)), None);
        // A degenerate rect inside the region overlaps no cell.
        let line = g.overlap(&Rect::new(3.0, 1.0, 3.0, 5.0)).unwrap();
        assert_eq!(line.total(), 0.0);
        line.for_each(|cell, _| panic!("visited {cell}"));
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
