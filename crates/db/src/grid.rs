//! Dense 2-D grids over the placement region.
//!
//! Both the density bins of the electrostatic placer (paper Eq. (3)) and the
//! Gcell maps of the congestion estimator (paper §II-C) are uniform grids
//! over the same region; [`Grid`] is the shared representation.
//!
//! Spreading a rectangle over the cells it covers ([`Grid::splat`]) and
//! averaging a grid over a rectangle are the same walk read two ways, and
//! the density partials and gradients built on them feed the placer's
//! bit-identity gates. So there is one overlap walk: [`Overlap::record`]
//! writes its operands down and [`Walk::for_each`] replays them, and every
//! deposit goes through that pair. Its invariant is: **a cell's overlap
//! area is `ox · oy`, from the operand values
//! `Rect::intersection(..).area()` of the clipped rectangle and the cell's
//! rectangle would use, in that order.**

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
    /// Panics like [`Grid::filled`].
    pub fn new(region: Rect, nx: usize, ny: usize) -> Self {
        Self::filled(region, nx, ny, T::default())
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a grid filled with copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or past `u32::MAX` (a [`Walk`] holds
    /// its extents in `u32`s), or the region is degenerate.
    pub fn filled(region: Rect, nx: usize, ny: usize, value: T) -> Self {
        assert!(
            nx > 0 && ny > 0 && u32::try_from(nx.max(ny)).is_ok(),
            "grid dimensions must be positive and fit u32"
        );
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
    ///
    /// Indices are truncated without a `floor`: see [`bin_index`].
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        (
            bin_index((p.x - self.region.xl) / self.dx).min(self.nx - 1),
            bin_index((p.y - self.region.yl) / self.dy).min(self.ny - 1),
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
        let ix_lo = bin_index((c.xl - self.region.xl) / self.dx).min(self.nx - 1);
        let iy_lo = bin_index((c.yl - self.region.yl) / self.dy).min(self.ny - 1);
        // Subtract a hair so rects ending exactly on a boundary do not bleed
        // into the next cell.
        let eps = 1e-12 * (self.dx + self.dy);
        let ix_hi = bin_index((c.xh - self.region.xl) / self.dx - eps).min(self.nx - 1);
        let iy_hi = bin_index((c.yh - self.region.yl) / self.dy - eps).min(self.ny - 1);
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

/// The bin a coordinate `t` bins wide from the grid's low edge falls in,
/// before clamping to the grid: `t` truncated toward zero.
///
/// This is `floor(t).max(0)` truncated, without the `floor` and the
/// `max`: for `t ≥ 0` truncation is the floor, and `as usize` saturates
/// everything else — NaN, negatives and `−0` give 0, `+∞` and anything
/// past `usize::MAX` give `usize::MAX` — exactly where the floored form
/// lands (`tests::bin_index_is_the_floored_index`).
#[inline]
fn bin_index(t: f64) -> usize {
    cast::trunc_idx(t)
}

/// The cells of one grid that one rectangle overlaps ([`Grid::overlap`]):
/// the only copy of the overlap arithmetic in the workspace. It borrows
/// nothing, so the replay of its record is free to write the grid it came
/// from.
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

    /// Writes the walk down: appends its operands — the x overlap of each
    /// column, then the y overlap of each row — to `operands` and returns
    /// its first cell, extent and total. Every walk records, whatever its
    /// span or area: it covers at least one column and one row.
    ///
    /// Separable: a cell's overlap area is (x-extent overlap) × (y-extent
    /// overlap), so the record keeps one operand per column and per row,
    /// and [`Walk::for_each`] multiplies them per cell — the same
    /// min/max/multiply operand values the per-cell
    /// `Rect::intersection(..).area()` produces, so the areas are
    /// bit-identical to it.
    pub fn record(&self, operands: &mut Vec<f64>) -> Walk {
        operands.extend((self.ix_lo..=self.ix_hi).map(|ix| self.ox(ix)));
        operands.extend((self.iy_lo..=self.iy_hi).map(|iy| self.oy(iy)));
        // `Grid::filled` keeps both dimensions within `u32`.
        Walk {
            total: self.total(),
            origin: self.iy_lo * self.nx + self.ix_lo,
            cols: cast::idx_u32(self.ix_hi - self.ix_lo + 1),
            rows: cast::idx_u32(self.iy_hi - self.iy_lo + 1),
        }
    }

    /// Overlap of column `ix` with the clipped rectangle along x.
    #[inline]
    fn ox(&self, ix: usize) -> f64 {
        let cxl = self.xl + cast::idx_f64(ix) * self.dx;
        let oxl = self.clipped.xl.max(cxl);
        self.clipped.xh.min(cxl + self.dx).max(oxl) - oxl
    }

    /// Overlap of row `iy` with the clipped rectangle along y.
    #[inline]
    fn oy(&self, iy: usize) -> f64 {
        let cyl = self.yl + cast::idx_f64(iy) * self.dy;
        let oyl = self.clipped.yl.max(cyl);
        self.clipped.yh.min(cyl + self.dy).max(oyl) - oyl
    }
}

/// An [`Overlap`] walk written down by [`Overlap::record`]: a 24-byte
/// header — its first cell, its extent and its total — while its operands
/// (`cols` x overlaps, then `rows` y overlaps) sit in the caller's list.
/// Replaying it ([`Walk::for_each`]) visits every cell of positive overlap
/// with its area and recomputes no bound. The default walk records
/// nothing: it has no operands and visits no cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Walk {
    total: f64,
    /// Flat index of the lowest-left cell.
    origin: usize,
    cols: u32,
    rows: u32,
}

impl Walk {
    /// [`Overlap::total`] of the recorded walk; `0.0` for the default.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of operands the walk recorded: its columns plus its rows.
    pub fn len(&self) -> usize {
        cast::u32_idx(self.cols) + cast::u32_idx(self.rows)
    }

    /// Whether this is the default walk, which recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `visit(flat index, overlap area)` for every cell the recorded
    /// walk overlaps with positive area, row by row, on a grid `nx` cells
    /// wide: `operands` are the ones [`Overlap::record`] appended for it.
    /// The only place an overlap area is computed.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `operands` is not [`Walk::len`] long.
    #[inline]
    pub fn for_each(&self, operands: &[f64], nx: usize, mut visit: impl FnMut(usize, f64)) {
        debug_assert_eq!(operands.len(), self.len(), "operands of another walk");
        let (ox, oy) = operands.split_at(cast::u32_idx(self.cols));
        let mut row = self.origin;
        for &oy in oy {
            for (ix, &ox) in ox.iter().enumerate() {
                let ov = ox * oy;
                if ov > 0.0 {
                    visit(row + ix, ov);
                }
            }
            row += nx;
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
        self.splat_recorded(r, amount, &mut Vec::new(), &mut Vec::new());
    }

    /// [`Grid::splat`], which writes down the walk it deposits through
    /// ([`Overlap::record`]), appends its operands to `operands` and
    /// returns it. A zero `amount` records the walk and adds nothing. A
    /// rectangle of no area (a point deposit) or none inside the region
    /// returns the default walk and appends nothing.
    ///
    /// Pushes onto `touched` the flat index of every cell the deposit moved
    /// off `+0.0` (the bit pattern, so a cell that turned `−0.0` or NaN
    /// counts and one whose addend rounded to zero does not). For a caller
    /// reusing a scratch grid that is `+0.0` between batches: after a batch
    /// of these over one list, every cell that is not `+0.0` is on the list
    /// — more than once if it came back to `+0.0` in between — so the batch
    /// can be found, and cleared, at the cost of what it wrote instead of a
    /// scan of the grid.
    pub fn splat_recorded(
        &mut self,
        r: &Rect,
        amount: f64,
        touched: &mut Vec<usize>,
        operands: &mut Vec<f64>,
    ) -> Walk {
        /// Adds `v` to `slot`, listing `cell` if that moved it off `+0.0`.
        #[inline]
        fn bump(slot: &mut f64, v: f64, cell: usize, touched: &mut Vec<usize>) {
            let was_zero = slot.to_bits() == 0;
            *slot += v;
            if was_zero && slot.to_bits() != 0 {
                touched.push(cell);
            }
        }
        if r.area() <= 0.0 {
            if amount != 0.0 {
                let (ix, iy) = self.cell_of(r.center());
                let cell = self.idx(ix, iy);
                bump(&mut self.data[cell], amount, cell, touched);
            }
            return Walk::default();
        }
        let Some(overlap) = self.overlap(r) else {
            return Walk::default();
        };
        let at = operands.len();
        let walk = overlap.record(operands);
        if amount != 0.0 {
            let total = walk.total();
            walk.for_each(&operands[at..], self.nx, |cell, ov| {
                bump(&mut self.data[cell], amount * ov / total, cell, touched);
            });
        }
        walk
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

    /// `splat_recorded` into `g`, the touched list and the operands thrown
    /// away.
    fn splat_listing(g: &mut Grid<f64>, r: &Rect, amount: f64, touched: &mut Vec<usize>) {
        g.splat_recorded(r, amount, touched, &mut Vec::new());
    }

    #[test]
    fn splat_recorded_lists_exactly_the_cells_moved_off_zero() {
        let mut g = grid();
        let mut touched = Vec::new();
        let wide = Rect::new(1.0, 1.0, 5.0, 3.0);
        splat_listing(&mut g, &wide, 8.0, &mut touched);
        assert_eq!(touched, vec![0, 1, 2, 5, 6, 7], "row by row");
        // A second deposit into cells already off zero lists only new ones.
        splat_listing(&mut g, &Rect::new(3.0, 1.0, 7.0, 2.0), 1.0, &mut touched);
        assert_eq!(touched[6..], [3]);
        // The point splat of a zero-area rect, here clamped into the grid.
        splat_listing(&mut g, &Rect::new(30.0, 3.0, 30.0, 3.0), 1.0, &mut touched);
        assert_eq!(touched[7..], [g.idx(4, 1)]);
        // Clipped: only the part inside the region is walked.
        splat_listing(&mut g, &Rect::new(-4.0, 7.0, 1.0, 12.0), 2.0, &mut touched);
        assert_eq!(touched[8..], [g.idx(0, 3), g.idx(0, 4)]);
        // Nothing to deposit, nowhere to deposit it.
        let before = touched.len();
        splat_listing(&mut g, &wide, 0.0, &mut touched);
        splat_listing(&mut g, &wide, -0.0, &mut touched);
        splat_listing(
            &mut g,
            &Rect::new(20.0, 20.0, 21.0, 21.0),
            1.0,
            &mut touched,
        );
        assert_eq!(touched.len(), before);
        assert_eq!(sorted_set(touched), off_zero(&g));
    }

    #[test]
    fn splat_recorded_goes_by_the_bit_pattern() {
        let mut g = grid();
        let mut touched = Vec::new();
        let cell = Rect::new(2.0, 2.0, 4.0, 4.0);
        // An addend that rounds to zero leaves the cell at +0.0: unlisted.
        let half = Rect::new(2.0, 2.0, 8.0, 4.0);
        splat_listing(&mut g, &half, 5e-324, &mut touched);
        assert!(touched.is_empty() && off_zero(&g).is_empty());
        // NaN and ∞ are off zero like any other value.
        splat_listing(&mut g, &cell, f64::NAN, &mut touched);
        splat_listing(
            &mut g,
            &Rect::new(6.0, 6.0, 8.0, 8.0),
            f64::INFINITY,
            &mut touched,
        );
        assert_eq!(touched, vec![g.idx(1, 1), g.idx(3, 3)]);
        // A cell that came back to +0.0 is listed again when it leaves again,
        // so the list over-reports but never misses.
        let other = Rect::new(4.0, 0.0, 6.0, 2.0);
        splat_listing(&mut g, &other, 3.0, &mut touched);
        splat_listing(&mut g, &other, -3.0, &mut touched);
        assert_eq!(g.as_slice()[g.idx(2, 0)].to_bits(), 0);
        splat_listing(&mut g, &other, 1.5, &mut touched);
        assert_eq!(touched[2..], [g.idx(2, 0), g.idx(2, 0)]);
        assert_eq!(sorted_set(touched), off_zero(&g));
    }

    /// Splats sharing one touched list and one operand list write what
    /// `splat` over its own lists writes: same grid, bit for bit.
    #[test]
    fn splat_and_splat_recorded_write_the_same_bits() {
        let (mut plain, mut recorded) = (grid(), grid());
        let (mut touched, mut operands) = (Vec::new(), Vec::new());
        let rects = [
            (Rect::new(0.7, 1.3, 6.9, 8.05), 3.7),
            (Rect::new(-2.5, 4.4, 3.3, 20.0), 0.013),
            (Rect::new(5.0, 5.0, 5.0, 5.0), 2.0),
            (Rect::new(1.1, 1.1, 1.2, 9.9), -0.4),
        ];
        for (r, amount) in rects {
            plain.splat(&r, amount);
            recorded.splat_recorded(&r, amount, &mut touched, &mut operands);
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

    /// `(flat index, overlap area bits)` of every cell of `g` that `r`
    /// overlaps with positive area, row by row, from the per-cell
    /// `intersection().area()`, and the area of `r` inside the region.
    fn per_cell_overlaps(g: &Grid<f64>, r: &Rect) -> (Vec<(usize, u64)>, f64) {
        let (ix_lo, ix_hi, iy_lo, iy_hi) = g.cells_overlapping(r).unwrap();
        let clipped = r.intersection(&g.region());
        let mut cells = Vec::new();
        for iy in iy_lo..=iy_hi {
            for ix in ix_lo..=ix_hi {
                let ov = clipped.intersection(&g.cell_rect(ix, iy)).area();
                if ov > 0.0 {
                    cells.push((g.idx(ix, iy), ov.to_bits()));
                }
            }
        }
        (cells, clipped.area())
    }

    /// `(flat index, overlap area bits)` of every cell a recorded walk
    /// visits.
    fn replayed(g: &Grid<f64>, walk: &Walk, operands: &[f64]) -> Vec<(usize, u64)> {
        let mut cells = Vec::new();
        walk.for_each(operands, g.nx(), |cell, ov| {
            cells.push((cell, ov.to_bits()))
        });
        cells
    }

    /// The twin for the gather: the replayed walk's overlap areas and its
    /// total are the per-cell `intersection().area()` values, bit for bit,
    /// over the same cells — for a rect inside the region, one clipped by
    /// it, one on bin edges and one spanning every column.
    #[test]
    fn overlap_walk_matches_per_cell_intersection_bitwise() {
        let g = grid();
        for r in [
            Rect::new(0.7, 1.3, 6.9, 8.05),
            Rect::new(-3.1, 7.7, 2.0, 13.0),
            Rect::new(4.0, 4.0, 6.0, 6.0),
            Rect::new(-0.5, 2.5, 10.5, 3.5),
        ] {
            let mut operands = Vec::new();
            let walk = g.overlap(&r).unwrap().record(&mut operands);
            let (slow, total) = per_cell_overlaps(&g, &r);
            assert_eq!(replayed(&g, &walk, &operands), slow, "{r}");
            assert_eq!(walk.total().to_bits(), total.to_bits());
        }
        assert_eq!(g.overlap(&Rect::new(20.0, 20.0, 21.0, 21.0)), None);
        // A degenerate rect inside the region records a walk over no area,
        // which visits no cell.
        let mut operands = Vec::new();
        let line = g.overlap(&Rect::new(3.0, 1.0, 3.0, 5.0)).unwrap();
        let walk = line.record(&mut operands);
        assert_eq!((line.total(), walk.total()), (0.0, 0.0));
        assert!(!walk.is_empty());
        walk.for_each(&operands, g.nx(), |cell, _| panic!("visited {cell}"));
    }

    /// The index formula before it dropped its `floor` and `max`.
    fn floored_index(t: f64) -> usize {
        cast::trunc_idx(t.floor().max(0.0))
    }

    /// Coordinates around every bin edge of `grid()` and the values an
    /// `as` cast treats specially.
    fn probes() -> Vec<f64> {
        let near_max = usize::MAX as f64;
        let mut out = vec![
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -0.5,
            -1e-300,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            near_max,
            near_max.next_down(),
            near_max.next_up(),
            2.0 * near_max,
        ];
        for edge in 0..=6 {
            let e = 2.0 * f64::from(edge);
            out.extend([e, e.next_down(), e.next_up(), e + 0.5]);
        }
        out
    }

    #[test]
    fn bin_index_is_the_floored_index() {
        let mut scaled = probes();
        scaled.extend(probes().iter().map(|t| t / 2.0));
        for t in scaled {
            assert_eq!(bin_index(t), floored_index(t), "t = {t:e}");
        }
        assert_eq!(bin_index(f64::NAN), 0);
        assert_eq!(bin_index(-0.0), 0);
        assert_eq!(bin_index(f64::INFINITY), usize::MAX);
        assert_eq!(bin_index(2.0f64.next_down()), 1);
    }

    /// `cell_of` and `cells_overlapping` against the floored formulas they
    /// replaced, on every pair of probes.
    #[test]
    fn cell_lookups_match_the_floored_formulas() {
        for g in [grid(), Grid::new(Rect::new(-7.0, -3.0, 3.0, 7.0), 5, 5)] {
            let region = g.region();
            let floored_cell_of = |p: Point| {
                (
                    floored_index((p.x - region.xl) / g.dx()).min(g.nx() - 1),
                    floored_index((p.y - region.yl) / g.dy()).min(g.ny() - 1),
                )
            };
            let floored_overlapping = |r: &Rect| {
                if !r.overlaps(&region) {
                    return None;
                }
                let c = r.intersection(&region);
                let eps = 1e-12 * (g.dx() + g.dy());
                let lo = |v: f64, o: f64, d: f64, n: usize| floored_index((v - o) / d).min(n - 1);
                let hi =
                    |v: f64, o: f64, d: f64, n: usize| floored_index((v - o) / d - eps).min(n - 1);
                let (ix_lo, iy_lo) = (
                    lo(c.xl, region.xl, g.dx(), g.nx()),
                    lo(c.yl, region.yl, g.dy(), g.ny()),
                );
                let (ix_hi, iy_hi) = (
                    hi(c.xh, region.xl, g.dx(), g.nx()),
                    hi(c.yh, region.yl, g.dy(), g.ny()),
                );
                Some((ix_lo, ix_hi.max(ix_lo), iy_lo, iy_hi.max(iy_lo)))
            };
            let coords: Vec<f64> = probes()
                .into_iter()
                .flat_map(|t| [t, t + region.xl, -t])
                .collect();
            for &x in &coords {
                for &y in &coords {
                    let p = Point::new(x, y);
                    assert_eq!(g.cell_of(p), floored_cell_of(p), "{x:e}, {y:e}");
                    for (w, h) in [(0.0, 0.0), (1.0, 3.0), (f64::INFINITY, 2.0)] {
                        // Not `Rect::new`: its debug assertion refuses NaN.
                        let r = Rect {
                            xl: x,
                            yl: y,
                            xh: x + w,
                            yh: y + h,
                        };
                        assert_eq!(g.cells_overlapping(&r), floored_overlapping(&r), "{r}");
                    }
                }
            }
        }
    }

    /// A recorded walk replays the walk bit for bit at any span: the same
    /// cells with the same area bits as the per-cell intersections, its
    /// operands appended after whatever the list held. And the recording
    /// splat writes the bits of a per-cell reference deposit, recording a
    /// walk for every deposit but a point one and one outside the region.
    #[test]
    fn a_recorded_walk_replays_the_walk_bit_for_bit() {
        let g = grid();
        let mut operands = vec![7.0];
        for r in [
            Rect::new(0.7, 1.3, 6.9, 7.05),
            Rect::new(-3.1, 7.7, 2.0, 13.0),
            Rect::new(4.0, 4.0, 6.0, 6.0),
            Rect::new(1.1, 1.1, 1.2, 7.9),
            // Every column, every row, and the whole region and more.
            Rect::new(0.5, 1.0, 9.5, 2.0),
            Rect::new(1.0, 0.5, 2.0, 9.5),
            Rect::new(-1e300, -1e300, 1e300, 1e300),
        ] {
            let at = operands.len();
            let walk = g.overlap(&r).unwrap().record(&mut operands);
            assert_eq!(operands.len() - at, walk.len());
            let (slow, total) = per_cell_overlaps(&g, &r);
            assert_eq!(walk.total().to_bits(), total.to_bits());
            assert_eq!(replayed(&g, &walk, &operands[at..]), slow, "{r}");
        }
        assert_eq!(operands[0], 7.0, "recording appends");
        assert_eq!(
            operands.len(),
            1 + (4 + 4) + (1 + 2) + 2 + (1 + 4) + 6 + 6 + 10
        );
        // The reference deposit: whole into the containing cell for no
        // area, else `amount · ov / total` per cell of positive overlap.
        let reference = |g: &mut Grid<f64>, r: &Rect, amount: f64| {
            if amount == 0.0 {
                return;
            }
            if r.area() <= 0.0 {
                let (ix, iy) = g.cell_of(r.center());
                *g.at_mut(ix, iy) += amount;
                return;
            }
            if !r.overlaps(&g.region()) {
                return;
            }
            let (cells, total) = per_cell_overlaps(g, r);
            for (cell, ov) in cells {
                g.as_mut_slice()[cell] += amount * f64::from_bits(ov) / total;
            }
        };
        let (mut plain, mut recorded) = (grid(), grid());
        let mut touched = Vec::new();
        operands.clear();
        let rects = [
            (Rect::new(0.7, 1.3, 6.9, 8.05), 3.7, true),
            (Rect::new(-2.5, 4.4, 3.3, 20.0), 0.013, true),
            (Rect::new(5.0, 5.0, 5.0, 5.0), 2.0, false),
            (Rect::new(1.1, 1.1, 1.2, 7.9), -0.4, true),
            (Rect::new(0.5, 1.0, 9.5, 2.0), 1.25, true),
            (Rect::new(1.0, 1.0, 3.0, 3.0), 0.0, true),
            (Rect::new(1.0, 1.0, 3.0, 3.0), 2.5, true),
            (Rect::new(20.0, 20.0, 21.0, 21.0), 1.0, false),
        ];
        for (r, amount, kept) in rects {
            reference(&mut plain, &r, amount);
            let walk = recorded.splat_recorded(&r, amount, &mut touched, &mut operands);
            assert_eq!(!walk.is_empty(), kept, "{r}");
        }
        let bits = |g: &Grid<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&recorded), bits(&plain));
        assert_eq!(sorted_set(touched), off_zero(&plain));
        assert_eq!(
            operands.len(),
            (4 + 5) + (2 + 3) + (1 + 4) + (5 + 1) + 2 * (2 + 2)
        );
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
