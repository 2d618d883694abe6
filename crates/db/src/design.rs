//! A placeable design and placement solutions.
//!
//! [`Design`] bundles a validated [`Netlist`] with [`Technology`] data, the
//! core placement region, standard-cell rows, and fixed-macro locations.
//! [`Placement`] is a positional solution: one center coordinate per cell.

use crate::cast;
use crate::error::DbError;
use crate::geom::{Point, Rect};
use crate::netlist::{CellId, CellKind, Netlist};
use crate::stats::DesignStats;
use crate::tech::Technology;

/// Most rows a design may have. The row table is allocated from the region
/// and row height a file states, so the count is bounded before the
/// allocation; the largest preset (CT_TOP at scale 1.0) has a few thousand.
const MAX_ROWS: usize = 1 << 20;

/// Largest region area, in square row heights (2^26 ≈ 67 M; CT_TOP at
/// scale 1.0 needs ≈ 1.4 M). It bounds the grids sized by the region: a
/// Gcell is at least one row height on a side, so the congestion
/// estimator's and router's capacity, demand and usage maps hold at most
/// this many Gcells each; and since a region is at least one row tall, its
/// width is at most this many row heights.
const MAX_AREA_ROWS2: f64 = 67_108_864.0;

/// A standard-cell row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Bottom y coordinate of the row.
    pub y: f64,
    /// Left x coordinate.
    pub x_min: f64,
    /// Right x coordinate.
    pub x_max: f64,
}

impl Row {
    /// Row width.
    pub fn width(&self) -> f64 {
        self.x_max - self.x_min
    }
}

/// A complete placeable design.
///
/// Fixed macros are part of the netlist ([`CellKind::FixedMacro`]); their
/// locations are stored here because they are design data, not a solution.
/// See the [crate-level example](crate) for construction.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    netlist: Netlist,
    tech: Technology,
    region: Rect,
    rows: Vec<Row>,
    /// Center location of each cell that is fixed; `None` for movable cells.
    fixed_pos: Vec<Option<Point>>,
}

impl Design {
    /// Creates a design with auto-generated rows filling the region.
    ///
    /// Fixed macros initially have no location; call
    /// [`place_macro`](Design::place_macro) for each of them before running
    /// a placer.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Validate`] when the region is degenerate, not tall
    /// enough for a single row, taller than 2^20 rows or larger than 2^26
    /// square row heights, or when the row height or site width is not
    /// positive.
    pub fn new(
        name: impl Into<String>,
        netlist: Netlist,
        tech: Technology,
        region: Rect,
    ) -> Result<Self, DbError> {
        // Written so that a NaN anywhere fails the check.
        if !(region.width() > 0.0 && region.height() > 0.0) {
            return Err(DbError::Validate("placement region is degenerate".into()));
        }
        if !(tech.row_height > 0.0 && tech.site_width > 0.0) {
            return Err(DbError::Validate(
                "row height and site width must be positive".into(),
            ));
        }
        let n_rows = cast::floor_idx(region.height() / tech.row_height);
        if n_rows == 0 {
            return Err(DbError::Validate(
                "placement region shorter than one row".into(),
            ));
        }
        if n_rows > MAX_ROWS {
            return Err(DbError::Validate(format!(
                "placement region holds {n_rows} rows; the limit is {MAX_ROWS}"
            )));
        }
        let area_rows2 = region.area() / (tech.row_height * tech.row_height);
        if area_rows2 > MAX_AREA_ROWS2 {
            return Err(DbError::Validate(format!(
                "placement region {region} spans {area_rows2:e} square row heights; \
                 the limit is {MAX_AREA_ROWS2}"
            )));
        }
        let rows = (0..n_rows)
            .map(|i| Row {
                y: region.yl + cast::idx_f64(i) * tech.row_height,
                x_min: region.xl,
                x_max: region.xh,
            })
            .collect();
        let fixed_pos = vec![None; netlist.num_cells()];
        Ok(Design {
            name: name.into(),
            netlist,
            tech,
            region,
            rows,
            fixed_pos,
        })
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The core placement region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Standard-cell rows, bottom-up.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Fixes the center location of a macro.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::BadId`] for an unknown or movable cell and
    /// [`DbError::Validate`] when the macro would leave the region.
    pub fn place_macro(&mut self, cell: CellId, center: Point) -> Result<(), DbError> {
        if cell.index() >= self.netlist.num_cells() {
            return Err(DbError::BadId(format!("{cell}")));
        }
        let c = self.netlist.cell(cell);
        if c.kind != CellKind::FixedMacro {
            return Err(DbError::BadId(format!("{cell} is movable, not a macro")));
        }
        if !(center.x.is_finite() && center.y.is_finite()) {
            return Err(DbError::Validate(format!(
                "macro '{}' at {center} is not at a finite location",
                c.name
            )));
        }
        let shape = Rect::from_center(center, c.width, c.height);
        let within = shape.xl >= self.region.xl - 1e-9
            && shape.yl >= self.region.yl - 1e-9
            && shape.xh <= self.region.xh + 1e-9
            && shape.yh <= self.region.yh + 1e-9;
        if !within {
            return Err(DbError::Validate(format!(
                "macro '{}' at {center} leaves the region {}",
                c.name, self.region
            )));
        }
        self.fixed_pos[cell.index()] = Some(center);
        Ok(())
    }

    /// Fixed center of `cell`, if it is a placed macro.
    pub fn fixed_position(&self, cell: CellId) -> Option<Point> {
        self.fixed_pos[cell.index()]
    }

    /// Bounding rectangles of all placed macros (routing/placement blockages).
    pub fn macro_shapes(&self) -> Vec<(CellId, Rect)> {
        self.netlist
            .fixed_macros()
            .filter_map(|id| {
                self.fixed_pos[id.index()].map(|p| {
                    let c = self.netlist.cell(id);
                    (id, Rect::from_center(p, c.width, c.height))
                })
            })
            .collect()
    }

    /// Checks that every fixed macro has a location.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Validate`] naming the first unplaced macro.
    pub fn check_macros_placed(&self) -> Result<(), DbError> {
        for id in self.netlist.fixed_macros() {
            if self.fixed_pos[id.index()].is_none() {
                return Err(DbError::Validate(format!(
                    "macro '{}' has no location",
                    self.netlist.cell(id).name
                )));
            }
        }
        Ok(())
    }

    /// Table-I style statistics.
    pub fn stats(&self) -> DesignStats {
        DesignStats::of(self)
    }

    /// Free area: region area minus placed-macro area (clipped to region).
    pub fn free_area(&self) -> f64 {
        let blocked: f64 = self
            .macro_shapes()
            .iter()
            .map(|(_, r)| r.intersection(&self.region).area())
            .sum();
        (self.region.area() - blocked).max(0.0)
    }

    /// Placement utilization: movable cell area / free area.
    pub fn utilization(&self) -> f64 {
        let free = self.free_area();
        if free <= 0.0 {
            f64::INFINITY
        } else {
            self.netlist.movable_area() / free
        }
    }

    /// An initial placement: movable cells at the region center, macros at
    /// their fixed locations.
    pub fn initial_placement(&self) -> Placement {
        let mut p = Placement::zeroed(self.netlist.num_cells());
        let c = self.region.center();
        for (id, _) in self.netlist.iter_cells() {
            p.set(id, self.fixed_pos[id.index()].unwrap_or(c));
        }
        p
    }
}

/// A placement solution: the center coordinate of every cell.
///
/// Coordinates are **cell centers** throughout this workspace; convert to
/// lower-left corners only at the I/O boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Placement {
    /// A placement with all cells at the origin.
    pub fn zeroed(num_cells: usize) -> Self {
        Placement {
            x: vec![0.0; num_cells],
            y: vec![0.0; num_cells],
        }
    }

    /// Builds a placement from separate coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_coords(x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(
            x.len(),
            y.len(),
            "coordinate vectors must have equal length"
        );
        Placement { x, y }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the placement holds zero cells.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Center of `cell`.
    #[inline]
    pub fn pos(&self, cell: CellId) -> Point {
        Point::new(self.x[cell.index()], self.y[cell.index()])
    }

    /// Sets the center of `cell`.
    #[inline]
    pub fn set(&mut self, cell: CellId, p: Point) {
        self.x[cell.index()] = p.x;
        self.y[cell.index()] = p.y;
    }

    /// The x-coordinate slice.
    pub fn xs(&self) -> &[f64] {
        &self.x
    }

    /// The y-coordinate slice.
    pub fn ys(&self) -> &[f64] {
        &self.y
    }

    /// Absolute location of a pin under this placement.
    pub fn pin_pos(&self, netlist: &Netlist, pin: crate::netlist::PinId) -> Point {
        let p = netlist.pin(pin);
        let c = self.pos(p.cell);
        Point::new(c.x + p.offset.x, c.y + p.offset.y)
    }

    /// Bounding rectangle of `cell` given its size in `netlist`.
    pub fn cell_rect(&self, netlist: &Netlist, cell: CellId) -> Rect {
        let c = netlist.cell(cell);
        Rect::from_center(self.pos(cell), c.width, c.height)
    }

    /// Maximum displacement (L1) between two placements over movable cells.
    pub fn max_displacement(&self, other: &Placement, netlist: &Netlist) -> f64 {
        netlist
            .movable_cells()
            .map(|id| self.pos(id).l1_distance(other.pos(id)))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn design_with_macro() -> Design {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let m = nb.add_cell("ram", 10.0, 10.0, CellKind::FixedMacro);
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 100.0, 50.0),
        )
        .unwrap();
        d.place_macro(m, Point::new(20.0, 20.0)).unwrap();
        d
    }

    #[test]
    fn rows_fill_region() {
        let d = design_with_macro();
        assert_eq!(d.rows().len(), 50);
        assert_eq!(d.rows()[0].y, 0.0);
        assert_eq!(d.rows()[49].y, 49.0);
        assert_eq!(d.rows()[0].width(), 100.0);
    }

    #[test]
    fn macro_bookkeeping() {
        let d = design_with_macro();
        let shapes = d.macro_shapes();
        assert_eq!(shapes.len(), 1);
        assert_eq!(shapes[0].1, Rect::new(15.0, 15.0, 25.0, 25.0));
        assert!(d.check_macros_placed().is_ok());
        assert_eq!(d.fixed_position(CellId(1)), Some(Point::new(20.0, 20.0)));
        assert_eq!(d.fixed_position(CellId(0)), None);
    }

    #[test]
    fn place_macro_rejects_movable_and_oob() {
        let mut d = design_with_macro();
        assert!(d.place_macro(CellId(0), Point::new(1.0, 1.0)).is_err());
        assert!(d.place_macro(CellId(1), Point::new(2.0, 2.0)).is_err()); // leaves region
    }

    #[test]
    fn unplaced_macro_fails_check() {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("ram", 5.0, 5.0, CellKind::FixedMacro);
        let d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 10.0, 10.0),
        )
        .unwrap();
        assert!(d.check_macros_placed().is_err());
    }

    #[test]
    fn free_area_and_utilization() {
        let d = design_with_macro();
        assert!((d.free_area() - (5000.0 - 100.0)).abs() < 1e-9);
        assert!((d.utilization() - 1.0 / 4900.0).abs() < 1e-12);
    }

    #[test]
    fn initial_placement_centers_movables() {
        let d = design_with_macro();
        let p = d.initial_placement();
        assert_eq!(p.pos(CellId(0)), Point::new(50.0, 25.0));
        assert_eq!(p.pos(CellId(1)), Point::new(20.0, 20.0));
    }

    #[test]
    fn placement_accessors() {
        let mut p = Placement::zeroed(2);
        p.set(CellId(1), Point::new(3.0, 4.0));
        assert_eq!(p.pos(CellId(1)), Point::new(3.0, 4.0));
        assert_eq!(p.xs(), &[0.0, 3.0]);
        assert_eq!(p.len(), 2);
        p.set(CellId(0), Point::new(9.0, 5.0));
        assert_eq!(p.xs(), &[9.0, 3.0]);
        assert_eq!(p.ys(), &[5.0, 4.0]);
    }

    #[test]
    fn max_displacement_over_movables_only() {
        let d = design_with_macro();
        let a = d.initial_placement();
        let mut b = a.clone();
        b.set(CellId(0), Point::new(0.0, 0.0));
        // CellId(1) is a fixed macro: moving it in the comparison placement
        // must not affect the movable-only displacement metric.
        b.set(CellId(1), Point::new(0.0, 0.0));
        assert_eq!(a.max_displacement(&b, d.netlist()), 75.0);
    }

    #[test]
    fn region_area_is_bounded_in_square_rows() {
        let design = |w: f64, h: f64| {
            let nl = NetlistBuilder::new().build().unwrap();
            Design::new("x", nl, Technology::default(), Rect::new(0.0, 0.0, w, h))
        };
        // Unit rows: 2^24 x 4 is the bound exactly.
        assert!(design(16_777_216.0, 4.0).is_ok());
        assert!(design(67_108_863.0, 1.0).is_ok());
        let err = design(16_777_216.25, 4.0).unwrap_err().to_string();
        assert!(err.contains("[0, 16777216.25] x [0, 4]"), "{err}");
        assert!(design(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn degenerate_region_rejected() {
        let nl = NetlistBuilder::new().build().unwrap();
        assert!(Design::new(
            "x",
            nl,
            Technology::default(),
            Rect::new(0.0, 0.0, 0.0, 5.0)
        )
        .is_err());
        let nl2 = NetlistBuilder::new().build().unwrap();
        assert!(Design::new(
            "x",
            nl2,
            Technology::default(),
            Rect::new(0.0, 0.0, 5.0, 0.5)
        )
        .is_err());
    }
}
