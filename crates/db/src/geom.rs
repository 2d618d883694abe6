//! Plain 2-D geometry in floating-point database units.
//!
//! All placement coordinates in this workspace are `f64` database units. The
//! two workhorse types are [`Point`] and the half-open axis-aligned rectangle
//! [`Rect`].

use std::fmt;

/// A 2-D point in database units.
///
/// ```
/// use puffer_db::geom::Point;
/// let p = Point::new(3.0, 4.0);
/// assert_eq!(p.l1_distance(Point::ORIGIN), 7.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Rectilinear (Manhattan / L1) distance to `other`.
    pub fn l1_distance(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise sum.
    pub fn offset(self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle `[xl, xh) × [yl, yh)` in database units.
///
/// Rectangles are allowed to be degenerate (zero width or height); such
/// rectangles have zero [`area`](Rect::area) and overlap nothing.
///
/// ```
/// use puffer_db::geom::Rect;
/// let a = Rect::new(0.0, 0.0, 10.0, 5.0);
/// let b = Rect::new(5.0, 2.0, 20.0, 20.0);
/// assert_eq!(a.intersection(&b).area(), 5.0 * 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge.
    pub xl: f64,
    /// Bottom edge.
    pub yl: f64,
    /// Right edge.
    pub xh: f64,
    /// Top edge.
    pub yh: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `xh < xl` or `yh < yl`.
    pub fn new(xl: f64, yl: f64, xh: f64, yh: f64) -> Self {
        debug_assert!(
            xh >= xl && yh >= yl,
            "inverted rect ({xl},{yl})-({xh},{yh})"
        );
        Rect { xl, yl, xh, yh }
    }

    /// Creates a rectangle from a center point and full width/height.
    pub fn from_center(center: Point, w: f64, h: f64) -> Self {
        Rect::new(
            center.x - w / 2.0,
            center.y - h / 2.0,
            center.x + w / 2.0,
            center.y + h / 2.0,
        )
    }

    /// The empty rectangle at the origin.
    pub const EMPTY: Rect = Rect {
        xl: 0.0,
        yl: 0.0,
        xh: 0.0,
        yh: 0.0,
    };

    /// Width (`xh - xl`).
    pub fn width(&self) -> f64 {
        self.xh - self.xl
    }

    /// Height (`yh - yl`).
    pub fn height(&self) -> f64 {
        self.yh - self.yl
    }

    /// Area (`width * height`).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new((self.xl + self.xh) / 2.0, (self.yl + self.yh) / 2.0)
    }

    /// Whether the half-open rectangle contains `p`.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.xl && p.x < self.xh && p.y >= self.yl && p.y < self.yh
    }

    /// Whether two rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.xl < other.xh && other.xl < self.xh && self.yl < other.yh && other.yl < self.yh
    }

    /// The intersection rectangle; degenerate (zero-area) when disjoint.
    pub fn intersection(&self, other: &Rect) -> Rect {
        let xl = self.xl.max(other.xl);
        let yl = self.yl.max(other.yl);
        let xh = self.xh.min(other.xh).max(xl);
        let yh = self.yh.min(other.yh).max(yl);
        Rect { xl, yl, xh, yh }
    }

    /// Expands every side by `margin` (shrinks for negative margins, clamped
    /// so the rectangle never inverts).
    pub fn expanded(&self, margin: f64) -> Rect {
        let xl = self.xl - margin;
        let yl = self.yl - margin;
        let xh = (self.xh + margin).max(xl);
        let yh = (self.yh + margin).max(yl);
        Rect { xl, yl, xh, yh }
    }

    /// Clamps a point into the rectangle (closed on all sides).
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.xl, self.xh), p.y.clamp(self.yl, self.yh))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] x [{}, {}]", self.xl, self.xh, self.yl, self.yh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.l1_distance(b), 7.0);
        assert_eq!(a.l1_distance(a), 0.0);
    }

    #[test]
    fn point_offset_and_from_tuple() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p.offset(0.5, -0.5), Point::new(1.5, 1.5));
    }

    #[test]
    fn rect_basic_properties() {
        let r = Rect::new(0.0, 0.0, 10.0, 4.0);
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 40.0);
        assert_eq!(r.center(), Point::new(5.0, 2.0));
    }

    #[test]
    fn rect_from_center_roundtrip() {
        let r = Rect::from_center(Point::new(3.0, 4.0), 2.0, 6.0);
        assert_eq!(r.center(), Point::new(3.0, 4.0));
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 6.0);
    }

    #[test]
    fn rect_contains_is_half_open() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(Point::ORIGIN));
        assert!(!r.contains(Point::new(1.0, 0.0)));
        assert!(!r.contains(Point::new(0.0, 1.0)));
    }

    #[test]
    fn rect_overlap_and_intersection() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 15.0, 15.0);
        assert!(a.overlaps(&b));
        let i = a.intersection(&b);
        assert_eq!(i, Rect::new(5.0, 5.0, 10.0, 10.0));

        let c = Rect::new(20.0, 20.0, 30.0, 30.0);
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersection(&c).area(), 0.0);
    }

    #[test]
    fn touching_rects_do_not_overlap() {
        let a = Rect::new(0.0, 0.0, 5.0, 5.0);
        let b = Rect::new(5.0, 0.0, 10.0, 5.0);
        assert!(!a.overlaps(&b));
        assert_eq!(a.intersection(&b).area(), 0.0);
    }

    #[test]
    fn rect_expand_and_shrink() {
        let r = Rect::new(2.0, 2.0, 4.0, 4.0);
        assert_eq!(r.expanded(1.0), Rect::new(1.0, 1.0, 5.0, 5.0));
        // Over-shrinking clamps instead of inverting.
        let s = r.expanded(-5.0);
        assert!(s.width() >= 0.0 && s.height() >= 0.0);
    }

    #[test]
    fn rect_clamp_point() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(r.clamp_point(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(r.clamp_point(Point::new(3.0, 4.0)), Point::new(3.0, 4.0));
    }
}
