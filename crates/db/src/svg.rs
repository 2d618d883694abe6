//! SVG rendering of placements.
//!
//! Produces self-contained SVG images of a design — macros, rows, and
//! movable cells — optionally colouring cells by a per-cell scalar (cell
//! padding, congestion contribution, displacement…). This is the plotting
//! path used for placement figures in reports and the CLI `draw` command.

use crate::cast;
use crate::design::{Design, Placement};
use std::fmt::Write as _;

/// Options for [`render_svg`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvgOptions {
    /// Output width in pixels (height follows the region's aspect ratio).
    pub width_px: f64,
    /// Optional per-cell scalar (indexed by `CellId::index`); cells are
    /// coloured on a blue→red ramp over the value range. `None` draws all
    /// movable cells in a uniform colour.
    pub cell_values: Option<Vec<f64>>,
    /// Draw row boundaries.
    pub draw_rows: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width_px: 800.0,
            cell_values: None,
            draw_rows: false,
        }
    }
}

/// Renders the placement as an SVG document string.
///
/// The y-axis is flipped so the origin is bottom-left, matching placement
/// coordinates.
pub fn render_svg(design: &Design, placement: &Placement, options: &SvgOptions) -> String {
    let region = design.region();
    let scale = options.width_px / region.width();
    let height_px = region.height() * scale;
    let px = |x: f64| (x - region.xl) * scale;
    let py = |y: f64| height_px - (y - region.yl) * scale;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        options.width_px, height_px, options.width_px, height_px
    );
    let _ = writeln!(
        out,
        r##"<rect x="0" y="0" width="{:.0}" height="{:.0}" fill="#ffffff" stroke="#333333"/>"##,
        options.width_px, height_px
    );

    if options.draw_rows {
        for row in design.rows() {
            let _ = writeln!(
                out,
                r##"<line x1="0" y1="{:.1}" x2="{:.0}" y2="{:.1}" stroke="#eeeeee" stroke-width="0.5"/>"##,
                py(row.y),
                options.width_px,
                py(row.y)
            );
        }
    }

    // Macros first (background blockages).
    for (_, shape) in design.macro_shapes() {
        let _ = writeln!(
            out,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#b0b0b0" stroke="#606060"/>"##,
            px(shape.xl),
            py(shape.yh),
            shape.width() * scale,
            shape.height() * scale
        );
    }

    // Value range for the colour ramp.
    let (lo, hi) = options
        .cell_values
        .as_ref()
        .map(|v| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi.max(lo + 1e-12))
        })
        .unwrap_or((0.0, 1.0));

    for id in design.netlist().movable_cells() {
        let cell = design.netlist().cell(id);
        let r = placement.cell_rect(design.netlist(), id);
        let fill = match &options.cell_values {
            None => "#4477cc".to_string(),
            Some(v) => {
                let t = ((v[id.index()] - lo) / (hi - lo)).clamp(0.0, 1.0);
                // Blue (cold) to red (hot).
                let red = cast::trunc_u8(60.0 + 195.0 * t);
                let blue = cast::trunc_u8(204.0 - 170.0 * t);
                format!("#{red:02x}50{blue:02x}")
            }
        };
        let _ = writeln!(
            out,
            r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{fill}" fill-opacity="0.85"/>"#,
            px(r.xl),
            py(r.yh),
            (cell.width * scale).max(0.4),
            (cell.height * scale).max(0.4)
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};
    use crate::netlist::{CellKind, NetlistBuilder};
    use crate::tech::Technology;

    fn design() -> Design {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("a", 2.0, 1.0, CellKind::Movable);
        nb.add_cell("b", 2.0, 1.0, CellKind::Movable);
        let m = nb.add_cell("ram", 6.0, 6.0, CellKind::FixedMacro);
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 20.0, 10.0),
        )
        .unwrap();
        d.place_macro(m, Point::new(10.0, 5.0)).unwrap();
        d
    }

    #[test]
    fn svg_has_expected_structure() {
        let d = design();
        let svg = render_svg(&d, &d.initial_placement(), &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Background + macro + two cells.
        assert_eq!(svg.matches("<rect").count(), 4);
        // Aspect ratio preserved: 20x10 region at 800px → 400px tall.
        assert!(svg.contains(r#"height="400""#));
    }

    #[test]
    fn value_colouring_spans_the_ramp() {
        let d = design();
        let svg = render_svg(
            &d,
            &d.initial_placement(),
            &SvgOptions {
                cell_values: Some(vec![0.0, 10.0, 0.0]),
                ..SvgOptions::default()
            },
        );
        // Cold cell is mostly blue, hot cell mostly red.
        assert!(svg.contains("#3c50cc"), "cold colour missing: {svg}");
        assert!(svg.contains("#ff5022"), "hot colour missing");
    }

    #[test]
    fn rows_toggle() {
        let d = design();
        let with = render_svg(
            &d,
            &d.initial_placement(),
            &SvgOptions {
                draw_rows: true,
                ..SvgOptions::default()
            },
        );
        let without = render_svg(&d, &d.initial_placement(), &SvgOptions::default());
        assert!(with.matches("<line").count() >= d.rows().len());
        assert_eq!(without.matches("<line").count(), 0);
    }

    #[test]
    fn y_axis_is_flipped() {
        let d = design();
        let mut p = d.initial_placement();
        // Put cell a at the bottom of the region; its rect's top edge (yh)
        // should map near the bottom of the image (large y in SVG space).
        let a = d.netlist().movable_cells().next().unwrap();
        p.set(a, Point::new(2.0, 0.5));
        let svg = render_svg(&d, &p, &SvgOptions::default());
        // Cell at y-center 0.5, height 1 → top at y=1 → svg y = 400 - 40 = 360.
        assert!(svg.contains(r#"y="360.00""#), "{svg}");
    }
}
