//! Independent oracles for a flow's result: a brute-force legality check
//! and a naive HPWL, written against the raw data model only (cell sizes,
//! centre coordinates, pin offsets, the row list). They share no code
//! with `puffer_legal` or `puffer_db::hpwl`, walk the data a different
//! way (pins → nets instead of the CSR net → pins; a 2-D overlap sweep
//! instead of per-row neighbours), and must agree with both.

use puffer::FlowResult;
use puffer_db::design::{Design, Placement};
use puffer_db::netlist::CellId;

/// Geometric slack, the same 1e-6 dbu `check_legal` allows: legal
/// coordinates are sums of site widths, not exact integers.
const EPS: f64 = 1e-6;

/// `[xl, xh] x [yl, yh]` of a cell from its centre and size.
fn rect(center: (f64, f64), w: f64, h: f64) -> [f64; 4] {
    [center.0 - w / 2.0, center.0 + w / 2.0, center.1 - h / 2.0, center.1 + h / 2.0]
}

/// Whether two rectangles share interior area (touching edges do not).
fn overlap(a: &[f64; 4], b: &[f64; 4]) -> bool {
    a[0] < b[1] - EPS && b[0] < a[1] - EPS && a[2] < b[3] - EPS && b[2] < a[3] - EPS
}

/// Brute-force legality of the movable cells: inside the die, bottom edge
/// on a row of the design's row list and span inside that row, left edge
/// on the row's site grid, no overlap with a fixed macro, and no pairwise
/// overlap (x-sorted sweep over *all* cells, rows not assumed).
pub fn brute_force_legal(design: &Design, placement: &Placement) -> Result<(), String> {
    let nl = design.netlist();
    let (xs, ys) = (placement.xs(), placement.ys());
    let region = design.region();
    let site = design.tech().site_width;
    let macros: Vec<(CellId, [f64; 4])> = nl
        .fixed_macros()
        .filter_map(|id| {
            let p = design.fixed_position(id)?;
            let c = nl.cell(id);
            Some((id, rect((p.x, p.y), c.width, c.height)))
        })
        .collect();

    let mut cells: Vec<(CellId, [f64; 4])> = Vec::new();
    for id in nl.movable_cells() {
        let c = nl.cell(id);
        let r = rect((xs[id.index()], ys[id.index()]), c.width, c.height);
        if r.iter().any(|v| !v.is_finite()) {
            return Err(format!("cell '{}' has a non-finite coordinate", c.name));
        }
        if r[0] < region.xl - EPS || r[1] > region.xh + EPS || r[2] < region.yl - EPS
            || r[3] > region.yh + EPS
        {
            return Err(format!("cell '{}' leaves the die: {r:?}", c.name));
        }
        let Some(row) = design.rows().iter().find(|row| (row.y - r[2]).abs() <= EPS) else {
            return Err(format!("cell '{}' sits on no row (bottom {})", c.name, r[2]));
        };
        if r[0] < row.x_min - EPS || r[1] > row.x_max + EPS {
            return Err(format!("cell '{}' overhangs its row: {r:?}", c.name));
        }
        let sites = (r[0] - row.x_min) / site;
        if (sites - sites.round()).abs() > 1e-5 {
            return Err(format!("cell '{}' is off the site grid (left {})", c.name, r[0]));
        }
        if let Some((m, _)) = macros.iter().find(|(_, m)| overlap(&r, m)) {
            return Err(format!("cell '{}' overlaps macro '{}'", c.name, nl.cell(*m).name));
        }
        cells.push((id, r));
    }

    cells.sort_by(|a, b| a.1[0].total_cmp(&b.1[0]));
    for (i, (a_id, a)) in cells.iter().enumerate() {
        // Everything further right than `a`'s right edge cannot touch it.
        for (b_id, b) in cells[i + 1..].iter().take_while(|(_, b)| b[0] < a[1] - EPS) {
            if overlap(a, b) {
                return Err(format!(
                    "cells '{}' and '{}' overlap",
                    nl.cell(*a_id).name,
                    nl.cell(*b_id).name
                ));
            }
        }
    }
    Ok(())
}

/// Weighted HPWL in one pass over the pin array: each pin widens its
/// net's bounding box by `centre + offset`; nets with fewer than two pins
/// contribute nothing.
pub fn naive_hpwl(design: &Design, placement: &Placement) -> f64 {
    let nl = design.netlist();
    let (xs, ys) = (placement.xs(), placement.ys());
    // Per net: [xl, xh, yl, yh] and the pin count.
    let mut boxes = vec![([f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY], 0usize); nl.num_nets()];
    for pin in nl.pins() {
        let x = xs[pin.cell.index()] + pin.offset.x;
        let y = ys[pin.cell.index()] + pin.offset.y;
        let (b, count) = &mut boxes[pin.net.index()];
        *b = [b[0].min(x), b[1].max(x), b[2].min(y), b[3].max(y)];
        *count += 1;
    }
    boxes
        .iter()
        .zip(nl.nets())
        .filter(|((_, count), _)| *count >= 2)
        .map(|((b, _), net)| net.weight * ((b[1] - b[0]) + (b[3] - b[2])))
        .sum()
}

/// Asserts both oracles against the library on one flow result: the
/// placement is legal by brute force *and* by `check_legal`, and
/// `FlowResult::hpwl` is the naive recomputation.
///
/// HPWL tolerance: min/max are exact, so every per-net term is the same
/// f64 in both computations; only the order of the final sum may differ,
/// and a sum of `n` non-negative terms moves by at most `n * EPSILON`
/// relative under reordering.
pub fn assert_flow_result(design: &Design, result: &FlowResult) {
    let zeros = vec![0u32; design.netlist().num_cells()];
    puffer_legal::check_legal(design, &result.placement, &zeros).expect("check_legal");
    brute_force_legal(design, &result.placement).expect("brute-force legality");

    let naive = naive_hpwl(design, &result.placement);
    let tolerance = design.netlist().num_nets() as f64 * f64::EPSILON * naive.abs();
    assert!(
        (naive - result.hpwl).abs() <= tolerance,
        "FlowResult::hpwl {} vs naive {naive} (tolerance {tolerance})",
        result.hpwl
    );
}
