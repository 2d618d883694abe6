//! Independent oracles for a flow's result: a brute-force legality check
//! and a naive HPWL, written against the raw data model only (cell sizes,
//! centre coordinates, pin offsets, the row list). They share no code
//! with `puffer_legal` or `puffer_db::hpwl`, walk the data a different
//! way (pins → nets instead of the CSR net → pins; a 2-D overlap sweep
//! instead of per-row neighbours), and must agree with both.
//!
//! For a routing result, [`assert_route_report`] rebuilds usage from the
//! reported paths alone and recomputes every Table II quantity from it,
//! sharing no code with `puffer_route`.

#![allow(
    dead_code,
    reason = "each test crate that mounts this module uses its own subset"
)]

use puffer::FlowResult;
use puffer_db::design::{Design, Placement};
use puffer_db::netlist::CellId;
use puffer_route::RouteReport;

/// Geometric slack, the same 1e-6 dbu `check_legal` allows: legal
/// coordinates are sums of site widths, not exact integers.
const EPS: f64 = 1e-6;

/// `[xl, xh] x [yl, yh]` of a cell from its centre and size.
fn rect(center: (f64, f64), w: f64, h: f64) -> [f64; 4] {
    [
        center.0 - w / 2.0,
        center.0 + w / 2.0,
        center.1 - h / 2.0,
        center.1 + h / 2.0,
    ]
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
        if r[0] < region.xl - EPS
            || r[1] > region.xh + EPS
            || r[2] < region.yl - EPS
            || r[3] > region.yh + EPS
        {
            return Err(format!("cell '{}' leaves the die: {r:?}", c.name));
        }
        let Some(row) = design.rows().iter().find(|row| (row.y - r[2]).abs() <= EPS) else {
            return Err(format!(
                "cell '{}' sits on no row (bottom {})",
                c.name, r[2]
            ));
        };
        if r[0] < row.x_min - EPS || r[1] > row.x_max + EPS {
            return Err(format!("cell '{}' overhangs its row: {r:?}", c.name));
        }
        let sites = (r[0] - row.x_min) / site;
        if (sites - sites.round()).abs() > 1e-5 {
            return Err(format!(
                "cell '{}' is off the site grid (left {})",
                c.name, r[0]
            ));
        }
        if let Some((m, _)) = macros.iter().find(|(_, m)| overlap(&r, m)) {
            return Err(format!(
                "cell '{}' overlaps macro '{}'",
                c.name,
                nl.cell(*m).name
            ));
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
    let mut boxes = vec![
        (
            [
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY
            ],
            0usize
        );
        nl.num_nets()
    ];
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

/// Asserts a routing report against its own paths: every path is
/// non-empty, its row-major Gcell indices are inside the grid, and it is
/// 4-connected; usage rebuilt from the paths (half a track at each end of
/// every step) **equals** the report's demand grids; and wirelength,
/// overflowed-Gcell count, HOF and VOF recomputed from that usage and the
/// capacity grids are the report's.
///
/// Usage is compared with `==`: every charge and refund the router made
/// was a multiple of one half, and sums of those are exact in `f64`, so
/// the final usage is a pure function of the final paths. The three
/// floating-point totals are sums taken in another order than the
/// router's (per-Gcell totals instead of per-step increments), so they
/// get `n * EPSILON` relative.
pub fn assert_route_report(design: &Design, report: &RouteReport) {
    let map = &report.congestion;
    let (nx, ny) = (map.nx(), map.ny());
    let mut h_use = vec![0.0f64; nx * ny];
    let mut v_use = vec![0.0f64; nx * ny];
    assert_eq!(
        report.paths.nx(),
        nx,
        "paths are row-major on the map's grid"
    );
    for (i, path) in report.paths.iter().enumerate() {
        assert!(!path.is_empty(), "path {i} is empty");
        for &node in path.nodes() {
            assert!(
                (node as usize) < nx * ny,
                "path {i} leaves the {nx}x{ny} grid at {node}"
            );
        }
        // Row-major Gcell indices, decoded here rather than by the router.
        let cells: Vec<(usize, usize)> = path
            .nodes()
            .iter()
            .map(|&n| (n as usize % nx, n as usize / nx))
            .collect();
        for step in cells.windows(2) {
            let ((ax, ay), (bx, by)) = (step[0], step[1]);
            let usage = match (ax.abs_diff(bx), ay.abs_diff(by)) {
                (1, 0) => &mut h_use,
                (0, 1) => &mut v_use,
                _ => panic!("path {i} jumps from ({ax}, {ay}) to ({bx}, {by})"),
            };
            usage[ay * nx + ax] += 0.5;
            usage[by * nx + bx] += 0.5;
        }
    }
    assert_eq!(
        h_use,
        map.h_demand().as_slice(),
        "horizontal usage vs paths"
    );
    assert_eq!(v_use, map.v_demand().as_slice(), "vertical usage vs paths");

    let (h_cap, v_cap) = (map.h_capacity().as_slice(), map.v_capacity().as_slice());
    let over = |usage: &[f64], cap: &[f64]| -> f64 {
        usage.iter().zip(cap).map(|(u, c)| (u - c).max(0.0)).sum()
    };
    let overflowed = (0..nx * ny)
        .filter(|&g| h_use[g] - h_cap[g] > 1e-9 || v_use[g] - v_cap[g] > 1e-9)
        .count();
    assert_eq!(overflowed, report.overflow_gcells, "overflowed Gcells");

    let close = |what: &str, ours: f64, theirs: f64, terms: usize| {
        let tolerance = terms as f64 * f64::EPSILON * ours.abs();
        assert!(
            (ours - theirs).abs() <= tolerance,
            "{what}: report {theirs} vs oracle {ours} (tolerance {tolerance})"
        );
    };
    // A step adds one track-Gcell in its direction, so total usage counts
    // the steps; the die is cut into nx x ny equal Gcells.
    let region = design.region();
    let steps = report.paths.iter().map(|p| p.len() - 1).sum::<usize>();
    let wirelength = h_use.iter().sum::<f64>() * (region.width() / nx as f64)
        + v_use.iter().sum::<f64>() * (region.height() / ny as f64);
    close("wirelength", wirelength, report.wirelength, steps.max(1));
    let hof = 100.0 * over(&h_use, h_cap) / h_cap.iter().sum::<f64>();
    let vof = 100.0 * over(&v_use, v_cap) / v_cap.iter().sum::<f64>();
    close("hof_pct", hof, report.hof_pct, 2 * nx * ny);
    close("vof_pct", vof, report.vof_pct, 2 * nx * ny);

    // What the search counters can and cannot say.
    assert_eq!(report.segments, report.paths.len() as u64);
    assert!(report.reroutes <= report.segments * report.rounds as u64);
    assert!(report.reroutes_kept <= report.reroutes);
    assert!(report.reroutes_reused <= report.reroutes_kept);
    assert!(report.maze_pops <= report.maze_pushes);
}
