//! Abacus-based legalization (Spindler et al., ISPD 2008; paper §III-D).
//!
//! Cells are processed in x-order; each is inserted into the row segment
//! minimizing its displacement. Within a segment the classic Abacus cluster
//! dynamic program packs cells optimally for quadratic movement: clusters
//! of touching cells are collapsed while they overlap, each cluster sitting
//! at its weighted-average optimal position clamped into the segment.
//!
//! The legalizer works on *footprint* widths — physical width plus the
//! discretized padding — so the white space reserved by PUFFER's padding
//! survives into the legal placement (§III-D's padding inheritance).

use crate::segments::{row_segments, RowSegment as Segment};
use crate::LegalizeError;
use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_db::netlist::CellId;

/// Abacus cluster: a maximal run of touching cells in one segment.
#[derive(Debug, Clone)]
struct Cluster {
    /// First cell index (into the segment's cell list).
    first: usize,
    /// Total weight `e` (we use footprint widths as weights).
    e: f64,
    /// Optimal-position accumulator `q = Σ e·(x' − offset)`.
    q: f64,
    /// Total width `w`.
    w: f64,
    /// Current position (left edge).
    x: f64,
}

/// Per-segment legalization state.
#[derive(Debug, Clone, Default)]
struct SegmentState {
    /// `(cell, footprint_width, desired_left_x)` in insertion order.
    cells: Vec<(CellId, f64, f64)>,
    clusters: Vec<Cluster>,
}

/// Result of legalization.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizeOutcome {
    /// The legal placement (cell centers; padding split evenly on both
    /// sides of each padded cell).
    pub placement: Placement,
    /// Average cell displacement (L1, movable cells).
    pub avg_displacement: f64,
    /// Maximum cell displacement (L1).
    pub max_displacement: f64,
}

/// Legalizes `global` with per-cell padding given in *sites*, under an
/// execution [`Budget`](puffer_budget::Budget) checked every few hundred
/// cell insertions.
///
/// `padding_sites[i]` widens cell `i`'s footprint by that many placement
/// sites (white space split evenly left/right). Pass all-zeros for plain
/// legalization.
///
/// Legalization is all-or-nothing — a half-inserted placement is not
/// legal — so on expiry this returns [`LegalizeError::Cancelled`] and the
/// caller keeps its pre-legalization snapshot. Flows that must always end
/// legal (e.g. the deadline-bounded place flow) pass
/// [`Budget::unbounded`](puffer_budget::Budget::unbounded) for their final
/// pass instead.
///
/// # Errors
///
/// Returns [`LegalizeError::OutOfCapacity`] when some cell cannot fit into
/// any row segment, [`LegalizeError::BadInput`] on length mismatches, and
/// [`LegalizeError::Cancelled`] when the budget expires.
pub fn legalize_bounded(
    design: &Design,
    global: &Placement,
    padding_sites: &[u32],
    budget: &puffer_budget::Budget,
) -> Result<LegalizeOutcome, LegalizeError> {
    let netlist = design.netlist();
    if padding_sites.len() != netlist.num_cells() {
        return Err(LegalizeError::BadInput(format!(
            "padding has {} entries for {} cells",
            padding_sites.len(),
            netlist.num_cells()
        )));
    }
    if global.len() != netlist.num_cells() {
        return Err(LegalizeError::BadInput(format!(
            "placement has {} entries for {} cells",
            global.len(),
            netlist.num_cells()
        )));
    }
    let site = design.tech().site_width;
    let row_h = design.tech().row_height;

    // Macro-aware, site-aligned row segments (shared with detailed
    // placement via [`crate::segments`]).
    let segments: Vec<Segment> = row_segments(design);
    if segments.is_empty() {
        return Err(LegalizeError::OutOfCapacity("no free row segments".into()));
    }
    let mut states: Vec<SegmentState> = vec![SegmentState::default(); segments.len()];

    // Sort movable cells by x (standard Abacus order).
    let mut order: Vec<CellId> = netlist.movable_cells().collect();
    for &cell in &order {
        let p = global.pos(cell);
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(LegalizeError::BadInput(format!(
                "cell '{}' has a non-finite global position {p}",
                netlist.cell(cell).name
            )));
        }
    }
    order.sort_by(|&a, &b| global.pos(a).x.total_cmp(&global.pos(b).x));

    // Index segments per row band for fast candidate lookup.
    let y0 = design.region().yl;
    let n_rows = design.rows().len();
    if n_rows == 0 {
        return Err(LegalizeError::OutOfCapacity("design has no rows".into()));
    }
    let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); n_rows];
    for (i, s) in segments.iter().enumerate() {
        let r = (((s.y - y0) / row_h).round() as usize).min(n_rows - 1);
        by_row[r].push(i);
    }

    for (done, &cell) in order.iter().enumerate() {
        if done.is_multiple_of(256) {
            budget.check().map_err(LegalizeError::Cancelled)?;
        }
        let c = netlist.cell(cell);
        let foot_w = align_up(c.width + padding_sites[cell.index()] as f64 * site, site);
        let gp = global.pos(cell);
        let desired_left = gp.x - foot_w / 2.0;
        let ideal_row =
            (((gp.y - c.height / 2.0 - y0) / row_h).round().max(0.0) as usize).min(n_rows - 1);

        let mut best: Option<(usize, f64)> = None; // (segment index, cost)
                                                   // Search rows outward from the ideal row; stop when the row's y
                                                   // distance alone exceeds the best cost found.
        for dist in 0..n_rows {
            let dy = dist as f64 * row_h;
            if let Some((_, cost)) = best {
                if dy > cost {
                    break;
                }
            }
            let mut rows_to_try: Vec<usize> = Vec::new();
            if dist == 0 {
                rows_to_try.push(ideal_row);
            } else {
                if ideal_row >= dist {
                    rows_to_try.push(ideal_row - dist);
                }
                if ideal_row + dist < n_rows {
                    rows_to_try.push(ideal_row + dist);
                }
            }
            for row in rows_to_try {
                for &si in &by_row[row] {
                    let seg = segments[si];
                    if seg.x_max - seg.x_min < foot_w {
                        continue;
                    }
                    // Capacity check.
                    let used: f64 = states[si].cells.iter().map(|(_, w, _)| w).sum();
                    if used + foot_w > seg.x_max - seg.x_min + 1e-9 {
                        continue;
                    }
                    let trial = trial_insert(&states[si], seg, cell, foot_w, desired_left, site);
                    let dy_actual = (seg.y + c.height / 2.0 - gp.y).abs();
                    let cost = trial + dy_actual;
                    if best.is_none_or(|(_, bc)| cost < bc) {
                        best = Some((si, cost));
                    }
                }
            }
        }

        let Some((si, _)) = best else {
            return Err(LegalizeError::OutOfCapacity(format!(
                "cell '{}' (footprint {foot_w}) does not fit in any segment",
                c.name
            )));
        };
        commit_insert(
            &mut states[si],
            segments[si],
            cell,
            foot_w,
            desired_left,
            site,
        );
    }

    // Emit the legal placement. Padding is split ⌊m/2⌋ sites to the left
    // and ⌈m/2⌉ to the right of the physical cell so that the physical left
    // edge stays on the site grid for odd paddings.
    let mut placement = global.clone();
    let (mut sum_d, mut max_d, mut count) = (0.0, 0.0f64, 0usize);
    for (si, state) in states.iter().enumerate() {
        let seg = segments[si];
        for cl in &state.clusters {
            let mut x = cl.x;
            for i in cl.first..cl.first + count_in_cluster(state, cl) {
                let (cell, w, _) = state.cells[i];
                let cdef = netlist.cell(cell);
                let left_pad = (padding_sites[cell.index()] / 2) as f64 * site;
                let center = Point::new(x + left_pad + cdef.width / 2.0, seg.y + cdef.height / 2.0);
                let d = center.l1_distance(global.pos(cell));
                sum_d += d;
                max_d = max_d.max(d);
                count += 1;
                placement.set(cell, center);
                x += w;
            }
        }
    }
    Ok(LegalizeOutcome {
        placement,
        avg_displacement: if count > 0 { sum_d / count as f64 } else { 0.0 },
        max_displacement: max_d,
    })
}

fn count_in_cluster(state: &SegmentState, cl: &Cluster) -> usize {
    // Clusters partition the cell list in order; the next cluster's first
    // index (or the list end) bounds this cluster.
    let next_first = state
        .clusters
        .iter()
        .map(|c| c.first)
        .filter(|&f| f > cl.first)
        .min()
        .unwrap_or(state.cells.len());
    next_first - cl.first
}

fn align_up(w: f64, site: f64) -> f64 {
    // Tolerate float noise in widths that are already site multiples
    // (0.6/0.2 can evaluate to 3.0000000000000004).
    (w / site - 1e-9).ceil().max(1.0) * site
}

fn align_to_site(x: f64, x_min: f64, site: f64) -> f64 {
    x_min + ((x - x_min) / site).round() * site
}

/// Cost of inserting (the cell's own |Δx| after packing), without mutating.
fn trial_insert(
    state: &SegmentState,
    seg: Segment,
    cell: CellId,
    w: f64,
    desired_left: f64,
    site: f64,
) -> f64 {
    let mut clone = state.clone();
    commit_insert(&mut clone, seg, cell, w, desired_left, site);
    // Find the cell's final x.
    for cl in &clone.clusters {
        let mut x = cl.x;
        for i in cl.first..cl.first + count_in_cluster(&clone, cl) {
            let (cid, cw, want) = clone.cells[i];
            if cid == cell {
                return (x - want).abs();
            }
            x += cw;
        }
    }
    f64::INFINITY
}

/// The Abacus `PlaceRow` step: append the cell, then collapse clusters.
fn commit_insert(
    state: &mut SegmentState,
    seg: Segment,
    cell: CellId,
    w: f64,
    desired_left: f64,
    site: f64,
) {
    let desired = desired_left.clamp(seg.x_min, (seg.x_max - w).max(seg.x_min));
    let idx = state.cells.len();
    state.cells.push((cell, w, desired));
    state.clusters.push(Cluster {
        first: idx,
        e: w,
        q: w * desired,
        w,
        x: desired,
    });
    collapse(state, seg, site);
}

fn collapse(state: &mut SegmentState, seg: Segment, site: f64) {
    loop {
        // Position the last cluster optimally & clamp.
        {
            let Some(cl) = state.clusters.last_mut() else {
                return; // no clusters yet: nothing to place
            };
            let x_opt = cl.q / cl.e;
            cl.x = align_to_site(
                x_opt.clamp(seg.x_min, (seg.x_max - cl.w).max(seg.x_min)),
                seg.x_min,
                site,
            );
            if cl.x + cl.w > seg.x_max + 1e-9 {
                // Floor-align so the cluster's right edge stays inside.
                let x = seg.x_min + ((seg.x_max - cl.w - seg.x_min) / site).floor() * site;
                cl.x = x.max(seg.x_min);
            }
        }
        let [.., prev, last] = state.clusters.as_slice() else {
            return; // fewer than two clusters: nothing to merge
        };
        if prev.x + prev.w <= last.x + 1e-9 {
            return; // no overlap: done
        }
        // Merge last into prev (Abacus AddCluster). The pattern above
        // guarantees both clusters exist.
        let Some(last) = state.clusters.pop() else {
            return;
        };
        let Some(prev) = state.clusters.last_mut() else {
            return;
        };
        prev.q += last.q - last.e * prev.w;
        prev.e += last.e;
        prev.w += last.w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_budget::Budget;
    use puffer_db::geom::Rect;
    use puffer_db::netlist::{CellKind, NetlistBuilder};
    use puffer_db::tech::Technology;

    fn design(n: usize, w: f64, region: f64) -> Design {
        let mut nb = NetlistBuilder::new();
        for i in 0..n {
            nb.add_cell(format!("c{i}"), w, 1.0, CellKind::Movable);
        }
        Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, region, region),
        )
        .unwrap()
    }

    fn no_pad(d: &Design) -> Vec<u32> {
        vec![0; d.netlist().num_cells()]
    }

    fn assert_legal(d: &Design, p: &Placement, pad: &[u32]) {
        crate::check::check_legal(d, p, pad).unwrap();
    }

    #[test]
    fn overlapping_pair_is_separated() {
        let d = design(2, 1.0, 10.0);
        let mut g = Placement::zeroed(2);
        g.set(CellId(0), Point::new(5.0, 5.2));
        g.set(CellId(1), Point::new(5.0, 5.2));
        let out = legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()).unwrap();
        assert_legal(&d, &out.placement, &no_pad(&d));
        let a = out.placement.pos(CellId(0));
        let b = out.placement.pos(CellId(1));
        // Same row (closest to y=5.2 → row 4 or 5), abutting or separated.
        assert!((a.x - b.x).abs() >= 1.0 - 1e-9);
    }

    #[test]
    fn already_legal_placement_barely_moves() {
        let d = design(3, 1.0, 12.0);
        let mut g = Placement::zeroed(3);
        g.set(CellId(0), Point::new(1.5, 2.5));
        g.set(CellId(1), Point::new(4.5, 2.5));
        g.set(CellId(2), Point::new(8.5, 6.5));
        let out = legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()).unwrap();
        assert_legal(&d, &out.placement, &no_pad(&d));
        assert!(out.max_displacement < 0.5, "max {}", out.max_displacement);
    }

    #[test]
    fn padding_reserves_white_space() {
        let d = design(2, 1.0, 12.0);
        let mut g = Placement::zeroed(2);
        g.set(CellId(0), Point::new(6.0, 3.0));
        g.set(CellId(1), Point::new(6.0, 3.0));
        // Cell 0 padded by 5 sites = 1.0 extra width.
        let pad = vec![5u32, 0];
        let out = legalize_bounded(&d, &g, &pad, &Budget::unbounded()).unwrap();
        assert_legal(&d, &out.placement, &pad);
        let a = out.placement.pos(CellId(0));
        let b = out.placement.pos(CellId(1));
        if (a.y - b.y).abs() < 1e-9 {
            // Padded footprint is 2.0 wide with the cell sitting 2 sites
            // (0.4) from its left edge; worst-case center separation is
            // half-widths (1.0) plus the smaller pad side (0.4).
            assert!((a.x - b.x).abs() >= 1.4 - 1e-9, "|{} - {}|", a.x, b.x);
        }
    }

    #[test]
    fn cells_avoid_macros() {
        let mut nb = NetlistBuilder::new();
        for i in 0..8 {
            nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
        }
        let m = nb.add_cell("blk", 6.0, 6.0, CellKind::FixedMacro);
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 16.0, 16.0),
        )
        .unwrap();
        d.place_macro(m, Point::new(8.0, 8.0)).unwrap();
        let mut g = d.initial_placement();
        for i in 0..8u32 {
            g.set(CellId(i), Point::new(8.0, 8.0)); // all inside the macro
        }
        let pad = vec![0u32; 9];
        let out = legalize_bounded(&d, &g, &pad, &Budget::unbounded()).unwrap();
        crate::check::check_legal(&d, &out.placement, &pad).unwrap();
    }

    #[test]
    fn dense_row_packs_without_overlap() {
        let d = design(30, 1.0, 12.0);
        let mut g = Placement::zeroed(30);
        for i in 0..30u32 {
            g.set(CellId(i), Point::new(6.0 + (i as f64) * 0.01, 6.0));
        }
        let out = legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()).unwrap();
        assert_legal(&d, &out.placement, &no_pad(&d));
    }

    #[test]
    fn cancelled_budget_aborts_legalization_cleanly() {
        let d = design(30, 1.0, 12.0);
        let mut g = Placement::zeroed(30);
        for i in 0..30u32 {
            g.set(CellId(i), Point::new(6.0, 6.0));
        }
        let token = puffer_budget::CancelToken::new();
        token.cancel();
        let budget = Budget::unbounded().with_token(token);
        let err = legalize_bounded(&d, &g, &no_pad(&d), &budget).unwrap_err();
        assert!(matches!(err, LegalizeError::Cancelled(_)), "{err}");
    }

    #[test]
    fn impossible_fit_errors() {
        // Region 4x4 with 1 row of width 4; a cell of width 6 cannot fit.
        let d = design(1, 6.0, 4.0);
        let g = d.initial_placement();
        match legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()) {
            Err(LegalizeError::OutOfCapacity(_)) => {}
            other => panic!("expected OutOfCapacity, got {other:?}"),
        }
    }

    #[test]
    fn bad_padding_length_errors() {
        let d = design(2, 1.0, 8.0);
        let g = d.initial_placement();
        assert!(matches!(
            legalize_bounded(&d, &g, &[0u32], &Budget::unbounded()),
            Err(LegalizeError::BadInput(_))
        ));
    }

    #[test]
    fn cluster_sits_at_weighted_average_position() {
        // Three equal cells all wanting x-center 5.0 in one row: Abacus
        // packs them as a cluster centred at the common target.
        let d = design(3, 1.0, 12.0);
        let mut g = Placement::zeroed(3);
        for i in 0..3u32 {
            g.set(CellId(i), Point::new(5.0, 0.5));
        }
        let out = legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()).unwrap();
        assert_legal(&d, &out.placement, &no_pad(&d));
        let mut xs: Vec<f64> = (0..3u32).map(|i| out.placement.pos(CellId(i)).x).collect();
        xs.sort_by(f64::total_cmp);
        // Abutted: consecutive centers exactly one width apart.
        assert!((xs[1] - xs[0] - 1.0).abs() < 1e-9);
        assert!((xs[2] - xs[1] - 1.0).abs() < 1e-9);
        // Cluster centroid near the common target (site rounding allowed).
        let centroid = (xs[0] + xs[2]) / 2.0;
        assert!((centroid - 5.0).abs() <= 0.2 + 1e-9, "centroid {centroid}");
        // All in the same row.
        let ys: Vec<f64> = (0..3u32).map(|i| out.placement.pos(CellId(i)).y).collect();
        assert!(ys.iter().all(|&y| (y - ys[0]).abs() < 1e-9));
    }

    #[test]
    fn trial_cost_matches_committed_position() {
        let d = design(2, 1.0, 12.0);
        let mut g = Placement::zeroed(2);
        g.set(CellId(0), Point::new(4.1, 0.5));
        g.set(CellId(1), Point::new(4.1, 0.5));
        let out = legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()).unwrap();
        // The second cell's displacement must equal what the row-selection
        // trial predicted, i.e. both cells end up adjacent to the target.
        let a = out.placement.pos(CellId(0));
        let b = out.placement.pos(CellId(1));
        assert!((a.x - 4.1).abs() < 1.2 && (b.x - 4.1).abs() < 1.2);
        assert!(out.max_displacement < 1.5);
    }

    #[test]
    fn displacement_stats_are_consistent() {
        let d = design(10, 1.0, 16.0);
        let mut g = Placement::zeroed(10);
        for i in 0..10u32 {
            g.set(CellId(i), Point::new(8.0, 8.0));
        }
        let out = legalize_bounded(&d, &g, &no_pad(&d), &Budget::unbounded()).unwrap();
        assert!(out.avg_displacement <= out.max_displacement + 1e-12);
        assert!(out.avg_displacement > 0.0);
    }
}
