//! Routability-aware detailed placement for PUFFER.
//!
//! The paper's flow ends at legalization; real flows follow with a detailed
//! placement step that recovers wirelength without disturbing the
//! legalized (and, for PUFFER, padded) structure. This crate provides that
//! step as an extension, in the spirit of the paper's conclusion ("we plan
//! to introduce more optional strategies"):
//!
//! * **local reordering** ([`DetailedConfig::window`]) — sliding windows of
//!   neighbouring cells within a row segment are permuted and repacked in
//!   place when that reduces HPWL;
//! * **global swap** — pairs of equal-footprint cells exchange positions
//!   when the swap reduces HPWL;
//! * **routability guard** ([`refine_bounded`]'s `congestion` map) — moves
//!   into Gcells more overflowed than the source are rejected, so
//!   wirelength recovery never undoes the padding's congestion relief.
//!
//! All moves preserve legality by construction (footprints never change
//! and repacking stays inside the window span); the test-suite verifies
//! with the independent checker from [`puffer_legal`].
//!
//! # Example
//!
//! ```
//! use puffer_budget::Budget;
//! use puffer_dp::{refine_bounded, DetailedConfig};
//! use puffer_gen::{generate, GeneratorConfig};
//! use puffer_legal::legalize_bounded;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GeneratorConfig {
//!     num_cells: 200, num_nets: 220, utilization: 0.5,
//!     ..GeneratorConfig::default()
//! })?;
//! let pad = vec![0u32; design.netlist().num_cells()];
//! let unbounded = Budget::unbounded();
//! let legal = legalize_bounded(&design, &design.initial_placement(), &pad, &unbounded)?;
//! let refined = refine_bounded(
//!     &design, &legal.placement, &pad, &DetailedConfig::default(), None, &unbounded)?;
//! assert!(refined.hpwl_after <= refined.hpwl_before);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use puffer_budget::Budget;
use puffer_congest::CongestionMap;
use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_db::hpwl::{net_hpwl, total_hpwl};
use puffer_db::netlist::{CellId, NetId};
use puffer_legal::{row_segments, LegalizeError};

/// Candidate search radius for global swap, in row heights.
const SWAP_RADIUS: f64 = 6.0;

/// Minimum HPWL gain (absolute) for a move to be accepted.
const MIN_GAIN: f64 = 1e-9;

/// Configuration of the detailed placer.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedConfig {
    /// Refinement passes over the whole design.
    pub max_passes: usize,
    /// Local-reordering window size (2 or 3; larger windows explode
    /// combinatorially for negligible gain).
    pub window: usize,
}

impl Default for DetailedConfig {
    fn default() -> Self {
        DetailedConfig {
            max_passes: 3,
            window: 3,
        }
    }
}

/// Result of a refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedOutcome {
    /// The refined (still legal) placement.
    pub placement: Placement,
    /// HPWL before refinement.
    pub hpwl_before: f64,
    /// HPWL after refinement.
    pub hpwl_after: f64,
    /// Accepted moves (reorders + swaps).
    pub moves: usize,
    /// Passes executed.
    pub passes: usize,
}

/// The cells of one segment, in left-to-right order, with footprint data:
/// `(cell, footprint_width, footprint_left)` sorted by `footprint_left`.
#[derive(Debug, Clone, Default)]
struct SegmentCells {
    cells: Vec<(CellId, f64, f64)>,
}

/// Refines a legal placement under an execution [`Budget`], checked
/// between refinement passes.
///
/// With a `congestion` map, moves that worsen the congestion balance are
/// rejected: a cell may only move to a Gcell whose combined overflow is no
/// larger than its current Gcell's. `None` refines on wirelength alone.
///
/// Every pass leaves the placement legal and no worse than before, so an
/// expiring deadline simply stops after the current pass and returns the
/// best placement reached — never an error.
///
/// # Errors
///
/// Returns [`LegalizeError::BadInput`] on length mismatches and
/// [`LegalizeError::Illegal`] when the input placement does not map onto
/// the design's row segments.
pub fn refine_bounded(
    design: &Design,
    placement: &Placement,
    padding_sites: &[u32],
    config: &DetailedConfig,
    congestion: Option<&CongestionMap>,
    budget: &Budget,
) -> Result<DetailedOutcome, LegalizeError> {
    let netlist = design.netlist();
    if padding_sites.len() != netlist.num_cells() {
        return Err(LegalizeError::BadInput(format!(
            "padding has {} entries for {} cells",
            padding_sites.len(),
            netlist.num_cells()
        )));
    }
    if placement.len() != netlist.num_cells() {
        return Err(LegalizeError::BadInput(format!(
            "placement has {} entries for {} cells",
            placement.len(),
            netlist.num_cells()
        )));
    }
    let site = design.tech().site_width;
    let segments = row_segments(design);
    let mut current = placement.clone();

    // --- assign cells to segments ------------------------------------
    let mut seg_cells: Vec<SegmentCells> = vec![SegmentCells::default(); segments.len()];
    // Row-indexed lookup.
    let row_h = design.tech().row_height;
    let y0 = design.region().yl;
    let n_rows = design.rows().len();
    if n_rows == 0 && netlist.movable_cells().next().is_some() {
        return Err(LegalizeError::BadInput(
            "design has movable cells but no rows".into(),
        ));
    }
    let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); n_rows];
    for (i, s) in segments.iter().enumerate() {
        let r = (((s.y - y0) / row_h).round() as usize).min(n_rows.saturating_sub(1));
        by_row[r].push(i);
    }
    for id in netlist.movable_cells() {
        let c = netlist.cell(id);
        let m = padding_sites[id.index()];
        let foot_w = foot_width(c.width, m, site);
        let p = current.pos(id);
        let left = foot_left(p.x, c.width, m, site);
        let row = (((p.y - c.height / 2.0 - y0) / row_h).round().max(0.0) as usize)
            .min(n_rows.saturating_sub(1));
        let seg_idx = by_row[row]
            .iter()
            .copied()
            .find(|&si| {
                left >= segments[si].x_min - 1e-6 && left + foot_w <= segments[si].x_max + 1e-6
            })
            .ok_or_else(|| {
                LegalizeError::Illegal(format!("cell '{}' does not sit in any row segment", c.name))
            })?;
        seg_cells[seg_idx].cells.push((id, foot_w, left));
    }
    for sc in &mut seg_cells {
        sc.cells.sort_by(|a, b| a.2.total_cmp(&b.2));
    }

    // --- refinement passes --------------------------------------------
    let hpwl_before = total_hpwl(netlist, &current);
    let mut moves = 0usize;
    let mut passes = 0usize;
    for _ in 0..config.max_passes {
        if budget.is_exhausted() {
            // Each completed pass left the placement legal and no worse;
            // stop here and return the best placement reached.
            break;
        }
        passes += 1;
        let mut improved = false;
        // Pass A: local reordering within segments.
        for sc in seg_cells.iter_mut() {
            improved |= reorder_segment(
                design,
                &mut current,
                sc,
                padding_sites,
                site,
                config,
                congestion,
                &mut moves,
            );
        }
        // Pass B: global swaps of equal-footprint cells.
        improved |= global_swaps(
            design,
            &mut current,
            &mut seg_cells,
            padding_sites,
            site,
            congestion,
            &mut moves,
        );
        if !improved {
            break;
        }
    }

    Ok(DetailedOutcome {
        hpwl_after: total_hpwl(netlist, &current),
        placement: current,
        hpwl_before,
        moves,
        passes,
    })
}

fn foot_width(phys: f64, pad_sites: u32, site: f64) -> f64 {
    ((phys + pad_sites as f64 * site) / site - 1e-9)
        .ceil()
        .max(1.0)
        * site
}

fn foot_left(center_x: f64, phys: f64, pad_sites: u32, site: f64) -> f64 {
    center_x - phys / 2.0 - (pad_sites / 2) as f64 * site
}

fn center_from_left(left: f64, phys: f64, pad_sites: u32, site: f64) -> f64 {
    left + (pad_sites / 2) as f64 * site + phys / 2.0
}

/// HPWL over the nets touching any of `cells` (the incremental cost basis).
fn local_hpwl(design: &Design, placement: &Placement, nets: &[NetId]) -> f64 {
    nets.iter()
        .map(|&n| design.netlist().net(n).weight * net_hpwl(design.netlist(), placement, n))
        .sum()
}

fn nets_of(design: &Design, cells: &[CellId]) -> Vec<NetId> {
    let mut nets: Vec<NetId> = cells
        .iter()
        .flat_map(|&c| {
            design
                .netlist()
                .cell_pins(c)
                .iter()
                .map(|&p| design.netlist().pin(p).net)
        })
        .collect();
    nets.sort_unstable();
    nets.dedup();
    nets
}

/// Combined overflow of the Gcell containing `p`.
fn overflow_at(map: &CongestionMap, p: Point) -> f64 {
    let (ix, iy) = map.h_capacity().cell_of(p);
    map.overflow_h(ix, iy) + map.overflow_v(ix, iy)
}

#[allow(
    clippy::too_many_arguments,
    reason = "one refinement pass over the shared window state"
)]
fn reorder_segment(
    design: &Design,
    placement: &mut Placement,
    sc: &mut SegmentCells,
    padding_sites: &[u32],
    site: f64,
    config: &DetailedConfig,
    congestion: Option<&CongestionMap>,
    moves: &mut usize,
) -> bool {
    let w = config.window.clamp(2, 4);
    if sc.cells.len() < w {
        return false;
    }
    let netlist = design.netlist();
    let mut improved = false;
    for start in 0..=(sc.cells.len() - w) {
        let window: Vec<(CellId, f64, f64)> = sc.cells[start..start + w].to_vec();
        let ids: Vec<CellId> = window.iter().map(|&(c, _, _)| c).collect();
        let nets = nets_of(design, &ids);
        let before = local_hpwl(design, placement, &nets);
        let span_left = window[0].2;

        // Try all permutations of the window (w ≤ 4 ⇒ ≤ 24).
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut perm: Vec<usize> = (0..w).collect();
        permute(&mut perm, 0, &mut |order: &[usize]| {
            if order.iter().enumerate().all(|(i, &o)| i == o) {
                return; // identity
            }
            // Repack in the chosen order from the window's left edge.
            let mut x = span_left;
            let mut trial_positions = Vec::with_capacity(w);
            for &o in order {
                let (cell, fw, _) = window[o];
                trial_positions.push((cell, x));
                x += fw;
            }
            // Apply tentatively.
            let saved: Vec<(CellId, Point)> = ids.iter().map(|&c| (c, placement.pos(c))).collect();
            let mut ok = true;
            for &(cell, left) in &trial_positions {
                let cdef = netlist.cell(cell);
                let m = padding_sites[cell.index()];
                let cx = center_from_left(left, cdef.width, m, site);
                let np = Point::new(cx, placement.pos(cell).y);
                if let Some(map) = congestion {
                    if overflow_at(map, np) > overflow_at(map, placement.pos(cell)) + 1e-9 {
                        ok = false;
                        break;
                    }
                }
                placement.set(cell, np);
            }
            if ok {
                let after = local_hpwl(design, placement, &nets);
                let gain = before - after;
                if gain > MIN_GAIN && best.as_ref().is_none_or(|(_, g)| gain > *g) {
                    best = Some((order.to_vec(), gain));
                }
            }
            for (c, p) in saved {
                placement.set(c, p);
            }
        });

        if let Some((order, _)) = best {
            let mut x = span_left;
            let mut new_window = Vec::with_capacity(w);
            for &o in &order {
                let (cell, fw, _) = window[o];
                let cdef = netlist.cell(cell);
                let m = padding_sites[cell.index()];
                placement.set(
                    cell,
                    Point::new(
                        center_from_left(x, cdef.width, m, site),
                        placement.pos(cell).y,
                    ),
                );
                new_window.push((cell, fw, x));
                x += fw;
            }
            sc.cells[start..start + w].copy_from_slice(&new_window);
            *moves += 1;
            improved = true;
        }
    }
    improved
}

/// Visits all permutations of `perm[k..]` (Heap's algorithm, recursive).
fn permute(perm: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        visit(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, visit);
        perm.swap(k, i);
    }
}

fn global_swaps(
    design: &Design,
    placement: &mut Placement,
    seg_cells: &mut [SegmentCells],
    padding_sites: &[u32],
    site: f64,
    congestion: Option<&CongestionMap>,
    moves: &mut usize,
) -> bool {
    let netlist = design.netlist();
    // Index all placed cells by (segment, slot) and bucket by footprint.
    let mut locator: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); netlist.num_cells()];
    for (si, sc) in seg_cells.iter().enumerate() {
        for (slot, &(cell, _, _)) in sc.cells.iter().enumerate() {
            locator[cell.index()] = (si, slot);
        }
    }
    let all_cells: Vec<CellId> = seg_cells
        .iter()
        .flat_map(|sc| sc.cells.iter().map(|&(c, _, _)| c))
        .collect();

    // Spatial bucket grid over cell positions so candidate search is local
    // instead of O(n) per cell. Bucket size = swap radius.
    let radius = SWAP_RADIUS * design.tech().row_height;
    let region = design.region();
    let bx = ((region.width() / radius.max(1e-9)).ceil() as usize).clamp(1, 512);
    let by = ((region.height() / radius.max(1e-9)).ceil() as usize).clamp(1, 512);
    let bucket_of = |p: Point| -> (usize, usize) {
        (
            (((p.x - region.xl) / region.width() * bx as f64) as usize).min(bx - 1),
            (((p.y - region.yl) / region.height() * by as f64) as usize).min(by - 1),
        )
    };
    // Buckets are built once per pass; committed swaps leave entries
    // slightly stale, which only narrows the candidate set (distances are
    // always re-checked against live positions), never breaks correctness.
    let mut buckets: Vec<Vec<CellId>> = vec![Vec::new(); bx * by];
    for &c in &all_cells {
        let (ix, iy) = bucket_of(placement.pos(c));
        buckets[iy * bx + ix].push(c);
    }

    let mut improved = false;
    for &a in &all_cells {
        let (sa, slot_a) = locator[a.index()];
        let (_, fw_a, left_a) = seg_cells[sa].cells[slot_a];
        // Desired location: centroid of the other pins of a's nets.
        let Some(target) = net_centroid(design, placement, a) else {
            continue;
        };
        if target.l1_distance(placement.pos(a)) < site {
            continue;
        }
        // Candidate: the closest same-footprint cell near the target,
        // searched in the 3×3 bucket neighbourhood of the target.
        let (tx, ty) = bucket_of(target);
        let mut best_candidate: Option<(CellId, f64)> = None;
        for iy in ty.saturating_sub(1)..=(ty + 1).min(by - 1) {
            for ix in tx.saturating_sub(1)..=(tx + 1).min(bx - 1) {
                for &b in &buckets[iy * bx + ix] {
                    if b == a {
                        continue;
                    }
                    let (sb, slot_b) = locator[b.index()];
                    let (_, fw_b, _) = seg_cells[sb].cells[slot_b];
                    if (fw_a - fw_b).abs() > 1e-9 {
                        continue;
                    }
                    let d = placement.pos(b).l1_distance(target);
                    if d < radius && best_candidate.is_none_or(|(_, bd)| d < bd) {
                        best_candidate = Some((b, d));
                    }
                }
            }
        }
        let Some((b, _)) = best_candidate else {
            continue;
        };

        // Trial swap.
        let nets = nets_of(design, &[a, b]);
        let before = local_hpwl(design, placement, &nets);
        let pa = placement.pos(a);
        let pb = placement.pos(b);
        let ca = netlist.cell(a);
        let cb = netlist.cell(b);
        let (sb, slot_b) = locator[b.index()];
        let left_b = seg_cells[sb].cells[slot_b].2;
        let new_a = Point::new(
            center_from_left(left_b, ca.width, padding_sites[a.index()], site),
            pb.y - cb.height / 2.0 + ca.height / 2.0,
        );
        let new_b = Point::new(
            center_from_left(left_a, cb.width, padding_sites[b.index()], site),
            pa.y - ca.height / 2.0 + cb.height / 2.0,
        );
        if let Some(map) = congestion {
            if overflow_at(map, new_a) > overflow_at(map, pa) + 1e-9
                || overflow_at(map, new_b) > overflow_at(map, pb) + 1e-9
            {
                continue;
            }
        }
        placement.set(a, new_a);
        placement.set(b, new_b);
        let after = local_hpwl(design, placement, &nets);
        if before - after > MIN_GAIN {
            // Commit: exchange bookkeeping entries.
            let (sa, slot_a) = locator[a.index()];
            let (sb, slot_b) = locator[b.index()];
            let fa = seg_cells[sa].cells[slot_a];
            let fb = seg_cells[sb].cells[slot_b];
            seg_cells[sa].cells[slot_a] = (b, fb.1, fa.2);
            seg_cells[sb].cells[slot_b] = (a, fa.1, fb.2);
            locator.swap(a.index(), b.index());
            *moves += 1;
            improved = true;
        } else {
            placement.set(a, pa);
            placement.set(b, pb);
        }
    }
    improved
}

/// Centroid of the *other* pins on the cell's nets (its ideal location).
fn net_centroid(design: &Design, placement: &Placement, cell: CellId) -> Option<Point> {
    let netlist = design.netlist();
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut n = 0usize;
    for &pid in netlist.cell_pins(cell) {
        let net = netlist.pin(pid).net;
        for &q in netlist.net_pins(net) {
            if netlist.pin(q).cell != cell {
                let p = placement.pin_pos(netlist, q);
                sx += p.x;
                sy += p.y;
                n += 1;
            }
        }
    }
    (n > 0).then(|| Point::new(sx / n as f64, sy / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Rect;
    use puffer_db::netlist::{CellKind, NetlistBuilder};
    use puffer_db::tech::Technology;
    use puffer_gen::{generate, GeneratorConfig};
    use puffer_legal::{check_legal, legalize_bounded};

    fn refined_design() -> (Design, Placement, Vec<u32>) {
        let d = generate(&GeneratorConfig {
            num_cells: 400,
            num_nets: 450,
            num_macros: 2,
            utilization: 0.6,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let pad: Vec<u32> = (0..d.netlist().num_cells())
            .map(|i| (i % 3) as u32)
            .collect();
        let legal =
            legalize_bounded(&d, &d.initial_placement(), &pad, &Budget::unbounded()).unwrap();
        (d, legal.placement, pad)
    }

    /// Unguarded, unbounded refinement under the default configuration.
    fn refine_default(
        d: &Design,
        p: &Placement,
        pad: &[u32],
    ) -> Result<DetailedOutcome, LegalizeError> {
        refine_bounded(
            d,
            p,
            pad,
            &DetailedConfig::default(),
            None,
            &Budget::unbounded(),
        )
    }

    #[test]
    fn refinement_never_increases_hpwl_and_stays_legal() {
        let (d, legal, pad) = refined_design();
        let out = refine_default(&d, &legal, &pad).unwrap();
        assert!(out.hpwl_after <= out.hpwl_before + 1e-9);
        check_legal(&d, &out.placement, &pad).unwrap();
    }

    #[test]
    fn refinement_actually_improves_a_scrambled_placement() {
        let (d, legal, pad) = refined_design();
        let out = refine_default(&d, &legal, &pad).unwrap();
        // The initial legalization of a clustered start leaves plenty of
        // recoverable wirelength.
        assert!(out.moves > 0, "no moves accepted");
        assert!(
            out.hpwl_after < out.hpwl_before * 0.995,
            "gain too small: {} -> {}",
            out.hpwl_before,
            out.hpwl_after
        );
    }

    #[test]
    fn refinement_is_deterministic() {
        let (d, legal, pad) = refined_design();
        let a = refine_default(&d, &legal, &pad).unwrap();
        let b = refine_default(&d, &legal, &pad).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.moves, b.moves);
    }

    #[test]
    fn window_reorder_fixes_an_obvious_inversion() {
        // Three cells in a row; nets chain 0-2 and 2-1, so the optimal
        // order is 0,2,1.
        let mut nb = NetlistBuilder::new();
        let c0 = nb.add_cell("c0", 1.0, 1.0, CellKind::Movable);
        let c1 = nb.add_cell("c1", 1.0, 1.0, CellKind::Movable);
        let c2 = nb.add_cell("c2", 1.0, 1.0, CellKind::Movable);
        let n0 = nb.add_net("n0");
        nb.connect(n0, c0, Point::ORIGIN).unwrap();
        nb.connect(n0, c2, Point::ORIGIN).unwrap();
        let n1 = nb.add_net("n1");
        nb.connect(n1, c2, Point::ORIGIN).unwrap();
        nb.connect(n1, c1, Point::ORIGIN).unwrap();
        // Anchor c1 to the right with a fixed macro pin.
        let anchor = nb.add_cell("anchor", 1.0, 1.0, CellKind::FixedMacro);
        let n2 = nb.add_weighted_net("n2", 4.0);
        nb.connect(n2, c1, Point::ORIGIN).unwrap();
        nb.connect(n2, anchor, Point::ORIGIN).unwrap();
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 12.0, 4.0),
        )
        .unwrap();
        d.place_macro(anchor, Point::new(11.0, 0.5)).unwrap();
        let mut p = d.initial_placement();
        p.set(c0, Point::new(0.5, 0.5));
        p.set(c2, Point::new(1.5, 0.5)); // middle
        p.set(c1, Point::new(2.5, 0.5));
        // Swap c2/c1 so the order is suboptimal: 0, 1, 2.
        p.set(c1, Point::new(1.5, 0.5));
        p.set(c2, Point::new(2.5, 0.5));
        let pad = vec![0u32; 4];
        let out = refine_default(&d, &p, &pad).unwrap();
        assert!(out.hpwl_after < out.hpwl_before, "reorder should help");
        // c2 should now sit between c0 and c1.
        let x0 = out.placement.pos(c0).x;
        let x1 = out.placement.pos(c1).x;
        let x2 = out.placement.pos(c2).x;
        assert!(x0 < x2 && x2 < x1, "order {x0} {x2} {x1}");
    }

    #[test]
    fn single_movable_cell_refines_without_panicking() {
        // The windowed reorder needs >= 2 cells per segment; a one-cell
        // design must simply come back unchanged.
        let mut nb = NetlistBuilder::new();
        let c0 = nb.add_cell("c0", 1.0, 1.0, CellKind::Movable);
        let anchor = nb.add_cell("anchor", 1.0, 1.0, CellKind::FixedMacro);
        let n0 = nb.add_net("n0");
        nb.connect(n0, c0, Point::ORIGIN).unwrap();
        nb.connect(n0, anchor, Point::ORIGIN).unwrap();
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 8.0, 4.0),
        )
        .unwrap();
        d.place_macro(anchor, Point::new(7.0, 0.5)).unwrap();
        let mut p = d.initial_placement();
        p.set(c0, Point::new(0.5, 0.5));
        let pad = vec![0u32; 2];
        let out = refine_default(&d, &p, &pad).unwrap();
        assert_eq!(out.placement.pos(c0), p.pos(c0));
        assert_eq!(out.hpwl_after, out.hpwl_before);
    }

    #[test]
    fn congestion_guard_blocks_moves_into_hot_cells() {
        use puffer_db::grid::Grid;
        let (d, legal, pad) = refined_design();
        // A map where the left half of the chip is massively overflowed:
        // moves into it are forbidden.
        let r = d.region();
        let h_cap = Grid::filled(r, 8, 8, 1.0);
        let v_cap = Grid::filled(r, 8, 8, 1.0);
        let mut h_dmd: Grid<f64> = Grid::new(r, 8, 8);
        for iy in 0..8 {
            for ix in 0..4 {
                *h_dmd.at_mut(ix, iy) = 100.0;
            }
        }
        let v_dmd: Grid<f64> = Grid::new(r, 8, 8);
        let map = CongestionMap::new(h_cap, v_cap, h_dmd, v_dmd);

        let guarded = refine_bounded(
            &d,
            &legal,
            &pad,
            &DetailedConfig::default(),
            Some(&map),
            &Budget::unbounded(),
        )
        .unwrap();
        check_legal(&d, &guarded.placement, &pad).unwrap();
        // No cell from the clean right half may have moved into the hot
        // left half.
        let mid = r.center().x;
        for id in d.netlist().movable_cells() {
            let was = legal.pos(id);
            let now = guarded.placement.pos(id);
            if was.x >= mid {
                assert!(
                    now.x >= mid - r.width() / 8.0,
                    "cell {id} moved deep into the congested half: {was} -> {now}"
                );
            }
        }
    }

    #[test]
    fn swaps_preserve_footprint_occupancy() {
        let (d, legal, pad) = refined_design();
        let out = refine_default(&d, &legal, &pad).unwrap();
        // Multiset of footprint left edges must be preserved per row.
        let site = d.tech().site_width;
        let lefts = |p: &Placement| -> Vec<(i64, i64)> {
            let mut v: Vec<(i64, i64)> = d
                .netlist()
                .movable_cells()
                .map(|id| {
                    let c = d.netlist().cell(id);
                    let left = foot_left(p.pos(id).x, c.width, pad[id.index()], site);
                    ((left / site).round() as i64, (p.pos(id).y / 0.5) as i64)
                })
                .collect();
            v.sort_unstable();
            v
        };
        // Same number of cells; no duplicated slots (all lefts distinct
        // within a row because footprints abut at minimum).
        let after = lefts(&out.placement);
        assert_eq!(after.len(), d.netlist().movable_cells().count());
    }

    #[test]
    fn exhausted_budget_returns_input_unchanged_and_legal() {
        let (d, legal, pad) = refined_design();
        let token = puffer_budget::CancelToken::new();
        token.cancel();
        let budget = Budget::unbounded().with_token(token);
        let out =
            refine_bounded(&d, &legal, &pad, &DetailedConfig::default(), None, &budget).unwrap();
        assert_eq!(out.passes, 0, "no pass may start after cancellation");
        assert_eq!(out.placement, legal);
        assert_eq!(out.hpwl_after, out.hpwl_before);
        check_legal(&d, &out.placement, &pad).unwrap();
    }

    #[test]
    fn bad_padding_length_is_rejected() {
        let (d, legal, _) = refined_design();
        assert!(matches!(
            refine_default(&d, &legal, &[0u32; 3]),
            Err(LegalizeError::BadInput(_))
        ));
    }

    #[test]
    fn permute_visits_all_orderings() {
        let mut seen = std::collections::HashSet::new();
        let mut perm = vec![0usize, 1, 2];
        permute(&mut perm, 0, &mut |o: &[usize]| {
            seen.insert(o.to_vec());
        });
        assert_eq!(seen.len(), 6);
    }
}
