//! Detour-imitating routing-demand expansion (paper §III-A.3).
//!
//! In global placement, cells cluster, so raw probabilistic demand piles up
//! in a few Gcells. Rather than reacting by spreading cells (which
//! destabilises the electrostatic system), the estimator *expands* the
//! demand of congested I-shaped two-point nets into neighbouring rows or
//! columns with spare capacity:
//!
//! * if a segment endpoint is a **Steiner point**, the rerouted wire still
//!   has to connect back to the trunk, so perpendicular connection demand is
//!   added at that end — imitating a routing detour;
//! * if the endpoint is a **pin**, the owning cell can simply move with the
//!   expansion, so no extra demand is added — imitating cell spreading.

use crate::demand::{SegmentRecord, SegmentShape};
use crate::map::CongestionMap;
use puffer_db::cast;

/// How many neighbouring rows/columns an expansion may use.
const EXPANSION_RADIUS: usize = 2;

/// Fraction of a congested segment's own contribution (one track) that an
/// expansion moves.
const EXPANSION_STRENGTH: f64 = 0.7;

/// Expands congested I-shaped segments in `map`.
///
/// The pass is deterministic and single-sweep: segments are inspected in
/// their recorded order against the evolving demand map, matching the
/// incremental behaviour of the paper's estimator.
pub fn expand(map: &mut CongestionMap, segments: &[SegmentRecord]) {
    for rec in segments {
        match rec.shape() {
            SegmentShape::HorizontalI => expand_horizontal(map, rec),
            SegmentShape::VerticalI => expand_vertical(map, rec),
            _ => {}
        }
    }
}

fn expand_horizontal(map: &mut CongestionMap, rec: &SegmentRecord) {
    let (x0, x1) = (rec.ax.min(rec.bx), rec.ax.max(rec.bx));
    let y = rec.ay;
    let ny = map.ny();

    // Congested? Use the worst overflow along the crossed cells.
    let worst = (x0..=x1).map(|x| map.overflow_h(x, y)).fold(0.0, f64::max);
    if worst <= 0.0 {
        return;
    }
    // Candidate rows by |offset|, nearest first; weight by available slack.
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    for k in 1..=EXPANSION_RADIUS {
        for dir in [-1i64, 1i64] {
            let yy = cast::idx_i64(y) + dir * cast::idx_i64(k);
            if yy < 0 || yy >= cast::idx_i64(ny) {
                continue;
            }
            let yy = cast::i64_idx(yy);
            let slack: f64 = (x0..=x1)
                .map(|x| (map.h_capacity().at(x, yy) - map.h_demand().at(x, yy)).max(0.0))
                .sum();
            if slack > 0.0 {
                candidates.push((yy, slack));
            }
        }
    }
    let total_slack: f64 = candidates.iter().map(|(_, s)| s).sum();
    if total_slack <= 0.0 {
        return;
    }

    let span = cast::idx_f64(x1 - x0 + 1);
    for (yy, slack) in candidates {
        // Share of the moved demand this row absorbs, capped by its slack.
        let share = EXPANSION_STRENGTH * (slack / total_slack);
        let absorbed = share.min(slack / span.max(1.0));
        if absorbed <= 0.0 {
            continue;
        }
        let (h_dmd, v_dmd) = map.demand_mut();
        for x in x0..=x1 {
            *h_dmd.at_mut(x, y) -= absorbed;
            *h_dmd.at_mut(x, yy) += absorbed;
        }
        // Perpendicular connection demand at Steiner endpoints: the detour
        // path must rejoin the trunk (paper Fig. 3(c)).
        let (ylo, yhi) = (y.min(yy), y.max(yy));
        if rec.a_steiner {
            for yc in ylo..=yhi {
                *v_dmd.at_mut(rec.ax, yc) += absorbed;
            }
        }
        if rec.b_steiner {
            for yc in ylo..=yhi {
                *v_dmd.at_mut(rec.bx, yc) += absorbed;
            }
        }
    }
}

fn expand_vertical(map: &mut CongestionMap, rec: &SegmentRecord) {
    let (y0, y1) = (rec.ay.min(rec.by), rec.ay.max(rec.by));
    let x = rec.ax;
    let nx = map.nx();

    let worst = (y0..=y1).map(|y| map.overflow_v(x, y)).fold(0.0, f64::max);
    if worst <= 0.0 {
        return;
    }
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    for k in 1..=EXPANSION_RADIUS {
        for dir in [-1i64, 1i64] {
            let xx = cast::idx_i64(x) + dir * cast::idx_i64(k);
            if xx < 0 || xx >= cast::idx_i64(nx) {
                continue;
            }
            let xx = cast::i64_idx(xx);
            let slack: f64 = (y0..=y1)
                .map(|y| (map.v_capacity().at(xx, y) - map.v_demand().at(xx, y)).max(0.0))
                .sum();
            if slack > 0.0 {
                candidates.push((xx, slack));
            }
        }
    }
    let total_slack: f64 = candidates.iter().map(|(_, s)| s).sum();
    if total_slack <= 0.0 {
        return;
    }

    let span = cast::idx_f64(y1 - y0 + 1);
    for (xx, slack) in candidates {
        let share = EXPANSION_STRENGTH * (slack / total_slack);
        let absorbed = share.min(slack / span.max(1.0));
        if absorbed <= 0.0 {
            continue;
        }
        let (h_dmd, v_dmd) = map.demand_mut();
        for y in y0..=y1 {
            *v_dmd.at_mut(x, y) -= absorbed;
            *v_dmd.at_mut(xx, y) += absorbed;
        }
        let (xlo, xhi) = (x.min(xx), x.max(xx));
        if rec.a_steiner {
            for xc in xlo..=xhi {
                *h_dmd.at_mut(xc, rec.ay) += absorbed;
            }
        }
        if rec.b_steiner {
            for xc in xlo..=xhi {
                *h_dmd.at_mut(xc, rec.by) += absorbed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Rect;
    use puffer_db::grid::Grid;

    fn congested_map() -> CongestionMap {
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let h_cap = Grid::filled(r, 8, 8, 2.0);
        let v_cap = Grid::filled(r, 8, 8, 2.0);
        let mut h_dmd: Grid<f64> = Grid::new(r, 8, 8);
        // Row 4, columns 1..=5 heavily over capacity.
        for x in 1..=5 {
            *h_dmd.at_mut(x, 4) = 5.0;
        }
        let v_dmd: Grid<f64> = Grid::new(r, 8, 8);
        CongestionMap::new(h_cap, v_cap, h_dmd, v_dmd)
    }

    fn seg(a_steiner: bool, b_steiner: bool) -> SegmentRecord {
        SegmentRecord {
            ax: 1,
            ay: 4,
            bx: 5,
            by: 4,
            a_steiner,
            b_steiner,
        }
    }

    #[test]
    fn expansion_moves_demand_to_neighbours() {
        let mut m = congested_map();
        let before_row4: f64 = (1..=5).map(|x| *m.h_demand().at(x, 4)).sum();
        expand(&mut m, &[seg(false, false)]);
        let after_row4: f64 = (1..=5).map(|x| *m.h_demand().at(x, 4)).sum();
        assert!(after_row4 < before_row4);
        let neighbours: f64 = (1..=5)
            .map(|x| *m.h_demand().at(x, 3) + *m.h_demand().at(x, 5))
            .sum();
        assert!(neighbours > 0.0);
    }

    #[test]
    fn horizontal_expansion_conserves_h_mass_for_pin_endpoints() {
        let mut m = congested_map();
        let before = m.h_demand().sum();
        expand(&mut m, &[seg(false, false)]);
        assert!((m.h_demand().sum() - before).abs() < 1e-9);
        // Pin endpoints: no perpendicular demand added.
        assert_eq!(m.v_demand().sum(), 0.0);
    }

    #[test]
    fn steiner_endpoints_add_detour_demand() {
        let mut m = congested_map();
        expand(&mut m, &[seg(true, false)]);
        // Detour legs appear in the vertical map at the Steiner end column.
        assert!(m.v_demand().sum() > 0.0);
        let col1: f64 = (0..8).map(|y| *m.v_demand().at(1, y)).sum();
        let col5: f64 = (0..8).map(|y| *m.v_demand().at(5, y)).sum();
        assert!(col1 > 0.0);
        assert_eq!(col5, 0.0);
    }

    #[test]
    fn uncongested_segments_are_untouched() {
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut m = CongestionMap::new(
            Grid::filled(r, 8, 8, 10.0),
            Grid::filled(r, 8, 8, 10.0),
            Grid::filled(r, 8, 8, 1.0),
            Grid::filled(r, 8, 8, 1.0),
        );
        let before = m.clone();
        expand(&mut m, &[seg(true, true)]);
        assert_eq!(m, before);
    }

    #[test]
    fn vertical_expansion_mirrors_horizontal() {
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let h_cap = Grid::filled(r, 8, 8, 2.0);
        let v_cap = Grid::filled(r, 8, 8, 2.0);
        let h_dmd: Grid<f64> = Grid::new(r, 8, 8);
        let mut v_dmd: Grid<f64> = Grid::new(r, 8, 8);
        for y in 2..=6 {
            *v_dmd.at_mut(3, y) = 5.0;
        }
        let mut m = CongestionMap::new(h_cap, v_cap, h_dmd, v_dmd);
        let rec = SegmentRecord {
            ax: 3,
            ay: 2,
            bx: 3,
            by: 6,
            a_steiner: false,
            b_steiner: true,
        };
        expand(&mut m, &[rec]);
        let col3: f64 = (2..=6).map(|y| *m.v_demand().at(3, y)).sum();
        assert!(col3 < 25.0);
        // Steiner endpoint b at row 6 gains horizontal connection demand.
        let row6: f64 = (0..8).map(|x| *m.h_demand().at(x, 6)).sum();
        assert!(row6 > 0.0);
    }
}
