//! Layer assignment: lifting the 2-D routing solution onto the metal stack.
//!
//! Industrial global routers (including the paper's evaluator) are
//! three-dimensional: after 2-D path search, every straight wire run is
//! assigned to a metal layer of the matching preferred direction, and vias
//! connect runs on different layers. This module implements the standard
//! two-phase approach (2-D route, then congestion-aware greedy layer
//! assignment, long runs first), turning [`crate::RouteReport`] paths into
//! per-layer usage maps and a via count.
//!
//! The layers share the 2-D router's Gcells, which
//! [`puffer_congest::capacity`] declares once: [`assign_layers`] takes the
//! Gcell grid of the routing its paths came from, and its per-layer
//! capacity is Eq. (8) with that module's power-grid derate.

use crate::path::{moves, PathRef, Paths};
use puffer_congest::capacity::{for_each_macro_overlap, POWER_DERATE};
use puffer_db::design::Design;
use puffer_db::grid::Grid;
use puffer_db::tech::PreferredDirection;

/// Per-layer result of layer assignment.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name (`"M2"`, …).
    pub name: String,
    /// Preferred direction.
    pub direction: PreferredDirection,
    /// Usage map (tracks per Gcell).
    pub usage: Grid<f64>,
    /// Capacity map (tracks per Gcell).
    pub capacity: Grid<f64>,
    /// Overflow ratio on this layer (`Σ overuse / Σ capacity`).
    pub overflow_ratio: f64,
}

/// The complete layer assignment.
#[derive(Debug, Clone)]
pub struct LayerAssignment {
    /// One report per routing layer (M1 excluded), bottom-up.
    pub layers: Vec<LayerReport>,
    /// Total via count (one per direction change or layer switch).
    pub vias: usize,
}

/// Assigns every straight run of the given 2-D paths to a metal layer.
///
/// Runs are processed longest-first (long wires go to the fastest-filling
/// upper layers only when lower layers overflow); each run goes to the
/// direction-matching layer that minimizes the added overflow, ties broken
/// towards the lowest layer. Vias are counted per direction change plus
/// one per path endpoint (pin access). `gcells` is the Gcell grid the paths
/// were routed on, e.g. [`crate::RouteReport::congestion`]'s capacity map.
pub fn assign_layers(design: &Design, paths: &Paths, gcells: &Grid<f64>) -> LayerAssignment {
    let tech = design.tech();
    let (region, nx, ny) = (gcells.region(), gcells.nx(), gcells.ny());
    debug_assert_eq!(paths.nx(), nx, "paths routed on another grid");
    let (dx, dy) = (gcells.dx(), gcells.dy());

    // Per-layer capacity (Eq. (8) per layer): macros block every layer
    // except the topmost of each direction.
    let routing_layers: Vec<_> = tech.layers.iter().skip(1).collect();
    let top_h = routing_layers
        .iter()
        .rposition(|l| l.direction == PreferredDirection::Horizontal);
    let top_v = routing_layers
        .iter()
        .rposition(|l| l.direction == PreferredDirection::Vertical);
    let mut reports: Vec<LayerReport> = routing_layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let extent = if l.direction == PreferredDirection::Horizontal {
                dy
            } else {
                dx
            };
            let basic = l.tracks_over(extent) * (1.0 - POWER_DERATE);
            let mut capacity = Grid::filled(region, nx, ny, basic);
            let is_top = Some(i) == top_h || Some(i) == top_v;
            if !is_top {
                for_each_macro_overlap(design, gcells, |ix, iy, ov, cell| {
                    let loss = if l.direction == PreferredDirection::Horizontal {
                        ov.height() / l.pitch() * (ov.width() / cell.width())
                    } else {
                        ov.width() / l.pitch() * (ov.height() / cell.height())
                    };
                    let c = capacity.at_mut(ix, iy);
                    *c = (*c - loss).max(0.0);
                });
            }
            LayerReport {
                name: l.name.clone(),
                direction: l.direction,
                usage: Grid::new(region, nx, ny),
                capacity,
                overflow_ratio: 0.0,
            }
        })
        .collect();

    // Decompose paths into straight runs.
    struct Run<'a> {
        cells: PathRef<'a>,
        dir: PreferredDirection,
    }
    let mut runs: Vec<Run> = Vec::new();
    let mut vias = 0usize;
    for path in paths.iter() {
        if path.len() < 2 {
            continue;
        }
        vias += 2; // pin access at both endpoints
        let mut start = 0usize;
        let mut cur_dir = run_dir(path.cell(0), path.cell(1));
        for k in 1..path.len() {
            let d = run_dir(path.cell(k - 1), path.cell(k));
            if d != cur_dir {
                runs.push(Run {
                    cells: path.slice(start..k),
                    dir: cur_dir,
                });
                vias += 1;
                start = k - 1;
                cur_dir = d;
            }
        }
        runs.push(Run {
            cells: path.slice(start..path.len()),
            dir: cur_dir,
        });
    }
    // Longest runs first; deterministic tie-break on the cells compared
    // as (x, y).
    runs.sort_by(|a, b| {
        b.cells
            .len()
            .cmp(&a.cells.len())
            .then_with(|| a.cells.cells().cmp(b.cells.cells()))
    });

    // Greedy assignment.
    let h_layers: Vec<usize> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.direction == PreferredDirection::Horizontal)
        .map(|(i, _)| i)
        .collect();
    let v_layers: Vec<usize> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.direction == PreferredDirection::Vertical)
        .map(|(i, _)| i)
        .collect();
    for run in &runs {
        let candidates = if run.dir == PreferredDirection::Horizontal {
            &h_layers
        } else {
            &v_layers
        };
        if candidates.is_empty() {
            continue;
        }
        let mut best = candidates[0];
        let mut best_cost = f64::INFINITY;
        for &li in candidates {
            let r = &reports[li];
            let mut cost = 0.0;
            for (a, b, _) in moves(run.cells.cells()) {
                for (x, y) in [a, b] {
                    let after = r.usage.at(x, y) + 0.5;
                    cost += (after - r.capacity.at(x, y)).max(0.0);
                }
            }
            if cost < best_cost - 1e-12 {
                best_cost = cost;
                best = li;
            }
        }
        let r = &mut reports[best];
        for (a, b, _) in moves(run.cells.cells()) {
            for (x, y) in [a, b] {
                *r.usage.at_mut(x, y) += 0.5;
            }
        }
    }

    for r in &mut reports {
        let mut over = 0.0;
        for iy in 0..ny {
            for ix in 0..nx {
                over += (r.usage.at(ix, iy) - r.capacity.at(ix, iy)).max(0.0);
            }
        }
        r.overflow_ratio = over / r.capacity.sum().max(1e-9);
    }
    LayerAssignment {
        layers: reports,
        vias,
    }
}

fn run_dir(a: (usize, usize), b: (usize, usize)) -> PreferredDirection {
    if a.1 == b.1 {
        PreferredDirection::Horizontal
    } else {
        PreferredDirection::Vertical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use puffer_congest::{build_capacity, GCELL_ROWS};
    use puffer_db::design::Design;
    use puffer_db::geom::Rect;
    use puffer_db::netlist::NetlistBuilder;
    use puffer_db::tech::Technology;

    fn empty_design() -> Design {
        Design::new(
            "t",
            NetlistBuilder::new().build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 30.0, 30.0),
        )
        .unwrap()
    }

    /// Lays `paths` onto the layers of `d`'s router Gcells.
    fn assign(d: &Design, paths: &[Path]) -> LayerAssignment {
        let gcells = build_capacity(d, GCELL_ROWS).0;
        let mut arena = Paths::new(gcells.nx());
        for p in paths {
            arena.push(p);
        }
        assign_layers(d, &arena, &gcells)
    }

    #[test]
    fn runs_go_to_matching_direction_layers() {
        let d = empty_design();
        // One horizontal path and one vertical path.
        let paths = vec![
            vec![(0, 0), (1, 0), (2, 0), (3, 0)],
            vec![(5, 0), (5, 1), (5, 2)],
        ];
        let a = assign(&d, &paths);
        for l in &a.layers {
            let used = l.usage.sum();
            if used > 0.0 {
                match l.direction {
                    PreferredDirection::Horizontal => {
                        assert!((0..4).any(|x| *l.usage.at(x, 0) > 0.0))
                    }
                    PreferredDirection::Vertical => {
                        assert!((0..3).any(|y| *l.usage.at(5, y) > 0.0))
                    }
                }
            }
        }
        // Total charged usage equals total moves (each move charges 2x0.5).
        let total: f64 = a.layers.iter().map(|l| l.usage.sum()).sum();
        assert!((total - (3.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn vias_count_bends_and_endpoints() {
        let d = empty_design();
        // L-shaped path: 2 endpoint vias + 1 bend via.
        let paths = vec![vec![(0, 0), (1, 0), (1, 1)]];
        let a = assign(&d, &paths);
        assert_eq!(a.vias, 3);
        // Straight path: endpoints only.
        let a2 = assign(&d, &[vec![(0, 0), (1, 0)]]);
        assert_eq!(a2.vias, 2);
    }

    #[test]
    fn congestion_spills_to_other_layers() {
        let d = empty_design();
        // Many identical horizontal runs over the same Gcells: more than
        // one H layer must end up used.
        let paths: Vec<_> = (0..400)
            .map(|_| vec![(0usize, 0usize), (1, 0), (2, 0)])
            .collect();
        let a = assign(&d, &paths);
        let used_h = a
            .layers
            .iter()
            .filter(|l| l.direction == PreferredDirection::Horizontal && l.usage.sum() > 0.0)
            .count();
        assert!(
            used_h >= 2,
            "overflowing traffic must spill to another H layer"
        );
    }

    #[test]
    fn assignment_is_deterministic() {
        let d = empty_design();
        let paths: Vec<_> = (0..50)
            .map(|i| vec![(i % 5, 0), (i % 5, 1), (i % 5 + 1, 1)])
            .collect();
        let a = assign(&d, &paths);
        let b = assign(&d, &paths);
        assert_eq!(a.vias, b.vias);
        for (x, y) in a.layers.iter().zip(&b.layers) {
            assert_eq!(x.usage.as_slice(), y.usage.as_slice());
        }
    }

    #[test]
    fn per_layer_capacity_is_positive_and_scaled_by_pitch() {
        let d = empty_design();
        let a = assign(&d, &[]);
        assert_eq!(a.layers.len(), d.tech().layers.len() - 1);
        // Finer-pitch layers offer more tracks.
        let m2 = a.layers.iter().find(|l| l.name == "M2").unwrap();
        let m8 = a.layers.iter().find(|l| l.name == "M8").unwrap();
        assert!(m2.capacity.sum() > m8.capacity.sum());
        assert_eq!(a.vias, 0);
    }
}
