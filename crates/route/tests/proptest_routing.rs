//! Property-based tests on the routing path search, driven by the
//! in-workspace `puffer_rng::check` harness.

use puffer_db::geom::Rect;
use puffer_db::grid::Grid;
use puffer_rng::check::{run_cases, vec_of};
use puffer_rng::{prop_check, StdRng};
use puffer_route::path::{apply_path, maze_route, path_cost, pattern_route, MazeScratch};
use puffer_route::{Dir, RoutingGrid};

/// An empty `nx` x `ny` grid of two tracks per Gcell and direction.
fn uniform_grid(nx: usize, ny: usize) -> RoutingGrid {
    let r = Rect::new(0.0, 0.0, nx as f64, ny as f64);
    RoutingGrid::new(Grid::filled(r, nx, ny, 2.0), Grid::filled(r, nx, ny, 2.0))
}

fn grid_with_noise(seed_usage: &[(usize, usize, f64, bool)]) -> RoutingGrid {
    let mut g = uniform_grid(12, 12);
    for &(x, y, amount, horizontal) in seed_usage {
        g.charge(x % 12, y % 12, dir(horizontal), amount);
    }
    g
}

fn dir(horizontal: bool) -> Dir {
    if horizontal {
        Dir::H
    } else {
        Dir::V
    }
}

fn is_connected(p: &[(usize, usize)]) -> bool {
    p.windows(2)
        .all(|w| w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1) == 1)
}

fn endpoints(rng: &mut StdRng) -> ((usize, usize), (usize, usize)) {
    (
        (rng.gen_range(0..12usize), rng.gen_range(0..12usize)),
        (rng.gen_range(0..12usize), rng.gen_range(0..12usize)),
    )
}

fn usage(rng: &mut StdRng, max: usize, max_amount: f64) -> Vec<(usize, usize, f64, bool)> {
    vec_of(rng, 0..max, |r| {
        (
            r.gen_range(0..12usize),
            r.gen_range(0..12usize),
            r.gen_range(0.0..max_amount),
            r.gen_bool(0.5),
        )
    })
}

/// Pattern routes are connected, endpoint-correct, and of minimal
/// rectilinear length.
#[test]
fn pattern_routes_are_minimal() {
    run_cases(
        48,
        0x3001,
        |rng| {
            let (a, b) = endpoints(rng);
            (a, b, usage(rng, 10, 20.0))
        },
        |((ax, ay), (bx, by), usage)| {
            let g = grid_with_noise(usage);
            let p = pattern_route(&g, (*ax, *ay), (*bx, *by), 4);
            prop_check!(is_connected(&p));
            prop_check!(*p.first().unwrap() == (*ax, *ay));
            prop_check!(*p.last().unwrap() == (*bx, *by));
            // Pattern routes never detour: length = manhattan + 1.
            prop_check!(
                p.len() == ax.abs_diff(*bx) + ay.abs_diff(*by) + 1,
                "detouring pattern route of length {}",
                p.len()
            );
            Ok(())
        },
    );
}

/// Maze routes are connected and never cost more than the best pattern
/// route under the same grid state.
#[test]
fn maze_routes_never_lose_to_patterns() {
    run_cases(
        48,
        0x3002,
        |rng| {
            let (a, b) = endpoints(rng);
            (a, b, usage(rng, 14, 30.0))
        },
        |((ax, ay), (bx, by), usage)| {
            let g = grid_with_noise(usage);
            let maze = maze_route(&g, (*ax, *ay), (*bx, *by));
            prop_check!(is_connected(&maze));
            prop_check!(*maze.last().unwrap() == (*bx, *by));
            let pattern = pattern_route(&g, (*ax, *ay), (*bx, *by), 4);
            prop_check!(
                path_cost(&g, &maze) <= path_cost(&g, &pattern) + 1e-6,
                "maze {} > pattern {}",
                path_cost(&g, &maze),
                path_cost(&g, &pattern)
            );
            Ok(())
        },
    );
}

/// Applying then refunding any path restores the exact usage state.
#[test]
fn apply_refund_is_lossless() {
    run_cases(
        48,
        0x3003,
        |rng| {
            let (a, b) = endpoints(rng);
            (a, b, usage(rng, 8, 10.0))
        },
        |((ax, ay), (bx, by), usage)| {
            let mut g = grid_with_noise(usage);
            let before = g.to_congestion_map();
            let p = maze_route(&g, (*ax, *ay), (*bx, *by));
            apply_path(&mut g, p.iter().copied(), 1.0);
            apply_path(&mut g, p.iter().copied(), -1.0);
            let after = g.to_congestion_map();
            for (a, b) in before
                .h_demand()
                .as_slice()
                .iter()
                .zip(after.h_demand().as_slice())
            {
                prop_check!((a - b).abs() < 1e-9, "h demand drifted: {a} vs {b}");
            }
            for (a, b) in before
                .v_demand()
                .as_slice()
                .iter()
                .zip(after.v_demand().as_slice())
            {
                prop_check!((a - b).abs() < 1e-9, "v demand drifted: {a} vs {b}");
            }
            Ok(())
        },
    );
}

/// Grid shapes for the scratch-reuse property: two share a Gcell count but
/// not a width (no rebuild, another `nx`), one is a single column.
const SHAPES: [(usize, usize); 4] = [(12, 12), (5, 9), (9, 5), (1, 7)];

/// One step of a scratch's life: which grid, usage charged on it first
/// (coordinates taken modulo its shape), then the endpoints to route.
type Search = (
    usize,
    Vec<(usize, usize, f64, bool)>,
    (usize, usize),
    (usize, usize),
);

/// One `MazeScratch`, whatever it searched before — other grid sizes, other
/// usage, an epoch counter about to wrap — returns the path a fresh
/// scratch returns.
#[test]
fn a_reused_scratch_routes_like_a_fresh_one() {
    run_cases(
        32,
        0x3004,
        |rng| {
            let before_wrap = rng.gen_range(0..6usize);
            let searches: Vec<Search> = vec_of(rng, 8..24, |r| {
                let (a, b) = endpoints(r);
                (r.gen_range(0..SHAPES.len()), usage(r, 6, 12.0), a, b)
            });
            (before_wrap, searches)
        },
        |(before_wrap, searches)| {
            let mut grids: Vec<RoutingGrid> = SHAPES
                .iter()
                .map(|&(nx, ny)| uniform_grid(nx, ny))
                .collect();
            // Fewer searches away from `u32::MAX` than the case runs.
            let mut scratch = MazeScratch::starting_at_epoch(u32::MAX - *before_wrap as u32);
            for (i, (shape, charges, a, b)) in searches.iter().enumerate() {
                let (nx, ny) = SHAPES[*shape];
                let g = &mut grids[*shape];
                for &(x, y, amount, horizontal) in charges {
                    g.charge(x % nx, y % ny, dir(horizontal), amount);
                }
                if i % 5 == 4 {
                    g.update_history();
                }
                let (a, b) = ((a.0 % nx, a.1 % ny), (b.0 % nx, b.1 % ny));
                let reused = scratch.route(g, a, b);
                let fresh = maze_route(g, a, b);
                prop_check!(
                    reused == fresh,
                    "search {i} on {nx}x{ny}: reused scratch {reused:?}, fresh {fresh:?}"
                );
                apply_path(g, reused.iter().copied(), 1.0);
            }
            prop_check!(scratch.pops() <= scratch.pushes());
            Ok(())
        },
    );
}

/// The maintained step table is `cost(.., 0.5)` bit for bit at every Gcell
/// after any sequence of charges (refunds below zero included) and history
/// updates, on uneven capacities — and a clone carries it.
#[test]
fn the_step_table_is_cost_at_half_a_track() {
    fn check(g: &RoutingGrid, when: &str) -> Result<(), String> {
        for d in [Dir::H, Dir::V] {
            let table = g.step_costs(d);
            prop_check!(table.len() == g.nx() * g.ny());
            for iy in 0..g.ny() {
                for ix in 0..g.nx() {
                    let (kept, fresh) = (table[iy * g.nx() + ix], g.cost(ix, iy, d, 0.5));
                    prop_check!(
                        kept.to_bits() == fresh.to_bits(),
                        "{when}: step {kept} vs cost {fresh} at ({ix}, {iy}) {d:?}"
                    );
                }
            }
        }
        Ok(())
    }
    run_cases(
        48,
        0x3005,
        |rng| {
            let caps = vec_of(rng, 63..64, |r| {
                // Blocked, fractional and roomy Gcells.
                [0.0, 0.5, 1.0, 2.75, 40.0][r.gen_range(0..5usize)]
            });
            // `None` is a history update; amounts go either way.
            let ops = vec_of(rng, 1..40, |r| {
                r.gen_bool(0.85).then(|| {
                    (
                        r.gen_range(0..9usize),
                        r.gen_range(0..7usize),
                        r.gen_range(-6.0..9.0),
                        r.gen_bool(0.5),
                    )
                })
            });
            (caps, ops)
        },
        |(caps, ops)| {
            let r = Rect::new(0.0, 0.0, 9.0, 7.0);
            let (mut h_cap, mut v_cap) = (Grid::filled(r, 9, 7, 0.0), Grid::filled(r, 9, 7, 0.0));
            h_cap.as_mut_slice().copy_from_slice(caps);
            v_cap
                .as_mut_slice()
                .iter_mut()
                .zip(caps.iter().rev())
                .for_each(|(v, c)| *v = *c);
            let mut g = RoutingGrid::new(h_cap, v_cap);
            check(&g, "new")?;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Some((x, y, amount, horizontal)) => g.charge(x, y, dir(horizontal), amount),
                    None => g.update_history(),
                }
                check(&g, &format!("after op {i} ({op:?})"))?;
            }
            // `try_route` works on a clone of the router's base grid.
            let mut copy = g.clone();
            check(&copy, "clone")?;
            copy.charge(3, 3, Dir::H, 5.0);
            check(&copy, "clone, charged")?;
            check(&g, "original, after its clone was charged")
        },
    );
}
