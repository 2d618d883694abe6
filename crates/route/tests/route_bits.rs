//! Bit-level pin of the global router: `fixtures/route_bits.txt` was
//! rendered by the router this crate shipped before the maze search kept
//! its scratch across calls and read a maintained step cost — a fresh
//! `dist`/`parent` pair per `maze_route` call, `RoutingGrid::cost`
//! evaluated per relaxation — and every search since must reproduce it
//! **bit for bit**: which of several equal-cost paths wins decides usage,
//! and usage decides every Table II number.
//!
//! The `gen` lines route one generated, congested design (all 12 rip-up
//! rounds fire) at three thread counts and twice through one
//! `GlobalRouter`; each records an FNV-1a digest of every path's Gcell
//! sequence (in `RouteReport::paths` order) and of the `f64` bits of the
//! demand grids, the hex bits of HOF/VOF/WL and the two integers. The
//! `maze` lines list, Gcell by Gcell, what `maze_route` returns on
//! hand-built grids — the all-ties free grid is there for the tie order.

mod common;

use common::{congested, digest_f64, router, Fnv};
use puffer_db::geom::Rect;
use puffer_db::grid::Grid;
use puffer_route::path::{apply_path, maze_route, Path, Paths};
use puffer_route::{Dir, RouteReport, RoutingGrid};

const FIXTURE: &str = include_str!("fixtures/route_bits.txt");

/// What the router did on the `gen` design, at any thread count:
/// `segments`, `reroutes`, `maze_pops`, `maze_pushes`. The two heap
/// counters cover the searches that ran: before rip-up kept a segment on
/// the previous reroute's answer they were 326 068 and 658 893.
const GEN_COUNTERS: [u64; 4] = [2_279, 27_038, 115_072, 211_567];

/// How many of the `gen` design's reroutes ended on the path they ripped
/// up (`RouteReport::reroutes_kept`).
const GEN_KEPT: u64 = 26_567;

/// How many of those ran no search (`RouteReport::reroutes_reused`).
const GEN_REUSED: u64 = 22_462;

/// Digest of every path: its length, then each Gcell's `x` and `y`.
fn digest_paths(paths: &Paths) -> u64 {
    let mut h = Fnv::new();
    for p in paths.iter() {
        h.word(p.len() as u64);
        for (x, y) in p.cells() {
            h.word(x as u64);
            h.word(y as u64);
        }
    }
    h.0
}

fn report_line(what: &str, r: &RouteReport) -> String {
    format!(
        "gen {what} paths {:016x} h_demand {:016x} v_demand {:016x} hof {:016x} vof {:016x} \
         wl {:016x} overflow_gcells {} rounds {}\n",
        digest_paths(&r.paths),
        digest_f64(r.congestion.h_demand().as_slice()),
        digest_f64(r.congestion.v_demand().as_slice()),
        r.hof_pct.to_bits(),
        r.vof_pct.to_bits(),
        r.wirelength.to_bits(),
        r.overflow_gcells,
        r.rounds
    )
}

fn filled(nx: usize, ny: usize, cap: f64) -> RoutingGrid {
    let r = Rect::new(0.0, 0.0, nx as f64, ny as f64);
    RoutingGrid::new(Grid::filled(r, nx, ny, cap), Grid::filled(r, nx, ny, cap))
}

/// A 10 × 10 grid with a congested wall on column 5, open at row 9.
fn walled() -> RoutingGrid {
    let mut g = filled(10, 10, 1.0);
    for y in 0..9 {
        g.charge(5, y, Dir::H, 50.0);
        g.charge(5, y, Dir::V, 50.0);
    }
    g
}

/// A 10 × 10 grid two rounds into negotiation: an overused cross, its
/// history accumulated twice, other usage charged in between.
fn aged() -> RoutingGrid {
    let mut g = filled(10, 10, 2.0);
    for i in 2..8 {
        g.charge(i, 4, Dir::H, 3.5);
        g.charge(4, i, Dir::V, 2.75);
    }
    g.update_history();
    let relief = maze_route(&g, (1, 4), (8, 4));
    apply_path(&mut g, relief.iter().copied(), 1.0);
    g.charge(6, 5, Dir::H, 4.0);
    g.update_history();
    g
}

type Cell = (usize, usize);
/// A named grid and the endpoint pairs to search on it.
type Maze = (&'static str, RoutingGrid, Vec<(Cell, Cell)>);

/// The hand-built searches.
fn mazes() -> Vec<Maze> {
    vec![
        ("same_cell", filled(10, 10, 1.0), vec![((3, 3), (3, 3))]),
        (
            "adjacent",
            filled(10, 10, 1.0),
            vec![((3, 3), (4, 3)), ((3, 3), (3, 2)), ((0, 0), (0, 1))],
        ),
        (
            "wall_gap",
            walled(),
            vec![((2, 2), (8, 2)), ((8, 7), (2, 0)), ((5, 0), (5, 8))],
        ),
        (
            "aged",
            aged(),
            vec![
                ((1, 4), (8, 4)),
                ((4, 1), (4, 8)),
                ((2, 2), (7, 7)),
                ((7, 3), (2, 6)),
            ],
        ),
        (
            "all_ties",
            filled(9, 7, 100.0),
            vec![
                ((0, 0), (8, 6)),
                ((8, 6), (0, 0)),
                ((0, 6), (8, 0)),
                ((6, 1), (2, 5)),
                ((4, 0), (4, 6)),
                ((0, 3), (8, 3)),
            ],
        ),
        (
            "row_1xn",
            {
                let mut g = filled(12, 1, 1.0);
                g.charge(5, 0, Dir::H, 9.0);
                g
            },
            vec![((0, 0), (11, 0)), ((9, 0), (2, 0))],
        ),
        (
            "column_nx1",
            {
                let mut g = filled(1, 12, 1.0);
                g.charge(0, 6, Dir::V, 9.0);
                g
            },
            vec![((0, 0), (0, 11)), ((0, 10), (0, 3))],
        ),
    ]
}

fn path_text(p: &Path) -> String {
    let cells: Vec<String> = p.iter().map(|(x, y)| format!("{x},{y}")).collect();
    cells.join(" ")
}

/// The fixture text as this build computes it.
fn render() -> String {
    let (design, placement) = congested();
    let mut out = String::new();
    for threads in [1, 2, 4] {
        let report = router(&design, threads)
            .try_route(&design, &placement)
            .unwrap();
        out.push_str(&report_line(&format!("threads={threads}"), &report));
    }
    // One router, two calls: the second must not see the first one's
    // search state.
    let twice = router(&design, 2);
    twice.try_route(&design, &placement).unwrap();
    let second = twice.try_route(&design, &placement).unwrap();
    out.push_str(&report_line("second_call", &second));
    for (name, grid, pairs) in mazes() {
        for (a, b) in pairs {
            let p = maze_route(&grid, a, b);
            out.push_str(&format!(
                "maze {name} {},{}->{},{} : {}\n",
                a.0,
                a.1,
                b.0,
                b.1,
                path_text(&p)
            ));
        }
    }
    out
}

#[test]
fn the_router_reproduces_the_fixture() {
    let got = render();
    assert_eq!(got.lines().count(), FIXTURE.lines().count(), "line count");
    for (line, (g, e)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, e, "fixture line {} differs", line + 1);
    }
}

/// The fixture is not vacuous: every round fired and left overflow behind,
/// the four `gen` lines agree, and the wall detour went through the gap.
#[test]
fn the_fixture_covers_its_cases() {
    let gen: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with("gen ")).collect();
    assert_eq!(gen.len(), 4);
    let tail = |l: &str| l.split_once(" paths ").map(|(_, t)| t.to_string());
    for l in &gen {
        assert!(l.ends_with(" rounds 12"), "{l}");
        assert!(!l.contains(" overflow_gcells 0 "), "{l}");
        assert_eq!(tail(l), tail(gen[0]), "thread count or reuse moved a bit");
    }
    assert_eq!(
        FIXTURE.lines().filter(|l| l.starts_with("maze ")).count(),
        21
    );
    assert!(FIXTURE.contains("maze same_cell 3,3->3,3 : 3,3\n"));
    let gap = FIXTURE
        .lines()
        .find(|l| l.starts_with("maze wall_gap 2,2->8,2 "))
        .unwrap();
    assert!(gap.contains(" 5,9 "), "{gap}");
}

/// The router's exact work on the `gen` design — the same at every thread
/// count.
#[test]
fn the_search_counters_are_pinned() {
    let (design, placement) = congested();
    for threads in [1, 2, 4] {
        let r = router(&design, threads)
            .try_route(&design, &placement)
            .unwrap();
        assert_eq!(
            [r.segments, r.reroutes, r.maze_pops, r.maze_pushes],
            GEN_COUNTERS,
            "threads {threads}"
        );
        assert_eq!(r.reroutes_kept, GEN_KEPT, "threads {threads}");
        assert_eq!(r.reroutes_reused, GEN_REUSED, "threads {threads}");
        assert_eq!(r.segments, r.paths.len() as u64);
    }
}
