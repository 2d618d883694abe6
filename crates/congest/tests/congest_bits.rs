//! Bit-level pin of the congestion estimator: `fixtures/congest_bits.txt`
//! was rendered by the estimator this crate shipped with its incremental
//! path (dirty tracking, chunk replay, RSMT cache) still beside the cold
//! one, and every estimator since must reproduce it **bit for bit**: the
//! map steers padding, and padding steers every placement bit.
//!
//! Each line records FNV-1a digests over the `f64` bits of the capacity
//! and demand grids and over the demand build's segment list (with its
//! length), the hex bits of both overflow ratios and the congested-Gcell
//! count. The `gen` lines estimate one generated, congested design with
//! macros at three thread counts, with detours off, on a coarsened grid and
//! under an exhausted budget. The `walk` lines move 7 % of its cells four
//! times and estimate each placement twice through one estimator — by the
//! `try_estimate_incremental` entry point and by `try_estimate` — which must
//! agree. The `hand` lines are one-net designs built to hit the
//! decomposition's corner cases.

use puffer_budget::{Budget, CancelToken};
use puffer_congest::demand::{try_build_demand, SegmentRecord};
use puffer_congest::{CongestionEstimator, CongestionMap, EstimatorConfig, PIN_PENALTY};
use puffer_db::design::{Design, Placement};
use puffer_db::geom::{Point, Rect};
use puffer_db::netlist::{CellKind, NetlistBuilder};
use puffer_db::tech::Technology;
use puffer_gen::{generate, GeneratorConfig};
use puffer_rng::StdRng;

const FIXTURE: &str = include_str!("fixtures/congest_bits.txt");

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest_f64(values: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.word(v.to_bits());
    }
    h.0
}

/// Digest of every segment: its four Gcell coordinates, then its two
/// Steiner flags.
fn digest_segments(segs: &[SegmentRecord]) -> u64 {
    let mut h = Fnv::new();
    for s in segs {
        for w in [s.ax, s.ay, s.bx, s.by] {
            h.word(w as u64);
        }
        h.word(u64::from(s.a_steiner));
        h.word(u64::from(s.b_steiner));
    }
    h.0
}

/// A design whose cells sit in the middle half of the die, so the maps
/// overflow and the detour expansion moves demand.
fn congested() -> (Design, Placement) {
    let design = generate(&GeneratorConfig {
        num_cells: 600,
        num_nets: 660,
        num_macros: 3,
        hotspot: 0.5,
        seed: 23,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0023);
    let region = design.region();
    let c = region.center();
    let mut placement = design.initial_placement();
    for id in design.netlist().movable_cells() {
        let x = c.x + (rng.next_f64() - 0.5) * 0.5 * region.width();
        let y = c.y + (rng.next_f64() - 0.5) * 0.5 * region.height();
        placement.set(id, Point::new(x, y));
    }
    (design, placement)
}

/// Moves 7 % of the movable cells by up to 8 units each way: some pins
/// cross Gcell edges, most nets keep their Gcells.
fn perturb(design: &Design, placement: &mut Placement, round: u64) {
    let mut rng = StdRng::seed_from_u64(0xD1A7 ^ round);
    let r = design.region();
    for id in design.netlist().movable_cells() {
        if rng.gen_range(0.0..1.0) < 0.07 {
            let cur = placement.pos(id);
            let dx = rng.gen_range(-8.0..8.0);
            let dy = rng.gen_range(-8.0..8.0);
            placement.set(
                id,
                Point::new(
                    (cur.x + dx).clamp(r.xl, r.xh),
                    (cur.y + dy).clamp(r.yl, r.yh),
                ),
            );
        }
    }
}

fn estimator(design: &Design, threads: usize, expand_detours: bool) -> CongestionEstimator {
    CongestionEstimator::new(
        design,
        EstimatorConfig {
            threads,
            expand_detours,
        },
    )
}

fn line(
    what: &str,
    est: &CongestionEstimator,
    map: &CongestionMap,
    design: &Design,
    placement: &Placement,
) -> String {
    let config = est.config();
    let (_, _, segs) = try_build_demand(
        design,
        placement,
        est.h_capacity(),
        PIN_PENALTY,
        config.threads,
    )
    .unwrap();
    format!(
        "{what} h_cap {:016x} v_cap {:016x} h_demand {:016x} v_demand {:016x} \
         segments {} {:016x} overflow_h {:016x} overflow_v {:016x} congested {}\n",
        digest_f64(map.h_capacity().as_slice()),
        digest_f64(map.v_capacity().as_slice()),
        digest_f64(map.h_demand().as_slice()),
        digest_f64(map.v_demand().as_slice()),
        segs.len(),
        digest_segments(&segs),
        map.overflow_ratio_h().to_bits(),
        map.overflow_ratio_v().to_bits(),
        map.congested_cells()
    )
}

/// Walks `placement` through four perturbations, estimating each one by
/// both entry points of the one estimator.
fn walk(est: &mut CongestionEstimator, design: &Design, placement: &Placement) -> String {
    let mut out = String::new();
    let mut p = placement.clone();
    for round in 0..4 {
        perturb(design, &mut p, round);
        let carried = est.try_estimate_incremental(design, &p).unwrap();
        out.push_str(&line(
            &format!("walk round={round} incremental"),
            est,
            &carried,
            design,
            &p,
        ));
        let cold = est.try_estimate(design, &p).unwrap();
        out.push_str(&line(
            &format!("walk round={round} cold"),
            est,
            &cold,
            design,
            &p,
        ));
    }
    out
}

/// A 30 × 30 die (10 × 10 Gcells of 3 rows) holding one net whose pins sit
/// on unit cells centred at `pins`.
fn one_net(pins: &[Point]) -> (Design, Placement) {
    let mut nb = NetlistBuilder::new();
    let net = nb.add_net("n");
    let cells: Vec<_> = (0..pins.len())
        .map(|i| {
            let c = nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
            nb.connect(net, c, Point::ORIGIN).unwrap();
            c
        })
        .collect();
    let design = Design::new(
        "hand",
        nb.build().unwrap(),
        Technology::default(),
        Rect::new(0.0, 0.0, 30.0, 30.0),
    )
    .unwrap();
    let mut placement = Placement::zeroed(pins.len());
    for (&c, &p) in cells.iter().zip(pins) {
        placement.set(c, p);
    }
    (design, placement)
}

/// The hand-built nets.
fn hand_nets() -> Vec<(&'static str, Vec<Point>)> {
    let p = Point::new;
    let mut rng = StdRng::seed_from_u64(0x40);
    let forty: Vec<Point> = (0..40)
        .map(|_| p(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)))
        .collect();
    vec![
        ("degree1", vec![p(4.5, 4.5)]),
        (
            "one_gcell",
            vec![p(3.2, 3.3), p(5.9, 3.1), p(4.4, 5.8), p(3.0, 3.0)],
        ),
        (
            "gcell_edges",
            vec![
                p(3.0, 9.0),
                p(12.0, 9.0),
                p(12.0, 21.0),
                p(0.0, 30.0),
                p(30.0, 0.0),
            ],
        ),
        (
            "duplicates",
            vec![
                p(7.5, 7.5),
                p(7.5, 7.5),
                p(22.5, 7.5),
                p(7.5, 7.5),
                p(22.5, 16.5),
                p(22.5, 7.5),
            ],
        ),
        (
            "die_spanning",
            vec![p(0.1, 0.1), p(29.9, 29.9), p(0.1, 29.9)],
        ),
        ("forty_pins", forty),
    ]
}

/// The fixture text as this build computes it.
fn render() -> String {
    let (design, placement) = congested();
    let mut out = String::new();
    for threads in [1, 2, 4] {
        let est = estimator(&design, threads, true);
        let map = est.try_estimate(&design, &placement).unwrap();
        out.push_str(&line(
            &format!("gen threads={threads}"),
            &est,
            &map,
            &design,
            &placement,
        ));
    }
    let plain = estimator(&design, 2, false);
    let map = plain.try_estimate(&design, &placement).unwrap();
    out.push_str(&line("gen detours=off", &plain, &map, &design, &placement));
    let mut coarse = estimator(&design, 2, true);
    coarse.coarsen(&design, 2.0);
    let map = coarse.try_estimate(&design, &placement).unwrap();
    out.push_str(&line("gen coarsened", &coarse, &map, &design, &placement));
    let mut exhausted = estimator(&design, 2, true);
    let token = CancelToken::new();
    token.cancel();
    exhausted.set_budget(Budget::unbounded().with_token(token));
    let map = exhausted.try_estimate(&design, &placement).unwrap();
    out.push_str(&line(
        "gen exhausted",
        &exhausted,
        &map,
        &design,
        &placement,
    ));
    out.push_str(&walk(&mut estimator(&design, 2, true), &design, &placement));
    for (name, pins) in hand_nets() {
        let (design, placement) = one_net(&pins);
        let est = estimator(&design, 1, true);
        let map = est.try_estimate(&design, &placement).unwrap();
        out.push_str(&line(
            &format!("hand {name}"),
            &est,
            &map,
            &design,
            &placement,
        ));
    }
    out
}

#[test]
fn the_estimator_reproduces_the_fixture() {
    let got = render();
    assert_eq!(got.lines().count(), FIXTURE.lines().count(), "line count");
    for (line, (g, e)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, e, "fixture line {} differs", line + 1);
    }
}

/// The text after the case name of the fixture line starting with `what `.
fn tail(what: &str) -> &'static str {
    FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix(what)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no fixture line {what}"))
}

/// The value after `key ` in a fixture tail.
fn field<'a>(tail: &'a str, key: &str) -> &'a str {
    let mut words = tail.split(' ');
    words
        .find(|w| *w == key)
        .unwrap_or_else(|| panic!("no {key}"));
    words.next().unwrap()
}

/// The fixture is not vacuous: the `gen` design overflows, so detours move
/// demand; thread count moves no bit; an exhausted budget is the detour-off
/// map; coarsening changes the grid; each walk round's two entry points
/// agree while the rounds themselves differ; the hand nets decompose as
/// their shapes say.
#[test]
fn the_fixture_covers_its_cases() {
    let one = tail("gen threads=1");
    for t in ["gen threads=2", "gen threads=4"] {
        assert_eq!(tail(t), one, "{t}: thread count moved a bit");
    }
    assert_ne!(field(one, "congested"), "0");
    let off = tail("gen detours=off");
    assert_ne!(field(off, "h_demand"), field(one, "h_demand"));
    assert_eq!(field(off, "segments"), field(one, "segments"));
    assert_eq!(tail("gen exhausted"), off);
    assert_ne!(field(tail("gen coarsened"), "h_cap"), field(one, "h_cap"));
    let mut rounds = Vec::new();
    for round in 0..4 {
        let carried = tail(&format!("walk round={round} incremental"));
        assert_eq!(
            tail(&format!("walk round={round} cold")),
            carried,
            "round {round}"
        );
        rounds.push(field(carried, "h_demand"));
    }
    rounds.dedup();
    assert_eq!(rounds.len(), 4, "each perturbation moved demand");
    // Three distinct Gcells whose median is a pin: a two-edge star.
    for (name, segments) in [("degree1", "0"), ("one_gcell", "0"), ("duplicates", "2")] {
        assert_eq!(
            field(tail(&format!("hand {name}")), "segments"),
            segments,
            "{name}"
        );
    }
    assert_eq!(FIXTURE.lines().count(), 3 + 3 + 8 + 6);
}
