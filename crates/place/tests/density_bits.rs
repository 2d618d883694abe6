//! Bit-level pin of the density pipeline: `fixtures/density_bits.txt` was
//! rendered by the pipeline this crate shipped before the charge drain
//! walked touched lists and the gather shared `Grid`'s overlap walk — a
//! window scan per chunk, a `Rect` per bin in the gather — and re-rendered
//! once, when the solver's transforms became the paired passes of
//! `puffer_fft::{dct2_2d, synthesis_2d}` (which round differently from the
//! one-line-per-FFT transforms: the gradient lines moved in their last
//! bits; the charge map and overflow lines did not). Every path since must
//! reproduce it **bit for bit**: the density gradient steers
//! every placement, journal and golden metric, and the movable-charge map
//! feeds the padding features.
//!
//! A line holds the FNV-1a digest of the `f64` bits of `movable_density`,
//! the hex bits of the overflow, and the per-cell gradient pairs — listed
//! in full for the hand-built `zoo`, digested for the generated design. A
//! NaN is written as `nan` whatever its payload: no arithmetic here
//! promises one.

use puffer_db::design::{Design, Placement};
use puffer_db::geom::{Point, Rect};
use puffer_db::netlist::{CellId, CellKind, NetlistBuilder};
use puffer_db::tech::Technology;
use puffer_gen::{generate, GeneratorConfig};
use puffer_place::{DensityModel, DensityWorkspace, GpLanes};
use puffer_rng::StdRng;

const FIXTURE: &str = include_str!("fixtures/density_bits.txt");
const TARGET_DENSITY: f64 = 0.7;
const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// One input of the pipeline: a model, and the placement and effective
/// widths it is evaluated at.
struct Case {
    name: &'static str,
    design: Design,
    bins: usize,
    placement: Placement,
    eff_width: Vec<f64>,
    /// Whether the gradient is listed entry by entry.
    listed: bool,
}

/// The hand-built cells: `(name, width, height, eff_width, x, y)` on a
/// 32 × 32 die with 2 × 2 bins.
const ZOO: [(&str, f64, f64, f64, f64, f64); 10] = [
    // Clamped to the corner, so three quarters of the rect hang outside.
    ("over_corner", 6.0, 4.0, 6.0, -3.0, 40.0),
    ("over_right_edge", 5.0, 3.0, 5.0, 31.0, 13.7),
    // Smaller than a bin in both axes: smoothed to bin size.
    ("sub_bin", 0.5, 0.75, 0.5, 9.3, 21.1),
    // An effective width of zero is no charge at all: nothing is
    // deposited, and the gradient is ±0.
    ("zero_width", 1.0, 2.0, 0.0, 12.0, 12.0),
    // Consecutive cells — one chunk — over the same bins.
    ("shared_a", 3.0, 2.0, 3.0, 20.2, 8.9),
    ("shared_b", 3.0, 2.0, 4.5, 20.9, 9.4),
    ("shared_c", 2.0, 2.0, 2.0, 21.0, 9.0),
    // Exactly one bin, edges on bin boundaries.
    ("aligned", 2.0, 2.0, 2.0, 5.0, 5.0),
    ("poisoned", 2.0, 2.0, 2.0, f64::NAN, 7.0),
    ("padded_wide", 2.0, 2.0, 11.0, 16.0, 26.0),
];

fn zoo() -> Case {
    let mut nb = NetlistBuilder::new();
    for (name, width, height, ..) in ZOO {
        nb.add_cell(name, width, height, CellKind::Movable);
    }
    let block = nb.add_cell("block", 9.0, 7.0, CellKind::FixedMacro);
    let mut design = Design::new(
        "zoo",
        nb.build().unwrap(),
        Technology::default(),
        Rect::new(0.0, 0.0, 32.0, 32.0),
    )
    .unwrap();
    design.place_macro(block, Point::new(24.5, 20.5)).unwrap();
    let mut placement = design.initial_placement();
    let mut eff_width = vec![9.0; ZOO.len() + 1];
    for (i, &(.., eff, x, y)) in ZOO.iter().enumerate() {
        placement.set(CellId(i as u32), Point::new(x, y));
        eff_width[i] = eff;
    }
    Case {
        name: "zoo",
        design,
        bins: 16,
        placement,
        eff_width,
        listed: true,
    }
}

/// A generated design on 128² bins, its cells spread over the whole die
/// (`spread`) or packed into its middle tenth (`packed`, many cells a bin),
/// at raw or padded widths.
fn generated(name: &'static str, packed: bool, pad: f64) -> Case {
    let design = generate(&GeneratorConfig {
        num_cells: 1500,
        num_nets: 1600,
        num_macros: 3,
        seed: 22,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0022);
    let region = design.region();
    let (span, origin) = if packed { (0.1, 0.45) } else { (1.0, 0.0) };
    let mut placement = design.initial_placement();
    for id in design.netlist().movable_cells() {
        let x = region.xl + (origin + span * rng.next_f64()) * region.width();
        let y = region.yl + (origin + span * rng.next_f64()) * region.height();
        placement.set(id, Point::new(x, y));
    }
    let eff_width = design
        .netlist()
        .cells()
        .iter()
        .enumerate()
        .map(|(i, c)| c.width + pad * (i % 5) as f64)
        .collect();
    Case {
        name,
        design,
        bins: 128,
        placement,
        eff_width,
        listed: false,
    }
}

fn cases() -> Vec<Case> {
    vec![
        zoo(),
        generated("gen128_spread", false, 0.0),
        generated("gen128_packed", true, 0.0),
        generated("gen128_padded", false, 0.6),
    ]
}

fn hex(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{:016x}", v.to_bits())
    }
}

fn digest(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        let bits = if v.is_nan() { u64::MAX } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn density_line(case: &Case, model: &DensityModel) -> String {
    let map = model.movable_density(case.design.netlist(), &case.placement, &case.eff_width);
    format!(
        "{} density {:016x}\n",
        case.name,
        digest(map.as_slice().iter().copied())
    )
}

fn overflow_line(case: &Case, overflow: f64) -> String {
    format!("{} overflow {}\n", case.name, hex(overflow))
}

fn gradient_lines(case: &Case, grad: &[(f64, f64)]) -> String {
    let name = case.name;
    if !case.listed {
        return format!(
            "{name} grad_x {:016x} grad_y {:016x}\n",
            digest(grad.iter().map(|g| g.0)),
            digest(grad.iter().map(|g| g.1))
        );
    }
    let mut out = String::new();
    for (axis, pick) in [("grad_x", 0), ("grad_y", 1)] {
        out.push_str(&format!("{name} {axis}"));
        for g in grad {
            out.push(' ');
            out.push_str(&hex(if pick == 0 { g.0 } else { g.1 }));
        }
        out.push('\n');
    }
    out
}

/// One case's fixture lines as a workspace of `threads` workers computes
/// them; `slot` holds the workspace from one call to the next.
fn render(case: &Case, slot: &mut Option<DensityWorkspace>, threads: usize) -> String {
    render_with(case, slot, GpLanes::uniform(threads))
}

/// [`render`] with each phase on its own lane count.
fn render_with(case: &Case, slot: &mut Option<DensityWorkspace>, lanes: GpLanes) -> String {
    let netlist = case.design.netlist();
    let model = DensityModel::new(&case.design, case.bins, case.bins);
    let ws = slot
        .get_or_insert_with(|| DensityWorkspace::with_lanes(&model, netlist.num_cells(), lanes));
    let mut out = density_line(case, &model);
    let grad = ws.gradient(
        &model,
        netlist,
        &case.placement,
        &case.eff_width,
        TARGET_DENSITY,
    );
    let grad = gradient_lines(case, grad);
    out.push_str(&overflow_line(case, ws.last_overflow()));
    out.push_str(&grad);
    out
}

fn assert_matches_fixture(what: &str, got: &str) {
    assert_eq!(
        got.lines().count(),
        FIXTURE.lines().count(),
        "{what}: line count"
    );
    for (line, (g, e)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, e, "{what}: fixture line {} differs", line + 1);
    }
}

/// Every case at every worker count, twice: the three generated cases share
/// one workspace (same netlist, same bins), so each scatter but the first
/// runs over whatever the one before left in the lanes — a different
/// placement's, and on the second round the whole sequence's.
#[test]
fn the_pipeline_reproduces_the_fixture_at_every_worker_count() {
    let cases = cases();
    for threads in WORKERS {
        let mut shared = None;
        for round in 0..2 {
            let mut own = None;
            let mut got = String::new();
            for case in &cases {
                let slot = if case.listed { &mut own } else { &mut shared };
                got.push_str(&render(case, slot, threads));
            }
            assert_matches_fixture(&format!("threads {threads}, round {round}"), &got);
        }
    }
}

/// The walks the scatter records are read by the gather, and the two split
/// the cells differently: scatter lanes take whole chunks, gather lanes
/// equal runs of cells, so a gather lane can start inside a chunk. Every
/// mix of lane counts gives the one-lane bits.
#[test]
fn every_mix_of_lane_counts_gives_the_one_lane_bits() {
    let cases = cases();
    let render_all = |lanes: GpLanes| -> String {
        let mut shared = None;
        let mut got = String::new();
        for case in &cases {
            let mut own = None;
            let slot = if case.listed { &mut own } else { &mut shared };
            got.push_str(&render_with(case, slot, lanes));
        }
        got
    };
    let one = render_all(GpLanes::uniform(1));
    for scatter in 1..=3 {
        for transform in 1..=3 {
            for gather in 1..=3 {
                let lanes = GpLanes {
                    scatter,
                    transform,
                    gather,
                    ..GpLanes::uniform(1)
                };
                let got = render_all(lanes);
                for (line, (g, e)) in got.lines().zip(one.lines()).enumerate() {
                    assert_eq!(g, e, "{lanes:?}: line {} differs", line + 1);
                }
                assert_eq!(got.lines().count(), one.lines().count(), "{lanes:?}");
            }
        }
    }
}

/// The gather has one path: it replays the walk the scatter recorded, and
/// a cell without one gets `(+0, +0)` if fixed and NaN if movable. So a
/// finite gradient on a movable cell shows its walk was recorded, and the
/// only zoo cells without one are the poisoned cell and the macro — the
/// chargeless `zero_width` and the five-bin `padded_wide` have theirs.
#[test]
fn the_only_zoo_cells_without_a_walk_are_poisoned_and_the_macro() {
    let case = zoo();
    let netlist = case.design.netlist();
    let model = DensityModel::new(&case.design, case.bins, case.bins);
    let mut ws = DensityWorkspace::with_lanes(&model, netlist.num_cells(), GpLanes::uniform(1));
    let grad = ws.gradient(
        &model,
        netlist,
        &case.placement,
        &case.eff_width,
        TARGET_DENSITY,
    );
    for (&(name, ..), &(gx, gy)) in ZOO.iter().zip(grad) {
        let walked = gx.is_finite() && gy.is_finite();
        assert_eq!(walked, name != "poisoned", "{name}: ({gx}, {gy})");
    }
    let (gx, gy) = grad[ZOO.len()];
    assert_eq!((gx.to_bits(), gy.to_bits()), (0, 0), "the macro");
    assert!(!netlist.cells()[ZOO.len()].is_movable());
}

/// The one-shot evaluation is the same pipeline over a temporary workspace.
#[test]
fn the_one_shot_evaluation_reproduces_the_fixture() {
    for threads in [1, 3] {
        let mut got = String::new();
        for case in &cases() {
            let model = DensityModel::new(&case.design, case.bins, case.bins);
            let eval = model.evaluate_threaded(
                case.design.netlist(),
                &case.placement,
                &case.eff_width,
                TARGET_DENSITY,
                threads,
            );
            let grad: Vec<(f64, f64)> = eval.grad_x.iter().copied().zip(eval.grad_y).collect();
            got.push_str(&density_line(case, &model));
            got.push_str(&overflow_line(case, eval.overflow));
            got.push_str(&gradient_lines(case, &grad));
        }
        assert_matches_fixture(&format!("one-shot, threads {threads}"), &got);
    }
}

/// The fixture is not vacuous: it holds the special values its cases are
/// there to produce.
#[test]
fn the_fixture_covers_its_cases() {
    assert_eq!(FIXTURE.lines().count(), 4 + 3 * 3);
    let zoo_x: Vec<&str> = FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix("zoo grad_x "))
        .unwrap()
        .split(' ')
        .collect();
    assert_eq!(zoo_x.len(), ZOO.len() + 1);
    let at = |name: &str| zoo_x[ZOO.iter().position(|c| c.0 == name).unwrap()];
    assert_eq!(at("poisoned"), "nan");
    // A chargeless cell's gradient is −0 · E: a zero of either sign.
    let zero_width = at("zero_width").trim_start_matches('8');
    assert!(zero_width.chars().all(|c| c == '0'));
    assert_eq!(zoo_x[ZOO.len()], "0000000000000000", "the macro");
    // The poisoned cell's charge is all overflow, so the zoo overflows.
    let overflow = FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix("zoo overflow "))
        .unwrap();
    assert!(f64::from_bits(u64::from_str_radix(overflow, 16).unwrap()) > 0.0);
}
