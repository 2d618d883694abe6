//! Bit-level pin of the Nesterov loop: `fixtures/step_bits.txt` was first
//! rendered by the placer this crate shipped while every step still
//! evaluated the WA wirelength's value for its statistics, and re-rendered
//! twice since: by the first placer whose steps carry γ across the step
//! boundary (a step's opening gradient takes its WA half at the γ of the
//! previous step's last backtracking round, from the memo), and by the
//! first that commits the reference point `v_{k+1}` and reads the step's
//! statistics off its gradient evaluation there; and once more when the
//! density solve's transforms became paired passes, whose rounding moves
//! the gradient's last bits. Every placer since must
//! reproduce it **bit for bit**: the step's statistics steer λ,
//! γ, the stop test and the padding rounds, and the placement is what the
//! flow writes.
//!
//! A `step` line holds the hex bits of the step's HPWL, overflow, λ and
//! Nesterov step size, and the FNV-1a digest of the `f64` bits of every
//! cell's coordinates. The `recovery` line is a NaN-poisoned restore: the
//! divergence reason, the recovery count and the digest of the placement
//! the placer fell back to. A NaN is written as `nan` whatever its
//! payload: no arithmetic here promises one.

use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_db::grid::Grid;
use puffer_gen::{generate, GeneratorConfig};
use puffer_place::{GlobalPlacer, IterationStats, PlacerConfig};

const FIXTURE: &str = include_str!("fixtures/step_bits.txt");
const THREADS: [usize; 3] = [1, 2, 4];

fn design() -> Design {
    generate(&GeneratorConfig {
        num_cells: 600,
        num_nets: 660,
        num_macros: 3,
        seed: 25,
        ..GeneratorConfig::default()
    })
    .unwrap()
}

fn config(threads: usize) -> PlacerConfig {
    PlacerConfig {
        threads,
        ..PlacerConfig::default()
    }
}

fn hex(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{:016x}", v.to_bits())
    }
}

fn digest(placement: &Placement) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &v in placement.xs().iter().chain(placement.ys()) {
        let bits = if v.is_nan() { u64::MAX } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn step_line(placer: &mut GlobalPlacer<'_>) -> String {
    let IterationStats {
        iter,
        overflow,
        hpwl,
        lambda,
        ..
    } = placer.step();
    let alpha = placer.snapshot().opt.map_or(0.0, |(opt, _)| opt.alpha);
    format!(
        "step {iter} hpwl {} overflow {} lambda {} alpha {} place {:016x}\n",
        hex(hpwl),
        hex(overflow),
        hex(lambda),
        hex(alpha),
        digest(placer.placement())
    )
}

/// 40 steps, a padding round and an extra-charge map, 20 more steps.
fn trajectory(design: &Design, threads: usize) -> String {
    let mut placer = GlobalPlacer::new(design, config(threads)).unwrap();
    let mut out = String::new();
    for _ in 0..40 {
        out.push_str(&step_line(&mut placer));
    }
    let pad = design
        .netlist()
        .cells()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if c.is_movable() {
                0.25 * c.width * (i % 4) as f64
            } else {
                0.0
            }
        })
        .collect();
    placer.set_padding(pad);
    let (mx, my) = placer.density_dims();
    let mut extra: Grid<f64> = Grid::new(design.region(), mx, my);
    for (i, v) in extra.as_mut_slice().iter_mut().enumerate() {
        *v = 0.1 * (i % 7) as f64;
    }
    placer.set_extra_charge(extra);
    for _ in 0..20 {
        out.push_str(&step_line(&mut placer));
    }
    out
}

/// Ten healthy steps, then a restore of their snapshot with one movable
/// cell of a 2-pin net at NaN and no optimizer state: the next step
/// bootstraps from the poisoned point and must recover.
fn recovery(design: &Design, threads: usize) -> String {
    let netlist = design.netlist();
    let mut placer = GlobalPlacer::new(design, config(threads)).unwrap();
    for _ in 0..10 {
        placer.step();
    }
    let victim = netlist
        .iter_nets()
        .filter(|(id, net)| netlist.net_degree(*id) == 2 && net.weight != 0.0)
        .flat_map(|(id, _)| netlist.net_pins(id))
        .map(|pin| netlist.pins()[pin.index()].cell)
        .find(|&cell| netlist.cell(cell).is_movable())
        .unwrap();
    let mut snap = placer.snapshot();
    snap.placement.set(victim, Point::new(f64::NAN, 3.0));
    snap.opt = None;
    placer.restore(snap).unwrap();
    placer.step();
    let reason = placer
        .last_divergence()
        .map_or_else(|| "none".to_string(), |d| d.to_string());
    format!(
        "recovery divergence {reason:?} recoveries {} place {:016x}\n",
        placer.recoveries(),
        digest(placer.placement())
    )
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

#[test]
fn the_loop_reproduces_the_fixture_at_every_thread_count() {
    let design = design();
    for threads in THREADS {
        let mut got = trajectory(&design, threads);
        got.push_str(&recovery(&design, threads));
        assert_matches_fixture(&format!("threads {threads}"), &got);
    }
}

/// The fixture is not vacuous: its steps move the placement and its
/// recovery case recovered.
#[test]
fn the_fixture_covers_its_cases() {
    assert_eq!(FIXTURE.lines().count(), 60 + 1);
    let digests: std::collections::BTreeSet<&str> = FIXTURE
        .lines()
        .filter_map(|l| l.split(" place ").nth(1))
        .collect();
    assert!(
        digests.len() > 50,
        "only {} distinct placements",
        digests.len()
    );
    let recovery = FIXTURE.lines().last().unwrap();
    assert!(
        recovery.starts_with("recovery divergence \"non-finite objective\" recoveries 1 "),
        "{recovery}"
    );
}
