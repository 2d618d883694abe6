//! Bit-level pin of the WA wirelength kernel: `fixtures/wa_bits.txt` was
//! rendered by the kernel this crate shipped before the eliding one — one
//! `exp` per pin per sign per axis, pins gathered once per axis through
//! `Placement::pin_pos` — and every path since must reproduce it **bit for
//! bit**: the WA gradient steers every placement, journal and golden metric.
//!
//! The two "zoo" netlists hold one hand-built net per branch of the elision
//! rule (`FINITE`, `POISONED`); their lines list `value` and every gradient
//! entry as hex `f64` bits. The generated 600-cell design records `value`
//! and an FNV-1a digest of each gradient vector. A NaN is written as `nan`
//! whatever its payload: no arithmetic here promises one.

use puffer_db::design::Placement;
use puffer_db::geom::Point;
use puffer_db::netlist::{CellKind, Netlist, NetlistBuilder};
use puffer_gen::{generate, GeneratorConfig};
use puffer_place::{wa_wirelength_grad_threaded, WaWorkspace, WirelengthGrad};
use puffer_rng::StdRng;

const FIXTURE: &str = include_str!("fixtures/wa_bits.txt");
const GAMMAS: [f64; 3] = [0.05, 1.0, 8.0];
const INF: f64 = f64::INFINITY;

/// One hand-built net: its name, weight and pins, each pin on a cell of its
/// own at the given position.
type ZooNet = (&'static str, f64, &'static [(f64, f64)]);
/// A net over cells other zoo nets own: `(net, pin index, offset)` each.
type CrossNet = &'static [(&'static str, usize, (f64, f64))];

const FINITE: [ZooNet; 12] = [
    ("two_pin", 1.0, &[(1.5, 2.25), (7.0, -3.5)]),
    // min == max in both axes: every argument is ±0.
    ("coincident", 1.0, &[(4.0, 4.0), (4.0, 4.0), (4.0, 4.0)]),
    // Two pins at the max and two at the min, in both axes.
    (
        "ties",
        1.0,
        &[(0.0, 3.0), (10.0, 3.0), (10.0, 1.0), (0.0, 1.0), (5.0, 2.0)],
    ),
    ("signed_zero_pair", 1.0, &[(-0.0, 0.0), (0.0, -0.0)]),
    (
        "signed_zero_max",
        1.0,
        &[(-1.0, -0.0), (0.0, 0.0), (-0.0, 1.0)],
    ),
    // exp(−1000) is 0 and exp(−730) is subnormal (at γ = 1).
    ("underflow", 1.0, &[(0.0, 0.0), (1000.0, 730.0)]),
    (
        "underflow_mid",
        1.0,
        &[(0.0, 0.0), (500.0, 365.0), (1000.0, 730.0)],
    ),
    // Spans so small that span·γ⁻¹ rounds to −0 at γ = 8.
    ("vanishing_span", 1.0, &[(0.0, 1e-323), (5e-324, 0.0)]),
    ("zero_weight", 0.0, &[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]),
    ("degree_one", 1.0, &[(9.0, 9.0)]),
    (
        "weighted",
        2.5,
        &[(-3.0, 8.0), (2.0, 6.5), (0.5, 7.0), (2.0, 8.0)],
    ),
    // Degree 40 on a slanted line: outgrows whatever scratch the small
    // nets left behind.
    ("long", 1.0, &LONG),
];

const LONG: [(f64, f64); 40] = {
    let mut pins = [(0.0, 0.0); 40];
    let mut i = 0;
    while i < 40 {
        let t = ((i * 17) % 40) as f64;
        pins[i] = (0.37 * t - 3.0, 11.0 - 0.61 * t);
        i += 1;
    }
    pins
};

/// Nets tying finite cells of different zoo nets together — with pin
/// offsets, and one cell carrying two pins of one net — so that a cell's
/// gradient is a sum over nets of several chunks.
const FINITE_CROSS: [CrossNet; 3] = [
    &[
        ("two_pin", 0, (0.25, -0.5)),
        ("ties", 4, (0.0, 0.0)),
        ("weighted", 2, (-0.125, 0.375)),
    ],
    &[
        ("long", 7, (0.5, 0.5)),
        ("long", 7, (-0.5, -0.5)),
        ("coincident", 1, (0.0, 0.25)),
    ],
    &[
        ("underflow_mid", 1, (0.0, 0.0)),
        ("ties", 1, (0.1, 0.2)),
        ("two_pin", 1, (0.0, 0.0)),
        ("long", 39, (0.3, 0.0)),
    ],
];

/// The nets whose value is NaN. They get a netlist of their own: one NaN
/// net makes the total NaN, which would pin nothing about the finite nets.
const POISONED: [ZooNet; 6] = [
    ("healthy", 1.0, &[(1.0, 2.0), (4.0, 0.5), (2.0, 3.0)]),
    (
        "nan_pin",
        1.0,
        &[(1.0, 1.0), (f64::NAN, 2.0), (3.0, f64::NAN)],
    ),
    (
        "all_nan",
        1.0,
        &[(f64::NAN, f64::NAN), (f64::NAN, f64::NAN)],
    ),
    ("pos_inf_pin", 1.0, &[(1.0, 1.0), (INF, 2.0), (3.0, INF)]),
    ("neg_inf_pin", 1.0, &[(1.0, -INF), (-INF, 2.0), (3.0, 3.0)]),
    ("both_inf", 1.0, &[(-INF, INF), (INF, -INF), (0.0, 0.0)]),
];

/// Finite cells of poisoned nets also sit on a healthy net: a NaN entry
/// stays NaN through the sum, and `healthy`'s other cells stay finite.
const POISONED_CROSS: [CrossNet; 1] = [&[
    ("healthy", 0, (0.5, 0.0)),
    ("pos_inf_pin", 0, (0.0, 0.0)),
    ("nan_pin", 0, (0.0, -0.5)),
]];

/// A zoo netlist and its placement: `nets`, then `cross`.
fn zoo(nets: &[ZooNet], cross: &[CrossNet]) -> (Netlist, Placement) {
    let mut nb = NetlistBuilder::new();
    let mut at = Vec::new();
    let mut first_cell = Vec::new();
    for &(name, weight, pins) in nets {
        let net = nb.add_weighted_net(name, weight);
        first_cell.push(at.len());
        for (k, &(x, y)) in pins.iter().enumerate() {
            let cell = nb.add_cell(format!("{name}_{k}"), 1.0, 1.0, CellKind::Movable);
            nb.connect(net, cell, Point::ORIGIN).unwrap();
            at.push((cell, Point::new(x, y)));
        }
    }
    for (i, pins) in cross.iter().enumerate() {
        let net = nb.add_weighted_net(format!("cross{i}"), 1.0 + 0.5 * i as f64);
        for &(name, k, (dx, dy)) in *pins {
            let owner = nets.iter().position(|(n, ..)| *n == name).unwrap();
            let cell = at[first_cell[owner] + k].0;
            nb.connect(net, cell, Point::new(dx, dy)).unwrap();
        }
    }
    let netlist = nb.build().unwrap();
    let mut placement = Placement::zeroed(netlist.num_cells());
    for (cell, p) in at {
        placement.set(cell, p);
    }
    (netlist, placement)
}

fn generated() -> (Netlist, Placement) {
    let design = generate(&GeneratorConfig {
        num_cells: 600,
        num_nets: 700,
        num_macros: 2,
        seed: 18,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0018);
    let region = design.region();
    let mut placement = design.initial_placement();
    for id in design.netlist().movable_cells() {
        let x = region.xl + rng.next_f64() * region.width();
        let y = region.yl + rng.next_f64() * region.height();
        placement.set(id, Point::new(x, y));
    }
    (design.netlist().clone(), placement)
}

fn hex(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{:016x}", v.to_bits())
    }
}

fn digest(values: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        let bits = if v.is_nan() { u64::MAX } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The designs under evaluation; all but the last are listed in full.
fn designs() -> [(&'static str, (Netlist, Placement)); 3] {
    [
        ("finite", zoo(&FINITE, &FINITE_CROSS)),
        ("poisoned", zoo(&POISONED, &POISONED_CROSS)),
        ("gen600", generated()),
    ]
}

/// The fixture text as `eval` computes it.
fn render(mut eval: impl FnMut(&Netlist, &Placement, f64) -> WirelengthGrad) -> String {
    let mut out = String::new();
    for (name, (netlist, placement)) in &designs() {
        for gamma in GAMMAS {
            let got = eval(netlist, placement, gamma);
            if *name == "gen600" {
                out.push_str(&format!(
                    "{name} g={gamma} value {} grad_x {:016x} grad_y {:016x}\n",
                    hex(got.value),
                    digest(&got.grad_x),
                    digest(&got.grad_y)
                ));
                continue;
            }
            out.push_str(&format!("{name} g={gamma} value {}\n", hex(got.value)));
            for (axis, grad) in [("grad_x", &got.grad_x), ("grad_y", &got.grad_y)] {
                out.push_str(&format!("{name} g={gamma} {axis}"));
                for &v in grad {
                    out.push(' ');
                    out.push_str(&hex(v));
                }
                out.push('\n');
            }
        }
    }
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

#[test]
fn the_gradient_form_reproduces_the_fixture_at_every_thread_count() {
    for threads in [1, 2, 3, 4] {
        let got = render(|nl, p, gamma| wa_wirelength_grad_threaded(nl, p, gamma, threads));
        assert_matches_fixture(&format!("threads {threads}"), &got);
    }
}

/// One workspace across every design and γ, as a placer keeps it: each
/// evaluation runs over whatever the one before left in its buffers.
#[test]
fn a_reused_workspace_reproduces_the_fixture() {
    for threads in [1, 2, 3, 4] {
        let mut ws = WaWorkspace::new(threads);
        let got = render(|nl, p, gamma| WirelengthGrad {
            value: ws.gradient(nl, p, gamma),
            grad_x: ws.grad_x().to_vec(),
            grad_y: ws.grad_y().to_vec(),
        });
        assert_matches_fixture(&format!("reused, threads {threads}"), &got);
    }
}

/// The fixture is not vacuous: it holds the special values its cases are
/// there to produce.
#[test]
fn the_fixture_covers_its_cases() {
    assert_eq!(FIXTURE.lines().count(), 2 * 3 * 3 + 3);
    assert!(
        FIXTURE.contains(" nan"),
        "NaN and ±∞ pins poison their cells"
    );
    // Zero-weight and degree-1 nets leave their cells at +0.0.
    assert!(FIXTURE.contains(" 0000000000000000 0000000000000000 0000000000000000"));
}
