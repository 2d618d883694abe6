//! Bit-level pin of layer assignment: `fixtures/layers_bits.txt` was
//! rendered while the router still handed its paths out as one
//! `Vec<(usize, usize)>` each, and every layer assignment since must
//! reproduce it **bit for bit**. `assign_layers` visits runs longest
//! first and breaks ties by comparing the runs' `(x, y)` cells, so the
//! order in which equal-length runs claim a layer — and with it every
//! layer's usage — hangs on how a path's cells compare.
//!
//! Each `layers` line routes `route_bits`' `gen` design at one thread
//! count and records the via count; each `layer` line below it holds one
//! routing layer's hex bits of usage sum and overflow ratio and an FNV-1a
//! digest of the `f64` bits of its usage grid.

mod common;

use common::{congested, digest_f64, router};
use puffer_route::assign_layers;

const FIXTURE: &str = include_str!("fixtures/layers_bits.txt");

/// The fixture text as this build computes it.
fn render() -> String {
    let (design, placement) = congested();
    let mut out = String::new();
    for threads in [1, 2, 4] {
        let report = router(&design, threads)
            .try_route(&design, &placement)
            .unwrap();
        let assignment = assign_layers(&design, &report.paths, report.congestion.h_capacity());
        out.push_str(&format!(
            "layers threads={threads} vias {}\n",
            assignment.vias
        ));
        for l in &assignment.layers {
            out.push_str(&format!(
                "layer threads={threads} {} usage_sum {:016x} overflow {:016x} usage {:016x}\n",
                l.name,
                l.usage.sum().to_bits(),
                l.overflow_ratio.to_bits(),
                digest_f64(l.usage.as_slice())
            ));
        }
    }
    out
}

#[test]
fn layer_assignment_reproduces_the_fixture() {
    let got = render();
    assert_eq!(got.lines().count(), FIXTURE.lines().count(), "line count");
    for (line, (g, e)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, e, "fixture line {} differs", line + 1);
    }
}

/// The fixture is not vacuous: the three thread counts agree, some layer
/// overflows, and traffic spilled onto more than one layer.
#[test]
fn the_fixture_covers_its_cases() {
    let tail = |threads: usize| -> Vec<String> {
        let tag = format!("threads={threads} ");
        FIXTURE
            .lines()
            .filter_map(|l| l.split_once(&tag).map(|(_, t)| t.to_string()))
            .collect()
    };
    assert!(tail(1).len() > 2);
    assert_eq!(tail(1), tail(2), "thread count moved a bit");
    assert_eq!(tail(1), tail(4), "thread count moved a bit");
    let layers: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| l.starts_with("layer threads=1 "))
        .collect();
    let zero = format!("{:016x}", 0.0f64.to_bits());
    let used = layers
        .iter()
        .filter(|l| !l.contains(&format!(" usage_sum {zero} ")))
        .count();
    assert!(used > 2, "traffic stayed on {used} layers");
    assert!(
        layers
            .iter()
            .any(|l| !l.contains(&format!(" overflow {zero} "))),
        "no layer overflows"
    );
    assert!(!FIXTURE.contains(" vias 0\n"));
}
