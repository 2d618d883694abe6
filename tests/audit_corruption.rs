//! Seeded-corruption tests for the `puffer-audit` invariant checkers: each
//! [`Validate`] implementation must catch its corruption with a precise,
//! named violation — and must pass the same artifact uncorrupted.
//!
//! The netlist corruptions use `Netlist::from_raw_parts`, the deliberately
//! unvalidated constructor that exists exactly for this purpose; the
//! file-level corruptions damage real artifacts written by the flow.

use puffer::{CheckpointPolicy, Job, PufferConfig};
use puffer_audit::{audit_metrics, audit_run, PadAudit, PlacementAudit, PlacementStage, Validate};
use puffer_db::design::Design;
use puffer_db::geom::{Point, Rect};
use puffer_db::netlist::{Cell, CellKind, Net, Netlist, Pin, PinId};
use puffer_db::tech::Technology;
use puffer_gen::{generate, GeneratorConfig};
use puffer_pad::{PaddingState, PaddingStrategy};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("puffer-audit-corruption")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_design() -> Design {
    generate(&GeneratorConfig {
        num_cells: 220,
        num_nets: 240,
        num_macros: 1,
        utilization: 0.6,
        hotspot: 0.4,
        ..GeneratorConfig::default()
    })
    .expect("generate")
}

/// Asserts that validating `subject` fails and that some violation carries
/// the expected check name.
fn assert_caught<V: Validate>(subject: &V, check: &str) {
    let report = subject.validate().expect_err("corruption must be caught");
    assert!(
        report.violations.iter().any(|v| v.check == check),
        "expected a '{check}' violation, got: {report}"
    );
}

// ---------------------------------------------------------------------------
// Netlist corruptions
// ---------------------------------------------------------------------------

/// A two-cell, one-net netlist assembled by hand so tests can corrupt it.
/// Membership lists (which pins each cell/net claims) are returned
/// separately because the struct-of-arrays netlist stores them in CSR
/// form, not inside `Cell`/`Net`.
type RawNetlist = (
    Vec<Cell>,
    Vec<Net>,
    Vec<Pin>,
    Vec<Vec<PinId>>,
    Vec<Vec<PinId>>,
);

fn raw_two_cell_netlist() -> RawNetlist {
    let cells = vec![
        Cell {
            name: "a".into(),
            width: 2.0,
            height: 1.0,
            kind: CellKind::Movable,
        },
        Cell {
            name: "b".into(),
            width: 2.0,
            height: 1.0,
            kind: CellKind::Movable,
        },
    ];
    let nets = vec![Net {
        name: "n".into(),
        weight: 1.0,
    }];
    let pins = vec![
        Pin {
            cell: puffer_db::netlist::CellId(0),
            net: puffer_db::netlist::NetId(0),
            offset: Point::ORIGIN,
        },
        Pin {
            cell: puffer_db::netlist::CellId(1),
            net: puffer_db::netlist::NetId(0),
            offset: Point::ORIGIN,
        },
    ];
    let cell_pins = vec![vec![PinId(0)], vec![PinId(1)]];
    let net_pins = vec![vec![PinId(0), PinId(1)]];
    (cells, nets, pins, cell_pins, net_pins)
}

fn design_of(netlist: Netlist) -> Design {
    Design::new(
        "corrupt",
        netlist,
        Technology::default(),
        Rect::new(0.0, 0.0, 40.0, 40.0),
    )
    .unwrap()
}

#[test]
fn pristine_raw_netlist_passes() {
    let (cells, nets, pins, cell_pins, net_pins) = raw_two_cell_netlist();
    let d = design_of(Netlist::from_raw_parts(
        cells, nets, pins, cell_pins, net_pins,
    ));
    d.validate().expect("uncorrupted design must validate");
}

#[test]
fn dangling_pin_is_detected() {
    let (cells, nets, mut pins, cell_pins, net_pins) = raw_two_cell_netlist();
    // A third pin exists in the pin table but neither its cell nor its net
    // lists it — wirelength and density would silently ignore it.
    pins.push(Pin {
        cell: puffer_db::netlist::CellId(0),
        net: puffer_db::netlist::NetId(0),
        offset: Point::ORIGIN,
    });
    let d = design_of(Netlist::from_raw_parts(
        cells, nets, pins, cell_pins, net_pins,
    ));
    assert_caught(&d, "dangling-pin");
}

#[test]
fn degenerate_weighted_net_is_detected() {
    let (cells, nets, pins, cell_pins, mut net_pins) = raw_two_cell_netlist();
    // Drop the net's second pin: weight 1 but degree 1 can never
    // contribute wirelength.
    net_pins[0].truncate(1);
    let d = design_of(Netlist::from_raw_parts(
        cells, nets, pins, cell_pins, net_pins,
    ));
    assert_caught(&d, "degenerate-net");
}

#[test]
fn pin_outside_cell_bounds_is_detected() {
    let (cells, nets, mut pins, cell_pins, net_pins) = raw_two_cell_netlist();
    pins[0].offset = Point::new(5.0, 0.0); // half-width is 1.0
    let d = design_of(Netlist::from_raw_parts(
        cells, nets, pins, cell_pins, net_pins,
    ));
    assert_caught(&d, "pin-outside-cell");
}

#[test]
fn zero_area_cell_is_detected() {
    let (mut cells, nets, pins, cell_pins, net_pins) = raw_two_cell_netlist();
    cells[1].width = 0.0;
    let d = design_of(Netlist::from_raw_parts(
        cells, nets, pins, cell_pins, net_pins,
    ));
    assert_caught(&d, "zero-area-cell");
}

#[test]
fn generated_design_passes_the_audit() {
    small_design()
        .validate()
        .expect("generator output is valid");
}

// ---------------------------------------------------------------------------
// Placement corruptions
// ---------------------------------------------------------------------------

#[test]
fn nan_coordinate_is_detected() {
    let d = small_design();
    let mut p = d.initial_placement();
    let victim = d.netlist().movable_cells().next().unwrap();
    p.set(victim, Point::new(f64::NAN, 1.0));
    let audit = PlacementAudit {
        design: &d,
        placement: &p,
        stage: PlacementStage::Global,
    };
    assert_caught(&audit, "finite-coords");
}

#[test]
fn cell_outside_core_is_detected() {
    let d = small_design();
    let mut p = d.initial_placement();
    let victim = d.netlist().movable_cells().next().unwrap();
    let r = d.region();
    p.set(victim, Point::new(r.xh + 100.0, r.yl));
    let audit = PlacementAudit {
        design: &d,
        placement: &p,
        stage: PlacementStage::Global,
    };
    assert_caught(&audit, "outside-core");

    // The uncorrupted initial placement passes at the same stage.
    let p = d.initial_placement();
    PlacementAudit {
        design: &d,
        placement: &p,
        stage: PlacementStage::Global,
    }
    .validate()
    .expect("initial placement is inside the core");
}

#[test]
fn truncated_placement_vector_is_detected() {
    let d = small_design();
    let p = puffer_db::design::Placement::zeroed(d.netlist().num_cells() - 1);
    let audit = PlacementAudit {
        design: &d,
        placement: &p,
        stage: PlacementStage::Global,
    };
    assert_caught(&audit, "cell-count");
}

// ---------------------------------------------------------------------------
// Padding corruptions
// ---------------------------------------------------------------------------

#[test]
fn negative_and_oversized_padding_are_detected() {
    let d = small_design();
    let n = d.netlist().num_cells();
    let strategy = PaddingStrategy::default();

    let mut state = PaddingState::new(n);
    state.pad[0] = -1.0;
    assert_caught(
        &PadAudit {
            design: &d,
            state: &state,
            strategy: &strategy,
        },
        "pad-width",
    );

    let mut state = PaddingState::new(n);
    state.round = 1;
    let victim = d.netlist().movable_cells().next().unwrap();
    let width = d.netlist().cell(victim).width;
    state.pad[victim.index()] = strategy.max_pad_widths * width * 10.0;
    state.pad_count[victim.index()] = 1;
    assert_caught(
        &PadAudit {
            design: &d,
            state: &state,
            strategy: &strategy,
        },
        "pad-cap",
    );

    // A fresh state passes.
    let state = PaddingState::new(n);
    PadAudit {
        design: &d,
        state: &state,
        strategy: &strategy,
    }
    .validate()
    .expect("fresh padding state is valid");
}

// ---------------------------------------------------------------------------
// Metrics-file corruptions
// ---------------------------------------------------------------------------

fn write_lines(path: &PathBuf, lines: &[&str]) {
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

#[test]
fn mismatched_histogram_is_detected() {
    let dir = tmp_dir("histogram");
    let path = dir.join("bad.jsonl");
    // h_hist buckets 100 Gcells, v_hist only 99 — the same grid must
    // bucket the same count in both directions.
    write_lines(
        &path,
        &[
            r#"{"t":"congest.round","elapsed_s":0.1,"h_hist":[50,20,10,10,5,3,1,1],"v_hist":[50,20,10,10,5,3,1,0],"congested":2}"#,
        ],
    );
    let report = audit_metrics(&path).expect_err("mismatched histogram must be caught");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == "histogram-conservation"),
        "got: {report}"
    );

    // The consistent version passes.
    let good = dir.join("good.jsonl");
    write_lines(
        &good,
        &[
            r#"{"t":"congest.round","elapsed_s":0.1,"h_hist":[50,20,10,10,5,3,1,1],"v_hist":[49,21,10,10,5,3,1,1],"congested":2}"#,
        ],
    );
    let summary = audit_metrics(&good).expect("consistent histograms pass");
    assert_eq!(summary.gcells, Some(100));
}

#[test]
fn grid_shrink_is_allowed_only_after_a_recorded_coarsening() {
    let dir = tmp_dir("histogram-coarsen");
    // An unexplained Gcell-count change across rounds is corruption...
    let bad = dir.join("bad.jsonl");
    write_lines(
        &bad,
        &[
            r#"{"t":"congest.round","elapsed_s":0.1,"h_hist":[50,20,10,10,5,3,1,1],"v_hist":[50,20,10,10,5,3,1,1],"congested":2}"#,
            r#"{"t":"congest.round","elapsed_s":0.2,"h_hist":[10,5,5,3,1,1,0,0],"v_hist":[10,5,5,3,1,1,0,0],"congested":1}"#,
        ],
    );
    let report = audit_metrics(&bad).expect_err("silent grid change must be caught");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == "histogram-conservation"),
        "got: {report}"
    );

    // ...but a journaled coarse-congestion degradation legitimately
    // shrinks the estimation grid for the remaining rounds.
    let degraded = dir.join("degraded.jsonl");
    write_lines(
        &degraded,
        &[
            r#"{"t":"congest.round","elapsed_s":0.1,"h_hist":[50,20,10,10,5,3,1,1],"v_hist":[50,20,10,10,5,3,1,1],"congested":2}"#,
            r#"{"t":"flow.degrade","elapsed_s":0.15,"step":"coarse-congestion","fraction_remaining":0.45,"iter":3}"#,
            r#"{"t":"congest.round","elapsed_s":0.2,"h_hist":[10,5,5,3,1,1,0,0],"v_hist":[10,5,5,3,1,1,0,0],"congested":1}"#,
            r#"{"t":"congest.round","elapsed_s":0.3,"h_hist":[9,6,5,3,1,1,0,0],"v_hist":[9,6,5,3,1,1,0,0],"congested":1}"#,
        ],
    );
    let summary = audit_metrics(&degraded).expect("recorded coarsening passes");
    assert_eq!(summary.gcells, Some(25));

    // One degrade record licenses one shrink — growing back is still wrong.
    let grown = dir.join("grown.jsonl");
    write_lines(
        &grown,
        &[
            r#"{"t":"congest.round","elapsed_s":0.1,"h_hist":[10,5,5,3,1,1,0,0],"v_hist":[10,5,5,3,1,1,0,0],"congested":1}"#,
            r#"{"t":"flow.degrade","elapsed_s":0.15,"step":"coarse-congestion","fraction_remaining":0.45,"iter":3}"#,
            r#"{"t":"congest.round","elapsed_s":0.2,"h_hist":[50,20,10,10,5,3,1,1],"v_hist":[50,20,10,10,5,3,1,1],"congested":2}"#,
        ],
    );
    let report = audit_metrics(&grown).expect_err("a coarsened grid cannot grow");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == "histogram-conservation"),
        "got: {report}"
    );
}

#[test]
fn timestamp_running_backwards_is_detected() {
    let dir = tmp_dir("stamps");
    let records = [
        r#"{"t":"place.iter","elapsed_s":0.1,"iter":1,"hpwl":10.0,"overflow":0.5,"lambda":1e-4}"#,
        r#"{"t":"place.iter","elapsed_s":0.2,"iter":2,"hpwl":9.0,"overflow":0.4,"lambda":2e-4}"#,
        r#"{"t":"place.iter","elapsed_s":0.2,"iter":3,"hpwl":8.0,"overflow":0.3,"lambda":3e-4}"#,
    ];
    let good = dir.join("good.jsonl");
    write_lines(&good, &records);
    audit_metrics(&good).expect("equal stamps are still in order");

    // Two writers racing the way `Trace::record` let them before the clock
    // moved under the sink lock: the later stamp lands first.
    let bad = dir.join("bad.jsonl");
    write_lines(
        &bad,
        &[
            &records[0].replace(r#""elapsed_s":0.1"#, r#""elapsed_s":0.15"#),
            &records[1].replace(r#""elapsed_s":0.2"#, r#""elapsed_s":0.149"#),
            records[2],
        ],
    );
    let report = audit_metrics(&bad).expect_err("a stamp earlier than its predecessor");
    let hits: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.check == "record-timestamp")
        .map(|v| v.message.as_str())
        .collect();
    assert_eq!(hits.len(), 1, "got: {report}");
    assert!(
        hits[0].contains("record 1") && hits[0].contains("0.149"),
        "got: {report}"
    );
}

#[test]
fn shrinking_iteration_stream_is_detected() {
    let dir = tmp_dir("iter-stream");
    let path = dir.join("bad.jsonl");
    write_lines(
        &path,
        &[
            r#"{"t":"place.iter","elapsed_s":0.1,"iter":2,"hpwl":10.0,"overflow":0.5,"lambda":1e-4}"#,
            r#"{"t":"place.iter","elapsed_s":0.2,"iter":2,"hpwl":9.0,"overflow":0.4,"lambda":2e-4}"#,
        ],
    );
    let report = audit_metrics(&path).expect_err("repeated iteration must be caught");
    assert!(
        report.violations.iter().any(|v| v.check == "place-iter"),
        "got: {report}"
    );
}

#[test]
fn transform_count_outside_the_density_evaluations_is_detected() {
    let dir = tmp_dir("density-counters");
    let counters = |evals: u32, transforms: u32| {
        [
            format!(
                r#"{{"t":"counter","elapsed_s":0.1,"name":"place.density_evals","value":{evals}}}"#
            ),
            format!(
                r#"{{"t":"counter","elapsed_s":0.1,"name":"fft.transforms2d","value":{transforms}}}"#
            ),
        ]
    };
    // Every evaluation is a gradient of three transforms: 700 is no whole
    // number of gradients, 1353 more gradients than the 450 evaluations,
    // and 699 fewer (233 gradients beside 217 statistics passes, which no
    // evaluation runs any more).
    for transforms in [700, 1353, 699] {
        let path = dir.join(format!("bad-{transforms}.jsonl"));
        let lines = counters(450, transforms);
        write_lines(&path, &[&lines[0], &lines[1]]);
        let report = audit_metrics(&path).expect_err("impossible transform count must be caught");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.check == "density-counters"),
            "got: {report}"
        );
    }
    let good = dir.join("good.jsonl");
    let lines = counters(450, 1350);
    write_lines(&good, &[&lines[0], &lines[1]]);
    audit_metrics(&good).expect("450 gradients of 3 transforms pass");
}

#[test]
fn impossible_wa_counters_are_detected() {
    let dir = tmp_dir("wa-counters");
    let audit = |name: &str, counters: &[(&str, u64)]| {
        let lines: Vec<String> = counters
            .iter()
            .map(|(counter, value)| {
                format!(r#"{{"t":"counter","elapsed_s":0.1,"name":"place.wa_{counter}","value":{value}}}"#)
            })
            .collect();
        let path = dir.join(name);
        write_lines(&path, &lines.iter().map(String::as_str).collect::<Vec<_>>());
        audit_metrics(&path)
    };
    let shape = |grads, calls, terms| {
        [
            ("grad_evals", grads),
            ("exp_calls", calls),
            ("exp_terms", terms),
        ]
    };
    // 440 gradients of 2151 pins, 41 % elided.
    let terms = 4 * 2151 * 440;
    audit("good.jsonl", &shape(440, 2_228_160, terms)).expect("the golden run's shape passes");
    // Terms named by 200 value-only evaluations beside the gradients: no
    // counter accounts for them, with or without a `value_evals` line.
    let old_terms = 4 * 2151 * 640;
    let old = [
        &shape(440, 3_240_960, old_terms)[..],
        &[("value_evals", 200)],
    ]
    .concat();
    let report = audit("old.jsonl", &old).expect_err("value-only evaluations name no terms");
    assert!(
        report.violations.iter().any(|v| v.check == "wa-counters"),
        "old.jsonl: {report}"
    );
    for (name, bad) in [
        // More calls than Eq. (2) has exponentials.
        ("calls.jsonl", shape(440, terms + 1, terms)),
        // A term count no whole number of pins per evaluation makes.
        ("terms.jsonl", shape(440, 2_228_160, terms + 4)),
        ("evals.jsonl", shape(441, 2_228_160, terms)),
        ("none.jsonl", shape(0, 0, 8)),
        // The old file's terms without the evaluations that named them.
        ("unnamed.jsonl", shape(440, 3_240_960, old_terms)),
    ] {
        let report = audit(name, &bad).expect_err("impossible WA counters must be caught");
        assert!(
            report.violations.iter().any(|v| v.check == "wa-counters"),
            "{name}: {report}"
        );
    }
}

#[test]
fn impossible_route_counters_are_detected() {
    let dir = tmp_dir("route-counters");
    let audit = |name: &str, [segments, rounds, reroutes, kept, reused, pops, pushes]: [u64; 7]| {
        let line = format!(
            r#"{{"t":"route.done","elapsed_s":0.4,"hof_pct":1.85,"vof_pct":0.84,"wirelength":302912.9,"overflow_gcells":163,"rounds":{rounds},"segments":{segments},"reroutes":{reroutes},"reroutes_kept":{kept},"reroutes_reused":{reused},"maze_pops":{pops},"maze_pushes":{pushes}}}"#
        );
        let path = dir.join(name);
        write_lines(&path, &[&line]);
        audit_metrics(&path)
    };
    // MEDIA_SUBSYS as the repo benchmark routes it.
    let real = [34_386, 12, 194_670, 192_251, 147_090, 3_236_660, 5_332_652];
    audit("good.jsonl", real).expect("a real run passes");
    audit("clean.jsonl", [34_386, 0, 0, 0, 0, 0, 0]).expect("no overflow, no search");
    for (name, bad) in [
        // More reroutes than one per segment per round.
        (
            "reroutes.jsonl",
            [34_386, 12, 34_386 * 12 + 1, 0, 0, 3_236_660, 5_332_652],
        ),
        ("no-rounds.jsonl", [34_386, 0, 1, 0, 0, 0, 1]),
        // More kept paths than reroutes.
        (
            "kept.jsonl",
            [34_386, 12, 194_670, 194_671, 147_090, 3_236_660, 5_332_652],
        ),
        // More skipped searches than kept paths.
        (
            "reused.jsonl",
            [34_386, 12, 194_670, 192_251, 192_252, 3_236_660, 5_332_652],
        ),
        // More pops than the heap ever held.
        (
            "pops.jsonl",
            [34_386, 12, 194_670, 0, 0, 5_332_653, 5_332_652],
        ),
    ] {
        let report = audit(name, bad).expect_err("impossible route counters must be caught");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.check == "route-counters"),
            "{name}: {report}"
        );
    }
    // A record without the search counters is one no router writes.
    let old = dir.join("old.jsonl");
    write_lines(
        &old,
        &[
            r#"{"t":"route.done","elapsed_s":0.4,"hof_pct":1.85,"vof_pct":0.84,"wirelength":302912.9,"overflow_gcells":163,"rounds":12}"#,
        ],
    );
    let report = audit_metrics(&old).expect_err("a route.done without its counters");
    assert!(
        report.violations.iter().any(|v| v.check == "route-counters"
            && v.message
                .contains("lacks segments, reroutes, reroutes_kept")),
        "{report}"
    );
}

#[test]
fn impossible_lane_counts_are_detected() {
    let dir = tmp_dir("lane-counts");
    let audit = |name: &str, halves: &str, wa: &str| {
        let line = format!(
            r#"{{"t":"flow.init","elapsed_s":0.01,"scale_class":"small","cells":12703,"congest_coarsen":1,"gp_halves":{halves},"lanes_wa":{wa},"lanes_scatter":1,"lanes_transform":1,"lanes_gather":2}}"#
        );
        let path = dir.join(name);
        write_lines(&path, &[&line]);
        audit_metrics(&path)
    };
    audit("good.jsonl", "2", "2").expect("a real run passes");
    for (name, halves, wa) in [
        ("zero.jsonl", "1", "0"),
        ("half.jsonl", "1", "1.5"),
        ("many.jsonl", "1", "33"),
        ("three-halves.jsonl", "3", "1"),
    ] {
        let report = audit(name, halves, wa).expect_err("an impossible lane count must be caught");
        assert!(
            report.violations.iter().any(|v| v.check == "flow-init"),
            "{name}: {report}"
        );
    }
    // Every flow writes its halves and lanes: a record without them is
    // flagged once per missing field.
    let bare = dir.join("bare.jsonl");
    write_lines(
        &bare,
        &[
            r#"{"t":"flow.init","elapsed_s":0.01,"scale_class":"small","cells":12703,"congest_coarsen":1}"#,
        ],
    );
    let report = audit_metrics(&bare).expect_err("a flow.init without lane fields");
    let missing = report
        .violations
        .iter()
        .filter(|v| v.check == "flow-init" && v.message.contains("(missing)"))
        .count();
    assert_eq!(missing, 5, "{report}");
}

// ---------------------------------------------------------------------------
// Journal corruptions and cross-file consistency
// ---------------------------------------------------------------------------

#[test]
fn truncated_journal_fails_the_run_audit() {
    let dir = tmp_dir("truncated-journal");
    let d = small_design();
    let mut config = PufferConfig::default();
    config.placer.max_iters = 60;
    config.strategy.max_rounds = 1;

    let journal = dir.join("run.pj");
    let metrics = dir.join("run.jsonl");
    let trace = puffer_trace::Trace::with_sink(&metrics).unwrap();
    Job::new(config)
        .with_trace(trace)
        .with_checkpoints(CheckpointPolicy::new(journal.clone()))
        .run(&d)
        .expect("place");

    // The intact pair is consistent.
    audit_run(&journal, &metrics).expect("intact run must audit clean");

    // Cut the journal mid-file: the audit must report a parse violation
    // rather than succeed or abort.
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, &text[..text.len() / 2]).unwrap();
    let report = audit_run(&journal, &metrics).expect_err("truncation must be caught");
    assert!(
        report.violations.iter().any(|v| v.check == "journal-parse"),
        "got: {report}"
    );
}
