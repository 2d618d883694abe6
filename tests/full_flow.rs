//! End-to-end integration: generator → PUFFER flow → legality → router.
//! Every `FlowResult` produced here also goes through the independent
//! oracles of `oracle/mod.rs`.

mod oracle;

use puffer::{
    evaluate_bounded, Baseline, CheckpointPolicy, Flow, FlowCheckpoint, Job, PufferConfig,
};
use puffer_budget::{Budget, DegradeStep};
use puffer_congest::CongestionEstimator;
use puffer_db::geom::Point;
use puffer_gen::{generate, presets, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn quick_config() -> PufferConfig {
    let mut c = PufferConfig::default();
    c.placer.max_iters = 150;
    c.placer.stop_overflow = 0.15;
    c.strategy.tau = 0.30;
    c.strategy.max_rounds = 3;
    c
}

#[test]
fn preset_benchmark_places_and_routes() {
    let design = generate(&presets::or1200(0.002).expect("preset")).expect("generate");
    let result = Job::new(quick_config()).run(&design).expect("place");
    // Physical legality and the reported HPWL, by library and by oracle.
    oracle::assert_flow_result(&design, &result);
    // Routable with finite metrics.
    let report = evaluate_bounded(
        &design,
        &result.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route");
    oracle::assert_route_report(&design, &report);
    assert!(report.hof_pct.is_finite() && report.vof_pct.is_finite());
    assert!(report.wirelength > 0.0);
}

#[test]
fn flow_moves_cells_off_the_initial_cluster() {
    let design = generate(&GeneratorConfig {
        num_cells: 300,
        num_nets: 330,
        num_macros: 1,
        utilization: 0.6,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let initial = design.initial_placement();
    let result = Job::new(quick_config()).run(&design).expect("place");
    oracle::assert_flow_result(&design, &result);
    // Spreading must actually have happened.
    let moved = design
        .netlist()
        .movable_cells()
        .filter(|&id| initial.pos(id).l1_distance(result.placement.pos(id)) > 1.0)
        .count();
    assert!(
        moved > design.stats().movable_cells / 2,
        "only {moved} cells moved"
    );
}

#[test]
fn global_placement_density_is_bounded() {
    let design = generate(&GeneratorConfig {
        num_cells: 300,
        num_nets: 330,
        num_macros: 0,
        utilization: 0.6,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let result = Job::new(quick_config()).run(&design).expect("place");
    oracle::assert_flow_result(&design, &result);
    assert!(
        result.final_overflow <= 0.16,
        "global placement did not converge: overflow {}",
        result.final_overflow
    );
    // The legal placement's raw density must also be near target.
    let model = puffer_place::DensityModel::new(&design, 64, 64);
    let widths: Vec<f64> = design.netlist().cells().iter().map(|c| c.width).collect();
    let eval = model.evaluate_threaded(design.netlist(), &result.placement, &widths, 1.0, 1);
    assert!(
        eval.overflow < 0.35,
        "legal density overflow {}",
        eval.overflow
    );
}

#[test]
fn padding_area_respects_legal_budget() {
    let design = generate(&GeneratorConfig {
        num_cells: 400,
        num_nets: 440,
        num_macros: 1,
        utilization: 0.75,
        hotspot: 0.8,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let mut cfg = quick_config();
    cfg.strategy.legal_budget = 0.05;
    let result = Job::new(cfg).run(&design).expect("place");
    // Implicit: legalization succeeded with the 5% cap. The padded rows in
    // the legal placement must not overlap even with padding reapplied by
    // the checker if we reconstruct zero padding (physical check).
    oracle::assert_flow_result(&design, &result);
    assert!(result.hpwl > 0.0);
}

/// The comparison flows in the one GP loop of `Job`, as `puffer place
/// --flow reference|replace --max-iters N` runs them through `Flow::job`,
/// plus the white-space-allocation ablation that shares the loop.
#[test]
fn comparison_flows_pass_the_independent_oracles() {
    let design = generate(&GeneratorConfig {
        num_cells: 300,
        num_nets: 330,
        num_macros: 2,
        utilization: 0.6,
        hotspot: 0.5,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    const MAX_ITERS: usize = 120;
    for flow in [Baseline::Reference, Baseline::Replace, Baseline::Wsa].map(Flow::Baseline) {
        let name = flow.name();
        let result = flow
            .job(Some(MAX_ITERS), None)
            .run(&design)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        oracle::assert_flow_result(&design, &result);
        // The router that judges the flows (and that `reference` runs
        // inside its loop) answers to its own oracle on each result.
        let report = evaluate_bounded(
            &design,
            &result.placement,
            &RouterConfig::default(),
            &Budget::unbounded(),
            &Trace::disabled(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        oracle::assert_route_report(&design, &report);
    }
}

/// The oracle is not vacuous: each way of breaking a legal placement is
/// caught by it, and `check_legal` agrees on every one.
#[test]
fn oracle_and_check_legal_reject_the_same_broken_placements() {
    let design = generate(&GeneratorConfig {
        num_cells: 300,
        num_nets: 330,
        num_macros: 1,
        utilization: 0.6,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let result = Job::new(quick_config()).run(&design).expect("place");
    oracle::assert_flow_result(&design, &result);

    let nl = design.netlist();
    let mut movable = nl.movable_cells();
    let (a, b) = (movable.next().expect("cell"), movable.next().expect("cell"));
    let pos = |id| result.placement.pos(id);
    let half_w = |id| nl.cell(id).width / 2.0;
    let site = design.tech().site_width;
    let row_h = design.tech().row_height;
    // A legal-looking spot (on a row, on the site grid) under the macro,
    // so only the macro rule can object.
    let (_, macro_shape) = design.macro_shapes()[0];
    let row = design
        .rows()
        .iter()
        .find(|r| r.y >= macro_shape.yl && r.y + row_h <= macro_shape.yh)
        .expect("a row under the macro");
    let macro_mid = (macro_shape.xl + macro_shape.xh) / 2.0;
    let left = row.x_min + ((macro_mid - row.x_min) / site).floor() * site;
    let broken = [
        // Left edges coincide, so `a` stays on the site grid.
        (
            "overlap",
            Point::new(pos(b).x - half_w(b) + half_w(a), pos(b).y),
        ),
        ("site grid", Point::new(pos(a).x + site / 2.0, pos(a).y)),
        ("no row", Point::new(pos(a).x, pos(a).y + row_h / 2.0)),
        (
            "leaves the die",
            Point::new(design.region().xh + 10.0 * site, pos(a).y),
        ),
        ("macro", Point::new(left + half_w(a), row.y + row_h / 2.0)),
    ];
    let zeros = vec![0u32; nl.num_cells()];
    for (rule, at) in broken {
        let mut placement = result.placement.clone();
        placement.set(a, at);
        let err = oracle::brute_force_legal(&design, &placement).expect_err(rule);
        assert!(err.contains(rule), "expected the '{rule}' rule, got: {err}");
        assert!(
            puffer_legal::check_legal(&design, &placement, &zeros).is_err(),
            "check_legal missed: {rule}"
        );
    }
}

/// A resumed run re-applies the rungs its journal recorded, even under an
/// unbounded budget that never engages a rung itself: a journaled
/// `coarse-congestion` keeps every later padding round on the coarsened
/// grid, is neither engaged nor traced again, and rides into the result
/// and the next journal, which audits clean against the run's metrics.
#[test]
fn resume_reapplies_a_journaled_coarse_congestion_rung() {
    let design = generate(&GeneratorConfig {
        num_cells: 400,
        num_nets: 450,
        num_macros: 2,
        utilization: 0.6,
        hotspot: 0.5,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let dir = std::env::temp_dir()
        .join("puffer-full-flow")
        .join("resume-rungs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let history = CheckpointPolicy {
        path: dir.join("run.pj"),
        every: 10,
        keep_history: true,
    };
    Job::new(quick_config())
        .with_checkpoints(history)
        .run(&design)
        .expect("place");
    let checkpoint = FlowCheckpoint::load(&dir.join("run.pj.iter000010"))
        .expect("mid-loop journal")
        .with_degradation(vec![DegradeStep::CoarseCongestion]);

    let metrics = dir.join("resumed.jsonl");
    let journal = dir.join("resumed.pj");
    let trace = Trace::with_sink(&metrics).unwrap();
    let r = Job::new(quick_config())
        .with_trace(trace.clone())
        .with_checkpoints(CheckpointPolicy::new(&journal))
        .run_from(&design, checkpoint)
        .expect("resume");
    trace.write_summary();
    trace.flush().unwrap();
    assert_eq!(r.degradation, [DegradeStep::CoarseCongestion]);
    assert!(!r.cancelled);

    let mut estimator = CongestionEstimator::new(&design, quick_config().estimator);
    let fine = estimator.h_capacity().len();
    estimator.coarsen(&design, 2.0);
    let coarse = estimator.h_capacity().len() as f64;
    assert!(coarse < fine as f64);
    let records = puffer_trace::read_jsonl(&metrics).unwrap();
    let gcells: Vec<f64> = records
        .iter()
        .filter(|rec| rec.kind() == Some("congest.round"))
        .map(|rec| match rec.get("h_hist") {
            Some(puffer_trace::Value::Arr(h)) => h.iter().flatten().sum(),
            other => panic!("congest.round without h_hist: {other:?}"),
        })
        .collect();
    assert!(
        !gcells.is_empty(),
        "no padding round fired after the resume point"
    );
    assert!(
        gcells.iter().all(|&g| g == coarse),
        "{gcells:?} vs {coarse} coarsened Gcells"
    );
    assert!(
        records.iter().all(|rec| rec.kind() != Some("flow.degrade")),
        "a journaled rung engaged again"
    );
    assert_eq!(
        FlowCheckpoint::load(&journal).unwrap().degradation,
        [DegradeStep::CoarseCongestion]
    );
    puffer_audit::audit_run(&journal, &metrics).expect("resumed run audits clean");
}
