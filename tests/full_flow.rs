//! End-to-end integration: generator → PUFFER flow → legality → router.

use puffer::{evaluate_bounded, Job, PufferConfig, StageObserver, StagePoint};
use puffer_budget::Budget;
use puffer_congest::CongestionEstimator;
use puffer_gen::{generate, presets, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;
use std::sync::{Arc, Mutex};

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
    let result = Job::new(quick_config())
        .run(&design)
        .expect("place");
    // Physical legality.
    let zeros = vec![0u32; design.netlist().num_cells()];
    puffer_legal::check_legal(&design, &result.placement, &zeros).expect("legal");
    // Routable with finite metrics.
    let report = evaluate_bounded(
        &design,
        &result.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route");
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
    let result = Job::new(quick_config())
        .run(&design)
        .expect("place");
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
    let result = Job::new(quick_config())
        .run(&design)
        .expect("place");
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
    let zeros = vec![0u32; design.netlist().num_cells()];
    puffer_legal::check_legal(&design, &result.placement, &zeros).expect("legal");
    assert!(result.hpwl > 0.0);
}

#[test]
fn incremental_congestion_is_a_full_rebuild_on_the_flows_own_pad_rounds() {
    // Real dirt, not a synthetic nudge: the placements the flow itself
    // handed its estimator, in order. Walking the dirty-region estimator
    // over them must reproduce a fresh full build bit for bit every round —
    // which is why the flow's journals cannot depend on the reuse.
    let design = generate(&GeneratorConfig {
        num_cells: 500,
        num_nets: 560,
        num_macros: 2,
        utilization: 0.6,
        hotspot: 0.5,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let config = quick_config();
    let rounds = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&rounds);
    let observer = StageObserver::new(move |report| {
        if report.point == StagePoint::PadRound {
            let mut rounds = sink.lock().map_err(|e| e.to_string())?;
            rounds.push(report.placement.clone());
        }
        Ok(())
    });
    let result = Job::new(config.clone())
        .with_observer(observer)
        .run(&design)
        .expect("place");
    let rounds = std::mem::take(&mut *rounds.lock().expect("observer lock"));
    assert_eq!(rounds.len(), result.pad_rounds);
    assert!(rounds.len() >= 2, "need carried state: {} round(s)", rounds.len());

    let mut incremental = CongestionEstimator::new(&design, config.estimator.clone());
    let full = CongestionEstimator::new(&design, config.estimator);
    for (round, placement) in rounds.iter().enumerate() {
        let carried = incremental
            .try_estimate_incremental(&design, placement)
            .expect("incremental estimate");
        let fresh = full.try_estimate(&design, placement).expect("full estimate");
        assert!(carried.bitwise_eq(&fresh), "round {round} diverged");
    }
}
