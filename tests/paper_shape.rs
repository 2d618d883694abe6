//! Integration: the qualitative claims of the paper's evaluation, checked
//! on small instances (see EXPERIMENTS.md for the full-scale protocol).

mod oracle;

use puffer::{evaluate_bounded, Job, PufferConfig};
use puffer_budget::Budget;
use puffer_db::design::{Design, Placement};
use puffer_gen::{generate, GeneratorConfig};
use puffer_route::{RouteReport, RouterConfig};
use puffer_trace::Trace;

/// A congested benchmark small enough for a non-release test run.
fn congested_design() -> Design {
    generate(&GeneratorConfig {
        name: "congested".into(),
        num_cells: 900,
        num_nets: 1000,
        num_macros: 2,
        utilization: 0.82,
        hotspot: 0.9,
        // Pinned so the instance is congested-but-rescuable: the plain
        // flow overflows and the padded flow both clears it and stays
        // within the wirelength budget, with margin to spare.
        seed: 54,
        ..GeneratorConfig::default()
    })
    .expect("generate")
}

/// The shared evaluator at its defaults: unbounded and untraced; every
/// report is held to the independent routing oracle.
fn route(design: &Design, placement: &Placement) -> RouteReport {
    let report = evaluate_bounded(
        design,
        placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route");
    oracle::assert_route_report(design, &report);
    report
}

fn flow_config(rounds: usize) -> PufferConfig {
    let mut c = PufferConfig::default();
    c.placer.max_iters = 280;
    c.placer.stop_overflow = 0.10;
    c.strategy.max_rounds = rounds;
    c
}

#[test]
fn padding_improves_routability_over_plain_placement() {
    let design = congested_design();
    let plain = Job::new(flow_config(0)).run(&design).expect("plain");
    let padded = Job::new(flow_config(6)).run(&design).expect("padded");
    let plain_report = route(&design, &plain.placement);
    let padded_report = route(&design, &padded.placement);
    let plain_of = plain_report.hof_pct + plain_report.vof_pct;
    let padded_of = padded_report.hof_pct + padded_report.vof_pct;
    assert!(
        padded_of <= plain_of + 1e-9,
        "padding should not hurt routability: {padded_of:.3} vs {plain_of:.3}"
    );
}

#[test]
fn padding_costs_bounded_wirelength() {
    // The paper accepts ~4.5% extra wirelength for routability; allow a
    // loose 15% on the tiny instance.
    let design = congested_design();
    let plain = Job::new(flow_config(0)).run(&design).expect("plain");
    let padded = Job::new(flow_config(6)).run(&design).expect("padded");
    assert!(
        padded.hpwl <= plain.hpwl * 1.15,
        "padding wirelength cost too high: {} vs {}",
        padded.hpwl,
        plain.hpwl
    );
}

#[test]
fn router_and_estimator_agree_on_hotspot_location() {
    // The congestion estimator (§III-A) must point at the same region the
    // router ends up congested in — that is the premise of the whole
    // feedback loop.
    use puffer_congest::{CongestionEstimator, EstimatorConfig};
    let design = congested_design();
    let result = Job::new(flow_config(0)).run(&design).expect("place");
    let est = CongestionEstimator::new(&design, EstimatorConfig::default());
    let est_map = est
        .try_estimate(&design, &result.placement)
        .expect("estimate");
    let route_map = route(&design, &result.placement).congestion;

    // Correlate the top-decile congested Gcells of both maps.
    let nx = est_map.nx().min(route_map.nx());
    let ny = est_map.ny().min(route_map.ny());
    let mut est_scores: Vec<((usize, usize), f64)> = Vec::new();
    let mut route_scores: Vec<((usize, usize), f64)> = Vec::new();
    for iy in 0..ny {
        for ix in 0..nx {
            est_scores.push(((ix, iy), est_map.cg(ix, iy)));
            route_scores.push(((ix, iy), route_map.cg(ix, iy)));
        }
    }
    est_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    route_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    let k = (nx * ny / 10).max(4);
    let est_top: std::collections::HashSet<_> = est_scores[..k].iter().map(|(c, _)| *c).collect();
    let route_top: std::collections::HashSet<_> =
        route_scores[..k].iter().map(|(c, _)| *c).collect();
    let overlap = est_top.intersection(&route_top).count();
    // Random agreement would be ~k/10; demand substantially better.
    assert!(
        overlap * 3 >= k,
        "estimator and router disagree: {overlap}/{k} top Gcells shared"
    );
}

#[test]
fn evaluator_is_shared_and_deterministic_across_flows() {
    let design = congested_design();
    let result = Job::new(flow_config(3)).run(&design).expect("place");
    let a = route(&design, &result.placement);
    let b = route(&design, &result.placement);
    assert_eq!(a.hof_pct, b.hof_pct);
    assert_eq!(a.wirelength, b.wirelength);
}
