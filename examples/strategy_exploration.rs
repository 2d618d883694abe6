//! Strategy exploration (paper §III-C): tune the padding strategy on a
//! small congested design with SMBO/TPE, then compare the tuned strategy
//! against the defaults.
//!
//! The paper's protocol is followed: tune on a *small* design with the
//! routability problem (cheap evaluations), then apply the result. The
//! exploration here uses a deliberately tiny budget so the example runs in
//! a couple of minutes; the `explore` harness binary runs the full
//! Algorithm 3 with grouped parallel refinement.
//!
//! ```text
//! cargo run --release --example strategy_exploration
//! ```

use puffer::{evaluate_bounded, strategy_space, tuned_strategy, Job, PufferConfig};
use puffer_budget::Budget;
use puffer_explore::{explore_params_bounded, ExplorationConfig};
use puffer_gen::{generate, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = generate(&GeneratorConfig {
        name: "tuning_target".into(),
        num_cells: 1200,
        num_nets: 1350,
        num_macros: 2,
        utilization: 0.83,
        hotspot: 0.9,
        ..GeneratorConfig::default()
    })?;
    println!(
        "tuning on '{}' ({} cells, utilization {:.2})",
        design.name(),
        design.stats().movable_cells,
        design.utilization()
    );

    let space = strategy_space();
    // Evaluation runs at default router settings, unbounded and untraced.
    let (router, unbounded, untraced) = (
        RouterConfig::default(),
        Budget::unbounded(),
        Trace::disabled(),
    );

    // Objective (paper §III-C): total overflow ratio of both directions,
    // evaluated by placement + global routing.
    let mut evals = 0usize;
    let objective = |values: &[f64]| -> f64 {
        let mut cfg = PufferConfig {
            strategy: tuned_strategy(&space, values),
            ..PufferConfig::default()
        };
        cfg.placer.max_iters = 200; // reduced budget for tuning
        cfg.placer.stop_overflow = 0.10;
        let Ok(result) = Job::new(cfg).run(&design) else {
            return f64::INFINITY;
        };
        evaluate_bounded(&design, &result.placement, &router, &unbounded, &untraced)
            .map_or(f64::INFINITY, |report| report.hof_pct + report.vof_pct)
    };

    let outcome = explore_params_bounded(
        &space,
        |v| {
            evals += 1;
            let score = objective(v);
            println!("  eval {evals:>2}: HOF+VOF = {score:.3}");
            score
        },
        &ExplorationConfig {
            max_evals: 14,
            early_stop: 14,
        },
        &untraced,
        &unbounded,
    )
    .expect("exploration failed");
    println!(
        "\nexploration done after {} evaluations; best HOF+VOF {:.3}",
        outcome.evals, outcome.best_value
    );

    // Compare default vs tuned at the full placement budget.
    let default_flow = Job::new(PufferConfig::default()).run(&design)?;
    let default_report = evaluate_bounded(
        &design,
        &default_flow.placement,
        &router,
        &unbounded,
        &untraced,
    )?;
    let tuned_cfg = PufferConfig {
        strategy: tuned_strategy(&space, &outcome.best),
        ..PufferConfig::default()
    };
    let tuned_flow = Job::new(tuned_cfg).run(&design)?;
    let tuned_report = evaluate_bounded(
        &design,
        &tuned_flow.placement,
        &router,
        &unbounded,
        &untraced,
    )?;

    println!("\nat full placement budget:");
    println!(
        "  default strategy: HOF {:.2}% VOF {:.2}% (sum {:.2})",
        default_report.hof_pct,
        default_report.vof_pct,
        default_report.hof_pct + default_report.vof_pct
    );
    println!(
        "  tuned strategy  : HOF {:.2}% VOF {:.2}% (sum {:.2})",
        tuned_report.hof_pct,
        tuned_report.vof_pct,
        tuned_report.hof_pct + tuned_report.vof_pct
    );
    println!("\ntuned parameters (best observed):");
    for (p, v) in space.params().iter().zip(&outcome.best) {
        println!("  {:<12} = {v:.4}", p.name);
    }
    Ok(())
}
