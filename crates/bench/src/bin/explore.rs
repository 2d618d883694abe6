//! Runs the **§III-C strategy exploration protocol**: tune the padding
//! strategy with SMBO/TPE on a small congested design, then report the
//! configuration to transfer to the large benchmarks.
//!
//! ```text
//! cargo run -p puffer-bench --release --bin explore \
//!     [--scale 0.004] [--designs media_subsys] [--out target/paper]
//! ```
//!
//! The objective is the total overflow ratio of both directions reported
//! by the shared global router (the paper's objective). The exploration
//! uses Algorithm 3: a global TPE pass over all parameters, then grouped
//! local refinement with groups explored on parallel threads.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    reason = "harness binary: aborting with a message is its error path"
)]

use puffer::{evaluate_bounded, strategy_space, tuned_strategy, Job, PufferConfig};
use puffer_bench::{generate_logged, HarnessArgs};
use puffer_budget::Budget;
use puffer_explore::{explore_strategy_traced, ExplorationConfig, StrategyConfig};
use puffer_pad::PaddingStrategy;
use puffer_route::RouterConfig;
use puffer_trace::Trace;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

fn main() {
    let mut args = HarnessArgs::parse(0.004);
    if args.designs.is_none() {
        // The paper tunes on "a small design with the routability problem".
        args.designs = Some(vec!["media_subsys".into()]);
    }
    let out_dir = args.ensure_out_dir().clone();
    let config = args.configs().remove(0);
    let design = generate_logged(&config);

    let space = strategy_space();
    let groups = PaddingStrategy::parameter_groups();
    let evals = AtomicUsize::new(0);

    let objective = |values: &[f64]| -> f64 {
        let mut cfg = PufferConfig {
            strategy: tuned_strategy(&space, values),
            ..PufferConfig::default()
        };
        // Reduced placement budget for tuning evaluations.
        cfg.placer.max_iters = 260;
        cfg.placer.stop_overflow = 0.09;
        let Ok(result) = Job::new(cfg).run(&design) else {
            return f64::INFINITY; // infeasible strategy
        };
        let Ok(report) = evaluate_bounded(
            &design,
            &result.placement,
            &RouterConfig::default(),
            &Budget::unbounded(),
            &Trace::disabled(),
        ) else {
            return f64::INFINITY;
        };
        let score = report.hof_pct + report.vof_pct;
        let n = evals.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("[eval {n}] HOF+VOF = {score:.3}");
        score
    };

    let strategy_cfg = StrategyConfig {
        global: ExplorationConfig {
            max_evals: 24,
            early_stop: 12,
        },
        local: ExplorationConfig {
            max_evals: 8,
            early_stop: 4,
        },
        max_rounds: 1,
        parallel: false, // evaluations already use all cores via the router
    };
    let outcome = explore_strategy_traced(
        &space,
        &groups,
        objective,
        &strategy_cfg,
        &Trace::disabled(),
    )
    .expect("strategy exploration failed");

    println!("\nStrategy exploration finished:");
    println!("  evaluations: {}", outcome.evals);
    println!("  rounds of grouped local exploration: {}", outcome.rounds);
    println!("  best observed HOF+VOF: {:.3}", outcome.best_value);
    println!("\nFinal configuration (range midpoints, §III-C):");
    let mut csv = String::from("parameter,final_midpoint,best_observed\n");
    for (i, p) in space.params().iter().enumerate() {
        println!(
            "  {:<12} = {:>8.4}   (best observed {:>8.4})",
            p.name, outcome.values[i], outcome.best_observed[i]
        );
        let _ = writeln!(
            csv,
            "{},{},{}",
            p.name, outcome.values[i], outcome.best_observed[i]
        );
    }
    let path = out_dir.join("explore.csv");
    puffer_budget::fsx::atomic_write(&path, csv.as_bytes()).expect("write explore.csv");
    eprintln!("\nwrote {}", path.display());

    // Sanity: evaluate the tuned strategy once at full placement budget.
    let cfg = PufferConfig {
        strategy: tuned_strategy(&space, &outcome.best_observed),
        ..PufferConfig::default()
    };
    let result = Job::new(cfg).run(&design).expect("tuned flow failed");
    let report = evaluate_bounded(
        &design,
        &result.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route evaluation failed");
    println!(
        "\nTuned strategy at full budget on {}: HOF {:.2}% VOF {:.2}% WL {:.0}",
        design.name(),
        report.hof_pct,
        report.vof_pct,
        report.wirelength
    );
}
