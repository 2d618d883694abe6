//! Placer shootout: the Table II experiment in miniature — PUFFER vs the
//! commercial-style reference flow vs the RePlAce-style baseline on one
//! congested benchmark, all judged by the same global router.
//!
//! ```text
//! cargo run --release --example placer_shootout [scale]
//! ```
//!
//! The optional positional argument scales the benchmark (default 0.01 =
//! ~12K cells for MEDIA_SUBSYS; the full Table II harness lives in
//! `cargo run -p puffer-bench --bin table2`).

use puffer::{evaluate_bounded, ComparisonTable, EvalRow, Flow};
use puffer_budget::Budget;
use puffer_gen::{generate, presets};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.01);
    let design = generate(&presets::by_name("media_subsys", scale)?.expect("preset exists"))?;
    println!(
        "benchmark {} at scale {scale}: {} cells, {} nets\n",
        design.name(),
        design.stats().movable_cells,
        design.stats().nets
    );

    let mut table = ComparisonTable::new();
    let mut add =
        |flow: &str, result: puffer::FlowResult| -> Result<(), puffer_route::RouteError> {
            let report = evaluate_bounded(
                &design,
                &result.placement,
                &RouterConfig::default(),
                &Budget::unbounded(),
                &Trace::disabled(),
            )?;
            println!(
                "{flow:<16}: HOF {:>5.2}% VOF {:>5.2}% WL {:>9.0} RT {:>6.1}s",
                report.hof_pct, report.vof_pct, report.wirelength, result.runtime_s
            );
            table.push(EvalRow {
                benchmark: design.name().to_string(),
                flow: flow.to_string(),
                hof_pct: report.hof_pct,
                vof_pct: report.vof_pct,
                wirelength: report.wirelength,
                runtime_s: result.runtime_s,
            });
            Ok(())
        };

    for flow in Flow::TABLE2 {
        add(flow.label(), flow.job(None, None).run(&design)?)?;
    }

    println!("\n{}", table.render(Flow::Puffer.label()));
    Ok(())
}
