//! Detailed placement after the PUFFER flow: recover wirelength without
//! undoing the padding's congestion relief.
//!
//! Runs the full PUFFER flow, then refines the legal placement twice — once
//! plain, once with the routability guard that forbids moves into Gcells
//! more overflowed than the source — and routes all three placements.
//!
//! ```text
//! cargo run --release --example detailed_refine
//! ```

use puffer::{evaluate_bounded, Job, PufferConfig};
use puffer_budget::Budget;
use puffer_dp::{refine_bounded, DetailedConfig};
use puffer_gen::{generate, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = generate(&GeneratorConfig {
        name: "dp_demo".into(),
        num_cells: 3000,
        num_nets: 3400,
        num_macros: 3,
        utilization: 0.78,
        hotspot: 0.7,
        ..GeneratorConfig::default()
    })?;
    // Evaluation runs at default router settings, unbounded and untraced.
    let (router, unbounded, untraced) = (
        RouterConfig::default(),
        Budget::unbounded(),
        Trace::disabled(),
    );
    let flow = Job::new(PufferConfig::default()).run(&design)?;
    let base = evaluate_bounded(&design, &flow.placement, &router, &unbounded, &untraced)?;
    println!(
        "after PUFFER     : HPWL {:>9.0}  HOF {:>5.2}% VOF {:>5.2}%",
        flow.hpwl, base.hof_pct, base.vof_pct
    );

    // Detailed placement operates on the unpadded legal placement here
    // (the flow strips padding after legalization), so footprints are the
    // physical cells.
    let zeros = vec![0u32; design.netlist().num_cells()];

    let dp = DetailedConfig::default();
    let plain = refine_bounded(&design, &flow.placement, &zeros, &dp, None, &unbounded)?;
    let plain_route = evaluate_bounded(&design, &plain.placement, &router, &unbounded, &untraced)?;
    println!(
        "+ detailed (plain): HPWL {:>9.0}  HOF {:>5.2}% VOF {:>5.2}%  ({} moves)",
        plain.hpwl_after, plain_route.hof_pct, plain_route.vof_pct, plain.moves
    );

    let guarded = refine_bounded(
        &design,
        &flow.placement,
        &zeros,
        &dp,
        Some(&base.congestion),
        &unbounded,
    )?;
    let guarded_route =
        evaluate_bounded(&design, &guarded.placement, &router, &unbounded, &untraced)?;
    println!(
        "+ detailed (guard): HPWL {:>9.0}  HOF {:>5.2}% VOF {:>5.2}%  ({} moves)",
        guarded.hpwl_after, guarded_route.hof_pct, guarded_route.vof_pct, guarded.moves
    );

    println!(
        "\nwirelength recovered: plain {:.2}%, guarded {:.2}%",
        100.0 * (1.0 - plain.hpwl_after / plain.hpwl_before),
        100.0 * (1.0 - guarded.hpwl_after / guarded.hpwl_before),
    );
    Ok(())
}
