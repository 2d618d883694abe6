//! Quickstart: generate a small design, place it with PUFFER, legalize,
//! and evaluate routability with the global router.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use puffer::{evaluate_bounded, Job, PufferConfig};
use puffer_budget::Budget;
use puffer_db::hpwl::total_hpwl;
use puffer_gen::{generate, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic design: 3000 cells with a mild congestion hotspot.
    let design = generate(&GeneratorConfig {
        name: "quickstart".into(),
        num_cells: 3000,
        num_nets: 3400,
        num_macros: 4,
        utilization: 0.72,
        hotspot: 0.4,
        ..GeneratorConfig::default()
    })?;
    let stats = design.stats();
    println!(
        "design '{}': {} cells, {} nets, {} pins, {} macros",
        design.name(),
        stats.movable_cells,
        stats.nets,
        stats.movable_pins,
        stats.macros
    );

    // 2. The full PUFFER flow: electrostatic global placement with
    //    interleaved multi-feature cell padding, then white-space-assisted
    //    legalization.
    let result = Job::new(PufferConfig::default()).run(&design)?;
    println!(
        "placed in {:.1}s: {} GP iterations, {} padding rounds, final overflow {:.3}",
        result.runtime_s, result.gp_iterations, result.pad_rounds, result.final_overflow
    );
    println!(
        "legal HPWL: {:.0}",
        total_hpwl(design.netlist(), &result.placement)
    );

    // 3. Judge routability with the global router (the paper's evaluator).
    let report = evaluate_bounded(
        &design,
        &result.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )?;
    println!(
        "routed: HOF {:.2}% VOF {:.2}% WL {:.0} ({} overflowed Gcells, {} rip-up rounds)",
        report.hof_pct, report.vof_pct, report.wirelength, report.overflow_gcells, report.rounds
    );
    println!(
        "1%-criterion: {}",
        if report.passes() { "PASS" } else { "FAIL" }
    );
    Ok(())
}
