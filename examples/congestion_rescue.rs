//! Congestion rescue: the workload the paper's introduction motivates — a
//! design with a severe routing hotspot that a plain wirelength-driven
//! placement cannot route, rescued by PUFFER's cell padding.
//!
//! The example places the same hotspot design twice (with the routability
//! optimizer disabled and enabled), routes both, and prints side-by-side
//! congestion heatmaps so the padding's effect is visible — the ASCII
//! analogue of the paper's Fig. 5.
//!
//! ```text
//! cargo run --release --example congestion_rescue
//! ```

use puffer::{evaluate_bounded, Job, PufferConfig};
use puffer_budget::Budget;
use puffer_gen::{generate, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately nasty design: high utilization, strong hotspot.
    let design = generate(&GeneratorConfig {
        name: "hotspot".into(),
        num_cells: 4000,
        num_nets: 4400,
        num_macros: 3,
        utilization: 0.82,
        hotspot: 0.9,
        ..GeneratorConfig::default()
    })?;
    println!(
        "design '{}': {} cells, utilization {:.2}, hotspot logic in one corner\n",
        design.name(),
        design.stats().movable_cells,
        design.utilization()
    );

    // Evaluation runs at default router settings, unbounded and untraced.
    let (router, unbounded, untraced) = (
        RouterConfig::default(),
        Budget::unbounded(),
        Trace::disabled(),
    );

    // --- wirelength-driven placement only (padding off) -------------------
    let mut plain_cfg = PufferConfig::default();
    plain_cfg.strategy.max_rounds = 0; // routability optimizer never fires
    let plain = Job::new(plain_cfg).run(&design)?;
    let plain_report = evaluate_bounded(&design, &plain.placement, &router, &unbounded, &untraced)?;

    // --- the full PUFFER flow ---------------------------------------------
    let puffer = Job::new(PufferConfig::default()).run(&design)?;
    let puffer_report =
        evaluate_bounded(&design, &puffer.placement, &router, &unbounded, &untraced)?;

    println!(
        "wirelength-driven : HOF {:>5.2}% VOF {:>5.2}% WL {:>9.0}  ({})",
        plain_report.hof_pct,
        plain_report.vof_pct,
        plain_report.wirelength,
        if plain_report.passes() {
            "PASS"
        } else {
            "FAIL"
        },
    );
    println!(
        "PUFFER            : HOF {:>5.2}% VOF {:>5.2}% WL {:>9.0}  ({}, {} padding rounds)\n",
        puffer_report.hof_pct,
        puffer_report.vof_pct,
        puffer_report.wirelength,
        if puffer_report.passes() {
            "PASS"
        } else {
            "FAIL"
        },
        puffer.pad_rounds,
    );

    println!("horizontal congestion, wirelength-driven:");
    println!("{}", plain_report.congestion.render_ascii(true));
    println!("horizontal congestion, PUFFER:");
    println!("{}", puffer_report.congestion.render_ascii(true));

    let improvement = (plain_report.hof_pct + plain_report.vof_pct)
        - (puffer_report.hof_pct + puffer_report.vof_pct);
    println!("total overflow improvement: {improvement:.2} percentage points");
    Ok(())
}
