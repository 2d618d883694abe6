//! Regenerates **Table II**: HOF/VOF/WL/RT of the three placement flows on
//! the benchmark suite, with the paper's averaging and pass-count rows.
//!
//! ```text
//! cargo run -p puffer-bench --release --bin table2 \
//!     [--scale 0.01] [--designs or1200,media_subsys] [--out target/paper]
//! ```
//!
//! Every flow is judged by the same global router (the Innovus-GR
//! substitute). WL and RT averages are ratios normalized against PUFFER,
//! exactly as in the paper; HOF/VOF averages are plain means. Expect the
//! *shape* of the paper's table, not its absolute numbers (see
//! EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    reason = "harness binary: aborting with a message is its error path"
)]

use puffer::{ComparisonTable, Flow};
use puffer_bench::{generate_logged, run_flow, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(0.01);
    let out_dir = args.ensure_out_dir().clone();

    let mut table = ComparisonTable::new();
    for config in args.configs() {
        let design = generate_logged(&config);
        for flow in Flow::TABLE2 {
            eprintln!("[run] {} / {}", design.name(), flow.label());
            let (row, _) = run_flow(&design, flow);
            eprintln!(
                "[run] {} / {}: HOF {:.2}% VOF {:.2}% WL {:.0} RT {:.1}s",
                row.benchmark, row.flow, row.hof_pct, row.vof_pct, row.wirelength, row.runtime_s
            );
            table.push(row);
        }
    }

    println!(
        "\nTable II — comparison on the benchmark suite (scale {}):\n",
        args.scale
    );
    println!("{}", table.render(Flow::Puffer.label()));

    let csv_path = out_dir.join("table2.csv");
    puffer_budget::fsx::atomic_write(&csv_path, table.to_csv().as_bytes())
        .expect("write table2.csv");
    eprintln!("wrote {}", csv_path.display());

    // Headline claims, PUFFER vs each baseline.
    let [reference, replace, puffer] = Flow::TABLE2.map(|f| table.summarize(f.label(), "PUFFER"));
    if let (Some(puffer), Some(reference), Some(replace)) = (puffer, reference, replace) {
        println!("Headline (paper: 2.7x / 1.4x speedups, best average HOF+VOF):");
        println!(
            "  speedup vs {:<15}: {:.2}x   (their avg HOF {:.3}, VOF {:.3})",
            reference.flow, reference.rt_ratio, reference.avg_hof, reference.avg_vof
        );
        println!(
            "  speedup vs {:<15}: {:.2}x   (their avg HOF {:.3}, VOF {:.3})",
            replace.flow, replace.rt_ratio, replace.avg_hof, replace.avg_vof
        );
        println!(
            "  PUFFER avg HOF {:.3}, VOF {:.3}, pass {}/{} (H) {}/{} (V)",
            puffer.avg_hof,
            puffer.avg_vof,
            puffer.pass_h,
            puffer.count,
            puffer.pass_v,
            puffer.count
        );
    }
}
