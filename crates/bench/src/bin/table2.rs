//! Regenerates **Table II**: HOF/VOF/WL/RT of the three placement flows on
//! the benchmark suite, with the paper's averaging and pass-count rows.
//!
//! ```text
//! cargo run -p puffer-bench --release --bin table2 -- \
//!     [--scale 0.01] [--designs or1200,media_subsys] [--out target/paper] \
//!     [--json BENCH_table2.json]
//! ```
//!
//! A row whose GP loop stopped at the flow's iteration cap is not a
//! converged result: a `capped:` line under the table names it, and the
//! ledger marks it `"capped":true`.
//!
//! `--json` also writes the rows as a ledger ([`puffer_bench::table2_json`])
//! whose `command` names the flags that shape the rows and the ledger's
//! file name alone ([`puffer_bench::HarnessArgs::ledger_command`]).
//! The repository commits the one of `--scale 0.003` as `BENCH_table2.json`,
//! and `scripts/ci.sh` re-runs it and requires the same HOF, VOF and WL
//! (RT is recorded, not compared), and no capped PUFFER row: a change that
//! moves a Table II quality bit re-renders the file, so its diff is the
//! change's Table II movement.
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
use puffer_bench::{evaluate, generate_logged, place, table2_json, HarnessArgs, LedgerRow};

fn main() {
    let args = HarnessArgs::parse_ledger(0.01);
    let out_dir = args.ensure_out_dir().clone();

    let mut table = ComparisonTable::new();
    let mut ledger = Vec::new();
    for config in args.configs() {
        let design = generate_logged(&config);
        for flow in Flow::TABLE2 {
            eprintln!("[run] {} / {}", design.name(), flow.label());
            let result = place(&design, flow);
            let (row, _) = evaluate(&design, flow.label(), &result);
            eprintln!(
                "[run] {} / {}: HOF {:.2}% VOF {:.2}% WL {:.0} RT {:.1}s",
                row.benchmark, row.flow, row.hof_pct, row.vof_pct, row.wirelength, row.runtime_s
            );
            ledger.push(LedgerRow {
                row: row.clone(),
                gp_iterations: result.gp_iterations,
                pad_rounds: result.pad_rounds,
                capped: result.gp_iterations >= flow.max_iters(),
            });
            table.push(row);
        }
    }

    println!(
        "\nTable II — comparison on the benchmark suite (scale {}):\n",
        args.scale
    );
    println!("{}", table.render(Flow::Puffer.label()));
    for r in ledger.iter().filter(|r| r.capped) {
        println!(
            "capped: {} / {} stopped at its {}-iteration GP cap, not at its stop overflow",
            r.row.benchmark, r.row.flow, r.gp_iterations
        );
    }

    let csv_path = out_dir.join("table2.csv");
    puffer_budget::fsx::atomic_write(&csv_path, table.to_csv().as_bytes())
        .expect("write table2.csv");
    eprintln!("wrote {}", csv_path.display());
    if let Some(json_path) = &args.json {
        let text = table2_json(&args.ledger_command(), args.scale, &ledger);
        puffer_budget::fsx::atomic_write(json_path, text.as_bytes()).expect("write the ledger");
        eprintln!("wrote {}", json_path.display());
    }

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
