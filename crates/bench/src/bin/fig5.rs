//! Regenerates **Fig. 5**: horizontal and vertical congestion maps of
//! MEDIA_SUBSYS for the three placement flows, as reported by the shared
//! global router.
//!
//! ```text
//! cargo run -p puffer-bench --release --bin fig5 [--scale 0.01] [--out target/paper]
//! ```
//!
//! For each flow the binary writes `fig5_<flow>_{h,v}.csv` (per-Gcell
//! utilisation grids) to the output directory and prints ASCII heatmaps —
//! the darker the glyph, the higher demand/capacity, mirroring the paper's
//! red zones.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    reason = "harness binary: aborting with a message is its error path"
)]

use puffer::Flow;
use puffer_bench::{generate_logged, run_flow, HarnessArgs};

fn main() {
    let mut args = HarnessArgs::parse(0.01);
    if args.designs.is_none() {
        args.designs = Some(vec!["media_subsys".into()]);
    }
    let out_dir = args.ensure_out_dir().clone();

    for config in args.configs() {
        let design = generate_logged(&config);
        for flow in Flow::TABLE2 {
            eprintln!("[run] {} / {}", design.name(), flow.label());
            let (_, report) = run_flow(&design, flow);
            let tag = flow.label().to_lowercase().replace(['-', '_'], "");
            for (horizontal, suffix) in [(true, "h"), (false, "v")] {
                let stem = format!("fig5_{}_{}_{}", design.name().to_lowercase(), tag, suffix);
                let csv_path = out_dir.join(format!("{stem}.csv"));
                puffer_budget::fsx::atomic_write(
                    &csv_path,
                    report.congestion.to_csv(horizontal).as_bytes(),
                )
                .expect("write congestion csv");
                let pgm_path = out_dir.join(format!("{stem}.pgm"));
                puffer_budget::fsx::atomic_write(&pgm_path, &report.congestion.to_pgm(horizontal))
                    .expect("write congestion pgm");
                eprintln!("wrote {} (+ .pgm)", csv_path.display());
            }
            println!(
                "\n=== {} / {} — HOF {:.2}% VOF {:.2}% ===",
                design.name(),
                flow.label(),
                report.hof_pct,
                report.vof_pct
            );
            println!("horizontal congestion:");
            println!("{}", report.congestion.render_ascii(true));
            println!("vertical congestion:");
            println!("{}", report.congestion.render_ascii(false));
        }
    }
}
