//! Regenerates **Table I**: statistics of the benchmarks.
//!
//! ```text
//! cargo run -p puffer-bench --release --bin table1 [--scale 0.02]
//! ```
//!
//! Prints #Macros / #Cells / #Nets / #Pins per design in the paper's
//! format (`K` counts) and writes `table1.csv` to the output directory.

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    reason = "harness binary: aborting with a message is its error path"
)]

use puffer_bench::{generate_logged, HarnessArgs};
use puffer_db::stats::format_k;
use std::fmt::Write as _;

fn main() {
    let args = HarnessArgs::parse(0.02);
    let out_dir = args.ensure_out_dir().clone();

    println!(
        "Table I — statistics of the benchmarks (scale {}):\n",
        args.scale
    );
    println!(
        "{:<18} {:>8} {:>9} {:>9} {:>9}",
        "Benchmark", "#Macros", "#Cells", "#Nets", "#Pins"
    );
    let mut csv = String::from("benchmark,macros,cells,nets,pins\n");
    for config in args.configs() {
        let design = generate_logged(&config);
        let s = design.stats();
        println!(
            "{:<18} {:>8} {:>9} {:>9} {:>9}",
            design.name(),
            s.macros,
            format_k(s.movable_cells),
            format_k(s.nets),
            format_k(s.movable_pins)
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{}",
            design.name(),
            s.macros,
            s.movable_cells,
            s.nets,
            s.movable_pins
        );
    }
    let path = out_dir.join("table1.csv");
    puffer_budget::fsx::atomic_write(&path, csv.as_bytes()).expect("write table1.csv");
    eprintln!("\nwrote {}", path.display());
}
