//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table I — benchmark statistics |
//! | `table2` | Table II — HOF/VOF/WL/RT comparison of the three flows |
//! | `fig5` | Fig. 5 — congestion maps for MEDIA_SUBSYS |
//! | `explore` | §III-C protocol — strategy exploration on a small design |
//! | `ablation` | DESIGN.md ablations — each PUFFER mechanism toggled off |
//!
//! All binaries accept `--scale <f>` (default from the binary), `--designs
//! <a,b,...>` (Table I names), and `--out <dir>` (artifact directory,
//! default `target/paper`). Designs are generated deterministically, so
//! artifacts are reproducible run-to-run. `table2` also takes `--json
//! <path>`: the ledger of its rows that the repository commits as
//! `BENCH_table2.json` ([`table2_json`]).

#![forbid(unsafe_code)]
#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "benchmark harness CLI: aborting with a message on bad arguments or a failed flow is the intended behaviour"
)]

use puffer::{evaluate_bounded, EvalRow, Flow, FlowResult};
use puffer_budget::Budget;
use puffer_db::design::Design;
use puffer_gen::{generate, presets, GeneratorConfig};
use puffer_route::{RouteReport, RouterConfig};
use puffer_trace::Trace;
use std::path::PathBuf;

/// Command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Benchmark scale factor (fraction of Table I sizes).
    pub scale: f64,
    /// Subset of Table I design names (lowercase ok); `None` = all ten.
    pub designs: Option<Vec<String>>,
    /// Output directory for CSV/map artifacts.
    pub out_dir: PathBuf,
    /// Where to write the JSON ledger (`--json`; only
    /// [`HarnessArgs::parse_ledger`] accepts the flag).
    pub json: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parses `--scale`, `--designs`, and `--out` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_scale: f64) -> Self {
        Self::parse_from(std::env::args().skip(1), default_scale, false)
    }

    /// [`HarnessArgs::parse`] plus `--json <path>`, for a binary that writes
    /// a ledger.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse_ledger(default_scale: f64) -> Self {
        Self::parse_from(std::env::args().skip(1), default_scale, true)
    }

    fn parse_from(
        argv: impl IntoIterator<Item = String>,
        default_scale: f64,
        ledger: bool,
    ) -> Self {
        let mut args = HarnessArgs {
            scale: default_scale,
            designs: None,
            out_dir: PathBuf::from("target/paper"),
            json: None,
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a positive number");
                }
                "--designs" => {
                    args.designs = Some(
                        it.next()
                            .expect("--designs needs a comma-separated list")
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .collect(),
                    );
                }
                "--out" => {
                    args.out_dir = PathBuf::from(it.next().expect("--out needs a directory"));
                }
                "--json" if ledger => {
                    args.json = Some(PathBuf::from(it.next().expect("--json needs a path")));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale <f>] [--designs a,b,...] [--out <dir>]{}\n\
                         designs: {}",
                        if ledger { " [--json <path>]" } else { "" },
                        presets::all(1.0)
                            .expect("scale 1.0 is valid")
                            .iter()
                            .map(|c| c.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag '{other}' (try --help)"),
            }
        }
        assert!(args.scale > 0.0, "--scale must be positive");
        args
    }

    /// The `table2` invocation a ledger records as its `command`: the flags
    /// that shape its rows (`--scale`, and `--designs` when given) and
    /// `--json` with the ledger's file name alone. `--out` and the ledger's
    /// directory shape no row, so a render into another directory records
    /// the same command as the committed ledger.
    pub fn ledger_command(&self) -> String {
        let mut command = format!(
            "cargo run -p puffer-bench --release --bin table2 -- --scale {}",
            self.scale
        );
        if let Some(designs) = &self.designs {
            command.push_str(&format!(" --designs {}", designs.join(",")));
        }
        if let Some(name) = self.json.as_deref().and_then(std::path::Path::file_name) {
            command.push_str(&format!(" --json {}", name.to_string_lossy()));
        }
        command
    }

    /// The selected generator configs at the requested scale.
    ///
    /// # Panics
    ///
    /// Panics if a requested design name is unknown.
    pub fn configs(&self) -> Vec<GeneratorConfig> {
        match &self.designs {
            None => presets::all(self.scale).unwrap_or_else(|e| panic!("invalid --scale: {e}")),
            Some(names) => names
                .iter()
                .map(|n| {
                    presets::by_name(n, self.scale)
                        .unwrap_or_else(|e| panic!("invalid --scale: {e}"))
                        .unwrap_or_else(|| panic!("unknown design '{n}'"))
                })
                .collect(),
        }
    }

    /// Creates the output directory and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn ensure_out_dir(&self) -> &PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        &self.out_dir
    }
}

/// Runs one flow on one design at its defaults and evaluates it with the
/// shared router.
///
/// # Panics
///
/// Panics if the flow or its evaluation fails (harness binaries treat that
/// as fatal).
pub fn run_flow(design: &Design, flow: Flow) -> (EvalRow, RouteReport) {
    evaluate(design, flow.label(), &place(design, flow))
}

/// Runs one flow on one design at its defaults.
///
/// # Panics
///
/// Panics if the flow fails.
pub fn place(design: &Design, flow: Flow) -> FlowResult {
    flow.job(None, None)
        .run(design)
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", flow.label(), design.name()))
}

/// Routes a flow's placement with the shared router: the flow's Table II
/// row (named `flow`) and the router's report.
///
/// # Panics
///
/// Panics if the evaluation fails.
pub fn evaluate(design: &Design, flow: &str, result: &FlowResult) -> (EvalRow, RouteReport) {
    let report = evaluate_bounded(
        design,
        &result.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route evaluation failed");
    let row = EvalRow {
        benchmark: design.name().to_string(),
        flow: flow.to_string(),
        hof_pct: report.hof_pct,
        vof_pct: report.vof_pct,
        wirelength: report.wirelength,
        runtime_s: result.runtime_s,
    };
    (row, report)
}

/// One row of the Table II ledger: the four columns, the GP loop's two
/// counters and whether the loop stopped at its cap.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// The Table II columns (HOF, VOF, WL, RT).
    pub row: EvalRow,
    /// Global-placement iterations the flow ran.
    pub gp_iterations: usize,
    /// Padding rounds, or a baseline's analysis rounds.
    pub pad_rounds: usize,
    /// `gp_iterations` reached the flow's cap ([`puffer::Flow::max_iters`]):
    /// the row is wherever the cap cut the run off, not a converged result.
    pub capped: bool,
}

/// The Table II ledger (`BENCH_table2.json`): the command that wrote it,
/// the scale, and one line per design × flow row. Floats are spelled in
/// Rust's shortest round-trip decimal, so two ledgers of the same bits
/// are the same text. The runtime `rt_s` is each row's last field: it is
/// recorded, but a comparison drops it, since HOF, VOF and WL are
/// deterministic and the runtime is not.
pub fn table2_json(command: &str, scale: f64, rows: &[LedgerRow]) -> String {
    fn string(out: &mut String, s: &str) {
        out.push('"');
        puffer_trace::escape_into(s, out);
        out.push('"');
    }
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut out = String::from("{\n  \"command\": ");
    string(&mut out, command);
    out.push_str(&format!(",\n  \"scale\": {},\n  \"rows\": [\n", num(scale)));
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\"design\":");
        string(&mut out, &r.row.benchmark);
        out.push_str(",\"flow\":");
        string(&mut out, &r.row.flow);
        out.push_str(&format!(
            ",\"hof_pct\":{},\"vof_pct\":{},\"wl\":{},\"gp_iterations\":{},\"pad_rounds\":{},\"capped\":{},\"rt_s\":{}}}",
            num(r.row.hof_pct),
            num(r.row.vof_pct),
            num(r.row.wirelength),
            r.gp_iterations,
            r.pad_rounds,
            r.capped,
            num(r.row.runtime_s)
        ));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Generates a design from a config, logging progress to stderr.
///
/// # Panics
///
/// Panics if generation fails.
pub fn generate_logged(config: &GeneratorConfig) -> Design {
    eprintln!(
        "[gen] {} (cells {}, nets {}, macros {})",
        config.name, config.num_cells, config.num_nets, config.num_macros
    );
    let design = generate(config).expect("benchmark generation failed");
    let s = design.stats();
    eprintln!(
        "[gen] {} ready: {} movable, {} nets, {} pins, utilization {:.2}",
        design.name(),
        s.movable_cells,
        s.nets,
        s.movable_pins,
        design.utilization()
    );
    design
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_names_are_stable() {
        assert_eq!(Flow::Puffer.label(), "PUFFER");
        let names = Flow::TABLE2.map(Flow::label);
        assert_eq!(names, ["Commercial_Ref", "RePlAce-like", "PUFFER"]);
        // PUFFER is last: the paper normalizes WL/RT against it.
        assert_eq!(Flow::TABLE2[2], Flow::Puffer);
    }

    #[test]
    fn configs_selects_subset() {
        let args = HarnessArgs {
            scale: 0.01,
            designs: Some(vec!["or1200".into(), "CT_TOP".into()]),
            out_dir: PathBuf::from("/tmp/x"),
            json: None,
        };
        let cfgs = args.configs();
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].name, "OR1200");
        assert_eq!(cfgs[1].name, "CT_TOP");
    }

    #[test]
    fn the_ledger_command_names_only_what_shapes_the_rows() {
        let command = |argv: &[&str]| {
            HarnessArgs::parse_from(argv.iter().map(|a| a.to_string()), 0.01, true).ledger_command()
        };
        let committed = "cargo run -p puffer-bench --release --bin table2 -- \
                         --scale 0.003 --json BENCH_table2.json";
        assert!(
            include_str!("../../../BENCH_table2.json")
                .contains(&format!("\"command\": \"{committed}\",")),
            "the committed ledger names another command"
        );
        for argv in [
            &["--scale", "0.003", "--json", "BENCH_table2.json"][..],
            &[
                "--scale",
                "0.003",
                "--out",
                "smoke/paper",
                "--json",
                "BENCH_table2.json",
            ],
            &["--json", "smoke/BENCH_table2.json", "--scale", "0.003"],
        ] {
            assert_eq!(command(argv), committed, "{argv:?}");
        }
        assert_eq!(
            command(&["--designs", "or1200,ct_top", "--json", "out/ledger.json"]),
            "cargo run -p puffer-bench --release --bin table2 -- \
             --scale 0.01 --designs or1200,ct_top --json ledger.json"
        );
    }

    #[test]
    fn run_flow_produces_row() {
        let cfg = GeneratorConfig {
            num_cells: 250,
            num_nets: 280,
            num_macros: 1,
            utilization: 0.55,
            name: "tiny".into(),
            ..GeneratorConfig::default()
        };
        let d = generate(&cfg).unwrap();
        let (row, _) = run_flow(&d, Flow::Puffer);
        assert_eq!(row.benchmark, "tiny");
        assert_eq!(row.flow, "PUFFER");
        assert!(row.wirelength > 0.0);
        assert!(row.runtime_s > 0.0);
    }

    #[test]
    fn the_ledger_is_one_line_per_row_with_the_runtime_last() {
        let row = |flow: &str, hof_pct: f64, capped: bool| LedgerRow {
            row: EvalRow {
                benchmark: "OR1200".into(),
                flow: flow.into(),
                hof_pct,
                vof_pct: 0.0,
                wirelength: 1234.5,
                runtime_s: 0.25,
            },
            gp_iterations: 300,
            pad_rounds: 2,
            capped,
        };
        let text = table2_json(
            "table2 --json \"x\"",
            0.003,
            &[
                row("PUFFER", 0.1 + 0.2, false),
                row("RePlAce-like", f64::NAN, true),
            ],
        );
        assert_eq!(
            text,
            "{\n  \"command\": \"table2 --json \\\"x\\\"\",\n  \"scale\": 0.003,\n  \"rows\": [\n    \
             {\"design\":\"OR1200\",\"flow\":\"PUFFER\",\"hof_pct\":0.30000000000000004,\"vof_pct\":0,\
             \"wl\":1234.5,\"gp_iterations\":300,\"pad_rounds\":2,\"capped\":false,\"rt_s\":0.25},\n    \
             {\"design\":\"OR1200\",\"flow\":\"RePlAce-like\",\"hof_pct\":null,\"vof_pct\":0,\
             \"wl\":1234.5,\"gp_iterations\":300,\"pad_rounds\":2,\"capped\":true,\"rt_s\":0.25}\n  ]\n}\n"
        );
    }
}
