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
//! artifacts are reproducible run-to-run.

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
}

impl HarnessArgs {
    /// Parses `--scale`, `--designs`, and `--out` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_scale: f64) -> Self {
        let mut args = HarnessArgs {
            scale: default_scale,
            designs: None,
            out_dir: PathBuf::from("target/paper"),
        };
        let mut it = std::env::args().skip(1);
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
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale <f>] [--designs a,b,...] [--out <dir>]\n\
                         designs: {}",
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
    let result = flow
        .job(None, None)
        .run(design)
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", flow.label(), design.name()));
    evaluate(design, flow.label(), &result)
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
        };
        let cfgs = args.configs();
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].name, "OR1200");
        assert_eq!(cfgs[1].name, "CT_TOP");
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
}
