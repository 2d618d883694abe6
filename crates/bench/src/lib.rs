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

use puffer::{
    evaluate_bounded, EvalRow, Job, PufferConfig, ReferenceConfig, ReferencePlacer, ReplaceConfig,
    ReplacePlacer,
};
use puffer_budget::Budget;
use puffer_db::design::Design;
use puffer_gen::{generate, presets, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;
use std::path::PathBuf;

/// Which of the three Table II flows to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// The commercial stand-in (router-in-the-loop inflation).
    Reference,
    /// The RePlAce-style baseline (bulk local inflation).
    ReplaceLike,
    /// PUFFER itself.
    Puffer,
}

impl FlowKind {
    /// All flows in the paper's column order.
    pub fn all() -> [FlowKind; 3] {
        [FlowKind::Reference, FlowKind::ReplaceLike, FlowKind::Puffer]
    }

    /// The display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Reference => "Commercial_Ref",
            FlowKind::ReplaceLike => "RePlAce-like",
            FlowKind::Puffer => "PUFFER",
        }
    }
}

/// Command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Benchmark scale factor (fraction of Table I sizes).
    pub scale: f64,
    /// Subset of Table I design names (lowercase ok); `None` = all ten.
    pub designs: Option<Vec<String>>,
    /// Output directory for CSV/map artifacts.
    pub out_dir: PathBuf,
    /// `benchflow` only: skip the flow and run just the single-thread
    /// incremental-congestion gate on each design (other binaries accept
    /// and ignore the flag).
    pub congest_gate: bool,
    /// `benchflow` only: million-cell smoke — place one Table I-sized
    /// design under a bounded peak-RSS assertion (other binaries accept
    /// and ignore the flag).
    pub scale_gate: bool,
}

impl HarnessArgs {
    /// Parses `--scale`, `--designs`, `--out`, `--congest-gate`, and
    /// `--scale-gate` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_scale: f64) -> Self {
        let mut args = HarnessArgs {
            scale: default_scale,
            designs: None,
            out_dir: PathBuf::from("target/paper"),
            congest_gate: false,
            scale_gate: false,
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
                "--congest-gate" => {
                    args.congest_gate = true;
                }
                "--scale-gate" => {
                    args.scale_gate = true;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale <f>] [--designs a,b,...] [--out <dir>] [--congest-gate]\n\
                         \x20      [--scale-gate]\n\
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
            None => presets::all(self.scale)
                .unwrap_or_else(|e| panic!("invalid --scale: {e}")),
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

/// Runs one flow on one design and evaluates it with the shared router.
///
/// # Panics
///
/// Panics if the flow fails (harness binaries treat that as fatal).
pub fn run_flow(design: &Design, flow: FlowKind) -> EvalRow {
    let result = match flow {
        FlowKind::Reference => ReferencePlacer::new(ReferenceConfig::default()).place(design),
        FlowKind::ReplaceLike => ReplacePlacer::new(ReplaceConfig::default()).place(design),
        FlowKind::Puffer => Job::new(PufferConfig::default()).run(design),
    }
    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", flow.name(), design.name()));
    let report = evaluate_bounded(
        design,
        &result.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route evaluation failed");
    EvalRow {
        benchmark: design.name().to_string(),
        flow: flow.name().to_string(),
        hof_pct: report.hof_pct,
        vof_pct: report.vof_pct,
        wirelength: report.wirelength,
        runtime_s: result.runtime_s,
    }
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

/// Support for the deterministic-parallelism (`par`) bench group: serial
/// reference kernels and a noise-robust timer.
///
/// The serial references are *unchunked* single-pass implementations of the
/// kernels `puffer-par` parallelises. They exist only as performance
/// baselines: the chunked 1-thread path pays for per-chunk partial buffers
/// and the ordered merge even when no worker threads are spawned, and CI
/// gates that this overhead stays under 10% (`benchflow`'s `par` section).
pub mod par {
    use puffer_db::design::Placement;
    use puffer_db::netlist::Netlist;
    use std::hint::black_box;
    use puffer_budget::clock::Stopwatch;

    /// Thread counts exercised by the bench group and `benchflow`.
    pub const THREADS: [usize; 4] = [1, 2, 4, 8];

    /// Minimum per-iteration time of `f` over `iters` timed runs after
    /// `warmup` untimed ones. The minimum — not the mean — is used because
    /// the regression gate compares two code paths and must shrug off
    /// scheduler noise.
    pub fn time_min<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
        for _ in 0..warmup {
            black_box(f());
        }
        let mut min = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Stopwatch::start();
            black_box(f());
            min = min.min(t0.elapsed_secs());
        }
        min
    }

    /// Unchunked single-pass WA wirelength gradient: the serial baseline
    /// the chunked 1-thread `wa_wirelength_grad_threaded` path is gated
    /// against. Same math as `puffer-place`, but one accumulation buffer
    /// and no partial merge.
    pub fn serial_wa_reference(
        netlist: &Netlist,
        placement: &Placement,
        gamma: f64,
    ) -> (f64, Vec<f64>, Vec<f64>) {
        assert!(gamma > 0.0, "gamma must be positive");
        let n = netlist.num_cells();
        let mut value = 0.0;
        let mut grad_x = vec![0.0; n];
        let mut grad_y = vec![0.0; n];
        let mut coords: Vec<f64> = Vec::with_capacity(16);
        let mut exps_p: Vec<f64> = Vec::with_capacity(16);
        let mut exps_m: Vec<f64> = Vec::with_capacity(16);
        let mut grads: Vec<f64> = Vec::with_capacity(16);
        let inv_gamma = 1.0 / gamma;
        for (id, net) in netlist.iter_nets() {
            let net_pins = netlist.net_pins(id);
            if net_pins.len() < 2 || net.weight == 0.0 {
                continue;
            }
            for axis in 0..2 {
                coords.clear();
                for &pid in net_pins {
                    let p = placement.pin_pos(netlist, pid);
                    coords.push(if axis == 0 { p.x } else { p.y });
                }
                let (max, min) = coords
                    .iter()
                    .fold((f64::NEG_INFINITY, f64::INFINITY), |(mx, mn), &x| {
                        (mx.max(x), mn.min(x))
                    });
                exps_p.clear();
                exps_m.clear();
                let (mut sp, mut sxp, mut sm, mut sxm) = (0.0, 0.0, 0.0, 0.0);
                for &x in &coords {
                    let ep = ((x - max) * inv_gamma).exp();
                    let em = ((min - x) * inv_gamma).exp();
                    exps_p.push(ep);
                    exps_m.push(em);
                    sp += ep;
                    sxp += x * ep;
                    sm += em;
                    sxm += x * em;
                }
                value += net.weight * (sxp / sp - sxm / sm);
                let inv_sp2 = 1.0 / (sp * sp);
                let inv_sm2 = 1.0 / (sm * sm);
                let w = net.weight;
                grads.clear();
                for j in 0..coords.len() {
                    let x = coords[j];
                    let ep = exps_p[j];
                    let em = exps_m[j];
                    let dp =
                        ((1.0 + x * inv_gamma) * ep * sp - ep * sxp * inv_gamma) * inv_sp2;
                    let dm =
                        ((1.0 - x * inv_gamma) * em * sm + em * sxm * inv_gamma) * inv_sm2;
                    grads.push(w * (dp - dm));
                }
                for (j, &pid) in net_pins.iter().enumerate() {
                    let cell = netlist.pin(pid).cell.index();
                    if axis == 0 {
                        grad_x[cell] += grads[j];
                    } else {
                        grad_y[cell] += grads[j];
                    }
                }
            }
        }
        (value, grad_x, grad_y)
    }

    /// Unchunked 2-D separable transform (rows, then columns): the serial
    /// baseline for `transform2d_threaded`.
    pub fn serial_transform2d(
        data: &[f64],
        nx: usize,
        ny: usize,
        f: impl Fn(&[f64]) -> Vec<f64>,
    ) -> Vec<f64> {
        assert_eq!(data.len(), nx * ny, "matrix shape mismatch");
        let mut rows = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            rows.extend_from_slice(&f(&data[iy * nx..(iy + 1) * nx]));
        }
        let mut out = vec![0.0; nx * ny];
        let mut col = vec![0.0; ny];
        for ix in 0..nx {
            for (iy, c) in col.iter_mut().enumerate() {
                *c = rows[iy * nx + ix];
            }
            for (iy, v) in f(&col).into_iter().enumerate() {
                out[iy * nx + ix] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_names_are_stable() {
        assert_eq!(FlowKind::Puffer.name(), "PUFFER");
        assert_eq!(FlowKind::all().len(), 3);
        // PUFFER is last: the paper normalizes WL/RT against it.
        assert_eq!(FlowKind::all()[2], FlowKind::Puffer);
    }

    #[test]
    fn configs_selects_subset() {
        let args = HarnessArgs {
            scale: 0.01,
            designs: Some(vec!["or1200".into(), "CT_TOP".into()]),
            out_dir: PathBuf::from("/tmp/x"),
            congest_gate: false,
            scale_gate: false,
        };
        let cfgs = args.configs();
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].name, "OR1200");
        assert_eq!(cfgs[1].name, "CT_TOP");
    }

    #[test]
    fn serial_references_match_the_library_kernels() {
        let cfg = GeneratorConfig {
            num_cells: 200,
            num_nets: 230,
            name: "ref".into(),
            ..GeneratorConfig::default()
        };
        let d = generate(&cfg).unwrap();
        let p = d.initial_placement();
        let (value, gx, gy) = par::serial_wa_reference(d.netlist(), &p, 4.0);
        let lib = puffer_place::wa_wirelength_grad_threaded(d.netlist(), &p, 4.0, 1);
        // Same math, different accumulation parenthesization (the library
        // merges per-chunk partials): compare numerically, not bitwise.
        assert!((value - lib.value).abs() <= 1e-9 * lib.value.abs().max(1.0));
        for (a, b) in gx.iter().zip(&lib.grad_x) {
            assert!((a - b).abs() <= 1e-9, "{a} vs {b}");
        }
        for (a, b) in gy.iter().zip(&lib.grad_y) {
            assert!((a - b).abs() <= 1e-9, "{a} vs {b}");
        }

        // Transforms write disjoint outputs — no accumulation — so the
        // serial reference is bit-identical to the library path.
        let data: Vec<f64> = (0..32 * 16).map(|i| (i as f64 * 0.31).sin()).collect();
        let serial = par::serial_transform2d(&data, 32, 16, puffer_fft::dct2);
        let lib = puffer_fft::transform2d_threaded(&data, 32, 16, puffer_fft::dct2, 1);
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            lib.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
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
        let row = run_flow(&d, FlowKind::Puffer);
        assert_eq!(row.benchmark, "tiny");
        assert_eq!(row.flow, "PUFFER");
        assert!(row.wirelength > 0.0);
        assert!(row.runtime_s > 0.0);
    }
}
