//! Machine-readable flow benchmark.
//!
//! Runs the full PUFFER flow under telemetry on each selected design and
//! writes one `BENCH_<design>.json` per design into the output directory:
//! the per-stage wall-times from the span timers (init / gp / gp-pad /
//! legal / route) plus the Table II quantities (HOF, VOF, WL, RT).
//!
//! ```text
//! cargo run --release -p puffer-bench --bin benchflow -- \
//!     --scale 0.003 --designs or1200 --out target/bench
//! ```
//!
//! `scripts/bench.sh` wraps this binary; CI keeps the JSON as artifacts.

#![forbid(unsafe_code)]

use puffer::{evaluate_bounded, Job, PufferConfig};
use puffer_bench::par::{serial_transform2d, serial_wa_reference, time_min, THREADS};
use puffer_bench::{generate_logged, HarnessArgs};
use puffer_budget::Budget;
use puffer_fft::{dct2, transform2d_planned, Kind};
use puffer_place::{wa_wirelength_grad_threaded, DensityModel, DensityWorkspace};
use puffer_route::RouterConfig;
use puffer_trace::Trace;
use std::fmt::Write as _;

/// Allowed slowdown of the chunked 1-thread kernel path over the
/// unchunked serial reference: the deterministic-parallelism layer must
/// cost less than 10% when no worker threads are spawned.
const PAR_GATE_FACTOR: f64 = 1.10;

/// Required single-thread speedup of a warm incremental congestion
/// re-estimate over a from-scratch rebuild, enforced under
/// `--congest-gate` (run at scale >= 0.5 so chunk reuse dominates).
/// OR1200 at scale 0.5 measures 1.87–2.09x over back-to-back runs on the
/// 2-core CI machine; the floor sits ~15% under the low end of that range
/// to catch a lost reuse path (which reads ~1.0x), not noise.
const CONGEST_GATE_FACTOR: f64 = 1.6;

/// Peak-RSS ceiling for the `--scale-gate` million-cell placement smoke.
/// The dominant terms are the netlist (struct-of-arrays pins plus CSR
/// membership), the placer's per-cell state vectors, and the FFT grids;
/// all grow linearly in cells/pins. The full flow on CT_TOP at scale 1.0
/// (1.27M cells, 3.8M pins) measures ~0.63 GiB high-water; the ceiling
/// sits ~3x above that to catch superlinear regressions, not noise.
const SCALE_GATE_MAX_RSS: u64 = 2 * 1024 * 1024 * 1024;

/// Minimum design size the `--scale-gate` smoke accepts: the gate exists
/// to prove million-cell capability, so smaller configs are a usage error.
const SCALE_GATE_MIN_CELLS: usize = 1_000_000;

/// GP iterations for the scale gate. The gate bounds *memory*, not
/// quality: a few iterations touch every allocation the full flow makes
/// (placer state, congestion grids, padding, legalization scratch).
const SCALE_GATE_GP_ITERS: usize = 6;

/// Per-kernel timings for the `par` JSON section: the serial reference
/// (where one exists) and the chunked path at [`THREADS`].
struct ParTimes {
    serial_s: Option<f64>,
    by_threads: [f64; THREADS.len()],
}

impl ParTimes {
    fn speedup_4t(&self) -> f64 {
        self.by_threads[0] / self.by_threads[2]
    }
}

/// Times the deterministic-parallel kernels on the placed design.
fn par_times(
    design: &puffer_db::design::Design,
    placement: &puffer_db::design::Placement,
) -> [(&'static str, ParTimes); 3] {
    let nl = design.netlist();
    let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
    let model = DensityModel::new(design, 64, 64);
    let (nx, ny) = (256, 256);
    let data: Vec<f64> = (0..nx * ny).map(|i| (i as f64 * 0.13).sin()).collect();

    let wa = ParTimes {
        serial_s: Some(time_min(2, 9, || serial_wa_reference(nl, placement, 4.0))),
        by_threads: THREADS
            .map(|t| time_min(2, 9, || wa_wirelength_grad_threaded(nl, placement, 4.0, t))),
    };
    // The paths the placer runs: a density gradient on a persistent
    // workspace, and the planned in-place 2-D DCT on reused buffers.
    let density = ParTimes {
        serial_s: None,
        by_threads: THREADS.map(|t| {
            let mut ws = DensityWorkspace::new(&model, nl.num_cells(), t);
            time_min(2, 9, || ws.gradient(&model, nl, placement, &widths)[0])
        }),
    };
    let transform = ParTimes {
        serial_s: Some(time_min(2, 9, || serial_transform2d(&data, nx, ny, dct2))),
        by_threads: THREADS.map(|t| {
            let mut grid = data.clone();
            let mut transposed = vec![0.0; data.len()];
            let mut lanes = vec![Vec::new(); t];
            time_min(2, 9, || {
                grid.copy_from_slice(&data);
                transform2d_planned(&mut grid, nx, ny, (Kind::Dct2, Kind::Dct2), &mut transposed, &mut lanes);
                grid[0]
            })
        }),
    };
    [
        ("wa_grad", wa),
        ("density", density),
        ("transform2d", transform),
    ]
}

/// The moved placement the incremental path is timed against: one
/// contiguous ~6% window of the movable cells nudged diagonally (clamped
/// to the region). Cell padding spreads a congestion *hotspot*, so the
/// per-round dirt between consecutive estimates is spatially localized —
/// a contiguous index window models that (generated netlists are built
/// cluster-by-cluster, so index-adjacent cells share nets and Gcells).
fn perturbed(
    design: &puffer_db::design::Design,
    placement: &puffer_db::design::Placement,
) -> puffer_db::design::Placement {
    let r = design.region();
    let mut p = placement.clone();
    let n = design.netlist().movable_cells().count();
    let window = n / 3..n / 3 + n / 16;
    for (i, id) in design.netlist().movable_cells().enumerate() {
        if window.contains(&i) {
            let pos = p.pos(id);
            p.set(
                id,
                puffer_db::geom::Point::new(
                    (pos.x + 3.0).clamp(r.xl, r.xh),
                    (pos.y - 3.0).clamp(r.yl, r.yh),
                ),
            );
        }
    }
    p
}

/// Single-thread congestion timings: `(full_s, incremental_s)` — the
/// before/after pair of the dirty-region re-estimation work. The full
/// rebuild and the warm incremental path see the same alternating pair of
/// placements, so both pay identical deposit work for the dirty nets.
fn congest_times(
    design: &puffer_db::design::Design,
    placement: &puffer_db::design::Placement,
) -> (f64, f64) {
    use puffer_congest::{CongestionEstimator, EstimatorConfig};
    let cfg = EstimatorConfig {
        threads: 1,
        ..EstimatorConfig::default()
    };
    let moved = perturbed(design, placement);
    let full = CongestionEstimator::new(design, cfg.clone());
    let mut flip = false;
    let full_s = time_min(1, 5, || {
        flip = !flip;
        full.try_estimate(design, if flip { &moved } else { placement })
            .expect("full estimate")
    });
    let mut inc = CongestionEstimator::new(design, cfg);
    inc.try_estimate_incremental(design, placement)
        .expect("warm-up estimate"); // warm the chunk state
    let mut flip = false;
    let inc_s = time_min(1, 5, || {
        flip = !flip;
        inc.try_estimate_incremental(design, if flip { &moved } else { placement })
            .expect("incremental estimate")
    });
    (full_s, inc_s)
}

/// Appends `"key": value` (6 decimal places, non-finite becomes `null`).
fn field(json: &mut String, indent: &str, key: &str, value: f64, last: bool) {
    let comma = if last { "" } else { "," };
    if value.is_finite() {
        let _ = writeln!(json, "{indent}\"{key}\": {value:.6}{comma}");
    } else {
        let _ = writeln!(json, "{indent}\"{key}\": null{comma}");
    }
}

/// `--congest-gate`: skip the flow; on each design, time a single-thread
/// full congestion rebuild against the warm incremental path on a
/// mid-placement snapshot, record the before/after pair as
/// `BENCH_<design>.json`, and exit nonzero under [`CONGEST_GATE_FACTOR`].
fn run_congest_gate(args: &HarnessArgs, out_dir: &std::path::Path) {
    let mut failed = false;
    for config in args.configs() {
        let design = generate_logged(&config);
        // A mid-global-placement shape: semi-spread grid over the region.
        let r = design.region();
        let c = r.center();
        let n = design.netlist().movable_cells().count();
        let cols = (n as f64).sqrt().ceil() as usize;
        let mut placement = design.initial_placement();
        for (i, id) in design.netlist().movable_cells().enumerate() {
            let fx = ((i % cols) as f64 + 0.5) / cols as f64 - 0.5;
            let fy = ((i / cols) as f64 + 0.5) / cols as f64 - 0.5;
            placement.set(
                id,
                puffer_db::geom::Point::new(
                    c.x + fx * 0.6 * r.width(),
                    c.y + fy * 0.6 * r.height(),
                ),
            );
        }
        let (full_s, inc_s) = congest_times(&design, &placement);
        let speedup = full_s / inc_s;
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"design\": \"{}\",", design.name());
        let _ = writeln!(json, "  \"cells\": {},", design.stats().movable_cells);
        json.push_str("  \"congest\": {\n");
        field(&mut json, "    ", "full_s", full_s, false);
        field(&mut json, "    ", "incremental_s", inc_s, false);
        field(&mut json, "    ", "speedup", speedup, true);
        json.push_str("  }\n}\n");
        let path = out_dir.join(format!("BENCH_{}.json", design.name()));
        puffer_budget::fsx::atomic_write(&path, json.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("{}", path.display());
        eprintln!(
            "[congest] {}: full {:.1} ms, incremental {:.1} ms ({speedup:.2}x)",
            design.name(),
            full_s * 1e3,
            inc_s * 1e3
        );
        if speedup < CONGEST_GATE_FACTOR {
            eprintln!(
                "congest gate: incremental re-estimate is only {speedup:.2}x faster than \
                 a full rebuild (need {CONGEST_GATE_FACTOR}x) on {}",
                design.name()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// `--scale-gate`: million-cell capability smoke. Generates one Table
/// I-sized design (CT_TOP at scale 1.0 unless `--designs` selects others),
/// runs a short PUFFER flow on it with the size-aware strategy ladder in
/// `auto`, and asserts the process peak RSS stayed under
/// [`SCALE_GATE_MAX_RSS`]. Writes `BENCH_<design>.json` with the measured
/// numbers and exits nonzero when the ceiling is breached.
fn run_scale_gate(args: &HarnessArgs, out_dir: &std::path::Path) {
    let configs = if args.designs.is_some() {
        args.configs()
    } else {
        // CT_TOP: 1.27M cells and the cleanest congestion profile, so the
        // smoke measures memory scaling rather than pathological padding.
        vec![puffer_gen::presets::ct_top(1.0).expect("scale 1.0 is valid")]
    };
    let mut failed = false;
    for config in configs {
        assert!(
            config.num_cells >= SCALE_GATE_MIN_CELLS,
            "--scale-gate needs a {SCALE_GATE_MIN_CELLS}+ cell design, got {} ({} cells); \
             run at --scale 1.0",
            config.name,
            config.num_cells
        );
        let design = generate_logged(&config);
        let scale_class = puffer::ScaleClass::classify(design.netlist().num_cells());
        let mut cfg = PufferConfig::default();
        cfg.placer.max_iters = SCALE_GATE_GP_ITERS;
        let result = Job::new(cfg)
            .run(&design)
            .unwrap_or_else(|e| panic!("scale gate flow failed on {}: {e}", design.name()));
        let peak = puffer_budget::mem::peak_rss_bytes()
            .expect("scale gate needs /proc/self/status (Linux)");

        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"design\": \"{}\",", design.name());
        let _ = writeln!(json, "  \"cells\": {},", design.stats().movable_cells);
        let _ = writeln!(json, "  \"scale_class\": \"{scale_class}\",");
        json.push_str("  \"scale_gate\": {\n");
        let _ = writeln!(json, "    \"peak_rss_bytes\": {peak},");
        let _ = writeln!(json, "    \"max_rss_bytes\": {SCALE_GATE_MAX_RSS},");
        let _ = writeln!(json, "    \"gp_iterations\": {},", result.gp_iterations);
        field(&mut json, "    ", "hpwl", result.hpwl, false);
        field(&mut json, "    ", "runtime_s", result.runtime_s, true);
        json.push_str("  }\n}\n");
        let path = out_dir.join(format!("BENCH_{}.json", design.name()));
        puffer_budget::fsx::atomic_write(&path, json.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("{}", path.display());
        eprintln!(
            "[scale] {}: {} cells ({scale_class}), peak RSS {:.2} GiB (ceiling {:.0} GiB), \
             {:.1}s",
            design.name(),
            design.stats().movable_cells,
            peak as f64 / (1u64 << 30) as f64,
            SCALE_GATE_MAX_RSS as f64 / (1u64 << 30) as f64,
            result.runtime_s
        );
        if peak > SCALE_GATE_MAX_RSS {
            eprintln!(
                "scale gate: peak RSS {peak} bytes exceeds the {SCALE_GATE_MAX_RSS}-byte \
                 ceiling on {}",
                design.name()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args = HarnessArgs::parse(0.003);
    let out_dir = args.ensure_out_dir().clone();
    if args.congest_gate {
        run_congest_gate(&args, &out_dir);
        return;
    }
    if args.scale_gate {
        run_scale_gate(&args, &out_dir);
        return;
    }
    for config in args.configs() {
        let design = generate_logged(&config);
        let trace = Trace::enabled();
        let result = Job::new(PufferConfig::default())
            .with_trace(trace.clone())
            .run(&design)
            .unwrap_or_else(|e| panic!("PUFFER failed on {}: {e}", design.name()));
        let report = evaluate_bounded(
            &design,
            &result.placement,
            &RouterConfig::default(),
            &Budget::unbounded(),
            &trace,
        )
        .unwrap_or_else(|e| panic!("routing failed on {}: {e}", design.name()));

        let spans = trace.span_stats();
        let total = |label: &str| {
            spans
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0.0, |(_, s)| s.total)
        };

        let mut json = String::from("{\n");
        // Preset names are plain ASCII identifiers; no escaping needed.
        let _ = writeln!(json, "  \"design\": \"{}\",", design.name());
        let _ = writeln!(json, "  \"cells\": {},", design.stats().movable_cells);
        json.push_str("  \"stages_s\": {\n");
        field(&mut json, "    ", "init", total("init"), false);
        field(&mut json, "    ", "gp", total("gp"), false);
        field(&mut json, "    ", "gp_pad", total("gp/pad"), false);
        field(&mut json, "    ", "legal", total("legal"), false);
        field(&mut json, "    ", "route", total("route"), true);
        json.push_str("  },\n");
        json.push_str("  \"metrics\": {\n");
        field(&mut json, "    ", "hof_pct", report.hof_pct, false);
        field(&mut json, "    ", "vof_pct", report.vof_pct, false);
        field(&mut json, "    ", "wirelength", report.wirelength, false);
        field(&mut json, "    ", "hpwl", result.hpwl, false);
        field(&mut json, "    ", "runtime_s", result.runtime_s, false);
        let _ = writeln!(json, "    \"gp_iterations\": {},", result.gp_iterations);
        let _ = writeln!(json, "    \"pad_rounds\": {}", result.pad_rounds);
        json.push_str("  },\n");

        // Deterministic-parallelism kernels: serial reference vs the
        // chunked path at 1/2/4/8 threads, plus the 4-thread speedup.
        // CI gates the 1-thread path against the serial reference below.
        let kernels = par_times(&design, &result.placement);
        json.push_str("  \"par\": {\n");
        for (ki, (name, times)) in kernels.iter().enumerate() {
            let _ = writeln!(json, "    \"{name}\": {{");
            if let Some(serial) = times.serial_s {
                field(&mut json, "      ", "serial_s", serial, false);
            }
            for (t, secs) in THREADS.iter().zip(times.by_threads) {
                field(&mut json, "      ", &format!("threads_{t}_s"), secs, false);
            }
            field(&mut json, "      ", "speedup_4t", times.speedup_4t(), true);
            let comma = if ki + 1 == kernels.len() { "" } else { "," };
            let _ = writeln!(json, "    }}{comma}");
        }
        json.push_str("  },\n");

        // Incremental congestion: the before (full rebuild) / after (warm
        // dirty-region re-estimate) pair, both single-threaded. The 2x
        // gate itself runs separately via --congest-gate at scale >= 0.5;
        // here the pair is just recorded alongside the flow numbers.
        let (full_s, inc_s) = congest_times(&design, &result.placement);
        json.push_str("  \"congest\": {\n");
        field(&mut json, "    ", "full_s", full_s, false);
        field(&mut json, "    ", "incremental_s", inc_s, false);
        field(&mut json, "    ", "speedup", full_s / inc_s, true);
        json.push_str("  }\n}\n");
        eprintln!(
            "[congest] full {:.1} ms, incremental {:.1} ms ({:.2}x)",
            full_s * 1e3,
            inc_s * 1e3,
            full_s / inc_s
        );

        for (name, times) in &kernels {
            let Some(serial) = times.serial_s else { continue };
            let one_thread = times.by_threads[0];
            if one_thread > serial * PAR_GATE_FACTOR {
                eprintln!(
                    "par regression gate: {name} 1-thread path {:.1} us exceeds \
                     {PAR_GATE_FACTOR}x the serial reference {:.1} us",
                    one_thread * 1e6,
                    serial * 1e6
                );
                std::process::exit(1);
            }
            eprintln!(
                "[par] {name}: serial {:.1} us, 1t {:.1} us ({:+.1}%), 4t speedup {:.2}x",
                serial * 1e6,
                one_thread * 1e6,
                (one_thread / serial - 1.0) * 100.0,
                times.speedup_4t()
            );
        }

        let path = out_dir.join(format!("BENCH_{}.json", design.name()));
        puffer_budget::fsx::atomic_write(&path, json.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("{}", path.display());
        eprint!("{}", trace.summary_table());
    }
}
