//! Micro-benchmarks: one group per pipeline stage, so the runtime
//! composition behind the Table II RT column can be traced.
//!
//! Uses a small self-contained timing harness (no external bench
//! framework) so the workspace builds fully offline:
//!
//! ```text
//! cargo bench -p puffer-bench
//! ```
//!
//! Each benchmark is run for a fixed number of timed iterations after a
//! warm-up, and the per-iteration mean and minimum are reported.

use std::hint::black_box;
use std::time::Instant;

use puffer_budget::Budget;
use puffer_congest::{CongestionEstimator, EstimatorConfig};
use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_dp::{refine_bounded, DetailedConfig};
use puffer_fft::{dct2, dct3, plan, transform2d_planned, Complex, Kind};
use puffer_flute::Topology;
use puffer_gen::{generate, GeneratorConfig};
use puffer_legal::legalize_bounded;
use puffer_pad::{extract_features, padding_round, FeatureConfig, PaddingState, PaddingStrategy};
use puffer_place::{
    quadratic_placement, DensityModel, DensityWorkspace, GlobalPlacer, PlacerConfig,
    QuadraticConfig,
};
use puffer_route::{assign_layers, GlobalRouter, LayerConfig, RouterConfig};

/// Times `f` for `iters` iterations after `warmup` untimed ones and
/// prints per-iteration statistics. The closure's result is passed
/// through [`black_box`] so the work is not optimized away.
fn bench<T, F: FnMut() -> T>(group: &str, name: &str, warmup: usize, iters: usize, mut f: F) {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "{group:<14} {name:<28} mean {:>12}  min {:>12}  ({iters} iters)",
        fmt_secs(mean),
        fmt_secs(min)
    );
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

fn bench_design() -> Design {
    generate(&GeneratorConfig {
        name: "bench".into(),
        num_cells: 2000,
        num_nets: 2300,
        num_macros: 4,
        hotspot: 0.5,
        ..GeneratorConfig::default()
    })
    .expect("bench design")
}

/// A semi-spread snapshot (mid-global-placement shape).
fn snapshot(design: &Design) -> Placement {
    let r = design.region();
    let c = r.center();
    let n = design.netlist().movable_cells().count();
    let cols = (n as f64).sqrt().ceil() as usize;
    let mut p = design.initial_placement();
    for (i, id) in design.netlist().movable_cells().enumerate() {
        let fx = ((i % cols) as f64 + 0.5) / cols as f64 - 0.5;
        let fy = ((i / cols) as f64 + 0.5) / cols as f64 - 0.5;
        p.set(
            id,
            Point::new(c.x + fx * 0.6 * r.width(), c.y + fy * 0.6 * r.height()),
        );
    }
    p
}

fn fft_benches() {
    let data: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
    bench("fft", "dct2_256", 10, 100, || dct2(black_box(&data)));
    bench("fft", "dct3_256", 10, 100, || dct3(black_box(&data)));
    // What a row of the density solve costs: the shared plan applied in
    // place, scratch reused.
    let (plan, mut row, mut scratch) = (plan(256), data.clone(), Vec::new());
    bench("fft", "dct2_256_in_place", 10, 100, || {
        row.copy_from_slice(black_box(&data));
        plan.apply(Kind::Dct2, &mut row, &mut scratch);
        row[0]
    });
    let cdata: Vec<Complex> = (0..1024)
        .map(|i| Complex::new((i as f64).sin(), 0.0))
        .collect();
    bench("fft", "fft_1024", 10, 100, || {
        let mut v = cdata.clone();
        puffer_fft::fft(&mut v);
        v
    });
}

fn rsmt_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let nets: Vec<_> = design.netlist().iter_nets().map(|(id, _)| id).collect();
    bench("rsmt", "all_nets_2k", 2, 20, || {
        let mut wl = 0.0;
        for &net in &nets {
            wl += Topology::for_net(design.netlist(), &placement, net).wirelength();
        }
        wl
    });
}

fn congestion_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let est = CongestionEstimator::new(&design, EstimatorConfig::default());
    let no_detour = CongestionEstimator::new(
        &design,
        EstimatorConfig {
            expand_detours: false,
            ..EstimatorConfig::default()
        },
    );
    bench("congestion", "estimate_full", 2, 20, || {
        est.try_estimate(&design, &placement)
    });
    bench("congestion", "estimate_no_detour", 2, 20, || {
        no_detour.try_estimate(&design, &placement)
    });

    // Incremental re-estimation after a small perturbation: what a padding
    // round actually pays once warm state exists. `try_estimate_incremental`
    // on a fresh estimator is a full build, so warm it once outside the
    // timed loop, then alternate between two nearby placements so every
    // timed call sees real (small) dirt.
    let moved = {
        let r = design.region();
        let mut p = placement.clone();
        for (i, id) in design.netlist().movable_cells().enumerate() {
            if i % 16 == 0 {
                let pos = p.pos(id);
                p.set(
                    id,
                    Point::new(
                        (pos.x + 3.0).clamp(r.xl, r.xh),
                        (pos.y - 3.0).clamp(r.yl, r.yh),
                    ),
                );
            }
        }
        p
    };
    let mut inc = CongestionEstimator::new(&design, EstimatorConfig::default());
    inc.try_estimate_incremental(&design, &placement)
        .expect("warm-up estimate");
    let mut flip = false;
    bench("congestion", "estimate_incremental", 2, 20, move || {
        flip = !flip;
        let p = if flip { &moved } else { &placement };
        inc.try_estimate_incremental(&design, p)
    });
}

fn feature_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let est = CongestionEstimator::new(&design, EstimatorConfig::default());
    let map = est.try_estimate(&design, &placement).expect("estimate");
    bench("padding", "extract_features", 2, 20, || {
        extract_features(&design, &placement, &map, &FeatureConfig::default())
    });
    let features = extract_features(&design, &placement, &map, &FeatureConfig::default());
    let strategy = PaddingStrategy::default();
    bench("padding", "padding_round", 2, 20, || {
        let mut state = PaddingState::new(design.netlist().num_cells());
        padding_round(design.netlist(), &features, &strategy, &mut state, 1e6)
    });
}

fn density_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let widths: Vec<f64> = design.netlist().cells().iter().map(|c| c.width).collect();
    let model = DensityModel::new(&design, 64, 64);
    bench("density", "evaluate_64x64", 2, 20, || {
        model.evaluate_threaded(design.netlist(), &placement, &widths, 1.0, 1)
    });
    // The two calls a Nesterov step makes, on the workspace it keeps.
    let mut ws = DensityWorkspace::new(&model, design.netlist().num_cells(), 1);
    bench("density", "gradient_64x64", 2, 20, || {
        ws.gradient(&model, design.netlist(), &placement, &widths)[0]
    });
    bench("density", "statistics_64x64", 2, 20, || {
        ws.statistics(&model, design.netlist(), &placement, &widths, 1.0)
    });
}

fn placer_benches() {
    let design = bench_design();
    bench("placer", "ten_nesterov_steps", 1, 10, || {
        let mut placer = GlobalPlacer::new(&design, PlacerConfig::default()).expect("placer");
        for _ in 0..10 {
            placer.step();
        }
    });
}

fn budget_benches() {
    use puffer_budget::Budget;
    use std::time::Duration;

    // The raw cost of one cooperative cancellation check, for both budget
    // shapes the flow uses.
    let unbounded = Budget::unbounded();
    let deadline = Budget::with_deadline(Duration::from_secs(3600));
    bench("budget", "check_unbounded", 100, 1000, || {
        for _ in 0..1000 {
            black_box(black_box(&unbounded).check().is_ok());
        }
    });
    bench("budget", "check_deadline", 100, 1000, || {
        for _ in 0..1000 {
            black_box(black_box(&deadline).check().is_ok());
        }
    });

    // The flow-level question: ten GP steps with the per-iteration budget
    // check the bounded flow adds, versus the same ten steps without it.
    // The delta is the cancellation-check overhead on the GP loop (<1%).
    let design = bench_design();
    bench("budget", "ten_gp_steps_unchecked", 1, 10, || {
        let mut placer = GlobalPlacer::new(&design, PlacerConfig::default()).expect("placer");
        for _ in 0..10 {
            placer.step();
        }
    });
    bench("budget", "ten_gp_steps_budgeted", 1, 10, || {
        let mut placer = GlobalPlacer::new(&design, PlacerConfig::default()).expect("placer");
        for _ in 0..10 {
            if deadline.is_exhausted() {
                break;
            }
            placer.step();
        }
    });
}

fn router_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let router = GlobalRouter::new(&design, RouterConfig::default());
    let pattern_only = GlobalRouter::new(
        &design,
        RouterConfig {
            max_rounds: 0,
            ..RouterConfig::default()
        },
    );
    bench("router", "route_full", 1, 10, || {
        router.try_route(&design, &placement)
    });
    bench("router", "route_pattern_only", 1, 10, || {
        pattern_only.try_route(&design, &placement)
    });
}

fn legalize_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let zeros = vec![0u32; design.netlist().num_cells()];
    // Light padding (avg half a site) so the padded design still fits at
    // the bench design's utilization.
    let padded: Vec<u32> = (0..design.netlist().num_cells())
        .map(|i| (i % 2) as u32)
        .collect();
    bench("legalize", "abacus_plain", 1, 10, || {
        legalize_bounded(&design, &placement, &zeros, &Budget::unbounded()).expect("legalize")
    });
    bench("legalize", "abacus_padded", 1, 10, || {
        legalize_bounded(&design, &placement, &padded, &Budget::unbounded()).expect("legalize")
    });
}

fn quadratic_benches() {
    let design = bench_design();
    let init = design.initial_placement();
    bench("quadratic", "b2b_cg_solve", 1, 10, || {
        quadratic_placement(&design, &init, &QuadraticConfig::default())
    });
}

fn dp_benches() {
    let design = bench_design();
    let zeros = vec![0u32; design.netlist().num_cells()];
    let legal = legalize_bounded(&design, &snapshot(&design), &zeros, &Budget::unbounded())
        .expect("legalize");
    bench("detailed_place", "refine_3_passes", 1, 10, || {
        refine_bounded(
            &design,
            &legal.placement,
            &zeros,
            &DetailedConfig::default(),
            None,
            &Budget::unbounded(),
        )
    });
}

fn layer_benches() {
    let design = bench_design();
    let placement = snapshot(&design);
    let router = GlobalRouter::new(&design, RouterConfig::default());
    let report = router.try_route(&design, &placement).expect("route");
    bench("layers", "assign_layers", 1, 10, || {
        assign_layers(&design, &report.paths, &LayerConfig::default())
    });
}

fn tpe_benches() {
    use puffer_explore::{ParamSpec, Space, Tpe, TpeConfig};
    let space = Space::new(
        (0..8)
            .map(|i| ParamSpec::continuous(format!("p{i}"), 0.0, 1.0))
            .collect(),
    );
    bench("tpe", "suggest_after_100_obs", 2, 20, || {
        let mut tpe = Tpe::new(space.clone(), TpeConfig::default());
        for k in 0..100 {
            let x: Vec<f64> = (0..8).map(|d| ((k * 7 + d) % 10) as f64 / 10.0).collect();
            let y = x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum();
            tpe.observe(x, y);
        }
        tpe.suggest()
    });
}

fn trace_benches() {
    use puffer_trace::Trace;
    let design = bench_design();
    // Ten Nesterov steps with and without a telemetry handle attached.
    // The disabled/no-sink rows must stay within noise of the untraced
    // row: a disabled sink is a no-op and allocates nothing per step.
    let step_run = |trace: Option<Trace>| {
        let mut placer = GlobalPlacer::new(&design, PlacerConfig::default()).expect("placer");
        if let Some(t) = trace {
            placer.set_trace(t);
        }
        for _ in 0..10 {
            placer.step();
        }
    };
    bench("trace", "ten_steps_untraced", 1, 10, || step_run(None));
    bench("trace", "ten_steps_disabled", 1, 10, || {
        step_run(Some(Trace::disabled()))
    });
    bench("trace", "ten_steps_no_sink", 1, 10, || {
        step_run(Some(Trace::enabled()))
    });
    let dir = std::env::temp_dir().join("puffer-bench-trace");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("steps.jsonl");
    bench("trace", "ten_steps_jsonl_sink", 1, 10, || {
        step_run(Some(Trace::with_sink(&path).expect("sink")))
    });
    // Micro-costs of the primitives themselves.
    let disabled = Trace::disabled();
    bench("trace", "span_disabled", 10, 100, || {
        for _ in 0..1000 {
            let _s = disabled.span("x");
        }
    });
    let enabled = Trace::enabled();
    bench("trace", "span_enabled", 10, 100, || {
        for _ in 0..1000 {
            let _s = enabled.span("x");
        }
    });
}

fn par_benches() {
    use puffer_bench::par::{serial_transform2d, serial_wa_reference, THREADS};
    use puffer_place::wa_wirelength_grad_threaded;

    let design = bench_design();
    let placement = snapshot(&design);
    let nl = design.netlist();

    // WA wirelength gradient: unchunked serial reference, then the
    // chunked deterministic-parallel path at 1/2/4/8 threads.
    bench("par", "wa_grad_serial_ref", 2, 20, || {
        serial_wa_reference(nl, &placement, 4.0)
    });
    for t in THREADS {
        bench("par", &format!("wa_grad_{t}t"), 2, 20, || {
            wa_wirelength_grad_threaded(nl, &placement, 4.0, t)
        });
    }

    // Electrostatic density gradient (scatter + forward DCT + field
    // syntheses + gather) on a persistent workspace.
    let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
    let model = DensityModel::new(&design, 64, 64);
    for t in THREADS {
        let mut ws = DensityWorkspace::new(&model, nl.num_cells(), t);
        bench("par", &format!("density_grad_{t}t"), 2, 20, || {
            ws.gradient(&model, nl, &placement, &widths)[0]
        });
    }

    // 2-D DCT on a Poisson-solver-sized grid: the allocating serial
    // reference, then the planned in-place pass on reused buffers.
    let (nx, ny) = (256, 256);
    let data: Vec<f64> = (0..nx * ny).map(|i| (i as f64 * 0.13).sin()).collect();
    bench("par", "transform2d_serial_ref", 2, 20, || {
        serial_transform2d(&data, nx, ny, dct2)
    });
    let mut grid = data.clone();
    let mut transposed = vec![0.0; data.len()];
    for t in THREADS {
        let mut lanes = vec![Vec::new(); t];
        bench("par", &format!("transform2d_{t}t"), 2, 20, || {
            grid.copy_from_slice(&data);
            transform2d_planned(&mut grid, nx, ny, (Kind::Dct2, Kind::Dct2), &mut transposed, &mut lanes);
            grid[0]
        });
    }
}

fn audit_benches() {
    use puffer::{Job, PufferConfig};
    use puffer_audit::Validate;
    let design = bench_design();
    let mut config = PufferConfig::default();
    config.placer.max_iters = 40;
    config.strategy.max_rounds = 1;
    // The full flow with and without the `--validate` stage observers.
    // The off row IS the no-observer baseline: when no observer is set the
    // stage boundaries skip straight past the hook, so having the audit
    // layer in the codebase costs nothing unless it is switched on.
    let flow_run = |validate: bool| {
        let mut job = Job::new(config.clone());
        if validate {
            job = job.with_observer(puffer_audit::flow_validator());
        }
        job.run(&design).expect("place")
    };
    bench("audit", "flow_validate_off", 1, 5, || flow_run(false));
    bench("audit", "flow_validate_on", 1, 5, || flow_run(true));
    // The standalone checkers, for sizing the per-boundary cost.
    bench("audit", "design_validate", 2, 20, || design.validate());
    let placement = design.initial_placement();
    bench("audit", "placement_validate", 2, 20, || {
        puffer_audit::PlacementAudit {
            design: &design,
            placement: &placement,
            stage: puffer_audit::PlacementStage::Global,
        }
        .validate()
    });
    // The full-workspace static analysis exactly as the `puffer lint` CI
    // gate runs it: every source rule (panic/threading/cast/unordered-iter/
    // wallclock/layering) plus the lock-order graph build over the
    // per-crate call graphs. Keeps the gate's wall-clock cost visible as
    // the rule set grows.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    bench("audit", "workspace_lint", 1, 5, || {
        puffer_audit::lint_workspace(&puffer_audit::LintConfig { root: root.clone() })
            .expect("workspace lint")
    });
}

fn main() {
    // `cargo bench` passes flags like `--bench`; the first non-flag
    // argument (if any) filters the groups to run.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    let groups: [(&str, fn()); 16] = [
        ("fft", fft_benches),
        ("par", par_benches),
        ("budget", budget_benches),
        ("rsmt", rsmt_benches),
        ("congestion", congestion_benches),
        ("padding", feature_benches),
        ("density", density_benches),
        ("placer", placer_benches),
        ("router", router_benches),
        ("legalize", legalize_benches),
        ("quadratic", quadratic_benches),
        ("detailed_place", dp_benches),
        ("layers", layer_benches),
        ("tpe", tpe_benches),
        ("trace", trace_benches),
        ("audit", audit_benches),
    ];
    for (name, run) in groups {
        if filter.is_empty() || name.contains(&filter) {
            run();
        }
    }
}
