//! Deterministic-parallelism equivalence suite: every GP kernel routed
//! through `puffer-par` must produce **bit-identical** results for any
//! thread count, and a full flow run at `--threads 4` must write a
//! byte-identical checkpoint journal to a `--threads 1` run.
//!
//! Bitwise comparison (`f64::to_bits`) is deliberate: approximate equality
//! would hide reduction-order drift that breaks checkpoint/resume, golden
//! metrics, and SMBO trajectory reproducibility.

use puffer::{CheckpointPolicy, Job, PufferConfig};
use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_fft::{dct2, dct3, dst3_shifted, transform2d_mixed_threaded, transform2d_threaded};
use puffer_gen::{generate, GeneratorConfig};
use puffer_place::{
    wa_wirelength_grad_threaded, DensityModel, GlobalPlacer, GpLanes, PlacerConfig, WaWorkspace,
};
use puffer_rng::StdRng;

const THREADS: [usize; 4] = [1, 2, 3, 8];

fn test_design(cells: usize, nets: usize, seed: u64) -> Design {
    generate(&GeneratorConfig {
        num_cells: cells,
        num_nets: nets,
        num_macros: 2,
        hotspot: 0.5,
        seed,
        ..GeneratorConfig::default()
    })
    .unwrap()
}

/// A deterministic semi-spread placement exercising interior and boundary
/// bins alike.
fn jittered_placement(design: &Design, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let region = design.region();
    let mut p = design.initial_placement();
    for (id, cell) in design.netlist().iter_cells() {
        if !cell.is_movable() {
            continue;
        }
        let x = region.xl + rng.next_f64() * region.width();
        let y = region.yl + rng.next_f64() * region.height();
        p.set(id, Point::new(x, y));
    }
    p
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn wirelength_gradient_is_bit_identical_across_thread_counts() {
    for seed in [1u64, 7] {
        let d = test_design(600, 700, seed);
        let p = jittered_placement(&d, seed ^ 0xABCD);
        let base = wa_wirelength_grad_threaded(d.netlist(), &p, 4.0, 1);
        for t in THREADS {
            let got = wa_wirelength_grad_threaded(d.netlist(), &p, 4.0, t);
            assert_eq!(
                got.value.to_bits(),
                base.value.to_bits(),
                "seed {seed} threads {t}: value differs"
            );
            assert_eq!(
                bits(&got.grad_x),
                bits(&base.grad_x),
                "seed {seed} threads {t}: grad_x differs"
            );
            assert_eq!(
                bits(&got.grad_y),
                bits(&base.grad_y),
                "seed {seed} threads {t}: grad_y differs"
            );
        }
    }

    // A workspace that has already evaluated something else — another γ, a
    // larger design — must answer as a fresh one does:
    // every list, scratch array and gradient slot it holds is stale.
    let large = test_design(600, 700, 1);
    let large_p = jittered_placement(&large, 0xABCC);
    // Fewer cells, fewer nets, other chunk boundaries.
    let small = test_design(150, 90, 7);
    let small_p = jittered_placement(&small, 0x51);
    let evaluations = [
        (&large, &large_p, 4.0),
        (&large, &large_p, 0.25),
        (&small, &small_p, 0.25),
        (&large, &large_p, 4.0),
    ];
    for t in THREADS {
        let mut ws = WaWorkspace::new(t);
        for (k, (d, p, gamma)) in evaluations.into_iter().enumerate() {
            let what = format!("threads {t}, evaluation {k}");
            let fresh = wa_wirelength_grad_threaded(d.netlist(), p, gamma, 1);
            let value = ws.gradient(d.netlist(), p, gamma);
            assert_eq!(value.to_bits(), fresh.value.to_bits(), "{what}: value");
            assert_eq!(bits(ws.grad_x()), bits(&fresh.grad_x), "{what}: grad_x");
            assert_eq!(bits(ws.grad_y()), bits(&fresh.grad_y), "{what}: grad_y");
        }
    }
}

#[test]
fn density_evaluation_is_bit_identical_across_thread_counts() {
    let d = test_design(500, 560, 3);
    let nl = d.netlist();
    let p = jittered_placement(&d, 99);
    let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
    let model = DensityModel::new(&d, 64, 64);
    let base = model.evaluate_threaded(nl, &p, &widths, 0.9, 1);
    for t in THREADS {
        let got = model.evaluate_threaded(nl, &p, &widths, 0.9, t);
        assert_eq!(
            got.energy.to_bits(),
            base.energy.to_bits(),
            "threads {t}: energy differs"
        );
        assert_eq!(
            got.overflow.to_bits(),
            base.overflow.to_bits(),
            "threads {t}: overflow differs"
        );
        assert_eq!(bits(&got.grad_x), bits(&base.grad_x), "threads {t}: grad_x");
        assert_eq!(bits(&got.grad_y), bits(&base.grad_y), "threads {t}: grad_y");
    }
}

/// Past the 4096-cell step of `DensityModel::auto_dim`: 128² bins, where a
/// grid no longer fits a worker's cache, every chunk of the scatter spans
/// the whole die and the transposes cross many tiles — the regime the
/// 32²-bin cases above never reach. From two threads on, the WA and density
/// halves of every evaluation run at once on this design.
#[test]
fn placer_steps_on_a_128_bin_grid_are_bit_identical_across_thread_counts() {
    let d = test_design(4200, 4400, 5);
    let run = |threads: usize| {
        let config = PlacerConfig {
            threads,
            ..PlacerConfig::default()
        };
        let mut placer = GlobalPlacer::new(&d, config).unwrap();
        assert_eq!(placer.density_dims(), (128, 128));
        let stats: Vec<_> = (0..4).map(|_| placer.step()).collect();
        // A padding change mid-run drops the solver, and the next step
        // re-seeds it, identically everywhere.
        let pad = d.netlist().cells().iter().map(|c| 0.25 * c.width).collect();
        placer.set_padding(pad);
        let padded = placer.step();
        // A NaN burst: the sentinel rolls back and the next step
        // re-bootstraps from the healthy solution.
        placer.chaos_poison_nan(40);
        let recovered: Vec<_> = (0..2).map(|_| placer.step()).collect();
        assert_eq!(placer.recoveries(), 1, "threads {threads}");
        // A restored snapshot is cold: its first step evaluates the opening
        // gradient afresh.
        let mid = placer.snapshot();
        placer.step();
        placer.restore(mid).unwrap();
        let last = placer.step();
        let snapshot = placer.snapshot();
        // `{:?}` of an f64 is its shortest round-trip form: equal text is
        // equal bits (and it tells −0.0 from 0.0, which `==` does not).
        (
            format!("{stats:?} {padded:?} {recovered:?} {last:?} {snapshot:?}"),
            snapshot.placement,
        )
    };
    let base = run(1);
    let nl = d.netlist();
    let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
    let model = DensityModel::new(&d, 128, 128);
    let eval_base = model.evaluate_threaded(nl, &base.1, &widths, 1.0, 1);
    for t in [2usize, 3, 8] {
        assert_eq!(GpLanes::for_design(&d, t).halves, 2, "threads {t}");
        assert!(run(t) == base, "threads {t}: placer trajectory differs");
        let eval = model.evaluate_threaded(nl, &base.1, &widths, 1.0, t);
        assert_eq!(
            eval.energy.to_bits(),
            eval_base.energy.to_bits(),
            "threads {t}: energy"
        );
        assert_eq!(
            eval.overflow.to_bits(),
            eval_base.overflow.to_bits(),
            "threads {t}: overflow"
        );
        assert_eq!(
            bits(&eval.grad_x),
            bits(&eval_base.grad_x),
            "threads {t}: grad_x"
        );
        assert_eq!(
            bits(&eval.grad_y),
            bits(&eval_base.grad_y),
            "threads {t}: grad_y"
        );
    }
}

#[test]
fn transforms_are_bit_identical_across_thread_counts() {
    let (nx, ny) = (64, 32);
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<f64> = (0..nx * ny).map(|_| rng.next_f64() * 20.0 - 10.0).collect();

    let serial_same = transform2d_threaded(&data, nx, ny, dct2, 1);
    let serial_mixed = transform2d_mixed_threaded(&data, nx, ny, dst3_shifted, dct3, 1);
    for t in THREADS {
        assert_eq!(
            bits(&transform2d_threaded(&data, nx, ny, dct2, t)),
            bits(&serial_same),
            "threads {t}: transform2d"
        );
        assert_eq!(
            bits(&transform2d_mixed_threaded(
                &data,
                nx,
                ny,
                dst3_shifted,
                dct3,
                t
            )),
            bits(&serial_mixed),
            "threads {t}: transform2d_mixed"
        );
    }
}

#[test]
fn full_place_run_writes_byte_identical_journal_for_1_and_4_threads() {
    let d = test_design(300, 340, 11);
    let dir = std::env::temp_dir().join("puffer-par-equivalence");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The lanes each GP kernel was given, as the run's `flow.init` record
    // states them.
    let lanes_of = |metrics: &std::path::Path| -> Vec<(String, f64)> {
        let records = puffer_trace::read_jsonl(metrics).unwrap();
        let init = records
            .iter()
            .find(|r| r.kind() == Some("flow.init"))
            .expect("a flow.init record");
        [
            "gp_halves",
            "lanes_wa",
            "lanes_scatter",
            "lanes_transform",
            "lanes_gather",
        ]
        .into_iter()
        .map(|f| (f.to_string(), init.num(f).expect(f)))
        .collect()
    };
    let run = |threads: usize| -> (Vec<u8>, Vec<(f64, f64)>) {
        let mut cfg = PufferConfig::default();
        cfg.placer.max_iters = 60;
        cfg.placer.stop_overflow = 0.15;
        cfg.placer.threads = threads;
        cfg.estimator.threads = threads;
        cfg.strategy.max_rounds = 1;
        let policy = CheckpointPolicy {
            path: dir.join(format!("run-t{threads}.pj")),
            every: 20,
            keep_history: false,
        };
        let metrics = dir.join(format!("run-t{threads}.jsonl"));
        let trace = puffer_trace::Trace::with_sink(&metrics).unwrap();
        let result = Job::new(cfg)
            .with_checkpoints(policy.clone())
            .with_trace(trace)
            .run(&d)
            .unwrap();
        // 300 cells are below every kernel's one lane's worth and below
        // two halves' worth: `--threads` is an upper bound, and this run
        // never leaves the calling thread.
        let lanes = GpLanes::for_design(&d, threads);
        assert_eq!(lanes, GpLanes::uniform(1), "threads {threads}");
        for (field, got) in lanes_of(&metrics) {
            assert_eq!(got, 1.0, "threads {threads}: {field}");
        }
        let journal = std::fs::read(&policy.path).unwrap();
        let coords = (0..d.netlist().num_cells())
            .map(|i| {
                let p = result.placement.pos(puffer_db::netlist::CellId(i as u32));
                (p.x, p.y)
            })
            .collect();
        (journal, coords)
    };

    let (journal_1, coords_1) = run(1);
    let (journal_4, coords_4) = run(4);
    assert_eq!(
        journal_1, journal_4,
        "checkpoint journals must be byte-identical for --threads 1 vs 4"
    );
    for (i, (a, b)) in coords_1.iter().zip(&coords_4).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "cell {i} x differs");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "cell {i} y differs");
    }
}
