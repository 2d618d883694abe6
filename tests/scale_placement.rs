//! Million-cell placement capability smoke (nightly-style, `--features
//! expensive`; run it with `--release`).
//!
//! Generates CT_TOP at scale 1.0, runs a short PUFFER flow on it with the
//! size-aware strategy ladder in `auto`, and asserts the process peak RSS
//! stayed under a documented ceiling. It lives in its own file — its own
//! process — because VmHWM is a per-process high-water mark and
//! `scale_regression.rs` asserts a lower ceiling on ingestion alone.
//!
//! `scripts/ci.sh` runs this as a nightly smoke under `PUFFER_NIGHTLY=1`.
#![cfg(feature = "expensive")]

use puffer::{Job, PufferConfig, ScaleClass};
use puffer_gen::{generate, presets};

/// Peak-RSS ceiling for the million-cell placement. The dominant terms
/// are the netlist (struct-of-arrays pins plus CSR membership), the
/// placer's per-cell state vectors, and the FFT grids; all grow linearly
/// in cells/pins. The full flow on CT_TOP at scale 1.0 (1.27M cells, 3.8M
/// pins) measures ~0.63 GiB high-water; the ceiling sits ~3x above that
/// to catch superlinear regressions, not noise.
const MAX_RSS_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// The test exists to prove million-cell capability, so a preset change
/// that shrinks the design below this must fail rather than pass cheaply.
const MIN_CELLS: usize = 1_000_000;

/// GP iterations. The test bounds *memory*, not quality: a few iterations
/// touch every allocation the full flow makes (placer state, congestion
/// grids, padding, legalization scratch).
const GP_ITERS: usize = 6;

#[test]
fn million_cell_placement_stays_under_the_rss_ceiling() {
    // CT_TOP: 1.27M cells and the cleanest congestion profile, so the
    // smoke measures memory scaling rather than pathological padding.
    let design = generate(&presets::ct_top(1.0).expect("scale 1.0 is valid")).expect("generate");
    let cells = design.stats().movable_cells;
    assert!(
        cells >= MIN_CELLS,
        "CT_TOP at scale 1.0 has only {cells} movable cells"
    );
    let scale_class = ScaleClass::classify(design.netlist().num_cells());

    let mut cfg = PufferConfig::default();
    cfg.placer.max_iters = GP_ITERS;
    let result = Job::new(cfg).run(&design).expect("million-cell flow");
    assert!(result.hpwl.is_finite() && result.hpwl > 0.0);

    let Some(peak) = puffer_budget::mem::peak_rss_bytes() else {
        eprintln!("skipping RSS assertion: /proc/self/status unavailable");
        return;
    };
    eprintln!(
        "[scale] {}: {cells} cells ({scale_class}), {} GP iterations, {:.1}s, \
         peak RSS {:.2} GiB (ceiling {:.0} GiB)",
        design.name(),
        result.gp_iterations,
        result.runtime_s,
        peak as f64 / (1u64 << 30) as f64,
        MAX_RSS_BYTES as f64 / (1u64 << 30) as f64
    );
    assert!(
        peak <= MAX_RSS_BYTES,
        "peak RSS {peak} exceeds the documented {MAX_RSS_BYTES}-byte ceiling"
    );
}
