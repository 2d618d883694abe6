//! What one `puffer-par` fork-join costs next to the work it forks: a
//! timing loop, not a test or a gate.
//!
//! [`puffer_par::for_each_block`] spawns a scoped thread per extra worker
//! on every call and joins it before returning. A kernel whose per-worker
//! share is shorter than the spawn + wake-up + join never overlaps: the
//! caller has finished its own share before the worker starts. This loop
//! gives each of two lanes a busy-wait of a known length and times the
//! call, so the crossover can be read off: a call that took `spin` ran its
//! lanes side by side, one that took `2 × spin` ran them one after the
//! other. EXPERIMENTS.md ("PR 22") records a run next to the density and
//! WA kernels' per-call times at 128² bins.
//!
//! ```text
//! cargo run --release -p puffer-par --example fork_join_cost
//! ```

use puffer_budget::clock::Stopwatch;
use std::time::Duration;

const CALLS: usize = 400;

fn spin(d: Duration) {
    let sw = Stopwatch::start();
    while sw.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Wall-clock microseconds of `CALLS` calls, each handing one block to
/// each of `lanes` lanes that spins `spin_us` µs, sorted.
fn time_calls(lanes: usize, spin_us: u64) -> Vec<f64> {
    let mut blocks = vec![0u8; lanes];
    let mut lane_state = vec![(); lanes];
    let mut took: Vec<f64> = (0..CALLS)
        .map(|_| {
            let sw = Stopwatch::start();
            puffer_par::for_each_block(&mut blocks, 1, &mut lane_state, |_, _, ()| {
                spin(Duration::from_micros(spin_us));
            });
            sw.elapsed_secs() * 1e6
        })
        .collect();
    took.sort_by(f64::total_cmp);
    took
}

fn main() {
    println!(
        "available_parallelism = {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("{CALLS} calls per row, µs per call: min / q1 / median / q3 / max");
    for spin_us in [0, 50, 100, 200, 400, 800] {
        for lanes in [1, 2] {
            let t = time_calls(lanes, spin_us);
            let q = |f: f64| t[((t.len() - 1) as f64 * f).round() as usize];
            println!(
                "spin {spin_us:>4} µs x {lanes} lane(s): {:>7.1} / {:>7.1} / {:>7.1} / {:>7.1} / {:>7.1}",
                t[0],
                q(0.25),
                q(0.5),
                q(0.75),
                t[t.len() - 1]
            );
        }
    }
}
