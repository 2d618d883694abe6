//! Regression test for allocation churn in the Nesterov step: once warm, a
//! step must not keep asking the kernel for grid-sized memory.
//!
//! Every fresh allocation of 128 KiB or more is an `mmap`, and its pages
//! fault in one by one on first touch. Before the density pipeline kept a
//! persistent workspace, one evaluation at 128² bins made ~45 of them —
//! thousands of minor faults per step, a third of the run's CPU time in the
//! kernel. The fault count is read from `/proc/self/stat`, so this needs no
//! counting allocator; the file holds this one test so that nothing else
//! runs in the process while it counts.
//!
//! The two-worker case covers what only exists with more than one worker:
//! the density pipeline's sparse chunk lists and the WA kernel's per-chunk
//! gradient lists, all persistent. (At this size neither would reach the
//! `mmap` threshold even if rebuilt per call — `wirelength.rs` pins the WA
//! buffers' addresses directly — so this case guards the grids.)
#![cfg(target_os = "linux")]

use puffer_gen::{generate, GeneratorConfig};
use puffer_place::{GlobalPlacer, PlacerConfig};

/// Minor faults of this process so far: field 10 of `/proc/self/stat`
/// (counting from 1, the command in parentheses being field 2).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    let after_command = &stat[stat.rfind(')').unwrap() + 1..];
    after_command
        .split_whitespace()
        .nth(7)
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn warm_steps_do_not_fault_in_fresh_grids() {
    // More than 64² cells, so the automatic bin grid is 128².
    let design = generate(&GeneratorConfig {
        num_cells: 4200,
        num_nets: 4600,
        num_macros: 2,
        ..GeneratorConfig::default()
    })
    .unwrap();
    for threads in [1, 2] {
        let config = PlacerConfig {
            threads,
            ..PlacerConfig::default()
        };
        let mut placer = GlobalPlacer::new(&design, config).unwrap();
        assert_eq!(placer.density_dims(), (128, 128));
        for _ in 0..10 {
            placer.step();
        }
        const STEPS: u64 = 50;
        let before = minor_faults();
        for _ in 0..STEPS {
            placer.step();
        }
        let per_step = (minor_faults() - before) / STEPS;
        assert!(
            per_step < 50,
            "threads {threads}: {per_step} minor faults per warm step"
        );
    }
}
