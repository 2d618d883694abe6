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
//! The two-thread placer runs the WA and density halves side by side, one
//! lane each. What only exists with more than one lane inside a kernel —
//! the density pipeline's sparse chunk lists and the WA kernel's per-chunk
//! gradient lists, all persistent — this design is too small to get from
//! the placer, so the test drives a two-lane `DensityWorkspace` and
//! `WaWorkspace` directly. (At this size neither list would reach the
//! `mmap` threshold even if rebuilt per call — `wirelength.rs` pins the WA
//! buffers' addresses directly — so this case guards the grids.)
#![cfg(target_os = "linux")]

use puffer_gen::{generate, GeneratorConfig};
use puffer_place::{
    DensityModel, DensityWorkspace, GlobalPlacer, GpLanes, PlacerConfig, WaWorkspace,
};

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

/// Fewer than 50 minor faults per call of `f`, over 50 calls after 10
/// warm-up calls.
fn assert_warm_calls_do_not_fault(what: &str, mut f: impl FnMut()) {
    for _ in 0..10 {
        f();
    }
    const CALLS: u64 = 50;
    let before = minor_faults();
    for _ in 0..CALLS {
        f();
    }
    let per_call = (minor_faults() - before) / CALLS;
    assert!(
        per_call < 50,
        "{what}: {per_call} minor faults per warm call"
    );
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
        assert_warm_calls_do_not_fault(&format!("step, threads {threads}"), || {
            placer.step();
        });
        if threads == 1 {
            continue;
        }
        // Both kernels on two lanes, at the placement the steps reached.
        let netlist = design.netlist();
        let placement = placer.placement();
        let eff_width: Vec<f64> = netlist.cells().iter().map(|c| c.width).collect();
        let model = DensityModel::new(&design, 128, 128);
        let mut density =
            DensityWorkspace::with_lanes(&model, netlist.num_cells(), GpLanes::uniform(2));
        let mut wa = WaWorkspace::new(2);
        let target = PlacerConfig::default().target_density;
        assert_warm_calls_do_not_fault("two-lane evaluation", || {
            density.gradient(&model, netlist, placement, &eff_width, target);
            wa.gradient(netlist, placement, model.bin_w());
        });
    }
}
