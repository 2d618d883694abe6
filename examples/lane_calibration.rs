//! Where a second lane pays: times each kernel that sizes its lanes by its
//! work at one and at two lanes, in a flow-like sequence, on generated
//! CT_TOP designs at five sizes. A timing loop, not a test or a gate.
//!
//! Each `*_PER_LANE` constant (`puffer_place::{wirelength, density}`,
//! `puffer_congest::demand`, `puffer_route`) cites a run of this example;
//! `puffer_par::lanes` gives a kernel two lanes only at sizes where the
//! "win" column reads at least 10 %: the time two lanes save, over the
//! kernel's own one-lane time ("own"). Kernels without a public entry of
//! their own are timed inside the smallest public call that holds them,
//! with only their own lanes varied. The scatter and the gather share one:
//! the density gradient, whose own time for either is its one-lane time
//! less one evaluation's transforms (the other of the two, the overflow
//! sum and the coefficient loops stay in it, so both wins are
//! understated):
//!
//! | kernel | call timed | sized by |
//! |---|---|---|
//! | `wa` | `WaWorkspace::gradient` | pins |
//! | `scatter` | `DensityWorkspace::gradient`, scatter lanes only | cells |
//! | `transform` | one evaluation's transforms: `dct2_2d`, then the paired `synthesis_2d` of E_x and E_y | bins |
//! | `gather` | `DensityWorkspace::gradient`, gather lanes only | cells |
//! | `demand` | `try_build_demand` | nets |
//! | `decompose` | `puffer_route::decompose` | nets |
//! | `halves` | one evaluation, `WaWorkspace::gradient` then `DensityWorkspace::gradient`, against the two through `puffer_par::join` | cells |
//!
//! The `halves` row's "2 lanes" column is the two halves of one gradient
//! evaluation run side by side (every kernel inside them on one lane), as
//! `GpLanes::halves` 2 runs them; its one-lane column runs them in turn.
//!
//! Every design is first placed for a fixed number of global-placement
//! steps, so cells are spread as they are mid-flow. A kernel is then timed
//! where a flow runs it: each repetition moves every cell on the calling
//! thread (as a Nesterov update does) and runs the six kernels in turn,
//! the one under test on one or two lanes (alternating) and the others on
//! one; the `halves` evaluation runs only when it is under test, after
//! the six. Timed back to back instead, a kernel finds its data still in the
//! second core's cache and that core awake, and two lanes win at sizes
//! where they lose in a flow.
//!
//! ```text
//! cargo run --release --example lane_calibration [-- <scale> ...]
//! ```

use puffer_budget::clock::Stopwatch;
use puffer_congest::{build_capacity, try_build_demand, GCELL_ROWS, PIN_PENALTY};
use puffer_db::design::{Design, Placement};
use puffer_db::geom::Point;
use puffer_db::grid::Grid;
use puffer_db::netlist::CellId;
use puffer_fft::{dct2_2d, synthesis_2d, Kind, Lane};
use puffer_gen::{generate, presets};
use puffer_place::{
    DensityModel, DensityWorkspace, GlobalPlacer, GpLanes, PlacerConfig, WaWorkspace,
};

/// Global-placement steps before timing.
const PLACE_STEPS: usize = 80;

/// Wall-clock of the one-lane repetitions per kernel, in seconds.
const BUDGET_S: f64 = 3.0;

/// Each kernel's name and what it is sized by.
const KERNELS: [(&str, &str); 7] = [
    ("wa", "pins"),
    ("scatter", "cells"),
    ("transform", "bins"),
    ("gather", "cells"),
    ("demand", "nets"),
    ("decompose", "nets"),
    ("halves", "cells"),
];

/// The index of the `halves` row in [`KERNELS`].
const HALVES: usize = 6;

/// One placed design and a one- and a two-lane instance of every kernel's
/// state.
struct Bench<'a> {
    design: &'a Design,
    placement: Placement,
    /// The placed coordinates the repetitions move the cells around.
    home: Vec<(CellId, Point)>,
    model: DensityModel,
    widths: Vec<f64>,
    gamma: f64,
    gcells: Grid<f64>,
    rho: Vec<f64>,
    plane: Vec<f64>,
    wa: [WaWorkspace; 2],
    /// One- and two-lane density workspaces, varying the scatter's lanes.
    scatters: [DensityWorkspace; 2],
    /// The same, varying the gather's.
    gathers: [DensityWorkspace; 2],
    fft: [Vec<Lane>; 2],
}

impl<'a> Bench<'a> {
    fn new(design: &'a Design) -> Result<Self, Box<dyn std::error::Error>> {
        let mut placer = GlobalPlacer::new(
            design,
            PlacerConfig {
                threads: 2,
                max_iters: PLACE_STEPS,
                stop_overflow: 0.0,
                ..PlacerConfig::default()
            },
        )?;
        placer.run();
        let placement = placer.placement().clone();
        let nl = design.netlist();
        let home = nl
            .movable_cells()
            .map(|id| (id, placement.pos(id)))
            .collect();
        let cells = nl.num_cells();
        let dim = DensityModel::auto_dim(cells);
        let model = DensityModel::new(design, dim, dim);
        let scatter = |s| GpLanes {
            scatter: s,
            ..GpLanes::uniform(1)
        };
        let gather = |g| GpLanes {
            gather: g,
            ..GpLanes::uniform(1)
        };
        Ok(Bench {
            design,
            placement,
            home,
            widths: nl.cells().iter().map(|c| c.width).collect(),
            gamma: 5.0 * model.bin_w().min(model.bin_h()),
            gcells: build_capacity(design, GCELL_ROWS).0,
            rho: vec![0.0; dim * dim],
            plane: vec![0.0; dim * dim],
            wa: [WaWorkspace::new(1), WaWorkspace::new(2)],
            scatters: [
                DensityWorkspace::with_lanes(&model, cells, scatter(1)),
                DensityWorkspace::with_lanes(&model, cells, scatter(2)),
            ],
            gathers: [
                DensityWorkspace::with_lanes(&model, cells, gather(1)),
                DensityWorkspace::with_lanes(&model, cells, gather(2)),
            ],
            fft: [vec![Lane::default(); 1], vec![Lane::default(); 2]],
            model,
        })
    }

    fn items(&self, kernel: usize) -> usize {
        let nl = self.design.netlist();
        match kernel {
            0 => nl.num_pins(),
            1 | 3 | HALVES => nl.num_cells(),
            2 => self.rho.len(),
            _ => nl.num_nets(),
        }
    }

    /// Moves every movable cell by a fraction of a bin, on the calling
    /// thread: the `rep`-th of a cycle of small displacements.
    fn move_cells(&mut self, rep: usize) {
        let d = 0.01 * self.model.bin_w() * ((rep % 7) as f64 - 3.0);
        for &(id, p) in &self.home {
            self.placement.set(id, Point::new(p.x + d, p.y - d));
        }
    }

    /// Runs `kernel` on `lanes` lanes.
    fn run(&mut self, kernel: usize, lanes: usize) {
        let nl = self.design.netlist();
        let (p, w, m) = (&self.placement, &self.widths, &self.model);
        let k = lanes - 1;
        match kernel {
            0 => {
                self.wa[k].gradient(nl, p, self.gamma);
            }
            1 => {
                self.scatters[k].gradient(m, nl, p, w, 1.0);
            }
            2 => {
                let dim = m.mx();
                dct2_2d(&mut self.rho, dim, dim, &mut self.fft[k]);
                self.plane.copy_from_slice(&self.rho);
                synthesis_2d(
                    dim,
                    dim,
                    [
                        (&mut self.rho, (Kind::Dst3Shifted, Kind::Dct3)),
                        (&mut self.plane, (Kind::Dct3, Kind::Dst3Shifted)),
                    ],
                    &mut self.fft[k],
                );
            }
            3 => {
                self.gathers[k].gradient(m, nl, p, w, 1.0);
            }
            4 => {
                try_build_demand(self.design, p, &self.gcells, PIN_PENALTY, lanes).ok();
            }
            5 => {
                puffer_route::decompose(nl, p, &self.gcells, lanes).ok();
            }
            _ => {
                // Both halves on one-lane workspaces.
                let (wa, dens) = (&mut self.wa[0], &mut self.scatters[0]);
                let mut wa_half = || wa.gradient(nl, p, self.gamma);
                let mut density_half = || {
                    dens.gradient(m, nl, p, w, 1.0);
                };
                if lanes == 2 {
                    puffer_par::join(density_half, wa_half);
                } else {
                    wa_half();
                    density_half();
                }
            }
        }
    }

    /// One repetition: move the cells, then every kernel in turn on one
    /// lane but `kernel`, which runs on `lanes`; returns its time in ms.
    fn rep(&mut self, rep: usize, kernel: usize, lanes: usize) -> f64 {
        self.move_cells(rep);
        let mut took = 0.0;
        for k in 0..KERNELS.len() {
            if k == HALVES && kernel != HALVES {
                continue;
            }
            if k == 2 {
                // ρ is rebuilt on the calling thread before a transform, as
                // the Poisson solve does; the transform alone is timed.
                self.rho.fill(1.0 + (rep % 5) as f64);
            }
            let lanes = if k == kernel { lanes } else { 1 };
            let sw = Stopwatch::start();
            self.run(k, lanes);
            if k == kernel {
                took = sw.elapsed_secs() * 1e3;
            }
        }
        took
    }

    /// Quartiles of alternating one- and two-lane calls of `kernel`, in ms.
    fn time(&mut self, kernel: usize) -> [[f64; 3]; 2] {
        self.rep(0, kernel, 2);
        let probe = Stopwatch::start();
        self.rep(0, kernel, 1);
        let reps = ((BUDGET_S / probe.elapsed_secs().max(1e-6)) as usize).clamp(15, 300);
        let mut took = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
        for rep in 0..reps {
            for lanes in [1, 2] {
                took[lanes - 1].push(self.rep(rep, kernel, lanes));
            }
        }
        took.map(|mut t| quartiles(&mut t))
    }
}

fn quartiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    [q(0.25), q(0.5), q(0.75)]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scales: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| a.parse())
        .collect::<Result<_, _>>()?;
    let scales = if scales.is_empty() {
        vec![0.001, 0.0034, 0.01, 0.02, 0.05]
    } else {
        scales
    };
    println!(
        "available_parallelism = {}; {PLACE_STEPS} GP steps before timing; ms per call: q1 / median / q3",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:>7} {:>9} {:>8} {:>6} {:>26} {:>26} {:>8} {:>6}",
        "scale", "kernel", "items", "of", "1 lane", "2 lanes", "own", "win"
    );
    for scale in scales {
        let design = generate(&presets::ct_top(scale)?)?;
        let mut bench = Bench::new(&design)?;
        let medians: Vec<[[f64; 3]; 2]> = (0..KERNELS.len()).map(|k| bench.time(k)).collect();
        for (kernel, (name, unit)) in KERNELS.iter().enumerate() {
            let [one, two] = medians[kernel];
            // The scatter's and the gather's own one-lane time: their
            // gradient's, less one evaluation's transforms.
            let own = match kernel {
                1 | 3 => one[1] - medians[2][0][1],
                _ => one[1],
            };
            let fmt = |q: [f64; 3]| format!("{:>7.3} / {:>7.3} / {:>7.3}", q[0], q[1], q[2]);
            println!(
                "{scale:>7} {name:>9} {:>8} {unit:>6} {:>26} {:>26} {:>8.3} {:>5.1}%",
                bench.items(kernel),
                fmt(one),
                fmt(two),
                own,
                100.0 * (one[1] - two[1]) / own
            );
        }
        let gp = GpLanes::for_design(&design, 2);
        println!(
            "{scale:>7} GP at --threads 2: halves {} lanes wa {} scatter {} transform {} gather {}",
            gp.halves, gp.wa, gp.scatter, gp.transform, gp.gather
        );
    }
    Ok(())
}
