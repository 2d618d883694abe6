//! Electrostatic density model (paper §II-B, Eq. (3)–(6)).
//!
//! Cells are charges whose quantity equals their (padded) area; the density
//! penalty is the total electric potential energy of the system. The
//! potential solves the Poisson equation on the bin grid with Neumann
//! boundaries, via DCT (the cosine expansion of Eq. (4)–(5)):
//!
//! ```text
//! a_{u,v}  = Σ_{m,n} ρ(m,n)·cos(ω_u m̃)·cos(ω_v ñ)        (forward DCT-II)
//! ψ(m,n)   ∝ Σ_{u,v} a_{u,v}/(ω_u²+ω_v²)·cos·cos          (inverse DCT-III)
//! E_x(m,n) ∝ Σ_{u,v} a_{u,v}·ω_u/(ω_u²+ω_v²)·sin·cos      (DST×DCT)
//! ```
//!
//! Fixed macros contribute a static charge map computed once. Cells smaller
//! than a bin are smoothed to bin size with their charge preserved, the
//! standard ePlace local smoothing.
//!
//! Three invariants carry the pipeline's bits and its safety net:
//!
//! * **The charge map is the chunk partials added in chunk order, and each
//!   bin takes at most one addend per chunk.** How a chunk's bins are found
//!   (a list of the bins its splats touched) and in what order they are
//!   visited is therefore free; see [`DensityWorkspace`]'s scatter phase.
//! * **A cell's bins are found once per evaluation.** The scatter writes
//!   down every placed cell's overlap walk ([`puffer_db::grid::Walk`]) and
//!   the gather replays it: the gather walks no grid itself.
//! * **The overflow is non-finite whenever a charge bin is.** A Nesterov
//!   step reads nothing of the density system but the gradient and the
//!   overflow, so the overflow is what shows the divergence sentinel a
//!   poisoned map; its sum is written to let NaN through.

use crate::GpLanes;
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_db::geom::Rect;
use puffer_db::grid::{Grid, Walk};
use puffer_db::netlist::{CellId, Netlist};
use puffer_fft::{dct2_2d, synthesis_2d, Kind, Lane};
use std::f64::consts::PI;
use std::ops::Range;

/// Cells one lane of the charge scatter ([`DensityWorkspace`]'s phase 1)
/// must have to pay for its spawn. `examples/lane_calibration.rs`
/// (EXPERIMENTS.md, "Lane calibration"): two lanes won 13–37 % from 25 K
/// cells up, −2 to +17 % at 12.7 K; the second lane starts at 18 K.
pub(crate) const SCATTER_CELLS_PER_LANE: usize = 9_000;

/// Bins one lane of the 2-D transforms must have to pay for its spawn.
/// Same calibration, timing one evaluation's paired passes (0.38–0.46 ms
/// at 128² on one lane): two lanes lost 124–144 % at 128² bins, and at
/// 256² lost 39 % in one run and won 13 % in another, so the second lane
/// still starts at 512².
pub(crate) const TRANSFORM_BINS_PER_LANE: usize = 65_536;

/// Cells one lane of the field gather must have to pay for its spawn. Same
/// calibration, against the gather's own time: two lanes won 21–62 % from
/// 12.7 K cells up but −5 to +6 % at 4.3 K; the second lane starts at
/// 7.4 K. Unconfirmed since the gather replays the scatter's walks: three
/// later runs per size (EXPERIMENTS.md, "Concurrent halves") read −35 to
/// +7 % up to 63 K cells and −2 to +29 % at 127 K and 254 K, no size 10 %
/// in every run. Kept while `scripts/ci.sh`'s multi-lane smoke asserts a
/// two-lane gather: past 254 K cells it would take 95 s a run.
pub(crate) const GATHER_CELLS_PER_LANE: usize = 3_700;

/// Result of one density evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityEval {
    /// Total potential energy `Σ qᵢ·ψ(binᵢ)` (the `D` of Eq. (3)).
    pub energy: f64,
    /// ∂D/∂x per cell (zero for fixed cells).
    pub grad_x: Vec<f64>,
    /// ∂D/∂y per cell.
    pub grad_y: Vec<f64>,
    /// Density overflow: `Σ_b max(0, ρ_b − target·free_b) / Σ movable area`.
    /// This is the quantity compared against the paper's trigger threshold τ.
    pub overflow: f64,
}

/// The electrostatic density system for one design.
///
/// Construction precomputes the fixed-macro charge map and per-bin free
/// capacity. The per-iteration work runs in a [`DensityWorkspace`], which
/// the optimizer keeps across iterations; [`DensityModel::evaluate_threaded`] is the
/// one-shot form over a temporary workspace.
#[derive(Debug, Clone)]
pub struct DensityModel {
    region: Rect,
    mx: usize,
    my: usize,
    fixed_rho: Grid<f64>,
    /// Extra static charge injected on top of the macros (white-space
    /// allocation: virtual charge in congested regions pushes cells out).
    extra_rho: Grid<f64>,
    free_area: Grid<f64>,
    movable_area: f64,
}

impl DensityModel {
    /// Builds the model with an `mx × my` bin grid (both powers of two).
    ///
    /// # Panics
    ///
    /// Panics if `mx` or `my` is not a power of two.
    pub fn new(design: &Design, mx: usize, my: usize) -> Self {
        assert!(
            mx.is_power_of_two() && my.is_power_of_two(),
            "bin grid must be 2^k"
        );
        let region = design.region();
        let mut fixed_rho: Grid<f64> = Grid::new(region, mx, my);
        let mut free_area: Grid<f64> = Grid::new(region, mx, my);
        let bin_area = fixed_rho.dx() * fixed_rho.dy();
        free_area.fill(bin_area);
        for (_, shape) in design.macro_shapes() {
            let clipped = shape.intersection(&region);
            fixed_rho.splat(&clipped, clipped.area());
        }
        // Free capacity per bin = bin area − macro coverage (clamped ≥ 0).
        for iy in 0..my {
            for ix in 0..mx {
                let blocked = *fixed_rho.at(ix, iy);
                *free_area.at_mut(ix, iy) = (bin_area - blocked).max(0.0);
            }
        }
        DensityModel {
            region,
            mx,
            my,
            extra_rho: Grid::new(region, mx, my),
            fixed_rho,
            free_area,
            movable_area: design.netlist().movable_area(),
        }
    }

    /// Replaces the extra static charge map (white-space allocation):
    /// positive charge in a bin repels movable cells from it, reserving
    /// the space for routing. Pass a zero grid to clear.
    ///
    /// # Panics
    ///
    /// Panics if the grid's shape differs from the bin grid.
    pub fn set_extra_charge(&mut self, extra: Grid<f64>) {
        assert_eq!(extra.nx(), self.mx, "extra-charge grid width mismatch");
        assert_eq!(extra.ny(), self.my, "extra-charge grid height mismatch");
        self.extra_rho = extra;
    }

    /// Picks a bin-grid dimension for a cell count: the smallest power of
    /// two ≥ √cells, clamped to `[32, 512]` (ePlace's usual operating range).
    pub fn auto_dim(num_cells: usize) -> usize {
        let target = cast::ceil_idx(cast::idx_f64(num_cells).sqrt());
        target.next_power_of_two().clamp(32, 512)
    }

    /// Bin grid width.
    pub fn mx(&self) -> usize {
        self.mx
    }

    /// Bin grid height.
    pub fn my(&self) -> usize {
        self.my
    }

    /// Bin width in database units: the bin grids' cell width, computed
    /// once with them.
    pub fn bin_w(&self) -> f64 {
        self.fixed_rho.dx()
    }

    /// Bin height in database units.
    pub fn bin_h(&self) -> f64 {
        self.fixed_rho.dy()
    }

    /// Evaluates energy, gradient, and overflow for the given placement
    /// over up to `threads` workers: every phase of a [`DensityWorkspace`]
    /// once, over a temporary workspace, and so **bit-identical** for any
    /// thread count (each phase states its own argument).
    ///
    /// `eff_width[i]` is the effective (physical + padding) width of cell
    /// `i`; pass the raw widths when no padding is active. `target_density`
    /// scales per-bin free capacity for the overflow metric only.
    ///
    /// # Panics
    ///
    /// Panics if `eff_width.len()` differs from the cell count.
    pub fn evaluate_threaded(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        eff_width: &[f64],
        target_density: f64,
        threads: usize,
    ) -> DensityEval {
        let cells = Cells {
            netlist,
            placement,
            eff_width,
        };
        let mut ws =
            DensityWorkspace::with_lanes(self, netlist.num_cells(), GpLanes::uniform(threads));
        ws.charge(self, &cells);
        let overflow = ws.overflow(self, target_density);
        ws.solve(self);
        let energy = ws.potential_energy(self);
        ws.field_gradient(self, &cells);
        let (grad_x, grad_y) = ws.grad.iter().copied().unzip();
        DensityEval {
            energy,
            grad_x,
            grad_y,
            overflow,
        }
    }

    /// The movable-charge density map alone (diagnostics and tests): the
    /// very map [`DensityModel::evaluate_threaded`] solves on.
    ///
    /// # Panics
    ///
    /// Panics if `eff_width.len()` differs from the cell count.
    pub fn movable_density(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        eff_width: &[f64],
    ) -> Grid<f64> {
        let mut ws = DensityWorkspace::with_lanes(self, netlist.num_cells(), GpLanes::uniform(1));
        ws.charge(
            self,
            &Cells {
                netlist,
                placement,
                eff_width,
            },
        );
        ws.movable
    }

    /// Where cell `i` sits in the charge system.
    fn footprint(&self, cells: &Cells<'_>, i: usize) -> Footprint {
        let cell = &cells.netlist.cells()[i];
        if !cell.is_movable() {
            return Footprint::Fixed;
        }
        let width = cells.eff_width[i];
        let charge = cells.charge(i);
        let p = cells.placement.pos(CellId(cast::idx_u32(i)));
        if !p.x.is_finite() || !p.y.is_finite() {
            return Footprint::Poisoned { charge };
        }
        // Cells smaller than a bin are smoothed to bin size, charge kept.
        let rect = Rect::from_center(
            self.region.clamp_point(p),
            width.max(self.bin_w()),
            cell.height.max(self.bin_h()),
        );
        Footprint::Placed { rect, charge }
    }
}

/// The inputs that change between evaluations.
struct Cells<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    eff_width: &'a [f64],
}

impl Cells<'_> {
    /// Cell `i`'s charge: its effective area.
    fn charge(&self, i: usize) -> f64 {
        self.eff_width[i] * self.netlist.cells()[i].height
    }
}

enum Footprint {
    /// Not movable: part of the static charge map, no gradient.
    Fixed,
    /// A non-finite coordinate has no meaningful bin. The cell's whole
    /// charge counts as overflow and its gradient is NaN, which leaves the
    /// recovery to the divergence sentinel (it sees the NaN wirelength).
    Poisoned { charge: f64 },
    /// The smoothed rectangle the charge is spread over.
    Placed { rect: Rect, charge: f64 },
}

/// What one chunk of cells deposits, as the ordered merge consumes it, and
/// the walks it deposited through, as the gather replays them.
#[derive(Debug, Clone, Default)]
struct ChunkCharge {
    /// `(bin, charge)` for every bin the chunk charged; empty for the
    /// chunks whose owner merged them directly.
    bins: Vec<(usize, f64)>,
    /// Charge of the chunk's poisoned cells.
    lost: f64,
    /// One walk per cell of the chunk, in cell order: the one its charge
    /// was splatted through, or the default walk for a fixed or poisoned
    /// cell.
    walks: Vec<Walk>,
    /// The walks' operands, back to back in the same order.
    operands: Vec<f64>,
}

/// One scatter worker's scratch, kept across evaluations: a dense grid that
/// is `+0.0` everywhere between chunks, and the bins the chunk in hand has
/// moved off `+0.0`.
#[derive(Debug)]
struct ScatterScratch {
    dense: Grid<f64>,
    touched: Vec<usize>,
}

/// One scatter worker's view: its scratch, and — for the worker that owns
/// the head of the chunk list — the map itself.
struct ScatterLane<'a> {
    scratch: &'a mut ScatterScratch,
    direct: Option<&'a mut Grid<f64>>,
}

/// Every buffer the per-iteration density pipeline needs, allocated once
/// and reused: three bin grids, one scatter scratch per scatter lane, one
/// [`Lane`] per transform lane (two bin grids' worth between them), the
/// per-chunk charge lists, the per-cell walk records and the per-cell
/// gradient. A walk record is a
/// 24-byte header plus one `f64` per column and per row the cell covers —
/// 56 bytes for a cell over 2 × 2 bins, with no cap on the span — and the
/// operand lists keep their capacity from one evaluation to the next.
///
/// A `GlobalPlacer` keeps one for its lifetime and asks it only for
/// [`DensityWorkspace::gradient`] — three 2-D transforms in two paired
/// passes, the overflow read off the charge map — where a one-shot
/// [`DensityModel::evaluate_threaded`] runs all four phases and the energy
/// over fresh grids.
/// Grids are shared between phases by lifetime: ψ and then E_x live in
/// `field`, and E_y overwrites the movable-charge map once nothing reads
/// the charge any more.
#[derive(Debug)]
pub struct DensityWorkspace {
    /// Movable charge per bin after [`Self::charge`]; E_y after
    /// [`Self::field_gradient`].
    movable: Grid<f64>,
    /// Total charge ρ, then its cosine spectrum `a_{u,v}`, transposed as
    /// [`dct2_2d`] leaves it (`a_{u,v}` at `u · M_y + v`).
    spectrum: Vec<f64>,
    /// ψ after [`Self::potential_energy`]; E_x after [`Self::field_gradient`].
    field: Grid<f64>,
    fft_lanes: Vec<Lane>,
    scatter_lanes: Vec<ScatterScratch>,
    gather_lanes: usize,
    /// The fixed chunks of the cell index space and what each deposited.
    chunks: Vec<Range<usize>>,
    chunk_charge: Vec<ChunkCharge>,
    /// Charge of poisoned cells, summed in chunk order.
    lost_charge: f64,
    /// `(∂D/∂x, ∂D/∂y)` per cell, as of the last [`Self::gradient`].
    grad: Vec<(f64, f64)>,
    /// The overflow the last [`Self::gradient`] read off the charge map.
    last_overflow: f64,
    /// `ω_u = πu/M_x` and `ω_v = πv/M_y`.
    wu: Vec<f64>,
    wv: Vec<f64>,
    transforms: u64,
}

impl DensityWorkspace {
    /// Allocates the buffers for `model`'s bin grid and a netlist of
    /// `num_cells` cells, each phase on its own lane count: `lanes.scatter`,
    /// `lanes.transform` and `lanes.gather` (each clamped to `1..=32`;
    /// `lanes.wa` is not read; [`GpLanes::uniform`] puts every phase on the
    /// same count). Scratch is allocated only for the lanes that run.
    pub fn with_lanes(model: &DensityModel, num_cells: usize, lanes: GpLanes) -> Self {
        let (mx, my) = (model.mx, model.my);
        let grid = || Grid::new(model.region, mx, my);
        let clamp = puffer_par::clamp_threads;
        let chunks = puffer_par::chunk_ranges(num_cells);
        let omega = |m: usize| -> Vec<f64> {
            (0..m)
                .map(|k| PI * cast::idx_f64(k) / cast::idx_f64(m))
                .collect()
        };
        DensityWorkspace {
            movable: grid(),
            spectrum: vec![0.0; mx * my],
            field: grid(),
            fft_lanes: vec![Lane::default(); clamp(lanes.transform)],
            scatter_lanes: (0..clamp(lanes.scatter))
                .map(|_| ScatterScratch {
                    dense: grid(),
                    touched: Vec::new(),
                })
                .collect(),
            gather_lanes: clamp(lanes.gather),
            chunk_charge: chunks
                .iter()
                .map(|range| ChunkCharge {
                    walks: vec![Walk::default(); range.len()],
                    ..ChunkCharge::default()
                })
                .collect(),
            chunks,
            lost_charge: 0.0,
            grad: vec![(0.0, 0.0); num_cells],
            last_overflow: f64::NAN,
            wu: omega(mx),
            wv: omega(my),
            transforms: 0,
        }
    }

    /// The density gradient `(∂D/∂x, ∂D/∂y)` per cell (zero for fixed
    /// cells, NaN for poisoned ones): charge scatter, forward DCT and the
    /// two field syntheses — no potential. On the way it reads the density
    /// overflow at `target_density` off the charge map, before E_y
    /// overwrites it, into [`DensityWorkspace::last_overflow`]: bit for bit
    /// the overflow [`DensityModel::evaluate_threaded`] reports for the
    /// placement. Non-finite exactly when the charge map or a cell's charge
    /// is (see [`Self::overflow`]), which is how the divergence sentinel
    /// sees a poisoned map.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was built for another grid or cell count, or
    /// `eff_width.len()` differs from the cell count.
    pub fn gradient(
        &mut self,
        model: &DensityModel,
        netlist: &Netlist,
        placement: &Placement,
        eff_width: &[f64],
        target_density: f64,
    ) -> &[(f64, f64)] {
        let cells = Cells {
            netlist,
            placement,
            eff_width,
        };
        self.charge(model, &cells);
        self.last_overflow = self.overflow(model, target_density);
        self.solve(model);
        self.field_gradient(model, &cells);
        &self.grad
    }

    /// The gradient as of the last [`DensityWorkspace::gradient`] call.
    pub fn last_gradient(&self) -> &[(f64, f64)] {
        &self.grad
    }

    /// The overflow as of the last [`DensityWorkspace::gradient`] call.
    pub fn last_overflow(&self) -> f64 {
        self.last_overflow
    }

    /// The number of 2-D transforms run since the last call.
    pub fn take_transforms(&mut self) -> u64 {
        std::mem::take(&mut self.transforms)
    }

    /// Phase 1 — the movable-charge map.
    ///
    /// Cells are scattered in the fixed chunks of `puffer-par`, and the
    /// map is the chunk partials added in chunk order — the ordered-merge
    /// contract, so the bits cannot depend on the worker count. A partial
    /// is not a grid of its own, though: a worker splats the chunk into its
    /// one dense scratch grid (`+0.0` on entry), which records every bin a
    /// splat moves off `+0.0`, then drains exactly those bins into the
    /// chunk's sparse `(bin, charge)` list, re-zeroing each — a chunk costs
    /// the bins it touched, not the window that contains them (its cells
    /// are spread over the die, so that window is the die). The merge
    /// therefore skips exactly the bins whose partial is `+0.0`, and
    /// `acc + (+0.0)` is `acc` bit-for-bit unless `acc` is `−0.0` — which
    /// the accumulator never is: it starts at `+0.0`, and under
    /// round-to-nearest a sum is `−0.0` only when both operands are. A bin
    /// listed twice reads `+0.0` the second time and is skipped like any
    /// other, so a `−0.0` or NaN partial is still carried over. Each bin of
    /// the map receives at most one addend per chunk, so the order bins are
    /// visited in within a chunk (the order they were touched in) is not
    /// the order of any sum. The worker that owns the head of the chunk
    /// list (the calling thread) skips its lists too and drains straight
    /// into the map: its chunks precede all others, so that *is* the merge
    /// order. With one worker no list is ever filled.
    ///
    /// Each splat also writes down the walk it deposits through, into the
    /// chunk's walk list, for [`Self::field_gradient`]. Every placed cell
    /// records one, a chargeless one too: its footprint is at least a bin
    /// on each side around a centre inside the region, so its overlap has
    /// area.
    fn charge(&mut self, model: &DensityModel, cells: &Cells<'_>) {
        assert_eq!(
            (self.movable.nx(), self.movable.ny()),
            (model.mx, model.my),
            "bin grid mismatch"
        );
        assert_eq!(
            self.grad.len(),
            cells.netlist.num_cells(),
            "cell count mismatch"
        );
        assert_eq!(
            cells.eff_width.len(),
            self.grad.len(),
            "eff_width length mismatch"
        );
        self.movable.fill(0.0);
        let chunks = &self.chunks;
        let mut direct = Some(&mut self.movable);
        let mut lanes: Vec<ScatterLane<'_>> = self
            .scatter_lanes
            .iter_mut()
            .map(|scratch| ScatterLane {
                scratch,
                direct: direct.take(),
            })
            .collect();
        puffer_par::for_each_block(
            &mut self.chunk_charge,
            1,
            &mut lanes,
            |first, outs, lane| {
                let ScatterScratch { dense, touched } = &mut *lane.scratch;
                for (out, range) in outs.iter_mut().zip(&chunks[first..]) {
                    out.bins.clear();
                    out.lost = 0.0;
                    out.operands.clear();
                    touched.clear();
                    for (i, walk) in range.clone().zip(&mut out.walks) {
                        *walk = match model.footprint(cells, i) {
                            Footprint::Fixed => Walk::default(),
                            Footprint::Poisoned { charge } => {
                                out.lost += charge;
                                Walk::default()
                            }
                            Footprint::Placed { rect, charge } => {
                                dense.splat_recorded(&rect, charge, touched, &mut out.operands)
                            }
                        };
                    }
                    let dense = dense.as_mut_slice();
                    for &bin in touched.iter() {
                        let slot = &mut dense[bin];
                        if slot.to_bits() == 0 {
                            continue;
                        }
                        let v = std::mem::take(slot);
                        match &mut lane.direct {
                            Some(map) => map.as_mut_slice()[bin] += v,
                            None => out.bins.push((bin, v)),
                        }
                    }
                }
            },
        );
        drop(lanes);
        let map = self.movable.as_mut_slice();
        self.lost_charge = 0.0;
        for part in &self.chunk_charge {
            for &(bin, v) in &part.bins {
                map[bin] += v;
            }
            self.lost_charge += part.lost;
        }
    }

    /// Phase 2a — overflow of the movable charge over `target_density` of
    /// each bin's free area, plus the charge of poisoned cells, relative to
    /// the movable area. One serial sum in bin order.
    ///
    /// A NaN bin makes the sum NaN and a `+∞` bin makes it infinite:
    /// `f64::max(NaN, 0.0)` is `0.0`, which would let a poisoned map read
    /// as *less* overflow, so the clamp is written as a comparison NaN
    /// fails. Every other excess leaves the same bits in the sum: the
    /// addend is the same but for a `−0.0` excess, whose zero of either
    /// sign adds nothing to an accumulator that is never `−0.0`.
    fn overflow(&self, model: &DensityModel, target_density: f64) -> f64 {
        let mut of = 0.0;
        for (rho, free) in self
            .movable
            .as_slice()
            .iter()
            .zip(model.free_area.as_slice())
        {
            let over = rho - target_density * free;
            of += if over <= 0.0 { 0.0 } else { over };
        }
        if model.movable_area > 0.0 {
            (of + self.lost_charge) / model.movable_area
        } else {
            0.0
        }
    }

    /// Phase 2b — the cosine spectrum of the total charge
    /// `ρ = fixed + (extra + movable)`: ρ is built straight into the
    /// spectrum buffer and transformed in place.
    fn solve(&mut self, model: &DensityModel) {
        for (((rho, fixed), extra), movable) in self
            .spectrum
            .iter_mut()
            .zip(model.fixed_rho.as_slice())
            .zip(model.extra_rho.as_slice())
            .zip(self.movable.as_slice())
        {
            *rho = fixed + (extra + movable);
        }
        let (mx, my) = (self.wu.len(), self.wv.len());
        dct2_2d(&mut self.spectrum, mx, my, &mut self.fft_lanes);
        self.transforms += 1;
    }

    /// Orthogonal reconstruction: (2/Mx)(2/My) · DCT-III in each axis.
    fn norm(&self) -> f64 {
        4.0 / (cast::idx_f64(self.wu.len()) * cast::idx_f64(self.wv.len()))
    }

    /// Phase 3a — the potential ψ into `field`, and the electrostatic
    /// energy ½·Σ ρψ: the ½ makes ∂D/∂x = q·∂ψ/∂x the exact derivative
    /// (each pair interaction is counted twice in Σρψ). ρ is recomputed
    /// from its three parts (the same expression [`Self::solve`] rounded),
    /// which is what lets the spectrum overwrite it.
    fn potential_energy(&mut self, model: &DensityModel) -> f64 {
        let norm = self.norm();
        let (mx, my) = (self.wu.len(), self.wv.len());
        let psi = self.field.as_mut_slice();
        coefficients(&self.spectrum, &self.wu, &self.wv, |bin, c, _, _| {
            psi[bin] = c * norm;
        });
        let (cosine, zero) = ((Kind::Dct3, Kind::Dct3), &mut vec![0.0; psi.len()][..]);
        synthesis_2d(mx, my, [(psi, cosine), (zero, cosine)], &mut self.fft_lanes);
        self.transforms += 1;
        0.5 * model
            .fixed_rho
            .as_slice()
            .iter()
            .zip(model.extra_rho.as_slice())
            .zip(self.movable.as_slice())
            .zip(self.field.as_slice())
            .map(|(((fixed, extra), movable), psi)| (fixed + (extra + movable)) * psi)
            .sum::<f64>()
    }

    /// Phase 3b — the field and the per-cell gradient.
    ///
    /// E = −∇ψ: differentiating the cosine basis gives the sine basis with
    /// an extra −ω factor; folding signs, E uses +ω·sin synthesis, per DBU.
    /// Both coefficient grids come from one loop, one `a/(ω_u²+ω_v²)` per
    /// bin, and go through one paired synthesis. E_x replaces ψ in `field`
    /// and E_y replaces the movable charge, both dead by now. The gather
    /// then averages the field over each cell's smoothed rectangle; every
    /// cell writes its own slot of `grad` and nothing is accumulated across
    /// cells, so chunking cannot change bits.
    ///
    /// Each placed cell replays the walk [`Self::charge`] recorded for it
    /// (from these same `cells`): the bins, overlap areas and total its
    /// charge was spread by. Only fixed and poisoned cells have no walk.
    fn field_gradient(&mut self, model: &DensityModel, cells: &Cells<'_>) {
        let (mx, my) = (self.wu.len(), self.wv.len());
        let (sx, sy) = (self.norm() / model.bin_w(), self.norm() / model.bin_h());
        let (ex, ey) = (self.field.as_mut_slice(), self.movable.as_mut_slice());
        coefficients(&self.spectrum, &self.wu, &self.wv, |bin, c, wu, wv| {
            (ex[bin], ey[bin]) = (c * wu * sx, c * wv * sy);
        });
        let sine_x = (ex, (Kind::Dst3Shifted, Kind::Dct3));
        let sine_y = (ey, (Kind::Dct3, Kind::Dst3Shifted));
        synthesis_2d(mx, my, [sine_x, sine_y], &mut self.fft_lanes);
        self.transforms += 2;
        let nx = self.field.nx();
        let (ex, ey) = (self.field.as_slice(), self.movable.as_slice());
        let (chunks, parts) = (&self.chunks, &self.chunk_charge);
        let mut lanes = vec![(); self.gather_lanes];
        puffer_par::for_each_block(&mut self.grad, 1, &mut lanes, |first, out, ()| {
            let walks = walks_from(chunks, parts, first);
            for ((i, g), (walk, operands)) in (first..).zip(out.iter_mut()).zip(walks) {
                if walk.is_empty() {
                    // Fixed (no gradient) or poisoned (see `Footprint`).
                    let movable = cells.netlist.cells()[i].is_movable();
                    *g = if movable {
                        (f64::NAN, f64::NAN)
                    } else {
                        (0.0, 0.0)
                    };
                    continue;
                }
                // The area-weighted field over the walk.
                let total = walk.total();
                let (mut ex_avg, mut ey_avg) = (0.0, 0.0);
                walk.for_each(operands, nx, |bin, ov| {
                    let w = ov / total;
                    ex_avg += w * ex[bin];
                    ey_avg += w * ey[bin];
                });
                // Force on a positive charge is qE; the energy gradient is −qE.
                let charge = cells.charge(i);
                *g = (-charge * ex_avg, -charge * ey_avg);
            }
        });
    }
}

/// The walks of cells `first..` in cell order, each with its operands.
///
/// # Panics
///
/// Panics if `first` is not a cell of the chunks.
fn walks_from<'a>(
    chunks: &[Range<usize>],
    parts: &'a [ChunkCharge],
    first: usize,
) -> impl Iterator<Item = (&'a Walk, &'a [f64])> {
    let chunk = first / chunks[0].len();
    let skip = first - chunks[chunk].start;
    parts[chunk..]
        .iter()
        .enumerate()
        .flat_map(move |(k, part)| {
            let skip = if k == 0 { skip } else { 0 };
            // The operands of the walks skipped over come first.
            let mut at: usize = part.walks[..skip].iter().map(Walk::len).sum();
            part.walks[skip..].iter().map(move |walk| {
                let operands = &part.operands[at..at + walk.len()];
                at += walk.len();
                (walk, operands)
            })
        })
}

/// `write(bin, a/(ω_u²+ω_v²), ω_u, ω_v)` for every bin of the transposed
/// `spectrum`, then `write(0, 0, 0, 0)`: at ω = 0, ψ is only up to a constant.
fn coefficients(
    spectrum: &[f64],
    wu: &[f64],
    wv: &[f64],
    mut write: impl FnMut(usize, f64, f64, f64),
) {
    let my = wv.len();
    for (u, (a_row, &wu)) in spectrum.chunks_exact(my).zip(wu).enumerate() {
        for (v, (&a, &wv)) in a_row.iter().zip(wv).enumerate() {
            write(u * my + v, a / (wu * wu + wv * wv), wu, wv);
        }
    }
    write(0, 0.0, 0.0, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Point;
    use puffer_db::netlist::{CellId, CellKind, NetlistBuilder};
    use puffer_db::tech::Technology;

    fn design_two_cells() -> Design {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("a", 2.0, 2.0, CellKind::Movable);
        nb.add_cell("b", 2.0, 2.0, CellKind::Movable);
        Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 32.0, 32.0),
        )
        .unwrap()
    }

    fn widths(d: &Design) -> Vec<f64> {
        d.netlist().cells().iter().map(|c| c.width).collect()
    }

    #[test]
    fn auto_dim_is_power_of_two_in_range() {
        assert_eq!(DensityModel::auto_dim(10), 32);
        assert_eq!(DensityModel::auto_dim(100_000), 512);
        let m = DensityModel::auto_dim(5000);
        assert!(m.is_power_of_two() && (32..=512).contains(&m));
    }

    #[test]
    fn coincident_cells_repel() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(16.0, 16.0));
        p.set(CellId(1), Point::new(17.0, 16.0)); // just right of cell 0
        let e = m.evaluate_threaded(d.netlist(), &p, &widths(&d), 1.0, 1);
        // Energy gradient pushes them apart: cell 0 left (negative x force
        // means gradient positive), cell 1 right.
        assert!(
            e.grad_x[0] > 0.0 && e.grad_x[1] < 0.0,
            "grads {:?} should separate the pair",
            (e.grad_x[0], e.grad_x[1])
        );
    }

    #[test]
    fn spread_cells_have_lower_energy() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut tight = Placement::zeroed(2);
        tight.set(CellId(0), Point::new(16.0, 16.0));
        tight.set(CellId(1), Point::new(16.5, 16.0));
        let mut apart = Placement::zeroed(2);
        apart.set(CellId(0), Point::new(8.0, 8.0));
        apart.set(CellId(1), Point::new(24.0, 24.0));
        let w = widths(&d);
        let e_tight = m.evaluate_threaded(d.netlist(), &tight, &w, 1.0, 1);
        let e_apart = m.evaluate_threaded(d.netlist(), &apart, &w, 1.0, 1);
        assert!(e_apart.energy < e_tight.energy);
        assert!(e_apart.overflow <= e_tight.overflow);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let w = widths(&d);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(14.0, 15.0));
        p.set(CellId(1), Point::new(18.0, 17.0));
        let e = m.evaluate_threaded(d.netlist(), &p, &w, 1.0, 1);
        let h = 1e-4;
        for c in 0..2u32 {
            let pos = p.pos(CellId(c));
            let mut pp = p.clone();
            pp.set(CellId(c), Point::new(pos.x + h, pos.y));
            let mut pm = p.clone();
            pm.set(CellId(c), Point::new(pos.x - h, pos.y));
            let fd = (m.evaluate_threaded(d.netlist(), &pp, &w, 1.0, 1).energy
                - m.evaluate_threaded(d.netlist(), &pm, &w, 1.0, 1).energy)
                / (2.0 * h);
            let an = e.grad_x[c as usize];
            // The field is piecewise-bilinear; allow a few % slack. The
            // *sign* and magnitude must match.
            assert!(
                (fd - an).abs() <= 0.15 * an.abs().max(1e-3),
                "cell {c}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn macro_charge_pushes_cells_away() {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("a", 2.0, 2.0, CellKind::Movable);
        let mac = nb.add_cell("m", 12.0, 12.0, CellKind::FixedMacro);
        let mut d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 32.0, 32.0),
        )
        .unwrap();
        d.place_macro(mac, Point::new(16.0, 16.0)).unwrap();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = d.initial_placement();
        p.set(CellId(0), Point::new(11.0, 16.0)); // just left of the macro
        let w = widths(&d);
        let e = m.evaluate_threaded(d.netlist(), &p, &w, 1.0, 1);
        // Push further left: positive x-gradient.
        assert!(e.grad_x[0] > 0.0, "gradient {:?}", e.grad_x[0]);
        // Macro itself gets no gradient.
        assert_eq!(e.grad_x[1], 0.0);
    }

    #[test]
    fn padding_increases_charge_and_overflow() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(16.0, 16.0));
        p.set(CellId(1), Point::new(16.5, 16.0));
        let plain = m.evaluate_threaded(d.netlist(), &p, &widths(&d), 0.4, 1);
        let padded = m.evaluate_threaded(d.netlist(), &p, &[8.0, 8.0], 0.4, 1);
        assert!(padded.overflow > plain.overflow);
        assert!(padded.energy > plain.energy);
    }

    #[test]
    fn movable_density_conserves_area() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(10.0, 10.0));
        p.set(CellId(1), Point::new(20.0, 20.0));
        let rho = m.movable_density(d.netlist(), &p, &widths(&d));
        assert!((rho.sum() - 8.0).abs() < 1e-9); // two 2x2 cells
    }

    #[test]
    fn movable_density_skips_poisoned_cells() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(10.0, 10.0));
        p.set(CellId(1), Point::new(f64::NAN, 20.0));
        let rho = m.movable_density(d.netlist(), &p, &widths(&d));
        assert!(
            (rho.sum() - 4.0).abs() < 1e-9,
            "only the finite cell deposits"
        );
        let e = m.evaluate_threaded(d.netlist(), &p, &widths(&d), 1.0, 1);
        assert!(e.grad_x[1].is_nan() && e.grad_x[0].is_finite());
        assert!(
            e.overflow >= 4.0 / 8.0,
            "the poisoned cell's charge is all overflow"
        );
    }

    /// `f64::max` drops a NaN operand, so a clamp written with it would let
    /// a poisoned bin read as zero overflow; the sentinel relies on it
    /// reading as non-finite.
    #[test]
    fn a_non_finite_charge_bin_makes_the_overflow_non_finite() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(10.0, 10.0));
        p.set(CellId(1), Point::new(20.0, 20.0));
        let w = widths(&d);
        let mut ws = DensityWorkspace::with_lanes(&m, 2, GpLanes::uniform(1));
        let overflow = |ws: &mut DensityWorkspace, w: &[f64]| {
            ws.gradient(&m, d.netlist(), &p, w, 0.4);
            ws.last_overflow()
        };
        let healthy = overflow(&mut ws, &w);
        assert!(healthy.is_finite() && healthy > 0.0);
        // NaN stays NaN, and `+∞` is the only infinity a sum of non-negative
        // addends can reach.
        let poisoned = |of: f64, poison: f64| of.is_nan() == poison.is_nan() && !of.is_finite();
        ws.charge(
            &m,
            &Cells {
                netlist: d.netlist(),
                placement: &p,
                eff_width: &w,
            },
        );
        for bin in [0, 500, 1023] {
            for poison in [f64::NAN, f64::INFINITY] {
                let was = std::mem::replace(&mut ws.movable.as_mut_slice()[bin], poison);
                let of = ws.overflow(&m, 0.4);
                assert!(poisoned(of, poison), "bin {bin} = {poison}: overflow {of}");
                ws.movable.as_mut_slice()[bin] = was;
            }
        }
        assert_eq!(ws.overflow(&m, 0.4).to_bits(), healthy.to_bits());
        // The same through the front door: a cell whose charge is NaN or
        // infinite sits at a finite position, so it is splatted, not lost.
        for width in [f64::NAN, f64::INFINITY] {
            let of = overflow(&mut ws, &[width, 2.0]);
            assert!(poisoned(of, width), "width {width}: overflow {of}");
        }
        // And the workspace comes back clean: the NaN bins were drained.
        assert_eq!(overflow(&mut ws, &w).to_bits(), healthy.to_bits());
    }

    /// The sparse-list merge of the multi-worker scatter, the direct merge
    /// of the single worker and a plain serial splat-per-chunk reference
    /// must agree bit for bit, and a workspace must come back clean: a
    /// second scatter of the same cells gives the same map.
    #[test]
    fn charge_map_is_the_ordered_chunk_sum_for_every_worker_count() {
        let d = puffer_gen::generate(&puffer_gen::GeneratorConfig {
            num_cells: 700,
            num_nets: 750,
            num_macros: 2,
            ..puffer_gen::GeneratorConfig::default()
        })
        .unwrap();
        let nl = d.netlist();
        let m = DensityModel::new(&d, 64, 64);
        let w = widths(&d);
        let region = d.region();
        let mut p = d.initial_placement();
        for (k, id) in nl.movable_cells().enumerate() {
            // A deterministic spread with awkward fractions.
            let fx = (k as f64 * 0.6180339887).fract();
            let fy = (k as f64 * 0.7548776662).fract();
            p.set(
                id,
                Point::new(
                    region.xl + fx * region.width(),
                    region.yl + fy * region.height(),
                ),
            );
        }
        let cells = Cells {
            netlist: nl,
            placement: &p,
            eff_width: &w,
        };
        // Reference: one fresh grid per chunk, added whole in chunk order.
        let mut expect: Grid<f64> = Grid::new(region, 64, 64);
        for range in puffer_par::chunk_ranges(nl.num_cells()) {
            let mut part: Grid<f64> = Grid::new(region, 64, 64);
            for i in range {
                if let Footprint::Placed { rect, charge } = m.footprint(&cells, i) {
                    part.splat(&rect, charge);
                }
            }
            puffer_par::merge_add(expect.as_mut_slice(), part.as_slice());
        }
        let bits =
            |g: &Grid<f64>| -> Vec<u64> { g.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&m.movable_density(nl, &p, &w)), bits(&expect));
        for threads in [1, 2, 3, 8] {
            let mut ws =
                DensityWorkspace::with_lanes(&m, nl.num_cells(), GpLanes::uniform(threads));
            for round in 0..2 {
                ws.charge(&m, &cells);
                assert_eq!(
                    bits(&ws.movable),
                    bits(&expect),
                    "threads {threads}, round {round}"
                );
            }
            let clean = |l: &ScatterScratch| l.dense.as_slice().iter().all(|v| v.to_bits() == 0);
            assert!(ws.scatter_lanes.iter().all(clean));
        }
    }

    /// A placed footprint is at least a bin on each side around a centre
    /// inside the region, so its overlap has area and the scatter writes
    /// its walk down whatever the width — none, negative, NaN, infinite or
    /// a million bins — and wherever the centre is clamped to. Only a
    /// non-finite coordinate is poisoned, and a poisoned cell has no walk.
    #[test]
    fn every_placed_footprint_records_its_walk() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 16, 16);
        let widths = [0.0, -3.0, f64::NAN, f64::INFINITY, 1e6 * m.bin_w(), 2.0];
        // The corners and edges of [0, 32]², directly or clamped onto.
        let finite = [-0.0, 0.0, 16.0, 32.0, -7.0, 45.0];
        let coords = finite
            .into_iter()
            .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let mut ws = DensityWorkspace::with_lanes(&m, 2, GpLanes::uniform(1));
        let mut p = Placement::zeroed(2);
        p.set(CellId(1), Point::new(8.0, 8.0));
        let mut placed_cases = 0;
        for width in widths {
            let eff_width = [width, 2.0];
            for x in coords.clone() {
                for y in coords.clone() {
                    p.set(CellId(0), Point::new(x, y));
                    let cells = Cells {
                        netlist: d.netlist(),
                        placement: &p,
                        eff_width: &eff_width,
                    };
                    let placed = match m.footprint(&cells, 0) {
                        Footprint::Placed { .. } => true,
                        Footprint::Poisoned { .. } => false,
                        Footprint::Fixed => unreachable!("a movable cell"),
                    };
                    assert_eq!(placed, x.is_finite() && y.is_finite(), "({x}, {y})");
                    ws.charge(&m, &cells);
                    let (walk, _) = walks_from(&ws.chunks, &ws.chunk_charge, 0).next().unwrap();
                    let what = format!("width {width} at ({x}, {y})");
                    assert_eq!(walk.is_empty(), !placed, "{what}");
                    assert!(!placed || walk.total() > 0.0, "{what}");
                    placed_cases += usize::from(placed);
                }
            }
        }
        assert_eq!(placed_cases, widths.len() * finite.len() * finite.len());
    }

    #[test]
    fn workspace_entry_points_agree_with_the_full_evaluation() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let w = widths(&d);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(14.0, 15.0));
        p.set(CellId(1), Point::new(15.5, 17.0));
        let full = m.evaluate_threaded(d.netlist(), &p, &w, 0.7, 1);
        let mut ws = DensityWorkspace::with_lanes(&m, 2, GpLanes::uniform(2));
        // Repeatedly: no evaluation leaves state behind that the next
        // depends on.
        let bits = |g: &[(f64, f64)]| -> Vec<(u64, u64)> {
            g.iter().map(|v| (v.0.to_bits(), v.1.to_bits())).collect()
        };
        for _ in 0..2 {
            let grad = bits(ws.gradient(&m, d.netlist(), &p, &w, 0.7));
            assert_eq!(grad, bits(&grad_of(&full)));
            assert_eq!(bits(ws.last_gradient()), grad);
            assert_eq!(ws.last_overflow().to_bits(), full.overflow.to_bits());
            assert_eq!(ws.take_transforms(), 3);
        }
        // The target density moves the overflow alone.
        let sparse = m.evaluate_threaded(d.netlist(), &p, &w, 0.9, 1);
        ws.gradient(&m, d.netlist(), &p, &w, 0.9);
        assert_eq!(ws.last_gradient(), &grad_of(&full)[..]);
        assert_ne!(sparse.overflow, full.overflow);
        assert_eq!(ws.last_overflow().to_bits(), sparse.overflow.to_bits());
    }

    fn grad_of(e: &DensityEval) -> Vec<(f64, f64)> {
        e.grad_x
            .iter()
            .copied()
            .zip(e.grad_y.iter().copied())
            .collect()
    }

    #[test]
    fn field_is_antisymmetric_around_a_single_charge() {
        // One cell in the middle: probes mirrored about it must see
        // opposite-signed, equal-magnitude x-forces.
        let mut nb = NetlistBuilder::new();
        nb.add_cell("q", 2.0, 2.0, CellKind::Movable);
        nb.add_cell("probe", 1.0, 1.0, CellKind::Movable);
        let d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 32.0, 32.0),
        )
        .unwrap();
        let m = DensityModel::new(&d, 32, 32);
        let w = widths(&d);
        let mut left = Placement::zeroed(2);
        left.set(CellId(0), Point::new(16.0, 16.0));
        left.set(CellId(1), Point::new(12.0, 16.0));
        let mut right = Placement::zeroed(2);
        right.set(CellId(0), Point::new(16.0, 16.0));
        right.set(CellId(1), Point::new(20.0, 16.0));
        let gl = m.evaluate_threaded(d.netlist(), &left, &w, 1.0, 1);
        let gr = m.evaluate_threaded(d.netlist(), &right, &w, 1.0, 1);
        // The energy gradient points toward the charge (moving closer
        // raises the energy); the descent direction −∇D pushes away.
        assert!(gl.grad_x[1] > 0.0, "left probe: energy grows to the right");
        assert!(gr.grad_x[1] < 0.0, "right probe: energy grows to the left");
        assert!(
            (gl.grad_x[1] + gr.grad_x[1]).abs() < 0.05 * gl.grad_x[1].abs(),
            "mirror symmetry: {} vs {}",
            gl.grad_x[1],
            gr.grad_x[1]
        );
    }

    #[test]
    fn energy_is_translation_invariant_in_the_interior() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let w = widths(&d);
        let mut a = Placement::zeroed(2);
        a.set(CellId(0), Point::new(12.0, 12.0));
        a.set(CellId(1), Point::new(13.0, 12.0));
        let mut b = Placement::zeroed(2);
        b.set(CellId(0), Point::new(18.0, 20.0));
        b.set(CellId(1), Point::new(19.0, 20.0));
        let ea = m.evaluate_threaded(d.netlist(), &a, &w, 1.0, 1);
        let eb = m.evaluate_threaded(d.netlist(), &b, &w, 1.0, 1);
        // Same pair configuration far from walls: energies within a few %.
        assert!(
            (ea.energy - eb.energy).abs() < 0.08 * ea.energy.abs().max(1e-12),
            "{} vs {}",
            ea.energy,
            eb.energy
        );
    }

    #[test]
    fn overflow_is_zero_when_spread_below_target() {
        let d = design_two_cells();
        let m = DensityModel::new(&d, 32, 32);
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(8.0, 8.0));
        p.set(CellId(1), Point::new(24.0, 24.0));
        let e = m.evaluate_threaded(d.netlist(), &p, &widths(&d), 1.0, 1);
        // Cells are 2x2 = 4 area over 1x1 bins: at target density 1.0 a
        // perfectly aligned cell fits, but smoothing spreads it; overflow
        // must at least be far below the clumped case.
        let mut q = Placement::zeroed(2);
        q.set(CellId(0), Point::new(16.0, 16.0));
        q.set(CellId(1), Point::new(16.0, 16.0));
        let clumped = m.evaluate_threaded(d.netlist(), &q, &widths(&d), 1.0, 1);
        assert!(e.overflow < clumped.overflow);
    }
}
