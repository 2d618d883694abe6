//! The global placement engine: objective assembly and the main loop.
//!
//! Implements the unconstrained formulation of paper Eq. (1):
//! `f = W(x, y) + λ·D(x, y)`, with the WA wirelength of Eq. (2), the
//! electrostatic density of Eq. (3)–(6), and Nesterov's method as the
//! solver. The engine exposes a single [`GlobalPlacer::step`] so that a
//! routability optimizer (PUFFER's cell padding) can interleave with the
//! optimization, adjusting the per-cell *effective widths* between steps.

use crate::density::{
    DensityModel, DensityWorkspace, GATHER_CELLS_PER_LANE, SCATTER_CELLS_PER_LANE,
    TRANSFORM_BINS_PER_LANE,
};
use crate::nesterov::{NesterovOptimizer, NesterovState};
use crate::sentinel::{Divergence, DivergenceSentinel};
use crate::wirelength::{WaWorkspace, WA_PINS_PER_LANE};
use crate::PlaceError;
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_db::netlist::CellId;
use puffer_trace::Trace;

/// Initial-placement jitter around the region center, in bin widths.
const INITIAL_NOISE: f64 = 2.0;

/// Seed of the initial-placement jitter.
const JITTER_SEED: u64 = 1;

/// Divergence recoveries allowed before the placer freezes at the last
/// healthy solution (see [`GlobalPlacer::step`]).
const MAX_RECOVERIES: usize = 8;

/// Step-size multiplier applied on every divergence recovery.
const RECOVERY_BACKOFF: f64 = 0.5;

/// Oscillation-detection window of the divergence sentinel, in iterations.
const DIVERGENCE_WINDOW: usize = 16;

/// Configuration of the global placer.
///
/// The bin grid is always [`DensityModel::auto_dim`] of the cell count.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Target placement density for the overflow metric.
    pub target_density: f64,
    /// WA smoothing parameter in bin widths (γ of Eq. (2)); the effective γ
    /// is additionally annealed with the density overflow.
    pub gamma_factor: f64,
    /// Multiplicative growth of the density penalty λ per iteration.
    pub lambda_growth: f64,
    /// Hard iteration cap for [`GlobalPlacer::run`].
    pub max_iters: usize,
    /// Overflow threshold at which [`GlobalPlacer::run`] stops.
    pub stop_overflow: f64,
    /// Upper bound on the global-placement threads running at once
    /// (clamped to `1..=32`), shared out by [`GpLanes::for_design`], so a
    /// design too small to pay for a second thread runs on one. Results are
    /// bit-identical for every value — the deterministic fork-join contract
    /// of `puffer-par` — so this only trades wall-clock time, never
    /// reproducibility.
    pub threads: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            target_density: 1.0,
            gamma_factor: 0.5,
            lambda_growth: 1.04,
            max_iters: 800,
            stop_overflow: 0.07,
            threads: 1,
        }
    }
}

/// Cells per half of a gradient evaluation: [`GpLanes::for_design`] runs
/// the WA and density halves side by side from two halves' worth, at
/// `threads ≥ 2`. `examples/lane_calibration.rs`' `halves` row, three runs
/// (EXPERIMENTS.md, "Concurrent halves"): the fork won 11–45 % from 4.3 K
/// cells up, 8–27 % at 1.3 K and lost at 636 cells and below; the second
/// half starts between 1.3 K and 4.3 K, at 2.4 K.
pub(crate) const CELLS_PER_HALF: usize = 1_200;

/// The lanes each global-placement kernel runs on, and whether the two
/// halves of a gradient evaluation run at once.
///
/// A [`GlobalPlacer`] asks [`GpLanes::for_design`] once, at construction;
/// the kernel workspaces then run on exactly these lanes. `puffer-par`
/// chunk boundaries ignore the lane count, and each half writes only its
/// own workspace, so no output bit depends on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpLanes {
    /// 2 when the WA gradient runs on a worker while the density gradient
    /// runs on the calling thread, 1 when they run one after the other.
    pub halves: usize,
    /// The WA gradient, sized by pins.
    pub wa: usize,
    /// The density charge scatter, sized by cells.
    pub scatter: usize,
    /// Each 2-D transform of the Poisson solve, sized by bins.
    pub transform: usize,
    /// The density field gather, sized by cells.
    pub gather: usize,
}

impl GpLanes {
    /// Every kernel on `threads` lanes (clamped to `1..=32`), whatever the
    /// design's size, one half at a time.
    pub fn uniform(threads: usize) -> Self {
        let t = puffer_par::clamp_threads(threads);
        GpLanes {
            halves: 1,
            wa: t,
            scatter: t,
            transform: t,
            gather: t,
        }
    }

    /// What a [`GlobalPlacer`] at [`PlacerConfig::threads`] `= threads`
    /// runs on, on the [`DensityModel::auto_dim`] bin grid it builds: at
    /// most two halves, by [`puffer_par::lanes`] of the cells. Two halves
    /// split the budget (WA ⌊t/2⌋ threads, density the rest), and each
    /// kernel takes [`puffer_par::lanes`] of its half's.
    pub fn for_design(design: &Design, threads: usize) -> Self {
        let netlist = design.netlist();
        let cells = netlist.num_cells();
        let dim = DensityModel::auto_dim(cells);
        let threads = puffer_par::clamp_threads(threads);
        let halves = puffer_par::lanes(threads, cells, CELLS_PER_HALF).min(2);
        let (wa_threads, density_threads) = if halves == 2 {
            (threads / 2, threads - threads / 2)
        } else {
            (threads, threads)
        };
        let wa = |items, per_lane| puffer_par::lanes(wa_threads, items, per_lane);
        let density = |items, per_lane| puffer_par::lanes(density_threads, items, per_lane);
        GpLanes {
            halves,
            wa: wa(netlist.num_pins(), WA_PINS_PER_LANE),
            scatter: density(cells, SCATTER_CELLS_PER_LANE),
            transform: density(dim * dim, TRANSFORM_BINS_PER_LANE),
            gather: density(cells, GATHER_CELLS_PER_LANE),
        }
    }
}

/// Per-iteration statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration index (1-based after the first [`GlobalPlacer::step`]).
    pub iter: usize,
    /// Density overflow (compared against τ triggers and stop criteria).
    pub overflow: f64,
    /// Exact HPWL of the current solution.
    pub hpwl: f64,
    /// Current density penalty factor λ.
    pub lambda: f64,
}

/// The ePlace-style global placer.
///
/// ```
/// use puffer_place::{GlobalPlacer, PlacerConfig};
/// use puffer_gen::{generate, GeneratorConfig};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = generate(&GeneratorConfig {
///     num_cells: 300, num_nets: 330, num_macros: 1,
///     ..GeneratorConfig::default()
/// })?;
/// let mut placer = GlobalPlacer::new(&design, PlacerConfig {
///     max_iters: 60, ..PlacerConfig::default()
/// })?;
/// let stats = placer.run();
/// assert!(stats.overflow < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GlobalPlacer<'a> {
    design: &'a Design,
    config: PlacerConfig,
    density: DensityModel,
    /// The density pipeline's buffers.
    dens: DensityState,
    /// The WA kernel's buffers.
    wa: WaWorkspace,
    /// [`GpLanes::halves`] of the design at the configured threads.
    halves: usize,
    placement: Placement,
    /// Physical width + padding per cell (the density system's view).
    eff_width: Vec<f64>,
    /// Current padding per cell (effective − physical width).
    padding: Vec<f64>,
    movable: Vec<CellId>,
    opt: Option<Solver>,
    /// The γ of the gradient of `placement` that `healthy_stats` left in the
    /// workspaces, which the next bootstrap from that point at that γ
    /// reuses. Cleared wherever the solver is dropped or replaced.
    held: Option<f64>,
    lambda: f64,
    iter: usize,
    last_overflow: f64,
    /// Divergence sentinel and its recovery machinery.
    sentinel: DivergenceSentinel,
    /// Last healthy `(placement, stats, lambda, overflow)`; the rollback
    /// target when the sentinel fires.
    last_good: Option<LastGood>,
    /// Multiplier on the bootstrap step size; halved on every recovery.
    step_scale: f64,
    /// Recoveries performed so far.
    recoveries: usize,
    /// Set once the recovery budget is exhausted: the placer holds the last
    /// healthy solution and [`GlobalPlacer::step`] becomes a no-op.
    frozen: bool,
    /// Reason of the most recent recovery, if any.
    last_divergence: Option<Divergence>,
    /// Telemetry handle (disabled by default); one `place.iter` record per
    /// step, and a `place.recover` record and a `place.recoveries` count per
    /// recovery. Not part of the snapshot.
    trace: Trace,
}

/// Everything a density evaluation writes, kept apart from the placer's
/// read-only [`Inputs`] so that `step` can lend it to the gradient oracle
/// while the projector borrows the rest.
#[derive(Debug)]
struct DensityState {
    ws: DensityWorkspace,
    /// The positions under evaluation; fixed cells sit where `placement`
    /// has them.
    scratch: Placement,
}

/// The live Nesterov solver, the γ at which the WA half of the gradient
/// at its reference point `v_k` was taken, and whether the workspaces
/// still hold that gradient.
///
/// A step's opening gradient `∇f(v_k)` takes its WA half at this γ (its
/// density half depends on no γ, and λ is applied fresh), so that it is
/// the gradient the previous step's accepted backtracking round computed
/// at `v_k`; the rounds then take the freshly annealed γ. This is state,
/// not a cache: it steers the trajectory, so a snapshot carries it.
#[derive(Debug)]
struct Solver {
    nesterov: NesterovOptimizer,
    gamma: f64,
    /// The WA and density workspaces hold both halves of `∇f(v_k)`, the WA
    /// half at `gamma`: the solver's last evaluation was at `v_k`, as
    /// `ensure_optimizer` and `step` leave it. A warm step composes its
    /// opening gradient from them; a cold one — a solver restored from a
    /// snapshot — evaluates it. Whatever else changes what a gradient reads
    /// (`set_padding`, `set_extra_charge`) drops the solver.
    warm: bool,
}

/// The read-only half of a gradient evaluation; see [`DensityState`].
struct Inputs<'b> {
    design: &'b Design,
    density: &'b DensityModel,
    eff_width: &'b [f64],
    movable: &'b [CellId],
    config: &'b PlacerConfig,
    trace: &'b Trace,
    halves: usize,
}

impl Inputs<'_> {
    /// Writes the flat position vector `flat` into `target`.
    fn scatter(&self, flat: &[f64], target: &mut Placement) {
        let n = self.movable.len();
        for (i, &id) in self.movable.iter().enumerate() {
            target.set(id, puffer_db::geom::Point::new(flat[i], flat[n + i]));
        }
    }

    /// Evaluates both halves of the gradient at `placement`: the WA one at
    /// `gamma`, with the placement's HPWL, into `wa`, and the density one,
    /// with its overflow, into `dens` — with two [`GpLanes::halves`], the WA
    /// one on a worker while the density one, the longer, runs here. Then
    /// counts the evaluations, their 2-D transforms and their exponentials
    /// (Eq. (2)'s terms, and the `exp` calls made for them).
    fn evaluate(
        &self,
        dens: &mut DensityWorkspace,
        wa: &mut WaWorkspace,
        placement: &Placement,
        gamma: f64,
    ) {
        let netlist = self.design.netlist();
        let mut wa_half = || wa.gradient(netlist, placement, gamma);
        let mut density_half = || {
            dens.gradient(
                self.density,
                netlist,
                placement,
                self.eff_width,
                self.config.target_density,
            );
        };
        if self.halves == 2 {
            puffer_par::join(density_half, wa_half);
        } else {
            wa_half();
            density_half();
        }
        let counts = wa.take_counts();
        self.trace.add("place.wa_grad_evals", counts.grad_evals);
        self.trace.add("place.wa_exp_calls", counts.exp_calls);
        self.trace.add("place.wa_exp_terms", counts.exp_terms);
        self.trace.add("place.density_evals", 1);
        self.trace.add("fft.transforms2d", dens.take_transforms());
    }

    /// `∇W + λ·∇D` over the movable cells, from the gradients the
    /// workspaces hold.
    fn compose(&self, dens: &DensityWorkspace, wa: &WaWorkspace, lambda: f64) -> Vec<f64> {
        let de = dens.last_gradient();
        let (wx, wy) = (wa.grad_x(), wa.grad_y());
        let n = self.movable.len();
        let mut g = vec![0.0; 2 * n];
        for (i, &id) in self.movable.iter().enumerate() {
            let c = id.index();
            g[i] = wx[c] + lambda * de[c].0;
            g[n + i] = wy[c] + lambda * de[c].1;
        }
        g
    }

    /// Combined gradient `∇W + λ·∇D` at `flat`.
    fn combined_grad(
        &self,
        st: &mut DensityState,
        wa: &mut WaWorkspace,
        flat: &[f64],
        lambda: f64,
        gamma: f64,
    ) -> Vec<f64> {
        self.scatter(flat, &mut st.scratch);
        self.evaluate(&mut st.ws, wa, &st.scratch, gamma);
        self.compose(&st.ws, wa, lambda)
    }

    fn projector(&self) -> impl Fn(&mut [f64]) + '_ {
        let n = self.movable.len();
        let region = self.design.region();
        move |flat: &mut [f64]| {
            for (i, &id) in self.movable.iter().enumerate() {
                let cell = self.design.netlist().cell(id);
                let hw = (self.eff_width[id.index()] / 2.0).min(region.width() / 2.0);
                let hh = (cell.height / 2.0).min(region.height() / 2.0);
                flat[i] = flat[i].clamp(region.xl + hw, region.xh - hw);
                flat[n + i] = flat[n + i].clamp(region.yl + hh, region.yh - hh);
            }
        }
    }
}

#[derive(Debug, Clone)]
struct LastGood {
    placement: Placement,
    stats: IterationStats,
    lambda: f64,
    last_overflow: f64,
}

/// A complete, restorable snapshot of a [`GlobalPlacer`]'s mutable state.
///
/// Captured with [`GlobalPlacer::snapshot`] and reinstated with
/// [`GlobalPlacer::restore`]; a restored placer continues the original
/// trajectory exactly (same design and configuration assumed). This is the
/// unit the flow-level checkpoint journal serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerSnapshot {
    /// Positions of all cells (movable and fixed).
    pub placement: Placement,
    /// Per-cell padding (effective − physical width).
    pub padding: Vec<f64>,
    /// Density penalty factor λ.
    pub lambda: f64,
    /// Iterations completed.
    pub iter: usize,
    /// Overflow of the latest step.
    pub last_overflow: f64,
    /// Step-size backoff accumulated by divergence recoveries.
    pub step_scale: f64,
    /// Divergence recoveries performed.
    pub recoveries: usize,
    /// Nesterov solver state, if the optimizer was live, and the γ at which
    /// the WA gradient at its reference point was last taken, which the
    /// next step's opening gradient takes again.
    pub opt: Option<(NesterovState, f64)>,
}

impl<'a> GlobalPlacer<'a> {
    /// Creates a placer with the design's default initial placement
    /// (movable cells jittered around the region center).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::NoMovableCells`] for a design without movable
    /// cells, [`PlaceError::UnplacedMacro`] when a macro lacks a location
    /// and [`PlaceError::BadConfig`] for a [`PlacerConfig::gamma_factor`]
    /// that is not positive and finite.
    pub fn new(design: &'a Design, config: PlacerConfig) -> Result<Self, PlaceError> {
        let mut placement = design.initial_placement();
        // Deterministic jitter to break symmetry.
        let dim = DensityModel::auto_dim(design.netlist().num_cells());
        let bin_w = design.region().width() / cast::idx_f64(dim);
        let bin_h = design.region().height() / cast::idx_f64(dim);
        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_add(JITTER_SEED);
        let mut next_unit = || {
            // xorshift64*; cheap, deterministic, good enough for jitter.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            cast::u64_f64(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11)
                / cast::u64_f64(1u64 << 53)
                - 0.5
        };
        for id in design.netlist().movable_cells() {
            let p = placement.pos(id);
            placement.set(
                id,
                puffer_db::geom::Point::new(
                    p.x + next_unit() * INITIAL_NOISE * bin_w,
                    p.y + next_unit() * INITIAL_NOISE * bin_h,
                ),
            );
        }
        Self::with_placement(design, config, placement)
    }

    /// Creates a placer continuing from an existing placement.
    ///
    /// # Errors
    ///
    /// Same as [`GlobalPlacer::new`].
    pub fn with_placement(
        design: &'a Design,
        config: PlacerConfig,
        placement: Placement,
    ) -> Result<Self, PlaceError> {
        design
            .check_macros_placed()
            .map_err(|e| PlaceError::UnplacedMacro(e.to_string()))?;
        let movable: Vec<CellId> = design.netlist().movable_cells().collect();
        if movable.is_empty() {
            return Err(PlaceError::NoMovableCells);
        }
        let dim = DensityModel::auto_dim(design.netlist().num_cells());
        // γ is `gamma_factor` times positive finite numbers: checked here,
        // it is positive wherever the WA kernel divides by it.
        if !(config.gamma_factor > 0.0 && config.gamma_factor.is_finite()) {
            return Err(PlaceError::BadConfig(format!(
                "gamma_factor {} is not positive and finite",
                config.gamma_factor
            )));
        }
        let density = DensityModel::new(design, dim, dim);
        let lanes = GpLanes::for_design(design, config.threads);
        let dens = DensityState {
            ws: DensityWorkspace::with_lanes(&density, design.netlist().num_cells(), lanes),
            scratch: placement.clone(),
        };
        let eff_width: Vec<f64> = design.netlist().cells().iter().map(|c| c.width).collect();
        let padding = vec![0.0; eff_width.len()];
        let sentinel = DivergenceSentinel::new(DIVERGENCE_WINDOW);
        Ok(GlobalPlacer {
            design,
            config,
            density,
            dens,
            wa: WaWorkspace::new(lanes.wa),
            halves: lanes.halves,
            placement,
            eff_width,
            padding,
            movable,
            opt: None,
            held: None,
            lambda: 0.0,
            iter: 0,
            last_overflow: 1.0,
            sentinel,
            last_good: None,
            step_scale: 1.0,
            recoveries: 0,
            frozen: false,
            last_divergence: None,
            trace: Trace::disabled(),
        })
    }

    /// Attaches a telemetry handle: every [`GlobalPlacer::step`] emits one
    /// `place.iter` record (HPWL, overflow, γ, λ, step length), and every
    /// divergence recovery a `place.recover` record (iteration, reason) and
    /// a `place.recoveries` count. The handle is not captured by snapshots.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The current placement (macros fixed, movable cells at the
    /// optimizer's latest reference point `v_k`; see
    /// [`GlobalPlacer::step`]).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The design being placed.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// The configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Current per-cell padding (extra effective width).
    pub fn padding(&self) -> &[f64] {
        &self.padding
    }

    /// Iterations completed.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Density overflow of the latest step (`1.0` before the first step).
    pub fn overflow(&self) -> f64 {
        self.last_overflow
    }

    /// Divergence recoveries performed so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Why the placer last recovered, if it ever did.
    pub fn last_divergence(&self) -> Option<Divergence> {
        self.last_divergence
    }

    /// Captures the full mutable state for rollback or on-disk
    /// checkpointing; see [`PlacerSnapshot`].
    pub fn snapshot(&self) -> PlacerSnapshot {
        PlacerSnapshot {
            placement: self.placement.clone(),
            padding: self.padding.clone(),
            lambda: self.lambda,
            iter: self.iter,
            last_overflow: self.last_overflow,
            step_scale: self.step_scale,
            recoveries: self.recoveries,
            opt: self.opt.as_ref().map(|s| (s.nesterov.state(), s.gamma)),
        }
    }

    /// Reinstates a snapshot captured from a placer over the same design
    /// and configuration; stepping afterwards continues the snapshotted
    /// trajectory exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::BadSnapshot`] when the snapshot's shapes do
    /// not match the design (placement/padding length, optimizer vector
    /// length), or it holds non-finite padding, λ, overflow or Nesterov
    /// scalars, a `step_scale` outside `(0, 1]`, or a carried γ that is not
    /// positive and finite.
    pub fn restore(&mut self, snap: PlacerSnapshot) -> Result<(), PlaceError> {
        if snap.placement.len() != self.placement.len() {
            return Err(PlaceError::BadSnapshot(format!(
                "placement has {} cells, design has {}",
                snap.placement.len(),
                self.placement.len()
            )));
        }
        if snap.padding.len() != self.eff_width.len() {
            return Err(PlaceError::BadSnapshot(format!(
                "padding has {} entries, design has {} cells",
                snap.padding.len(),
                self.eff_width.len()
            )));
        }
        if snap.padding.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(PlaceError::BadSnapshot(
                "padding must be finite and non-negative".into(),
            ));
        }
        if !snap.lambda.is_finite() || !snap.last_overflow.is_finite() {
            return Err(PlaceError::BadSnapshot(
                "lambda/overflow must be finite".into(),
            ));
        }
        if !(snap.step_scale > 0.0 && snap.step_scale <= 1.0) {
            return Err(PlaceError::BadSnapshot(format!(
                "step_scale {} is not in (0, 1]",
                snap.step_scale
            )));
        }
        if let Some((opt, gamma)) = &snap.opt {
            let expect = 2 * self.movable.len();
            if opt.u.len() != expect
                || opt.v.len() != expect
                || opt.v_prev.len() != expect
                || opt.g_prev.len() != expect
            {
                return Err(PlaceError::BadSnapshot(format!(
                    "optimizer state has {} entries, design needs {expect}",
                    opt.u.len()
                )));
            }
            if !(opt.alpha > 0.0 && opt.alpha.is_finite() && opt.a.is_finite()) {
                return Err(PlaceError::BadSnapshot(format!(
                    "optimizer scalars a = {}, alpha = {} (alpha must be positive, both finite)",
                    opt.a, opt.alpha
                )));
            }
            if !(*gamma > 0.0 && gamma.is_finite()) {
                return Err(PlaceError::BadSnapshot(format!(
                    "carried gamma {gamma} is not positive and finite"
                )));
            }
        }
        for (i, cell) in self.design.netlist().cells().iter().enumerate() {
            self.eff_width[i] = cell.width + snap.padding[i];
        }
        self.placement = snap.placement;
        self.dens.scratch = self.placement.clone();
        self.padding = snap.padding;
        self.lambda = snap.lambda;
        self.iter = snap.iter;
        self.last_overflow = snap.last_overflow;
        self.step_scale = snap.step_scale.max(1e-9);
        self.recoveries = snap.recoveries;
        // Cold: the workspaces hold no gradient at the restored `v_k`.
        self.opt = snap.opt.map(|(state, gamma)| Solver {
            nesterov: NesterovOptimizer::from_state(state),
            gamma,
            warm: false,
        });
        self.held = None;
        self.frozen = false;
        self.last_good = None;
        self.last_divergence = None;
        self.sentinel = DivergenceSentinel::new(DIVERGENCE_WINDOW);
        Ok(())
    }

    /// Replaces the per-cell padding; the density system immediately sees
    /// the enlarged cells, and the optimizer momentum is reset so the new
    /// forces take effect cleanly (consistent cell padding, paper §III-B).
    ///
    /// # Panics
    ///
    /// Panics if `padding.len()` differs from the cell count or any entry is
    /// negative/non-finite.
    pub fn set_padding(&mut self, padding: Vec<f64>) {
        assert_eq!(
            padding.len(),
            self.eff_width.len(),
            "padding length mismatch"
        );
        assert!(
            padding.iter().all(|p| p.is_finite() && *p >= 0.0),
            "padding must be finite and non-negative"
        );
        for (i, cell) in self.design.netlist().cells().iter().enumerate() {
            self.eff_width[i] = cell.width + padding[i];
        }
        self.padding = padding;
        self.opt = None; // momentum reset; next step re-seeds the optimizer
        self.held = None;
    }

    /// Injects extra static charge into the density system (white-space
    /// allocation: virtual charge reserves congested regions for routing).
    /// Resets the optimizer momentum like [`GlobalPlacer::set_padding`].
    ///
    /// # Panics
    ///
    /// Panics if the grid's shape differs from the density bin grid or any
    /// entry is non-finite (a poisoned charge grid would make every later
    /// gradient NaN with no healthy state to recover to).
    pub fn set_extra_charge(&mut self, extra: puffer_db::grid::Grid<f64>) {
        assert!(
            extra.as_slice().iter().all(|v| v.is_finite()),
            "extra charge must be finite"
        );
        self.density.set_extra_charge(extra);
        self.opt = None;
        self.held = None;
    }

    /// The density model's bin-grid dimensions `(mx, my)`, for building
    /// extra-charge grids of the right shape.
    pub fn density_dims(&self) -> (usize, usize) {
        (self.density.mx(), self.density.my())
    }

    fn gamma(&self) -> f64 {
        // Anneal γ with overflow: smooth early (large γ), accurate late.
        let bin = self.density.bin_w().min(self.density.bin_h());
        bin * self.config.gamma_factor * (1.0 + 19.0 * self.last_overflow.clamp(0.0, 1.0))
    }

    fn flat_state(&self) -> Vec<f64> {
        let n = self.movable.len();
        let mut v = vec![0.0; 2 * n];
        for (i, &id) in self.movable.iter().enumerate() {
            let p = self.placement.pos(id);
            v[i] = p.x;
            v[n + i] = p.y;
        }
        v
    }

    /// The placer as a gradient evaluation sees it: read-only inputs and the
    /// current placement on one side, the density pipeline's state and the
    /// WA workspace on the other.
    fn split(&mut self) -> (Inputs<'_>, &mut DensityState, &mut WaWorkspace, &Placement) {
        let inputs = Inputs {
            design: self.design,
            density: &self.density,
            eff_width: &self.eff_width,
            movable: &self.movable,
            config: &self.config,
            trace: &self.trace,
            halves: self.halves,
        };
        (inputs, &mut self.dens, &mut self.wa, &self.placement)
    }

    /// Takes the live solver, or bootstraps one: evaluates the gradient at
    /// the projected placement once (unless `healthy_stats` left it in the
    /// workspaces), balances λ (wirelength/density gradient balance) on it
    /// when λ is unset, and seeds a warm Nesterov state with its
    /// combination. Called by every non-frozen [`GlobalPlacer::step`],
    /// which so bootstraps a solver before its first iteration and after
    /// every event that drops one.
    fn ensure_optimizer(&mut self) -> Solver {
        if let Some(solver) = self.opt.take() {
            return solver;
        }
        let gamma = self.gamma();
        let held = self.held.take() == Some(gamma);
        let mut lambda = self.lambda;
        let start = self.flat_state();
        let mut flat = start.clone();
        let (inputs, dens, wa, _) = self.split();
        inputs.projector()(&mut flat);
        inputs.scatter(&flat, &mut dens.scratch);
        if !held || flat != start {
            inputs.evaluate(&mut dens.ws, wa, &dens.scratch, gamma);
        }
        if lambda == 0.0 {
            let de = dens.ws.last_gradient();
            let (wx, wy) = (wa.grad_x(), wa.grad_y());
            let sw: f64 = inputs
                .movable
                .iter()
                .map(|&id| wx[id.index()].abs() + wy[id.index()].abs())
                .sum();
            let sd: f64 = inputs
                .movable
                .iter()
                .map(|&id| de[id.index()].0.abs() + de[id.index()].1.abs())
                .sum();
            lambda = if sd > 1e-12 { sw / sd } else { 1.0 };
        }
        let g = inputs.compose(&dens.ws, wa, lambda);
        self.lambda = lambda;
        let gmax = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bin = self.density.bin_w().min(self.density.bin_h());
        let alpha0 = if gmax > 1e-12 {
            (0.5 * bin / gmax).min(1e6)
        } else {
            1.0
        };
        // Divergence recoveries shrink the bootstrap step via `step_scale`.
        let alpha0 = (alpha0 * self.step_scale).max(1e-9);
        Solver {
            nesterov: NesterovOptimizer::new(flat, g, alpha0),
            gamma,
            warm: true,
        }
    }

    /// Performs one Nesterov iteration and returns the updated statistics.
    ///
    /// The iterate it commits is the new reference point `v_{k+1}`, the
    /// DREAMPlace convention, not the major solution `u_{k+1}`: the last
    /// backtracking round has just taken the gradient there, and the
    /// statistics are by-products of that evaluation — the overflow read
    /// off its charge map, the HPWL off the WA kernel's per-net extremes —
    /// so a step evaluates no point its gradients did not. That gradient
    /// stays in the workspaces, and the next step opens with it.
    ///
    /// A divergence sentinel watches every iterate for non-finite
    /// coordinates or statistics, exploding wirelength, and overflow limit
    /// cycles. When it fires, the iterate is discarded: the placer rolls
    /// back to the last healthy solution, resets the optimizer momentum,
    /// and shrinks its bootstrap step size by `RECOVERY_BACKOFF` (½). Past
    /// `MAX_RECOVERIES` (8) recoveries the placer freezes — it holds the
    /// last healthy solution and further steps are no-ops — so a flow
    /// always completes with a finite placement instead of asserting.
    pub fn step(&mut self) -> IterationStats {
        if self.frozen {
            self.iter += 1;
            let mut stats = self.healthy_stats();
            stats.iter = self.iter;
            self.emit_iter(&stats);
            return stats;
        }
        let Solver {
            nesterov: mut opt,
            gamma: carried,
            warm,
        } = self.ensure_optimizer();
        let gamma = self.gamma();
        let lambda = self.lambda;
        let (inputs, dens, wa, placement) = self.split();
        // The opening gradient `∇f(v_k)`: from the workspaces when they
        // hold it, else evaluated at the carried γ. Every backtracking round
        // takes the fresh one.
        let opening = if warm {
            inputs.compose(&dens.ws, wa, lambda)
        } else {
            inputs.combined_grad(dens, wa, opt.reference(), lambda, carried)
        };
        opt.step(
            opening,
            |flat: &[f64]| inputs.combined_grad(dens, wa, flat, lambda, gamma),
            inputs.projector(),
        );
        // Every round ends on a gradient at its `v_new`, and the last
        // round's `v_new` is the new reference point `v_{k+1}`. The placer
        // commits it: both workspaces hold its evaluation, overflow and
        // HPWL included, which leaves the solver warm.
        let mut new_placement = placement.clone();
        inputs.scatter(opt.reference(), &mut new_placement);
        let (overflow, hpwl) = (dens.ws.last_overflow(), wa.hpwl());
        let prev_placement = std::mem::replace(&mut self.placement, new_placement);
        self.iter += 1;
        let new_lambda = self.lambda * self.config.lambda_growth;
        let stats = IterationStats {
            iter: self.iter,
            overflow,
            hpwl,
            lambda: new_lambda,
        };
        let verdict = self.sentinel.check(&stats, opt.reference());
        self.opt = Some(Solver {
            nesterov: opt,
            gamma,
            warm: true,
        });

        if let Some(reason) = verdict {
            let stats = self.recover(reason, prev_placement);
            self.emit_iter(&stats);
            return stats;
        }

        // Healthy iterate: commit and remember it as the rollback target.
        self.lambda = new_lambda;
        self.last_overflow = overflow;
        self.last_good = Some(LastGood {
            placement: self.placement.clone(),
            stats,
            lambda: self.lambda,
            last_overflow: self.last_overflow,
        });
        self.emit_iter(&stats);
        stats
    }

    /// Emits one `place.iter` telemetry record; a no-op without a trace.
    fn emit_iter(&self, stats: &IterationStats) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace
            .record("place.iter")
            .int("iter", cast::idx_i64(stats.iter))
            .num("hpwl", stats.hpwl)
            .num("overflow", stats.overflow)
            .num("gamma", self.gamma())
            .num("lambda", stats.lambda)
            .num(
                "alpha",
                self.opt.as_ref().map_or(0.0, |s| s.nesterov.step_size()),
            )
            .int("recoveries", cast::idx_i64(self.recoveries))
            .write();
    }

    /// Statistics of the solution currently held (used by the frozen path
    /// and after a rollback, where the diverged iterate's numbers would be
    /// meaningless or non-finite): the rollback target's, or else the
    /// overflow and HPWL of one gradient evaluation of the placement, which
    /// stays in the workspaces for the next bootstrap (see `held`). Both
    /// paths run without a solver, so the evaluation clobbers no warm one.
    fn healthy_stats(&mut self) -> IterationStats {
        if let Some(lg) = &self.last_good {
            return lg.stats;
        }
        let gamma = self.gamma();
        if self.held != Some(gamma) {
            let (inputs, dens, wa, placement) = self.split();
            inputs.evaluate(&mut dens.ws, wa, placement, gamma);
            self.held = Some(gamma);
        }
        let (overflow, hpwl) = (self.dens.ws.last_overflow(), self.wa.hpwl());
        IterationStats {
            iter: self.iter,
            overflow,
            hpwl,
            lambda: self.lambda,
        }
    }

    /// Discards the diverged iterate: rolls back to the last healthy
    /// solution (or sanitizes the current one if no healthy iterate exists
    /// yet), resets momentum, and backs off the step size. Exhausting the
    /// recovery budget freezes the placer at the last healthy solution.
    fn recover(&mut self, reason: Divergence, prev_placement: Placement) -> IterationStats {
        self.recoveries += 1;
        self.trace.add("place.recoveries", 1);
        if self.trace.is_enabled() {
            self.trace
                .record("place.recover")
                .int("iter", cast::idx_i64(self.iter))
                .str("reason", &reason.to_string())
                .write();
        }
        self.last_divergence = Some(reason);
        self.step_scale = (self.step_scale * RECOVERY_BACKOFF).max(1e-9);
        self.opt = None; // momentum reset; the next step re-bootstraps
        self.held = None;
        self.sentinel.reset_window();

        match &self.last_good {
            Some(lg) => {
                self.placement = lg.placement.clone();
                self.lambda = lg.lambda;
                self.last_overflow = lg.last_overflow;
            }
            None => {
                // Diverged before any healthy iterate: the pre-step state is
                // the best we have. Sanitize any non-finite coordinates so
                // the re-bootstrapped gradient is well defined.
                self.placement = prev_placement;
                self.sanitize_placement();
                self.lambda = 0.0; // re-balance wirelength vs density
                self.last_overflow = 1.0;
            }
        }
        if self.recoveries > MAX_RECOVERIES {
            self.frozen = true;
        }
        let mut stats = self.healthy_stats();
        stats.iter = self.iter;
        stats
    }

    /// Replaces non-finite movable-cell coordinates with a deterministic
    /// spot near the region center (tiny per-cell offset to break symmetry).
    fn sanitize_placement(&mut self) {
        let r = self.design.region();
        let c = r.center();
        let dx = r.width() * 1e-3;
        let dy = r.height() * 1e-3;
        for (i, &id) in self.movable.iter().enumerate() {
            let p = self.placement.pos(id);
            if !p.x.is_finite() || !p.y.is_finite() {
                let spread = cast::idx_f64(i % 17) - 8.0;
                self.placement.set(
                    id,
                    puffer_db::geom::Point::new(c.x + spread * dx, c.y + spread * dy),
                );
            }
        }
    }

    /// Chaos-harness fault point: poisons the first `count` movable cells
    /// with NaN coordinates and discards the optimizer momentum, so the
    /// next [`GlobalPlacer::step`] re-bootstraps from the poisoned state
    /// and the divergence sentinel must catch the burst. Injection use
    /// only: nothing calls it unless a chaos plan is armed.
    pub fn chaos_poison_nan(&mut self, count: usize) {
        for &id in self.movable.iter().take(count.max(1)) {
            self.placement
                .set(id, puffer_db::geom::Point::new(f64::NAN, f64::NAN));
        }
        // Without this the next step would scatter the optimizer's own
        // (healthy) solution over the poison and the burst would be lost.
        self.opt = None;
        self.held = None;
    }

    /// Runs until the stop overflow or the iteration cap is reached.
    pub fn run(&mut self) -> IterationStats {
        self.run_until(|_| false)
    }

    /// Runs like [`GlobalPlacer::run`], additionally stopping when `stop`
    /// returns `true` for an iteration's statistics.
    pub fn run_until(&mut self, mut stop: impl FnMut(&IterationStats) -> bool) -> IterationStats {
        let mut last = self.step();
        while last.iter < self.config.max_iters
            && last.overflow > self.config.stop_overflow
            && !stop(&last)
        {
            last = self.step();
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::hpwl::total_hpwl;
    use puffer_gen::{generate, GeneratorConfig};

    fn small_design() -> Design {
        generate(&GeneratorConfig {
            num_cells: 250,
            num_nets: 280,
            num_macros: 1,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    /// The density overflow of the held placement, by the one-shot
    /// evaluation: the reference for the overflow a step reads off its
    /// gradient.
    fn overflow_of(placer: &GlobalPlacer<'_>) -> f64 {
        placer
            .density
            .evaluate_threaded(
                placer.design.netlist(),
                placer.placement(),
                &placer.eff_width,
                placer.config.target_density,
                1,
            )
            .overflow
    }

    #[test]
    fn placer_reduces_overflow() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(
            &d,
            PlacerConfig {
                max_iters: 80,
                ..PlacerConfig::default()
            },
        )
        .unwrap();
        let first = placer.step();
        let last = placer.run();
        assert!(
            last.overflow < first.overflow,
            "{} -> {}",
            first.overflow,
            last.overflow
        );
        assert!(last.overflow < 0.5);
    }

    #[test]
    fn placement_stays_in_region() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(
            &d,
            PlacerConfig {
                max_iters: 30,
                ..PlacerConfig::default()
            },
        )
        .unwrap();
        placer.run();
        let r = d.region();
        for id in d.netlist().movable_cells() {
            let p = placer.placement().pos(id);
            assert!(p.x >= r.xl && p.x <= r.xh, "x {p}");
            assert!(p.y >= r.yl && p.y <= r.yh, "y {p}");
        }
    }

    #[test]
    fn run_is_deterministic() {
        let d = small_design();
        let cfg = PlacerConfig {
            max_iters: 20,
            ..PlacerConfig::default()
        };
        let mut a = GlobalPlacer::new(&d, cfg.clone()).unwrap();
        let mut b = GlobalPlacer::new(&d, cfg).unwrap();
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa.hpwl, sb.hpwl);
        assert_eq!(a.placement(), b.placement());
    }

    #[test]
    fn padding_spreads_cells_wider() {
        let d = small_design();
        let cfg = PlacerConfig {
            max_iters: 60,
            ..PlacerConfig::default()
        };
        let mut plain = GlobalPlacer::new(&d, cfg.clone()).unwrap();
        plain.run();

        let mut padded = GlobalPlacer::new(&d, cfg).unwrap();
        // Pad every movable cell by 2x its width after a warmup.
        for _ in 0..10 {
            padded.step();
        }
        let pad: Vec<f64> = d
            .netlist()
            .cells()
            .iter()
            .map(|c| if c.is_movable() { 2.0 * c.width } else { 0.0 })
            .collect();
        padded.set_padding(pad);
        padded.run();

        // Padded run spreads the same cells over more area: the padded
        // placement's raw (unpadded) density overflow must be lower.
        let dim = 64;
        let m = crate::density::DensityModel::new(&d, dim, dim);
        let widths: Vec<f64> = d.netlist().cells().iter().map(|c| c.width).collect();
        let e_plain = m.evaluate_threaded(d.netlist(), plain.placement(), &widths, 0.6, 1);
        let e_padded = m.evaluate_threaded(d.netlist(), padded.placement(), &widths, 0.6, 1);
        assert!(
            e_padded.overflow <= e_plain.overflow + 1e-9,
            "padded {} vs plain {}",
            e_padded.overflow,
            e_plain.overflow
        );
    }

    #[test]
    fn set_padding_rejects_bad_input() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let n = d.netlist().num_cells();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            placer.set_padding(vec![0.0; n - 1]);
        }));
        assert!(result.is_err());
        let mut placer2 = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let result2 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            placer2.set_padding(vec![-1.0; n]);
        }));
        assert!(result2.is_err());
    }

    #[test]
    fn run_until_stops_early() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(
            &d,
            PlacerConfig {
                max_iters: 500,
                ..PlacerConfig::default()
            },
        )
        .unwrap();
        let stats = placer.run_until(|s| s.iter >= 5);
        assert_eq!(stats.iter, 5);
        assert_eq!(placer.iterations(), 5);
    }

    #[test]
    fn hpwl_does_not_explode() {
        // Wirelength should stay within a sane multiple of the initial
        // (clustered) value even as density spreads cells.
        let d = small_design();
        let mut placer = GlobalPlacer::new(
            &d,
            PlacerConfig {
                max_iters: 60,
                ..PlacerConfig::default()
            },
        )
        .unwrap();
        let first = placer.step();
        let last = placer.run();
        assert!(last.hpwl < first.hpwl * 50.0 + 1.0);
        assert!(last.hpwl.is_finite() && last.overflow.is_finite());
    }

    #[test]
    fn nan_initial_placement_recovers() {
        // Poison a handful of coordinates; the sentinel must roll back,
        // sanitize, and still drive the placement to a finite solution.
        let d = small_design();
        let mut p = d.initial_placement();
        for (k, id) in d.netlist().movable_cells().enumerate().take(20) {
            let _ = k;
            p.set(id, puffer_db::geom::Point::new(f64::NAN, f64::NAN));
        }
        let mut placer = GlobalPlacer::with_placement(
            &d,
            PlacerConfig {
                max_iters: 80,
                ..PlacerConfig::default()
            },
            p,
        )
        .unwrap();
        let last = placer.run();
        assert!(placer.recoveries() >= 1, "sentinel never fired");
        assert!(
            last.overflow.is_finite() && last.hpwl.is_finite(),
            "final stats not finite: {last:?}"
        );
        let r = d.region();
        for id in d.netlist().movable_cells() {
            let pos = placer.placement().pos(id);
            assert!(pos.x.is_finite() && pos.y.is_finite(), "cell at {pos}");
            assert!(pos.x >= r.xl && pos.x <= r.xh);
            assert!(pos.y >= r.yl && pos.y <= r.yh);
        }
    }

    /// A charge map that goes non-finite under a finite placement: the
    /// coordinates and the HPWL see nothing, so the overflow the gradient
    /// evaluation reads off the map alone must carry it to the sentinel.
    #[test]
    fn non_finite_charge_map_recovers_as_non_finite() {
        let d = small_design();
        for poison in [f64::NAN, f64::INFINITY] {
            let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
            for _ in 0..5 {
                placer.step();
            }
            assert_eq!(placer.recoveries(), 0);
            let healthy = placer.placement().clone();
            // Behind `set_padding`'s back, which rejects such a width.
            let cell = placer.movable[3].index();
            placer.eff_width[cell] = poison;
            assert!(!overflow_of(&placer).is_finite());
            assert!(total_hpwl(d.netlist(), placer.placement()).is_finite());

            let stats = placer.step();
            assert_eq!(placer.last_divergence(), Some(Divergence::NonFinite));
            assert_eq!(placer.recoveries(), 1);
            assert!(stats.overflow.is_finite() && stats.hpwl.is_finite());
            assert_eq!(placer.placement(), &healthy, "rolled back");
        }
    }

    /// A NaN coordinate that neither statistic sees: the cell's one net
    /// runs to a macro pin, so no net goes all-NaN after the step (which
    /// the HPWL would see) and the density grid drops the NaN rectangle.
    /// Only the sentinel's own coordinate check catches it.
    #[test]
    fn a_nan_coordinate_under_finite_statistics_recovers_as_non_finite() {
        use puffer_db::geom::{Point, Rect};
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        use puffer_db::tech::Technology;
        let mut nb = NetlistBuilder::new();
        let block = nb.add_cell("block", 6.0, 6.0, CellKind::FixedMacro);
        let cells: Vec<CellId> = (0..60)
            .map(|i| nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable))
            .collect();
        for (i, pair) in cells.windows(2).enumerate() {
            let net = nb.add_net(format!("n{i}"));
            nb.connect(net, pair[0], Point::ORIGIN).unwrap();
            nb.connect(net, pair[1], Point::ORIGIN).unwrap();
        }
        let victim = nb.add_cell("victim", 1.0, 1.0, CellKind::Movable);
        let tie = nb.add_net("tie");
        nb.connect(tie, victim, Point::ORIGIN).unwrap();
        nb.connect(tie, block, Point::new(1.0, 1.0)).unwrap();
        let mut d = Design::new(
            "tie",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 40.0, 40.0),
        )
        .unwrap();
        d.place_macro(block, Point::new(30.0, 30.0)).unwrap();

        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        for _ in 0..5 {
            placer.step();
        }
        assert_eq!(placer.recoveries(), 0);
        let healthy = placer.placement().clone();
        let y = healthy.pos(victim).y;
        placer.placement.set(victim, Point::new(f64::NAN, y));
        placer.opt = None; // the next step starts from the poisoned point
        assert!(total_hpwl(d.netlist(), placer.placement()).is_finite());
        assert!(overflow_of(&placer).is_finite());

        let stats = placer.step();
        assert_eq!(placer.last_divergence(), Some(Divergence::NonFinite));
        assert_eq!(placer.recoveries(), 1);
        assert!(stats.overflow.is_finite() && stats.hpwl.is_finite());
        assert_eq!(placer.placement(), &healthy, "rolled back");
    }

    /// Poisons one movable cell with NaN and drops the momentum, so the
    /// next step starts from the poison and diverges.
    fn poison(placer: &mut GlobalPlacer<'_>) {
        let id = placer.movable[0];
        placer
            .placement
            .set(id, puffer_db::geom::Point::new(f64::NAN, f64::NAN));
        placer.opt = None;
        placer.held = None;
    }

    #[test]
    fn recovery_budget_freezes_placer() {
        // An adversarial sentinel scenario: every step diverges because the
        // placement is re-poisoned from the outside. After the budget the
        // placer must freeze instead of looping forever.
        let d = small_design();
        let mut p = d.initial_placement();
        for id in d.netlist().movable_cells().take(1) {
            p.set(id, puffer_db::geom::Point::new(f64::NAN, f64::NAN));
        }
        let mut placer = GlobalPlacer::with_placement(
            &d,
            PlacerConfig {
                max_iters: 400,
                ..PlacerConfig::default()
            },
            p,
        )
        .unwrap();
        // The first recovery sanitizes, so subsequent steps would be
        // healthy; re-poisoning makes MAX_RECOVERIES + 1 divergences in all.
        let s1 = placer.step();
        assert!(s1.overflow.is_finite());
        assert!(placer.recoveries() >= 1);
        for _ in 0..MAX_RECOVERIES {
            poison(&mut placer);
            placer.step();
        }
        let last = placer.run();
        assert!(last.overflow.is_finite() && last.hpwl.is_finite());
    }

    #[test]
    fn frozen_placer_still_advances_iter_so_run_terminates() {
        // The divergence past the recovery budget freezes the placer. A
        // frozen step must still count as an iteration: that is what lets
        // `run()` (and the flow's GP loop) terminate at `max_iters`.
        let d = small_design();
        let mut p = d.initial_placement();
        for id in d.netlist().movable_cells().take(1) {
            p.set(id, puffer_db::geom::Point::new(f64::NAN, f64::NAN));
        }
        let mut placer = GlobalPlacer::with_placement(
            &d,
            PlacerConfig {
                max_iters: 25,
                stop_overflow: 0.0,
                ..PlacerConfig::default()
            },
            p,
        )
        .unwrap();
        let mut freezing = placer.step();
        for _ in 0..MAX_RECOVERIES {
            poison(&mut placer);
            freezing = placer.step();
        }
        assert!(placer.frozen, "one divergence past the budget must freeze");
        assert_eq!(freezing.iter, MAX_RECOVERIES + 1);
        let frozen_at = placer.placement().clone();
        for expect in MAX_RECOVERIES + 2..=MAX_RECOVERIES + 4 {
            assert_eq!(
                placer.step().iter,
                expect,
                "frozen step must advance iter by one"
            );
        }
        let last = placer.run();
        assert_eq!(last.iter, 25, "run() must return at max_iters");
        assert!(last.overflow.is_finite() && last.hpwl.is_finite());
        assert_eq!(
            placer.placement(),
            &frozen_at,
            "frozen steps hold the solution"
        );
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let d = small_design();
        let cfg = PlacerConfig {
            max_iters: 40,
            ..PlacerConfig::default()
        };
        let mut a = GlobalPlacer::new(&d, cfg.clone()).unwrap();
        for _ in 0..15 {
            a.step();
        }
        let snap = a.snapshot();

        let mut b = GlobalPlacer::new(&d, cfg).unwrap();
        b.restore(snap).unwrap();
        for _ in 0..15 {
            let sa = a.step();
            let sb = b.step();
            assert_eq!(sa, sb);
        }
        assert_eq!(a.placement(), b.placement());
    }

    #[test]
    fn snapshot_restore_roundtrips_padding() {
        let d = small_design();
        let cfg = PlacerConfig::default();
        let mut a = GlobalPlacer::new(&d, cfg.clone()).unwrap();
        for _ in 0..5 {
            a.step();
        }
        let pad: Vec<f64> = d
            .netlist()
            .cells()
            .iter()
            .map(|c| if c.is_movable() { 0.5 } else { 0.0 })
            .collect();
        a.set_padding(pad.clone());
        a.step();
        let snap = a.snapshot();
        assert_eq!(snap.padding, pad);

        let mut b = GlobalPlacer::new(&d, cfg).unwrap();
        b.restore(snap).unwrap();
        assert_eq!(b.padding(), &pad[..]);
        assert_eq!(a.step(), b.step());
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let mut snap = placer.snapshot();
        snap.padding.pop();
        assert!(matches!(
            placer.restore(snap),
            Err(PlaceError::BadSnapshot(_))
        ));
        let mut snap2 = placer.snapshot();
        snap2.lambda = f64::NAN;
        assert!(matches!(
            placer.restore(snap2),
            Err(PlaceError::BadSnapshot(_))
        ));
        // `f64::clamp` keeps a NaN: the step backoff is checked, not clamped.
        for bad in [f64::NAN, 0.0, 2.0] {
            let mut snap = placer.snapshot();
            snap.step_scale = bad;
            let Err(PlaceError::BadSnapshot(msg)) = placer.restore(snap) else {
                panic!("restore accepted a step_scale of {bad}");
            };
            assert!(msg.contains("step_scale"), "{msg}");
        }
        placer.step();
        let mut snap = placer.snapshot();
        if let Some((opt, _)) = &mut snap.opt {
            opt.a = f64::NAN;
        }
        let Err(PlaceError::BadSnapshot(msg)) = placer.restore(snap) else {
            panic!("restore accepted a NaN Nesterov a");
        };
        assert!(msg.contains("a = NaN"), "{msg}");
    }

    #[test]
    fn bad_gamma_factor_is_an_error_not_a_panic() {
        let d = small_design();
        for gamma_factor in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let cfg = PlacerConfig {
                gamma_factor,
                ..PlacerConfig::default()
            };
            let new = GlobalPlacer::new(&d, cfg.clone());
            assert!(
                matches!(new, Err(PlaceError::BadConfig(_))),
                "new, {gamma_factor}"
            );
            let with = GlobalPlacer::with_placement(&d, cfg, d.initial_placement());
            let Err(PlaceError::BadConfig(msg)) = with else {
                panic!("with_placement accepted gamma_factor {gamma_factor}");
            };
            assert!(msg.contains("gamma_factor"), "{msg}");
        }
        let cfg = PlacerConfig {
            gamma_factor: 0.01,
            ..PlacerConfig::default()
        };
        assert!(GlobalPlacer::new(&d, cfg).unwrap().step().hpwl.is_finite());
    }

    fn counter(trace: &Trace, name: &str) -> u64 {
        let counters = trace.counters();
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Bootstraps `placer`'s solver without stepping, as a step would.
    fn bootstrap(placer: &mut GlobalPlacer<'_>) {
        let solver = placer.ensure_optimizer();
        placer.opt = Some(solver);
    }

    #[test]
    fn a_step_runs_three_transforms_when_the_first_round_is_accepted() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let trace = Trace::enabled();
        placer.set_trace(trace.clone());
        let read = || ["place.density_evals", "fft.transforms2d"].map(|name| counter(&trace, name));
        bootstrap(&mut placer);
        // One gradient balances λ, sizes α₀ and opens the first step.
        let mut before = read();
        assert_eq!(
            before,
            [1, 3],
            "the bootstrap evaluates its start point once"
        );
        let mut three = 0;
        for _ in 0..20 {
            placer.step();
            let after = read();
            let [evals, transforms] = [0, 1].map(|k| after[k] - before[k]);
            // The opening gradient is the one the workspaces hold; then one
            // gradient (3 transforms) per backtracking round, and nothing
            // else: the statistics come with the last round's gradient.
            assert!((1..=4).contains(&evals), "{evals} evaluations in one step");
            assert_eq!(transforms, 3 * evals);
            three += u32::from(transforms == 3);
            before = after;
        }
        assert!(
            three >= 10,
            "only {three}/20 steps accepted their first round"
        );
    }

    #[test]
    fn a_step_runs_one_wa_gradient_when_the_first_round_is_accepted() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let trace = Trace::enabled();
        placer.set_trace(trace.clone());
        let read = || {
            [
                "place.wa_grad_evals",
                "place.wa_exp_calls",
                "place.wa_exp_terms",
                "place.density_evals",
            ]
            .map(|name| counter(&trace, name))
        };
        bootstrap(&mut placer);
        let mut before = read();
        assert_eq!(
            [before[0], before[3]],
            [1, 1],
            "the bootstrap is one evaluation of each kind"
        );
        let nl = d.netlist();
        let active_pins: u64 = nl
            .iter_nets()
            .filter(|(id, net)| nl.net_degree(*id) >= 2 && net.weight != 0.0)
            .map(|(id, _)| nl.net_degree(id) as u64)
            .sum();
        let mut first_round = 0;
        for _ in 0..20 {
            placer.step();
            let after = read();
            let [grads, calls, terms, density] = [0, 1, 2, 3].map(|k| after[k] - before[k]);
            // One per backtracking round: the opening gradient (at the
            // carried γ) is the one the last round left. The density
            // pipeline runs the same rounds; neither half runs a statistics
            // pass.
            assert_eq!(
                grads, density,
                "{grads} WA gradients, {density} density evaluations"
            );
            assert_eq!(terms, 4 * active_pins * grads);
            assert!(calls < terms, "{calls} exp calls for {terms} terms");
            first_round += u32::from(grads == 1);
            before = after;
        }
        assert!(
            first_round >= 10,
            "only {first_round}/20 steps accepted their first round"
        );
    }

    /// The statistics a step returns are by-products of its last gradient
    /// evaluation; they must still describe the placement it commits, bit
    /// for bit, across a padding change, a restore and two recoveries: one
    /// with a rollback target, and one right after a restore, without.
    #[test]
    fn step_statistics_describe_the_committed_placement() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let pad: Vec<f64> = d
            .netlist()
            .cells()
            .iter()
            .map(|c| if c.is_movable() { 0.5 * c.width } else { 0.0 })
            .collect();
        let mut saved = None;
        for k in 0..30 {
            match k {
                8 => placer.set_padding(pad.clone()),
                12 => saved = Some(placer.snapshot()),
                18 => placer.restore(saved.clone().unwrap()).unwrap(),
                24 => poison(&mut placer),
                27 => {
                    placer.restore(saved.clone().unwrap()).unwrap();
                    poison(&mut placer);
                }
                _ => {}
            }
            let recoveries = placer.recoveries();
            let stats = placer.step();
            let recovered = placer.recoveries() - recoveries;
            assert_eq!(recovered, usize::from(k == 24 || k == 27), "step {k}");
            if k == 27 {
                assert!(placer.last_good.is_none(), "no rollback target");
            }
            let hpwl = total_hpwl(d.netlist(), placer.placement());
            let overflow = overflow_of(&placer);
            assert_eq!(stats.iter, placer.iterations(), "step {k}");
            assert_eq!(stats.hpwl.to_bits(), hpwl.to_bits(), "step {k}: hpwl");
            assert_eq!(
                stats.overflow.to_bits(),
                overflow.to_bits(),
                "step {k}: overflow"
            );
        }
    }

    /// A divergence with no rollback target evaluates the held placement
    /// for its statistics; the next step's bootstrap starts from that
    /// evaluation instead of repeating it.
    #[test]
    fn a_bootstrap_after_a_recovery_without_a_rollback_target_reuses_its_evaluation() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        let trace = Trace::enabled();
        placer.set_trace(trace.clone());
        for &id in placer.movable.iter().take(3) {
            let nan = puffer_db::geom::Point::new(f64::NAN, f64::NAN);
            placer.placement.set(id, nan);
        }
        let evals: Vec<u64> = (0..3)
            .map(|_| {
                placer.step();
                counter(&trace, "place.density_evals")
            })
            .collect();
        // Step 1: the bootstrap, one round, and the recovery's statistics
        // evaluation of the sanitized placement. Steps 2 and 3: one round
        // each; the bootstrap of step 2 starts from that evaluation.
        assert_eq!(placer.recoveries(), 1);
        assert_eq!(evals, [3, 4, 5]);
    }

    #[test]
    fn the_carried_gamma_is_the_last_round_gamma_and_restore_checks_it() {
        let d = small_design();
        let mut placer = GlobalPlacer::new(&d, PlacerConfig::default()).unwrap();
        assert_eq!(placer.snapshot().opt, None, "no solver yet");
        for _ in 0..3 {
            let gamma = placer.gamma();
            placer.step();
            assert_eq!(placer.snapshot().opt.map(|(_, g)| g), Some(gamma));
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut snap = placer.snapshot();
            if let Some((_, gamma)) = &mut snap.opt {
                *gamma = bad;
            }
            let Err(PlaceError::BadSnapshot(msg)) = placer.restore(snap) else {
                panic!("restore accepted a carried gamma of {bad}");
            };
            assert!(msg.contains("gamma"), "{msg}");
        }
    }

    /// One move of the warm-solver property test's scripts.
    #[derive(Debug, Clone)]
    enum Op {
        Steps(usize),
        /// Pad every movable cell by a width drawn from the seed.
        Pad(u64),
        /// Inject a random extra-charge map.
        Charge(u64),
        Save,
        /// Back to the last `Save` (a no-op before the first).
        Restore,
        /// NaN-poison a few cells and step: the sentinel must recover.
        PoisonAndStep,
    }

    /// Steps `placer`; with `cold`, first makes its solver cold, so the
    /// step evaluates its opening gradient as after a restore.
    fn step_as(placer: &mut GlobalPlacer<'_>, cold: bool) {
        if cold && !placer.frozen {
            let mut solver = placer.ensure_optimizer();
            solver.warm = false;
            placer.opt = Some(solver);
        }
        placer.step();
    }

    fn apply(
        placer: &mut GlobalPlacer<'_>,
        op: &Op,
        saved: &mut Option<PlacerSnapshot>,
        cold: bool,
    ) {
        use puffer_rng::StdRng;
        match op {
            Op::Steps(n) => {
                for _ in 0..*n {
                    step_as(placer, cold);
                }
            }
            Op::Pad(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let pad = placer
                    .design
                    .netlist()
                    .cells()
                    .iter()
                    .map(|c| {
                        if c.is_movable() {
                            rng.next_f64() * c.width
                        } else {
                            0.0
                        }
                    })
                    .collect();
                placer.set_padding(pad);
            }
            Op::Charge(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let (mx, my) = placer.density_dims();
                let mut extra: puffer_db::grid::Grid<f64> =
                    puffer_db::grid::Grid::new(placer.design.region(), mx, my);
                for v in extra.as_mut_slice() {
                    *v = rng.next_f64() * 3.0;
                }
                placer.set_extra_charge(extra);
            }
            Op::Save => *saved = Some(placer.snapshot()),
            Op::Restore => {
                if let Some(snap) = saved.clone() {
                    placer.restore(snap).unwrap();
                }
            }
            Op::PoisonAndStep => {
                for &id in placer.movable.iter().take(3) {
                    placer
                        .placement
                        .set(id, puffer_db::geom::Point::new(f64::NAN, f64::NAN));
                }
                placer.opt = None;
                step_as(placer, cold);
            }
        }
    }

    /// A warm step composes its opening gradient from the workspaces; a
    /// cold one evaluates it. Through random scripts of steps, padding
    /// changes, extra charge, snapshot/restore and NaN recoveries, a normal
    /// placer and one whose solver is made cold before every step must hold
    /// equal snapshots throughout, the cold one evaluating one opening
    /// gradient more per warm step.
    #[test]
    fn a_warm_solver_never_changes_a_trajectory() {
        use puffer_rng::check::{run_cases, vec_of};
        let d = small_design();
        let cfg = PlacerConfig::default();
        run_cases(
            6,
            0x5EED_0E40,
            |rng| {
                let mut script = vec_of(rng, 3..7, |r| match r.gen_range(0..6u32) {
                    0 => Op::Pad(r.next_u64()),
                    1 => Op::Charge(r.next_u64()),
                    2 => Op::Save,
                    3 => Op::Restore,
                    4 => Op::PoisonAndStep,
                    _ => Op::Steps(r.gen_range(1..5usize)),
                });
                // Whatever was drawn, every event that drops or chills the
                // solver, and a recovery, is crossed at least once.
                script.extend([
                    Op::Steps(3),
                    Op::Save,
                    Op::Pad(rng.next_u64()),
                    Op::Steps(1),
                    Op::Charge(rng.next_u64()),
                    Op::Steps(2),
                    Op::Charge(rng.next_u64()),
                    Op::Steps(2),
                    Op::Restore,
                    Op::Steps(2),
                    Op::PoisonAndStep,
                    Op::Steps(2),
                ]);
                script
            },
            |script| {
                let mut warm = GlobalPlacer::new(&d, cfg.clone()).unwrap();
                let mut cold = GlobalPlacer::new(&d, cfg.clone()).unwrap();
                let (warm_trace, cold_trace) = (Trace::enabled(), Trace::enabled());
                warm.set_trace(warm_trace.clone());
                cold.set_trace(cold_trace.clone());
                let (mut saved_w, mut saved_c) = (None, None);
                for (k, op) in script.iter().enumerate() {
                    apply(&mut warm, op, &mut saved_w, false);
                    apply(&mut cold, op, &mut saved_c, true);
                    puffer_rng::prop_check!(
                        warm.snapshot() == cold.snapshot(),
                        "snapshots differ after op {k} ({op:?})"
                    );
                }
                puffer_rng::prop_check!(warm.recoveries() >= 1, "no recovery happened");
                for evals in ["place.density_evals", "place.wa_grad_evals"] {
                    let (w, c) = (counter(&warm_trace, evals), counter(&cold_trace, evals));
                    puffer_rng::prop_check!(c >= w + 10, "{evals}: {w} warm, {c} cold");
                }
                Ok(())
            },
        );
    }

    /// Each event that changes what a gradient reads while leaving the
    /// placement alone must leave no warm solver behind: `set_padding` and
    /// `set_extra_charge` drop it, and `restore` installs the snapshot's
    /// solver cold — also when only a fixed macro moved, which only the WA
    /// half reads. The next step then matches a placer that is always cold.
    #[test]
    fn every_invalidation_site_leaves_the_solver_cold() {
        let d = small_design();
        let cfg = PlacerConfig::default();
        let pad: Vec<f64> = d
            .netlist()
            .cells()
            .iter()
            .map(|c| if c.is_movable() { 1.5 * c.width } else { 0.0 })
            .collect();
        let charge = |placer: &GlobalPlacer<'_>| {
            let (mx, my) = placer.density_dims();
            let mut extra: puffer_db::grid::Grid<f64> =
                puffer_db::grid::Grid::new(d.region(), mx, my);
            for (i, v) in extra.as_mut_slice().iter_mut().enumerate() {
                *v = (i % 7) as f64;
            }
            extra
        };
        type Site<'s> = (&'s str, &'s dyn Fn(&mut GlobalPlacer<'_>));
        let sites: [Site<'_>; 4] = [
            ("set_padding", &|p| p.set_padding(pad.clone())),
            ("set_extra_charge", &|p| {
                let extra = charge(p);
                p.set_extra_charge(extra);
            }),
            ("restore", &|p| {
                let mut snap = p.snapshot();
                snap.padding = pad.clone();
                p.restore(snap).unwrap();
            }),
            ("restore, a macro moved", &|p| {
                let mut snap = p.snapshot();
                let block = p.design.netlist().fixed_macros().next().unwrap();
                let at = snap.placement.pos(block);
                let moved = puffer_db::geom::Point::new(at.x - 5.0, at.y - 5.0);
                snap.placement.set(block, moved);
                p.restore(snap).unwrap();
            }),
        ];
        for (name, site) in sites {
            let mut placer = GlobalPlacer::new(&d, cfg.clone()).unwrap();
            let mut cold = GlobalPlacer::new(&d, cfg.clone()).unwrap();
            for _ in 0..3 {
                step_as(&mut placer, false);
                step_as(&mut cold, true);
            }
            assert!(
                placer.opt.as_ref().is_some_and(|s| s.warm),
                "{name}: a step leaves the solver warm"
            );
            site(&mut placer);
            site(&mut cold);
            assert!(
                !placer.opt.as_ref().is_some_and(|s| s.warm),
                "{name} left a warm solver behind"
            );
            step_as(&mut placer, false);
            step_as(&mut cold, true);
            assert_eq!(placer.snapshot(), cold.snapshot(), "{name}");
        }
    }

    #[test]
    fn empty_design_is_rejected() {
        use puffer_db::geom::Rect;
        use puffer_db::netlist::NetlistBuilder;
        use puffer_db::tech::Technology;
        let d = Design::new(
            "e",
            NetlistBuilder::new().build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 10.0, 10.0),
        )
        .unwrap();
        assert!(matches!(
            GlobalPlacer::new(&d, PlacerConfig::default()),
            Err(PlaceError::NoMovableCells)
        ));
    }
}
