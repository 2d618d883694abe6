//! The adapter: every call from the benchmark into a layer's public entry
//! point lives in this file, so an API-collapsing change to the workspace
//! edits the benchmark here and nowhere else. Where a layer offers both an
//! infallible wrapper and a fallible / bounded form, the fallible one is
//! called — those are the entry points ROADMAP item 3 keeps.
//!
//! Nothing here measures; `traced.rs` wraps these calls in spans.

use puffer::{FlowCheckpoint, FlowResult, FlowStage, Job, PufferConfig};
use puffer::{ScaleClass, StageObserver, StagePoint};
use puffer_budget::Budget;
use puffer_congest::{CongestionEstimator, CongestionMap, EstimatorConfig};
use puffer_db::bookshelf::{parse_bookshelf_streaming, write_pl};
use puffer_db::io;
use puffer_db::{CellId, Design, NetId, NetlistBuilder, Placement};
use puffer_dp::{refine_bounded, DetailedConfig, DetailedOutcome};
use puffer_flute::Topology;
use puffer_gen::GeneratorConfig;
use puffer_legal::{discretize_padding, enforce_budget, legalize_bounded, LegalizeOutcome};
use puffer_pad::{FeatureConfig, FeatureMatrix, PaddingRound, PaddingState, PaddingStrategy};
use puffer_place::{DensityModel, GlobalPlacer, PlacerConfig, QuadraticConfig};
use puffer_rng::StdRng;
use puffer_route::{GlobalRouter, RouteReport, RouterConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// --- gen / db ---------------------------------------------------------------

pub fn generate(config: &GeneratorConfig) -> Result<Design, String> {
    puffer_gen::generate(config).map_err(msg)
}

/// The same design with its cells and nets listed in an order drawn from
/// `seed` (0 keeps the generator's order). Nothing a placer may depend on
/// changes — sizes, connectivity, pin offsets, macro positions — but ids,
/// summation order, chunk membership and the per-cell start jitter all do,
/// so every seed is a different run of the same problem.
///
/// Also returns the new id of every old cell, for [`relabel_placement`].
pub fn relabel(design: &Design, seed: u64) -> Result<(Design, Vec<CellId>), String> {
    let nl = design.netlist();
    if seed == 0 {
        return Ok((design.clone(), nl.iter_cells().map(|(id, _)| id).collect()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cell_order: Vec<CellId> = nl.iter_cells().map(|(id, _)| id).collect();
    let mut net_order: Vec<NetId> = nl.iter_nets().map(|(id, _)| id).collect();
    rng.shuffle(&mut cell_order);
    rng.shuffle(&mut net_order);
    let mut builder = NetlistBuilder::with_capacity(nl.num_cells(), nl.num_nets(), nl.num_pins());
    let mut renamed = vec![CellId(0); nl.num_cells()];
    for old in cell_order {
        let c = nl.cell(old);
        renamed[old.index()] = builder
            .try_add_cell(c.name.clone(), c.width, c.height, c.kind)
            .map_err(msg)?;
    }
    for old in net_order {
        let net = nl.net(old);
        let id = builder
            .try_add_weighted_net(net.name.clone(), net.weight)
            .map_err(msg)?;
        for &pin in nl.net_pins(old) {
            let pin = nl.pin(pin);
            builder
                .connect(id, renamed[pin.cell.index()], pin.offset)
                .map_err(msg)?;
        }
    }
    let netlist = builder.build().map_err(msg)?;
    let mut out = Design::new(
        design.name(),
        netlist,
        design.tech().clone(),
        design.region(),
    )
    .map_err(msg)?;
    for (id, _) in design.macro_shapes() {
        let at = design
            .fixed_position(id)
            .ok_or("placed macro without a position")?;
        out.place_macro(renamed[id.index()], at).map_err(msg)?;
    }
    Ok((out, renamed))
}

/// `placement` of the original design, re-indexed for the relabelled one.
pub fn relabel_placement(placement: &Placement, renamed: &[CellId]) -> Placement {
    let mut out = Placement::zeroed(placement.len());
    for (old, new) in renamed.iter().enumerate() {
        out.set(*new, placement.pos(CellId(old as u32)));
    }
    out
}

/// The native `.pd` text of a design.
pub fn design_bytes(design: &Design) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    io::write_design(design, &mut buf).map_err(msg)?;
    Ok(buf)
}

pub fn read_design(bytes: &[u8]) -> Result<Design, String> {
    io::read_design(bytes).map_err(msg)
}

/// The `.pl` text of a placement, byte-for-byte what the CLI writes.
pub fn placement_bytes(placement: &Placement) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    io::write_placement(placement, &mut buf).map_err(msg)?;
    Ok(buf)
}

pub fn read_placement(bytes: &[u8], design: &Design) -> Result<Placement, String> {
    io::read_placement(bytes, design.netlist().num_cells()).map_err(msg)
}

pub fn hpwl(design: &Design, placement: &Placement) -> f64 {
    puffer_db::hpwl::total_hpwl(design.netlist(), placement)
}

/// The independent legality checker on the *physical* placement (no
/// padding), as the flow itself applies it.
pub fn check_legal(design: &Design, placement: &Placement) -> Result<(), String> {
    let zeros = vec![0u32; design.netlist().num_cells()];
    puffer_legal::check_legal(design, placement, &zeros).map_err(msg)
}

/// The four Bookshelf files of a design, emitted by the benchmark (the
/// workspace only reads Bookshelf): `.nodes`, `.nets`, `.pl`, `.scl`.
pub struct Bookshelf {
    pub nodes: String,
    pub nets: String,
    pub pl: String,
    pub scl: String,
}

pub fn bookshelf_emit(design: &Design) -> Bookshelf {
    let nl = design.netlist();
    let mut nodes = format!(
        "UCLA nodes 1.0\n\nNumNodes : {}\nNumTerminals : {}\n",
        nl.num_cells(),
        nl.fixed_macros().count()
    );
    for (_, c) in nl.iter_cells() {
        let tag = if c.is_movable() { "" } else { " terminal" };
        let _ = writeln!(nodes, "{} {} {}{tag}", c.name, c.width, c.height);
    }
    let mut nets = format!(
        "UCLA nets 1.0\n\nNumNets : {}\nNumPins : {}\n",
        nl.num_nets(),
        nl.num_pins()
    );
    for (id, net) in nl.iter_nets() {
        let _ = writeln!(nets, "NetDegree : {} {}", nl.net_degree(id), net.name);
        for &pin in nl.net_pins(id) {
            let p = nl.pin(pin);
            let _ = writeln!(
                nets,
                "  {} B : {} {}",
                nl.cell(p.cell).name,
                p.offset.x,
                p.offset.y
            );
        }
    }
    let tech = design.tech();
    let mut scl = format!("UCLA scl 1.0\n\nNumRows : {}\n", design.rows().len());
    for row in design.rows() {
        let sites = (row.width() / tech.site_width).floor();
        let _ = writeln!(
            scl,
            "CoreRow Horizontal\n  Coordinate : {}\n  Height : {}\n  Sitewidth : {}\n  SubrowOrigin : {} NumSites : {sites}\nEnd",
            row.y, tech.row_height, tech.site_width, row.x_min
        );
    }
    Bookshelf {
        nodes,
        nets,
        pl: write_pl(design, &design.initial_placement()),
        scl,
    }
}

pub fn bookshelf_ingest(name: &str, files: &Bookshelf) -> Result<Design, String> {
    parse_bookshelf_streaming(
        name,
        files.nodes.as_bytes(),
        files.nets.as_bytes(),
        files.pl.as_bytes(),
        files.scl.as_bytes(),
    )
    .map_err(msg)
}

// --- core: the flow ---------------------------------------------------------

/// What the CLI's `place --threads <n>` configures.
pub fn flow_config(threads: usize) -> PufferConfig {
    let mut config = PufferConfig::default();
    config.placer.threads = threads;
    config.estimator.threads = threads;
    config
}

/// The flow's state at one stage boundary, cloned by the observer.
#[derive(Debug, Clone)]
pub struct StageSnap {
    pub point: StagePoint,
    pub at: Instant,
    pub placement: Placement,
    pub padding: PaddingState,
    pub overflow: f64,
}

/// Runs the flow as a [`Job`], capturing a [`StageSnap`] at every `Init` /
/// `PadRound` / `GlobalDone` / `Legalized` boundary.
pub fn run_flow(design: &Design, threads: usize) -> Result<(FlowResult, Vec<StageSnap>), String> {
    let snaps = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&snaps);
    let observer = StageObserver::new(move |report| {
        sink.lock().map_err(msg)?.push(StageSnap {
            point: report.point,
            at: Instant::now(),
            placement: report.placement.clone(),
            padding: report.padding.clone(),
            overflow: report.overflow,
        });
        Ok(())
    });
    let result = Job::new(flow_config(threads))
        .with_observer(observer)
        .run(design)
        .map_err(msg)?;
    let snaps = std::mem::take(&mut *snaps.lock().map_err(msg)?);
    Ok((result, snaps))
}

/// A mid-flow checkpoint of the kind the journal holds: the placer
/// restarted from `snap` and stepped once, plus the padding history.
pub fn checkpoint(
    design: &Design,
    threads: usize,
    snap: &StageSnap,
) -> Result<FlowCheckpoint, String> {
    let mut placer = Stepper::new(design, threads, snap)?;
    placer.step();
    Ok(FlowCheckpoint::capture(
        design,
        FlowStage::GlobalPlace,
        placer.0.snapshot(),
        snap.padding.clone(),
    ))
}

pub fn checkpoint_save(checkpoint: &FlowCheckpoint, path: &Path) -> Result<(), String> {
    checkpoint.save(path).map_err(msg)
}

// --- place / fft ------------------------------------------------------------

/// A global placer restarted from a captured mid-GP state.
pub struct Stepper<'a>(GlobalPlacer<'a>);

impl<'a> Stepper<'a> {
    pub fn new(design: &'a Design, threads: usize, snap: &StageSnap) -> Result<Self, String> {
        let config = PlacerConfig {
            threads,
            ..PlacerConfig::default()
        };
        let mut placer =
            GlobalPlacer::with_placement(design, config, snap.placement.clone()).map_err(msg)?;
        placer.set_padding(snap.padding.pad.clone());
        Ok(Stepper(placer))
    }

    pub fn step(&mut self) -> f64 {
        self.0.step().overflow
    }

    /// The bin grid the flow's density model runs on.
    pub fn density_dims(&self) -> (usize, usize) {
        self.0.density_dims()
    }
}

/// γ as the placer anneals it: half a bin, widened with the overflow.
pub fn wa_gamma(design: &Design, dims: (usize, usize), overflow: f64) -> f64 {
    let r = design.region();
    let bin = (r.width() / dims.0 as f64).min(r.height() / dims.1 as f64);
    bin * PlacerConfig::default().gamma_factor * (1.0 + 19.0 * overflow.clamp(0.0, 1.0))
}

pub fn wa_grad(design: &Design, placement: &Placement, gamma: f64, threads: usize) -> f64 {
    puffer_place::wa_wirelength_grad_threaded(design.netlist(), placement, gamma, threads).value
}

pub fn density_model(design: &Design, dims: (usize, usize)) -> DensityModel {
    DensityModel::new(design, dims.0, dims.1)
}

/// Physical width + padding per cell: the density system's view.
pub fn effective_widths(design: &Design, padding: &PaddingState) -> Vec<f64> {
    design
        .netlist()
        .cells()
        .iter()
        .zip(&padding.pad)
        .map(|(c, p)| c.width + p)
        .collect()
}

pub fn density(
    model: &DensityModel,
    design: &Design,
    placement: &Placement,
    widths: &[f64],
    threads: usize,
) -> f64 {
    let target = PlacerConfig::default().target_density;
    model
        .evaluate_threaded(design.netlist(), placement, widths, target, threads)
        .energy
}

pub fn dct2_2d(data: &[f64], dims: (usize, usize), threads: usize) -> Vec<f64> {
    puffer_fft::transform2d_threaded(data, dims.0, dims.1, puffer_fft::dct2, threads)
}

pub fn quadratic_init(design: &Design) -> Placement {
    puffer_place::quadratic_placement(
        design,
        &design.initial_placement(),
        &QuadraticConfig::default(),
    )
}

// --- flute / congest / pad --------------------------------------------------

/// RSMT wirelength over every net.
pub fn rsmt_all(design: &Design, placement: &Placement) -> f64 {
    let nl = design.netlist();
    nl.iter_nets()
        .map(|(id, _)| Topology::for_net(nl, placement, id).wirelength())
        .sum()
}

pub fn estimator(design: &Design, threads: usize, expand_detours: bool) -> CongestionEstimator {
    let config = EstimatorConfig {
        threads,
        expand_detours,
        ..EstimatorConfig::default()
    };
    CongestionEstimator::new(design, config)
}

pub fn estimate_full(
    est: &CongestionEstimator,
    design: &Design,
    placement: &Placement,
) -> Result<CongestionMap, String> {
    est.try_estimate(design, placement).map_err(msg)
}

pub fn estimate_incremental(
    est: &mut CongestionEstimator,
    design: &Design,
    placement: &Placement,
) -> Result<CongestionMap, String> {
    est.try_estimate_incremental(design, placement).map_err(msg)
}

pub fn features(design: &Design, placement: &Placement, map: &CongestionMap) -> FeatureMatrix {
    puffer_pad::extract_features(design, placement, map, &FeatureConfig::default())
}

/// One round of Algorithm 1 on a copy of `before`, as the flow's
/// optimizer runs it (budget measured against the macro-free core).
pub fn padding_round(
    design: &Design,
    features: &FeatureMatrix,
    before: &PaddingState,
) -> PaddingRound {
    let mut state = before.clone();
    puffer_pad::padding_round(
        design.netlist(),
        features,
        &PaddingStrategy::default(),
        &mut state,
        design.free_area(),
    )
}

// --- legal / dp / route -----------------------------------------------------

/// Legalization with the discretised, budget-capped padding the flow
/// inherits (§III-D).
pub fn legalize(
    design: &Design,
    global: &Placement,
    padding: &PaddingState,
) -> Result<LegalizeOutcome, String> {
    let strategy = PaddingStrategy::default();
    let mut sites = discretize_padding(&padding.pad, strategy.theta);
    enforce_budget(
        design.netlist(),
        &padding.pad,
        &mut sites,
        design.tech().site_width,
        strategy.legal_budget,
    );
    legalize_bounded(design, global, &sites, &Budget::unbounded()).map_err(msg)
}

/// What `puffer refine` runs: size-aware window and pass count, no guard.
pub fn refine(design: &Design, placement: &Placement) -> Result<DetailedOutcome, String> {
    let class = ScaleClass::classify(design.netlist().num_cells());
    let config = DetailedConfig {
        window: class.dp_window(),
        max_passes: class.dp_passes(),
        ..DetailedConfig::default()
    };
    let zeros = vec![0u32; design.netlist().num_cells()];
    refine_bounded(
        design,
        placement,
        &zeros,
        &config,
        None,
        &Budget::unbounded(),
    )
    .map_err(msg)
}

/// What `puffer eval --threads <n>` runs; `pattern_only` drops every
/// rip-up round (`max_rounds = 0`).
pub fn router(design: &Design, threads: usize, pattern_only: bool) -> GlobalRouter {
    let mut config = RouterConfig {
        threads,
        ..RouterConfig::default()
    };
    if pattern_only {
        config.max_rounds = 0;
    }
    GlobalRouter::new(design, config)
}

pub fn route(
    router: &GlobalRouter,
    design: &Design,
    placement: &Placement,
) -> Result<RouteReport, String> {
    router.try_route(design, placement).map_err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Design {
        let config = GeneratorConfig {
            num_cells: 300,
            num_nets: 330,
            num_macros: 2,
            ..GeneratorConfig::default()
        };
        generate(&config).expect("design")
    }

    #[test]
    fn relabelling_changes_the_file_and_nothing_a_placer_depends_on() {
        let design = small();
        let (same, _) = relabel(&design, 0).unwrap();
        assert_eq!(
            design_bytes(&same).unwrap(),
            design_bytes(&design).unwrap(),
            "seed 0 is the design as generated"
        );
        let (relabelled, renamed) = relabel(&design, 7).unwrap();
        assert_ne!(
            design_bytes(&relabelled).unwrap(),
            design_bytes(&design).unwrap()
        );
        assert_eq!(
            design_bytes(&relabel(&design, 7).unwrap().0).unwrap(),
            design_bytes(&relabelled).unwrap()
        );
        let (a, b) = (design.stats(), relabelled.stats());
        assert_eq!(
            (a.macros, a.movable_cells, a.nets, a.movable_pins),
            (b.macros, b.movable_cells, b.nets, b.movable_pins)
        );
        assert_eq!(design.free_area(), relabelled.free_area());
        // The same physical placement has the same wirelength under both.
        let placement = quadratic_init(&design);
        let moved = relabel_placement(&placement, &renamed);
        let (h0, h1) = (hpwl(&design, &placement), hpwl(&relabelled, &moved));
        assert!((h0 - h1).abs() <= 1e-9 * h0, "{h0} vs {h1}");
    }

    #[test]
    fn the_bookshelf_emit_parses_back_to_the_same_counts() {
        let design = small();
        let back = bookshelf_ingest(design.name(), &bookshelf_emit(&design)).expect("ingest");
        let (a, b) = (design.netlist(), back.netlist());
        assert_eq!(
            (a.num_cells(), a.num_nets(), a.num_pins()),
            (b.num_cells(), b.num_nets(), b.num_pins())
        );
        assert_eq!(a.fixed_macros().count(), b.fixed_macros().count());
    }
}
