//! The flow body of every [`Flow`]: global placement with interleaved
//! routability analysis — PUFFER's optimizer (paper Fig. 2) or a
//! baseline's — then (white-space-assisted) legalization.

use crate::baselines;
use crate::checkpoint::{CheckpointPolicy, FlowCheckpoint, FlowStage};
use crate::job::{Flow, Job};
use crate::scale::ScaleClass;
use crate::PufferError;
use puffer_budget::clock::Stopwatch;
use puffer_budget::{Budget, DegradeStep, LadderState};
use puffer_congest::EstimatorConfig;
use puffer_db::design::{Design, Placement};
use puffer_db::hpwl::total_hpwl;
use puffer_legal::{check_legal, discretize_padding, enforce_budget, legalize_bounded};
use puffer_pad::{FeatureConfig, PaddingState, PaddingStrategy, RoutabilityOptimizer};
use puffer_place::{GlobalPlacer, GpLanes, IterationStats, PlacerConfig};
use std::fmt;
use std::sync::Arc;

/// Configuration of the PUFFER flow.
#[derive(Debug, Clone, PartialEq)]
pub struct PufferConfig {
    /// Global-placement engine settings.
    pub placer: PlacerConfig,
    /// Congestion-estimator settings (§III-A).
    pub estimator: EstimatorConfig,
    /// Padding strategy parameters (§III-B, tuned by §III-C).
    pub strategy: PaddingStrategy,
    /// Feature-extraction settings (CNN kernel radius, GNN Z-bend samples).
    pub features: FeatureConfig,
    /// Whether legalization inherits the discretized padding (§III-D);
    /// disabling this is the ablation of padding inheritance.
    pub inherit_padding: bool,
}

impl Default for PufferConfig {
    fn default() -> Self {
        PufferConfig {
            placer: PlacerConfig::default(),
            estimator: EstimatorConfig::default(),
            strategy: PaddingStrategy::default(),
            features: FeatureConfig::default(),
            inherit_padding: true,
        }
    }
}

/// A boundary inside the flow at which a [`StageObserver`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagePoint {
    /// The placer is set up (fresh or restored from a checkpoint) and has
    /// taken its first step.
    Init,
    /// A routability-optimization round just updated the padding.
    PadRound,
    /// Global placement converged; the snapshot is about to be legalized.
    GlobalDone,
    /// Legalization produced the final physical placement.
    Legalized,
}

impl fmt::Display for StagePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StagePoint::Init => "init",
            StagePoint::PadRound => "pad-round",
            StagePoint::GlobalDone => "global-done",
            StagePoint::Legalized => "legalized",
        };
        f.write_str(name)
    }
}

/// Everything a [`StageObserver`] may inspect at a stage boundary.
pub struct StageReport<'a> {
    /// Which boundary fired.
    pub point: StagePoint,
    /// The design being placed.
    pub design: &'a Design,
    /// The placement at this boundary (global until `Legalized`).
    pub placement: &'a Placement,
    /// The routability optimizer's padding history (a baseline's is empty:
    /// legalization never inherits its inflation).
    pub padding: &'a PaddingState,
    /// The active padding strategy (for utilization-cap checks).
    pub strategy: &'a PaddingStrategy,
    /// Density overflow of the latest placer step.
    pub overflow: f64,
    /// Global-placement iterations completed.
    pub iter: usize,
}

/// A callback the flow invokes at every stage boundary (see
/// [`StagePoint`]); returning `Err` aborts the flow with
/// [`PufferError::Validate`]. This is how `--validate` plugs the
/// `puffer-audit` invariant checkers into the flow without the core crate
/// depending on them.
#[derive(Clone)]
pub struct StageObserver {
    f: Arc<ObserverFn>,
}

/// The boxed callback type behind [`StageObserver`].
type ObserverFn = dyn Fn(&StageReport<'_>) -> Result<(), String> + Send + Sync;

impl StageObserver {
    /// Wraps a checker callback.
    pub fn new(f: impl Fn(&StageReport<'_>) -> Result<(), String> + Send + Sync + 'static) -> Self {
        StageObserver { f: Arc::new(f) }
    }

    /// Runs the checker on one boundary report.
    ///
    /// # Errors
    ///
    /// Whatever the wrapped callback reports; the flow converts it to
    /// [`PufferError::Validate`].
    pub fn check(&self, report: &StageReport<'_>) -> Result<(), String> {
        (self.f)(report)
    }
}

impl fmt::Debug for StageObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StageObserver(..)")
    }
}

/// Result of a placement flow.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The final legal placement.
    pub placement: Placement,
    /// The global placement before legalization.
    pub global_placement: Placement,
    /// HPWL of the legal placement.
    pub hpwl: f64,
    /// Global-placement iterations executed.
    pub gp_iterations: usize,
    /// Analysis rounds executed: routability-optimizer rounds, or a
    /// baseline's router calls, bulk inflations or allocation passes.
    pub pad_rounds: usize,
    /// Final density overflow at the end of global placement.
    pub final_overflow: f64,
    /// Wall-clock runtime of the flow in seconds.
    pub runtime_s: f64,
    /// Average legalization displacement.
    pub avg_displacement: f64,
    /// Degradation-ladder steps that engaged, in engagement order (a resumed
    /// run's list starts with the rungs its journal recorded).
    pub degradation: Vec<DegradeStep>,
    /// Whether global placement stopped early (budget expired, external
    /// cancel, or early-exit rung) rather than converging. The placement is still the legalized best-so-far.
    pub cancelled: bool,
}

impl Job {
    /// Every flow's body behind [`Job::run`], [`Job::run_from`] and
    /// [`Job::run_or_resume`]: fresh when `from` is `None`, warm-started
    /// from the checkpoint otherwise; journals per the attached policy.
    pub(crate) fn execute(
        &self,
        design: &Design,
        from: Option<FlowCheckpoint>,
    ) -> Result<FlowResult, PufferError> {
        let policy = self.checkpoints.as_ref();
        // A baseline's analysis state is not part of the journal.
        if self.flow != Flow::Puffer && (policy.is_some() || from.is_some()) {
            let name = self.flow.name();
            let message = format!("the {name} flow keeps no journal: only PUFFER's is journaled");
            return Err(PufferError::Journal(message));
        }
        let start = Stopwatch::start();
        let trace = &self.trace;
        let budget = &self.budget;
        let init_span = trace.span("init");
        let cells = design.netlist().num_cells();
        let scale_class = ScaleClass::classify(cells);
        // Size-aware strategy ladder, classified by cell count: PUFFER's
        // estimator is coarsened here, before the first congestion round,
        // so every round of the run — and the audit's
        // histogram-conservation check — sees one consistent baseline grid.
        let mut coarsen = None;
        let mut analysis = match self.flow {
            Flow::Puffer => {
                let mut optimizer = RoutabilityOptimizer::new(
                    design,
                    self.config.estimator.clone(),
                    self.config.strategy.clone(),
                )
                .with_feature_config(self.config.features.clone());
                optimizer.set_trace(trace.clone());
                optimizer.set_budget(budget.clone());
                coarsen = scale_class.congestion_coarsen_factor();
                if let Some(factor) = coarsen {
                    optimizer.coarsen_estimator(design, factor);
                }
                Analysis::Puffer(optimizer)
            }
            Flow::Baseline(baseline) => Analysis::Baseline(
                baselines::Analysis::new(baseline, design, self),
                PaddingState::new(cells),
            ),
        };
        // The halves and lanes the GP kernels are given: the placer sizes
        // its workspaces by the same rule.
        let lanes = GpLanes::for_design(design, self.config.placer.threads);
        trace
            .record("flow.init")
            .str("flow", self.flow.name())
            .str("scale_class", scale_class.as_str())
            .int("cells", cells as i64)
            .num("congest_coarsen", coarsen.unwrap_or(1.0))
            .int("gp_halves", lanes.halves as i64)
            .int("lanes_wa", lanes.wa as i64)
            .int("lanes_scatter", lanes.scatter as i64)
            .int("lanes_transform", lanes.transform as i64)
            .int("lanes_gather", lanes.gather as i64)
            .write();

        // Bounded-execution state for this run: the rungs a bounded budget
        // has engaged so far (a resumed run starts past the journaled ones).
        let mut ladder = LadderState::default();
        let mut cancelled = false;
        // Set when a cancellation suppressed a pass's padding round: the
        // final checkpoint must record it so a resumed run re-evaluates the
        // trigger at that iteration (see FlowCheckpoint::pending_round).
        let mut pending_round = false;

        // Either a fresh placer after its first step, or the journaled one.
        // `resumed_stage` remembers where the journal left off; `skip_round`
        // suppresses the trigger/checkpoint half of the first loop pass,
        // because the journal was written *after* that half ran.
        let (mut placer, mut last, mut skip_round, resumed_done) = match from {
            None => {
                let mut placer = GlobalPlacer::new(design, self.config.placer.clone())
                    .map_err(|e| PufferError::Place(e.to_string()))?;
                placer.set_trace(trace.clone());
                let last = placer.step();
                (placer, last, false, false)
            }
            Some(checkpoint) => {
                checkpoint
                    .matches(design)
                    .map_err(|e| PufferError::Resume(e.to_string()))?;
                let done = checkpoint.stage == FlowStage::GlobalDone;
                let mut placer = GlobalPlacer::with_placement(
                    design,
                    self.config.placer.clone(),
                    checkpoint.placer.placement.clone(),
                )
                .map_err(|e| PufferError::Place(e.to_string()))?;
                let last = IterationStats {
                    iter: checkpoint.placer.iter,
                    overflow: checkpoint.placer.last_overflow,
                    hpwl: 0.0,
                    lambda: checkpoint.placer.lambda,
                };
                placer
                    .restore(checkpoint.placer)
                    .map_err(|e| PufferError::Resume(e.to_string()))?;
                placer.set_trace(trace.clone());
                let resume_skip_round = !checkpoint.pending_round;
                // Only a PUFFER job has a journal.
                if let Analysis::Puffer(optimizer) = &mut analysis {
                    optimizer
                        .set_state(checkpoint.pad)
                        .map_err(PufferError::Resume)?;
                    // Re-apply the journaled rungs so the resumed run keeps
                    // the fidelity of the run that wrote the journal (the
                    // ladder state itself freezes and exits early).
                    if checkpoint
                        .degradation
                        .contains(&DegradeStep::CoarseCongestion)
                    {
                        optimizer.coarsen_estimator(design, 2.0);
                    }
                }
                ladder = LadderState::resumed(&checkpoint.degradation);
                (placer, last, resume_skip_round, done)
            }
        };
        drop(init_span);
        self.observe(
            StagePoint::Init,
            design,
            placer.placement(),
            analysis.state(),
            last.overflow,
            last.iter,
        )?;

        // --- global placement with interleaved routability analysis ---
        if !resumed_done {
            let _gp_span = trace.span("gp");
            loop {
                // Graceful degradation: engage every rung whose threshold
                // the budget has crossed since the last pass, in ladder
                // order. Each engagement is applied once, journaled, and
                // traced. `cap-trials` is SMBO's rung; the flow records it
                // so the journal reflects the ladder position.
                for step in ladder.poll(budget) {
                    // Only PUFFER's estimator is coarsened.
                    if let (DegradeStep::CoarseCongestion, Analysis::Puffer(optimizer)) =
                        (step, &mut analysis)
                    {
                        optimizer.coarsen_estimator(design, 2.0);
                    }
                    trace
                        .record("flow.degrade")
                        .str("step", step.as_str())
                        .num("fraction_remaining", budget.fraction_remaining())
                        .int("iter", last.iter as i64)
                        .write();
                }
                if !skip_round {
                    if !ladder.is_engaged(DegradeStep::FreezePadding) && analysis.due(last.overflow)
                    {
                        // An exhausted budget skips the (expensive) pad
                        // round: the loop is about to break to legalization.
                        // The suppression is journaled so a resumed run
                        // redoes this pass's trigger instead of skipping a
                        // round the uninterrupted trajectory would take.
                        if budget.is_exhausted() {
                            pending_round = true;
                        } else {
                            let _pad_span = trace.span("pad");
                            let snapshot = placer.placement().clone();
                            analysis.run(design, &mut placer, &snapshot)?;
                            self.observe(
                                StagePoint::PadRound,
                                design,
                                placer.placement(),
                                analysis.state(),
                                last.overflow,
                                last.iter,
                            )?;
                        }
                    }
                    if let Some(policy) = policy {
                        if policy.due(last.iter) {
                            self.write_checkpoint(
                                design,
                                policy,
                                FlowStage::GlobalPlace,
                                &placer,
                                analysis.state(),
                                (ladder.engaged(), pending_round),
                            )?;
                        }
                    }
                }
                skip_round = false;

                // Cooperative cancellation: an expired budget or the
                // early-exit rung breaks as if converged; the best-so-far
                // snapshot proceeds to (unbounded) legalization.
                if budget.is_exhausted() || ladder.is_engaged(DegradeStep::EarlyExitGp) {
                    cancelled = true;
                    break;
                }
                if last.iter >= self.config.placer.max_iters
                    || last.overflow <= self.config.placer.stop_overflow
                {
                    break;
                }
                if let Some(plan) = &self.chaos {
                    // `iter` advances by exactly one per pass, so equality
                    // fires the burst once.
                    if plan.class == puffer_budget::FaultClass::NanBurst && last.iter == plan.at {
                        trace
                            .record("chaos.inject")
                            .str("class", plan.class.as_str())
                            .int("at", last.iter as i64)
                            .int("magnitude", plan.magnitude as i64)
                            .write();
                        // Poison right before a step so the divergence
                        // sentinel inside it must recover the burst.
                        placer.chaos_poison_nan(plan.magnitude.max(1));
                    }
                }
                last = placer.step();
            }
        }
        if let Some(policy) = policy {
            // A cancelled run journals as *mid-loop*: resuming it later
            // re-enters the GP loop and finishes the interrupted
            // trajectory, instead of re-legalizing the truncated
            // best-so-far. Only a genuinely converged loop marks the
            // journal done.
            let stage = if cancelled {
                FlowStage::GlobalPlace
            } else {
                FlowStage::GlobalDone
            };
            self.write_checkpoint(
                design,
                policy,
                stage,
                &placer,
                analysis.state(),
                (ladder.engaged(), pending_round),
            )?;
        }
        let global_placement = placer.placement().clone();
        self.observe(
            StagePoint::GlobalDone,
            design,
            &global_placement,
            analysis.state(),
            placer.overflow(),
            placer.iterations(),
        )?;

        // --- white-space-assisted legalization (§III-D) --------------------
        let legal_span = trace.span("legal");
        let zeros = vec![0u32; cells];
        let discrete = if self.config.inherit_padding {
            let continuous = &analysis.state().pad;
            let mut d = discretize_padding(continuous, self.config.strategy.theta);
            enforce_budget(
                design.netlist(),
                continuous,
                &mut d,
                design.tech().site_width,
                self.config.strategy.legal_budget,
            );
            d
        } else {
            zeros.clone()
        };
        // The final legalization is never budget-bounded: an expired
        // deadline must still end in a legal placement.
        let unbounded = Budget::unbounded();
        let outcome = match legalize_bounded(design, &global_placement, &discrete, &unbounded) {
            Ok(o) => o,
            Err(_) if self.config.inherit_padding => {
                // Padding made the design unfittable; retry without padding
                // rather than failing the flow (the budget cap normally
                // prevents this).
                legalize_bounded(design, &global_placement, &zeros, &unbounded)
                    .map_err(|e| PufferError::Legalize(e.to_string()))?
            }
            Err(e) => return Err(PufferError::Legalize(e.to_string())),
        };
        // The *physical* placement must always be legal (padding aside).
        check_legal(design, &outcome.placement, &zeros)
            .map_err(|e| PufferError::Legalize(e.to_string()))?;
        self.observe(
            StagePoint::Legalized,
            design,
            &outcome.placement,
            analysis.state(),
            placer.overflow(),
            placer.iterations(),
        )?;
        drop(legal_span);

        let result = FlowResult {
            hpwl: total_hpwl(design.netlist(), &outcome.placement),
            placement: outcome.placement,
            global_placement,
            gp_iterations: placer.iterations(),
            pad_rounds: match &analysis {
                Analysis::Puffer(optimizer) => optimizer.state().round,
                Analysis::Baseline(analysis, _) => analysis.analyses,
            },
            final_overflow: placer.overflow(),
            runtime_s: start.elapsed_secs(),
            avg_displacement: outcome.avg_displacement,
            degradation: ladder.engaged().to_vec(),
            cancelled,
        };
        trace
            .record("flow.done")
            .num("runtime_s", result.runtime_s)
            .int("gp_iterations", result.gp_iterations as i64)
            .int("pad_rounds", result.pad_rounds as i64)
            .num("hpwl", result.hpwl)
            .num("overflow", result.final_overflow)
            .int("cancelled", result.cancelled as i64)
            .int("degrade_steps", result.degradation.len() as i64)
            .write();
        Ok(result)
    }

    /// Runs the attached observer (if any) on one stage boundary.
    fn observe(
        &self,
        point: StagePoint,
        design: &Design,
        placement: &Placement,
        padding: &PaddingState,
        overflow: f64,
        iter: usize,
    ) -> Result<(), PufferError> {
        let Some(observer) = &self.observer else {
            return Ok(());
        };
        let report = StageReport {
            point,
            design,
            placement,
            padding,
            strategy: &self.config.strategy,
            overflow,
            iter,
        };
        observer
            .check(&report)
            .map_err(|m| PufferError::Validate(format!("at stage boundary '{point}': {m}")))
    }

    fn write_checkpoint(
        &self,
        design: &Design,
        policy: &CheckpointPolicy,
        stage: FlowStage,
        placer: &GlobalPlacer<'_>,
        padding: &PaddingState,
        (degradation, pending_round): (&[DegradeStep], bool),
    ) -> Result<(), PufferError> {
        // `gp/journal` inside the loop, `journal` for the final write.
        let _journal_span = self.trace.span("journal");
        let path = policy.file_for(stage, placer.iterations());
        let checkpoint = FlowCheckpoint::capture(design, stage, placer.snapshot(), padding.clone())
            .with_degradation(degradation.to_vec())
            .with_pending_round(pending_round);
        checkpoint
            .save(&path)
            .map_err(|e| PufferError::Journal(e.to_string()))
    }
}

/// The GP loop's analysis slot: PUFFER's optimizer, or a baseline's
/// analysis and its (empty) padding history.
enum Analysis {
    Puffer(RoutabilityOptimizer),
    Baseline(baselines::Analysis, PaddingState),
}

impl Analysis {
    /// Whether the analysis runs in this GP loop pass.
    fn due(&mut self, overflow: f64) -> bool {
        match self {
            Analysis::Puffer(optimizer) => optimizer.should_trigger(overflow),
            Analysis::Baseline(analysis, _) => analysis.due(overflow),
        }
    }

    /// Analyzes `snapshot` and steers the placer by the result.
    fn run(
        &mut self,
        design: &Design,
        placer: &mut GlobalPlacer<'_>,
        snapshot: &Placement,
    ) -> Result<(), PufferError> {
        match self {
            Analysis::Puffer(optimizer) => {
                optimizer
                    .optimize(design, snapshot)
                    .map_err(|e| PufferError::Congest(e.to_string()))?;
                placer.set_padding(optimizer.padding().to_vec());
                Ok(())
            }
            Analysis::Baseline(analysis, _) => analysis.run(design, placer, snapshot),
        }
    }

    /// The padding history.
    fn state(&self) -> &PaddingState {
        match self {
            Analysis::Puffer(optimizer) => optimizer.state(),
            Analysis::Baseline(_, empty) => empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_gen::{generate, GeneratorConfig};
    use puffer_trace::Trace;
    use std::path::Path;

    fn quick_config() -> PufferConfig {
        let mut c = PufferConfig::default();
        c.placer.max_iters = 160;
        c.placer.stop_overflow = 0.15;
        c.strategy.tau = 0.30;
        c.strategy.max_rounds = 3;
        c
    }

    use crate::Baseline;

    fn design() -> Design {
        generate(&GeneratorConfig {
            num_cells: 400,
            num_nets: 450,
            num_macros: 2,
            utilization: 0.6,
            hotspot: 0.5,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn full_flow_produces_legal_placement() {
        let d = design();
        let r = Job::new(quick_config()).run(&d).unwrap();
        assert!(r.gp_iterations > 0);
        assert!(r.hpwl > 0.0);
        assert!(r.runtime_s > 0.0);
        assert!(!r.cancelled, "unbounded run must not report cancellation");
        assert!(r.degradation.is_empty());
        // Legality is already asserted inside the flow; double-check.
        let zeros = vec![0u32; d.netlist().num_cells()];
        puffer_legal::check_legal(&d, &r.placement, &zeros).unwrap();
    }

    #[test]
    fn routability_optimizer_actually_runs() {
        let d = design();
        let r = Job::new(quick_config()).run(&d).unwrap();
        assert!(
            r.pad_rounds > 0,
            "padding rounds should trigger on a congested design"
        );
    }

    #[test]
    fn traced_flow_emits_stage_spans_and_records() {
        let d = design();
        let path = tmp_dir("trace").join("metrics.jsonl");
        let trace = Trace::with_sink(&path).unwrap();
        let r = Job::new(quick_config())
            .with_trace(trace.clone())
            .run(&d)
            .unwrap();
        trace.flush().unwrap();

        // Stage spans: init, gp (with nested pad rounds), legal.
        let spans = trace.span_stats();
        let span = |label: &str| {
            spans
                .iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("missing span {label:?}"))
                .1
        };
        for stage in ["init", "gp", "legal"] {
            span(stage);
        }
        assert_eq!(span("gp/pad").count, r.pad_rounds as u64);

        // The sink holds one place.iter per GP iteration plus the stage
        // records from the optimizer and the final flow.done.
        let records = puffer_trace::read_jsonl(&path).unwrap();
        let iters = records.iter().filter(|r| r.kind() == Some("place.iter"));
        assert_eq!(iters.count(), r.gp_iterations);
        let pads = records.iter().filter(|r| r.kind() == Some("pad.round"));
        assert_eq!(pads.count(), r.pad_rounds);
        let done = records
            .iter()
            .find(|r| r.kind() == Some("flow.done"))
            .expect("flow.done record");
        assert_eq!(done.num("gp_iterations"), Some(r.gp_iterations as f64));
        assert!(done.num("runtime_s").unwrap() > 0.0);

        // Trace must not perturb the flow itself.
        let plain = Job::new(quick_config()).run(&d).unwrap();
        assert_eq!(plain.placement, r.placement);
    }

    #[test]
    fn padding_inheritance_toggle() {
        let d = design();
        let with = Job::new(quick_config()).run(&d).unwrap();
        let mut cfg = quick_config();
        cfg.inherit_padding = false;
        let without = Job::new(cfg).run(&d).unwrap();
        // Same global placement (same seed/config), different legalization.
        assert_eq!(with.gp_iterations, without.gp_iterations);
        assert!(with.placement != without.placement || with.hpwl == without.hpwl);
    }

    #[test]
    fn flow_is_deterministic() {
        let d = design();
        let a = Job::new(quick_config()).run(&d).unwrap();
        let b = Job::new(quick_config()).run(&d).unwrap();
        assert_eq!(a.hpwl, b.hpwl);
        assert_eq!(a.placement, b.placement);
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("puffer-flow-tests").join(name);
        // Start clean: a journal an earlier run left would otherwise be
        // found by a test that asserts none is written.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Resumes from `journal`, continuing to checkpoint into it — what a
    /// restarted process does with the file a killed one left behind.
    fn resume(config: PufferConfig, d: &Design, journal: &Path) -> Result<FlowResult, PufferError> {
        Job::new(config)
            .with_checkpoints(CheckpointPolicy::new(journal))
            .run_or_resume(d)
    }

    #[test]
    fn checkpointing_does_not_perturb_the_flow() {
        let d = design();
        let job = Job::new(quick_config());
        let plain = job.run(&d).unwrap();
        let policy = CheckpointPolicy {
            path: tmp_dir("noperturb").join("run.pj"),
            every: 30,
            keep_history: false,
        };
        let journaled = job.with_checkpoints(policy.clone()).run(&d).unwrap();
        assert_eq!(plain.placement, journaled.placement);
        assert_eq!(plain.hpwl, journaled.hpwl);
        assert!(policy.path.exists(), "final checkpoint should be on disk");
    }

    #[test]
    fn kill_then_resume_reproduces_the_uninterrupted_run() {
        let d = design();
        let uninterrupted = Job::new(quick_config()).run(&d).unwrap();

        // keep_history preserves each mid-loop journal, so any of them is
        // exactly what a kill right after that write would have left behind.
        let dir = tmp_dir("resume");
        let policy = CheckpointPolicy {
            path: dir.join("run.pj"),
            every: 40,
            keep_history: true,
        };
        Job::new(quick_config())
            .with_checkpoints(policy)
            .run(&d)
            .unwrap();
        let mid = dir.join("run.pj.iter000040");
        assert!(mid.exists(), "mid-loop checkpoint missing");

        let resumed = resume(quick_config(), &d, &mid).unwrap();
        assert_eq!(uninterrupted.placement, resumed.placement);
        assert_eq!(uninterrupted.global_placement, resumed.global_placement);
        assert_eq!(uninterrupted.hpwl, resumed.hpwl);
        assert_eq!(uninterrupted.gp_iterations, resumed.gp_iterations);
        assert_eq!(uninterrupted.pad_rounds, resumed.pad_rounds);
    }

    #[test]
    fn resume_from_completed_journal_skips_global_placement() {
        let d = design();
        let dir = tmp_dir("done");
        let policy = CheckpointPolicy::new(dir.join("run.pj"));
        let job = Job::new(quick_config()).with_checkpoints(policy);
        let full = job.run(&d).unwrap();
        let resumed = job.run_or_resume(&d).unwrap();
        assert_eq!(full.placement, resumed.placement);
        assert_eq!(full.gp_iterations, resumed.gp_iterations);
    }

    #[test]
    fn resume_rejects_a_mismatched_design() {
        let d = design();
        let other = generate(&GeneratorConfig {
            num_cells: 50,
            num_nets: 60,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let dir = tmp_dir("mismatch");
        let policy = CheckpointPolicy::new(dir.join("run.pj"));
        let job = Job::new(quick_config()).with_checkpoints(policy);
        job.run(&d).unwrap();
        let err = job.run_or_resume(&other).unwrap_err();
        assert!(matches!(err, PufferError::Resume(_)), "{err}");
    }

    #[test]
    fn expired_deadline_yields_cancelled_best_so_far() {
        use std::time::Duration;
        let d = design();
        for job in every_flow() {
            let name = job.flow.name();
            let r = job
                .with_budget(puffer_budget::Budget::with_deadline(Duration::ZERO))
                .run(&d)
                .unwrap();
            assert!(
                r.cancelled,
                "{name}: expired budget must report cancellation"
            );
            assert!(
                r.gp_iterations <= 2,
                "{name}: expired budget must break within one iteration's slack, ran {}",
                r.gp_iterations
            );
            // Every flow records the whole ladder.
            assert_eq!(
                r.degradation,
                puffer_budget::DegradeStep::ALL.to_vec(),
                "{name}"
            );
            // The best-so-far snapshot is still legalized.
            let zeros = vec![0u32; d.netlist().num_cells()];
            puffer_legal::check_legal(&d, &r.placement, &zeros).unwrap();
            assert!(r.hpwl.is_finite());
        }
    }

    /// Every flow, at a 160-iteration cap: PUFFER's quick run and each
    /// baseline.
    fn every_flow() -> Vec<Job> {
        let baselines = [Baseline::Reference, Baseline::Replace, Baseline::Wsa]
            .map(|b| Flow::Baseline(b).job(Some(160), None));
        std::iter::once(Job::new(quick_config()))
            .chain(baselines)
            .collect()
    }

    #[test]
    fn cancel_token_stops_the_flow_cleanly() {
        let d = design();
        for job in every_flow() {
            let name = job.flow.name();
            let token = puffer_budget::CancelToken::new();
            token.cancel();
            let r = job
                .with_budget(puffer_budget::Budget::unbounded().with_token(token))
                .run(&d)
                .unwrap();
            assert!(r.cancelled, "{name}");
            let zeros = vec![0u32; d.netlist().num_cells()];
            puffer_legal::check_legal(&d, &r.placement, &zeros).unwrap();
        }
    }

    #[test]
    fn baselines_run_in_the_one_gp_loop() {
        let d = design();
        for flow in [Baseline::Reference, Baseline::Replace, Baseline::Wsa].map(Flow::Baseline) {
            let name = flow.name();
            let path = tmp_dir("baseline-trace").join(format!("{name}.jsonl"));
            let trace = Trace::with_sink(&path).unwrap();
            let r = flow
                .job(None, None)
                .with_trace(trace.clone())
                .run(&d)
                .unwrap();
            trace.flush().unwrap();
            assert!(r.pad_rounds >= 1, "{name}: analyses should fire");
            // One `gp/pad` span per analysis, the stage spans around them.
            let spans = trace.span_stats();
            let count = |label: &str| spans.iter().find(|(l, _)| l == label).map(|s| s.1.count);
            assert_eq!(count("gp/pad"), Some(r.pad_rounds as u64), "{name}");
            for stage in ["init", "gp", "legal"] {
                assert_eq!(count(stage), Some(1), "{name}: {stage}");
            }
            let records = puffer_trace::read_jsonl(&path).unwrap();
            let init = records.iter().find(|r| r.kind() == Some("flow.init"));
            assert_eq!(init.and_then(|r| r.str_field("flow")), Some(name));
            // Trace must not perturb the flow itself.
            assert_eq!(flow.job(None, None).run(&d).unwrap().placement, r.placement);
        }
    }

    #[test]
    fn baselines_refuse_journals() {
        let d = design();
        let job = Flow::Baseline(Baseline::Reference).job(Some(20), None);
        let policy = CheckpointPolicy::new(tmp_dir("baseline-journal").join("run.pj"));
        let err = job
            .clone()
            .with_checkpoints(policy.clone())
            .run(&d)
            .unwrap_err();
        assert!(matches!(err, PufferError::Journal(_)), "{err}");
        assert!(!policy.path.exists());
        Job::new(quick_config())
            .with_checkpoints(policy.clone())
            .run(&d)
            .unwrap();
        let checkpoint = FlowCheckpoint::load(&policy.path).unwrap();
        let err = job.run_from(&d, checkpoint).unwrap_err();
        assert!(matches!(err, PufferError::Journal(_)), "{err}");
    }

    #[test]
    fn degradation_ladder_engages_in_order_and_is_journaled() {
        use std::time::Duration;
        let d = design();
        let dir = tmp_dir("ladder");
        let path = dir.join("metrics.jsonl");
        let trace = Trace::with_sink(&path).unwrap();
        let policy = CheckpointPolicy::new(dir.join("run.pj"));
        // An already-expired deadline drops fraction_remaining to 0, so
        // every rung engages on the first poll, in ladder order.
        let r = Job::new(quick_config())
            .with_budget(puffer_budget::Budget::with_deadline(Duration::ZERO))
            .with_trace(trace.clone())
            .with_checkpoints(policy.clone())
            .run(&d)
            .unwrap();
        trace.flush().unwrap();
        assert_eq!(r.degradation, puffer_budget::DegradeStep::ALL.to_vec());
        assert!(r.cancelled);

        let records = puffer_trace::read_jsonl(&path).unwrap();
        let steps: Vec<String> = records
            .iter()
            .filter(|rec| rec.kind() == Some("flow.degrade"))
            .filter_map(|rec| rec.str_field("step").map(str::to_string))
            .collect();
        assert_eq!(
            steps,
            vec![
                "coarse-congestion".to_string(),
                "freeze-padding".to_string(),
                "cap-trials".to_string(),
                "early-exit-gp".to_string(),
            ]
        );

        // The final journal carries the engaged ladder position.
        let checkpoint = FlowCheckpoint::load(&policy.path).unwrap();
        assert_eq!(
            checkpoint.degradation,
            puffer_budget::DegradeStep::ALL.to_vec()
        );
    }

    #[test]
    fn unbounded_budget_never_engages_the_ladder() {
        let d = design();
        let r = Job::new(quick_config()).run(&d).unwrap();
        assert!(r.degradation.is_empty());
        assert!(!r.cancelled);
    }

    mod chaos {
        use super::*;
        use puffer_budget::{ChaosPlan, FaultClass};

        #[test]
        fn nan_burst_is_recovered_by_the_sentinel() {
            let d = design();
            let r = Job::new(quick_config())
                .with_chaos(ChaosPlan {
                    class: FaultClass::NanBurst,
                    at: 3,
                    magnitude: 25,
                })
                .run(&d)
                .unwrap();
            assert!(r.hpwl.is_finite());
            let zeros = vec![0u32; d.netlist().num_cells()];
            puffer_legal::check_legal(&d, &r.placement, &zeros).unwrap();
        }
    }

    #[test]
    fn resume_from_missing_or_corrupt_journal_is_a_journal_error() {
        let d = design();
        let dir = tmp_dir("corrupt");
        // Nothing to recover from a missing file (`run_or_resume` starts
        // fresh there instead of asking).
        assert!(FlowCheckpoint::load(&dir.join("nope.pj")).is_err());
        let garbled = dir.join("garbled.pj");
        std::fs::write(&garbled, "puffer_checkpoint 3\ndesign oops\n").unwrap();
        let err = resume(quick_config(), &d, &garbled).unwrap_err();
        assert!(matches!(err, PufferError::Journal(_)), "{err}");
    }
}
