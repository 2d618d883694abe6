//! A [`Job`]: one self-contained, `Send`-able unit of placement work, and
//! the only way to run any flow — PUFFER (paper Fig. 2) or a comparison
//! flow ([`Flow`]).
//!
//! A `Job` bundles configuration + budget + trace + observer + checkpoint
//! policy into a value that can be built on one thread, shipped to a
//! worker, and run there — the one-shot CLI (`puffer place`), the `puffer
//! serve` worker pool, the Table II harness and every library caller share
//! this single path. The flow body itself lives in [`crate::flow`].
//!
//! A job owns:
//!
//! * its [`Flow`] and [`PufferConfig`] (placer/estimator/strategy/features),
//! * its [`Budget`] — the deadline clock starts when the budget is built,
//!   and cancelling the budget's [`puffer_budget::CancelToken`] stops a
//!   running job from another thread; a bounded budget also arms the
//!   degradation ladder (the rungs of [`puffer_budget::DegradeStep::ALL`]
//!   at their fixed thresholds),
//! * its [`Trace`] sink and optional [`StageObserver`],
//! * an optional [`CheckpointPolicy`]; with one attached,
//!   [`Job::run_or_resume`] is crash recovery in a single call: resume from
//!   the journal when one exists (tolerating a torn tail), start fresh
//!   otherwise (PUFFER only: a baseline's analysis state is not journaled).

use crate::baselines::Baseline;
use crate::checkpoint::{CheckpointPolicy, FlowCheckpoint};
use crate::flow::{FlowResult, PufferConfig, StageObserver};
use crate::PufferError;
use puffer_budget::{Budget, ChaosPlan};
use puffer_db::design::Design;
use puffer_trace::Trace;

/// A placement flow: PUFFER itself or a comparison flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The PUFFER flow.
    Puffer,
    /// A comparison flow (see [`crate::baselines`]).
    Baseline(Baseline),
}

impl Flow {
    /// The Table II flows in the paper's column order: PUFFER is last, the
    /// flow the others' WL and RT are normalized against.
    pub const TABLE2: [Flow; 3] = [
        Flow::Baseline(Baseline::Reference),
        Flow::Baseline(Baseline::Replace),
        Flow::Puffer,
    ];

    /// The flow's name on the command line (`puffer place --flow <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Flow::Puffer => "puffer",
            Flow::Baseline(Baseline::Reference) => "reference",
            Flow::Baseline(Baseline::Replace) => "replace",
            Flow::Baseline(Baseline::Wsa) => "wsa",
        }
    }

    /// The flow's column in Table II (`wsa`'s in the ablation).
    pub fn label(self) -> &'static str {
        match self {
            Flow::Puffer => "PUFFER",
            Flow::Baseline(Baseline::Reference) => "Commercial_Ref",
            Flow::Baseline(Baseline::Replace) => "RePlAce-like",
            Flow::Baseline(Baseline::Wsa) => "wsa",
        }
    }

    /// The Table II flow `puffer place --flow` calls `name`.
    pub fn from_name(name: &str) -> Option<Flow> {
        Flow::TABLE2.into_iter().find(|f| f.name() == name)
    }

    /// The GP iteration cap of this flow's [`Flow::job`] at its defaults. A
    /// run whose `gp_iterations` reaches it stopped at the cap, not at its
    /// stop overflow.
    pub fn max_iters(self) -> usize {
        self.job(None, None).config.placer.max_iters
    }

    /// A job running this flow at its defaults and at most `max_iters` GP
    /// iterations (its own cap when `None`). `threads` bounds the lanes of
    /// the placer and of the estimator (or a baseline's router) alike; when
    /// `None`, the placer runs on one and the analysis on
    /// [`puffer_budget::default_threads`]. No output bit depends on either.
    pub fn job(self, max_iters: Option<usize>, threads: Option<usize>) -> Job {
        let mut config = PufferConfig::default();
        if let Flow::Baseline(baseline) = self {
            config.placer = baseline.placer();
            config.inherit_padding = false;
        }
        config.placer.max_iters = max_iters.unwrap_or(config.placer.max_iters);
        if let Some(n) = threads {
            config.placer.threads = n;
            config.estimator.threads = n;
        }
        Job {
            flow: self,
            ..Job::new(config)
        }
    }
}

/// A reusable, `Send`-able placement job (see the module docs).
///
/// ```
/// use puffer::{Job, PufferConfig};
/// use puffer_gen::{generate, GeneratorConfig};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = generate(&GeneratorConfig {
///     num_cells: 300, num_nets: 330, utilization: 0.6,
///     ..GeneratorConfig::default()
/// })?;
/// let mut config = PufferConfig::default();
/// config.placer.max_iters = 80;
/// let result = Job::new(config).run(&design)?;
/// assert!(result.hpwl > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Job {
    pub(crate) flow: Flow,
    pub(crate) config: PufferConfig,
    pub(crate) budget: Budget,
    pub(crate) trace: Trace,
    pub(crate) observer: Option<StageObserver>,
    pub(crate) checkpoints: Option<CheckpointPolicy>,
    pub(crate) chaos: Option<ChaosPlan>,
    /// Test hook: a baseline's analysis schedule in place of its own.
    #[cfg(test)]
    pub(crate) schedule: Option<crate::baselines::Schedule>,
}

impl Job {
    /// A PUFFER job with the given flow configuration, an unbounded budget,
    /// no telemetry, and no checkpointing.
    pub fn new(config: PufferConfig) -> Self {
        Job {
            flow: Flow::Puffer,
            config,
            budget: Budget::unbounded(),
            trace: Trace::disabled(),
            observer: None,
            checkpoints: None,
            chaos: None,
            #[cfg(test)]
            schedule: None,
        }
    }

    /// Attaches an execution budget (deadline and/or cancel token),
    /// returning `self` for chaining. The flow checks it cooperatively at
    /// every global-placement iteration (the budget's clock starts at
    /// [`Budget::with_deadline`], not here); when it expires the loop breaks
    /// as if converged — the best-so-far snapshot is still legalized, so the
    /// flow exits cleanly within the deadline plus one iteration's slack.
    /// A deadline also arms the degradation ladder: as the budget's
    /// remaining fraction crosses each rung's threshold the flow steps down
    /// fidelity in [`puffer_budget::DegradeStep::ALL`] order; each
    /// engagement is recorded as a `flow.degrade` trace record and in the
    /// checkpoint journal.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a telemetry sink, returning `self` for chaining. The flow
    /// stamps its stage boundaries as nested spans (`init`, `gp` with `pad`
    /// rounds inside, `legal`), forwards the handle to the placer, padding
    /// optimizer, and congestion estimator for their per-iteration records,
    /// and emits a final `flow.done` record.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a stage observer, returning `self` for chaining. The
    /// observer runs at every [`crate::StagePoint`]; an `Err` aborts the flow
    /// with [`PufferError::Validate`]. Without an observer the boundary
    /// reports are never built, so the unused hook costs nothing.
    pub fn with_observer(mut self, observer: StageObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a checkpoint policy, returning `self` for chaining. All run
    /// entry points then journal per the policy, and
    /// [`Job::run_or_resume`] resumes from its journal when one exists. A
    /// baseline job refuses to run with one.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoints = Some(policy);
        self
    }

    /// Arms one deterministic fault injection (chaos-harness use only).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Runs the flow from scratch, journaling when a checkpoint policy is
    /// attached (pure observation: the placement is identical either way).
    /// Any existing journal at the policy path is overwritten.
    ///
    /// # Errors
    ///
    /// [`PufferError`] if global placement cannot start (no movable cells /
    /// unplaced macros), a congestion round fails, legalization runs out of
    /// capacity, an observer rejects a stage, or a checkpoint cannot be
    /// written; [`PufferError::Journal`] when a baseline job carries a
    /// checkpoint policy or is resumed.
    pub fn run(&self, design: &Design) -> Result<FlowResult, PufferError> {
        self.execute(design, None)
    }

    /// Runs the flow warm-started from an in-memory checkpoint, journaling
    /// per the attached policy (if any). The configuration must match the
    /// one that produced the checkpoint; the run then finishes with exactly
    /// the placement the uninterrupted run would have produced. This is also
    /// the hook for injecting a known-good state before a risky
    /// continuation.
    ///
    /// # Errors
    ///
    /// [`PufferError::Resume`] when the checkpoint does not fit the design,
    /// plus everything [`Job::run`] returns.
    pub fn run_from(
        &self,
        design: &Design,
        checkpoint: FlowCheckpoint,
    ) -> Result<FlowResult, PufferError> {
        self.execute(design, Some(checkpoint))
    }

    /// Crash recovery in one call: when a checkpoint policy is attached and
    /// its journal already exists, resume from it via
    /// [`FlowCheckpoint::load`]; otherwise run from scratch. The journal is
    /// written atomically, so a crash leaves the previous complete record
    /// (and at most a stray temp sibling, which is never read).
    ///
    /// This is what the serve daemon calls for every attempt of a job —
    /// attempt 1 starts fresh, and any retry or post-restart re-run picks
    /// up from the checkpoints the earlier attempt left behind.
    ///
    /// # Errors
    ///
    /// Everything [`Job::run`] returns, plus [`PufferError::Journal`] when
    /// an existing journal is not exactly one complete record.
    pub fn run_or_resume(&self, design: &Design) -> Result<FlowResult, PufferError> {
        let Some(policy) = &self.checkpoints else {
            return self.run(design);
        };
        if !policy.path.exists() {
            return self.run(design);
        }
        let checkpoint =
            FlowCheckpoint::load(&policy.path).map_err(|e| PufferError::Journal(e.to_string()))?;
        self.run_from(design, checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_gen::{generate, GeneratorConfig};

    fn design() -> Design {
        generate(&GeneratorConfig {
            num_cells: 300,
            num_nets: 330,
            num_macros: 1,
            utilization: 0.6,
            hotspot: 0.5,
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    fn quick_config() -> PufferConfig {
        let mut c = PufferConfig::default();
        c.placer.max_iters = 120;
        c.placer.stop_overflow = 0.15;
        c.strategy.max_rounds = 2;
        c
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("puffer-job-tests").join(name);
        // Start clean: a journal left by a previous test run (of a possibly
        // different build) would otherwise be picked up by run_or_resume.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn job_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Job>();
    }

    #[test]
    fn run_or_resume_starts_fresh_then_resumes() {
        let d = design();
        let dir = tmp_dir("resume");
        let uninterrupted = Job::new(quick_config()).run(&d).unwrap();

        // First call: no journal → fresh run, writing checkpoints.
        let policy = CheckpointPolicy {
            path: dir.join("run.pj"),
            every: 30,
            keep_history: true,
        };
        let job = Job::new(quick_config()).with_checkpoints(policy.clone());
        let fresh = job.run_or_resume(&d).unwrap();
        assert_eq!(fresh.placement, uninterrupted.placement);

        // Simulate a crash right after a mid-loop checkpoint: point a job
        // at that journal and let run_or_resume pick it up.
        let mid = dir.join("run.pj.iter000030");
        assert!(mid.exists(), "mid-loop checkpoint missing");
        let job = Job::new(quick_config()).with_checkpoints(CheckpointPolicy {
            path: mid.clone(),
            every: 30,
            keep_history: false,
        });
        let resumed = job.run_or_resume(&d).unwrap();
        assert_eq!(resumed.placement, uninterrupted.placement);
        assert_eq!(resumed.hpwl, uninterrupted.hpwl);
    }

    #[test]
    fn run_or_resume_ignores_a_stray_tmp_sibling() {
        let d = design();
        let dir = tmp_dir("stray-tmp");
        let uninterrupted = Job::new(quick_config()).run(&d).unwrap();
        let policy = CheckpointPolicy {
            path: dir.join("run.pj"),
            every: 30,
            keep_history: true,
        };
        Job::new(quick_config())
            .with_checkpoints(policy)
            .run(&d)
            .unwrap();
        let mid = dir.join("run.pj.iter000030");
        // A kill mid-save: the next record's temp file holds a prefix of
        // it, and the rename that would have replaced the journal never
        // ran.
        let text = std::fs::read_to_string(&mid).unwrap();
        std::fs::write(
            puffer_budget::fsx::tmp_sibling(&mid),
            &text[..text.len() / 3],
        )
        .unwrap();
        let resumed = Job::new(quick_config())
            .with_checkpoints(CheckpointPolicy::new(&mid))
            .run_or_resume(&d)
            .unwrap();
        assert_eq!(resumed.placement, uninterrupted.placement);
        assert_eq!(resumed.hpwl, uninterrupted.hpwl);
    }

    #[test]
    fn cancel_token_stops_a_job_from_another_thread() {
        let d = design();
        let mut cfg = quick_config();
        cfg.placer.max_iters = 100_000;
        cfg.placer.stop_overflow = 0.0;
        let token = puffer_budget::CancelToken::new();
        let job = Job::new(cfg).with_budget(Budget::unbounded().with_token(token.clone()));
        token.cancel();
        let r = job.run(&d).unwrap();
        assert!(r.cancelled, "pre-cancelled token must stop the run");
    }
}
