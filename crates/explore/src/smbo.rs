//! SMBO driver: Algorithm 2 (parameter exploration) and Algorithm 3
//! (strategy exploration with grouped, parallel local refinement).
//!
//! # Fault tolerance
//!
//! The objective is an arbitrary user callback (often a full placement
//! flow); a panic or a NaN inside one trial must not abort a long
//! exploration. Every evaluation therefore runs under
//! [`puffer_par::run_isolated`]; a failing trial becomes
//! [`TrialOutcome::Failed`] and is observed by the TPE at a
//! worse-than-worst penalty value, steering the sampler away from the
//! failing region. A run of [`MAX_CONSECUTIVE_FAILURES`] failures ends the
//! exploration (an error if nothing ever succeeded).

use crate::error::ExploreError;
use crate::space::Space;
use crate::tpe::Tpe;
use puffer_budget::{Budget, DegradeStep, LadderState};
use puffer_par::{run_isolated, try_map_chunks, WorkerPanic};
use puffer_trace::Trace;

/// Outcome of a single objective evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// The objective returned a finite value.
    Ok(f64),
    /// The objective panicked or returned a non-finite value; the payload
    /// is the panic message (or a description of the bad value).
    Failed(String),
}

impl TrialOutcome {
    /// The objective value, if the trial succeeded.
    pub fn value(&self) -> Option<f64> {
        match self {
            TrialOutcome::Ok(y) => Some(*y),
            TrialOutcome::Failed(_) => None,
        }
    }
}

/// Configuration for one [`explore_params_bounded`] run (Algorithm 2's `TC`/`EC`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationConfig {
    /// Evaluation budget `TC`.
    pub max_evals: usize,
    /// Early-stop patience `EC`: stop after this many evaluations without
    /// improvement.
    pub early_stop: usize,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        ExplorationConfig {
            max_evals: 80,
            early_stop: 25,
        }
    }
}

/// Give up after this many failed trials in a row: stop early when
/// something already succeeded, error out when nothing ever has.
pub const MAX_CONSECUTIVE_FAILURES: usize = 8;

/// Margin, as a fraction of a parameter's range, by which updated ranges
/// are expanded around the good set (Algorithm 2 line 14).
const RANGE_MARGIN: f64 = 0.10;

/// Seed of the TPE sampler of every exploration run.
const TPE_SEED: u64 = 7;

/// Result of an [`explore_params_bounded`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationOutcome {
    /// Best assignment found.
    pub best: Vec<f64>,
    /// Its objective value.
    pub best_value: f64,
    /// Whether the run ended by early stop (Algorithm 2's return flag).
    pub stopped_early: bool,
    /// The updated (narrowed) parameter ranges.
    pub narrowed: Space,
    /// Number of evaluations spent (including failed trials).
    pub evals: usize,
    /// How many of them failed (panic or non-finite objective).
    pub failed_trials: usize,
}

/// Evaluates the objective at `x` with panics contained.
fn run_trial(eval: &mut impl FnMut(&[f64]) -> f64, x: &[f64]) -> TrialOutcome {
    match run_isolated(|| eval(x)) {
        Ok(y) if y.is_finite() => TrialOutcome::Ok(y),
        Ok(y) => TrialOutcome::Failed(format!("objective returned {y}")),
        Err(WorkerPanic(msg)) => TrialOutcome::Failed(msg),
    }
}

/// Mutable bookkeeping of one Algorithm 2 run.
struct Run {
    tpe: Tpe,
    best: Option<(Vec<f64>, f64)>,
    worst: Option<f64>,
    since_improvement: usize,
    consecutive_failures: usize,
    evals: usize,
    failed: usize,
    last_failure: String,
}

impl Run {
    fn new(space: &Space) -> Self {
        Run {
            tpe: Tpe::new(space.clone(), TPE_SEED),
            best: None,
            worst: None,
            since_improvement: 0,
            consecutive_failures: 0,
            evals: 0,
            failed: 0,
            last_failure: String::new(),
        }
    }

    /// The value a failed trial is observed at: strictly worse than every
    /// finite observation, so the TPE's quantile split files the failing
    /// region under the "bad" density.
    fn penalty(&self) -> f64 {
        match (self.best.as_ref(), self.worst) {
            (Some((_, best)), Some(worst)) => worst + (worst - best).abs().max(1.0),
            _ => 1e300,
        }
    }

    fn observe(&mut self, x: Vec<f64>, outcome: TrialOutcome) {
        self.evals += 1;
        match outcome {
            TrialOutcome::Ok(y) => {
                self.consecutive_failures = 0;
                self.worst = Some(self.worst.map_or(y, |w| w.max(y)));
                self.tpe.observe(x.clone(), y);
                if self.best.as_ref().is_none_or(|(_, by)| y < *by) {
                    self.best = Some((x, y));
                    self.since_improvement = 0;
                } else {
                    self.since_improvement += 1;
                }
            }
            TrialOutcome::Failed(message) => {
                self.failed += 1;
                self.consecutive_failures += 1;
                self.since_improvement += 1;
                self.last_failure = message;
                let penalty = self.penalty();
                self.tpe.observe(x, penalty);
            }
        }
    }
}

/// When the [`DegradeStep::CapTrials`] rung of the degradation ladder
/// engages, this many further evaluations are allowed before the run stops
/// (enough for the TPE to bank its current suggestion, cheap enough to
/// leave the rest of the deadline to downstream stages).
pub const CAPPED_TRIALS_REMAINING: usize = 2;

/// Algorithm 2: explore `space` with TPE, minimising `eval`, then narrow
/// each parameter's range around the best observations — under telemetry
/// and an execution [`Budget`].
///
/// Trials are panic-isolated (see the module docs): a panicking or
/// NaN-returning objective degrades the search instead of aborting it.
/// Every trial emits an `explore.trial` record — trial index, status,
/// objective, and the full parameter vector — to `trace`.
///
/// The budget is checked before every evaluation: an expired deadline or an
/// external cancel ends the run as a clean early stop with the best
/// assignment found so far — exactly like `early_stop`, never an error
/// (unless nothing ever succeeded *and* failures occurred, which keeps
/// [`ExploreError::AllTrialsFailed`] semantics intact).
///
/// A bounded budget arms the degradation ladder, polled once per trial;
/// only its [`DegradeStep::CapTrials`] rung applies here — once 20 % of the
/// budget remains, the remaining evaluation budget is capped at
/// [`CAPPED_TRIALS_REMAINING`] and a `flow.degrade` record is emitted. The
/// other rungs belong to the placement flow and are ignored.
///
/// # Errors
///
/// [`ExploreError::AllTrialsFailed`] when the failure budget is exhausted
/// before any trial succeeds.
pub fn explore_params_bounded(
    space: &Space,
    mut eval: impl FnMut(&[f64]) -> f64,
    config: &ExplorationConfig,
    trace: &Trace,
    budget: &Budget,
) -> Result<ExplorationOutcome, ExploreError> {
    let mut run = Run::new(space);
    let mut ladder = LadderState::default();
    let mut stopped_early = false;
    let mut max_evals = config.max_evals;

    while run.evals < max_evals {
        if budget.is_exhausted() {
            stopped_early = true;
            break;
        }
        if ladder.poll(budget).contains(&DegradeStep::CapTrials) {
            max_evals = max_evals.min(run.evals + CAPPED_TRIALS_REMAINING);
            trace
                .record("flow.degrade")
                .str("step", DegradeStep::CapTrials.as_str())
                .num("fraction_remaining", budget.fraction_remaining())
                .int("iter", run.evals as i64)
                .write();
        }
        if run.since_improvement >= config.early_stop {
            stopped_early = true;
            break;
        }
        if run.consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
            if run.best.is_none() {
                return Err(ExploreError::AllTrialsFailed {
                    attempted: run.evals,
                    last_failure: run.last_failure,
                });
            }
            stopped_early = true;
            break;
        }
        let x = run.tpe.suggest();
        let outcome = run_trial(&mut eval, &x);
        if trace.is_enabled() {
            trace.add("explore.trials", 1);
            let record = trace
                .record("explore.trial")
                .int("trial", run.evals as i64)
                .nums("params", &x);
            match &outcome {
                TrialOutcome::Ok(y) => record.str("status", "ok").num("objective", *y),
                TrialOutcome::Failed(m) => record
                    .str("status", "failed")
                    .num("objective", f64::NAN)
                    .str("error", m),
            }
            .write();
        }
        run.observe(x, outcome);
    }
    if run.best.is_none() && run.failed > 0 {
        // Budget ran out with only failures on the books.
        return Err(ExploreError::AllTrialsFailed {
            attempted: run.evals,
            last_failure: run.last_failure,
        });
    }

    let narrowed = narrow_ranges(space, run.tpe.observations());
    let (best, best_value) = run
        .best
        .unwrap_or_else(|| (space.midpoint(), f64::INFINITY));
    Ok(ExplorationOutcome {
        best,
        best_value,
        stopped_early,
        narrowed,
        evals: run.evals,
        failed_trials: run.failed,
    })
}

/// `updateParamRange` of Algorithm 2: shrink each continuous/integer range
/// to the hull of the best-quartile observations plus a margin.
fn narrow_ranges(space: &Space, observations: &[(Vec<f64>, f64)]) -> Space {
    if observations.len() < 4 {
        return space.clone();
    }
    let mut order: Vec<usize> = (0..observations.len()).collect();
    order.sort_by(|&a, &b| observations[a].1.total_cmp(&observations[b].1));
    let top = &order[..(observations.len() / 4).max(2)];

    let mut out = space.clone();
    for (d, p) in space.params().iter().enumerate() {
        if p.domain.is_categorical() {
            continue;
        }
        let lo_obs = top
            .iter()
            .map(|&i| observations[i].0[d])
            .fold(f64::INFINITY, f64::min);
        let hi_obs = top
            .iter()
            .map(|&i| observations[i].0[d])
            .fold(f64::NEG_INFINITY, f64::max);
        let margin = (p.domain.hi() - p.domain.lo()) * RANGE_MARGIN;
        let lo = (lo_obs - margin).max(p.domain.lo());
        let hi = (hi_obs + margin).min(p.domain.hi());
        if hi > lo {
            out = out.with_range(&p.name, lo, hi);
        }
    }
    out
}

/// Configuration for [`explore_strategy_traced`] (Algorithm 3).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyConfig {
    /// Budget for the initial global exploration.
    pub global: ExplorationConfig,
    /// Budget for each group's local exploration round.
    pub local: ExplorationConfig,
    /// Outer-loop budget `TC` (rounds over all groups).
    pub max_rounds: usize,
    /// Run group explorations on parallel threads.
    pub parallel: bool,
}

impl Default for StrategyConfig {
    fn default() -> Self {
        StrategyConfig {
            global: ExplorationConfig {
                max_evals: 60,
                early_stop: 20,
            },
            local: ExplorationConfig {
                max_evals: 30,
                early_stop: 10,
            },
            max_rounds: 3,
            parallel: true,
        }
    }
}

/// Result of [`explore_strategy_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The final configuration: midpoints of the converged ranges
    /// (Algorithm 3's "take the median of the range").
    pub values: Vec<f64>,
    /// Best assignment observed anywhere during exploration.
    pub best_observed: Vec<f64>,
    /// Objective value of `best_observed`.
    pub best_value: f64,
    /// Total evaluations spent.
    pub evals: usize,
    /// Rounds of grouped local exploration executed.
    pub rounds: usize,
    /// Trials that failed (panic or non-finite objective) across every
    /// phase.
    pub failed_trials: usize,
}

/// Algorithm 3: global exploration over all parameters, then repeated
/// grouped local exploration (each group explored with the other
/// parameters fixed at their range midpoints), until every group stops
/// early or the round budget is exhausted.
///
/// `groups` lists parameter names per group; parameters not mentioned in
/// any group keep their post-global ranges. The evaluation function must be
/// `Sync` because groups are explored on parallel threads (the paper notes
/// this parallelism explicitly). Objective panics are contained per trial
/// (see the module docs), so a crashing configuration costs one trial, not
/// the exploration. Every trial of the global phase and of every group
/// round emits an `explore.trial` record to `trace` (clones of the handle
/// share one sink, so parallel groups interleave safely). The global phase
/// runs with `config.global`'s budgets, every group round with
/// `config.local`'s.
///
/// # Errors
///
/// [`ExploreError::AllTrialsFailed`] when the global phase (or every group
/// of a round) exhausts its failure budget without a single success, and
/// [`ExploreError::GroupPanicked`] if an exploration thread itself dies
/// (a driver bug, not an objective failure).
pub fn explore_strategy_traced(
    space: &Space,
    groups: &[Vec<String>],
    eval: impl Fn(&[f64]) -> f64 + Sync,
    config: &StrategyConfig,
    trace: &Trace,
) -> Result<StrategyOutcome, ExploreError> {
    // Line 1–2: initial ranges + global exploration.
    let global = explore_params_bounded(space, &eval, &config.global, trace, &Budget::unbounded())?;
    let mut ranges = global.narrowed;
    let mut best_observed = global.best;
    let mut best_value = global.best_value;
    let mut evals = global.evals;
    let mut failed_trials = global.failed_trials;

    let mut rounds = 0usize;
    for _ in 0..config.max_rounds {
        rounds += 1;
        // Explore each group with the others fixed at range midpoints.
        let base = ranges.midpoint();
        let threads = if config.parallel { groups.len() } else { 1 };
        let group_results = try_map_chunks(groups.len(), threads, |chunk| {
            chunk
                .map(|g| {
                    run_isolated(|| {
                        explore_group(&ranges, &base, &groups[g], &eval, &config.local, trace)
                    })
                    .unwrap_or_else(|WorkerPanic(msg)| Err(ExploreError::GroupPanicked(msg)))
                })
                .collect::<Vec<_>>()
        })
        .map_err(|WorkerPanic(msg)| ExploreError::GroupPanicked(msg))?;

        let mut all_early = true;
        let mut first_err = None;
        let mut failed_groups = 0usize;
        for result in group_results.into_iter().flatten() {
            let (indices, outcome) = match result {
                Ok(r) => r,
                Err(e) => {
                    // A fully-failing group cannot improve anything this
                    // round; drop its contribution but keep the others.
                    failed_groups += 1;
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    continue;
                }
            };
            evals += outcome.evals;
            failed_trials += outcome.failed_trials;
            all_early &= outcome.stopped_early;
            if outcome.best_value < best_value {
                best_value = outcome.best_value;
                let mut full = base.clone();
                for (slot, &i) in indices.iter().enumerate() {
                    full[i] = outcome.best[slot];
                }
                best_observed = full;
            }
            // Fold the narrowed sub-ranges back into the full space.
            for (slot, &i) in indices.iter().enumerate() {
                let p = &outcome.narrowed.params()[slot];
                let name = ranges.params()[i].name.clone();
                ranges = ranges.with_range(&name, p.domain.lo(), p.domain.hi());
            }
        }
        if failed_groups == groups.len() && !groups.is_empty() {
            if let Some(err) = first_err {
                return Err(err);
            }
        }
        if all_early {
            break;
        }
    }

    Ok(StrategyOutcome {
        values: ranges.midpoint(),
        best_observed,
        best_value,
        evals,
        rounds,
        failed_trials,
    })
}

/// Runs Algorithm 2 on one group's sub-space, evaluating full assignments
/// with non-group parameters fixed at `base`.
fn explore_group(
    ranges: &Space,
    base: &[f64],
    group: &[String],
    eval: impl Fn(&[f64]) -> f64,
    config: &ExplorationConfig,
    trace: &Trace,
) -> Result<(Vec<usize>, ExplorationOutcome), ExploreError> {
    let indices: Vec<usize> = group.iter().filter_map(|n| ranges.index_of(n)).collect();
    let sub = Space::new(
        indices
            .iter()
            .map(|&i| ranges.params()[i].clone())
            .collect(),
    );
    let outcome = explore_params_bounded(
        &sub,
        |xs| {
            let mut full = base.to_vec();
            for (slot, &i) in indices.iter().enumerate() {
                full[i] = xs[slot];
            }
            eval(&full)
        },
        config,
        trace,
        &Budget::unbounded(),
    )?;
    Ok((indices, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn bowl(space_dim: usize) -> Space {
        Space::new(
            (0..space_dim)
                .map(|i| ParamSpec::continuous(format!("x{i}"), -10.0, 10.0))
                .collect(),
        )
    }

    #[test]
    fn explore_params_finds_the_bowl_bottom() {
        let outcome = explore_params_bounded(
            &bowl(2),
            |v| v.iter().map(|x| (x - 2.0) * (x - 2.0)).sum(),
            &ExplorationConfig {
                max_evals: 150,
                early_stop: 60,
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap();
        assert!(outcome.best_value < 2.0, "best {}", outcome.best_value);
        assert!(outcome.evals <= 150);
    }

    #[test]
    fn traced_exploration_emits_one_record_per_trial() {
        let dir = std::env::temp_dir().join("puffer-explore-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trials.jsonl");
        let trace = Trace::with_sink(&path).unwrap();
        let outcome = explore_params_bounded(
            &bowl(1),
            |v| {
                if v[0] < 0.0 {
                    f64::NAN // a failing region → Failed trials
                } else {
                    v[0] * v[0]
                }
            },
            &ExplorationConfig {
                max_evals: 30,
                early_stop: 30,
            },
            &trace,
            &Budget::unbounded(),
        )
        .unwrap();
        trace.flush().unwrap();
        let records = puffer_trace::read_jsonl(&path).unwrap();
        let trials: Vec<_> = records
            .iter()
            .filter(|r| r.kind() == Some("explore.trial"))
            .collect();
        assert_eq!(trials.len(), outcome.evals);
        // Trial indices are the 0-based evaluation order.
        for (i, r) in trials.iter().enumerate() {
            assert_eq!(r.num("trial"), Some(i as f64));
            let status = r.str_field("status").unwrap();
            match status {
                "ok" => assert!(r.num("objective").unwrap().is_finite()),
                "failed" => assert!(r.str_field("error").is_some()),
                other => panic!("unexpected status {other:?}"),
            }
            assert!(r.get("params").is_some(), "params vector missing");
        }
        assert!(
            trials.iter().any(|r| r.str_field("status") == Some("ok")),
            "no successful trials traced"
        );
    }

    #[test]
    fn early_stop_limits_evaluations() {
        // Constant objective: nothing ever improves after the first eval.
        let outcome = explore_params_bounded(
            &bowl(1),
            |_| 1.0,
            &ExplorationConfig {
                max_evals: 500,
                early_stop: 12,
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap();
        assert!(outcome.stopped_early);
        assert!(outcome.evals <= 14);
    }

    #[test]
    fn ranges_narrow_around_the_optimum() {
        let outcome = explore_params_bounded(
            &bowl(1),
            |v| (v[0] - 4.0).abs(),
            &ExplorationConfig {
                max_evals: 120,
                early_stop: 120,
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap();
        let d = outcome.narrowed.params()[0].domain;
        assert!(
            d.lo() > -10.0 || d.hi() < 10.0,
            "range should shrink: {d:?}"
        );
        assert!(
            d.lo() <= 4.0 && d.hi() >= 4.0,
            "optimum stays inside: {d:?}"
        );
    }

    #[test]
    fn strategy_exploration_converges_groupwise() {
        // Separable objective: groups can optimise independently.
        let space = bowl(4);
        let groups = vec![
            vec!["x0".to_string(), "x1".to_string()],
            vec!["x2".to_string(), "x3".to_string()],
        ];
        let target = [1.0, -2.0, 3.0, -4.0];
        let outcome = explore_strategy_traced(
            &space,
            &groups,
            |v| v.iter().zip(&target).map(|(x, t)| (x - t) * (x - t)).sum(),
            &StrategyConfig::default(),
            &Trace::disabled(),
        )
        .unwrap();
        assert!(outcome.best_value < 20.0, "best {}", outcome.best_value);
        assert_eq!(outcome.values.len(), 4);
        // Final midpoints should be pulled towards the target.
        for (v, t) in outcome.values.iter().zip(&target) {
            assert!((v - t).abs() < 8.0, "{v} vs {t}");
        }
    }

    #[test]
    fn parallel_and_serial_agree_on_eval_counting() {
        let space = bowl(2);
        let groups = vec![vec!["x0".to_string()], vec!["x1".to_string()]];
        let count = AtomicUsize::new(0);
        let outcome = explore_strategy_traced(
            &space,
            &groups,
            |v| {
                count.fetch_add(1, Ordering::Relaxed);
                v.iter().map(|x| x * x).sum()
            },
            &StrategyConfig {
                parallel: true,
                ..Default::default()
            },
            &Trace::disabled(),
        )
        .unwrap();
        assert_eq!(outcome.evals, count.load(Ordering::Relaxed));
    }

    #[test]
    fn unknown_group_members_are_skipped() {
        let space = bowl(1);
        let groups = vec![vec!["x0".to_string(), "ghost".to_string()]];
        let outcome = explore_strategy_traced(
            &space,
            &groups,
            |v| v[0].abs(),
            &StrategyConfig {
                max_rounds: 1,
                parallel: false,
                ..Default::default()
            },
            &Trace::disabled(),
        )
        .unwrap();
        assert_eq!(outcome.values.len(), 1);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("puffer-smbo-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn panicking_trials_are_isolated_and_recorded() {
        // A quarter of the domain panics; exploration must survive, count
        // the failures, and still find the bowl bottom outside the crater.
        let space = bowl(2);
        let outcome = explore_params_bounded(
            &space,
            |v| {
                if v[0] > 5.0 && v[1] > 5.0 {
                    panic!("deliberate objective crash at {v:?}");
                }
                v.iter().map(|x| x * x).sum()
            },
            &ExplorationConfig {
                max_evals: 120,
                early_stop: 120,
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap();
        assert!(outcome.failed_trials > 0, "crater was never sampled");
        assert!(outcome.best_value.is_finite());
        assert!(outcome.best_value < 25.0, "best {}", outcome.best_value);
        assert_eq!(outcome.evals, 120, "failed trials must count as evals");
    }

    #[test]
    fn always_failing_objective_is_an_error() {
        let space = bowl(1);
        let err = explore_params_bounded(
            &space,
            |_: &[f64]| -> f64 { panic!("nothing ever works") },
            &ExplorationConfig {
                max_evals: 50,
                ..Default::default()
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap_err();
        match err {
            ExploreError::AllTrialsFailed {
                attempted,
                last_failure,
            } => {
                assert_eq!(
                    attempted, MAX_CONSECUTIVE_FAILURES,
                    "failure budget bounds the attempts"
                );
                assert!(last_failure.contains("nothing ever works"));
            }
            other => panic!("expected AllTrialsFailed, got {other}"),
        }
    }

    #[test]
    fn non_finite_objective_counts_as_failure() {
        let space = bowl(1);
        let outcome = explore_params_bounded(
            &space,
            |v| if v[0] < 0.0 { f64::NAN } else { v[0] },
            &ExplorationConfig {
                max_evals: 60,
                early_stop: 60,
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap();
        assert!(outcome.failed_trials > 0, "negative half never sampled");
        assert!(outcome.best_value >= 0.0);
    }

    #[test]
    fn consecutive_failures_stop_early_after_a_success() {
        let space = bowl(1);
        let evals = AtomicUsize::new(0);
        // First trial succeeds, everything after panics: the run should
        // stop at 1 success + MAX_CONSECUTIVE_FAILURES, not burn the budget.
        let outcome = explore_params_bounded(
            &space,
            |v| {
                if evals.fetch_add(1, Ordering::Relaxed) == 0 {
                    v[0] * v[0]
                } else {
                    panic!("flaky after warmup")
                }
            },
            &ExplorationConfig {
                max_evals: 200,
                early_stop: 200,
            },
            &Trace::disabled(),
            &Budget::unbounded(),
        )
        .unwrap();
        assert!(outcome.stopped_early);
        assert_eq!(outcome.evals, 1 + MAX_CONSECUTIVE_FAILURES);
        assert_eq!(outcome.failed_trials, MAX_CONSECUTIVE_FAILURES);
        assert!(outcome.best_value.is_finite());
    }

    #[test]
    fn cancelled_budget_stops_with_best_so_far() {
        let space = bowl(1);
        let token = puffer_budget::CancelToken::new();
        let evals = AtomicUsize::new(0);
        let outcome = explore_params_bounded(
            &space,
            |v| {
                if evals.fetch_add(1, Ordering::Relaxed) == 4 {
                    token.cancel(); // cancel mid-run, after 5 evaluations
                }
                v[0] * v[0]
            },
            &ExplorationConfig {
                max_evals: 200,
                early_stop: 200,
            },
            &Trace::disabled(),
            &Budget::unbounded().with_token(token.clone()),
        )
        .unwrap();
        assert!(outcome.stopped_early, "cancel must read as an early stop");
        assert_eq!(outcome.evals, 5, "no evaluation after the cancel");
        assert!(outcome.best_value.is_finite());
    }

    #[test]
    fn cap_trials_rung_caps_remaining_evaluations() {
        let space = bowl(1);
        // The first trial runs until 18 % of a one-second deadline remains,
        // below the rung's 0.20 threshold: the next poll engages cap-trials
        // and the run stops after exactly CAPPED_TRIALS_REMAINING further
        // (instant) evaluations — long before the deadline itself would.
        let budget = Budget::with_deadline(std::time::Duration::from_secs(1));
        let evals = AtomicUsize::new(0);
        let path = tmp("cap_trials.jsonl");
        let trace = Trace::with_sink(&path).unwrap();
        let outcome = explore_params_bounded(
            &space,
            |v| {
                if evals.fetch_add(1, Ordering::Relaxed) == 0 {
                    while budget.fraction_remaining() > 0.18 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                }
                v[0] * v[0]
            },
            &ExplorationConfig {
                max_evals: 500,
                early_stop: 500,
            },
            &trace,
            &budget,
        )
        .unwrap();
        trace.flush().unwrap();
        let records = puffer_trace::read_jsonl(&path).unwrap();
        let rungs: Vec<&str> = records
            .iter()
            .filter(|r| r.kind() == Some("flow.degrade"))
            .filter_map(|r| r.str_field("step"))
            .collect();
        assert_eq!(rungs, ["cap-trials"]);
        assert_eq!(
            outcome.evals,
            1 + CAPPED_TRIALS_REMAINING,
            "cap must stop the run right after engaging"
        );
    }

    #[test]
    fn strategy_exploration_survives_a_panicking_region() {
        let space = bowl(2);
        let groups = vec![vec!["x0".to_string()], vec!["x1".to_string()]];
        let outcome = explore_strategy_traced(
            &space,
            &groups,
            |v| {
                if v[0] < -9.0 {
                    panic!("strategy crash corner");
                }
                v.iter().map(|x| x * x).sum()
            },
            &StrategyConfig::default(),
            &Trace::disabled(),
        )
        .unwrap();
        assert!(outcome.best_value.is_finite());
        assert!(outcome.best_value < 20.0, "best {}", outcome.best_value);
    }
}
