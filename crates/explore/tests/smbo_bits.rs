//! Bit-level pin of the explorer: `fixtures/smbo_bits.txt` was rendered by
//! the explorer this crate shipped while `ExplorationConfig` still carried
//! its TPE settings, range margin, failure budget and trial journal as
//! fields, and every explorer since must reproduce it **bit for bit**: the
//! trajectory is what `puffer explore` prints and traces.
//!
//! A `trial` line holds the hex bits of one evaluated assignment of
//! [`explore_params_bounded`] and of the objective there (`nan` in the
//! NaN-returning region, `panic` at the panicking point). The `params` line
//! is that run's outcome: best assignment and value, the early-stop flag,
//! the evaluation and failure counts and the narrowed ranges. The
//! `failures` lines are the same run with an objective that fails from
//! some call on: where it stops is the failure budget. The `strategy` lines
//! are the [`StrategyOutcome`] of [`explore_strategy_traced`] over two
//! groups, with the groups explored in parallel and in series.

use puffer_budget::Budget;
use puffer_explore::{
    explore_params_bounded, explore_strategy_traced, ExplorationConfig, ParamSpec, Space,
    StrategyConfig, StrategyOutcome,
};
use puffer_trace::Trace;

const FIXTURE: &str = include_str!("fixtures/smbo_bits.txt");

fn space() -> Space {
    Space::new(vec![
        ParamSpec::continuous("x", -4.0, 4.0),
        ParamSpec::continuous("y", -4.0, 4.0),
        ParamSpec::integer("k", 0, 6),
        ParamSpec::categorical("c", 3),
    ])
}

/// The objective's value at `v`: NaN for `x < -2.5`, `None` at the
/// panicking point `k = 5, c = 2`, a separable bowl elsewhere.
fn value(v: &[f64]) -> Option<f64> {
    let (x, y, k, c) = (v[0], v[1], v[2], v[3]);
    if k == 5.0 && c == 2.0 {
        return None;
    }
    if x < -2.5 {
        return Some(f64::NAN);
    }
    let offset = [0.0, 0.5, 1.5][c as usize];
    Some((x - 1.0).powi(2) + (y + 0.5).powi(2) + 0.3 * (k - 2.0).powi(2) + offset)
}

fn objective(v: &[f64]) -> f64 {
    value(v).unwrap_or_else(|| panic!("the panicking point k=5 c=2"))
}

fn hex(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{:016x}", v.to_bits())
    }
}

fn hexes(vs: &[f64]) -> String {
    vs.iter().map(|&v| hex(v)).collect::<Vec<_>>().join(",")
}

/// Algorithm 2 alone, one `trial` line per evaluation and one `params`
/// line for the outcome.
fn params_run() -> String {
    let mut trials = Vec::new();
    let outcome = explore_params_bounded(
        &space(),
        |v| {
            trials.push(v.to_vec());
            objective(v)
        },
        &config(),
        &Trace::disabled(),
        &Budget::unbounded(),
    )
    .unwrap();
    let mut out = String::new();
    for (i, x) in trials.iter().enumerate() {
        let y = value(x).map_or_else(|| "panic".to_string(), hex);
        out.push_str(&format!("trial {i} x {} y {y}\n", hexes(x)));
    }
    let narrowed: Vec<f64> = outcome
        .narrowed
        .params()
        .iter()
        .flat_map(|p| [p.domain.lo(), p.domain.hi()])
        .collect();
    out.push_str(&format!(
        "params best {} value {} early {} evals {} failed {} narrowed {}\n",
        hexes(&outcome.best),
        hex(outcome.best_value),
        outcome.stopped_early,
        outcome.evals,
        outcome.failed_trials,
        hexes(&narrowed)
    ));
    out
}

/// The same run with every call after the first `first_failure` panicking
/// (and those returning the finite sum of squares).
fn failures_run(first_failure: usize) -> String {
    let mut calls = 0;
    let result = explore_params_bounded(
        &space(),
        |v| {
            calls += 1;
            if calls > first_failure {
                panic!("failing after call {first_failure}");
            }
            v.iter().map(|x| x * x).sum()
        },
        &config(),
        &Trace::disabled(),
        &Budget::unbounded(),
    );
    let ended = match result {
        Ok(outcome) => format!(
            "early {} evals {} failed {}",
            outcome.stopped_early, outcome.evals, outcome.failed_trials
        ),
        Err(err) => format!("error {err}"),
    };
    format!("failures from {first_failure} calls {calls} {ended}\n")
}

/// `TC` = 40, `EC` = 15, built in two updates so this file compiles
/// unchanged against any `ExplorationConfig` that has these two fields.
fn config() -> ExplorationConfig {
    let base = ExplorationConfig {
        max_evals: 40,
        ..ExplorationConfig::default()
    };
    ExplorationConfig {
        early_stop: 15,
        ..base
    }
}

/// Algorithm 3 over the groups `{x, k}` and `{y, c}`.
fn strategy_run(parallel: bool) -> String {
    let groups = vec![
        vec!["x".to_string(), "k".to_string()],
        vec!["y".to_string(), "c".to_string()],
    ];
    let StrategyOutcome {
        values,
        best_observed,
        best_value,
        evals,
        rounds,
        failed_trials,
    } = explore_strategy_traced(
        &space(),
        &groups,
        objective,
        &StrategyConfig {
            parallel,
            ..StrategyConfig::default()
        },
        &Trace::disabled(),
    )
    .unwrap();
    format!(
        "strategy parallel {parallel} values {} best {} value {} evals {evals} rounds {rounds} failed {failed_trials}\n",
        hexes(&values),
        hexes(&best_observed),
        hex(best_value)
    )
}

fn render() -> String {
    let mut out = params_run();
    out.push_str(&failures_run(0));
    out.push_str(&failures_run(1));
    out.push_str(&strategy_run(true));
    out.push_str(&strategy_run(false));
    out
}

#[test]
fn the_explorer_reproduces_the_fixture() {
    let got = render();
    assert_eq!(got.lines().count(), FIXTURE.lines().count(), "line count");
    for (line, (g, e)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, e, "fixture line {} differs", line + 1);
    }
}

/// The fixture is not vacuous: the Algorithm 2 run met both failure kinds
/// and spent more than the TPE's startup trials, the failing runs stopped
/// on the failure budget, not on `TC` or `EC`, and the parallel and serial
/// strategy runs agree past their label.
#[test]
fn the_fixture_covers_its_cases() {
    let trials: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| l.starts_with("trial "))
        .collect();
    assert!(trials.len() > 10, "only {} trials", trials.len());
    assert!(trials.iter().any(|l| l.ends_with(" y nan")));
    assert!(trials.iter().any(|l| l.ends_with(" y panic")));
    for line in FIXTURE.lines().filter(|l| l.starts_with("failures ")) {
        let calls: usize = line.split(' ').nth(4).unwrap().parse().unwrap();
        assert!(calls < 15, "{line}");
    }
    let strategy: Vec<&str> = FIXTURE
        .lines()
        .filter_map(|l| l.strip_prefix("strategy parallel "))
        .map(|l| l.split_once(' ').unwrap().1)
        .collect();
    assert_eq!(strategy.len(), 2);
    assert_eq!(strategy[0], strategy[1]);
}
