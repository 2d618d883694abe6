//! Fault injection: hostile inputs and mid-run failures must surface as
//! typed errors or recovered results — never a process abort.
//!
//! Covers the resilience layer end to end: corrupt/truncated design files
//! and checkpoint journals, NaN coordinates at every stage boundary,
//! zero-capacity routing grids, a panicking exploration objective, and
//! divergence recovery inside the full PUFFER flow.

use puffer::{
    evaluate_bounded, CheckpointPolicy, FlowCheckpoint, FlowStage, Job, PufferConfig, PufferError,
};
use puffer_budget::Budget;
use puffer_db::design::Design;
use puffer_db::geom::Point;
use puffer_db::DbError;
use puffer_explore::{
    explore_params_bounded, ExplorationConfig, ExploreError, ParamSpec, Space,
    MAX_CONSECUTIVE_FAILURES,
};
use puffer_gen::{generate, GeneratorConfig};
use puffer_legal::LegalizeError;
use puffer_pad::PaddingState;
use puffer_place::{GlobalPlacer, PlacerConfig};
use puffer_route::{GlobalRouter, RouteError, RouterConfig};
use puffer_trace::Trace;
use std::path::PathBuf;

fn quick_config() -> PufferConfig {
    let mut c = PufferConfig::default();
    c.placer.max_iters = 120;
    c.placer.stop_overflow = 0.15;
    c.strategy.tau = 0.30;
    c.strategy.max_rounds = 2;
    c
}

fn small_design() -> Design {
    generate(&GeneratorConfig {
        num_cells: 250,
        num_nets: 280,
        num_macros: 1,
        utilization: 0.6,
        hotspot: 0.4,
        ..GeneratorConfig::default()
    })
    .expect("generate")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("puffer-fault-injection")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// --- corrupt and truncated inputs -----------------------------------------

#[test]
fn corrupt_native_design_is_a_parse_error() {
    let cases = [
        "not a design at all",
        "design d\ntech abc 1.0\n", // non-numeric tech
        "design d\ntech 1.0 0.5\ncell c0 0.0 1.0 movable", // zero-area cell
        "design d\ntech 1.0 0.5\ncell c0 NaN 1.0 movable", // NaN-sized cell
        "design d\ntech 1.0 0.5\nnet n0 -1.0", // negative net weight
        "design d\ntech 1.0 0.5\npin 0 0 0.0 0.0", // pin to nothing
    ];
    for text in cases {
        let err = puffer_db::io::read_design(text.as_bytes())
            .expect_err(&format!("accepted corrupt input: {text:?}"));
        assert!(
            matches!(err, DbError::Parse { .. } | DbError::Validate(_)),
            "wanted a parse/validate error for {text:?}, got {err}"
        );
    }
}

#[test]
fn truncated_native_design_is_an_error_not_a_panic() {
    // Serialize a real design, then cut it off mid-file at several points.
    let d = small_design();
    let mut full = Vec::new();
    puffer_db::io::write_design(&d, &mut full).unwrap();
    for frac in [0.1, 0.5, 0.9] {
        let cut = (full.len() as f64 * frac) as usize;
        // Truncation may land mid-line; both a clean parse error and a
        // "missing section" error are acceptable — a panic is not.
        let _ = puffer_db::io::read_design(&full[..cut]);
    }
}

#[test]
fn corrupt_bookshelf_nodes_are_parse_errors() {
    let nodes_cases = [
        "UCLA nodes 1.0\na 0 1\n",   // zero width
        "UCLA nodes 1.0\na nan 1\n", // NaN width
        "UCLA nodes 1.0\na 2\n",     // missing height
    ];
    for nodes in nodes_cases {
        let err = puffer_db::bookshelf::parse_bookshelf("t", nodes, "UCLA nets 1.0\n", "", "")
            .expect_err(&format!("accepted corrupt nodes: {nodes:?}"));
        assert!(matches!(err, DbError::Parse { .. }), "{err}");
    }
}

#[test]
fn truncated_checkpoint_journal_is_a_resume_error() {
    let dir = tmp_dir("truncated-journal");
    let d = small_design();
    let journal = dir.join("run.pj");
    let job = Job::new(quick_config()).with_checkpoints(CheckpointPolicy::new(&journal));
    job.run(&d).expect("checkpointed place");

    // Cut the journal off before the `end` marker and try to resume.
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, &text[..text.len() / 2]).unwrap();
    let err = job.run_or_resume(&d).unwrap_err();
    assert!(matches!(err, PufferError::Journal(_)), "{err}");

    // Outright garbage fails the same way.
    std::fs::write(&journal, "definitely not a checkpoint").unwrap();
    let err = job.run_or_resume(&d).unwrap_err();
    assert!(matches!(err, PufferError::Journal(_)), "{err}");
}

/// Rewrites whitespace-separated field `field` of the first journal line
/// starting with `prefix`.
fn scribble(journal: &str, prefix: &str, field: usize, value: &str) -> String {
    let mut done = false;
    let lines: Vec<String> = journal
        .lines()
        .map(|line| {
            if done || !line.starts_with(prefix) {
                return line.to_string();
            }
            done = true;
            let mut fields: Vec<&str> = line.split(' ').collect();
            fields[field] = value;
            fields.join(" ")
        })
        .collect();
    assert!(done, "no '{prefix}' line in the journal");
    lines.join("\n") + "\n"
}

#[test]
fn scribbled_checkpoint_padding_is_a_resume_error() {
    let dir = tmp_dir("scribbled-journal");
    let d = small_design();
    let journal = dir.join("run.pj");
    let job = Job::new(quick_config()).with_checkpoints(CheckpointPolicy::new(&journal));
    job.run(&d).expect("checkpointed place");
    let text = std::fs::read_to_string(&journal).unwrap();

    // `cell <i> <x> <y> <placer pad> <optimizer pad> <count>`: the
    // optimizer's padding is only checked when the flow hands it over.
    // A journal float is the hex of its bits: NaN, +inf, -1.0.
    for bad in ["7ff8000000000000", "7ff0000000000000", "bff0000000000000"] {
        std::fs::write(&journal, scribble(&text, "cell 7 ", 5, bad)).unwrap();
        let err = job.run_or_resume(&d).unwrap_err();
        assert!(matches!(err, PufferError::Resume(_)), "{bad}: {err}");
        assert!(
            err.to_string().contains("cell 7: optimizer padding"),
            "{bad}: {err}"
        );
    }
    std::fs::write(
        &journal,
        scribble(&text, "pad_util ", 1, "7ff8000000000000"),
    )
    .unwrap();
    let err = job.run_or_resume(&d).unwrap_err();
    assert!(matches!(err, PufferError::Resume(_)), "{err}");
    assert!(err.to_string().contains("pad_util"), "{err}");
    // Decimal spellings stop at the parser.
    std::fs::write(&journal, scribble(&text, "pad_util ", 1, "NaN")).unwrap();
    let err = job.run_or_resume(&d).unwrap_err();
    assert!(matches!(err, PufferError::Journal(_)), "{err}");
}

#[test]
fn checkpoint_for_a_different_design_is_a_resume_error() {
    let dir = tmp_dir("wrong-design");
    let d = small_design();
    let journal = dir.join("run.pj");
    let job = Job::new(quick_config()).with_checkpoints(CheckpointPolicy::new(&journal));
    job.run(&d).expect("checkpointed place");

    let other = generate(&GeneratorConfig {
        num_cells: 90,
        num_nets: 100,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let err = job.run_or_resume(&other).unwrap_err();
    assert!(matches!(err, PufferError::Resume(_)), "{err}");
}

// --- NaN coordinates at stage boundaries ----------------------------------

#[test]
fn nan_coordinates_are_rejected_by_legalizer_and_router() {
    let d = small_design();
    let mut p = d.initial_placement();
    let victim = d.netlist().movable_cells().next().unwrap();
    p.set(victim, Point::new(f64::NAN, f64::INFINITY));

    let pad = vec![0u32; d.netlist().num_cells()];
    let err = puffer_legal::legalize_bounded(&d, &p, &pad, &Budget::unbounded()).unwrap_err();
    assert!(matches!(err, LegalizeError::BadInput(_)), "{err}");

    let router = GlobalRouter::new(&d, RouterConfig::default());
    let err = router.try_route(&d, &p).unwrap_err();
    assert!(
        matches!(err, RouteError::NonFinitePlacement { .. }),
        "{err}"
    );

    // The evaluator `puffer eval` and serve eval jobs call hands the same
    // refusal back, naming the cell, instead of panicking on it.
    let err = evaluate_bounded(
        &d,
        &p,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .unwrap_err();
    let name = &d.netlist().cell(victim).name;
    assert!(
        matches!(&err, RouteError::NonFinitePlacement { cell } if cell == name),
        "{err}"
    );
}

#[test]
fn nan_divergence_inside_the_flow_recovers_to_a_flow_result() {
    // Poison the global-placement state mid-flow via a checkpoint: the
    // divergence sentinel must roll back / back off and the flow must
    // still deliver a complete, legal FlowResult.
    let d = small_design();
    let config = quick_config();

    // A mid-flow snapshot whose placement is partially NaN.
    let mut poisoned = d.initial_placement();
    for id in d.netlist().movable_cells().take(25) {
        poisoned.set(id, Point::new(f64::NAN, f64::NAN));
    }
    let placer = GlobalPlacer::with_placement(
        &d,
        PlacerConfig {
            max_iters: config.placer.max_iters,
            stop_overflow: config.placer.stop_overflow,
            ..PlacerConfig::default()
        },
        poisoned,
    )
    .expect("placer");
    let checkpoint = FlowCheckpoint::capture(
        &d,
        FlowStage::GlobalPlace,
        placer.snapshot(),
        PaddingState::new(d.netlist().num_cells()),
    );

    let result = Job::new(config)
        .run_from(&d, checkpoint)
        .expect("flow must recover, not die");
    assert!(result.hpwl.is_finite());
    for id in d.netlist().movable_cells() {
        let pos = result.placement.pos(id);
        assert!(pos.x.is_finite() && pos.y.is_finite(), "cell at {pos}");
    }
    let zeros = vec![0u32; d.netlist().num_cells()];
    puffer_legal::check_legal(&d, &result.placement, &zeros).expect("legal after recovery");
}

// --- zero-capacity congestion grids ----------------------------------------

#[test]
fn zero_capacity_grid_is_a_route_error() {
    use puffer_db::grid::Grid;
    let d = small_design();
    let r = d.region();
    let grid =
        puffer_route::RoutingGrid::new(Grid::filled(r, 8, 8, 0.0), Grid::filled(r, 8, 8, 0.0));
    assert_eq!(grid.total_capacity(puffer_route::Dir::H), 0.0);
    assert_eq!(grid.total_capacity(puffer_route::Dir::V), 0.0);
}

// --- panicking exploration objective ----------------------------------------

#[test]
fn panicking_exploration_objective_is_contained() {
    let space = Space::new(vec![
        ParamSpec::continuous("a", 0.0, 10.0),
        ParamSpec::continuous("b", 0.0, 10.0),
    ]);
    let outcome = explore_params_bounded(
        &space,
        |v| {
            if v[0] > 5.0 {
                panic!("objective crashed at {v:?}");
            }
            (v[0] - 2.0).powi(2) + (v[1] - 3.0).powi(2)
        },
        &ExplorationConfig {
            max_evals: 80,
            early_stop: 80,
        },
        &Trace::disabled(),
        &Budget::unbounded(),
    )
    .expect("exploration must survive the crashing corner");
    assert!(outcome.failed_trials > 0, "crash corner never hit");
    assert!(outcome.best_value < 10.0, "best {}", outcome.best_value);
}

#[test]
fn hopeless_exploration_objective_is_a_typed_error() {
    let space = Space::new(vec![ParamSpec::continuous("a", 0.0, 1.0)]);
    let err = explore_params_bounded(
        &space,
        |_: &[f64]| -> f64 { panic!("always broken") },
        &ExplorationConfig {
            max_evals: 30,
            ..Default::default()
        },
        &Trace::disabled(),
        &Budget::unbounded(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ExploreError::AllTrialsFailed { attempted, .. } if attempted == MAX_CONSECUTIVE_FAILURES
        ),
        "{err}"
    );
}

// --- deadline cancellation at every stage -----------------------------------

#[test]
fn cancel_mid_gp_yields_best_so_far_and_auditable_artifacts() {
    use puffer::{StageObserver, StagePoint};
    use puffer_budget::CancelToken;

    let dir = tmp_dir("cancel-mid-gp");
    let d = small_design();
    let journal = dir.join("run.pj");
    let metrics = dir.join("run.jsonl");
    let trace = Trace::with_sink(&metrics).unwrap();

    // The observer trips the token once global placement is underway, so
    // the cancellation lands mid-GP at the next loop-boundary check.
    let token = CancelToken::new();
    let trip = token.clone();
    let result = Job::new(quick_config())
        .with_budget(Budget::unbounded().with_token(token))
        .with_trace(trace.clone())
        .with_observer(StageObserver::new(move |r| {
            if r.point == StagePoint::Init {
                trip.cancel();
            }
            Ok(())
        }))
        .with_checkpoints(CheckpointPolicy::new(&journal))
        .run(&d)
        .expect("cancellation must degrade, not fail");
    trace.write_summary();
    trace.flush().unwrap();

    assert!(result.cancelled, "flow must report the cancellation");
    assert!(
        result.gp_iterations < quick_config().placer.max_iters,
        "cancel must cut the run short"
    );
    assert!(result.hpwl.is_finite());
    let zeros = vec![0u32; d.netlist().num_cells()];
    puffer_legal::check_legal(&d, &result.placement, &zeros).expect("best-so-far must be legal");
    puffer_audit::audit_run(&journal, &metrics).expect("artifacts must stay consistent");
}

#[test]
fn cancel_mid_route_reports_the_routing_so_far() {
    use puffer_budget::CancelToken;

    let d = small_design();
    let p = d.initial_placement();
    let token = CancelToken::new();
    token.cancel();
    // The router checks its budget between rip-up rounds and rerouted
    // nets: a cancelled token stops refinement but the initial-routing
    // report must still be complete and finite.
    let report = evaluate_bounded(
        &d,
        &p,
        &RouterConfig::default(),
        &Budget::unbounded().with_token(token),
        &Trace::disabled(),
    )
    .expect("route");
    assert!(report.hof_pct.is_finite() && report.vof_pct.is_finite());
    assert!(report.wirelength.is_finite());
    let unbounded = evaluate_bounded(
        &d,
        &p,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route");
    assert!(
        report.rounds <= unbounded.rounds,
        "cancelled routing must not refine longer than the free run"
    );
}

#[test]
fn cancel_mid_smbo_keeps_the_best_completed_trial() {
    use puffer_budget::CancelToken;

    let space = Space::new(vec![
        ParamSpec::continuous("a", 0.0, 10.0),
        ParamSpec::continuous("b", 0.0, 10.0),
    ]);
    let token = CancelToken::new();
    let trip = token.clone();
    let mut trials = 0usize;
    let outcome = explore_params_bounded(
        &space,
        |v: &[f64]| {
            trials += 1;
            if trials == 3 {
                trip.cancel(); // expires mid-search, after three results
            }
            (v[0] - 2.0).powi(2) + (v[1] - 3.0).powi(2)
        },
        &ExplorationConfig {
            max_evals: 40,
            early_stop: 40,
        },
        &Trace::disabled(),
        &Budget::unbounded().with_token(token),
    )
    .expect("cancellation must return the best-so-far, not an error");
    assert!(outcome.evals <= 3, "search must stop at the cancellation");
    assert!(outcome.stopped_early);
    assert!(outcome.best_value.is_finite());
}

// --- kill + resume determinism ----------------------------------------------

#[test]
fn killed_flow_resumed_from_journal_matches_uninterrupted_run() {
    let dir = tmp_dir("kill-resume");
    let d = small_design();
    let config = quick_config();

    let uninterrupted = Job::new(config.clone()).run(&d).expect("uninterrupted");

    // keep_history preserves every periodic checkpoint: each file is
    // byte-for-byte what a kill right after that write would leave behind.
    let journal = dir.join("run.pj");
    let policy = CheckpointPolicy {
        path: journal.clone(),
        every: 30,
        keep_history: true,
    };
    Job::new(config.clone())
        .with_checkpoints(policy)
        .run(&d)
        .expect("journaled run");

    let kill_point = dir.join("run.pj.iter000030");
    assert!(kill_point.exists(), "periodic checkpoint missing");
    let resumed = Job::new(config)
        .with_checkpoints(CheckpointPolicy::new(&kill_point))
        .run_or_resume(&d)
        .expect("resume");

    assert_eq!(resumed.placement, uninterrupted.placement);
    assert_eq!(resumed.hpwl, uninterrupted.hpwl);
}
