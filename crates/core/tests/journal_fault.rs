//! A checkpoint save torn mid-write must leave the previously committed
//! journal valid and resumable.
//!
//! The injector is the `fsx` fault hook, which is process-global: this test
//! lives in its own binary so no concurrently running test's guarded write
//! can consume (or be hit by) the armed fault.

use puffer::{CheckpointPolicy, FlowCheckpoint, Job, PufferConfig, PufferError};
use puffer_budget::{fsx, FaultClass};
use puffer_gen::{generate, GeneratorConfig};

#[test]
fn journal_write_failure_leaves_prior_journal_valid() {
    let d = generate(&GeneratorConfig {
        num_cells: 400,
        num_nets: 450,
        num_macros: 2,
        utilization: 0.6,
        hotspot: 0.5,
        ..GeneratorConfig::default()
    })
    .unwrap();
    let mut config = PufferConfig::default();
    config.placer.max_iters = 160;
    config.placer.stop_overflow = 0.15;
    config.strategy.tau = 0.30;
    config.strategy.max_rounds = 3;

    let dir = std::env::temp_dir()
        .join("puffer-flow-tests")
        .join("chaos-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let policy = CheckpointPolicy {
        path: dir.join("run.pj"),
        every: 2,
        keep_history: false,
    };
    let job = Job::new(config.clone()).with_checkpoints(policy.clone());

    // An untraced run's only guarded writes are its checkpoint saves, one
    // each: skip two so a committed journal exists when the third is torn.
    fsx::fault::arm(FaultClass::TornWrite, 2);
    let outcome = job.run(&d);
    let fired = !fsx::fault::armed();
    fsx::fault::disarm();
    assert!(fired, "armed fault never fired");
    let err = outcome.unwrap_err();
    assert!(matches!(err, PufferError::Journal(_)), "{err}");

    // The torn half-record sits under the temp name; the last committed
    // journal is untouched, loads, and resumes.
    let torn = std::fs::read(fsx::tmp_sibling(&policy.path)).expect("half-record missing");
    let whole = std::fs::read(&policy.path).unwrap();
    assert!(
        !torn.is_empty() && torn.len() < whole.len(),
        "not a half-record"
    );
    FlowCheckpoint::load(&policy.path).unwrap();
    let resumed = job.run_or_resume(&d).unwrap();
    let plain = Job::new(config).run(&d).unwrap();
    assert_eq!(resumed.placement, plain.placement);
}
