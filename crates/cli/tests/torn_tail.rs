//! One torn-tail rule, three readers: every append-only log in the
//! workspace — the metrics JSONL reader, exploration journal resume, and
//! the serve daemon's run-journal reader (`fsx`'s line reader) — must
//! forgive the same crash artifact: a final line a kill cut short
//! mid-append. (The checkpoint journal is not such a log: it is written
//! atomically, one record per file.)
//!
//! The fixture is shared: [`tear`] appends a prefix of the file's own
//! last record with no terminator, exactly the bytes `kill -9` leaves
//! behind between a `write(2)` and its completion.

use std::path::{Path, PathBuf};

use puffer::{Job, PufferConfig};
use puffer_budget::fsx;
use puffer_explore::journal::ExplorationJournal;
use puffer_explore::TrialOutcome;
use puffer_gen::{generate, GeneratorConfig};
use puffer_trace::{read_jsonl, Trace};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("puffer-torn-tail-test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared crash fixture: re-append the file's last complete record,
/// cut to `keep` bytes and unterminated — a torn final write.
fn tear(path: &Path, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let last = text
        .lines()
        .next_back()
        .expect("fixture file must have at least one record")
        .to_string();
    let keep = keep.clamp(1, last.len());
    let mut torn = text;
    torn.push_str(&last[..keep]);
    std::fs::write(path, torn).unwrap();
}

fn small_design(seed: u64) -> puffer_db::design::Design {
    generate(&GeneratorConfig {
        name: format!("torn{seed}"),
        num_cells: 200,
        num_nets: 220,
        utilization: 0.6,
        hotspot: 0.5,
        seed,
        ..GeneratorConfig::default()
    })
    .unwrap()
}

fn flow_config() -> PufferConfig {
    let mut cfg = PufferConfig::default();
    cfg.placer.max_iters = 40;
    cfg.placer.threads = 1;
    cfg.estimator.threads = 1;
    cfg
}

#[test]
fn metrics_reader_drops_the_torn_tail_and_keeps_complete_records() {
    let dir = tmp_dir("metrics");
    let design = small_design(52);
    let metrics = dir.join("run.jsonl");
    let trace = Trace::with_sink(&metrics).unwrap();
    Job::new(flow_config())
        .with_trace(trace.clone())
        .run(&design)
        .unwrap();
    trace.write_summary();
    trace.flush().unwrap();

    let clean = read_jsonl(&metrics).unwrap();
    assert!(!clean.is_empty());

    tear(&metrics, 9);
    let records = read_jsonl(&metrics).expect("torn tail must not fail the reader");
    assert_eq!(records.len(), clean.len(), "complete records survive");
}

#[test]
fn exploration_resume_drops_the_torn_trial() {
    let dir = tmp_dir("explore");
    let path = dir.join("trials.ej");
    let (mut journal, prior) = ExplorationJournal::open(&path, 2).unwrap();
    assert!(prior.is_empty());
    journal.record(&[0.5, 1.5], &TrialOutcome::Ok(0.25)).unwrap();
    journal.record(&[1.0, 2.0], &TrialOutcome::Ok(1.0)).unwrap();
    drop(journal);

    tear(&path, 10);
    let (_, replay) = ExplorationJournal::open(&path, 2).unwrap();
    assert_eq!(replay.len(), 2, "complete trials survive, the torn one is dropped");
}

#[test]
fn the_line_reader_behind_serve_recovery_flags_the_torn_tail() {
    // The serve daemon's crash recovery reads each job's run.jsonl through
    // fsx's line reader; this is that reader on the same fixture.
    let dir = tmp_dir("serve");
    let path = dir.join("run.jsonl");
    std::fs::write(
        &path,
        "{\"t\":\"serve.accepted\",\"id\":1}\n{\"t\":\"serve.result\",\"id\":1}\n",
    )
    .unwrap();

    let clean = fsx::read_journal_tail_tolerant(&path).unwrap();
    assert_eq!(clean.len(), 2);
    assert!(!clean.dropped_torn_tail());

    tear(&path, 12);
    let journal = fsx::read_journal_tail_tolerant(&path).unwrap();
    assert_eq!(journal.len(), 2, "complete records survive");
    assert!(journal.dropped_torn_tail(), "torn tail must be flagged");
    assert_eq!(
        journal.records().last().map(String::as_str),
        Some("{\"t\":\"serve.result\",\"id\":1}")
    );
}
