//! Filesystem fault-injection tests over the real flow (satellite of the
//! durable I/O work): an injected ENOSPC mid-checkpoint-save must leave
//! the previously committed checkpoint untouched and resumable to a
//! bit-identical result, an injected fsync failure on the metrics sink
//! must surface as a structured `TraceError` instead of silently dropping
//! telemetry, and a short read anywhere in `puffer convert`'s Bookshelf
//! ingestion must fail the command cleanly without writing its output.
//!
//! The fault hook (`puffer_budget::fsx::fault`) is process-global, so the
//! tests in this binary serialize on one mutex.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use puffer::{CheckpointPolicy, FlowCheckpoint, Job, PufferConfig, PufferError};
use puffer_audit::Validate;
use puffer_budget::{fsx, FaultClass};
use puffer_db::design::Design;
use puffer_db::io::write_placement;
use puffer_gen::{generate, GeneratorConfig};
use puffer_trace::{read_jsonl, Trace, TraceError};

/// One armed fault at a time: the hook is process-global state.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("puffer-fsx-fault-test")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_design(seed: u64) -> Design {
    generate(&GeneratorConfig {
        name: format!("fsxfault{seed}"),
        num_cells: 220,
        num_nets: 240,
        utilization: 0.6,
        hotspot: 0.5,
        seed,
        ..GeneratorConfig::default()
    })
    .unwrap()
}

fn flow_config() -> PufferConfig {
    let mut cfg = PufferConfig::default();
    cfg.placer.max_iters = 60;
    cfg.placer.threads = 1;
    cfg.estimator.threads = 1;
    cfg
}

fn placement_bytes(result: &puffer::FlowResult) -> Vec<u8> {
    let mut buf = Vec::new();
    write_placement(&result.placement, &mut buf).unwrap();
    buf
}

#[test]
fn enospc_during_checkpoint_save_keeps_prior_checkpoint_resumable_and_bit_identical() {
    let _gate = gate();
    let dir = tmp_dir("enospc");
    let design = small_design(41);

    // Uninterrupted reference run: what a fault-free flow produces.
    let reference = placement_bytes(&Job::new(flow_config()).run(&design).unwrap());

    // Fault run: the second checkpoint save hits ENOSPC. Each save is one
    // atomic_write — one guarded data write plus one guarded commit
    // rename, both of which DiskFull matches — so skipping 2 matching ops
    // lands the fault on save 2's data write, after save 1 committed.
    let journal = dir.join("run.pj");
    let policy = CheckpointPolicy {
        path: journal.clone(),
        every: 2,
        keep_history: false,
    };
    let job = Job::new(flow_config()).with_checkpoints(policy);
    fsx::fault::arm(FaultClass::DiskFull, 2);
    let outcome = job.run(&design);
    let fired = !fsx::fault::armed();
    fsx::fault::disarm();
    assert!(fired, "armed ENOSPC fault never fired");
    let err = outcome.expect_err("ENOSPC mid-save must surface, not vanish");
    assert!(
        matches!(err, PufferError::Journal(_)),
        "wrong error class: {err}"
    );
    assert!(
        err.to_string().contains("disk full"),
        "error does not name the fault: {err}"
    );

    // The previously committed checkpoint is bit-identical to a clean
    // save: exactly one canonical record, no half-written bytes from the
    // failed replacement (its tmp sibling never reached the target).
    let on_disk = std::fs::read_to_string(&journal).unwrap();
    let checkpoint = FlowCheckpoint::load(&journal).expect("prior checkpoint must load");
    checkpoint
        .validate()
        .expect("prior checkpoint must validate");
    assert_eq!(
        on_disk,
        checkpoint.render(),
        "failed save corrupted the committed journal bytes"
    );

    // And it is resumable to the same placement the uninterrupted run
    // produced, byte for byte.
    let resumed = job
        .run_or_resume(&design)
        .expect("resume from the prior checkpoint must succeed");
    assert_eq!(
        placement_bytes(&resumed),
        reference,
        "resumed placement differs from the uninterrupted reference"
    );
}

#[test]
fn fsync_failure_on_metrics_sink_surfaces_structured_trace_error() {
    let _gate = gate();
    let dir = tmp_dir("fsync");
    let design = small_design(42);

    let metrics = dir.join("metrics.jsonl");
    let trace = Trace::with_sink(&metrics).unwrap();
    // The sink's directory fsync already happened at creation; the next
    // guarded fsync is the flush barrier itself.
    fsx::fault::arm(FaultClass::FsyncFail, 0);
    let result = Job::new(flow_config())
        .with_trace(trace.clone())
        .run(&design);
    let flushed = trace.flush();
    let fired = !fsx::fault::armed();
    fsx::fault::disarm();
    assert!(fired, "armed fsync fault never fired");

    // The flow result itself stands — durability of telemetry is not on
    // the flow's critical path.
    result.expect("flow must not fail because telemetry fsync failed");

    // The failure surfaces as a structured TraceError naming the sink.
    let err = flushed.expect_err("fsync failure must surface from flush");
    match &err {
        TraceError::Io { path, source } => {
            assert_eq!(path, &metrics, "error names the wrong sink: {err}");
            assert!(
                source.to_string().contains("fsync failed"),
                "error does not name the fault: {err}"
            );
        }
        other => panic!("wrong trace error shape: {other}"),
    }

    // Every record was written (one write per record) before the failed
    // durability barrier: nothing was silently dropped.
    let records = read_jsonl(&metrics).expect("metrics must stay readable");
    assert!(
        !records.is_empty(),
        "metrics lost despite per-record writes"
    );
}

/// A two-cell Bookshelf design: `d.aux` and the four files it names.
fn write_bookshelf(dir: &Path) {
    std::fs::write(dir.join("d.nodes"), "UCLA nodes 1.0\na 2 1\nb 2 1\n").unwrap();
    std::fs::write(
        dir.join("d.nets"),
        "UCLA nets 1.0\nNetDegree : 2 n0\n a I : 0 0\n b O : 0 0\n",
    )
    .unwrap();
    std::fs::write(dir.join("d.pl"), "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\n").unwrap();
    let scl: String = (0..10)
        .map(|i| {
            format!(
                "CoreRow Horizontal\n Coordinate : {i}\n Height : 1\n Sitewidth : 1\n \
                 SubrowOrigin : 0 NumSites : 20\nEnd\n"
            )
        })
        .collect();
    std::fs::write(dir.join("d.scl"), scl).unwrap();
    std::fs::write(
        dir.join("d.aux"),
        "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n",
    )
    .unwrap();
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn short_read_at_every_guarded_read_fails_convert_cleanly() {
    let _gate = gate();
    let dir = tmp_dir("convert");
    write_bookshelf(&dir);
    let inputs = file_names(&dir);
    let aux = dir.join("d.aux").to_str().unwrap().to_string();
    let pd = dir.join("d.pd");
    let args: Vec<String> = ["convert", &aux, "-o", pd.to_str().unwrap()]
        .iter()
        .map(|a| a.to_string())
        .collect();

    // Arm the k-th guarded read until the fault no longer fires: every
    // read of the five files has then been cut short once.
    let mut k = 0;
    loop {
        fsx::fault::arm(FaultClass::ShortRead, k);
        let outcome = puffer_cli::run(&args, &mut String::new());
        let fired = !fsx::fault::armed();
        fsx::fault::disarm();
        if !fired {
            outcome.expect("convert with no fault left to fire must succeed");
            break;
        }
        let err = outcome.expect_err("a short read must fail convert");
        assert_eq!(
            err.code, 1,
            "short read at guarded read {k}: {}",
            err.message
        );
        assert!(
            err.message.contains(&aux),
            "short read at guarded read {k} does not name the .aux: {}",
            err.message
        );
        // No d.pd and no tmp sibling: only the inputs are left.
        assert_eq!(
            file_names(&dir),
            inputs,
            "short read at guarded read {k} left output behind"
        );
        k += 1;
        assert!(k < 1000, "the short read never stops firing");
    }
    // The .aux and each file it names go through the hook.
    assert!(k >= 5, "only {k} guarded reads");
}
