//! The job engine: a bounded worker pool that runs placement/eval jobs
//! with panic isolation, retry, cancellation, and crash recovery.
//!
//! One [`Engine::run`] call owns everything: it scans the journal
//! directory for jobs a previous process left behind (re-enqueueing any
//! that never reached a terminal state), spins up `workers` threads on
//! the shared [`BoundedQueue`], runs the caller's `control` closure (the
//! protocol loop) on the calling thread, and tears the pool down when
//! control returns. All shared state lives on [`Engine::run`]'s stack and
//! is borrowed by the scoped workers — no `Arc`, no leaked threads.
//!
//! Every job ends in exactly one of three legal end states:
//!
//! 1. **completed result** — `result.json` holds a `serve.result` record
//!    (or a `serve.error` with class `cancelled` for client cancellation);
//! 2. **resumable checkpoint** — no `result.json`, but `spec.json` (and
//!    usually `run.pj`) survive, so the next start re-enqueues the job and
//!    [`Job::run_or_resume`] replays it bit-identically from the journal;
//! 3. **structured error** — `result.json` holds a `serve.error` record
//!    naming the fault class and attempt count.
//!
//! Fault handling per attempt: a worker panic is caught at the job
//! boundary ([`puffer_par::run_isolated`]) and classified as transient,
//! like journal and I/O failures; transient faults retry with
//! exponential backoff up to `max_attempts`, resuming from the last good
//! checkpoint. Flow and spec errors are permanent and fail the job
//! immediately with a structured record.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use puffer_budget::clock::Deadline;
use puffer_budget::lockcheck::{lock_leaf, Locked};
use std::time::Duration;

use puffer::{evaluate_bounded, CheckpointPolicy, FlowResult, Job, PufferConfig, PufferError};
use puffer_budget::fsx;
use puffer_budget::{Budget, CancelToken, FaultClass};
use puffer_db::design::Design;
use puffer_db::io::{read_design, read_placement, write_placement};
use puffer_route::{RouteError, RouteReport, RouterConfig};
use puffer_trace::{parse_record, Trace};

use crate::proto::{JobKind, JobSpec, JsonLine};
use crate::queue::{BoundedQueue, Popped, PushError};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Engine settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool (clamped into
    /// `1..=`[`puffer_budget::MAX_WORKER_THREADS`] when the engine starts).
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects submissions with an
    /// explicit reason instead of buffering unboundedly.
    pub queue_capacity: usize,
    /// Directory holding one `job-<id>/` journal per job.
    pub journal_dir: PathBuf,
    /// Checkpoint cadence (GP iterations) for place jobs.
    pub checkpoint_every: usize,
    /// Attempts per job before a transient fault becomes a permanent
    /// failure.
    pub max_attempts: usize,
    /// Base backoff delay; attempt `n` retries after `backoff * 2^(n-1)`.
    pub backoff: Duration,
    /// Engine telemetry sink.
    pub trace: Trace,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            journal_dir: PathBuf::from("puffer-serve"),
            checkpoint_every: 10,
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            trace: Trace::disabled(),
        }
    }
}

// ---------------------------------------------------------------------------
// Job bookkeeping
// ---------------------------------------------------------------------------

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing an attempt.
    Running,
    /// Finished with a result record.
    Done,
    /// Cancelled by a client.
    Cancelled,
    /// Failed with a structured error record.
    Failed,
}

impl JobState {
    /// Whether the state is final.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }

    /// Protocol name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    attempts: usize,
    token: CancelToken,
    client_cancel: bool,
    terminal_record: Option<String>,
    message: String,
}

impl JobEntry {
    fn new(spec: JobSpec) -> Self {
        JobEntry {
            spec,
            state: JobState::Queued,
            attempts: 0,
            token: CancelToken::new(),
            client_cancel: false,
            terminal_record: None,
            message: String::new(),
        }
    }
}

/// A point-in-time view of one job, for `status` responses.
#[derive(Debug, Clone)]
pub struct StatusView {
    /// Job id.
    pub id: u64,
    /// Current state.
    pub state: JobState,
    /// Attempts started so far.
    pub attempts: usize,
    /// Terminal record line, once the job is terminal.
    pub terminal_record: Option<String>,
    /// Human-readable progress/error note.
    pub message: String,
}

/// Why a submission was rejected (explicit backpressure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Machine-readable reason: `queue-full`, `draining`, `bad-spec`, `io`.
    pub reason: &'static str,
    /// Human-readable detail.
    pub detail: String,
    /// Jobs queued at rejection time.
    pub queued: usize,
    /// Admission-queue capacity.
    pub capacity: usize,
}

/// Why [`EngineHandle::wait`] returned without a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// No job with that id.
    UnknownJob,
    /// The timeout elapsed before the job reached a terminal state.
    Timeout,
}

/// What [`Engine::run`] can fail with.
#[derive(Debug)]
pub enum EngineError {
    /// The journal directory could not be created or scanned.
    Io(String),
    /// The control closure panicked (worker panics never surface here —
    /// they fail the job they were running, not the engine).
    ControlPanic(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Io(m) => write!(f, "journal directory: {m}"),
            EngineError::ControlPanic(m) => write!(f, "control loop panicked: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

// ---------------------------------------------------------------------------
// Shared engine state (stack-allocated, borrowed by scoped workers)
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<u64>,
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    terminal_cv: Condvar,
    next_id: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    live_workers: AtomicUsize,
}

impl Shared {
    // Job entries are plain data; a panic between lock and unlock cannot
    // leave them half-updated, so recovering a poisoned guard is sound.
    fn jobs(&self) -> Locked<'_, BTreeMap<u64, JobEntry>> {
        lock_leaf(&self.jobs)
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.journal_dir.join(format!("job-{id}"))
    }

    /// Moves a job to a terminal state: persists the record as
    /// `result.json` (atomically), updates the in-memory entry, and wakes
    /// every `wait`/`drain` caller.
    fn finalize(&self, id: u64, state: JobState, record: String) {
        let path = self.job_dir(id).join("result.json");
        if let Err(e) = write_atomic(&path, &(record.clone() + "\n")) {
            // The in-memory state must still become terminal or waiters
            // hang; the record survives in memory for this process's
            // lifetime and the job will re-run after a restart.
            self.cfg
                .trace
                .record("serve.warn")
                .int("id", id as i64)
                .str("what", "result-write-failed")
                .str("error", &e.to_string())
                .write();
        }
        let mut jobs = self.jobs();
        if let Some(entry) = jobs.get_mut(&id) {
            entry.state = state;
            entry.terminal_record = Some(record);
        }
        drop(jobs);
        self.terminal_cv.notify_all();
    }
}

/// Atomic file replacement with the workspace crash discipline (temp
/// sibling + fsync + rename + parent-dir fsync); see [`fsx::atomic_write`].
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    fsx::atomic_write(path, text.as_bytes())
}

// ---------------------------------------------------------------------------
// Terminal records
// ---------------------------------------------------------------------------

fn place_record(id: u64, result: &FlowResult, out: Option<&str>) -> String {
    JsonLine::new("serve.result")
        .int("id", id as i64)
        .str("state", "done")
        .str("kind", "place")
        .num("hpwl", result.hpwl)
        .int("gp_iterations", result.gp_iterations as i64)
        .int("pad_rounds", result.pad_rounds as i64)
        .int("cancelled", i64::from(result.cancelled))
        .num("runtime_s", result.runtime_s)
        .opt_str("out", out)
        .finish()
}

fn eval_record(id: u64, report: &RouteReport) -> String {
    JsonLine::new("serve.result")
        .int("id", id as i64)
        .str("state", "done")
        .str("kind", "eval")
        .num("hof_pct", report.hof_pct)
        .num("vof_pct", report.vof_pct)
        .num("wirelength", report.wirelength)
        .int("overflow_gcells", report.overflow_gcells as i64)
        .int("rounds", report.rounds as i64)
        .finish()
}

fn error_record(id: u64, class: &str, attempts: usize, message: &str) -> String {
    let state = if class == "cancelled" { "cancelled" } else { "failed" };
    JsonLine::new("serve.error")
        .int("id", id as i64)
        .str("state", state)
        .str("class", class)
        .int("attempts", attempts as i64)
        .str("message", message)
        .finish()
}

/// Reads the job state back out of a persisted terminal record.
fn state_of_record(record: &str) -> JobState {
    match parse_record(record) {
        Ok(rec) => match rec.kind() {
            Some("serve.result") => JobState::Done,
            Some("serve.error") if rec.str_field("class") == Some("cancelled") => {
                JobState::Cancelled
            }
            _ => JobState::Failed,
        },
        Err(_) => JobState::Failed,
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The job engine entry point (see the module docs).
pub struct Engine;

impl Engine {
    /// Runs the engine: recovery scan, worker pool up, `control` on the
    /// calling thread, pool down when `control` returns. Jobs still queued
    /// (or interrupted by [`EngineHandle::shutdown`]) when control returns
    /// stay journaled on disk and are re-enqueued by the next `run` on the
    /// same journal directory.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the journal directory cannot be prepared,
    /// [`EngineError::ControlPanic`] when `control` itself panics.
    pub fn run<T>(
        mut cfg: ServeConfig,
        control: impl FnOnce(&EngineHandle<'_>) -> T,
    ) -> Result<T, EngineError> {
        fs::create_dir_all(&cfg.journal_dir).map_err(|e| EngineError::Io(e.to_string()))?;
        // The pool runs at most MAX_WORKER_THREADS workers; clamp once so
        // every report of the pool size names the pool that runs.
        cfg.workers = puffer_budget::clamp_threads(cfg.workers);
        let workers = cfg.workers;
        let shared = Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            jobs: Mutex::new(BTreeMap::new()),
            terminal_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            live_workers: AtomicUsize::new(0),
            cfg,
        };
        recover_scan(&shared).map_err(|e| EngineError::Io(e.to_string()))?;
        puffer_par::run_pool(
            workers,
            |_idx| worker_loop(&shared),
            || control(&EngineHandle { shared: &shared }),
            || shared.queue.close(),
        )
        .map_err(|p| EngineError::ControlPanic(p.to_string()))
    }
}

/// Scans the journal directory and rebuilds the job table: jobs with a
/// `result.json` come back terminal; jobs with only a `spec.json` were
/// interrupted (queued or mid-run at crash time) and are re-enqueued —
/// their `run.pj` checkpoint journal, if any, makes the re-run resume
/// instead of restart.
fn recover_scan(shared: &Shared) -> std::io::Result<()> {
    let mut max_id = 0u64;
    let mut resumed = 0usize;
    let mut terminal = 0usize;
    let mut requeue: Vec<u64> = Vec::new();
    for entry in fs::read_dir(&shared.cfg.journal_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let dir = entry.path();
        let spec_text = match fs::read_to_string(dir.join("spec.json")) {
            Ok(t) => t,
            Err(_) => continue, // a job dir without a readable spec is inert
        };
        let spec = match JobSpec::parse(spec_text.trim_end()) {
            Ok(s) => s,
            Err(e) => {
                shared
                    .cfg
                    .trace
                    .record("serve.warn")
                    .int("id", id as i64)
                    .str("what", "spec-unreadable")
                    .str("error", &e)
                    .write();
                continue;
            }
        };
        max_id = max_id.max(id);
        let mut job = JobEntry::new(spec);
        match fs::read_to_string(dir.join("result.json")) {
            Ok(text) => {
                let record = text.trim_end().to_string();
                job.state = state_of_record(&record);
                job.terminal_record = Some(record);
                terminal += 1;
            }
            Err(_) => {
                // The interrupted attempt's telemetry may end mid-line (the
                // crash signature). Decode it with the shared torn-tail rule
                // so recovery reports what survived; a torn tail never
                // blocks the re-run, which truncates run.jsonl anyway.
                if let Ok(run) = fsx::read_journal_tail_tolerant(&dir.join("run.jsonl")) {
                    shared
                        .cfg
                        .trace
                        .record("serve.recover-job")
                        .int("id", id as i64)
                        .int("run_records", run.len() as i64)
                        .int("torn_tail", i64::from(run.dropped_torn_tail()))
                        .write();
                }
                requeue.push(id);
                resumed += 1;
            }
        }
        shared.jobs().insert(id, job);
    }
    // Re-admit interrupted jobs in id order, bypassing the admission cap:
    // they were all admitted once already.
    requeue.sort_unstable();
    for id in requeue {
        shared.queue.restore(id);
    }
    shared.next_id.store(max_id + 1, Ordering::Relaxed);
    if resumed + terminal > 0 {
        shared
            .cfg
            .trace
            .record("serve.recovered")
            .int("resumed", resumed as i64)
            .int("terminal", terminal as i64)
            .write();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    loop {
        match shared.queue.pop_timeout(Duration::from_millis(100)) {
            Popped::Closed => break,
            Popped::Empty => {
                if shared.draining.load(Ordering::SeqCst) && shared.queue.is_empty() {
                    break;
                }
            }
            Popped::Item(id) => run_job(shared, id),
        }
    }
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// How one attempt ended.
enum Attempt {
    Place(Box<FlowResult>),
    Eval(Box<RouteReport>),
}

struct ExecError {
    class: &'static str,
    transient: bool,
    message: String,
}

impl ExecError {
    fn spec(message: String) -> Self {
        ExecError {
            class: "spec",
            transient: false,
            message,
        }
    }

    fn io(message: String) -> Self {
        ExecError {
            class: "io",
            transient: true,
            message,
        }
    }
}

fn classify(err: PufferError) -> ExecError {
    let (class, transient) = match &err {
        PufferError::Journal(_) => ("journal", true),
        PufferError::Place(_)
        | PufferError::Congest(_)
        | PufferError::Legalize(_)
        | PufferError::Resume(_)
        | PufferError::Validate(_) => ("flow", false),
    };
    ExecError {
        class,
        transient,
        message: err.to_string(),
    }
}

/// Runs one job to a terminal state — or leaves it resumable when a
/// shutdown interrupts it mid-attempt.
fn run_job(shared: &Shared, id: u64) {
    loop {
        // Snapshot the entry state under the lock, run outside it.
        let (spec, token, attempt) = {
            let mut jobs = shared.jobs();
            let Some(entry) = jobs.get_mut(&id) else { return };
            if entry.state.terminal() {
                return; // cancelled while queued, already finalized
            }
            if entry.client_cancel {
                let record = error_record(id, "cancelled", entry.attempts, "cancelled by client");
                drop(jobs);
                shared.finalize(id, JobState::Cancelled, record);
                return;
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                // Leave the job resumable: spec.json (and any run.pj) stay
                // on disk; the next start re-enqueues it.
                entry.state = JobState::Queued;
                return;
            }
            entry.state = JobState::Running;
            entry.attempts += 1;
            entry.message = format!("attempt {}", entry.attempts);
            (entry.spec.clone(), entry.token.clone(), entry.attempts)
        };

        let outcome = puffer_par::run_isolated(|| execute(shared, id, &spec, &token, attempt))
            .map_err(|p| ExecError {
                class: "panic",
                transient: true,
                message: p.to_string(),
            })
            .and_then(|r| r);

        match outcome {
            Ok(attempt_result) => {
                let (client_cancel, attempts) = {
                    let jobs = shared.jobs();
                    match jobs.get(&id) {
                        Some(e) => (e.client_cancel, e.attempts),
                        None => return,
                    }
                };
                if client_cancel {
                    let record = error_record(id, "cancelled", attempts, "cancelled by client");
                    shared.finalize(id, JobState::Cancelled, record);
                    return;
                }
                if shared.shutdown.load(Ordering::SeqCst) && token.is_cancelled() {
                    // Interrupted mid-run by shutdown: no result.json, so
                    // the checkpoints written this attempt seed the resume
                    // after restart.
                    if let Some(e) = shared.jobs().get_mut(&id) {
                        e.state = JobState::Queued;
                    }
                    return;
                }
                let record = match attempt_result {
                    Attempt::Place(result) => {
                        match write_out(&spec, &result) {
                            Ok(()) => {}
                            Err(e) => {
                                if !retry_or_fail(shared, id, &token, e) {
                                    return;
                                }
                                continue;
                            }
                        }
                        place_record(id, &result, spec.out.as_deref())
                    }
                    Attempt::Eval(report) => eval_record(id, &report),
                };
                shared.finalize(id, JobState::Done, record);
                return;
            }
            Err(e) => {
                shared
                    .cfg
                    .trace
                    .record("serve.retry")
                    .int("id", id as i64)
                    .int("attempt", attempt as i64)
                    .str("class", e.class)
                    .str("error", &e.message)
                    .write();
                if !retry_or_fail(shared, id, &token, e) {
                    return;
                }
            }
        }
    }
}

/// Decides what a failed attempt does next: `true` to retry (after the
/// backoff sleep), `false` when the job was finalized or left resumable.
fn retry_or_fail(shared: &Shared, id: u64, token: &CancelToken, err: ExecError) -> bool {
    let attempts = {
        let mut jobs = shared.jobs();
        match jobs.get_mut(&id) {
            Some(e) => {
                e.message = format!("attempt {} {}: {}", e.attempts, err.class, err.message);
                e.attempts
            }
            None => return false,
        }
    };
    if !err.transient || attempts >= shared.cfg.max_attempts {
        let record = error_record(id, err.class, attempts, &err.message);
        shared.finalize(id, JobState::Failed, record);
        return false;
    }
    // Exponential backoff, interruptible by cancellation and shutdown.
    let delay = shared.cfg.backoff * 2u32.saturating_pow(attempts.saturating_sub(1) as u32);
    let deadline = Deadline::after(delay);
    while !deadline.expired() {
        if token.is_cancelled() || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10).min(deadline.remaining()));
    }
    true // the next loop iteration re-checks cancel/shutdown under the lock
}

/// Loads the design named by a spec (file, inline text, or preset).
fn load_design(spec: &JobSpec) -> Result<Design, ExecError> {
    if let Some(path) = &spec.design {
        let f = fs::File::open(path).map_err(|e| ExecError::io(format!("open {path}: {e}")))?;
        return read_design(std::io::BufReader::new(f))
            .map_err(|e| ExecError::spec(format!("design {path}: {e}")));
    }
    if let Some(text) = &spec.design_text {
        return read_design(text.as_bytes())
            .map_err(|e| ExecError::spec(format!("inline design: {e}")));
    }
    if let Some(name) = &spec.preset {
        let scale = spec.scale.unwrap_or(1.0);
        let cfg = puffer_gen::presets::by_name(name, scale)
            .map_err(|e| ExecError::spec(format!("preset '{name}': {e}")))?
            .ok_or_else(|| ExecError::spec(format!("unknown preset '{name}'")))?;
        return puffer_gen::generate(&cfg)
            .map_err(|e| ExecError::spec(format!("preset '{name}': {e}")));
    }
    Err(ExecError::spec("no design source".into()))
}

/// Chaos hooks: deterministic faults the in-process chaos harness injects
/// through the spec's `chaos` tag (never settable over the wire).
#[expect(
    clippy::panic,
    reason = "the `serve-worker-panic` chaos row needs a real unwind for the pool to isolate"
)]
fn arm_chaos(tag: &str, attempt: usize) -> Result<(), ExecError> {
    match tag {
        // Panic on the first attempt only — retry must succeed.
        "panic-once" if attempt == 1 => {
            std::panic::panic_any("chaos: injected worker panic (once)".to_string())
        }
        "panic-once" => Ok(()),
        // Panic every attempt — the job must fail with a structured error.
        "panic" => std::panic::panic_any("chaos: injected worker panic".to_string()),
        // `<fsx fault class>@N`: the N-th matching guarded operation after
        // this point fails (checkpoint saves and journal records are the
        // guarded writers on this thread's flow). First attempt only: the
        // retry resumes past the fault.
        t => {
            let (class, skip) = t
                .split_once('@')
                .and_then(|(name, skip)| {
                    let class = FaultClass::FS.into_iter().find(|c| c.as_str() == name)?;
                    Some((class, skip.parse::<usize>().ok()?))
                })
                .ok_or_else(|| ExecError::spec(format!("unknown chaos tag '{t}'")))?;
            if attempt == 1 {
                fsx::fault::arm(class, skip);
            }
            Ok(())
        }
    }
}

/// One attempt of one job, on the worker thread (panics are caught by the
/// caller's `run_isolated` wrapper).
fn execute(
    shared: &Shared,
    id: u64,
    spec: &JobSpec,
    token: &CancelToken,
    attempt: usize,
) -> Result<Attempt, ExecError> {
    let dir = shared.job_dir(id);
    let design = load_design(spec)?;
    let budget = match spec.deadline().map_err(ExecError::spec)? {
        Some(limit) => Budget::with_deadline(limit),
        None => Budget::unbounded(),
    }
    .with_token(token.clone());
    let trace = Trace::with_sink(dir.join("run.jsonl"))
        .map_err(|e| ExecError::io(format!("trace sink: {e}")))?;

    match spec.kind {
        JobKind::Place => {
            let mut config = PufferConfig::default();
            if let Some(n) = spec.max_iters {
                config.placer.max_iters = n;
            }
            if let Some(n) = spec.threads {
                config.placer.threads = n;
                config.estimator.threads = n;
            }
            let job = Job::new(config)
                .with_budget(budget)
                .with_trace(trace.clone())
                .with_checkpoints(CheckpointPolicy {
                    path: dir.join("run.pj"),
                    every: shared.cfg.checkpoint_every,
                    keep_history: false,
                });
            if let Some(tag) = &spec.chaos {
                arm_chaos(tag, attempt)?;
            }
            let result = job.run_or_resume(&design).map_err(classify)?;
            surface_flush(shared, id, &trace);
            Ok(Attempt::Place(Box::new(result)))
        }
        JobKind::Eval => {
            let placement_path = spec.placement.as_deref().unwrap_or_default();
            let f = fs::File::open(placement_path)
                .map_err(|e| ExecError::io(format!("open {placement_path}: {e}")))?;
            let placement =
                read_placement(std::io::BufReader::new(f), design.netlist().num_cells())
                    .map_err(|e| ExecError::spec(format!("placement {placement_path}: {e}")))?;
            let mut router = RouterConfig::default();
            if let Some(n) = spec.threads {
                router.threads = n;
            }
            let report = evaluate_bounded(&design, &placement, &router, &budget, &trace)
                .map_err(|e| match e {
                    // A contained router-worker panic keeps the class (and
                    // retry) `run_isolated` gives an uncontained one.
                    RouteError::WorkerPanic(_) => ExecError {
                        class: "panic",
                        transient: true,
                        message: e.to_string(),
                    },
                    _ => ExecError::spec(format!("placement {placement_path}: {e}")),
                })?;
            surface_flush(shared, id, &trace);
            Ok(Attempt::Eval(Box::new(report)))
        }
    }
}

/// Settles a job's `run.jsonl` sink: a flush (fsync) failure is surfaced as
/// a structured `serve.warn` record on the server trace rather than being
/// silently discarded — the job result itself is already safe.
fn surface_flush(shared: &Shared, id: u64, trace: &Trace) {
    if let Err(e) = trace.flush() {
        shared
            .cfg
            .trace
            .record("serve.warn")
            .int("id", id as i64)
            .str("what", "run-jsonl-flush-failed")
            .str("error", &e.to_string())
            .write();
    }
}

/// Writes the final placement where the spec asked for it.
fn write_out(spec: &JobSpec, result: &FlowResult) -> Result<(), ExecError> {
    let Some(path) = &spec.out else { return Ok(()) };
    let mut buf = Vec::new();
    write_placement(&result.placement, &mut buf)
        .map_err(|e| ExecError::io(format!("render placement: {e}")))?;
    let text = String::from_utf8_lossy(&buf).into_owned();
    write_atomic(Path::new(path), &text).map_err(|e| ExecError::io(format!("write {path}: {e}")))
}

// ---------------------------------------------------------------------------
// Control side
// ---------------------------------------------------------------------------

/// The control closure's handle on the running engine.
pub struct EngineHandle<'a> {
    shared: &'a Shared,
}

impl EngineHandle<'_> {
    /// Submits a job: validates the spec, journals it as
    /// `job-<id>/spec.json`, and admits it to the queue. Returns the job
    /// id and the queue length after admission.
    ///
    /// # Errors
    ///
    /// A [`Reject`] naming why: `bad-spec`, `draining`, `queue-full`
    /// (the explicit-backpressure path), or `io`.
    pub fn submit(&self, spec: JobSpec) -> Result<(u64, usize), Reject> {
        let reject = |reason: &'static str, detail: String| Reject {
            reason,
            detail,
            queued: self.shared.queue.len(),
            capacity: self.shared.queue.capacity(),
        };
        if let Err(e) = spec.validate() {
            return Err(reject("bad-spec", e));
        }
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(reject("draining", "daemon is draining; not admitting jobs".into()));
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let dir = self.shared.job_dir(id);
        let journal = fs::create_dir_all(&dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                write_atomic(&dir.join("spec.json"), &(spec.render() + "\n"))
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = journal {
            let _ = fs::remove_dir_all(&dir);
            return Err(reject("io", format!("journal job {id}: {e}")));
        }
        self.shared.jobs().insert(id, JobEntry::new(spec));
        match self.shared.queue.try_push(id) {
            Ok(len) => Ok((id, len)),
            Err(push) => {
                // Roll the admission back completely so a rejected job
                // leaves no trace in memory or on disk.
                self.shared.jobs().remove(&id);
                let _ = fs::remove_dir_all(&dir);
                Err(match push {
                    PushError::Full { capacity } => Reject {
                        reason: "queue-full",
                        detail: format!("admission queue at capacity {capacity}"),
                        queued: capacity,
                        capacity,
                    },
                    PushError::Closed => {
                        reject("draining", "daemon is shutting down".into())
                    }
                })
            }
        }
    }

    /// Cancels a job: a queued job is finalized as cancelled immediately
    /// (and the cancellation persists across restarts via its
    /// `result.json`); a running job gets its cancel token tripped and
    /// finalizes as cancelled at the next cooperative cancellation point.
    /// Terminal jobs are left as-is. Returns the state after the call.
    ///
    /// # Errors
    ///
    /// When no job has that id.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let action = {
            let mut jobs = self.shared.jobs();
            let Some(entry) = jobs.get_mut(&id) else {
                return Err(format!("no job {id}"));
            };
            if entry.state.terminal() {
                return Ok(entry.state);
            }
            entry.client_cancel = true;
            entry.token.cancel();
            let attempts = entry.attempts;
            (entry.state, attempts)
        };
        match action {
            (JobState::Queued, attempts) => {
                self.shared.queue.remove_where(|queued| *queued == id);
                let record = error_record(id, "cancelled", attempts, "cancelled by client");
                self.shared.finalize(id, JobState::Cancelled, record);
                Ok(JobState::Cancelled)
            }
            (state, _) => Ok(state), // a worker will observe the token/flag
        }
    }

    /// A snapshot of one job.
    pub fn status(&self, id: u64) -> Option<StatusView> {
        self.shared.jobs().get(&id).map(|e| StatusView {
            id,
            state: e.state,
            attempts: e.attempts,
            terminal_record: e.terminal_record.clone(),
            message: e.message.clone(),
        })
    }

    /// Snapshots of every known job, in id order.
    pub fn statuses(&self) -> Vec<StatusView> {
        self.shared
            .jobs()
            .iter()
            .map(|(id, e)| StatusView {
                id: *id,
                state: e.state,
                attempts: e.attempts,
                terminal_record: e.terminal_record.clone(),
                message: e.message.clone(),
            })
            .collect()
    }

    /// Blocks until a job reaches a terminal state, returning its terminal
    /// record line.
    ///
    /// # Errors
    ///
    /// [`WaitError::UnknownJob`] or [`WaitError::Timeout`].
    pub fn wait(&self, id: u64, timeout: Option<Duration>) -> Result<String, WaitError> {
        let deadline = timeout.map(Deadline::after);
        let mut jobs = self.shared.jobs();
        loop {
            match jobs.get(&id) {
                None => return Err(WaitError::UnknownJob),
                Some(e) if e.state.terminal() => {
                    return Ok(e
                        .terminal_record
                        .clone()
                        .unwrap_or_else(|| error_record(id, "internal", e.attempts, "no record")));
                }
                Some(_) => {}
            }
            let step = match deadline {
                Some(d) => {
                    if d.expired() {
                        return Err(WaitError::Timeout);
                    }
                    d.remaining().min(Duration::from_millis(200))
                }
                None => Duration::from_millis(200),
            };
            // The condvar wait releases the mutex, so the held record is
            // split off for the wait and re-attached on wake-up.
            let (guard, _) = self
                .shared
                .terminal_cv
                .wait_timeout(jobs.into_guard(), step)
                .unwrap_or_else(PoisonError::into_inner);
            jobs = Locked::from_guard(guard);
        }
    }

    /// Graceful drain: stops admitting, then blocks until every known job
    /// is terminal (queued jobs still run to completion).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let mut jobs = self.shared.jobs();
        while !jobs.values().all(|e| e.state.terminal()) {
            let (guard, _) = self
                .shared
                .terminal_cv
                .wait_timeout(jobs.into_guard(), Duration::from_millis(200))
                .unwrap_or_else(PoisonError::into_inner);
            jobs = Locked::from_guard(guard);
        }
    }

    /// Fast shutdown: stops admitting, trips every non-terminal job's
    /// cancel token, and returns. Running jobs checkpoint and stop at
    /// their next cancellation point *without* writing a result, so they
    /// (and everything still queued) re-enqueue and resume on the next
    /// [`Engine::run`] over the same journal directory.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let jobs = self.shared.jobs();
        for entry in jobs.values() {
            if !entry.state.terminal() {
                entry.token.cancel();
            }
        }
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Admission-queue capacity.
    pub fn capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Worker threads currently alive in the pool (the chaos harness
    /// asserts this equals the configured pool size: panics must be
    /// isolated per job, never cost a worker).
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }

    /// Pool size: the configured worker count clamped into
    /// `1..=`[`puffer_budget::MAX_WORKER_THREADS`].
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// The journal directory this engine persists jobs under.
    pub fn journal_dir(&self) -> &Path {
        &self.shared.cfg.journal_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::io::write_design;
    use puffer_gen::{generate, GeneratorConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("puffer-serve-engine").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_design_file(dir: &Path) -> (PathBuf, Design) {
        let design = generate(&GeneratorConfig {
            num_cells: 220,
            num_nets: 240,
            num_macros: 1,
            utilization: 0.6,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let path = dir.join("design.pd");
        let mut buf = Vec::new();
        write_design(&design, &mut buf).unwrap();
        fs::write(&path, &buf).unwrap();
        (path, design)
    }

    fn quick_spec(design: &Path, out: Option<PathBuf>) -> JobSpec {
        JobSpec {
            design: Some(design.to_string_lossy().into_owned()),
            max_iters: Some(60),
            threads: Some(1),
            out: out.map(|p| p.to_string_lossy().into_owned()),
            ..JobSpec::default()
        }
    }

    fn cfg(dir: &Path) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            journal_dir: dir.join("journal"),
            checkpoint_every: 10,
            max_attempts: 3,
            backoff: Duration::from_millis(5),
            trace: Trace::disabled(),
        }
    }

    #[test]
    fn submit_run_wait_roundtrip_and_result_persists() {
        let dir = tmp_dir("roundtrip");
        let (design, _) = small_design_file(&dir);
        let out = dir.join("out.pl");
        let record = Engine::run(cfg(&dir), |h| {
            let (id, queued) = h.submit(quick_spec(&design, Some(out.clone()))).unwrap();
            assert_eq!((id, queued), (1, 1));
            let record = h.wait(id, Some(Duration::from_secs(60))).unwrap();
            assert_eq!(h.status(id).unwrap().state, JobState::Done);
            h.drain();
            record
        })
        .unwrap();
        let rec = parse_record(&record).unwrap();
        assert_eq!(rec.kind(), Some("serve.result"));
        assert_eq!(rec.num("v"), Some(2.0));
        assert!(rec.num("hpwl").unwrap() > 0.0);
        assert!(out.exists(), "out placement written");
        // The same record was journaled as result.json.
        let on_disk = fs::read_to_string(dir.join("journal/job-1/result.json")).unwrap();
        assert_eq!(on_disk.trim_end(), record);
    }

    #[test]
    fn bad_specs_and_full_queues_reject_with_reasons() {
        let dir = tmp_dir("reject");
        Engine::run(cfg(&dir), |h| {
            let r = h.submit(JobSpec::default()).unwrap_err();
            assert_eq!(r.reason, "bad-spec");
            // Fill the queue with specs that point at a non-existent file;
            // they will churn through retries slowly enough to observe the
            // backpressure path with a tiny queue.
            let ghost = JobSpec {
                design: Some(dir.join("ghost.pd").to_string_lossy().into_owned()),
                ..JobSpec::default()
            };
            let mut saw_full = false;
            for _ in 0..64 {
                if let Err(r) = h.submit(ghost.clone()) {
                    assert_eq!(r.reason, "queue-full");
                    assert_eq!(r.capacity, 4);
                    saw_full = true;
                    break;
                }
            }
            assert!(saw_full, "queue never reported Full");
            h.drain();
        })
        .unwrap();
    }

    #[test]
    fn missing_design_fails_structured_after_retries() {
        let dir = tmp_dir("retries");
        Engine::run(cfg(&dir), |h| {
            let spec = JobSpec {
                design: Some(dir.join("nope.pd").to_string_lossy().into_owned()),
                ..JobSpec::default()
            };
            let (id, _) = h.submit(spec).unwrap();
            let record = h.wait(id, Some(Duration::from_secs(30))).unwrap();
            let rec = parse_record(&record).unwrap();
            assert_eq!(rec.kind(), Some("serve.error"));
            assert_eq!(rec.str_field("class"), Some("io"));
            assert_eq!(rec.num("attempts"), Some(3.0));
            assert_eq!(h.status(id).unwrap().state, JobState::Failed);
            h.drain();
        })
        .unwrap();
    }

    #[test]
    fn worker_panic_is_isolated_and_retry_succeeds() {
        let dir = tmp_dir("panic");
        let (design, _) = small_design_file(&dir);
        Engine::run(cfg(&dir), |h| {
            let mut spec = quick_spec(&design, None);
            spec.chaos = Some("panic-once".into());
            let (id, _) = h.submit(spec).unwrap();
            let record = h.wait(id, Some(Duration::from_secs(60))).unwrap();
            let rec = parse_record(&record).unwrap();
            assert_eq!(rec.kind(), Some("serve.result"), "retry after panic: {record}");
            assert_eq!(h.live_workers(), h.workers(), "panic cost a worker");

            let mut spec = quick_spec(&design, None);
            spec.chaos = Some("panic".into());
            let (id, _) = h.submit(spec).unwrap();
            let record = h.wait(id, Some(Duration::from_secs(60))).unwrap();
            let rec = parse_record(&record).unwrap();
            assert_eq!(rec.kind(), Some("serve.error"));
            assert_eq!(rec.str_field("class"), Some("panic"));
            assert_eq!(rec.num("attempts"), Some(3.0));
            assert_eq!(h.live_workers(), h.workers());
            h.drain();
        })
        .unwrap();
    }

    #[test]
    fn cancel_queued_job_persists_across_restart() {
        let dir = tmp_dir("cancel");
        let (design, _) = small_design_file(&dir);
        let mut one_worker = cfg(&dir);
        one_worker.workers = 1;
        Engine::run(one_worker.clone(), |h| {
            // Occupy the lone worker, then cancel a queued job behind it.
            let (running, _) = h.submit(quick_spec(&design, None)).unwrap();
            let (queued, _) = h.submit(quick_spec(&design, None)).unwrap();
            assert_eq!(h.cancel(queued), Ok(JobState::Cancelled));
            let record = h.wait(queued, Some(Duration::from_secs(10))).unwrap();
            assert_eq!(state_of_record(&record), JobState::Cancelled);
            let _ = h.wait(running, Some(Duration::from_secs(60))).unwrap();
            h.drain();
        })
        .unwrap();
        // Restart over the same journal: the cancelled job stays cancelled.
        Engine::run(one_worker, |h| {
            assert_eq!(h.status(2).unwrap().state, JobState::Cancelled);
            assert_eq!(h.status(1).unwrap().state, JobState::Done);
            h.drain();
        })
        .unwrap();
    }

    #[test]
    fn shutdown_leaves_jobs_resumable_and_restart_finishes_them() {
        let dir = tmp_dir("resume");
        let (design, design_val) = small_design_file(&dir);
        // Reference: the same flow uninterrupted.
        let mut config = PufferConfig::default();
        config.placer.max_iters = 60;
        config.placer.threads = 1;
        config.estimator.threads = 1;
        let reference = Job::new(config).run(&design_val).unwrap();

        let out = dir.join("resumed.pl");
        let mut one_worker = cfg(&dir);
        one_worker.workers = 1;
        one_worker.checkpoint_every = 5;
        Engine::run(one_worker.clone(), |h| {
            let (id, _) = h.submit(quick_spec(&design, Some(out.clone()))).unwrap();
            // Let the job get past at least one checkpoint, then shut down.
            let journal = h.journal_dir().join(format!("job-{id}")).join("run.pj");
            let deadline = Deadline::after(Duration::from_secs(60));
            while !journal.exists() && !deadline.expired() {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(journal.exists(), "job never checkpointed");
            h.shutdown();
        })
        .unwrap();
        assert!(!out.exists(), "interrupted job must not publish a result");

        Engine::run(one_worker, |h| {
            let record = h.wait(1, Some(Duration::from_secs(60))).unwrap();
            assert_eq!(state_of_record(&record), JobState::Done);
            h.drain();
        })
        .unwrap();
        let resumed = fs::read(&out).unwrap();
        let mut want = Vec::new();
        write_placement(&reference.placement, &mut want).unwrap();
        assert_eq!(resumed, want, "resumed placement must be bit-identical");
    }

    #[test]
    fn a_scribbled_run_journal_fails_the_recovered_job_once_without_a_panic() {
        let dir = tmp_dir("scribbled");
        let (design, _) = small_design_file(&dir);
        let mut one_worker = cfg(&dir);
        one_worker.workers = 1;
        one_worker.checkpoint_every = 5;
        let mut journal = PathBuf::new();
        Engine::run(one_worker.clone(), |h| {
            let (id, _) = h.submit(quick_spec(&design, None)).unwrap();
            journal = h.journal_dir().join(format!("job-{id}")).join("run.pj");
            let deadline = Deadline::after(Duration::from_secs(60));
            while !journal.exists() && !deadline.expired() {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(journal.exists(), "job never checkpointed");
            h.shutdown();
        })
        .unwrap();

        // Still a well-formed journal, but the optimizer's utilization is NaN.
        let text = fs::read_to_string(&journal).unwrap();
        let scribbled: Vec<&str> = text
            .lines()
            .map(|l| if l.starts_with("pad_util ") { "pad_util NaN" } else { l })
            .collect();
        fs::write(&journal, scribbled.join("\n") + "\n").unwrap();

        Engine::run(one_worker, |h| {
            let record = h.wait(1, Some(Duration::from_secs(60))).unwrap();
            let rec = parse_record(&record).unwrap();
            assert_eq!(rec.kind(), Some("serve.error"), "{record}");
            assert_eq!(rec.str_field("class"), Some("flow"), "{record}");
            assert_eq!(rec.num("attempts"), Some(1.0), "{record}");
            assert!(record.contains("pad_util must not be NaN"), "{record}");
            assert_eq!(h.live_workers(), h.workers());
            h.drain();
        })
        .unwrap();
    }

    #[test]
    fn eval_jobs_report_routing_metrics() {
        let dir = tmp_dir("eval");
        let (design, _) = small_design_file(&dir);
        let out = dir.join("placed.pl");
        Engine::run(cfg(&dir), |h| {
            let (place, _) = h.submit(quick_spec(&design, Some(out.clone()))).unwrap();
            let _ = h.wait(place, Some(Duration::from_secs(60))).unwrap();
            let spec = JobSpec {
                kind: JobKind::Eval,
                design: Some(design.to_string_lossy().into_owned()),
                placement: Some(out.to_string_lossy().into_owned()),
                threads: Some(1),
                ..JobSpec::default()
            };
            let (id, _) = h.submit(spec).unwrap();
            let record = h.wait(id, Some(Duration::from_secs(60))).unwrap();
            let rec = parse_record(&record).unwrap();
            assert_eq!(rec.kind(), Some("serve.result"));
            assert_eq!(rec.str_field("kind"), Some("eval"));
            assert!(rec.num("wirelength").unwrap() > 0.0);

            // A non-finite coordinate is the router's structured refusal —
            // a spec error on the first attempt, not a caught worker panic.
            let placed = fs::read_to_string(&out).unwrap();
            let bad = dir.join("nan.pl");
            fs::write(&bad, placed.replacen("place 0 ", "place 0 nan ", 1)).unwrap();
            let spec = JobSpec {
                kind: JobKind::Eval,
                design: Some(design.to_string_lossy().into_owned()),
                placement: Some(bad.to_string_lossy().into_owned()),
                threads: Some(1),
                ..JobSpec::default()
            };
            let (id, _) = h.submit(spec).unwrap();
            let record = h.wait(id, Some(Duration::from_secs(60))).unwrap();
            let rec = parse_record(&record).unwrap();
            assert_eq!(rec.kind(), Some("serve.error"), "{record}");
            assert_eq!(rec.str_field("class"), Some("spec"), "{record}");
            assert_eq!(rec.num("attempts"), Some(1.0), "{record}");
            assert!(
                rec.str_field("message").unwrap().contains("non-finite"),
                "{record}"
            );
            h.drain();
        })
        .unwrap();
    }
}
