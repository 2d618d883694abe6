//! The one deterministic fault-injection harness: its scenario table and
//! the row runners.
//!
//! One scenario table of `(name, runner)` rows in three groups: the `flow`
//! rows attack the placement flow, the `fs` rows drive the `fsx`
//! filesystem fault hook (the only I/O-fault seam), and the `serve` rows
//! attack a live job engine. Within a group, seed `s` runs row `s % n`
//! with an injection point and a magnitude drawn from
//! `StdRng::seed_from_u64(0xC4A05 ^ s)`, so every failure reproduces
//! bit-for-bit. Each row asserts the bounded-execution contract: a valid
//! degraded result, a resumable checkpoint that replays bit-identically,
//! or a structured error — never a hang or a corrupt artifact.
//!
//! Two test binaries include this file. The `chaos` test target
//! (`tests/chaos.rs`) checks the table, runs each `flow` and `fs` row once,
//! and holds the ignored seeded sweep of every group. The umbrella
//! library's unit tests (`src/lib.rs`) run each `serve` row once.
//!
//! The `fsx` fault hook is process-global, so every test that runs a row
//! first takes [`gate`]: an armed fault can only hit the row that armed it.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use puffer::{CheckpointPolicy, Flow, FlowCheckpoint, FlowResult, PufferError};
use puffer_audit::{audit_run, Validate};
use puffer_budget::clock::Deadline;
use puffer_budget::{fsx, Budget, CancelToken, ChaosPlan, FaultClass};
use puffer_db::design::Design;
use puffer_db::io::{write_design, write_placement};
use puffer_explore::{explore_params_bounded, ExplorationConfig};
use puffer_gen::{generate, GeneratorConfig};
use puffer_legal::check_legal;
use puffer_rng::StdRng;
use puffer_serve::{serve_listener, Engine, EngineHandle, JobSpec, JobState, ServeConfig};
use puffer_trace::{parse_record, read_jsonl, Trace, TraceError};

/// One seeded chaos case, as the dispatcher hands it to the row it picked.
pub(crate) struct Case {
    /// The seed that picked this row.
    seed: u64,
    /// Seeded injection point (iteration, trial, or guarded-operation skip).
    at: usize,
    /// Seeded class-specific intensity.
    magnitude: usize,
    /// Cells in the generated chaos design.
    cells: usize,
    /// GP iteration cap for chaos flows.
    max_iters: usize,
    /// Scratch directory, empty on entry.
    dir: PathBuf,
}

/// A row's runner: `Ok` describes what was verified, `Err` is the violated
/// invariant.
pub(crate) type Runner = fn(&Case) -> Result<String, String>;

/// One scenario: its name and its runner.
pub(crate) type Row = (&'static str, Runner);

/// One group of rows, and how its sweep runs them.
pub(crate) struct Group {
    pub(crate) name: &'static str,
    pub(crate) rows: &'static [Row],
    /// Seeds of the sweep, each one row.
    pub(crate) seeds: u64,
    /// Cells of each generated design.
    cells: usize,
}

/// The scenario table, in dispatch order.
pub(crate) const GROUPS: [Group; 3] = [
    Group {
        name: "flow",
        rows: &[("worker-panic", worker_panic), ("nan-burst", nan_burst)],
        seeds: 4,
        cells: 250,
    },
    Group {
        name: "fs",
        rows: &[
            ("disk-full", |c| failed_save(c, FaultClass::DiskFull)),
            ("torn-write", |c| failed_save(c, FaultClass::TornWrite)),
            ("fsync-fail", fsync_fail),
            ("rename-fail", |c| failed_save(c, FaultClass::RenameFail)),
            ("short-read", short_read),
        ],
        seeds: 24,
        cells: 250,
    },
    Group {
        name: "serve",
        rows: &[
            ("serve-worker-panic", serve_worker_panic),
            ("serve-torn-write", |c| fs_fault(c, FaultClass::TornWrite)),
            ("serve-client-disconnect", client_disconnect),
            ("serve-kill-restart", kill_restart),
            ("serve-disk-full", |c| fs_fault(c, FaultClass::DiskFull)),
            ("serve-rename-restart", rename_restart),
        ],
        seeds: 24,
        cells: 160,
    },
];

/// GP iteration cap of every chaos flow; injection points are drawn from
/// `2..10`.
const MAX_ITERS: usize = 60;

/// Generous bound for any single wait; hitting it means a job got stuck,
/// which the harness reports as a deadlock.
const WAIT: Duration = Duration::from_secs(180);

/// One armed fault at a time: the `fsx` hook is process-global state.
pub(crate) fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The seed → scenario dispatch: `n` consecutive seeds visit each of a
/// group's `n` rows once.
pub(crate) fn pick(rows: &[Row], seed: u64) -> Row {
    rows[(seed % rows.len() as u64) as usize]
}

/// Runs seeds `0..seeds` of `group`, one row each, and prints one line per
/// seed.
pub(crate) fn run_group(group: &Group, seeds: u64) {
    let base = std::env::temp_dir().join("puffer-chaos").join(group.name);
    for seed in 0..seeds {
        let (name, run) = pick(group.rows, seed);
        let mut rng = StdRng::seed_from_u64(0xC4A05 ^ seed);
        let case = Case {
            seed,
            at: rng.gen_range(2..10),
            magnitude: rng.gen_range(5..30),
            cells: group.cells,
            max_iters: MAX_ITERS,
            dir: base.join(format!("seed{seed}")),
        };
        let _ = fs::remove_dir_all(&case.dir);
        fs::create_dir_all(&case.dir).unwrap();
        let verdict = run(&case).unwrap_or_else(|m| panic!("chaos seed {seed} ({name}): {m}"));
        println!("seed {seed:>2} {name:<23} {verdict}");
    }
}

// ---------------------------------------------------------------------------
// flow and fs rows
// ---------------------------------------------------------------------------

fn chaos_design(case: &Case) -> Result<Design, String> {
    generate(&GeneratorConfig {
        name: format!("chaos{}", case.seed),
        num_cells: case.cells,
        num_nets: case.cells + case.cells / 10,
        utilization: 0.6,
        hotspot: 0.5,
        seed: 9000 + case.seed,
        ..GeneratorConfig::default()
    })
    .map_err(|e| format!("generation failed: {e}"))
}

/// Disarms the `fsx` hook, reporting whether the armed fault had fired.
fn disarm_fired() -> bool {
    let fired = !fsx::fault::armed();
    fsx::fault::disarm();
    fired
}

fn check_placement(design: &Design, result: &FlowResult) -> Result<(), String> {
    let zeros = vec![0u32; design.netlist().num_cells()];
    check_legal(design, &result.placement, &zeros)
        .map_err(|e| format!("placement is not legal: {e}"))
}

fn placement_bytes(result: &FlowResult) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    write_placement(&result.placement, &mut buf).map_err(|e| format!("render placement: {e}"))?;
    Ok(buf)
}

/// One SMBO objective call panics; the run must isolate it as a failed
/// trial and still return an outcome.
fn worker_panic(case: &Case) -> Result<String, String> {
    let space = puffer::strategy_space();
    let config = ExplorationConfig {
        max_evals: 6,
        ..ExplorationConfig::default()
    };
    let panic_at = case.at % 5;
    let mut trial = 0usize;
    let outcome = explore_params_bounded(
        &space,
        |values| {
            let i = trial;
            trial += 1;
            assert!(i != panic_at, "chaos: injected worker panic");
            values.iter().map(|v| (v - 1.0) * (v - 1.0)).sum::<f64>()
        },
        &config,
        &Trace::disabled(),
        &Budget::unbounded(),
    )
    .map_err(|e| format!("exploration died instead of isolating the panic: {e}"))?;
    if outcome.failed_trials == 0 {
        return Err("panic was not recorded as a failed trial".into());
    }
    Ok(format!(
        "OK: panic isolated ({} trials, {} failed)",
        outcome.evals, outcome.failed_trials
    ))
}

/// A burst of NaN coordinates poisons the placer mid-run; the divergence
/// sentinel must recover it and the artifacts must audit clean.
fn nan_burst(case: &Case) -> Result<String, String> {
    let design = chaos_design(case)?;
    let journal = case.dir.join("run.pj");
    let metrics = case.dir.join("run.jsonl");
    let trace =
        Trace::with_sink(&metrics).map_err(|e| format!("cannot create metrics sink: {e}"))?;
    let policy = CheckpointPolicy {
        path: journal.clone(),
        every: 10,
        keep_history: false,
    };
    let result = Flow::Puffer
        .job(Some(case.max_iters), None)
        .with_trace(trace.clone())
        .with_checkpoints(policy)
        .with_chaos(ChaosPlan {
            class: FaultClass::NanBurst,
            at: case.at,
            magnitude: case.magnitude,
        })
        .run(&design)
        .map_err(|e| format!("flow must recover, not fail: {e}"))?;
    trace.write_summary();
    trace
        .flush()
        .map_err(|e| format!("metrics write failed: {e}"))?;
    // The burst lands right before the step to iteration `at + 1`.
    let records = read_jsonl(&metrics).map_err(|e| format!("metrics unreadable: {e}"))?;
    let burst = (case.at + 1) as f64;
    let reason = records
        .iter()
        .filter(|r| r.kind() == Some("place.recover") && r.num("iter") == Some(burst))
        .find_map(|r| r.str_field("reason"))
        .ok_or("the sentinel never recovered the injected burst")?;
    if reason != "non-finite objective" {
        return Err(format!(
            "the burst was recovered as '{reason}', not as non-finite"
        ));
    }
    if !result.hpwl.is_finite() {
        return Err(format!("recovered flow reports HPWL {}", result.hpwl));
    }
    check_placement(&design, &result)?;
    audit_run(&journal, &metrics).map_err(|r| format!("journal/metrics inconsistent: {r}"))?;
    Ok(format!(
        "OK: sentinel recovered the burst ({reason}), artifacts audit clean"
    ))
}

/// A filesystem fault strikes a checkpoint save mid-run. The `fsx` hook
/// fires once at a seeded guarded operation; the save must surface a
/// structured Journal error naming the fault, while the previously
/// committed journal stays byte-for-byte a clean save and resumes to the
/// placement an uninterrupted run produces.
fn failed_save(case: &Case, class: FaultClass) -> Result<String, String> {
    let design = chaos_design(case)?;
    let journal = case.dir.join("run.pj");
    let policy = CheckpointPolicy {
        path: journal.clone(),
        every: 2,
        keep_history: false,
    };
    let reference = Flow::Puffer
        .job(Some(case.max_iters), None)
        .run(&design)
        .map_err(|e| format!("reference run: {e}"))?;
    // Each save is exactly one atomic_write: 1 data write, 2 fsyncs (file +
    // parent dir), 1 rename. Skip past the first committed save so there is
    // a prior journal to fall back to.
    let (per_save, named) = match class {
        FaultClass::DiskFull => (2, "disk full"), // matches writes AND renames
        FaultClass::TornWrite => (1, "torn write"),
        _ => (1, "rename failed"),
    };
    let skip = per_save + (case.at % 3) * per_save;
    fsx::fault::arm(class, skip);
    let job = Flow::Puffer
        .job(Some(case.max_iters), None)
        .with_checkpoints(policy);
    let outcome = job.run(&design);
    if !disarm_fired() {
        return Err("armed filesystem fault never fired".into());
    }
    let Err(e) = outcome else {
        return Err("injected filesystem failure did not surface".into());
    };
    if !matches!(e, PufferError::Journal(_)) || !e.to_string().contains(named) {
        return Err(format!("not a Journal error naming '{named}': {e}"));
    }
    let on_disk = fs::read_to_string(&journal).map_err(|e| format!("prior journal gone: {e}"))?;
    if class == FaultClass::TornWrite {
        // The torn half-record sits under the temp name.
        let torn = fs::read(fsx::tmp_sibling(&journal))
            .map_err(|e| format!("torn record missing: {e}"))?;
        if torn.is_empty() || torn.len() >= on_disk.len() {
            return Err(format!(
                "tmp sibling holds {} bytes, not a prefix of a {}-byte record",
                torn.len(),
                on_disk.len()
            ));
        }
    }
    let checkpoint = FlowCheckpoint::load(&journal)
        .map_err(|e| format!("prior journal corrupted by failed save: {e}"))?;
    checkpoint
        .validate()
        .map_err(|r| format!("prior journal invalid: {r}"))?;
    if on_disk != checkpoint.render() {
        return Err("failed save changed the committed journal bytes".into());
    }
    let resumed = job
        .run_or_resume(&design)
        .map_err(|e| format!("resume from prior journal failed: {e}"))?;
    check_placement(&design, &resumed)?;
    if placement_bytes(&resumed)? != placement_bytes(&reference)? {
        return Err("resumed placement differs from the uninterrupted run".into());
    }
    Ok(format!(
        "OK: failed save left prior journal valid, resume completed ({} iterations)",
        resumed.gp_iterations
    ))
}

/// The metrics sink's final fsync fails. The flow result stands, and the
/// failure must surface as a structured TraceError naming the sink from
/// flush — never a silently dropped record.
fn fsync_fail(case: &Case) -> Result<String, String> {
    let design = chaos_design(case)?;
    let metrics = case.dir.join("metrics.jsonl");
    let trace =
        Trace::with_sink(&metrics).map_err(|e| format!("cannot create metrics sink: {e}"))?;
    // Guarded fsyncs in this run: the sink directory fsync already happened
    // at creation; the next one is the flush itself.
    fsx::fault::arm(FaultClass::FsyncFail, 0);
    let result = Flow::Puffer
        .job(Some(case.max_iters), None)
        .with_trace(trace.clone())
        .run(&design);
    let flushed = trace.flush();
    if !disarm_fired() {
        return Err("armed fsync fault never fired".into());
    }
    let result = result.map_err(|e| format!("flow failed under fsync fault: {e}"))?;
    check_placement(&design, &result)?;
    match flushed {
        Err(TraceError::Io { path, source })
            if path == metrics && source.to_string().contains("fsync failed") => {}
        Err(te) => return Err(format!("not an fsync TraceError naming the sink: {te}")),
        Ok(()) => return Err("fsync failure did not surface from flush".into()),
    }
    // The records themselves are intact: the sink wrote each line before
    // the failed durability barrier.
    let records =
        read_jsonl(&metrics).map_err(|e| format!("metrics unreadable after fsync fault: {e}"))?;
    if records.is_empty() {
        return Err("metrics lost despite per-record writes".into());
    }
    Ok(format!(
        "OK: fsync failure surfaced as structured TraceError, {} records intact",
        records.len()
    ))
}

/// A guarded read dies while the streaming Bookshelf parser is mid-way
/// through the .nets file. The parser must surface a structured DbError
/// carrying the file and line — never hand back a partial netlist.
fn short_read(case: &Case) -> Result<String, String> {
    let design = chaos_design(case)?;
    let nl = design.netlist();
    let mut nodes = String::from("UCLA nodes 1.0\n");
    for (_, c) in nl.iter_cells() {
        let tag = if c.is_movable() { "" } else { " terminal" };
        let _ = writeln!(nodes, "{} {} {}{tag}", c.name, c.width, c.height);
    }
    let mut nets = String::from("UCLA nets 1.0\n");
    for (id, net) in nl.iter_nets() {
        let _ = writeln!(nets, "NetDegree : {} {}", nl.net_degree(id), net.name);
        for &pid in nl.net_pins(id) {
            let pin = nl.pin(pid);
            let _ = writeln!(
                nets,
                " {} B : {} {}",
                nl.cell(pin.cell).name,
                pin.offset.x,
                pin.offset.y
            );
        }
    }
    let nodes_path = case.dir.join("chaos.nodes");
    let nets_path = case.dir.join("chaos.nets");
    fsx::atomic_write(&nodes_path, nodes.as_bytes())
        .map_err(|e| format!("cannot write fixture: {e}"))?;
    fsx::atomic_write(&nets_path, nets.as_bytes())
        .map_err(|e| format!("cannot write fixture: {e}"))?;
    let parse = |guard_nets: bool| -> Result<_, puffer_db::DbError> {
        use std::io::BufRead;
        let nodes = std::io::BufReader::new(fs::File::open(&nodes_path)?);
        let nets: Box<dyn BufRead> = if guard_nets {
            Box::new(fsx::open_read(&nets_path)?)
        } else {
            Box::new(std::io::BufReader::new(fs::File::open(&nets_path)?))
        };
        puffer_db::bookshelf::parse_bookshelf_streaming("chaos", nodes, nets, &b""[..], &b""[..])
    };
    // Control: the unfaulted streaming parse reproduces the design.
    let control = parse(false).map_err(|e| format!("control parse must succeed: {e}"))?;
    if control.stats().nets != design.stats().nets {
        return Err("control parse lost nets".into());
    }
    // The guarded .nets reader sees at least two read calls (data + EOF
    // probe), so a skip of 0 or 1 always fires mid-parse.
    fsx::fault::arm(FaultClass::ShortRead, case.at % 2);
    let outcome = parse(true);
    if !disarm_fired() {
        return Err("armed short-read fault never fired".into());
    }
    let Err(e) = outcome else {
        return Err("truncated read produced a design instead of an error".into());
    };
    match e {
        puffer_db::DbError::Read { ref file, line, .. } => Ok(format!(
            "OK: short read surfaced as structured DbError ({file} after line {line}), \
             no partial netlist",
        )),
        other => Err(format!("wrong error class: {other}")),
    }
}

// ---------------------------------------------------------------------------
// serve rows
// ---------------------------------------------------------------------------
//
// Each serve row attacks a live engine (two workers) with one seeded fault
// and asserts that every job sits in exactly one legal end state, that
// completed placements are byte-equal to an uninterrupted reference run,
// and that the worker pool is intact (a panic may never cost a worker).

/// One round's scratch state: a seeded design on disk plus the reference
/// placement bytes an uninterrupted run of the same job produces.
struct Round<'a> {
    case: &'a Case,
    design_path: PathBuf,
    reference: Vec<u8>,
}

impl<'a> Round<'a> {
    fn prepare(case: &'a Case) -> Result<Self, String> {
        let design = generate(&GeneratorConfig {
            num_cells: case.cells,
            num_nets: case.cells + case.cells / 8,
            num_macros: 1,
            utilization: 0.6,
            hotspot: 0.4,
            seed: case.seed,
            ..GeneratorConfig::default()
        })
        .map_err(|e| format!("generate: {e}"))?;
        let design_path = case.dir.join("design.pd");
        let mut buf = Vec::new();
        write_design(&design, &mut buf).map_err(|e| format!("render design: {e}"))?;
        fsx::atomic_write(&design_path, &buf).map_err(|e| format!("write design: {e}"))?;

        let reference_run = Flow::Puffer
            .job(Some(case.max_iters), Some(1))
            .run(&design)
            .map_err(|e| format!("reference run: {e}"))?;
        Ok(Round {
            case,
            design_path,
            reference: placement_bytes(&reference_run)?,
        })
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            journal_dir: self.case.dir.join("journal"),
            checkpoint_every: 3,
            backoff: Duration::from_millis(5),
            trace: Trace::disabled(),
        }
    }

    fn spec(&self, out: Option<&Path>, chaos: Option<String>) -> JobSpec {
        JobSpec {
            design: Some(self.design_path.to_string_lossy().into_owned()),
            out: out.map(|p| p.to_string_lossy().into_owned()),
            max_iters: Some(self.case.max_iters),
            threads: Some(1),
            chaos,
            ..JobSpec::default()
        }
    }

    fn check_reference(&self, out: &Path, what: &str) -> Result<(), String> {
        let bytes = fs::read(out).map_err(|e| format!("{what}: read {}: {e}", out.display()))?;
        if bytes != self.reference {
            return Err(format!(
                "{what}: placement differs from uninterrupted reference"
            ));
        }
        Ok(())
    }
}

/// A panicked worker must survive (pool invariant), the once-panicking
/// job must retry to a bit-identical result, and the always-panicking
/// job must end as a structured error after its three attempts.
fn serve_worker_panic(case: &Case) -> Result<String, String> {
    let round = Round::prepare(case)?;
    let out = case.dir.join("panic-once.pl");
    Engine::run(round.serve_config(), |h| -> Result<(), String> {
        let (once, _) = h
            .submit(round.spec(Some(&out), Some("panic-once".into())))
            .map_err(|r| format!("submit: {}", r.detail))?;
        let (always, _) = h
            .submit(round.spec(None, Some("panic".into())))
            .map_err(|r| format!("submit: {}", r.detail))?;
        let record = wait_terminal(h, once)?;
        expect_state(h, once, JobState::Done, &record)?;
        let record = wait_terminal(h, always)?;
        expect_state(h, always, JobState::Failed, &record)?;
        let rec = parse_record(record.trim()).map_err(|e| format!("bad record: {e}"))?;
        if rec.str_field("class") != Some("panic") || rec.num("attempts") != Some(3.0) {
            return Err(format!("not a panic error after 3 attempts: {record}"));
        }
        verify_pool(h)?;
        h.drain();
        Ok(())
    })
    .map_err(|e| e.to_string())??;
    round.check_reference(&out, "retry-after-panic")?;
    Ok("OK: panic-once retried bit-identically, always-panic failed structured".into())
}

/// An `fsx` write fault (`torn-write`: half the bytes land; `disk-full`:
/// ENOSPC) strikes a seeded guarded write of the first attempt — a
/// checkpoint save (the flow errors, classifies transient, and the retry
/// resumes from the last good checkpoint) or a journal record (the flush
/// surfaces a warning and the attempt completes). Either way the job must
/// end `Done` with a bit-identical placement and the fault must have fired.
fn fs_fault(case: &Case, class: FaultClass) -> Result<String, String> {
    let round = Round::prepare(case)?;
    // Guarded writes come thick mid-flow (one journal record per iteration,
    // plus checkpoint saves), so a seeded skip below the iteration count
    // always lands inside the run.
    let skip = case.at;
    let out = case.dir.join("fs-fault.pl");
    let attempts = Engine::run(round.serve_config(), |h| -> Result<usize, String> {
        let (id, _) = h
            .submit(round.spec(Some(&out), Some(format!("{class}@{skip}"))))
            .map_err(|r| format!("submit: {}", r.detail))?;
        let record = wait_terminal(h, id)?;
        expect_state(h, id, JobState::Done, &record)?;
        if !disarm_fired() {
            return Err(format!("{class} fault at write {skip} never fired"));
        }
        verify_pool(h)?;
        h.drain();
        Ok(h.status(id).map(|s| s.attempts).unwrap_or_default())
    })
    .map_err(|e| e.to_string())??;
    round.check_reference(&out, "recover-after-write-fault")?;
    Ok(format!(
        "OK: fault fired at write {skip}, done bit-identically after {attempts} attempt(s)"
    ))
}

/// A client connects, trickles half a request line, and vanishes; the
/// daemon must keep serving and the next client's job must finish.
fn client_disconnect(case: &Case) -> Result<String, String> {
    let round = Round::prepare(case)?;
    let mut rng = StdRng::seed_from_u64(case.seed);
    let out = case.dir.join("disconnect.pl");
    Engine::run(round.serve_config(), |h| -> Result<(), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let signal = CancelToken::new();
        let served = AtomicBool::new(false);
        // One pool worker runs the daemon's accept loop; the control
        // thread plays the clients.
        puffer_par::run_pool(
            1,
            |_| {
                let _ = serve_listener(h, &listener, &signal);
                served.store(true, Ordering::SeqCst);
            },
            || -> Result<(), String> {
                // Client 1: half a submit line, then a hard drop.
                let submit = format!(
                    "{{\"t\":\"submit\",\"design\":\"{}\"}}\n",
                    round.design_path.to_string_lossy()
                );
                let cut = 1 + (rng.gen_range(1..submit.len() as u64 - 1) as usize);
                let mut torn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                torn.write_all(&submit.as_bytes()[..cut])
                    .map_err(|e| e.to_string())?;
                drop(torn); // disconnect mid-line

                // Client 2: a full session on a fresh connection.
                let spec = round.spec(Some(&out), None);
                let mut client = Client::connect(addr)?;
                let id = client.submit(&spec)?;
                let record = client.wait(id)?;
                if !record.contains("serve.result") {
                    return Err(format!("job after disconnect did not complete: {record}"));
                }
                verify_pool(h)?;
                Ok(())
            },
            || signal.cancel(),
        )
        .map_err(|p| format!("chaos client panicked: {p}"))?
    })
    .map_err(|e| e.to_string())??;
    round.check_reference(&out, "job-after-disconnect")?;
    Ok("OK: daemon survived a mid-line disconnect, next client's job done".into())
}

/// Shutdown mid-job (crash equivalent), leave what a kill can leave — a
/// torn `run.jsonl` tail and a half-written checkpoint temp file — and
/// restart over the same directory: the job must resume and finish
/// bit-identically.
fn kill_restart(case: &Case) -> Result<String, String> {
    let round = Round::prepare(case)?;
    let mut rng = StdRng::seed_from_u64(case.seed);
    let out = case.dir.join("killed.pl");
    let cfg = round.serve_config();
    let job_dir = cfg.journal_dir.join("job-1");
    let journal = job_dir.join("run.pj");
    Engine::run(cfg.clone(), |h| -> Result<(), String> {
        let (id, _) = h
            .submit(round.spec(Some(&out), None))
            .map_err(|r| format!("submit: {}", r.detail))?;
        // Kill as soon as the first checkpoint hits the disk.
        let deadline = Deadline::after(WAIT);
        while !journal.exists() {
            if deadline.expired() {
                return Err("job never checkpointed".into());
            }
            if h.status(id).map(|s| s.state.terminal()).unwrap_or(false) {
                break; // tiny designs can finish first; still a legal end state
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        h.shutdown();
        Ok(())
    })
    .map_err(|e| e.to_string())??;

    let interrupted = !job_dir.join("result.json").exists() && journal.exists();
    if interrupted {
        // A save killed before its rename: the temp sibling holds a
        // prefix of the checkpoint, cut at a seeded byte.
        let text = fs::read_to_string(&journal).map_err(|e| e.to_string())?;
        let cut = 1 + (rng.gen_range(0..text.len() as u64 - 1) as usize);
        fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(fsx::tmp_sibling(&journal))
            .and_then(|mut f| f.write_all(&text.as_bytes()[..cut]))
            .map_err(|e| e.to_string())?;
        // The telemetry log is append-only and synced lazily: a kill can
        // cut it at any byte.
        let run_log = job_dir.join("run.jsonl");
        let len = fs::metadata(&run_log).map_err(|e| e.to_string())?.len();
        if len > 1 {
            fs::OpenOptions::new()
                .write(true)
                .open(&run_log)
                .and_then(|f| f.set_len(1 + rng.gen_range(0..len - 1)))
                .map_err(|e| e.to_string())?;
        }
    }

    finish_after_restart(cfg)?;
    round.check_reference(&out, "resume-after-kill")?;
    Ok(if interrupted {
        "OK: killed engine restarted over a torn run log and a stray checkpoint temp file, \
         resumed bit-identically"
    } else {
        "OK: the job finished before the kill, restart kept its result"
    }
    .into())
}

/// A checkpoint's commit rename fails (the first save succeeds, the
/// second save's rename is injected to fail), the engine is killed as
/// soon as the fault has fired, and a restart over the same directory
/// must resume from the surviving checkpoint and finish
/// bit-identically.
fn rename_restart(case: &Case) -> Result<String, String> {
    let round = Round::prepare(case)?;
    let out = case.dir.join("rename-restart.pl");
    let cfg = round.serve_config();
    Engine::run(cfg.clone(), |h| -> Result<(), String> {
        let (id, _) = h
            .submit(round.spec(Some(&out), Some("rename-fail@1".into())))
            .map_err(|r| format!("submit: {}", r.detail))?;
        // Kill as soon as the rename fault has fired (attempt 1 has a
        // good checkpoint from save 1 and a failed commit at save 2).
        let deadline = Deadline::after(WAIT);
        while fsx::fault::armed() {
            if h.status(id).map(|s| s.state.terminal()).unwrap_or(false) {
                break; // tiny designs can finish first; still a legal end state
            }
            if deadline.expired() {
                fsx::fault::disarm();
                return Err("rename fault never fired".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        h.shutdown();
        Ok(())
    })
    .map_err(|e| e.to_string())??;

    finish_after_restart(cfg)?;
    round.check_reference(&out, "restart-after-rename-fault")?;
    Ok("OK: rename fault fired, killed engine restarted and resumed bit-identically".into())
}

/// Restarts an engine over `cfg`'s journal directory: job 1 must finish
/// `Done` with the pool intact.
fn finish_after_restart(cfg: ServeConfig) -> Result<(), String> {
    Engine::run(cfg, |h| -> Result<(), String> {
        let record = wait_terminal(h, 1)?;
        expect_state(h, 1, JobState::Done, &record)?;
        verify_pool(h)?;
        h.drain();
        Ok(())
    })
    .map_err(|e| e.to_string())?
}

fn wait_terminal(handle: &EngineHandle<'_>, id: u64) -> Result<String, String> {
    handle
        .wait(id, Some(WAIT))
        .map_err(|e| format!("job {id} stuck ({e:?}) — possible deadlock"))
}

fn expect_state(
    handle: &EngineHandle<'_>,
    id: u64,
    want: JobState,
    record: &str,
) -> Result<(), String> {
    let got = handle
        .status(id)
        .map(|s| s.state)
        .ok_or_else(|| format!("job {id} unknown"))?;
    if got != want {
        return Err(format!(
            "job {id}: state {got:?}, wanted {want:?} ({record})"
        ));
    }
    Ok(())
}

/// The pool-size invariant: fault injection must never leak or kill a
/// worker thread.
fn verify_pool(handle: &EngineHandle<'_>) -> Result<(), String> {
    let live = handle.live_workers();
    let want = handle.workers();
    if live != want {
        return Err(format!("worker pool corrupted: {live} live of {want}"));
    }
    Ok(())
}

/// A minimal blocking protocol client used by the disconnect scenario.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        use std::io::BufRead;
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reader =
            std::io::BufReader::new(self.stream.try_clone().map_err(|e| e.to_string())?);
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        Ok(response)
    }

    fn submit(&mut self, spec: &JobSpec) -> Result<u64, String> {
        // A spec record doubles as a submit request: same fields, `t` is
        // remapped.
        let line = spec
            .render()
            .replacen("\"t\":\"job.spec\"", "\"t\":\"submit\"", 1);
        let response = self.request(&(line + "\n"))?;
        let rec = parse_record(response.trim()).map_err(|e| format!("bad accept response: {e}"))?;
        if rec.kind() != Some("serve.accepted") {
            return Err(format!("submit rejected: {response}"));
        }
        rec.num("id")
            .map(|v| v as u64)
            .ok_or_else(|| format!("accept without id: {response}"))
    }

    fn wait(&mut self, id: u64) -> Result<String, String> {
        self.request(&format!(
            "{{\"t\":\"wait\",\"id\":{id},\"timeout_s\":{}}}\n",
            WAIT.as_secs()
        ))
    }
}
