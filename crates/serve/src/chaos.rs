//! The serve rows of the `puffer chaos` scenario table.
//!
//! Each row attacks a live engine with one seeded, fully deterministic
//! fault (the dispatcher in `puffer-cli` picks the row and draws the
//! [`Case`]; `puffer chaos --classes serve` runs exactly these):
//!
//! * `serve-worker-panic` — a job panics its worker (once: retry must
//!   succeed bit-identically; always: the job must fail with a structured
//!   error);
//! * `serve-torn-write` / `serve-disk-full` — the durable I/O layer tears,
//!   or refuses with ENOSPC, a seeded guarded write of the first attempt
//!   (a checkpoint save or a journal record); the job must still end
//!   `Done` with a bit-identical placement, via transient-retry from the
//!   last good checkpoint or a surfaced flush warning;
//! * `serve-client-disconnect` — a TCP client drops its connection
//!   mid-line; the daemon must keep serving and the next client's job must
//!   finish;
//! * `serve-kill-restart` — the engine shuts down mid-job (the in-process
//!   equivalent of `kill -9` right after a checkpoint fsync), the job's
//!   append-only `run.jsonl` is torn at a seeded byte and a stray temp
//!   sibling of `run.pj` holds a prefix of a checkpoint, and a
//!   fresh engine over the same directory must resume and finish
//!   bit-identically;
//! * `serve-rename-restart` — a checkpoint's commit rename fails (injected
//!   via `fsx`), the engine is killed before the retry settles, and a
//!   restart over the same directory must resume from the last good
//!   checkpoint and finish bit-identically.
//!
//! Every row asserts the robustness invariants: every job sits in exactly
//! one legal end state (completed result / resumable checkpoint /
//! structured error), completed placements are bit-identical to an
//! uninterrupted reference run, and the worker pool is intact (a panic may
//! never cost a worker).

use std::fs;
use std::io::Write as IoWrite;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use puffer::{Job, PufferConfig};
use puffer_budget::fsx;
use puffer_budget::{CancelToken, FaultClass};
use puffer_db::io::{write_design, write_placement};
use puffer_gen::{generate, GeneratorConfig};
use puffer_rng::StdRng;
use puffer_trace::Trace;

use crate::engine::{Engine, EngineHandle, JobState, ServeConfig};
use crate::proto::JobSpec;
use crate::server::serve_listener;

/// One seeded chaos case, as the `puffer chaos` dispatcher hands it to the
/// row it picked.
#[derive(Debug, Clone)]
pub struct Case {
    /// The seed that picked this row.
    pub seed: u64,
    /// Seeded injection point (iteration, trial, or guarded-operation skip).
    pub at: usize,
    /// Seeded class-specific intensity.
    pub magnitude: usize,
    /// Cells in the generated chaos design.
    pub cells: usize,
    /// GP iteration cap for chaos flows.
    pub max_iters: usize,
    /// Scratch directory, empty on entry.
    pub dir: PathBuf,
}

/// A scenario-table runner: `Ok` describes what was verified, `Err` is the
/// violated invariant.
pub type Runner = fn(&Case) -> Result<String, String>;

/// The serve rows, in dispatch order.
pub const ROWS: [(&str, Runner); 6] = [
    ("serve-worker-panic", worker_panic),
    ("serve-torn-write", |case| fs_fault(case, FaultClass::TornWrite)),
    ("serve-client-disconnect", client_disconnect),
    ("serve-kill-restart", kill_restart),
    ("serve-disk-full", |case| fs_fault(case, FaultClass::DiskFull)),
    ("serve-rename-restart", rename_restart),
];

/// Generous bound for any single chaos wait; hitting it means a job got
/// stuck, which the harness reports as a deadlock.
const WAIT: Duration = Duration::from_secs(180);

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

        let reference_run = Job::new(flow_config(case.max_iters))
            .run(&design)
            .map_err(|e| format!("reference run: {e}"))?;
        let mut reference = Vec::new();
        write_placement(&reference_run.placement, &mut reference)
            .map_err(|e| format!("render reference: {e}"))?;
        Ok(Round {
            case,
            design_path,
            reference,
        })
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            journal_dir: self.case.dir.join("journal"),
            checkpoint_every: 3,
            max_attempts: 3,
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
            return Err(format!("{what}: placement differs from uninterrupted reference"));
        }
        Ok(())
    }
}

/// A panicked worker must survive (pool invariant), the once-panicking
/// job must retry to a bit-identical result, and the always-panicking
/// job must end as a structured error.
fn worker_panic(case: &Case) -> Result<String, String> {
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
        if !record.contains("\"class\":\"panic\"") {
            return Err(format!("structured error lacks panic class: {record}"));
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
        if fsx::fault::armed() {
            fsx::fault::disarm();
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
        let deadline = puffer_budget::clock::Deadline::after(WAIT);
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

    Engine::run(cfg, |h| -> Result<(), String> {
        let record = wait_terminal(h, 1)?;
        expect_state(h, 1, JobState::Done, &record)?;
        verify_pool(h)?;
        h.drain();
        Ok(())
    })
    .map_err(|e| e.to_string())??;
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
        let deadline = puffer_budget::clock::Deadline::after(WAIT);
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

    Engine::run(cfg, |h| -> Result<(), String> {
        let record = wait_terminal(h, 1)?;
        expect_state(h, 1, JobState::Done, &record)?;
        verify_pool(h)?;
        h.drain();
        Ok(())
    })
    .map_err(|e| e.to_string())??;
    round.check_reference(&out, "restart-after-rename-fault")?;
    Ok("OK: rename fault fired, killed engine restarted and resumed bit-identically".into())
}

fn flow_config(max_iters: usize) -> PufferConfig {
    let mut c = PufferConfig::default();
    c.placer.max_iters = max_iters;
    c.placer.threads = 1;
    c.estimator.threads = 1;
    c
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
        return Err(format!("job {id}: state {got:?}, wanted {want:?} ({record})"));
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
        let mut reader = std::io::BufReader::new(
            self.stream.try_clone().map_err(|e| e.to_string())?,
        );
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        Ok(response)
    }

    fn submit(&mut self, spec: &JobSpec) -> Result<u64, String> {
        // A spec record doubles as a submit request: same fields, `t` is
        // remapped.
        let line = spec.render().replacen("\"t\":\"job.spec\"", "\"t\":\"submit\"", 1);
        let response = self.request(&(line + "\n"))?;
        let rec = puffer_trace::parse_record(response.trim())
            .map_err(|e| format!("bad accept response: {e}"))?;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every serve row once — the in-crate smoke that drives the
    /// engine, queue and trace locks under the debug-build leaf-lock check.
    #[test]
    fn every_serve_row_ends_in_a_legal_state() {
        let base = std::env::temp_dir().join("puffer-serve-chaos-test");
        for (seed, (name, run)) in ROWS.iter().enumerate() {
            let dir = base.join(name);
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let case = Case {
                seed: seed as u64,
                at: 2 + seed,
                magnitude: 1,
                cells: 160,
                max_iters: 60,
                dir,
            };
            let verdict = run(&case).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(verdict.starts_with("OK"), "{name}: {verdict}");
        }
    }
}
