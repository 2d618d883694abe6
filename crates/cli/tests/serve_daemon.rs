//! End-to-end daemon test against the real `puffer` binary: submit more
//! jobs than the pool has workers, cancel one, kill the daemon mid-job
//! (SIGKILL — no chance to checkpoint on the way out), restart it over the
//! same journal directory, and verify that every surviving job finishes
//! with a placement byte-identical to an uninterrupted one-shot run while
//! the cancelled job stays cancelled.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const MAX_ITERS: usize = 120;
const JOBS: usize = 4; // > the 2-worker pool, so some jobs queue

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_puffer")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("puffer-serve-daemon-test")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a one-shot `puffer` subcommand, asserting success.
fn puffer(args: &[&str]) {
    let status = Command::new(bin()).args(args).status().unwrap();
    assert!(status.success(), "puffer {args:?} failed");
}

/// Starts a 2-worker daemon and returns the child, the address it bound
/// and its `serve.ready` line. The returned reader holds the child's
/// stdout pipe open — dropping it early would make the daemon's exit
/// summary print fail.
fn start_daemon(journal_dir: &Path) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let (child, addr, reader, _) = start_daemon_with(journal_dir, "2");
    (child, addr, reader)
}

fn start_daemon_with(
    journal_dir: &Path,
    workers: &str,
) -> (Child, String, BufReader<std::process::ChildStdout>, String) {
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--journal-dir",
            journal_dir.to_str().unwrap(),
            "--workers",
            workers,
            "--queue",
            "8",
            "--checkpoint-every",
            "5",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut ready = String::new();
    reader.read_line(&mut ready).unwrap();
    assert!(
        ready.contains("serve.ready"),
        "unexpected first line: {ready}"
    );
    let addr = field(&ready, "addr").expect("serve.ready without addr");
    (child, addr, reader, ready)
}

/// Extracts a string field's value from a one-line JSON record.
fn field(record: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":\"");
    let start = record.find(&key)? + key.len();
    let end = record[start..].find('"')?;
    Some(record[start..start + end].to_string())
}

/// The `workers` count a `serve.ready` or `serve.jobs` record reports.
fn workers(record: &str) -> Option<u64> {
    let start = record.find("\"workers\":")? + "\"workers\":".len();
    let digits = record[start..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?;
    digits.parse().ok()
}

struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(300)))
                        .unwrap();
                    return Client { stream };
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Sends one request line and reads one response line.
    fn request(&mut self, line: impl AsRef<[u8]>) -> String {
        self.stream.write_all(line.as_ref()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        let mut byte = [0u8; 1];
        loop {
            match self.stream.read(&mut byte) {
                Ok(0) => panic!("daemon closed the connection; got: {response}"),
                Ok(_) if byte[0] == b'\n' => return response,
                Ok(_) => response.push(byte[0] as char),
                // A signal landing mid-read is not the daemon's answer.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read failed: {e}; got: {response}"),
            }
        }
    }

    fn submit(&mut self, design: &Path, out: &Path) -> String {
        let line = format!(
            "{{\"t\":\"submit\",\"design\":\"{}\",\"out\":\"{}\",\"max_iters\":{MAX_ITERS},\"threads\":1}}",
            design.display(),
            out.display()
        );
        let response = self.request(&line);
        assert!(response.contains("serve.accepted"), "{response}");
        response
    }
}

/// Pipes `lines` to `puffer serve --stdin` over a fresh journal directory,
/// closes stdin, and returns the finished daemon's (stdout, stderr) after
/// asserting a clean exit.
fn stdin_daemon(journal_dir: &Path, lines: &[&[u8]]) -> (String, String) {
    let mut child = Command::new(bin())
        .args(["serve", "--stdin", "--workers", "2", "--journal-dir"])
        .arg(journal_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for line in lines {
        stdin.write_all(line).unwrap();
        stdin.write_all(b"\n").unwrap();
    }
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "exit {}: {stderr}", output.status);
    (stdout, stderr)
}

#[test]
fn daemon_survives_kill_cancel_and_restart() {
    let dir = tmp_dir("restart");
    let design = dir.join("design.pd");
    let reference = dir.join("reference.pl");
    let journal_dir = dir.join("journal");

    // One-shot reference: the trajectory every daemon job must reproduce.
    puffer(&[
        "gen",
        "--cells",
        "220",
        "--nets",
        "250",
        "--macros",
        "1",
        "--utilization",
        "0.6",
        "-o",
        design.to_str().unwrap(),
    ]);
    puffer(&[
        "place",
        design.to_str().unwrap(),
        "-o",
        reference.to_str().unwrap(),
        "--max-iters",
        "120",
        "--threads",
        "1",
    ]);
    let reference_bytes = std::fs::read(&reference).unwrap();
    let design_bytes = std::fs::read(&design).unwrap();

    // Jobs 1 and 2 read their design from named pipes, so each of the two
    // workers that takes one blocks opening it until this test writes the
    // design in: jobs 3 and 4 stay queued however fast a job runs.
    let held: Vec<PathBuf> = (1..=2).map(|i| dir.join(format!("held{i}.pd"))).collect();
    for pipe in &held {
        let status = Command::new("mkfifo").arg(pipe).status().unwrap();
        assert!(status.success(), "mkfifo {}", pipe.display());
    }
    // A held pipe gives way to a plain copy of the design once its job has
    // read it, which is what the restarted daemon reads.
    let release = |pipe: &Path| {
        std::fs::remove_file(pipe).unwrap();
        std::fs::write(pipe, &design_bytes).unwrap();
    };

    // First daemon: submit more jobs than workers, cancel the last one
    // (queued behind the two held jobs), kill the process mid-job.
    let (mut child, addr, _stdout) = start_daemon(&journal_dir);
    let outs: Vec<PathBuf> = (1..=JOBS).map(|i| dir.join(format!("job{i}.pl"))).collect();
    {
        let mut client = Client::connect(&addr);
        for (i, out) in outs.iter().enumerate() {
            client.submit(held.get(i).unwrap_or(&design), out);
        }
        let response = client.request(format!("{{\"t\":\"cancel\",\"id\":{JOBS}}}"));
        assert!(
            response.contains("\"state\":\"cancelled\""),
            "job {JOBS} should still be queued when cancelled: {response}"
        );
    }

    // Let job 1 read its design (the write waits for the worker to open
    // the pipe); job 2 stays held, so it is still to run at the kill.
    std::fs::write(&held[0], &design_bytes).unwrap();
    release(&held[0]);

    // Kill once job 1 has journaled a checkpoint (SIGKILL: the daemon gets
    // no chance to write a final checkpoint or clean anything up).
    let first_journal = journal_dir.join("job-1").join("run.pj");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !first_journal.exists() {
        assert!(Instant::now() < deadline, "job 1 never wrote a checkpoint");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    release(&held[1]);

    // Second daemon over the same journal directory: the recovery scan must
    // re-enqueue the interrupted jobs and leave the cancelled one alone.
    let (mut child, addr, _stdout) = start_daemon(&journal_dir);
    {
        let mut client = Client::connect(&addr);
        for id in 1..JOBS {
            let response =
                client.request(format!("{{\"t\":\"wait\",\"id\":{id},\"timeout_s\":240}}"));
            assert!(response.contains("serve.result"), "job {id}: {response}");
            assert!(
                response.contains("\"state\":\"done\""),
                "job {id}: {response}"
            );
        }
        let response = client.request(format!("{{\"t\":\"status\",\"id\":{JOBS}}}"));
        assert!(
            response.contains("\"state\":\"cancelled\""),
            "cancellation must survive the restart: {response}"
        );
        let response = client.request("{\"t\":\"drain\"}");
        assert!(response.contains("serve.done"), "{response}");
    }
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exited with {status}");

    // Interrupted jobs resumed to placements byte-identical to the
    // uninterrupted reference; the cancelled job never wrote one.
    for out in outs.iter().take(JOBS - 1) {
        let bytes =
            std::fs::read(out).unwrap_or_else(|e| panic!("missing output {}: {e}", out.display()));
        assert_eq!(
            bytes,
            reference_bytes,
            "{} diverged from the uninterrupted reference",
            out.display()
        );
    }
    assert!(
        !outs[JOBS - 1].exists(),
        "cancelled job must not write a placement"
    );
}

/// A `submit` carrying the harness-only `chaos` tag must be refused on both
/// transports — never executed: no worker panic, the pool intact, no job
/// admitted, a clean drain.
#[test]
fn fault_tags_on_the_wire_are_rejected_on_both_transports() {
    const TAGGED: &str = r#"{"t":"submit","preset":"or1200","scale":0.003,"chaos":"panic"}"#;
    let dir = tmp_dir("wire-chaos");

    // TCP.
    let (mut child, addr, _stdout) = start_daemon(&dir.join("tcp-journal"));
    {
        let mut client = Client::connect(&addr);
        let response = client.request(TAGGED);
        assert!(response.contains("serve.rejected"), "{response}");
        assert!(
            response.contains("'chaos'"),
            "rejection must name the field: {response}"
        );
        let response = client.request("{\"t\":\"status\"}");
        assert!(
            response.contains("\"count\":0"),
            "no job may be admitted: {response}"
        );
        assert!(
            response.contains("\"workers\":2"),
            "pool must be intact: {response}"
        );
        let response = client.request("{\"t\":\"drain\"}");
        assert!(response.contains("serve.done"), "{response}");
    }
    assert!(child.wait().unwrap().success());

    // stdin.
    let (stdout, stderr) = stdin_daemon(
        &dir.join("stdin-journal"),
        &[TAGGED.as_bytes(), b"{\"t\":\"drain\"}"],
    );
    assert_eq!(stdout.matches("serve.rejected").count(), 1, "{stdout}");
    assert!(
        stdout.contains("'chaos'"),
        "rejection must name the field: {stdout}"
    );
    assert!(!stdout.contains("serve.accepted"), "{stdout}");
    assert!(
        !stderr.contains("panicked"),
        "a worker executed the tag: {stderr}"
    );
}

/// Seconds no `Duration` can hold (negative, or finite but too large) are
/// refused where the line is parsed, on both transports: the `wait`s as
/// `bad-request` naming `timeout_s`, the `submit` as `bad-spec` naming
/// `deadline_s`. So is a line that is not UTF-8 (`bad-request`): both
/// transports read bytes. The daemon then still answers `ping` and
/// finishes the job admitted before the bad lines.
#[test]
fn unrepresentable_seconds_are_rejected_and_the_daemon_lives_on_both_transports() {
    const SUBMIT: &str =
        r#"{"t":"submit","preset":"or1200","scale":0.003,"max_iters":40,"threads":1}"#;
    const BAD: [(&str, &str); 3] = [
        (r#"{"t":"wait","id":1,"timeout_s":-1}"#, "timeout_s"),
        (r#"{"t":"wait","id":1,"timeout_s":1e300}"#, "timeout_s"),
        (
            r#"{"t":"submit","preset":"or1200","scale":0.003,"deadline_s":1e300}"#,
            "deadline_s",
        ),
    ];
    const NOT_UTF8: &[u8] = b"{\"t\":\"ping\"}\xFF";
    const WAIT: &str = r#"{"t":"wait","id":1,"timeout_s":240}"#;
    let dir = tmp_dir("wire-seconds");

    // TCP.
    let (mut child, addr, _stdout) = start_daemon(&dir.join("tcp-journal"));
    {
        let mut client = Client::connect(&addr);
        let response = client.request(SUBMIT);
        assert!(response.contains("serve.accepted"), "{response}");
        for (line, field) in BAD {
            let response = client.request(line);
            assert!(response.contains("serve.rejected"), "{line}: {response}");
            assert!(
                response.contains(field),
                "rejection must name {field}: {response}"
            );
        }
        let response = client.request(NOT_UTF8);
        assert!(response.contains("bad-request"), "{response}");
        let response = client.request("{\"t\":\"ping\"}");
        assert!(response.contains("serve.pong"), "{response}");
        let response = client.request(WAIT);
        assert!(response.contains("\"state\":\"done\""), "{response}");
        let response = client.request("{\"t\":\"drain\"}");
        assert!(response.contains("serve.done"), "{response}");
    }
    assert!(child.wait().unwrap().success());

    // stdin.
    let mut lines = vec![SUBMIT.as_bytes()];
    lines.extend(BAD.iter().map(|(line, _)| line.as_bytes()));
    lines.extend([
        NOT_UTF8,
        b"{\"t\":\"ping\"}",
        WAIT.as_bytes(),
        b"{\"t\":\"drain\"}",
    ]);
    let (stdout, stderr) = stdin_daemon(&dir.join("stdin-journal"), &lines);
    assert_eq!(
        stdout.matches("serve.rejected").count(),
        BAD.len() + 1,
        "{stdout}"
    );
    assert_eq!(stdout.matches("timeout_s").count(), 2, "{stdout}");
    assert_eq!(stdout.matches("deadline_s").count(), 1, "{stdout}");
    assert!(stdout.contains("serve.pong"), "{stdout}");
    assert!(stdout.contains("\"state\":\"done\""), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `--workers` past the pool's clamp announces the pool that runs:
/// `serve.ready` and the `serve.jobs` status both report 32 workers. The
/// daemon is drained before anything is asserted, so a failure leaves no
/// process behind.
#[test]
fn an_oversized_pool_reports_the_clamped_worker_count() {
    let dir = tmp_dir("clamped-pool");
    let (mut child, addr, _stdout, ready) = start_daemon_with(&dir.join("journal"), "64");
    let mut client = Client::connect(&addr);
    // The pool's threads count themselves in as they start.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut status = client.request("{\"t\":\"status\"}");
    while workers(&status) != Some(32) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        status = client.request("{\"t\":\"status\"}");
    }
    let drained = client.request("{\"t\":\"drain\"}");
    let exit = child.wait().unwrap();
    assert_eq!(workers(&ready), Some(32), "{ready}");
    assert_eq!(workers(&status), Some(32), "{status}");
    assert!(drained.contains("serve.done"), "{drained}");
    assert!(exit.success());
}
