//! Runs one child command and measures it from outside: wall-clock,
//! user+sys CPU and peak resident set, all read from `/proc`.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which Linux fixes
/// at 100 on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;
/// How often the child's `VmHWM` is sampled while it runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// What one child command cost and said.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    /// Spawn → the child closing its stdout at exit.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// Highest `VmHWM` seen (a high-water mark itself, so only growth in
    /// the last sampling interval before exit can be missed).
    pub peak_rss_kib: u64,
    pub exit_ok: bool,
    pub stdout: String,
    pub stderr: String,
}

impl ChildRun {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Spawns `command`, feeds it `stdin` (then closes it), and measures it.
///
/// The child's exit is observed as EOF on its stdout, which gives a precise
/// end time without reaping it; CPU time is then read from
/// `/proc/<pid>/stat` while the child is a zombie, and only then is it
/// reaped. Every child is waited for before this returns.
///
/// # Errors
///
/// The spawn error, or a message when `/proc` cannot be read.
pub fn run(command: &mut Command, stdin: &[u8]) -> Result<ChildRun, String> {
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawn {command:?}: {e}"))?;
    let pid = child.id();
    let mut child_in = child.stdin.take().expect("piped stdin");
    let mut child_out = child.stdout.take().expect("piped stdout");
    let mut child_err = child.stderr.take().expect("piped stderr");

    let mut run = ChildRun::default();
    let (eof_tx, eof_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let out = scope.spawn(move || {
            let mut text = String::new();
            let _ = child_out.read_to_string(&mut text);
            let _ = eof_tx.send(Instant::now());
            text
        });
        let err = scope.spawn(move || {
            let mut text = String::new();
            let _ = child_err.read_to_string(&mut text);
            text
        });
        // A child that dies early closes the pipe under us; its exit
        // status reports that, so the write error itself is not one.
        let _ = child_in.write_all(stdin);
        drop(child_in);
        let end = loop {
            match eof_rx.recv_timeout(SAMPLE_EVERY) {
                Ok(at) => break at,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    run.peak_rss_kib = run.peak_rss_kib.max(vm_hwm_kib(pid).unwrap_or(0));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break Instant::now(),
            }
        };
        run.wall_s = end.duration_since(start).as_secs_f64();
        run.stdout = out.join().unwrap_or_default();
        run.stderr = err.join().unwrap_or_default();
    });

    // stdout closes a moment before the process turns zombie; wait for that
    // so the tick counters are final (threads included).
    let cpu = (0..25_000).find_map(|_| match proc_stat(pid) {
        Some((b'Z', user, sys)) => Some((user, sys)),
        Some(_) => {
            std::thread::sleep(Duration::from_micros(200));
            None
        }
        None => Some((f64::NAN, f64::NAN)),
    });
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let (user_s, sys_s) = cpu.ok_or("child closed stdout but never exited")?;
    if !user_s.is_finite() {
        return Err(format!("cannot read /proc/{pid}/stat"));
    }
    run.user_s = user_s;
    run.sys_s = sys_s;
    run.exit_ok = status.success();
    Ok(run)
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(state, utime_s, stime_s)` of the whole thread group.
fn proc_stat(pid: u32) -> Option<(u8, f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may itself contain spaces or
    // parentheses; fields are counted from after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((
        *fields.first()?.as_bytes().first()?,
        ticks(11)? / TICKS_PER_S,
        ticks(12)? / TICKS_PER_S,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_shell_child() {
        let r = run(
            Command::new("sh").args([
                "-c",
                "cat; i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done; echo done >&2; exit 3",
            ]),
            b"hello\n",
        )
        .expect("run");
        assert_eq!(r.stdout, "hello\n");
        assert_eq!(r.stderr, "done\n");
        assert!(!r.exit_ok);
        assert!(
            r.wall_s > 0.0 && r.cpu_s() > 0.0 && r.cpu_s() < r.wall_s + 0.05,
            "{r:?}"
        );
        assert!(r.peak_rss_kib > 0, "{r:?}");
    }
}
