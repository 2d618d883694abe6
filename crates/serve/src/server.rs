//! Protocol transports: serving the line protocol over TCP or any
//! `BufRead`/`Write` pair (stdin mode, tests).
//!
//! Both transports parse one request per line ([`crate::proto`]), apply it
//! to the [`EngineHandle`], and write the response line(s) back. The TCP
//! accept loop is single-threaded by design: requests are cheap bookkeeping
//! (submit/cancel/status) — the heavy lifting happens on the engine's
//! worker pool — and one connection at a time keeps the robustness surface
//! auditable. Client disconnects (including mid-line) are tolerated and
//! never take the daemon down.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use puffer_budget::CancelToken;

use crate::engine::EngineHandle;
use crate::proto::{parse_request, JsonLine, Request};

/// What a handled request asks the serving loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Stop admitting, finish every job, then exit.
    Drain,
    /// Stop fast: checkpoint running jobs for the next start, then exit.
    Shutdown,
}

/// Handles one request line, appending response line(s) to `out`.
/// Malformed lines produce a `serve.rejected` response, never an error —
/// a confused client must not wedge the daemon.
pub fn handle_line(handle: &EngineHandle<'_>, line: &str, out: &mut String) -> Action {
    let line = line.trim();
    if line.is_empty() {
        return Action::Continue;
    }
    let push = |out: &mut String, record: String| {
        out.push_str(&record);
        out.push('\n');
    };
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            push(
                out,
                JsonLine::new("serve.rejected")
                    .str("reason", "bad-request")
                    .str("detail", &e)
                    .finish(),
            );
            return Action::Continue;
        }
    };
    match request {
        Request::Submit(spec) => {
            match handle.submit(*spec) {
                Ok((id, queued)) => push(
                    out,
                    JsonLine::new("serve.accepted")
                        .int("id", id as i64)
                        .int("queued", queued as i64)
                        .int("capacity", handle.capacity() as i64)
                        .finish(),
                ),
                Err(r) => push(
                    out,
                    JsonLine::new("serve.rejected")
                        .str("reason", r.reason)
                        .str("detail", &r.detail)
                        .int("queued", r.queued as i64)
                        .int("capacity", r.capacity as i64)
                        .finish(),
                ),
            }
            Action::Continue
        }
        Request::Cancel { id } => {
            match handle.cancel(id) {
                Ok(state) => push(
                    out,
                    JsonLine::new("serve.status")
                        .int("id", id as i64)
                        .str("state", state.as_str())
                        .finish(),
                ),
                Err(e) => push(
                    out,
                    JsonLine::new("serve.rejected")
                        .str("reason", "unknown-job")
                        .str("detail", &e)
                        .finish(),
                ),
            }
            Action::Continue
        }
        Request::Status { id: Some(id) } => {
            match handle.status(id) {
                Some(s) => push(
                    out,
                    JsonLine::new("serve.status")
                        .int("id", id as i64)
                        .str("state", s.state.as_str())
                        .int("attempts", s.attempts as i64)
                        .str("message", &s.message)
                        .finish(),
                ),
                None => push(
                    out,
                    JsonLine::new("serve.rejected")
                        .str("reason", "unknown-job")
                        .str("detail", &format!("no job {id}"))
                        .finish(),
                ),
            }
            Action::Continue
        }
        Request::Status { id: None } => {
            let all = handle.statuses();
            push(
                out,
                JsonLine::new("serve.jobs")
                    .int("count", all.len() as i64)
                    .int("queued", handle.queue_len() as i64)
                    .int("workers", handle.live_workers() as i64)
                    .finish(),
            );
            for s in all {
                push(
                    out,
                    JsonLine::new("serve.status")
                        .int("id", s.id as i64)
                        .str("state", s.state.as_str())
                        .int("attempts", s.attempts as i64)
                        .str("message", &s.message)
                        .finish(),
                );
            }
            Action::Continue
        }
        Request::Wait { id, timeout } => {
            match handle.wait(id, timeout) {
                Ok(record) => push(out, record),
                Err(e) => push(
                    out,
                    JsonLine::new("serve.rejected")
                        .str("reason", "wait-failed")
                        .str("detail", &format!("{e:?}"))
                        .finish(),
                ),
            }
            Action::Continue
        }
        Request::Ping => {
            push(out, JsonLine::new("serve.pong").finish());
            Action::Continue
        }
        Request::Drain => {
            push(
                out,
                JsonLine::new("serve.done").str("mode", "drain").finish(),
            );
            Action::Drain
        }
        Request::Shutdown => {
            push(
                out,
                JsonLine::new("serve.done").str("mode", "shutdown").finish(),
            );
            Action::Shutdown
        }
    }
}

/// Applies a terminal action: drain waits for every job, shutdown
/// checkpoints running jobs for the next start.
fn wind_down(handle: &EngineHandle<'_>, action: Action) {
    match action {
        Action::Drain => handle.drain(),
        Action::Shutdown => handle.shutdown(),
        Action::Continue => {}
    }
}

/// Serves the protocol over a `BufRead`/`Write` pair until EOF or a
/// drain/shutdown request (stdin mode; also the unit-test transport).
/// EOF drains: everything submitted runs to completion before returning.
///
/// # Errors
///
/// I/O errors reading requests or writing responses. Bytes that are not
/// UTF-8 are neither: the line is answered `bad-request`.
pub fn serve_lines(
    handle: &EngineHandle<'_>,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<Action> {
    let mut line = String::new();
    let mut out = String::new();
    loop {
        line.clear();
        match read_line_tolerant(&mut reader, &mut line) {
            LineRead::Line => {}
            // An unterminated last line is still a request.
            LineRead::Eof if !line.is_empty() => {}
            LineRead::Eof => break,
            LineRead::Lost(e) => return Err(e),
        }
        out.clear();
        let action = handle_line(handle, &line, &mut out);
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
        if action != Action::Continue {
            wind_down(handle, action);
            return Ok(action);
        }
    }
    wind_down(handle, Action::Drain);
    Ok(Action::Drain)
}

/// The outcome of a TCP serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOutcome {
    /// A client asked for drain; every job completed.
    Drained,
    /// A client asked for fast shutdown; interrupted jobs are resumable.
    Shutdown,
    /// The signal token tripped (SIGTERM/SIGINT): graceful drain.
    Signalled,
}

/// Serves the protocol on a TCP listener until a client sends
/// drain/shutdown or `signal` trips (SIGTERM → drain). One connection at
/// a time; client disconnects are tolerated.
///
/// # Errors
///
/// Fatal listener errors only (accept failures other than `WouldBlock`).
pub fn serve_listener(
    handle: &EngineHandle<'_>,
    listener: &TcpListener,
    signal: &CancelToken,
) -> std::io::Result<ServerOutcome> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => match serve_connection(handle, stream) {
                Action::Continue => {}
                a @ (Action::Drain | Action::Shutdown) => {
                    wind_down(handle, a);
                    return Ok(match a {
                        Action::Shutdown => ServerOutcome::Shutdown,
                        _ => ServerOutcome::Drained,
                    });
                }
            },
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if signal.is_cancelled() {
                    wind_down(handle, Action::Drain);
                    return Ok(ServerOutcome::Signalled);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serves one TCP connection until it closes or sends drain/shutdown.
/// Every I/O failure on the connection — including a client vanishing
/// mid-line — ends this connection only.
fn serve_connection(handle: &EngineHandle<'_>, stream: TcpStream) -> Action {
    // A finite read timeout lets blocking `wait` requests coexist with
    // clients that keep the connection open silently.
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return Action::Continue;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return Action::Continue,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut out = String::new();
    loop {
        line.clear();
        match read_line_tolerant(&mut reader, &mut line) {
            LineRead::Line => {}
            LineRead::Eof | LineRead::Lost(_) => return Action::Continue,
        }
        out.clear();
        let action = handle_line(handle, &line, &mut out);
        if writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err() {
            return Action::Continue; // client went away; responses are best-effort
        }
        if action != Action::Continue {
            return action;
        }
    }
}

enum LineRead {
    /// A complete `\n`-terminated line.
    Line,
    /// End of input; `line` holds whatever unterminated tail preceded it.
    Eof,
    /// A hard read error, or [`IDLE_LIMIT`] of silence.
    Lost(std::io::Error),
}

/// How long a connection may sit idle (or hold a line half-sent) before
/// the daemon drops it and goes back to accepting: one stalled client must
/// not wedge the single-connection serving loop.
const IDLE_LIMIT: Duration = Duration::from_secs(10);

/// The one line reader behind both transports. Reads bytes up to `\n` and
/// appends them to `line` lossily — a byte that is not UTF-8 becomes
/// U+FFFD and the request parser rejects the line, instead of the read
/// failing the transport. Partial data survives read timeouts (a slow
/// client trickling bytes is fine); a hard error, or [`IDLE_LIMIT`] of
/// silence on a socket with a read timeout, loses the connection.
fn read_line_tolerant(reader: &mut impl BufRead, line: &mut String) -> LineRead {
    let idle_since = puffer_budget::clock::Stopwatch::start();
    let mut bytes = Vec::new();
    let end = loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if idle_since.elapsed() > IDLE_LIMIT {
                    break LineRead::Lost(e);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break LineRead::Lost(e),
        };
        if buf.is_empty() {
            break LineRead::Eof;
        }
        let (used, done) = match buf.iter().position(|b| *b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (buf.len(), false),
        };
        bytes.extend_from_slice(&buf[..used]);
        reader.consume(used);
        if done {
            break LineRead::Line;
        }
    };
    line.push_str(&String::from_utf8_lossy(&bytes));
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ServeConfig};
    use std::io::Cursor;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("puffer-serve-server").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(name: &str) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            journal_dir: tmp_dir(name).join("journal"),
            checkpoint_every: 10,
            backoff: std::time::Duration::from_millis(5),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn line_transport_submits_waits_and_drains() {
        let input = concat!(
            "{\"t\":\"ping\"}\n",
            "{\"t\":\"submit\",\"preset\":\"or1200\",\"scale\":0.02,\"max_iters\":40,\"threads\":1}\n",
            "{\"t\":\"wait\",\"id\":1,\"timeout_s\":120}\n",
            "{\"t\":\"status\"}\n",
            "{\"t\":\"drain\"}\n",
        );
        let mut output = Vec::new();
        let action = Engine::run(cfg("lines"), |h| {
            serve_lines(h, Cursor::new(input), &mut output)
        })
        .unwrap()
        .unwrap();
        assert_eq!(action, Action::Drain);
        let text = String::from_utf8(output).unwrap();
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                puffer_trace::parse_record(l)
                    .unwrap()
                    .kind()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "serve.pong",
                "serve.accepted",
                "serve.result",
                "serve.jobs",
                "serve.status",
                "serve.done"
            ],
            "{text}"
        );
    }

    #[test]
    fn malformed_and_unknown_requests_reject_without_wedging() {
        let input = concat!(
            "this is not json\n",
            "{\"t\":\"frobnicate\"}\n",
            "{\"t\":\"cancel\",\"id\":99}\n",
            "{\"t\":\"submit\"}\n",
            "{\"t\":\"ping\"}\n",
        );
        let mut output = Vec::new();
        Engine::run(cfg("malformed"), |h| {
            serve_lines(h, Cursor::new(input), &mut output).unwrap();
        })
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.contains("serve.rejected") {
                    "rejected"
                } else if l.contains("serve.pong") {
                    "pong"
                } else {
                    "other"
                }
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["rejected", "rejected", "rejected", "rejected", "pong"]
        );
    }

    #[test]
    fn eof_without_drain_still_runs_submitted_jobs() {
        let input = concat!(
            "{\"t\":\"submit\",\"preset\":\"or1200\",\"scale\":0.02,\"max_iters\":40,",
            "\"threads\":1}\n",
        );
        let mut output = Vec::new();
        Engine::run(cfg("eof"), |h| {
            serve_lines(h, Cursor::new(input), &mut output).unwrap();
            // EOF implies drain: by the time serve_lines returns, the job
            // must be terminal.
            let s = h.status(1).unwrap();
            assert!(s.state.terminal(), "EOF must drain, job was {:?}", s.state);
        })
        .unwrap();
    }
}
