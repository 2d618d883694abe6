//! The `puffer serve` line protocol: newline-delimited JSON, version 2.
//!
//! Requests and responses are flat JSON objects, one per line, in the
//! [`puffer_trace`] record schema (a `"t"` kind field plus scalar fields).
//! Serve records bump the schema with an explicit `"v": 2` version field —
//! version 1 is the implicit version of the flow-telemetry records
//! (`place.iter`, `flow.done`, …), which carry no `"v"`. Parsing reuses
//! [`puffer_trace::parse_record`], so any client that speaks the trace
//! schema speaks this protocol.
//!
//! Requests (client → daemon):
//!
//! ```text
//! {"t":"submit","design":"chip.pd","max_iters":300,"deadline_s":60,"out":"chip.pl"}
//! {"t":"cancel","id":3}
//! {"t":"status"}            {"t":"status","id":3}
//! {"t":"wait","id":3,"timeout_s":120}
//! {"t":"ping"}
//! {"t":"drain"}             (graceful: finish queued+running, then exit)
//! {"t":"shutdown"}          (fast: checkpoint running jobs, keep queued for restart)
//! ```
//!
//! Responses (daemon → client) are the `serve.*` records rendered by this
//! module: `serve.ready`, `serve.accepted`, `serve.rejected`,
//! `serve.status`, `serve.jobs`, `serve.result`, `serve.error`,
//! `serve.pong`, `serve.done`.

use puffer_trace::{parse_record, Line, ParsedRecord};
use std::time::Duration;

/// Protocol/schema version stamped into every serve record as `"v"`.
pub const PROTO_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// JSON line writer
// ---------------------------------------------------------------------------

/// Builder for one flat JSON record line carrying `"t"` and `"v"`: the
/// trace schema's [`Line`] with the version stamped first.
#[derive(Debug)]
pub struct JsonLine(Line);

impl JsonLine {
    /// Starts a record of the given kind: `{"t":"<kind>","v":2`.
    pub fn new(kind: &str) -> Self {
        JsonLine(Line::new(kind).int("v", i64::from(PROTO_VERSION)))
    }

    /// Adds a string field.
    pub fn str(self, k: &str, v: &str) -> Self {
        JsonLine(self.0.str(k, v))
    }

    /// Adds an integer field.
    pub fn int(self, k: &str, v: i64) -> Self {
        JsonLine(self.0.int(k, v))
    }

    /// Adds a float field (`{:?}` round-trips f64 exactly; non-finite
    /// values encode as `null`, matching the trace writer).
    pub fn num(self, k: &str, v: f64) -> Self {
        JsonLine(self.0.num_debug(k, v))
    }

    /// Adds a string field only when present.
    pub fn opt_str(self, k: &str, v: Option<&str>) -> Self {
        match v {
            Some(v) => self.str(k, v),
            None => self,
        }
    }

    /// Closes the record (no trailing newline).
    pub fn finish(self) -> String {
        self.0.finish()
    }
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// What kind of work a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKind {
    /// Run the full PUFFER placement flow.
    #[default]
    Place,
    /// Route-evaluate an existing placement (HOF/VOF/WL).
    Eval,
}

impl JobKind {
    fn as_str(self) -> &'static str {
        match self {
            JobKind::Place => "place",
            JobKind::Eval => "eval",
        }
    }
}

/// One job as submitted over the protocol and journaled as `spec.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSpec {
    /// Place or eval.
    pub kind: JobKind,
    /// Path to a design file (`puffer_db::io` text format).
    pub design: Option<String>,
    /// Inline netlist: the same text format carried in the JSON line.
    pub design_text: Option<String>,
    /// Named generator preset (see `puffer_gen::presets::by_name`).
    pub preset: Option<String>,
    /// Scale factor for `preset` (defaults to 1.0).
    pub scale: Option<f64>,
    /// Placement file to evaluate (eval jobs).
    pub placement: Option<String>,
    /// Where to write the final placement (place jobs).
    pub out: Option<String>,
    /// Global-placement iteration cap.
    pub max_iters: Option<usize>,
    /// Worker threads for the flow's parallel kernels.
    pub threads: Option<usize>,
    /// Per-attempt wall-clock deadline in seconds.
    pub deadline_s: Option<f64>,
    /// Chaos injection tag (`panic-once`, `panic`, `<fsx fault class>@N`),
    /// honored by the engine's fault hooks. Only the in-process chaos
    /// harness (and the `spec.json` it journals) may carry one:
    /// [`parse_request`] refuses the field on the wire.
    pub chaos: Option<String>,
}

impl JobSpec {
    /// Checks the spec is runnable: exactly one design source, and eval
    /// jobs name a placement.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the problem.
    pub fn validate(&self) -> Result<(), String> {
        let sources = [
            self.design.is_some(),
            self.design_text.is_some(),
            self.preset.is_some(),
        ]
        .iter()
        .filter(|b| **b)
        .count();
        if sources != 1 {
            return Err(format!(
                "need exactly one design source (design | design_text | preset), got {sources}"
            ));
        }
        if self.kind == JobKind::Eval && self.placement.is_none() {
            return Err("eval jobs need a 'placement' path".into());
        }
        if let Some(s) = self.scale {
            if !(s.is_finite() && s > 0.0) {
                return Err(format!("scale must be a positive number, got {s}"));
            }
        }
        self.deadline().map(|_| ())
    }

    /// `deadline_s` as the `Duration` the engine budgets an attempt with:
    /// the one checked conversion, shared by [`JobSpec::validate`] and the
    /// worker (a `spec.json` recovered from disk never passed `validate`).
    ///
    /// # Errors
    ///
    /// A message when `deadline_s` is not a positive number of seconds a
    /// `Duration` can hold.
    pub(crate) fn deadline(&self) -> Result<Option<Duration>, String> {
        match self.deadline_s {
            None => Ok(None),
            Some(d) if d > 0.0 => Duration::try_from_secs_f64(d)
                .map(Some)
                .map_err(|e| format!("deadline_s {d:?}: {e}")),
            Some(d) => Err(format!("deadline_s must be a positive number, got {d}")),
        }
    }

    /// Reads a spec out of a parsed record (a `submit` request or a
    /// journaled `job.spec` line).
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_record(rec: &ParsedRecord) -> Result<Self, String> {
        let kind = match rec.str_field("kind") {
            None | Some("place") => JobKind::Place,
            Some("eval") => JobKind::Eval,
            Some(other) => return Err(format!("unknown job kind '{other}'")),
        };
        let usize_field = |key: &str| -> Result<Option<usize>, String> {
            match rec.num(key) {
                None => Ok(None),
                Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(Some(v as usize)),
                Some(v) => Err(format!(
                    "field '{key}' must be a non-negative integer, got {v}"
                )),
            }
        };
        Ok(JobSpec {
            kind,
            design: rec.str_field("design").map(str::to_string),
            design_text: rec.str_field("design_text").map(str::to_string),
            preset: rec.str_field("preset").map(str::to_string),
            scale: rec.num("scale"),
            placement: rec.str_field("placement").map(str::to_string),
            out: rec.str_field("out").map(str::to_string),
            max_iters: usize_field("max_iters")?,
            threads: usize_field("threads")?,
            deadline_s: rec.num("deadline_s"),
            chaos: rec.str_field("chaos").map(str::to_string),
        })
    }

    /// Serializes the spec as one `job.spec` record line (the `spec.json`
    /// journal format).
    pub fn render(&self) -> String {
        let mut line = JsonLine::new("job.spec").str("kind", self.kind.as_str());
        line = line
            .opt_str("design", self.design.as_deref())
            .opt_str("design_text", self.design_text.as_deref())
            .opt_str("preset", self.preset.as_deref());
        if let Some(s) = self.scale {
            line = line.num("scale", s);
        }
        line = line
            .opt_str("placement", self.placement.as_deref())
            .opt_str("out", self.out.as_deref());
        if let Some(m) = self.max_iters {
            line = line.int("max_iters", m as i64);
        }
        if let Some(t) = self.threads {
            line = line.int("threads", t as i64);
        }
        if let Some(d) = self.deadline_s {
            line = line.num("deadline_s", d);
        }
        line.opt_str("chaos", self.chaos.as_deref()).finish()
    }

    /// Parses a `job.spec` line written by [`JobSpec::render`].
    ///
    /// # Errors
    ///
    /// A message for unparseable JSON or malformed fields.
    pub fn parse(line: &str) -> Result<Self, String> {
        Self::from_record(&parse_record(line)?)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Cancel a job by id.
    Cancel {
        /// Job id from `serve.accepted`.
        id: u64,
    },
    /// Report one job (`id`) or all jobs.
    Status {
        /// Job id, or `None` for all jobs.
        id: Option<u64>,
    },
    /// Block until a job reaches a terminal state (or the timeout).
    Wait {
        /// Job id from `serve.accepted`.
        id: u64,
        /// Give up after this long (`None` blocks); the wire's `timeout_s`.
        timeout: Option<Duration>,
    },
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: stop admitting, run everything queued, exit.
    Drain,
    /// Fast shutdown: checkpoint running jobs, keep queued jobs journaled
    /// for the next start, exit.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A message for unparseable JSON, an unknown request kind, a missing
/// required field, a `timeout_s` no `Duration` can hold, or a `submit`
/// carrying the harness-only `chaos` field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let rec = parse_record(line)?;
    let id_field = |key: &str| -> Result<u64, String> {
        match rec.num(key) {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
            Some(v) => Err(format!("'{key}' must be a non-negative integer, got {v}")),
            None => Err(format!("request needs an '{key}' field")),
        }
    };
    match rec.kind() {
        // Fault tags never come off the wire: the engine executes them, and
        // the fsx ones arm a process-global hook shared by every job.
        Some("submit") if rec.get("chaos").is_some() => {
            Err("submit: spec field 'chaos' is not accepted over the wire".into())
        }
        Some("submit") => Ok(Request::Submit(Box::new(JobSpec::from_record(&rec)?))),
        Some("cancel") => Ok(Request::Cancel {
            id: id_field("id")?,
        }),
        Some("status") => Ok(Request::Status {
            id: match rec.num("id") {
                None => None,
                Some(_) => Some(id_field("id")?),
            },
        }),
        Some("wait") => Ok(Request::Wait {
            id: id_field("id")?,
            timeout: match rec.num("timeout_s") {
                None => None,
                Some(s) => Some(
                    Duration::try_from_secs_f64(s)
                        .map_err(|e| format!("wait: 'timeout_s' {s:?}: {e}"))?,
                ),
            },
        }),
        Some("ping") => Ok(Request::Ping),
        Some("drain") => Ok(Request::Drain),
        Some("shutdown") => Ok(Request::Shutdown),
        Some(other) => Err(format!("unknown request '{other}'")),
        None => Err("request needs a string 't' field".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_parseable_and_versioned() {
        let line = JsonLine::new("serve.test")
            .str("msg", "a \"quoted\"\nline\t\\")
            .int("n", -3)
            .num("x", 0.1 + 0.2)
            .num("whole", 3.0)
            .num("bad", f64::NAN)
            .finish();
        assert_eq!(
            line,
            r#"{"t":"serve.test","v":2,"msg":"a \"quoted\"\nline\t\\","n":-3,"x":0.30000000000000004,"whole":3.0,"bad":null}"#
        );
        let rec = parse_record(&line).unwrap();
        assert_eq!(rec.kind(), Some("serve.test"));
        assert_eq!(rec.num("v"), Some(2.0));
        assert_eq!(rec.str_field("msg"), Some("a \"quoted\"\nline\t\\"));
        assert_eq!(rec.num("n"), Some(-3.0));
        assert_eq!(rec.num("x"), Some(0.1 + 0.2));
        assert!(matches!(rec.get("bad"), Some(puffer_trace::Value::Null)));
    }

    #[test]
    fn job_spec_round_trips_including_inline_netlists() {
        let spec = JobSpec {
            kind: JobKind::Place,
            design_text: Some("puffer_design 1\nname tiny\n".to_string()),
            out: Some("/tmp/out.pl".to_string()),
            max_iters: Some(120),
            threads: Some(2),
            deadline_s: Some(4.5),
            chaos: Some("torn-write@6".to_string()),
            ..JobSpec::default()
        };
        spec.validate().unwrap();
        let parsed = JobSpec::parse(&spec.render()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn spec_validation_catches_broken_specs() {
        assert!(JobSpec::default().validate().is_err(), "no design source");
        let two = JobSpec {
            design: Some("a.pd".into()),
            preset: Some("or1200".into()),
            ..JobSpec::default()
        };
        assert!(two.validate().is_err(), "two design sources");
        let eval = JobSpec {
            kind: JobKind::Eval,
            design: Some("a.pd".into()),
            ..JobSpec::default()
        };
        assert!(eval.validate().is_err(), "eval without placement");
        let bad_deadline = JobSpec {
            design: Some("a.pd".into()),
            deadline_s: Some(-1.0),
            ..JobSpec::default()
        };
        assert!(bad_deadline.validate().is_err());
        let unrepresentable = JobSpec {
            deadline_s: Some(1e300),
            ..bad_deadline
        };
        let err = unrepresentable.validate().unwrap_err();
        assert!(err.contains("deadline_s"), "{err}");
    }

    #[test]
    fn requests_parse() {
        let r = parse_request(r#"{"t":"submit","design":"d.pd","max_iters":50}"#).unwrap();
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.design.as_deref(), Some("d.pd"));
                assert_eq!(spec.max_iters, Some(50));
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"t":"cancel","id":4}"#).unwrap(),
            Request::Cancel { id: 4 }
        );
        assert_eq!(
            parse_request(r#"{"t":"status"}"#).unwrap(),
            Request::Status { id: None }
        );
        assert_eq!(
            parse_request(r#"{"t":"wait","id":1,"timeout_s":2.5}"#).unwrap(),
            Request::Wait {
                id: 1,
                timeout: Some(Duration::from_millis(2500))
            }
        );
        // A timeout no `Duration` can hold is a bad request naming the
        // field, not a panic in the control loop.
        for bad in ["-1", "1e300"] {
            let err =
                parse_request(&format!(r#"{{"t":"wait","id":1,"timeout_s":{bad}}}"#)).unwrap_err();
            assert!(err.contains("'timeout_s'"), "{err}");
        }
        assert_eq!(parse_request(r#"{"t":"drain"}"#).unwrap(), Request::Drain);
        // A fault tag is harness-only: refused on the wire, naming the field.
        let err = parse_request(r#"{"t":"submit","design":"d.pd","chaos":"panic"}"#).unwrap_err();
        assert!(err.contains("'chaos'"), "{err}");
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"t":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"t":"cancel"}"#).is_err(), "missing id");
        assert!(parse_request(r#"{"t":"cancel","id":1.5}"#).is_err());
    }
}
