//! Flow observability for PUFFER: span timers, counters, and a
//! per-iteration telemetry sink.
//!
//! The strategy exploration of the paper (§II-E) tunes the whole flow from
//! a single scalar objective; this crate provides the instrumentation that
//! shows *why* a trial behaved the way it did. It is deliberately
//! zero-dependency and pay-for-what-you-use:
//!
//! * [`Trace`] — a cheaply cloneable handle threaded through the flow. A
//!   disabled trace ([`Trace::disabled`], the default everywhere) is a
//!   no-op: every instrumentation call checks one `Option` and returns
//!   without allocating, so hot loops cost nothing when nobody listens.
//! * [`SpanGuard`] — RAII scope timers with nesting. Dropping the guard
//!   records the elapsed time under the span's *path* (`"gp/pad/congest"`),
//!   and per-path statistics (count/total/min/max/mean) accumulate in the
//!   handle; see [`Trace::span`] and [`Trace::span_stats`].
//! * counters — monotonic [`Trace::add`] metrics by name.
//! * the JSONL sink — [`Trace::with_sink`] appends one JSON object per
//!   [`Trace::record`] to a file, one line per record, flushed at line
//!   granularity so a crash can lose at most the line being written (the
//!   reader skips an unterminated trailing line). This is the same
//!   crash-discipline as the checkpoint journal: previously written state
//!   is never corrupted by a later failure.
//!
//! # Record schema
//!
//! Every record is a flat JSON object whose `"t"` field names the record
//! kind. The kinds emitted by the workspace crates:
//!
//! | kind | emitted by | fields |
//! |---|---|---|
//! | `place.iter` | `puffer-place` | `iter`, `hpwl`, `overflow`, `gamma`, `lambda`, `alpha`, `recoveries` |
//! | `place.recover` | `puffer-place` | `iter`, `reason` |
//! | `congest.round` | `puffer-congest` | `overflow_h`, `overflow_v`, `demand`, `capacity`, `congested`, `h_hist`, `v_hist` |
//! | `pad.round` | `puffer-pad` | `round`, `utilization`, `target_utilization`, `padded_cells`, `recycled_cells`, `scale` |
//! | `explore.trial` | `puffer-explore` | `trial`, `status`, `objective`, `params` |
//! | `flow.init` | `puffer` (core) | `scale_class`, `cells`, `congest_coarsen`, `gp_halves`, `lanes_wa`, `lanes_scatter`, `lanes_transform`, `lanes_gather` |
//! | `flow.done` | `puffer` (core) | `runtime_s`, `gp_iterations`, `pad_rounds`, `hpwl`, `overflow` |
//! | `route.done` | `puffer` (core) | `hof_pct`, `vof_pct`, `wirelength`, `overflow_gcells`, `rounds`, `segments`, `reroutes`, `reroutes_kept`, `reroutes_reused`, `maze_pops`, `maze_pushes` |
//! | `flow.degrade` | `puffer` (core) | `step`, `fraction_remaining`, `iter` |
//! | `chaos.inject` | `puffer` (core, the `nan-burst` hook of `Job::with_chaos`) | `class`, `at`, `magnitude` |
//! | `span` | [`Trace::write_summary`] | `label`, `count`, `total_s`, `mean_s`, `min_s`, `max_s` |
//! | `counter` | [`Trace::write_summary`] | `name`, `value` |
//!
//! Every field listed is written with its record. The metrics audit
//! (`puffer trace`) requires the worker counts of `flow.init` (`gp_halves`
//! and the four `lanes_*`) and the seven search counters of `route.done`
//! (`segments` through `maze_pushes`) wherever those records appear.
//!
//! ## Schema versions
//!
//! The flow-telemetry records above predate explicit versioning and carry
//! no version field — readers should treat a missing `"v"` as **v1**. The
//! `puffer-serve` job-engine records (`serve.*`, `job.spec`, and the
//! request kinds) are **v2** and declare it with a `"v": 2` field on every
//! record; they reuse this crate's record shape (flat JSON object, `"t"`
//! kind field), so [`parse_record`]/[`read_jsonl`] read both generations.
//! Any future breaking change to either family must bump `"v"` rather
//! than silently change field meanings.
//!
//! # Example
//!
//! ```
//! use puffer_trace::Trace;
//! let trace = Trace::enabled();
//! {
//!     let _flow = trace.span("flow");
//!     let _gp = trace.span("gp");
//!     trace.record("place.iter").int("iter", 1).num("hpwl", 123.5).write();
//!     trace.add("recoveries", 1);
//! }
//! let stats = trace.span_stats();
//! assert_eq!(stats[1].0, "flow/gp");
//! assert!(trace.summary_table().contains("flow/gp"));
//! ```

#![forbid(unsafe_code)]

pub mod jsonl;
pub mod span;

pub use jsonl::{escape_into, parse_record, read_jsonl, Line, ParsedRecord, TraceError, Value};
pub use span::{SpanGuard, SpanStats};

use jsonl::JsonlSink;
use puffer_budget::lockcheck::lock_leaf;
use span::SpanRegistry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    start: Instant,
    spans: Mutex<SpanRegistry>,
    counters: Mutex<BTreeMap<String, u64>>,
    sink: Option<Mutex<JsonlSink>>,
}

/// A cheaply cloneable telemetry handle.
///
/// Clones share the same span statistics, metrics, and sink. The default
/// handle is [`Trace::disabled`], under which every method is a no-op that
/// performs no allocation.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
}

impl Trace {
    /// The no-op handle: every instrumentation call returns immediately.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// An in-memory handle: spans and counters accumulate, but
    /// [`Trace::record`] goes nowhere (no sink).
    #[expect(
        clippy::disallowed_methods,
        reason = "a trace's timestamps are offsets from this one clock read"
    )]
    pub fn enabled() -> Self {
        Trace {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                spans: Mutex::new(SpanRegistry::default()),
                counters: Mutex::new(BTreeMap::new()),
                sink: None,
            })),
        }
    }

    /// A handle writing one JSON line per [`Trace::record`] to `path`
    /// (truncating an existing file), in addition to the in-memory
    /// statistics of [`Trace::enabled`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    #[expect(
        clippy::disallowed_methods,
        reason = "a trace's timestamps are offsets from this one clock read"
    )]
    pub fn with_sink(path: impl AsRef<Path>) -> Result<Self, std::io::Error> {
        let sink = JsonlSink::create(path.as_ref())?;
        Ok(Trace {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                spans: Mutex::new(SpanRegistry::default()),
                counters: Mutex::new(BTreeMap::new()),
                sink: Some(Mutex::new(sink)),
            })),
        })
    }

    /// Whether this handle observes anything. Hot paths may use this to
    /// skip computing values that exist only for telemetry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a nested RAII span: the time between this call and the
    /// returned guard's drop is recorded under the concatenated path of all
    /// currently open spans (e.g. `"gp/pad/congest"`).
    ///
    /// Nesting is tracked per handle, not per thread: open spans from one
    /// logical control flow (the placement stages). Worker threads should
    /// emit records or counters instead.
    pub fn span(&self, label: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => {
                let depth = lock_leaf(&inner.spans).open(label);
                SpanGuard::open(Arc::clone(inner), depth)
            }
        }
    }

    pub(crate) fn close_span(inner: &Arc<Inner>, depth: usize, elapsed: f64) {
        lock_leaf(&inner.spans).close(depth, elapsed);
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&self, counter: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = lock_leaf(&inner.counters);
            match counters.get_mut(counter) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(counter.to_string(), delta);
                }
            }
        }
    }

    /// Starts a telemetry record of the given kind. Fields are added with
    /// the builder methods and the record is appended to the sink by
    /// [`Record::write`]. With no sink (or a disabled handle) the builder
    /// is a no-op that never allocates.
    pub fn record(&self, kind: &str) -> Record<'_> {
        match &self.inner {
            Some(inner) if inner.sink.is_some() => Record {
                dst: Some((inner, Line::new(kind))),
            },
            _ => Record { dst: None },
        }
    }

    /// Snapshot of all span statistics, sorted by path.
    pub fn span_stats(&self) -> Vec<(String, SpanStats)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock_leaf(&inner.spans).stats(),
        }
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock_leaf(&inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Renders the per-stage timing table (one row per span path).
    pub fn summary_table(&self) -> String {
        let stats = self.span_stats();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
            "stage", "calls", "total", "mean", "min", "max"
        ));
        for (path, s) in &stats {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
                path,
                s.count,
                fmt_secs(s.total),
                fmt_secs(s.mean()),
                fmt_secs(s.min),
                fmt_secs(s.max)
            ));
        }
        for (name, v) in self.counters() {
            out.push_str(&format!("counter {name:<20} {v}\n"));
        }
        out
    }

    /// Writes one `span` record per span path and one `counter` record per
    /// counter to the sink, so the JSONL file is self-contained. Call once,
    /// at the end of a run.
    pub fn write_summary(&self) {
        for (path, s) in self.span_stats() {
            self.record("span")
                .str("label", &path)
                .int("count", s.count as i64)
                .num("total_s", s.total)
                .num("mean_s", s.mean())
                .num("min_s", s.min)
                .num("max_s", s.max)
                .write();
        }
        for (name, v) in self.counters() {
            self.record("counter")
                .str("name", &name)
                .int("value", v as i64)
                .write();
        }
    }

    /// Flushes the sink to stable storage (`fsync`) and reports the first
    /// write error encountered since the last flush (record writes
    /// themselves never fail the flow).
    ///
    /// # Errors
    ///
    /// A structured [`TraceError::Io`] naming the sink file, wrapping the
    /// stored write error or the fsync failure — records are never
    /// silently dropped: either they are durable or this reports why not.
    pub fn flush(&self) -> Result<(), TraceError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let Some(sink) = &inner.sink else {
            return Ok(());
        };
        let mut sink = lock_leaf(sink);
        sink.flush().map_err(|source| TraceError::Io {
            path: sink.path().to_path_buf(),
            source,
        })
    }
}

/// Formats a duration in adaptive units.
fn fmt_secs(s: f64) -> String {
    if !s.is_finite() {
        "-".to_string()
    } else if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Builder for one JSONL record; see [`Trace::record`]. Dropping the
/// builder without calling [`Record::write`] discards the record.
#[must_use = "call .write() to append the record to the sink"]
pub struct Record<'a> {
    /// The owning trace and the partially built JSON line; `None` when the
    /// trace is disabled or has no sink.
    dst: Option<(&'a Inner, Line)>,
}

impl Record<'_> {
    fn with(mut self, field: impl FnOnce(Line) -> Line) -> Self {
        self.dst = self.dst.map(|(inner, line)| (inner, field(line)));
        self
    }

    /// Adds a numeric field (non-finite values become JSON `null`).
    pub fn num(self, key: &str, value: f64) -> Self {
        self.with(|line| line.num(key, value))
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, value: i64) -> Self {
        self.with(|line| line.int(key, value))
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.with(|line| line.str(key, value))
    }

    /// Adds an array-of-numbers field (non-finite entries become `null`).
    pub fn nums(self, key: &str, values: &[f64]) -> Self {
        self.with(|line| line.nums(key, values))
    }

    /// Closes the record, stamps it with `elapsed_s` (first field after the
    /// kind) and appends it to the sink (one line, flushed).
    /// Write failures are stored on the sink and surfaced by
    /// [`Trace::flush`]; they never interrupt the instrumented flow.
    pub fn write(self) {
        let Some((inner, line)) = self.dst else {
            return;
        };
        let Some(sink) = inner.sink.as_ref() else {
            return; // record() only hands out a dst when a sink exists
        };
        let mut sink = lock_leaf(sink);
        // The clock is read under the sink lock, so `elapsed_s` never
        // decreases in file order however many threads write.
        let elapsed_s = inner.start.elapsed().as_secs_f64();
        sink.write_line(&line.finish_stamped(elapsed_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_a_noop() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("x");
            t.add("c", 3);
            t.record("k")
                .num("a", 1.0)
                .int("b", 2)
                .str("c", "d")
                .write();
        }
        assert!(t.span_stats().is_empty());
        assert!(t.counters().is_empty());
        t.flush().unwrap();
    }

    #[test]
    fn spans_nest_into_paths() {
        let t = Trace::enabled();
        {
            let _a = t.span("flow");
            {
                let _b = t.span("gp");
                let _c = t.span("pad");
            }
            let _d = t.span("legal");
        }
        let paths: Vec<String> = t.span_stats().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["flow", "flow/gp", "flow/gp/pad", "flow/legal"]);
    }

    #[test]
    fn span_stats_accumulate() {
        let t = Trace::enabled();
        for _ in 0..5 {
            let _s = t.span("loop");
        }
        let stats = t.span_stats();
        assert_eq!(stats.len(), 1);
        let (path, s) = &stats[0];
        assert_eq!(path, "loop");
        assert_eq!(s.count, 5);
        assert!(s.total >= s.max && s.max >= s.min && s.min >= 0.0);
        assert!(s.mean() <= s.max);
    }

    #[test]
    fn counters_accumulate() {
        let t = Trace::enabled();
        t.add("recoveries", 1);
        t.add("recoveries", 2);
        assert_eq!(t.counters(), vec![("recoveries".to_string(), 3)]);
    }

    #[test]
    fn summary_table_lists_stages_and_counters() {
        let t = Trace::enabled();
        {
            let _s = t.span("gp");
        }
        t.add("steps", 7);
        let table = t.summary_table();
        assert!(table.contains("gp"), "{table}");
        assert!(table.contains("steps"), "{table}");
        assert!(table.contains("stage"), "{table}");
    }

    #[test]
    fn clones_share_state() {
        let t = Trace::enabled();
        let u = t.clone();
        u.add("shared", 2);
        assert_eq!(t.counters(), vec![("shared".to_string(), 2)]);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("puffer-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn sink_roundtrip() {
        let path = tmp("roundtrip.jsonl");
        let t = Trace::with_sink(&path).unwrap();
        t.record("place.iter")
            .int("iter", 3)
            .num("hpwl", 123.25)
            .num("bad", f64::NAN)
            .str("note", "a \"quoted\" stage\n")
            .nums("hist", &[1.0, 2.5])
            .write();
        {
            let _s = t.span("gp");
        }
        t.add("steps", 1);
        t.write_summary();
        t.flush().unwrap();

        let records = read_jsonl(&path).unwrap();
        assert!(records.len() >= 3, "{}", records.len());
        let first = &records[0];
        assert_eq!(first.kind(), Some("place.iter"));
        assert_eq!(first.num("iter"), Some(3.0));
        assert_eq!(first.num("hpwl"), Some(123.25));
        assert!(matches!(first.get("bad"), Some(Value::Null)));
        assert_eq!(first.str_field("note"), Some("a \"quoted\" stage\n"));
        assert_eq!(
            first.get("hist"),
            Some(&Value::Arr(vec![Some(1.0), Some(2.5)]))
        );
        assert!(first.num("elapsed_s").unwrap() >= 0.0);
        let kinds: Vec<&str> = records.iter().filter_map(|r| r.kind()).collect();
        assert!(kinds.contains(&"span"));
        assert!(kinds.contains(&"counter"));
    }

    #[test]
    fn a_record_is_stamped_when_written_not_when_started() {
        let path = tmp("stamp-order.jsonl");
        let t = Trace::with_sink(&path).unwrap();
        let started_first = t.record("slow").int("n", 1);
        t.record("quick").write();
        started_first.write();
        t.flush().unwrap();

        let records = read_jsonl(&path).unwrap();
        let kinds: Vec<&str> = records.iter().filter_map(|r| r.kind()).collect();
        assert_eq!(kinds, ["quick", "slow"]);
        assert!(records[0].num("elapsed_s") <= records[1].num("elapsed_s"));
        // The stamp still sits right after the kind.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"t\":\"") && l.contains("\",\"elapsed_s\":")));
        assert!(
            text.lines().nth(1).unwrap().ends_with(",\"n\":1}"),
            "{text}"
        );
    }

    #[test]
    fn parallel_writers_land_whole_lines_with_nondecreasing_stamps() {
        let path = tmp("parallel.jsonl");
        let t = Trace::with_sink(&path).unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for writer in 0..4 {
                let (t, start) = (t.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for seq in 0..200 {
                        t.record("w").int("writer", writer).int("seq", seq).write();
                    }
                });
            }
        });
        t.flush().unwrap();

        let records = read_jsonl(&path).unwrap(); // every line parses
        assert_eq!(records.len(), 4 * 200);
        let stamps: Vec<f64> = records.iter().filter_map(|r| r.num("elapsed_s")).collect();
        assert_eq!(stamps.len(), records.len());
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "stamps out of file order"
        );
        // Each writer's own records kept their order.
        for writer in 0..4 {
            let seqs: Vec<f64> = records
                .iter()
                .filter(|r| r.num("writer") == Some(f64::from(writer)))
                .filter_map(|r| r.num("seq"))
                .collect();
            assert_eq!(seqs, (0..200).map(f64::from).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sink_errors_surface_in_flush() {
        // Write into a directory path: creation already fails.
        let dir = tmp("as-dir");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Trace::with_sink(&dir).is_err());
    }
}
