//! Hierarchical RAII span timers and their aggregated statistics.

use crate::Inner;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    /// Number of times the span closed.
    pub count: u64,
    /// Total seconds across all closes.
    pub total: f64,
    /// Shortest single span in seconds.
    pub min: f64,
    /// Longest single span in seconds.
    pub max: f64,
}

impl SpanStats {
    fn new() -> Self {
        SpanStats {
            count: 0,
            total: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    fn observe(&mut self, elapsed: f64) {
        self.count += 1;
        self.total += elapsed;
        self.min = self.min.min(elapsed);
        self.max = self.max.max(elapsed);
    }

    /// Mean seconds per close (`0.0` before the first close).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

/// The per-handle span state: the stack of currently open labels plus the
/// per-path statistics.
#[derive(Debug, Default)]
pub(crate) struct SpanRegistry {
    stack: Vec<&'static str>,
    stats: BTreeMap<String, SpanStats>,
}

impl SpanRegistry {
    /// Pushes a label and returns the depth the matching guard must
    /// truncate back to on drop.
    pub(crate) fn open(&mut self, label: &'static str) -> usize {
        self.stack.push(label);
        self.stack.len() - 1
    }

    /// Closes the span opened at `depth`, folding `elapsed` into the stats
    /// of its full path. Truncation (rather than a pop) keeps the stack
    /// consistent even if inner guards were leaked by a caller panic.
    pub(crate) fn close(&mut self, depth: usize, elapsed: f64) {
        if depth >= self.stack.len() {
            return; // already closed by an outer guard's truncation
        }
        let path = self.stack[..=depth].join("/");
        self.stack.truncate(depth);
        self.stats
            .entry(path)
            .or_insert_with(SpanStats::new)
            .observe(elapsed);
    }

    pub(crate) fn stats(&self) -> Vec<(String, SpanStats)> {
        self.stats.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// RAII guard returned by [`crate::Trace::span`]; records the elapsed time
/// when dropped. A guard from a disabled trace does nothing.
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<(Arc<Inner>, usize, Instant)>,
}

impl SpanGuard {
    pub(crate) fn noop() -> Self {
        SpanGuard { state: None }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a span is a wall-clock measurement; spans are how other crates time a stage"
    )]
    pub(crate) fn open(inner: Arc<Inner>, depth: usize) -> Self {
        SpanGuard {
            state: Some((inner, depth, Instant::now())),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, depth, start)) = self.state.take() {
            crate::Trace::close_span(&inner, depth, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_paths_join_with_slash() {
        let mut r = SpanRegistry::default();
        let a = r.open("flow");
        let b = r.open("gp");
        r.close(b, 0.25);
        r.close(a, 1.0);
        let stats = r.stats();
        assert_eq!(stats[0].0, "flow");
        assert_eq!(stats[1].0, "flow/gp");
        assert_eq!(stats[1].1.count, 1);
        assert!((stats[1].1.total - 0.25).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_close_is_tolerated() {
        let mut r = SpanRegistry::default();
        let outer = r.open("outer");
        let inner = r.open("inner");
        // Outer closes first (e.g. the inner guard leaked across a panic):
        // the truncation retires "inner" too, and the late close is ignored.
        r.close(outer, 1.0);
        r.close(inner, 0.5);
        let stats = r.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "outer");
    }

    #[test]
    fn mean_of_empty_stats_is_zero() {
        assert_eq!(SpanStats::new().mean(), 0.0);
    }
}
