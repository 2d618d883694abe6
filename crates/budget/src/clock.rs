//! The workspace's wall-clock facade.
//!
//! `clippy.toml` disallows raw `Instant::now()` / `SystemTime::now()` in
//! non-test library code (`scripts/policy.sh`): ad-hoc clock reads are how
//! nondeterminism leaks into code that is supposed to be bit-identical
//! run-to-run. Code that legitimately measures durations (stage timing,
//! idle detection) or bounds waits (backoff, condvar timeouts) goes through
//! these two types instead, which keeps every clock read auditable.
//!
//! Neither type lets a caller observe an absolute timestamp: a
//! [`Stopwatch`] yields only durations since its own start and a
//! [`Deadline`] only the time left until its own expiry, so neither can be
//! (mis)used to key results off wall-clock time.

#![expect(
    clippy::disallowed_methods,
    reason = "the wall-clock facade itself: the clock reads everyone else is sent here for"
)]

use std::time::{Duration, Instant};

/// Measures elapsed time from its creation: the stage-timing primitive.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the watch now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time since [`Stopwatch::start`], in seconds — the unit every trace
    /// record and report field uses.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A fixed point in the future: the bounded-wait primitive for backoff
/// sleeps and condvar timeouts.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// The deadline `d` from now. Saturates at the far future on overflow.
    #[must_use]
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now()
                .checked_add(d)
                .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400 * 365)),
        }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left, saturating at zero once expired — safe to hand directly
    /// to `Condvar::wait_timeout` or `thread::sleep`.
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(sw.elapsed() >= Duration::from_millis(5));
        assert!(sw.elapsed_secs() > 0.0);
    }

    #[test]
    fn deadline_expires_and_remaining_saturates() {
        let d = Deadline::after(Duration::from_millis(5));
        assert!(d.remaining() <= Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn zero_deadline_is_immediately_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
    }
}
