//! Lock-order discipline: declared lock classes, an ordered-acquisition
//! wrapper, and a `lockcheck`-feature runtime sanitizer.
//!
//! Every `Mutex` in non-test library code belongs to a [`LockClass`]
//! declared in [`classes`], and is acquired through [`lock_ordered`] (or
//! re-wrapped with [`Locked::from_guard`] after a condvar wait). The
//! classes carry a global **rank**: a thread may only acquire a class
//! whose rank is strictly greater than every class it already holds, so
//! the "acquired while held" relation is a sub-relation of `<` on ranks —
//! acyclic by construction, which rules out lock-order-inversion
//! deadlocks across the serve engine, the admission queue, the RSMT
//! caches, and the trace registry.
//!
//! Enforcement is layered:
//!
//! * **statically** — `puffer lint` extracts every acquisition site,
//!   builds the lock-order graph over a per-crate call graph, and fails on
//!   a cycle or on an edge that contradicts the declared ranks (it parses
//!   the rank table straight out of this file, so there is exactly one
//!   copy of the order);
//! * **at runtime** — with the `lockcheck` cargo feature, a thread-local
//!   held-lock stack asserts the rank discipline on every acquisition,
//!   catching orders the static pass cannot see (callbacks, trait objects,
//!   cross-crate call chains). Without the feature every check compiles
//!   to nothing and [`Token`] is a zero-sized no-op.
//!
//! The sanitizer *asserts* (aborting the offending test or chaos run) —
//! a lock-order inversion is a latent deadlock, never a recoverable
//! condition.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A named lock class with its global acquisition rank. Instances are the
/// `static`s in [`classes`]; call sites never construct ad-hoc classes.
#[derive(Debug)]
pub struct LockClass {
    /// Stable dotted name, e.g. `"serve.jobs"` — what the static analyzer
    /// and the sanitizer's failure message report.
    pub name: &'static str,
    /// Global acquisition rank: higher ranks must be acquired strictly
    /// after (inside) lower ranks, never the other way around.
    pub rank: u16,
}

impl LockClass {
    /// Declares a class; used only by [`classes`].
    #[must_use]
    pub const fn new(name: &'static str, rank: u16) -> Self {
        LockClass { name, rank }
    }
}

/// The declared global lock order, lowest (outermost) rank first.
///
/// `puffer lint` parses this module's source to build its rank table, so
/// the declaration below is the single source of truth for both the
/// static lock-order analysis and the runtime sanitizer. Keep one class
/// per `pub static` line, in rank order.
pub mod classes {
    use super::LockClass;

    /// The serve admission queue's state (`BoundedQueue::state`).
    pub static SERVE_QUEUE: LockClass = LockClass::new("serve.queue", 10);
    /// The serve engine's job table (`Shared::jobs`).
    pub static SERVE_JOBS: LockClass = LockClass::new("serve.jobs", 20);
    /// The per-chunk RSMT decomposition caches in `puffer-congest`.
    pub static CONGEST_RSMT: LockClass = LockClass::new("congest.rsmt", 30);
    /// The trace span registry.
    pub static TRACE_SPANS: LockClass = LockClass::new("trace.spans", 40);
    /// The trace counter table.
    pub static TRACE_COUNTERS: LockClass = LockClass::new("trace.counters", 41);
    /// The trace gauge table.
    pub static TRACE_GAUGES: LockClass = LockClass::new("trace.gauges", 42);
    /// The trace JSONL sink.
    pub static TRACE_SINK: LockClass = LockClass::new("trace.sink", 44);
    /// The trace first-write-error slot.
    pub static TRACE_ERROR: LockClass = LockClass::new("trace.error", 45);
}

#[cfg(feature = "lockcheck")]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// Classes this thread currently holds, in acquisition order. The
        /// rank discipline keeps it strictly increasing, so checking the
        /// top suffices.
        pub(super) static HELD: RefCell<Vec<(&'static str, u16)>> =
            const { RefCell::new(Vec::new()) };
    }
}

/// RAII record of one acquisition on this thread's held-lock stack.
///
/// With the `lockcheck` feature, creating a token asserts the rank
/// discipline and pushes the class; dropping it pops. Without the feature
/// it is zero-sized and free.
#[derive(Debug)]
pub struct Token {
    #[cfg(feature = "lockcheck")]
    class: &'static LockClass,
}

impl Token {
    /// Records (and, under `lockcheck`, validates) an acquisition of
    /// `class` on the current thread.
    ///
    /// # Panics
    ///
    /// With the `lockcheck` feature, when the thread already holds a class
    /// of equal or higher rank — a lock-order inversion.
    #[must_use]
    pub fn acquire(class: &'static LockClass) -> Token {
        #[cfg(feature = "lockcheck")]
        held::HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&(top_name, top_rank)) = held.last() {
                assert!(
                    top_rank < class.rank,
                    "lock-order violation: acquiring '{}' (rank {}) while holding '{}' \
                     (rank {}) — acquisitions must follow the declared order in \
                     puffer_budget::lockcheck::classes",
                    class.name,
                    class.rank,
                    top_name,
                    top_rank,
                );
            }
            held.push((class.name, class.rank));
        });
        #[cfg(not(feature = "lockcheck"))]
        let _ = class;
        Token {
            #[cfg(feature = "lockcheck")]
            class,
        }
    }
}

#[cfg(feature = "lockcheck")]
impl Drop for Token {
    fn drop(&mut self) {
        held::HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Guards usually drop LIFO, but paired destructuring can
            // release out of order; remove the last record of this class.
            if let Some(pos) = held.iter().rposition(|&(name, _)| name == self.class.name) {
                held.remove(pos);
            }
        });
    }
}

/// A `MutexGuard` tagged with its lock class. Dereferences to the data;
/// releases the class record when dropped.
#[derive(Debug)]
pub struct Locked<'a, T> {
    guard: MutexGuard<'a, T>,
    token: Token,
}

impl<'a, T> Locked<'a, T> {
    /// Splits off the raw guard (e.g. to hand to `Condvar::wait_timeout`,
    /// which releases the mutex); the class record is popped, mirroring
    /// the release. Re-wrap the reacquired guard with
    /// [`Locked::from_guard`].
    pub fn into_guard(self) -> MutexGuard<'a, T> {
        // `token` drops here, popping the class record.
        let Locked { guard, token: _token } = self;
        guard
    }

    /// Tags a raw guard (re)acquired out-of-band — the return path from a
    /// condvar wait. Performs the same rank check as [`lock_ordered`].
    #[must_use]
    pub fn from_guard(guard: MutexGuard<'a, T>, class: &'static LockClass) -> Locked<'a, T> {
        Locked {
            guard,
            token: Token::acquire(class),
        }
    }
}

impl<T> Deref for Locked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Locked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Acquires `m` under `class`: the one sanctioned way to lock a classed
/// mutex. Recovers poisoned guards — every classed mutex in the workspace
/// guards plain data that a panicking holder cannot leave half-moved, and
/// telemetry/serving must keep working after a panic-isolated worker dies.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the one raw Mutex::lock every classed acquisition goes through"
)]
pub fn lock_ordered<'a, T>(m: &'a Mutex<T>, class: &'static LockClass) -> Locked<'a, T> {
    let token = Token::acquire(class);
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    Locked { guard, token }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_ordered_derefs_to_the_data() {
        let m = Mutex::new(7u32);
        {
            let mut g = lock_ordered(&m, &classes::SERVE_JOBS);
            *g += 1;
        }
        assert_eq!(*lock_ordered(&m, &classes::SERVE_JOBS), 8);
    }

    #[test]
    fn in_order_nesting_is_accepted() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _qa = lock_ordered(&a, &classes::SERVE_QUEUE);
        let _qb = lock_ordered(&b, &classes::SERVE_JOBS);
        // Dropping in reverse order unwinds the held stack cleanly.
    }

    #[test]
    fn into_guard_releases_the_class_record() {
        let m = Mutex::new(());
        let g = lock_ordered(&m, &classes::TRACE_SINK);
        let raw = g.into_guard();
        // The class record is popped: acquiring a *lower* rank now is fine
        // even under the sanitizer, exactly as after a condvar release.
        let n = Mutex::new(());
        let _low = lock_ordered(&n, &classes::SERVE_QUEUE);
        drop(raw);
    }

    #[test]
    fn classes_are_strictly_ranked() {
        let ranks = [
            &classes::SERVE_QUEUE,
            &classes::SERVE_JOBS,
            &classes::CONGEST_RSMT,
            &classes::TRACE_SPANS,
            &classes::TRACE_COUNTERS,
            &classes::TRACE_GAUGES,
            &classes::TRACE_SINK,
            &classes::TRACE_ERROR,
        ];
        for pair in ranks.windows(2) {
            assert!(pair[0].rank < pair[1].rank, "{} vs {}", pair[0].name, pair[1].name);
        }
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn inverted_acquisition_trips_the_sanitizer() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        // trace.sink (rank 44) then serve.jobs (rank 20): inverted.
        let _hi = lock_ordered(&a, &classes::TRACE_SINK);
        let _lo = lock_ordered(&b, &classes::SERVE_JOBS);
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_class_reentry_trips_the_sanitizer() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _one = lock_ordered(&a, &classes::SERVE_JOBS);
        let _two = lock_ordered(&b, &classes::SERVE_JOBS);
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    fn release_then_reacquire_lower_is_clean() {
        let hi = Mutex::new(());
        let lo = Mutex::new(());
        drop(lock_ordered(&hi, &classes::TRACE_ERROR));
        let _q = lock_ordered(&lo, &classes::SERVE_QUEUE);
    }
}
