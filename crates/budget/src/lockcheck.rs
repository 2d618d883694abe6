//! The leaf-lock rule: no thread acquires a mutex while holding another.
//!
//! Every `Mutex` in non-test library code is acquired through
//! [`lock_leaf`] (or re-wrapped with [`Locked::from_guard`] after a
//! condvar wait). A thread that holds at most one lock cannot take part in
//! a lock-order inversion, so there is no order to declare or to check:
//! the serve queue, the job table and the trace registries are each
//! locked, used, and released before the next one.
//!
//! Under `cfg(debug_assertions)` a thread-local remembers where the held
//! acquisition was made, and a second one panics naming both sites — so
//! every debug-profile test of every crate asserts the rule. Release
//! builds compile the bookkeeping to nothing.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[cfg(debug_assertions)]
thread_local! {
    /// Where this thread made the acquisition it currently holds.
    static HELD: std::cell::Cell<Option<&'static std::panic::Location<'static>>> =
        const { std::cell::Cell::new(None) };
}

/// RAII record of this thread's one held acquisition; zero-sized and free
/// without `debug_assertions`.
#[derive(Debug)]
struct Held;

impl Held {
    #[track_caller]
    fn enter() -> Held {
        #[cfg(debug_assertions)]
        {
            let here = std::panic::Location::caller();
            HELD.with(|held| {
                let first = held.get();
                assert!(
                    first.is_none(),
                    "leaf-lock violation: {here} acquires a mutex while this thread still holds \
                     the one acquired at {} — no thread may hold two \
                     (puffer_budget::lockcheck)",
                    first.unwrap_or(here),
                );
                held.set(Some(here));
            });
        }
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(None));
    }
}

/// A `MutexGuard` that counts as this thread's one held lock.
/// Dereferences to the data; releases the record when dropped.
#[derive(Debug)]
pub struct Locked<'a, T> {
    guard: MutexGuard<'a, T>,
    held: Held,
}

impl<'a, T> Locked<'a, T> {
    /// Splits off the raw guard to hand to `Condvar::wait_timeout`, which
    /// releases the mutex; the held record is released with it. Re-wrap
    /// the reacquired guard with [`Locked::from_guard`].
    pub fn into_guard(self) -> MutexGuard<'a, T> {
        let Locked {
            guard,
            held: _released,
        } = self;
        guard
    }

    /// Wraps a raw guard reacquired by a condvar wait, with the same check
    /// as [`lock_leaf`].
    #[must_use]
    #[track_caller]
    pub fn from_guard(guard: MutexGuard<'a, T>) -> Locked<'a, T> {
        Locked {
            guard,
            held: Held::enter(),
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

/// Acquires `m`: the one sanctioned way to lock a mutex. Recovers poisoned
/// guards — every mutex in the workspace guards plain data that a
/// panicking holder cannot leave half-moved, and telemetry/serving must
/// keep working after a panic-isolated worker dies.
///
/// # Panics
///
/// In debug builds, when this thread already holds a [`Locked`] guard.
#[must_use]
#[track_caller]
#[expect(
    clippy::disallowed_methods,
    reason = "the one raw Mutex::lock every acquisition goes through"
)]
pub fn lock_leaf<T>(m: &Mutex<T>) -> Locked<'_, T> {
    // Checked before blocking, so re-locking the same mutex is reported
    // instead of deadlocking.
    let held = Held::enter();
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    Locked { guard, held }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn lock_leaf_derefs_to_the_data() {
        let m = Mutex::new(7u32);
        {
            let mut g = lock_leaf(&m);
            *g += 1;
        }
        assert_eq!(*lock_leaf(&m), 8);
    }

    #[test]
    fn release_then_reacquire_is_clean() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        drop(lock_leaf(&a));
        drop(lock_leaf(&b));
        {
            let _scoped = lock_leaf(&a);
        }
        let _again = lock_leaf(&a);
    }

    #[test]
    fn into_guard_releases_the_record_and_from_guard_rearms_it() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let other = Mutex::new(());
        let raw = lock_leaf(&m).into_guard();
        // Released: exactly as during a condvar wait, another lock is fine.
        drop(lock_leaf(&other));
        let (raw, _) = cv
            .wait_timeout(raw, Duration::from_millis(1))
            .unwrap_or_else(PoisonError::into_inner);
        let rearmed = Locked::from_guard(raw);
        #[cfg(debug_assertions)]
        {
            let nested = std::panic::catch_unwind(|| drop(lock_leaf(&other)));
            assert!(nested.is_err(), "from_guard must re-arm the held record");
        }
        drop(rearmed);
        drop(lock_leaf(&other));
    }

    #[test]
    fn poisoned_mutex_is_recovered() {
        let m = Mutex::new(3u32);
        let poisoner = std::panic::catch_unwind(|| {
            let _g = lock_leaf(&m);
            panic!("poison the mutex");
        });
        assert!(poisoner.is_err());
        assert!(m.is_poisoned());
        // The unwound guard released the held record along with the mutex.
        assert_eq!(*lock_leaf(&m), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_acquisition_panics_naming_both_sites() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let first_line = line!() + 1;
        let _outer = lock_leaf(&a);
        let second_line = line!() + 1;
        let nested = std::panic::catch_unwind(|| drop(lock_leaf(&b)));
        let payload = nested.expect_err("a second acquisition must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("leaf-lock violation"), "{message}");
        for line in [first_line, second_line] {
            let site = format!("{}:{line}:", file!());
            assert!(message.contains(&site), "{site} not in: {message}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaf-lock violation")]
    fn relocking_the_held_mutex_panics_instead_of_deadlocking() {
        let m = Mutex::new(());
        let _outer = lock_leaf(&m);
        let _inner = lock_leaf(&m);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaf-lock violation")]
    fn a_second_per_chunk_cache_guard_panics() {
        // One mutex per chunk, all of one kind (a shape any per-chunk
        // cache would take): same-kind re-entry is nesting like any other.
        let caches: Vec<Mutex<BTreeMap<u64, u32>>> =
            (0..2).map(|_| Mutex::new(BTreeMap::new())).collect();
        let _chunk0 = lock_leaf(&caches[0]);
        let _chunk1 = lock_leaf(&caches[1]);
    }
}
