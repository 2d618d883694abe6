//! A bounded MPMC admission queue with explicit backpressure.
//!
//! The serve engine's admission path never buffers unboundedly: a full
//! queue rejects the push with [`PushError::Full`] so the protocol layer
//! can tell the client *why* (reject-with-reason), instead of letting the
//! daemon's memory footprint track a misbehaving submitter. Consumers poll
//! with a timeout so worker loops can interleave shutdown checks.

use puffer_budget::clock::Deadline;
use puffer_budget::lockcheck::{lock_leaf, Locked};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the caller should reject the work item
    /// back to its producer with this reason.
    Full {
        /// The configured capacity, for the rejection message.
        capacity: usize,
    },
    /// The queue was closed; no further items are admitted.
    Closed,
}

/// What a timed pop observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue open but empty.
    Empty,
    /// The queue is closed: consumers should wind down. Items still queued
    /// at close time are deliberately *not* handed out — a closing engine
    /// leaves them journaled on disk for the next start.
    Closed,
}

/// The bounded queue (see the module docs).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` (≥ 1) items at a time.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    // A worker panicking between lock and unlock poisons the mutex; the
    // queue state is a VecDeque whose operations never leave it half-moved,
    // so recovering the guard is sound (lock_leaf does exactly that).
    fn lock(&self) -> Locked<'_, State<T>> {
        lock_leaf(&self.state)
    }

    /// Admits `item` without blocking, returning the new queue length.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity (the explicit-backpressure path) and
    /// [`PushError::Closed`] after [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<usize, PushError> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full {
                capacity: self.capacity,
            });
        }
        s.items.push_back(item);
        let len = s.items.len();
        drop(s);
        self.cv.notify_one();
        Ok(len)
    }

    /// Admits `item` ignoring the capacity bound. Recovery-scan use only:
    /// jobs journaled by a previous process were already admitted once and
    /// must not be dropped because the restart found more of them than the
    /// live admission window allows.
    pub fn restore(&self, item: T) {
        let mut s = self.lock();
        if s.closed {
            return;
        }
        s.items.push_back(item);
        drop(s);
        self.cv.notify_one();
    }

    /// Dequeues one item, waiting up to `timeout` for one to arrive.
    pub fn pop_timeout(&self, timeout: Duration) -> Popped<T> {
        let deadline = Deadline::after(timeout);
        let mut s = self.lock();
        loop {
            if s.closed {
                return Popped::Closed;
            }
            if let Some(item) = s.items.pop_front() {
                return Popped::Item(item);
            }
            if deadline.expired() {
                return Popped::Empty;
            }
            // The condvar wait releases the mutex; split off the held
            // record for the wait and re-attach it on wake-up.
            let (guard, _) = self
                .cv
                .wait_timeout(s.into_guard(), deadline.remaining())
                .unwrap_or_else(PoisonError::into_inner);
            s = Locked::from_guard(guard);
        }
    }

    /// Removes a queued item matching `pred` (first match), e.g. a job
    /// cancelled before any worker picked it up. Returns whether one was
    /// removed.
    pub fn remove_where(&self, pred: impl Fn(&T) -> bool) -> bool {
        let mut s = self.lock();
        if let Some(pos) = s.items.iter().position(pred) {
            s.items.remove(pos);
            return true;
        }
        false
    }

    /// Closes the queue: pending and future pops observe [`Popped::Closed`]
    /// and pushes fail. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpressure_rejects_with_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full { capacity: 2 }));
        assert_eq!(q.len(), 2);
        // Draining one slot re-opens admission.
        assert_eq!(q.pop_timeout(Duration::ZERO), Popped::Item(1));
        assert_eq!(q.try_push(3), Ok(2));
    }

    #[test]
    fn restore_ignores_capacity_for_recovered_work() {
        let q = BoundedQueue::new(1);
        q.restore(1);
        q.restore(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full { capacity: 1 }));
    }

    #[test]
    fn pop_times_out_then_sees_items() {
        let q = BoundedQueue::new(4);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(5)),
            Popped::<u64>::Empty
        );
        q.try_push(7u64).unwrap();
        assert_eq!(q.pop_timeout(Duration::ZERO), Popped::Item(7));
    }

    #[test]
    fn close_wakes_waiters_and_stops_admission() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        // Closed beats queued items: leftovers stay journaled on disk.
        assert_eq!(q.pop_timeout(Duration::from_secs(1)), Popped::Closed);
    }

    #[test]
    fn cancelled_items_can_be_removed_while_queued() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(q.remove_where(|i| *i == 1));
        assert!(!q.remove_where(|i| *i == 1));
        assert_eq!(q.pop_timeout(Duration::ZERO), Popped::Item(2));
    }
}
