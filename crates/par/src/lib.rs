//! Deterministic fork-join layer for PUFFER's parallel kernels.
//!
//! Every parallel loop in the workspace (wirelength gradient, density
//! scatter, 2D transforms, net decomposition, demand accumulation) goes
//! through this crate so there is exactly one chunking/join idiom and one
//! determinism argument:
//!
//! 1. **Fixed chunking by index.** [`chunk_ranges`] splits `0..n` into
//!    contiguous ranges whose boundaries depend only on `n` — never on the
//!    requested thread count. The thread count only decides how many
//!    workers consume the chunk list.
//! 2. **One result per chunk, in chunk order.** [`try_map_chunks`] returns
//!    a `Vec` with one entry per fixed chunk, ordered by chunk index,
//!    regardless of which worker computed it.
//! 3. **Ordered reduction, no atomics.** Callers fold the per-chunk partial
//!    buffers (or scalars) serially in chunk order, e.g. with
//!    [`merge_add`]. Since the fold order and the chunk boundaries are
//!    both independent of the thread count, every f64 addition happens
//!    with exactly the same operands in exactly the same parenthesization
//!    — the result is **bit-identical** for any `--threads` value in
//!    `1..=32`.
//!
//! Atomic f64 accumulation (compare-and-swap loops) would make the merge
//! order depend on scheduling and break checkpoints, golden metrics, and
//! SMBO trajectories; ordered reduction costs one extra pass over the
//! partial buffers and keeps them stable.
//!
//! In-place kernels with no reduction at all (row transforms, per-chunk
//! scatter lists, gradient gathers) use [`for_each_block`], which lends
//! each worker a disjoint part of one slice plus its own reusable scratch.
//!
//! How many workers a job gets is one decision, [`lanes`]: a caller asks
//! it once per design with its `--threads` value, the job's size and the
//! work one lane must have to pay for its spawn, and hands the answer to
//! the primitives below, which then run on exactly that many lanes. A job
//! below two lanes' worth runs on the calling thread and spawns nothing.
//! Since chunk boundaries ignore the lane count, the rule moves no bit.
//!
//! Both primitives run their first span on the calling thread and spawn
//! only the remaining workers. Worker panics never unwind through
//! `thread::scope` (which would abort the process if a second worker also
//! panicked): every handle is joined first and the first panic message is
//! reported as [`WorkerPanic`].

#![forbid(unsafe_code)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use puffer_budget::{clamp_threads, default_threads, MAX_WORKER_THREADS};

/// A worker thread panicked; carries the panic message.
///
/// Crates wrap this in their own error enums (`RouteError::WorkerPanic`,
/// `CongestError::WorkerPanic`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic(pub String);

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker thread panicked: {}", self.0)
    }
}

impl std::error::Error for WorkerPanic {}

/// The lanes a job of `items` work items is worth: one per
/// `items_per_lane` items, at least one and at most `threads` (clamped to
/// `1..=`[`MAX_WORKER_THREADS`]).
///
/// `threads` is therefore an upper bound. A job smaller than two lanes'
/// worth gets one lane, and the primitives spawn nothing for it.
/// `items_per_lane` is the kernel's own calibrated constant; `0` is read
/// as `1`.
pub fn lanes(threads: usize, items: usize, items_per_lane: usize) -> usize {
    clamp_threads(threads).min((items / items_per_lane.max(1)).max(1))
}

/// Splits `0..n` into contiguous index ranges with boundaries that depend
/// only on `n`.
///
/// At most [`MAX_WORKER_THREADS`] chunks are produced (fewer when `n` is
/// small), so per-chunk partial buffers stay bounded. Because the
/// boundaries ignore the thread count, the same work items land in the
/// same chunk no matter how many workers run — the foundation of the
/// bit-identity guarantee.
pub fn chunk_ranges(n: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(MAX_WORKER_THREADS);
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs `work` over the fixed chunks of `0..n` on up to `threads` workers
/// and returns one result per chunk, in chunk-index order.
///
/// `threads` is clamped to `1..=`[`MAX_WORKER_THREADS`] and only controls
/// parallelism: each worker takes a contiguous span of the chunk list and
/// evaluates `work` once per chunk, so the set of `work` calls and the
/// order of the returned results are identical for every thread count.
/// The first span runs on the calling thread and only `threads − 1`
/// workers are spawned; with one worker (or one chunk) nothing is spawned
/// at all. A panicking `work` surfaces as `Err` whichever thread ran it.
///
/// # Errors
///
/// [`WorkerPanic`] with the first observed panic message. Every worker is
/// joined before reporting — also when the panic is in the caller's own
/// span — so a second panicking worker cannot abort the process by
/// re-raising inside `thread::scope`.
pub fn try_map_chunks<T, F>(n: usize, threads: usize, work: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n);
    let threads = clamp_threads(threads).min(ranges.len().max(1));
    let span_len = ranges.len().div_ceil(threads).max(1);
    let spans: Vec<&[Range<usize>]> = ranges.chunks(span_len).collect();
    let per_worker = fork_join(spans, |span| {
        span.iter().map(|r| work(r.clone())).collect::<Vec<T>>()
    })?;
    Ok(per_worker.into_iter().flatten().collect())
}

/// Runs `work` in place over `data`, viewed as consecutive blocks of
/// `block_len` elements, with one entry of `lanes` (reusable per-worker
/// scratch) lent to each worker.
///
/// The blocks are split into at most `lanes.len()` contiguous parts (clamped
/// like a thread count); part `w` is handed to `work` as `(index of its
/// first block, its blocks, &mut lanes[w])`. Part 0 runs on the calling
/// thread. Nothing is reduced across blocks, so `work` must produce each
/// block from that block alone (plus shared read-only state): then the
/// result cannot depend on how many lanes there are, which is the
/// bit-identity argument for every in-place kernel built on this (row
/// transforms, per-chunk scatter lists, gradient gathers).
///
/// # Panics
///
/// If `block_len` is zero or does not divide `data.len()`, or `lanes` is
/// empty. A panicking `work` is re-raised on the calling thread, like
/// [`map_chunks`], under the same join-everything-first contract as
/// [`try_map_chunks`]; `data` is then partially written.
pub fn for_each_block<T, S, F>(data: &mut [T], block_len: usize, lanes: &mut [S], work: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(block_len > 0, "block length must be positive");
    assert_eq!(
        data.len() % block_len,
        0,
        "data is not a whole number of blocks"
    );
    assert!(!lanes.is_empty(), "at least one lane is required");
    let blocks = data.len() / block_len;
    if blocks == 0 {
        return;
    }
    let workers = clamp_threads(lanes.len()).min(blocks);
    let per_worker = blocks.div_ceil(workers);
    let mut jobs = Vec::with_capacity(workers);
    let mut rest = data;
    let mut first = 0;
    for lane in lanes.iter_mut().take(workers) {
        let take = per_worker.min(blocks - first);
        if take == 0 {
            break;
        }
        let (mine, tail) = rest.split_at_mut(take * block_len);
        jobs.push((first, mine, lane));
        rest = tail;
        first += take;
    }
    if let Err(WorkerPanic(msg)) = fork_join(jobs, |(first, mine, lane)| work(first, mine, lane)) {
        std::panic::resume_unwind(Box::new(msg));
    }
}

/// Infallible [`try_map_chunks`]: re-raises a worker panic on the calling
/// thread instead of returning it.
///
/// Use this from code whose callers cannot act on a [`WorkerPanic`] (the
/// GP kernels, the transforms); the panic propagates exactly as if the
/// loop had run serially.
pub fn map_chunks<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    match try_map_chunks(n, threads, work) {
        Ok(v) => v,
        Err(WorkerPanic(msg)) => std::panic::resume_unwind(Box::new(msg)),
    }
}

/// Adds `partial` into `out` element-wise.
///
/// Folding per-chunk partial buffers with this in chunk-index order is the
/// sanctioned deterministic reduction: the operand order per element is
/// fixed by the chunk boundaries, which [`chunk_ranges`] derives from `n`
/// alone.
///
/// # Panics
///
/// If the buffer lengths differ.
pub fn merge_add(out: &mut [f64], partial: &[f64]) {
    assert_eq!(out.len(), partial.len(), "partial buffer length mismatch");
    for (dst, src) in out.iter_mut().zip(partial) {
        *dst += *src;
    }
}

/// Runs `f` on the current thread with panic isolation: a panic becomes a
/// [`WorkerPanic`] carrying the panic message instead of unwinding.
///
/// This is the per-unit-of-work isolation primitive behind the serve job
/// engine: a worker thread wraps each job body in `run_isolated`, so a
/// panicking job fails *that job* with a structured error while the worker
/// (and the pool) keeps running. `AssertUnwindSafe` is sound under the same
/// argument as the caller's own span in [`try_map_chunks`]: a panicking closure's
/// partial results are dropped, never observed. Callers sharing mutexes
/// with `f` must tolerate poison (e.g. `PoisonError::into_inner`).
///
/// # Errors
///
/// [`WorkerPanic`] with the panic message when `f` panics.
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, WorkerPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| WorkerPanic(panic_message(&*payload)))
}

/// Runs a pool of `workers` copies of `work` on scoped threads while
/// `control` runs on the calling thread, and joins every worker before
/// returning `control`'s result.
///
/// This is the long-lived-pool counterpart of [`try_map_chunks`]: instead
/// of splitting a fixed index space, each worker is a loop (typically
/// draining a shared queue) that exits when the caller's own shutdown
/// condition fires. The contract that makes the join safe:
///
/// * `stop` is **always** invoked after `control` finishes — even when
///   `control` panics (the panic is caught and reported as `Err`). `stop`
///   must make every `work` loop exit (close the queue, set a flag), or the
///   join blocks forever.
/// * A panicking `work` loop terminates only that worker; the panic is
///   swallowed at the pool boundary (per-job isolation inside the loop is
///   the caller's responsibility via [`run_isolated`]). Callers that care
///   about pool integrity should count live workers and compare against
///   `workers` — the serve rows of the chaos test target do exactly this.
///
/// `workers` is clamped to `1..=`[`MAX_WORKER_THREADS`].
///
/// # Errors
///
/// [`WorkerPanic`] when `control` itself panicked; workers are still
/// stopped and joined first, so the pool never leaks.
#[expect(
    clippy::disallowed_methods,
    reason = "puffer-par is the fork-join layer: its scoped threads are the workspace's only spawns"
)]
pub fn run_pool<T, W, C, S>(workers: usize, work: W, control: C, stop: S) -> Result<T, WorkerPanic>
where
    W: Fn(usize) + Sync,
    C: FnOnce() -> T,
    S: FnOnce(),
{
    let workers = clamp_threads(workers);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|idx| {
                scope.spawn(move || {
                    let _ = run_isolated(|| work(idx));
                })
            })
            .collect();
        let out = run_isolated(control);
        stop();
        for h in handles {
            // Worker bodies are isolated above; join cannot see a panic.
            let _ = h.join();
        }
        out
    })
}

/// The one fork-join: runs `run` once per job — job 0 on the calling
/// thread, the others on scoped workers — and returns the results in job
/// order.
///
/// Every worker is joined before anything is reported. Draining all
/// handles matters: unwinding out of `thread::scope` on the first panic
/// (the caller's own job included, hence the `catch_unwind`) would let the
/// scope's drop re-raise a second worker's panic mid-unwind and abort the
/// process. `AssertUnwindSafe` is sound because a panicking job's partial
/// results are dropped, never observed.
#[expect(
    clippy::disallowed_methods,
    reason = "puffer-par is the fork-join layer: its scoped threads are the workspace's only spawns"
)]
fn fork_join<J, R, F>(jobs: Vec<J>, run: F) -> Result<Vec<R>, WorkerPanic>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let mut jobs = jobs.into_iter();
    let Some(mine) = jobs.next() else {
        return Ok(Vec::new());
    };
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.map(|job| scope.spawn(move || run(job))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        let mut first_panic: Option<String> = None;
        let results = std::iter::once(catch_unwind(AssertUnwindSafe(|| run(mine))))
            .chain(handles.into_iter().map(|h| h.join()));
        for result in results {
            match result {
                Ok(v) => out.push(v),
                // `&*payload`: reborrow the boxed payload itself — a plain
                // `&payload` would coerce the `Box` into the `dyn Any` and
                // every downcast would miss.
                Err(payload) => {
                    first_panic.get_or_insert_with(|| panic_message(&*payload));
                }
            }
        }
        match first_panic {
            None => Ok(out),
            Some(msg) => Err(WorkerPanic(msg)),
        }
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_the_index_space() {
        for n in [0usize, 1, 2, 31, 32, 33, 100, 2300, 65536] {
            let ranges = chunk_ranges(n);
            assert!(ranges.len() <= MAX_WORKER_THREADS, "n={n}");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "gap/overlap at n={n}");
                assert!(r.end > r.start, "empty chunk at n={n}");
                next = r.end;
            }
            assert_eq!(next, n, "coverage at n={n}");
        }
    }

    #[test]
    fn results_arrive_in_chunk_order_for_every_thread_count() {
        let expected = chunk_ranges(1000);
        for t in [1usize, 2, 3, 7, 8, 32, 64] {
            let got = map_chunks(1000, t, |r| r.clone());
            assert_eq!(got, expected, "threads={t}");
        }
    }

    #[test]
    fn ordered_reduction_is_bit_identical_across_thread_counts() {
        // Awkward magnitudes so any change in addition order flips bits.
        let data: Vec<f64> = (0..4096)
            .map(|i| ((i as f64) * 0.37 + 1.0e-7).sin() * 10f64.powi((i % 13) - 6))
            .collect();
        let n_bins = 17;
        let run = |threads: usize| -> (Vec<u64>, u64) {
            let partials = map_chunks(data.len(), threads, |r| {
                let mut bins = vec![0.0f64; n_bins];
                let mut total = 0.0f64;
                for i in r {
                    bins[i % n_bins] += data[i];
                    total += data[i];
                }
                (bins, total)
            });
            let mut bins = vec![0.0f64; n_bins];
            for (p, _) in &partials {
                merge_add(&mut bins, p);
            }
            let total = partials.iter().fold(0.0, |acc, (_, t)| acc + t);
            (bins.iter().map(|v| v.to_bits()).collect(), total.to_bits())
        };
        let baseline = run(1);
        for t in [2usize, 3, 5, 8, 16, 32] {
            assert_eq!(run(t), baseline, "threads={t}");
        }
    }

    #[test]
    fn panicking_chunks_become_an_error_not_an_abort() {
        // Two panicking chunks: the second must not abort the process
        // while the scope unwinds from the first.
        let err = try_map_chunks(64, 4, |r| {
            if r.contains(&3) {
                panic!("worker one exploded");
            }
            if r.contains(&40) {
                std::panic::panic_any("worker two exploded".to_string());
            }
            r.len()
        })
        .unwrap_err();
        assert!(err.0.contains("exploded"), "{err}");
        assert!(err.to_string().contains("worker thread panicked"), "{err}");
    }

    #[test]
    fn inline_path_reports_panics_like_the_threaded_path() {
        let err = try_map_chunks(10, 1, |r| {
            if r.contains(&3) {
                panic!("inline chunk exploded");
            }
            r.len()
        })
        .unwrap_err();
        assert!(err.0.contains("inline chunk exploded"), "{err}");
    }

    #[test]
    fn first_span_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = map_chunks(64, 2, |r| (r.start, std::thread::current().id()));
        assert_eq!(
            ran_on[0],
            (0, caller),
            "chunk 0 belongs to the caller's span"
        );
        let last = ran_on.last().unwrap();
        assert_ne!(last.1, caller, "the second span runs on a spawned worker");
    }

    #[test]
    fn a_job_gets_one_lane_per_lanes_worth_of_items() {
        let caller = std::thread::current().id();
        let ran_on = |n: usize, lanes: usize| -> Vec<std::thread::ThreadId> {
            let mut ids = map_chunks(n, lanes, |_| std::thread::current().id());
            ids.dedup();
            ids
        };
        // Below two lanes' worth: every chunk on the caller, whatever the
        // thread count.
        for threads in [1usize, 2, 4, 32] {
            for n in [0usize, 1, 999, 1999] {
                let lanes = lanes(threads, n, 1000);
                assert_eq!(lanes, 1, "threads {threads}, {n} items");
                assert!(
                    ran_on(n, lanes).iter().all(|&id| id == caller),
                    "threads {threads}, {n} items left the caller"
                );
            }
        }
        // Above it: one lane per lane's worth, up to the thread count and
        // the chunk count; each lane is its own thread.
        assert_eq!(lanes(4, 2000, 1000), 2);
        assert_eq!(lanes(4, 3999, 1000), 3);
        for (threads, n) in [
            (2usize, 64_000usize),
            (4, 64_000),
            (8, 3),
            (usize::MAX, 64_000),
        ] {
            let lanes = lanes(threads, n, 1);
            let chunks = chunk_ranges(n).len();
            assert_eq!(
                lanes,
                clamp_threads(threads).min(n),
                "threads {threads}, {n} items"
            );
            let ids = ran_on(n, lanes);
            assert_eq!(
                ids.len(),
                clamp_threads(threads).min(chunks),
                "threads {threads}"
            );
            assert_eq!(ids[0], caller, "lane 0 is the caller's");
            let distinct: std::collections::BTreeSet<String> =
                ids.iter().map(|id| format!("{id:?}")).collect();
            assert_eq!(
                distinct.len(),
                ids.len(),
                "threads {threads}: a lane ran twice"
            );
        }
        assert_eq!(lanes(2, 5, 0), 2, "0 items per lane reads as 1");
    }

    /// Which threads' spans panic in the contract tests below.
    #[derive(Clone, Copy, Debug)]
    enum Exploding {
        CallerOnly,
        WorkerOnly,
        Both,
    }

    const WHO: [Exploding; 3] = [
        Exploding::CallerOnly,
        Exploding::WorkerOnly,
        Exploding::Both,
    ];

    fn explode(who: Exploding, caller_span: bool) {
        match (who, caller_span) {
            (Exploding::CallerOnly | Exploding::Both, true) => panic!("caller span exploded"),
            (Exploding::WorkerOnly | Exploding::Both, false) => panic!("worker span exploded"),
            _ => {}
        }
    }

    #[test]
    fn map_chunks_joins_everything_before_reporting_any_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for who in WHO {
            // 64 items = 32 two-item chunks; at 4 threads the caller owns
            // chunks 0..8 (items 0..16). Every span counts the chunks it
            // survives: all of them must have finished by the time the
            // error is returned.
            let finished = AtomicUsize::new(0);
            let err = try_map_chunks(64, 4, |r| {
                if r.start == 0 {
                    explode(who, true);
                } else if r.start == 16 || r.start == 48 {
                    explode(who, false);
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
            assert!(err.0.contains("span exploded"), "{who:?}: {err}");
            let expect = match who {
                Exploding::CallerOnly => 32 - 8,
                Exploding::WorkerOnly => 32 - 16,
                Exploding::Both => 8,
            };
            assert_eq!(finished.load(Ordering::SeqCst), expect, "{who:?}");
        }
    }

    #[test]
    fn for_each_block_covers_every_block_once_with_its_own_lane() {
        for lanes in [1usize, 2, 3, 5, 40] {
            let mut data = vec![0u32; 7 * 3];
            let mut scratch = vec![0usize; lanes];
            for_each_block(&mut data, 3, &mut scratch, |first, blocks, lane| {
                for (k, block) in blocks.chunks_exact_mut(3).enumerate() {
                    for v in block {
                        *v += (first + k) as u32 + 1;
                    }
                    *lane += 1;
                }
            });
            let expect: Vec<u32> = (0..7u32).flat_map(|b| [b + 1; 3]).collect();
            assert_eq!(data, expect, "lanes={lanes}");
            assert_eq!(scratch.iter().sum::<usize>(), 7, "lanes={lanes}");
            assert!(scratch[0] > 0, "lane 0 is the caller's and is never idle");
        }
        let mut empty: Vec<u32> = Vec::new();
        for_each_block(&mut empty, 4, &mut [()], |_, _, _| {
            unreachable!("no blocks")
        });
    }

    #[test]
    fn for_each_block_joins_everything_before_reporting_any_panic() {
        for who in WHO {
            let mut data = vec![0u8; 12];
            let mut lanes = [(); 3];
            let err = run_isolated(|| {
                for_each_block(&mut data, 1, &mut lanes, |first, blocks, ()| {
                    if first == 0 {
                        explode(who, true);
                    } else if first == 4 {
                        explode(who, false);
                    }
                    blocks.fill(1);
                })
            })
            .unwrap_err();
            assert!(err.0.contains("span exploded"), "{who:?}: {err}");
            // Part 2 (blocks 8..12) never panics: it must have completed.
            assert_eq!(data[8..], [1; 4], "{who:?}");
        }
    }

    #[test]
    #[should_panic(expected = "re-raised")]
    fn map_chunks_re_raises_worker_panics() {
        let _ = map_chunks(8, 2, |r| {
            if r.start == 0 {
                panic!("re-raised");
            }
            r.len()
        });
    }

    #[test]
    fn zero_items_yield_no_chunks() {
        let got: Vec<usize> = map_chunks(0, 8, |r| r.len());
        assert!(got.is_empty());
        assert!(chunk_ranges(0).is_empty());
    }

    #[test]
    fn run_isolated_returns_values_and_captures_panics() {
        assert_eq!(run_isolated(|| 41 + 1), Ok(42));
        let err = run_isolated(|| -> usize { panic!("job exploded") }).unwrap_err();
        assert!(err.0.contains("job exploded"), "{err}");
    }

    #[test]
    fn run_pool_drains_a_shared_queue_and_joins_cleanly() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let done = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let out = run_pool(
            3,
            |_idx| {
                while !stop.load(Ordering::Relaxed) {
                    done.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
            || {
                // Hold the pool open until a worker has provably run: a
                // control that returns at once can stop the pool before any
                // worker is scheduled.
                while done.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                "control result"
            },
            || stop.store(true, Ordering::Relaxed),
        );
        assert_eq!(out, Ok("control result"));
        assert!(done.load(Ordering::Relaxed) > 0, "workers ran");
    }

    #[test]
    fn run_pool_survives_worker_panics_and_reports_control_panics() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = AtomicBool::new(false);
        // Every worker panics instantly; control panics too. The pool must
        // still stop, join, and report the control panic as Err — not abort.
        let err = run_pool(
            2,
            |idx| panic!("worker {idx} exploded"),
            || -> usize { panic!("control exploded") },
            || stop.store(true, Ordering::Relaxed),
        )
        .unwrap_err();
        assert!(err.0.contains("control exploded"), "{err}");
        assert!(stop.load(Ordering::Relaxed), "stop ran despite the panic");
    }

    #[test]
    fn thread_count_is_clamped_not_trusted() {
        // usize::MAX threads must not try to spawn unboundedly.
        let got = map_chunks(100, usize::MAX, |r| r.len());
        assert_eq!(got.iter().sum::<usize>(), 100);
    }
}
