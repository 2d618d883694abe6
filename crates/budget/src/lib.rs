//! Cooperative execution budgets for the PUFFER flow.
//!
//! Every long-running stage of the flow (Nesterov iterations, congestion
//! rounds, SMBO trials, rip-up routing rounds, detailed-placement passes)
//! checks a [`Budget`] at its loop boundary. An expired deadline or an
//! external [`CancelToken`] then produces a clean best-so-far result (or a
//! typed `Cancelled` error where no partial result exists) instead of a
//! `kill -9`. On top of the raw budget sit two cooperating mechanisms:
//!
//! * the degradation ladder — the constant order ([`DegradeStep::ALL`]) in
//!   which every loop polling a bounded budget steps down fidelity as the
//!   deadline nears (coarsen congestion estimation at 50 % of the budget
//!   left, freeze padding updates at 35 %, cap remaining SMBO trials at
//!   20 %, early-exit global placement at 8 %), tracked by [`LadderState`];
//! * [`FaultClass`]/[`ChaosPlan`] — the deterministic fault-injection
//!   vocabulary consumed by the [`fsx`] fault hook, the core flow's
//!   [`ChaosPlan`] hook and the workspace's chaos test harness
//!   (`tests/chaos/harness.rs`).
//!
//! The crate sits at layer 0 of the workspace (no dependencies), so every
//! stage crate can consume it without violating the downward-only layering
//! that `crates/audit/tests/lint_fixtures.rs` enforces. It also hosts the
//! worker-thread sizing helpers shared by the router and the congestion
//! estimator, and the one sanctioned `unsafe` block in the workspace: the
//! [`signal`] module's binding to `signal(2)` behind
//! [`CancelToken::cancel_on_signal`].

// `deny` rather than `forbid`: the `signal` module below carries the single
// `#[expect(unsafe_code)]` in the workspace (`DENY_UNSAFE_ROOTS` in
// `crates/audit/tests/lint_fixtures.rs` names this root).
#![deny(unsafe_code)]

pub mod clock;
pub mod fsx;
pub mod lockcheck;
pub mod mem;

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Process signals
// ---------------------------------------------------------------------------

/// Process-signal integration for [`CancelToken::cancel_on_signal`].
///
/// The workspace is otherwise `forbid(unsafe_code)`; this module is the one
/// sanctioned exception. It binds the C `signal(2)` entry point directly —
/// the symbol links through std's libc dependency, so no crate dependency is
/// added — because an async-signal-safe handler may do nothing more than set
/// a flag, which is exactly what a relaxed atomic store is.
#[expect(
    unsafe_code,
    reason = "binds signal(2) so SIGINT/SIGTERM feed cooperative cancellation; the handler is one relaxed atomic store"
)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler, never cleared: signal delivery is sticky for the
    /// life of the process, so tokens created after a SIGTERM are born
    /// cancelled — exactly what a drain-then-exit path wants.
    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    /// POSIX signal numbers (Linux). Declared here rather than pulled from a
    /// libc crate the workspace does not depend on.
    pub const SIGINT: i32 = 2;
    /// See [`SIGINT`].
    pub const SIGTERM: i32 = 15;

    /// C `sighandler_t`: a handler receives the delivered signal number.
    type Handler = extern "C" fn(i32);

    extern "C" {
        /// POSIX `signal(2)`. The returned previous handler is opaque here;
        /// it is never restored.
        fn signal(signum: i32, handler: Handler) -> usize;
        /// POSIX `raise(3)`; used by the tests to deliver a real signal.
        #[cfg(test)]
        fn raise(signum: i32) -> i32;
    }

    /// The installed handler: async-signal-safe by construction — a single
    /// relaxed atomic store, no allocation, no locks, no formatting.
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }

    /// Installs the flag-setting handler for SIGINT and SIGTERM.
    /// Idempotent: re-installing the same handler is harmless.
    pub fn install() {
        // SAFETY: `on_signal` matches the C handler ABI and performs only an
        // atomic store, which is async-signal-safe; `signal` itself is a
        // plain FFI call with no pointer arguments.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether SIGINT or SIGTERM has been delivered since [`install`].
    pub fn signalled() -> bool {
        SIGNALLED.load(Ordering::Relaxed)
    }

    /// Test hook: delivers `signum` to the current process for real.
    #[cfg(test)]
    pub fn deliver(signum: i32) {
        // SAFETY: `raise` is a plain FFI call with no pointer arguments.
        unsafe {
            raise(signum);
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Why a budget check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cancelled {
    /// The wall-clock deadline expired.
    Deadline,
    /// The [`CancelToken`] was triggered externally.
    Token,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cancelled::Deadline => f.write_str("deadline expired"),
            Cancelled::Token => f.write_str("cancelled by token"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// A shareable cancellation flag. Cloning shares the flag: cancelling any
/// clone cancels them all, so one token can fan out across worker threads.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    on_signal: bool,
}

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that also trips once the process receives SIGINT or SIGTERM,
    /// turning either signal into the same cooperative cancellation an
    /// explicit [`CancelToken::cancel`] produces (checkpoint, legalize the
    /// best-so-far state, exit cleanly — never die mid-write).
    ///
    /// Installs a process-wide flag-setting handler (idempotent). Signal
    /// delivery is sticky for the life of the process, so signal-aware
    /// tokens created afterwards are born cancelled.
    pub fn cancel_on_signal() -> Self {
        signal::install();
        CancelToken {
            flag: Arc::default(),
            on_signal: true,
        }
    }

    /// Triggers the token; every [`Budget`] carrying it fails its next
    /// check. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been triggered (explicitly, or — for tokens
    /// from [`CancelToken::cancel_on_signal`] — by a process signal).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.signal_received()
    }

    /// Whether a process signal (as opposed to an explicit `cancel`)
    /// tripped this token. Always `false` for signal-unaware tokens; lets
    /// callers word their "stopping early" message accurately.
    pub fn signal_received(&self) -> bool {
        self.on_signal && signal::signalled()
    }
}

/// A cooperative execution budget: an optional wall-clock deadline plus a
/// shared [`CancelToken`]. Checking is cheap (one `Instant::now()` and one
/// relaxed atomic load), so loops may check every iteration.
///
/// Cloning shares the token and keeps the same absolute deadline, so a
/// budget handed down to a sub-stage counts against the same wall clock.
#[derive(Debug, Clone)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    total: Option<Duration>,
    token: CancelToken,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unbounded()
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "a deadline is a wall-clock reading; Budget is how every other crate gets one"
)]
impl Budget {
    /// A budget that never expires (checks always succeed unless the token
    /// is cancelled).
    pub fn unbounded() -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
            total: None,
            token: CancelToken::new(),
        }
    }

    /// A budget expiring `limit` from now. A `limit` past the end of the
    /// monotonic clock's range can never expire, so it is unbounded.
    pub fn with_deadline(limit: Duration) -> Self {
        let started = Instant::now();
        Budget {
            started,
            deadline: started.checked_add(limit),
            total: Some(limit),
            token: CancelToken::new(),
        }
    }

    /// Replaces the cancel token (e.g. to share one token across several
    /// budgets), returning `self` for chaining.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// The shared cancellation token.
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Whether a deadline is attached at all.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some()
    }

    /// The cooperative cancellation point: `Err` once the deadline expired
    /// or the token fired.
    ///
    /// # Errors
    ///
    /// [`Cancelled::Token`] when the token fired (checked first, so an
    /// explicit cancel wins over a simultaneous deadline),
    /// [`Cancelled::Deadline`] when the wall clock passed the deadline.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.token.is_cancelled() {
            return Err(Cancelled::Token);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(Cancelled::Deadline),
            _ => Ok(()),
        }
    }

    /// `check()` as a boolean, for loop conditions.
    pub fn is_exhausted(&self) -> bool {
        self.check().is_err()
    }

    /// Remaining wall-clock time, `None` when unbounded. Zero once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Fraction of the budget still available in `[0, 1]`; `1.0` for an
    /// unbounded budget. This is what the [`DegradeStep::default_threshold`]s
    /// are compared against.
    pub fn fraction_remaining(&self) -> f64 {
        match (self.remaining(), self.total) {
            (Some(rem), Some(total)) if total > Duration::ZERO => {
                (rem.as_secs_f64() / total.as_secs_f64()).clamp(0.0, 1.0)
            }
            (Some(_), _) => 0.0,
            (None, _) => 1.0,
        }
    }

    /// Time elapsed since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

// ---------------------------------------------------------------------------
// Graceful degradation
// ---------------------------------------------------------------------------

/// One fidelity step the flow can give up as the deadline nears, in the
/// paper-flow vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeStep {
    /// Coarsen the congestion-estimation grid (cheaper, blurrier maps).
    CoarseCongestion,
    /// Stop updating the cell padding (keep the accumulated padding).
    FreezePadding,
    /// Cap the remaining SMBO exploration trials.
    CapTrials,
    /// Exit global placement at the current overflow and legalize.
    EarlyExitGp,
}

impl DegradeStep {
    /// Every step, in ladder order.
    pub const ALL: [DegradeStep; 4] = [
        DegradeStep::CoarseCongestion,
        DegradeStep::FreezePadding,
        DegradeStep::CapTrials,
        DegradeStep::EarlyExitGp,
    ];

    /// The CLI / journal / trace spelling of the step.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeStep::CoarseCongestion => "coarse-congestion",
            DegradeStep::FreezePadding => "freeze-padding",
            DegradeStep::CapTrials => "cap-trials",
            DegradeStep::EarlyExitGp => "early-exit-gp",
        }
    }

    /// The fraction-remaining threshold at which the step engages.
    /// Ordered: cheaper fidelity losses engage earlier.
    pub fn default_threshold(self) -> f64 {
        match self {
            DegradeStep::CoarseCongestion => 0.50,
            DegradeStep::FreezePadding => 0.35,
            DegradeStep::CapTrials => 0.20,
            DegradeStep::EarlyExitGp => 0.08,
        }
    }
}

impl FromStr for DegradeStep {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DegradeStep::ALL
            .into_iter()
            .find(|step| step.as_str() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = DegradeStep::ALL.iter().map(|s| s.as_str()).collect();
                format!(
                    "unknown degradation step '{s}' (known: {})",
                    known.join(", ")
                )
            })
    }
}

/// Engagement state of the degradation ladder over one run: the rungs of
/// [`DegradeStep::ALL`] engaged so far, in engagement order.
#[derive(Debug, Clone, Default)]
pub struct LadderState {
    engaged: Vec<DegradeStep>,
}

impl LadderState {
    /// A state past `steps` (a resumed run's journaled rungs): they count as
    /// engaged and never engage again.
    pub fn resumed(steps: &[DegradeStep]) -> Self {
        LadderState {
            engaged: steps.to_vec(),
        }
    }

    /// Engages every rung whose [`DegradeStep::default_threshold`] the
    /// budget's remaining fraction has dropped to and returns the newly
    /// engaged ones, in ladder order. Rungs engage at most once; an
    /// unbounded budget never engages anything.
    pub fn poll(&mut self, budget: &Budget) -> Vec<DegradeStep> {
        if !budget.is_bounded() {
            return Vec::new();
        }
        let frac = budget.fraction_remaining();
        let fresh: Vec<DegradeStep> = DegradeStep::ALL
            .into_iter()
            .filter(|s| frac <= s.default_threshold() && !self.engaged.contains(s))
            .collect();
        self.engaged.extend(&fresh);
        fresh
    }

    /// Whether `step` has engaged.
    pub fn is_engaged(&self, step: DegradeStep) -> bool {
        self.engaged.contains(&step)
    }

    /// The rungs engaged so far, in engagement order.
    pub fn engaged(&self) -> &[DegradeStep] {
        &self.engaged
    }
}

// ---------------------------------------------------------------------------
// Deterministic chaos vocabulary
// ---------------------------------------------------------------------------

/// The fault classes the chaos harness injects at instrumented points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A burst of NaN coordinates poisons the placer trajectory.
    NanBurst,
    /// The disk reports ENOSPC part-way through a durable write (either
    /// mid-data or at the commit rename).
    DiskFull,
    /// A write lands only half its bytes and then the process "crashes"
    /// (the [`fsx`] hook reports an I/O error after a short write).
    TornWrite,
    /// `fsync` fails: the data may be in the page cache but durability is
    /// not guaranteed.
    FsyncFail,
    /// The commit `rename` of an atomic replace fails.
    RenameFail,
    /// A guarded read ends early mid-parse (the stream dies before the
    /// file does), as if the file were truncated under the reader.
    ShortRead,
}

impl FaultClass {
    /// The filesystem fault classes, injected by the [`fsx`] hook rather
    /// than the flow-level chaos plan.
    pub const FS: [FaultClass; 5] = [
        FaultClass::DiskFull,
        FaultClass::TornWrite,
        FaultClass::FsyncFail,
        FaultClass::RenameFail,
        FaultClass::ShortRead,
    ];

    /// The CLI / trace spelling of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::NanBurst => "nan-burst",
            FaultClass::DiskFull => "disk-full",
            FaultClass::TornWrite => "torn-write",
            FaultClass::FsyncFail => "fsync-fail",
            FaultClass::RenameFail => "rename-fail",
            FaultClass::ShortRead => "short-read",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One deterministic injection: fire `class` when the instrumented stage
/// reaches iteration `at`, with a class-specific `magnitude` (cells to
/// poison). Consumed by the core flow (`Job::with_chaos`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Which fault to inject.
    pub class: FaultClass,
    /// The loop index at which it fires.
    pub at: usize,
    /// Class-specific intensity (poisoned cells).
    pub magnitude: usize,
}

// ---------------------------------------------------------------------------
// Worker-thread sizing (shared by route and congest)
// ---------------------------------------------------------------------------

/// Upper clamp for worker pools: beyond this, per-thread overhead dominates
/// on the net-decomposition workloads both users run.
pub const MAX_WORKER_THREADS: usize = 32;

/// Clamps a requested worker count into `1..=MAX_WORKER_THREADS`.
pub fn clamp_threads(requested: usize) -> usize {
    requested.clamp(1, MAX_WORKER_THREADS)
}

/// The default worker-thread count: the machine's available parallelism,
/// clamped into `1..=MAX_WORKER_THREADS`; 4 when the machine will not say.
pub fn default_threads() -> usize {
    clamp_threads(
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_never_expires() {
        let b = Budget::unbounded();
        assert!(b.check().is_ok());
        assert!(!b.is_exhausted());
        assert_eq!(b.fraction_remaining(), 1.0);
        assert!(b.remaining().is_none());
        assert!(!b.is_bounded());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(Cancelled::Deadline));
        assert!(b.is_exhausted());
        assert_eq!(b.fraction_remaining(), 0.0);
    }

    #[test]
    fn deadline_past_the_clock_range_never_expires() {
        // `Instant + Duration::MAX` overflows; the budget must not.
        let b = Budget::with_deadline(Duration::MAX);
        assert!(b.check().is_ok());
        assert_eq!(b.fraction_remaining(), 1.0);
    }

    #[test]
    fn token_cancels_all_clones() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        let clone = b.clone();
        assert!(clone.check().is_ok());
        b.token().cancel();
        assert_eq!(clone.check(), Err(Cancelled::Token));
        // Token beats the (distant) deadline in the error.
        assert_eq!(b.check(), Err(Cancelled::Token));
    }

    #[test]
    fn signal_aware_token_trips_on_sigterm() {
        let plain = CancelToken::new();
        let token = CancelToken::cancel_on_signal();
        assert!(!token.is_cancelled(), "no signal delivered yet");
        assert!(!token.signal_received());
        signal::deliver(signal::SIGTERM);
        assert!(token.is_cancelled());
        assert!(token.signal_received());
        let budget = Budget::unbounded().with_token(token.clone());
        assert_eq!(budget.check(), Err(Cancelled::Token));
        // Signals never leak into signal-unaware tokens…
        assert!(!plain.is_cancelled());
        assert!(!plain.signal_received());
        // …and delivery is sticky: later signal-aware tokens are born
        // cancelled, which is what a drain-then-exit path wants.
        assert!(CancelToken::cancel_on_signal().is_cancelled());
    }

    #[test]
    fn fraction_remaining_decreases() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        let f = b.fraction_remaining();
        assert!(f > 0.99 && f <= 1.0, "{f}");
    }

    #[test]
    fn degrade_step_round_trips_through_names() {
        for step in DegradeStep::ALL {
            assert_eq!(step.as_str().parse::<DegradeStep>(), Ok(step));
        }
        assert!("bogus".parse::<DegradeStep>().is_err());
    }

    #[test]
    fn ladder_state_engages_in_order() {
        let mut state = LadderState::default();
        assert!(state.poll(&Budget::unbounded()).is_empty());
        // A fresh hour-long deadline engages nothing yet.
        assert!(state
            .poll(&Budget::with_deadline(Duration::from_secs(3600)))
            .is_empty());
        // An already-expired budget engages the whole ladder at once.
        let expired = Budget::with_deadline(Duration::ZERO);
        let fresh = state.poll(&expired);
        assert_eq!(fresh, DegradeStep::ALL.to_vec());
        assert!(state.poll(&expired).is_empty(), "steps engage once");
        assert_eq!(state.engaged(), DegradeStep::ALL);
        // A resumed state never re-engages its journaled rungs, even out
        // of ladder order.
        let mut resumed = LadderState::resumed(&[DegradeStep::FreezePadding]);
        assert_eq!(
            resumed.poll(&expired),
            [
                DegradeStep::CoarseCongestion,
                DegradeStep::CapTrials,
                DegradeStep::EarlyExitGp
            ]
        );
    }

    #[test]
    fn fault_classes_have_stable_names() {
        assert_eq!(FaultClass::NanBurst.as_str(), "nan-burst");
        let names: Vec<&str> = FaultClass::FS.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            names,
            [
                "disk-full",
                "torn-write",
                "fsync-fail",
                "rename-fail",
                "short-read"
            ]
        );
    }

    #[test]
    fn thread_helpers_clamp() {
        assert_eq!(clamp_threads(0), 1);
        assert_eq!(clamp_threads(8), 8);
        assert_eq!(clamp_threads(10_000), MAX_WORKER_THREADS);
        let d = default_threads();
        assert!((1..=MAX_WORKER_THREADS).contains(&d));
    }
}
