//! `puffer-serve`: a crash-tolerant job engine and line-protocol daemon
//! for PUFFER placement and evaluation jobs.
//!
//! The crate stacks four layers:
//!
//! * [`queue`] — a bounded MPMC admission queue with explicit
//!   backpressure: a full queue rejects with a reason, never buffers
//!   unboundedly;
//! * [`proto`] — the versioned (`"v": 2`) newline-delimited JSON protocol:
//!   job specs, requests, and the `serve.*` response records, all in the
//!   [`puffer_trace`] record schema;
//! * [`engine`] — the worker pool: panic isolation per job, retry with
//!   exponential backoff for transient faults, per-job deadlines and
//!   client cancellation through [`puffer_budget::CancelToken`], journal
//!   directories (`job-<id>/spec.json`, `run.pj`, `result.json`), and a
//!   recovery scan that re-enqueues interrupted jobs on restart;
//! * [`server`] — the transports: TCP (`puffer serve --listen`) and any
//!   `BufRead`/`Write` pair (`puffer serve --stdin`).
//!
//! The engine's fault hook is the spec's `chaos` tag, which only an
//! in-process [`EngineHandle::submit`] may carry. The serve rows of the
//! workspace's fault-injection harness (`tests/chaos/harness.rs`) drive it:
//! seeded worker panics, filesystem write faults, client disconnects, and
//! kill/restart cycles against a live engine, each verified against the
//! three-legal-end-states contract (completed result / resumable
//! checkpoint replaying bit-identically / structured error).
//!
//! Every job ultimately runs through [`puffer::Job`], the same `Send`-able
//! flow object the one-shot CLI uses — the daemon adds supervision, not a
//! second flow implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod proto;
pub mod queue;
pub mod server;

pub use engine::{Engine, EngineHandle, JobState, Reject, ServeConfig, StatusView, WaitError};
pub use proto::{parse_request, JobKind, JobSpec, JsonLine, Request, PROTO_VERSION};
pub use queue::{BoundedQueue, Popped, PushError};
pub use server::{handle_line, serve_lines, serve_listener, Action, ServerOutcome};
