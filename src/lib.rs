//! Workspace umbrella crate for the PUFFER reproduction.
//!
//! This crate exists to host the runnable `examples/` and the cross-crate
//! integration tests in `tests/`. The library surface lives in the
//! [`puffer`] crate and its substrates, which examples and tests import
//! directly.

#![forbid(unsafe_code)]

#[cfg(test)]
mod chaos;
