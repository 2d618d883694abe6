//! Negative fixture for `scripts/policy.sh`: one violation per policy lint
//! and per `clippy.toml` entry, each in the item named after the rule it
//! breaks. The policy must fail here and name every one of them; what it
//! must *not* report (test code, comments, strings, a justified `#[expect]`,
//! a sanctioned home) repeats a violation where no finding is due.
//! `crates/audit/tests/lint_fixtures.rs` asserts both.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Instant, SystemTime};

// A comment mentioning x.unwrap() is not a finding,
/// nor is a doc comment: `x.unwrap()`,
pub const HINT: &str = "nor a string: call .unwrap() at your peril";

pub fn no_panic(v: Option<u8>, r: Result<u8, ()>) -> u8 {
    if v.is_none() {
        panic!("boom");
    }
    v.unwrap() + r.expect("msg")
}

#[expect(
    clippy::unwrap_used,
    reason = "a justified, fulfilled exemption is silent"
)]
pub fn waived(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn unfinished(flag: bool) {
    if flag {
        todo!()
    }
    unimplemented!()
}

pub fn cast(x: f64) -> usize {
    x as usize
}

pub fn unordered_iter() -> (HashMap<u8, u8>, HashSet<u8>, BTreeMap<u8, u8>) {
    Default::default()
}

pub fn wallclock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn raw_io(p: &Path) -> std::io::Result<()> {
    let f = File::create(p)?;
    fs::write(p, b"x")?;
    fs::rename(p, p)?;
    f.sync_all()
}

pub fn no_bare_spawn() {
    std::thread::scope(|_| ());
    let _detached = std::thread::spawn(|| ());
}

pub fn raw_lock(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[allow(clippy::too_many_arguments)]
pub fn reasonless_allow() {}

#[expect(clippy::panic, reason = "stale: nothing below panics any more")]
pub fn stale_expect() {}

/// What a sanctioned home (`clock.rs`, `par`, `fsx.rs`, `cast.rs`) looks
/// like: a module-level `#![expect]` silences this module and nothing else.
pub mod sanctioned_home {
    #![expect(
        clippy::disallowed_methods,
        clippy::as_conversions,
        reason = "the fixture's stand-in for the workspace's sanctioned homes"
    )]

    pub fn clock() -> std::time::Instant {
        std::time::Instant::now()
    }

    pub fn fork_join() {
        std::thread::scope(|_| ());
    }

    pub fn durable_write(p: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(p, b"x")
    }

    pub fn trunc_idx(x: f64) -> usize {
        x as usize
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_compiled_by_the_policy() {
        assert_eq!(Some(1).unwrap(), 3.7 as usize - 2);
        let _ = std::collections::HashMap::<u8, u8>::new();
        std::fs::write("t", b"fixture").unwrap();
    }
}
