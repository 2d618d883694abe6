//! A tiny property-test harness — the workspace's offline replacement for
//! `proptest`.
//!
//! [`run_cases`] drives a property over `n` deterministic random cases: the
//! generator closure builds an input from an [`StdRng`], the property
//! returns `Err(message)` on violation, and the harness panics with the
//! case index, the seed that reproduces it, and the message. No shrinking —
//! the reproducing seed plus a debug-printable input is enough for the
//! workspace's invariant tests.
//!
//! ```
//! use puffer_rng::check::run_cases;
//! run_cases(64, 0xC0FFEE, |rng| rng.gen_range(0..100u32), |&x| {
//!     if x < 100 { Ok(()) } else { Err(format!("{x} out of range")) }
//! });
//! ```

use crate::StdRng;
use std::fmt::Debug;

/// Runs `property` over `cases` inputs produced by `gen` from a
/// deterministic stream seeded with `seed`.
///
/// # Panics
///
/// Panics on the first failing case, reporting the case index, the
/// per-case seed (rerun with `run_cases(1, that_seed, ...)` to reproduce),
/// the input, and the property's message.
#[expect(
    clippy::panic,
    reason = "a property-test harness: its contract is to panic with the reproducing seed"
)]
pub fn run_cases<T: Debug>(
    cases: usize,
    seed: u64,
    mut gen: impl FnMut(&mut StdRng) -> T,
    mut property: impl FnMut(&T) -> Result<(), String>,
) {
    for case in 0..cases {
        // Each case gets its own sub-seed so any case reproduces alone.
        let case_seed = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let input = gen(&mut rng);
        if let Err(msg) = property(&input) {
            panic!(
                "property failed on case {case}/{cases} (seed {case_seed:#x}):\n  \
                 input: {input:?}\n  {msg}"
            );
        }
    }
}

/// Convenience: asserts a condition inside a property, mirroring
/// `prop_assert!`.
#[macro_export]
macro_rules! prop_check {
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
}

/// Generates a `Vec<T>` with a length drawn from `len_range`.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len_range: std::ops::Range<usize>,
    mut item: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len_range);
    (0..n).map(|_| item(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0usize;
        run_cases(
            32,
            1,
            |rng| rng.gen_range(0.0..1.0),
            |&x| {
                seen += 1;
                if (0.0..1.0).contains(&x) {
                    Ok(())
                } else {
                    Err("out of range".into())
                }
            },
        );
        assert_eq!(seen, 32);
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics_with_context() {
        run_cases(
            16,
            2,
            |rng| rng.gen_range(0..100u32),
            |&x| {
                if x < 10 {
                    Ok(())
                } else {
                    Err(format!("{x} >= 10"))
                }
            },
        );
    }

    #[test]
    fn prop_check_macro_formats() {
        fn prop(x: u32) -> Result<(), String> {
            prop_check!(x < 10, "x was {x}");
            prop_check!(x != 5);
            Ok(())
        }
        assert!(prop(3).is_ok());
        assert_eq!(prop(12).unwrap_err(), "x was 12");
        assert!(prop(5).unwrap_err().contains("x != 5"));
    }

    #[test]
    fn vec_of_respects_length_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let v = vec_of(&mut rng, 2..7, |r| r.gen_range(0..5u8));
            assert!((2..7).contains(&v.len()));
        }
    }
}
