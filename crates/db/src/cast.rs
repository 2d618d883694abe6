//! Named numeric conversions: the only sanctioned home of bare `as` casts
//! in the hot crates.
//!
//! PR 7 fixed real Gcell-boundary bugs caused by anonymous `as` casts whose
//! rounding direction nobody had spelled out. The hot crates (`db`,
//! `congest`, `route`, `place`, `flute`, `pad`) now deny
//! `clippy::as_conversions` at their roots for non-test code
//! (`scripts/policy.sh` runs it); call sites go through these helpers
//! instead, so every conversion names its rounding direction and carries a
//! test.
//!
//! Every helper is a transparent wrapper around the exact `as` expression
//! its name describes — migrating a call site from `x as usize` to
//! [`trunc_idx`]`(x)` is bit-identical by construction. In particular the
//! float→int helpers inherit `as`'s saturating-truncation semantics: the
//! fractional part is discarded toward zero **after** the named rounding
//! step, out-of-range values clamp to the target type's bounds, and NaN
//! maps to 0.
//!
//! The int→float helpers additionally `debug_assert!` that the conversion
//! is exact (representable in an `f64` mantissa), so a million-cell-scale
//! overflow surfaces in debug runs instead of silently rounding ids.

#![expect(
    clippy::as_conversions,
    reason = "the sanctioned home of the bare casts the named helpers wrap"
)]

/// `f64 → usize` by truncation toward zero (plain `as` semantics:
/// saturating, NaN → 0). Use when the value is already integral or the
/// discard-fraction behavior is the intent; otherwise pick [`floor_idx`],
/// [`ceil_idx`], or [`round_idx`] so the rounding direction is named.
#[inline]
#[must_use]
pub fn trunc_idx(x: f64) -> usize {
    x as usize
}

/// `f64 → usize` rounding down (`x.floor()`, then saturating truncation).
/// The Gcell-of-coordinate conversion: a point strictly inside bin `i`
/// must never land in bin `i + 1`.
#[inline]
#[must_use]
pub fn floor_idx(x: f64) -> usize {
    x.floor() as usize
}

/// `f64 → usize` rounding up (`x.ceil()`, then saturating truncation).
/// The bin-count conversion: a region `k.3` bins wide needs `k + 1` bins.
#[inline]
#[must_use]
pub fn ceil_idx(x: f64) -> usize {
    x.ceil() as usize
}

/// `f64 → usize` rounding half away from zero (`x.round()`, then
/// saturating truncation).
#[inline]
#[must_use]
pub fn round_idx(x: f64) -> usize {
    x.round() as usize
}

/// `f64 → u8` by truncation toward zero (saturating at 255, NaN → 0).
#[inline]
#[must_use]
pub fn trunc_u8(x: f64) -> u8 {
    x as u8
}

/// `f64 → u8` rounding half away from zero, saturating at 255 — the
/// 8-bit-channel quantization used by the SVG/heatmap renderers.
#[inline]
#[must_use]
pub fn round_u8(x: f64) -> u8 {
    x.round() as u8
}

/// `usize → f64`, exact for values up to 2⁵³ (debug-asserted). Indices,
/// counts, and grid dimensions all satisfy this by orders of magnitude.
#[inline]
#[must_use]
pub fn idx_f64(x: usize) -> f64 {
    debug_assert!(
        x <= (1usize << f64::MANTISSA_DIGITS),
        "usize→f64 would round: {x}"
    );
    x as f64
}

/// `u64 → f64`, exact for values up to 2⁵³ (debug-asserted) — trace
/// counters and RSMT-cache statistics.
#[inline]
#[must_use]
pub fn u64_f64(x: u64) -> f64 {
    debug_assert!(
        x <= (1u64 << f64::MANTISSA_DIGITS),
        "u64→f64 would round: {x}"
    );
    x as f64
}

/// `usize → u32` for the u32-id world (cells, nets, pins, Gcells); debug-
/// asserts the id fits. The compact-id storage (ROADMAP item 2) depends on
/// every conversion funneling through here.
#[inline]
#[must_use]
pub fn idx_u32(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "index does not fit u32: {x}");
    x as u32
}

/// `u32 → usize`, lossless on every supported platform (usize ≥ 32 bits).
#[inline]
#[must_use]
pub fn u32_idx(x: u32) -> usize {
    x as usize
}

/// `usize → i64` for signed Gcell arithmetic and JSONL integer fields;
/// debug-asserts the value fits (it always does below 2⁶³).
#[inline]
#[must_use]
pub fn idx_i64(x: usize) -> i64 {
    debug_assert!(i64::try_from(x).is_ok(), "index does not fit i64: {x}");
    x as i64
}

/// `i64 → usize`; debug-asserts the value is non-negative and fits. The
/// inverse of [`idx_i64`] after a bounds check has re-established `≥ 0`.
#[inline]
#[must_use]
pub fn i64_idx(x: i64) -> usize {
    debug_assert!(usize::try_from(x).is_ok(), "i64 is not a valid index: {x}");
    x as usize
}

/// `usize → u64`, lossless on every supported platform (usize ≤ 64 bits).
#[inline]
#[must_use]
pub fn idx_u64(x: usize) -> u64 {
    x as u64
}

/// `u64 → i64` for JSONL integer fields; debug-asserts the value fits.
#[inline]
#[must_use]
pub fn u64_i64(x: u64) -> i64 {
    debug_assert!(i64::try_from(x).is_ok(), "u64 does not fit i64: {x}");
    x as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_to_index_rounding_directions() {
        assert_eq!(trunc_idx(3.9), 3);
        assert_eq!(floor_idx(3.9), 3);
        assert_eq!(ceil_idx(3.1), 4);
        assert_eq!(round_idx(3.5), 4);
        assert_eq!(round_idx(3.4), 3);
        // `as`-cast saturation semantics are preserved verbatim.
        assert_eq!(trunc_idx(-1.5), 0);
        assert_eq!(floor_idx(-0.5), 0);
        assert_eq!(trunc_idx(f64::NAN), 0);
        assert_eq!(trunc_idx(f64::INFINITY), usize::MAX);
    }

    #[test]
    fn byte_and_signed_quantization() {
        assert_eq!(round_u8(254.6), 255);
        assert_eq!(round_u8(300.0), 255);
        assert_eq!(trunc_u8(-3.0), 0);
    }

    #[test]
    fn int_to_float_is_exact_for_ids() {
        assert_eq!(idx_f64(1 << 24), 16_777_216.0);
        assert_eq!(u64_f64(12345), 12345.0);
    }

    #[test]
    fn width_changes_roundtrip() {
        assert_eq!(idx_u32(7), 7u32);
        assert_eq!(u32_idx(idx_u32(123_456)), 123_456);
        assert_eq!(idx_i64(9), 9i64);
        assert_eq!(i64_idx(idx_i64(42)), 42);
        assert_eq!(u64_i64(9), 9i64);
    }

    #[test]
    fn every_helper_matches_the_bare_cast_it_replaces() {
        // The migration contract: wrapping a cast site in a helper must be
        // bit-identical to the expression it replaced.
        for x in [0.0, 0.49, 0.5, 1.0 / 3.0, 2.5, 1e9 + 0.75, -2.5] {
            assert_eq!(trunc_idx(x), x as usize);
            assert_eq!(floor_idx(x), x.floor() as usize);
            assert_eq!(ceil_idx(x), x.ceil() as usize);
            assert_eq!(round_idx(x), x.round() as usize);
            assert_eq!(trunc_u8(x), x as u8);
            assert_eq!(round_u8(x), x.round() as u8);
        }
        for n in [0usize, 1, 4095, 1 << 20] {
            assert_eq!(idx_f64(n).to_bits(), (n as f64).to_bits());
            assert_eq!(idx_u32(n), n as u32);
            assert_eq!(idx_i64(n), n as i64);
            assert_eq!(idx_u64(n), n as u64);
        }
    }
}
