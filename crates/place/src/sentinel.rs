//! Divergence detection for the global placement loop.
//!
//! Numerical optimization over hundreds of thousands of coordinates can go
//! wrong in ways that are cheap to detect and expensive to ignore: a NaN
//! coordinate poisons every later iterate through the gradients, a step
//! size past the Lipschitz bound makes the wirelength explode, and an
//! overly aggressive momentum schedule can lock the overflow into a limit
//! cycle. The [`DivergenceSentinel`] watches each iterate's coordinates and
//! statistics for all three signatures; the engine responds by rolling back
//! to the last healthy state and shrinking its step size instead of
//! panicking (see [`crate::GlobalPlacer::step`]).

use crate::engine::IterationStats;
use puffer_db::cast;
use std::collections::VecDeque;

/// Why the sentinel flagged an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// A NaN or ±∞ movable coordinate, or a non-finite overflow, HPWL or
    /// λ; see [`DivergenceSentinel::check`].
    NonFinite,
    /// The wirelength exploded relative to the healthiest iterate seen.
    Exploding,
    /// The overflow is swinging without net progress (limit cycle).
    Oscillating,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::NonFinite => write!(f, "non-finite objective"),
            Divergence::Exploding => write!(f, "exploding wirelength"),
            Divergence::Oscillating => write!(f, "oscillating overflow"),
        }
    }
}

/// Streaming divergence detector over [`IterationStats`].
#[derive(Debug, Clone)]
pub struct DivergenceSentinel {
    /// Recent overflow values (cleared after every recovery).
    window: VecDeque<f64>,
    /// Window length for the oscillation check.
    capacity: usize,
    /// Smallest finite HPWL observed.
    best_hpwl: f64,
    /// HPWL growth beyond `best_hpwl` treated as an explosion.
    explode_factor: f64,
}

impl DivergenceSentinel {
    /// Creates a sentinel with the given oscillation window.
    ///
    /// # Panics
    ///
    /// If `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "the oscillation window must be positive");
        DivergenceSentinel {
            window: VecDeque::with_capacity(window),
            capacity: window,
            best_hpwl: f64::INFINITY,
            explode_factor: 200.0,
        }
    }

    /// Examines one iterate — its movable coordinates `coords` and its
    /// statistics; `Some(reason)` means the engine should recover rather
    /// than commit it.
    ///
    /// [`Divergence::NonFinite`] is flagged by exactly these inputs: a NaN
    /// or ±∞ in `coords`, or a non-finite `overflow`, `hpwl` or `lambda`.
    /// The coordinates are checked themselves because neither statistic
    /// sees a NaN cell: the HPWL's `min`/`max` skip a NaN pin (only a net
    /// whose pins are all NaN goes non-finite), and the density grid drops
    /// a NaN rectangle.
    pub fn check(&mut self, stats: &IterationStats, coords: &[f64]) -> Option<Divergence> {
        let finite = coords.iter().all(|c| c.is_finite())
            && stats.overflow.is_finite()
            && stats.hpwl.is_finite()
            && stats.lambda.is_finite();
        if !finite {
            self.reset_window();
            return Some(Divergence::NonFinite);
        }
        if stats.hpwl > self.best_hpwl * self.explode_factor {
            self.reset_window();
            return Some(Divergence::Exploding);
        }
        self.best_hpwl = self.best_hpwl.min(stats.hpwl);

        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(stats.overflow);
        if self.window.len() == self.capacity && self.is_oscillating() {
            self.reset_window();
            return Some(Divergence::Oscillating);
        }
        None
    }

    /// Forgets the overflow history (called on recovery so a rollback does
    /// not immediately re-trigger from stale samples).
    pub fn reset_window(&mut self) {
        self.window.clear();
    }

    /// A full window oscillates when the overflow swings by a large
    /// fraction of its level while making no net progress.
    fn is_oscillating(&self) -> bool {
        let first = self.window.front().copied().unwrap_or(0.0);
        let last = self.window.back().copied().unwrap_or(0.0);
        let mean = self.window.iter().sum::<f64>() / cast::idx_f64(self.window.len());
        if mean <= 1e-12 {
            return false;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut flips = 0usize;
        let mut prev_sign = 0i8;
        let mut prev = first;
        for &v in self.window.iter().skip(1) {
            lo = lo.min(v);
            hi = hi.max(v);
            let sign = if v > prev {
                1
            } else if v < prev {
                -1
            } else {
                0
            };
            if sign != 0 && prev_sign != 0 && sign != prev_sign {
                flips += 1;
            }
            if sign != 0 {
                prev_sign = sign;
            }
            prev = v;
        }
        lo = lo.min(first);
        hi = hi.max(first);
        let swinging = (hi - lo) > 0.5 * mean;
        let no_progress = last >= first * 0.99;
        // Demand direction changes in at least a third of the window so a
        // single plateau-then-drop is not mistaken for a cycle.
        let cycling = flips * 3 >= self.window.len();
        swinging && no_progress && cycling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The movable coordinates of a healthy iterate.
    const COORDS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

    fn stats(overflow: f64, hpwl: f64) -> IterationStats {
        IterationStats {
            iter: 1,
            overflow,
            hpwl,
            lambda: 1.0,
        }
    }

    #[test]
    fn healthy_convergence_passes() {
        let mut s = DivergenceSentinel::new(8);
        for i in 0..100 {
            let of = 1.0 / (1.0 + i as f64 * 0.1);
            assert_eq!(
                s.check(&stats(of, 1000.0 + i as f64), &COORDS),
                None,
                "iter {i}"
            );
        }
    }

    #[test]
    fn plateau_near_convergence_passes() {
        // Small jitter around a low overflow must not look like a cycle.
        let mut s = DivergenceSentinel::new(8);
        for i in 0..100 {
            let of = 0.08 + 0.002 * ((i % 2) as f64);
            assert_eq!(s.check(&stats(of, 1000.0), &COORDS), None, "iter {i}");
        }
    }

    #[test]
    fn nan_and_infinity_are_flagged() {
        let mut s = DivergenceSentinel::new(8);
        assert_eq!(
            s.check(&stats(f64::NAN, 1000.0), &COORDS),
            Some(Divergence::NonFinite)
        );
        assert_eq!(
            s.check(&stats(0.5, f64::INFINITY), &COORDS),
            Some(Divergence::NonFinite)
        );
    }

    #[test]
    fn a_non_finite_coordinate_is_flagged_under_finite_statistics() {
        let mut s = DivergenceSentinel::new(8);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut coords = COORDS;
            coords[2] = bad;
            assert_eq!(
                s.check(&stats(0.5, 1000.0), &coords),
                Some(Divergence::NonFinite),
                "{bad}"
            );
        }
        let mut lambda = stats(0.5, 1000.0);
        lambda.lambda = f64::NAN;
        assert_eq!(s.check(&lambda, &COORDS), Some(Divergence::NonFinite));
        assert_eq!(s.check(&stats(0.5, 1000.0), &COORDS), None);
    }

    #[test]
    fn hpwl_explosion_is_flagged() {
        let mut s = DivergenceSentinel::new(8);
        assert_eq!(s.check(&stats(0.5, 1000.0), &COORDS), None);
        assert_eq!(
            s.check(&stats(0.5, 1e9), &COORDS),
            Some(Divergence::Exploding)
        );
    }

    #[test]
    fn limit_cycle_is_flagged() {
        let mut s = DivergenceSentinel::new(8);
        let mut flagged = false;
        for i in 0..40 {
            let of = if i % 2 == 0 { 0.9 } else { 0.4 };
            if s.check(&stats(of, 1000.0), &COORDS).is_some() {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "alternating overflow never flagged");
    }

    #[test]
    fn window_resets_after_recovery() {
        let mut s = DivergenceSentinel::new(4);
        for i in 0..20 {
            let of = if i % 2 == 0 { 0.9 } else { 0.4 };
            if s.check(&stats(of, 1000.0), &COORDS).is_some() {
                break;
            }
        }
        // Immediately after a trigger the window is empty again, so a few
        // healthy iterations cannot re-trigger from stale samples.
        for i in 0..3 {
            assert_eq!(s.check(&stats(0.5 - 0.1 * i as f64, 1000.0), &COORDS), None);
        }
    }
}
