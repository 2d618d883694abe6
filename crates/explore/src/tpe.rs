//! The tree-structured Parzen estimator (Bergstra et al., NeurIPS 2011).
//!
//! TPE models `p(x | y < y*)` and `p(x | y ≥ y*)` — the densities of
//! parameter values among the best γ fraction of observations (`l(x)`) and
//! the rest (`g(x)`) — with Parzen (kernel) estimators, and suggests the
//! candidate maximizing the ratio `l(x)/g(x)`, which is monotone in the
//! expected improvement.

use crate::space::{Domain, Space};
use puffer_rng::StdRng;

/// Fraction of observations treated as "good" (`γ`).
const GAMMA: f64 = 0.25;

/// Random suggestions before the model kicks in.
const N_STARTUP: usize = 10;

/// Candidates drawn from `l(x)` per suggestion.
const N_CANDIDATES: usize = 24;

/// A TPE sampler over a fixed [`Space`].
#[derive(Debug, Clone)]
pub struct Tpe {
    space: Space,
    observations: Vec<(Vec<f64>, f64)>,
    rng: StdRng,
}

impl Tpe {
    /// Creates a sampler whose draws follow from `seed`.
    pub fn new(space: Space, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        Tpe {
            space,
            observations: Vec::new(),
            rng,
        }
    }

    /// The space being sampled.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// All `(assignment, value)` observations so far.
    pub fn observations(&self) -> &[(Vec<f64>, f64)] {
        &self.observations
    }

    /// Records an evaluated assignment (`obs = obs ∪ (x, y)` of Alg. 2).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match the space.
    pub fn observe(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(x.len(), self.space.len(), "assignment length mismatch");
        self.observations.push((x, y));
    }

    /// Suggests the next assignment to evaluate (`getParam` of Alg. 2).
    pub fn suggest(&mut self) -> Vec<f64> {
        if self.observations.len() < N_STARTUP || self.space.is_empty() {
            return self.random_assignment();
        }
        // Split at the γ quantile (at least one observation on each side).
        let mut order: Vec<usize> = (0..self.observations.len()).collect();
        order.sort_by(|&a, &b| self.observations[a].1.total_cmp(&self.observations[b].1));
        let n_good = ((self.observations.len() as f64 * GAMMA).ceil() as usize)
            .clamp(1, self.observations.len() - 1);
        let good: Vec<Vec<f64>> = order[..n_good]
            .iter()
            .map(|&i| self.observations[i].0.clone())
            .collect();
        let bad: Vec<Vec<f64>> = order[n_good..]
            .iter()
            .map(|&i| self.observations[i].0.clone())
            .collect();

        // Seed `best` with a first draw so the selection never starts empty,
        // then keep the highest-scoring of the remaining candidates.
        let first = self.draw_from(&good);
        let first_score = self.log_ratio(&first, &good, &bad);
        let mut best: (Vec<f64>, f64) = (first, first_score);
        for _ in 1..N_CANDIDATES {
            let cand = self.draw_from(&good);
            let score = self.log_ratio(&cand, &good, &bad);
            if score > best.1 {
                best = (cand, score);
            }
        }
        let mut out = best.0;
        self.space.canon(&mut out);
        out
    }

    fn random_assignment(&mut self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .space
            .params()
            .iter()
            .map(|p| match p.domain {
                Domain::Continuous { lo, hi } => self.rng.gen_range(lo..hi),
                Domain::Integer { lo, hi } => self.rng.gen_range(lo..=hi) as f64,
                Domain::Categorical { choices } => self.rng.gen_range(0..choices) as f64,
            })
            .collect();
        self.space.canon(&mut v);
        v
    }

    /// Draws a candidate from the Parzen mixture of the good set: pick a
    /// kernel centre uniformly, perturb with the per-dimension bandwidth.
    fn draw_from(&mut self, good: &[Vec<f64>]) -> Vec<f64> {
        let centre = good[self.rng.gen_range(0..good.len())].clone();
        let mut out = Vec::with_capacity(centre.len());
        for (d, p) in self.space.params().iter().enumerate() {
            match p.domain {
                Domain::Categorical { choices } => {
                    // Resample from the smoothed categorical of the good set.
                    let mut counts = vec![1.0; choices]; // +1 prior
                    for g in good {
                        counts[g[d] as usize] += 1.0;
                    }
                    let total: f64 = counts.iter().sum();
                    let mut u = self.rng.gen_range(0.0..total);
                    let mut pick = choices - 1;
                    for (i, &c) in counts.iter().enumerate() {
                        if u < c {
                            pick = i;
                            break;
                        }
                        u -= c;
                    }
                    out.push(pick as f64);
                }
                _ => {
                    let bw = bandwidth(p.domain.lo(), p.domain.hi(), good.len());
                    // Box–Muller normal perturbation.
                    let u1: f64 = self.rng.gen_range(1e-12..1.0);
                    let u2: f64 = self.rng.gen_range(0.0..std::f64::consts::TAU);
                    let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
                    out.push(p.domain.canon(centre[d] + z * bw));
                }
            }
        }
        out
    }

    /// `log l(x) − log g(x)` under the two Parzen mixtures.
    fn log_ratio(&self, x: &[f64], good: &[Vec<f64>], bad: &[Vec<f64>]) -> f64 {
        self.log_density(x, good) - self.log_density(x, bad)
    }

    fn log_density(&self, x: &[f64], set: &[Vec<f64>]) -> f64 {
        let mut log_p = 0.0;
        for (d, p) in self.space.params().iter().enumerate() {
            match p.domain {
                Domain::Categorical { choices } => {
                    let mut counts = vec![1.0; choices];
                    for s in set {
                        counts[s[d] as usize] += 1.0;
                    }
                    let total: f64 = counts.iter().sum();
                    log_p += (counts[x[d] as usize] / total).ln();
                }
                _ => {
                    let bw = bandwidth(p.domain.lo(), p.domain.hi(), set.len());
                    // Mixture of Gaussians at the set's values.
                    let mut density = 0.0;
                    for s in set {
                        let z = (x[d] - s[d]) / bw;
                        density += (-0.5 * z * z).exp();
                    }
                    density /= set.len() as f64 * bw * (std::f64::consts::TAU).sqrt();
                    log_p += density.max(1e-300).ln();
                }
            }
        }
        log_p
    }
}

/// Scott-style bandwidth: range shrinking with the number of kernels.
fn bandwidth(lo: f64, hi: f64, n: usize) -> f64 {
    let range = (hi - lo).max(1e-12);
    range / (1.0 + (n as f64).powf(0.4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamSpec;

    fn space1d() -> Space {
        Space::new(vec![ParamSpec::continuous("x", 0.0, 10.0)])
    }

    #[test]
    fn startup_phase_is_random_and_in_bounds() {
        let mut tpe = Tpe::new(space1d(), 7);
        for _ in 0..20 {
            let s = tpe.suggest();
            assert!(s[0] >= 0.0 && s[0] <= 10.0);
        }
    }

    #[test]
    fn suggestions_concentrate_near_optimum() {
        // f(x) = (x-3)^2; after observations TPE should propose near 3.
        let mut tpe = Tpe::new(space1d(), 3);
        for _ in 0..60 {
            let x = tpe.suggest();
            let y = (x[0] - 3.0) * (x[0] - 3.0);
            tpe.observe(x, y);
        }
        let late: Vec<f64> = (0..20)
            .map(|_| {
                let x = tpe.suggest();
                let v = x[0];
                let y = (v - 3.0) * (v - 3.0);
                tpe.observe(x, y);
                v
            })
            .collect();
        let mean_dist = late.iter().map(|v| (v - 3.0).abs()).sum::<f64>() / late.len() as f64;
        assert!(
            mean_dist < 2.0,
            "late suggestions too far: mean |x-3| = {mean_dist}"
        );
    }

    #[test]
    fn categorical_learns_the_good_choice() {
        let space = Space::new(vec![ParamSpec::categorical("k", 4)]);
        let mut tpe = Tpe::new(space, 5);
        for _ in 0..60 {
            let x = tpe.suggest();
            let y = if x[0] as usize == 2 { 0.0 } else { 1.0 };
            tpe.observe(x, y);
        }
        let picks: Vec<usize> = (0..20)
            .map(|_| {
                let x = tpe.suggest();
                let k = x[0] as usize;
                tpe.observe(x.clone(), if k == 2 { 0.0 } else { 1.0 });
                k
            })
            .collect();
        let hits = picks.iter().filter(|&&k| k == 2).count();
        assert!(hits >= 10, "picked the good category only {hits}/20 times");
    }

    #[test]
    fn integer_suggestions_are_integral() {
        let space = Space::new(vec![ParamSpec::integer("n", 1, 6)]);
        let mut tpe = Tpe::new(space, 7);
        for _ in 0..30 {
            let x = tpe.suggest();
            assert_eq!(x[0], x[0].round());
            assert!((1.0..=6.0).contains(&x[0]));
            tpe.observe(x.clone(), x[0]);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut tpe = Tpe::new(space1d(), 11);
            let mut xs = Vec::new();
            for _ in 0..15 {
                let x = tpe.suggest();
                tpe.observe(x.clone(), x[0]);
                xs.push(x[0]);
            }
            xs
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn observe_checks_length() {
        let mut tpe = Tpe::new(space1d(), 7);
        tpe.observe(vec![1.0, 2.0], 0.0);
    }
}
