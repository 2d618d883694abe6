//! Nesterov's accelerated gradient method with Lipschitz backtracking.
//!
//! This is the optimizer ePlace uses for global placement (paper §II-B).
//! The implementation is generic over the objective: the engine supplies a
//! gradient oracle over a flat parameter vector (x-coordinates followed by
//! y-coordinates of the movable cells).
//!
//! Iteration (ePlace notation): with major solution `u_k`, reference
//! solution `v_k` and optimization parameter `a_k`,
//!
//! ```text
//! u_{k+1} = v_k − α_k ∇f(v_k)
//! a_{k+1} = (1 + √(4a_k² + 1)) / 2
//! v_{k+1} = u_{k+1} + (a_k − 1)/a_{k+1} · (u_{k+1} − u_k)
//! ```
//!
//! The step size is the inverse of a local Lipschitz estimate,
//! `α_k = ‖v_k − v_{k−1}‖ / ‖∇f(v_k) − ∇f(v_{k−1})‖`, refined by a short
//! backtracking loop exactly as in ePlace.
//!
//! Each backtracking round ends with a gradient at its candidate `v_{k+1}`,
//! so a step's last gradient is always taken at the reference point it
//! leaves behind ([`NesterovOptimizer::reference`]), while `u_{k+1}`
//! ([`NesterovOptimizer::solution`]) is never evaluated. The caller hands
//! each step `∇f(v_k)` rather than the optimizer asking for it, so it can
//! keep that last gradient instead of taking it again. The placement
//! engine commits `v_{k+1}` as its iterate, as the DREAMPlace-lineage
//! placers do, reads its statistics off that last evaluation, and opens
//! the next step with its gradient.

/// The full serializable state of a [`NesterovOptimizer`], exposed so the
/// placement engine can snapshot and restore the solver exactly (divergence
/// rollback and checkpoint/resume both need bit-identical continuation).
#[derive(Debug, Clone, PartialEq)]
pub struct NesterovState {
    /// Major solution `u_k`.
    pub u: Vec<f64>,
    /// Reference solution `v_k`.
    pub v: Vec<f64>,
    /// Previous reference solution.
    pub v_prev: Vec<f64>,
    /// Gradient at `v_prev`.
    pub g_prev: Vec<f64>,
    /// Optimization parameter `a_k`.
    pub a: f64,
    /// Current step size.
    pub alpha: f64,
}

/// Nesterov optimizer state over a flat `f64` parameter vector.
#[derive(Debug, Clone)]
pub struct NesterovOptimizer {
    /// Major solution `u_k`.
    u: Vec<f64>,
    /// Reference solution `v_k` (where gradients are evaluated).
    v: Vec<f64>,
    /// Previous reference solution.
    v_prev: Vec<f64>,
    /// Gradient at `v_prev`.
    g_prev: Vec<f64>,
    /// Optimization parameter `a_k`.
    a: f64,
    /// Current step size.
    alpha: f64,
    /// Backtracking iterations per step.
    max_backtracks: usize,
}

impl NesterovOptimizer {
    /// Creates an optimizer at `x0` with the gradient `g0 = ∇f(x0)` and an
    /// initial step size.
    ///
    /// # Panics
    ///
    /// Panics if `x0` and `g0` differ in length or `alpha0` is not positive.
    pub fn new(x0: Vec<f64>, g0: Vec<f64>, alpha0: f64) -> Self {
        assert_eq!(x0.len(), g0.len(), "state and gradient lengths differ");
        assert!(
            alpha0 > 0.0 && alpha0.is_finite(),
            "initial step must be positive"
        );
        NesterovOptimizer {
            u: x0.clone(),
            v: x0.clone(),
            v_prev: x0,
            g_prev: g0,
            a: 1.0,
            alpha: alpha0,
            max_backtracks: 3,
        }
    }

    /// Current reference solution: where the last gradient of a step was
    /// taken and the next step's opening gradient is.
    pub fn reference(&self) -> &[f64] {
        &self.v
    }

    /// Current major solution `u_k`; no gradient is ever taken here.
    pub fn solution(&self) -> &[f64] {
        &self.u
    }

    /// Current step size.
    pub fn step_size(&self) -> f64 {
        self.alpha
    }

    /// Copies out the full solver state (see [`NesterovState`]).
    pub fn state(&self) -> NesterovState {
        NesterovState {
            u: self.u.clone(),
            v: self.v.clone(),
            v_prev: self.v_prev.clone(),
            g_prev: self.g_prev.clone(),
            a: self.a,
            alpha: self.alpha,
        }
    }

    /// Rebuilds an optimizer from a previously captured state; stepping the
    /// rebuilt optimizer continues the original trajectory exactly.
    ///
    /// # Panics
    ///
    /// Panics if the state's vectors differ in length or the step size is
    /// not positive.
    pub fn from_state(state: NesterovState) -> Self {
        assert!(
            state.u.len() == state.v.len()
                && state.v.len() == state.v_prev.len()
                && state.v_prev.len() == state.g_prev.len(),
            "state vector lengths differ"
        );
        assert!(
            state.alpha > 0.0 && state.alpha.is_finite(),
            "step size must be positive"
        );
        NesterovOptimizer {
            u: state.u,
            v: state.v,
            v_prev: state.v_prev,
            g_prev: state.g_prev,
            a: state.a,
            alpha: state.alpha,
            max_backtracks: 3,
        }
    }

    /// Performs one accelerated step from `g = ∇f(v_k)`, the gradient at
    /// the current [`NesterovOptimizer::reference`].
    ///
    /// `grad` must return `∇f` at the queried point; it is called once per
    /// backtracking round (at most `1 + max_backtracks` times), and its last
    /// call is at the reference point the step leaves behind. `project`
    /// clamps a candidate point into the feasible box after each move.
    ///
    /// # Panics
    ///
    /// Panics if `g` differs in length from the state.
    pub fn step(
        &mut self,
        g: Vec<f64>,
        mut grad: impl FnMut(&[f64]) -> Vec<f64>,
        mut project: impl FnMut(&mut [f64]),
    ) {
        assert_eq!(g.len(), self.v.len(), "state and gradient lengths differ");
        // Lipschitz estimate from the last two reference points.
        let num = l2_diff(&self.v, &self.v_prev);
        let den = l2_diff(&g, &self.g_prev);
        let mut alpha = if den > 1e-20 && num > 0.0 {
            num / den
        } else {
            self.alpha
        };
        if !alpha.is_finite() || alpha <= 0.0 {
            alpha = self.alpha;
        }

        let a_next = (1.0 + (4.0 * self.a * self.a + 1.0).sqrt()) / 2.0;
        let coef = (self.a - 1.0) / a_next;

        let mut u_new = vec![0.0; self.u.len()];
        let mut v_new = vec![0.0; self.u.len()];
        // After `max_backtracks` rejections the last round is accepted
        // regardless.
        for _ in 0..=self.max_backtracks {
            for i in 0..self.u.len() {
                u_new[i] = self.v[i] - alpha * g[i];
            }
            project(&mut u_new);
            for i in 0..self.u.len() {
                v_new[i] = u_new[i] + coef * (u_new[i] - self.u[i]);
            }
            project(&mut v_new);
            // Backtrack: the step is consistent if the Lipschitz prediction
            // from the *new* point does not demand a much smaller step.
            let g_new = grad(&v_new);
            let hat_num = l2_diff(&v_new, &self.v);
            let hat_den = l2_diff(&g_new, &g);
            let alpha_hat = if hat_den > 1e-20 {
                hat_num / hat_den
            } else {
                alpha
            };
            if alpha_hat >= 0.95 * alpha || !alpha_hat.is_finite() || alpha_hat <= 0.0 {
                break;
            }
            alpha = alpha_hat;
        }

        self.v_prev = std::mem::replace(&mut self.v, v_new);
        self.g_prev = g;
        self.u = u_new;
        self.a = a_next;
        self.alpha = alpha;
    }
}

fn l2_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise the convex quadratic Σ cᵢ(xᵢ − tᵢ)².
    fn quad_grad<'a>(c: &'a [f64], t: &'a [f64]) -> impl Fn(&[f64]) -> Vec<f64> + 'a {
        move |x: &[f64]| {
            x.iter()
                .zip(c.iter().zip(t))
                .map(|(&xi, (&ci, &ti))| 2.0 * ci * (xi - ti))
                .collect()
        }
    }

    #[test]
    fn converges_on_quadratic() {
        let c = vec![1.0, 4.0, 0.5];
        let t = vec![3.0, -2.0, 10.0];
        let g = quad_grad(&c, &t);
        let x0 = vec![0.0, 0.0, 0.0];
        let mut opt = NesterovOptimizer::new(x0.clone(), g(&x0), 0.1);
        for _ in 0..200 {
            opt.step(g(opt.reference()), &g, |_| {});
        }
        for (xi, ti) in opt.solution().iter().zip(&t) {
            assert!((xi - ti).abs() < 1e-3, "{xi} vs {ti}");
        }
    }

    #[test]
    fn converges_faster_than_plain_gradient_descent() {
        // Ill-conditioned quadratic where momentum pays off.
        let c = vec![100.0, 1.0];
        let t = vec![1.0, 1.0];
        let g = quad_grad(&c, &t);
        let x0 = vec![0.0, 0.0];

        let mut opt = NesterovOptimizer::new(x0.clone(), g(&x0), 1.0 / 200.0);
        for _ in 0..100 {
            opt.step(g(opt.reference()), &g, |_| {});
        }
        let nesterov_err: f64 = opt
            .solution()
            .iter()
            .zip(&t)
            .map(|(x, t)| (x - t).abs())
            .sum();

        let mut x = x0;
        let alpha = 1.0 / 200.0; // stability limit for the stiff axis
        for _ in 0..100 {
            let gr = g(&x);
            for i in 0..2 {
                x[i] -= alpha * gr[i];
            }
        }
        let gd_err: f64 = x.iter().zip(&t).map(|(x, t)| (x - t).abs()).sum();
        assert!(
            nesterov_err < gd_err,
            "nesterov {nesterov_err} should beat gd {gd_err}"
        );
    }

    #[test]
    fn projection_keeps_iterates_in_box() {
        let c = vec![1.0];
        let t = vec![100.0]; // pulls far outside the box
        let g = quad_grad(&c, &t);
        let x0 = vec![0.0];
        let mut opt = NesterovOptimizer::new(x0.clone(), g(&x0), 0.2);
        for _ in 0..50 {
            opt.step(g(opt.reference()), &g, |x| {
                for v in x.iter_mut() {
                    *v = v.clamp(0.0, 5.0);
                }
            });
            assert!(opt.solution()[0] <= 5.0 + 1e-12);
        }
        assert!((opt.solution()[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn zero_gradient_is_stationary() {
        let g = |_: &[f64]| vec![0.0, 0.0];
        let mut opt = NesterovOptimizer::new(vec![1.0, 2.0], vec![0.0, 0.0], 0.5);
        for _ in 0..10 {
            opt.step(g(opt.reference()), g, |_| {});
        }
        assert_eq!(opt.solution(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        let _ = NesterovOptimizer::new(vec![0.0; 3], vec![0.0; 2], 0.1);
    }

    #[test]
    fn state_roundtrip_continues_identically() {
        let c = vec![1.0, 4.0, 0.5];
        let t = vec![3.0, -2.0, 10.0];
        let g = quad_grad(&c, &t);
        let x0 = vec![0.0, 0.0, 0.0];
        let mut opt = NesterovOptimizer::new(x0.clone(), g(&x0), 0.1);
        for _ in 0..20 {
            opt.step(g(opt.reference()), &g, |_| {});
        }
        let mut restored = NesterovOptimizer::from_state(opt.state());
        for _ in 0..20 {
            opt.step(g(opt.reference()), &g, |_| {});
            restored.step(g(restored.reference()), &g, |_| {});
        }
        assert_eq!(opt.solution(), restored.solution());
        assert_eq!(opt.step_size(), restored.step_size());
    }

    #[test]
    fn step_size_adapts_to_curvature() {
        let c = vec![50.0];
        let t = vec![0.0];
        let g = quad_grad(&c, &t);
        let x0 = vec![1.0];
        // Deliberately huge initial step; backtracking must shrink it.
        let mut opt = NesterovOptimizer::new(x0.clone(), g(&x0), 10.0);
        for _ in 0..30 {
            opt.step(g(opt.reference()), &g, |_| {});
        }
        assert!(opt.step_size() < 1.0);
        assert!(opt.solution()[0].abs() < 1.0);
    }
}
