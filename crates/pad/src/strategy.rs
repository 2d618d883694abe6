//! Strategy parameters of the padding scheme (paper §III-B, §III-C).
//!
//! Every knob the Bayesian strategy exploration tunes lives here, together
//! with the parameter-space description consumed by `puffer_explore`-style
//! tuners. Defaults correspond to the values used by the reproduction
//! harness after exploration on the small congested design (the paper's
//! protocol: tune on a small design, transfer to the large ones).

use crate::features::NUM_FEATURES;

/// All strategy parameters of the routability optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddingStrategy {
    /// Feature weights `α` of Eq. (14), in [`crate::features::Feature`]
    /// order: local congestion, local pin density, surrounding congestion,
    /// surrounding pin density, pin congestion.
    pub alpha: [f64; NUM_FEATURES],
    /// Bias `β` of Eq. (14).
    pub beta: f64,
    /// Output scale `μ` of Eq. (14), in database units of width.
    pub mu: f64,
    /// Recycling effort `ζ` of Eq. (15) (larger ⇒ gentler recycling).
    pub zeta: f64,
    /// Minimum padding utilization `pu_low` of Eq. (16).
    pub pu_low: f64,
    /// Maximum padding utilization `pu_high` of Eq. (16).
    pub pu_high: f64,
    /// Density-overflow trigger threshold `τ` (§III-B.3).
    pub tau: f64,
    /// Padding-convergence trigger threshold `η` (§III-B.3).
    pub eta: f64,
    /// Maximum routability-optimization rounds `ξ` (§III-B.3).
    pub max_rounds: usize,
    /// Per-cell padding cap in multiples of the cell width (guard rail; not
    /// in the paper's formulas but implied by legalizability).
    pub max_pad_widths: f64,
    /// Legalization discretization scale `θ` of Eq. (17).
    pub theta: f64,
    /// Legalization padding budget as a fraction of movable cell area
    /// (the paper fixes this at 5%).
    pub legal_budget: f64,
}

impl Default for PaddingStrategy {
    fn default() -> Self {
        PaddingStrategy {
            alpha: [2.2, 1.2, 1.0, 0.4, 0.5],
            beta: 0.9,
            mu: 1.4,
            zeta: 4.0,
            pu_low: 0.04,
            pu_high: 0.14,
            tau: 0.25,
            eta: 0.12,
            max_rounds: 6,
            max_pad_widths: 6.0,
            theta: 4.0,
            legal_budget: 0.05,
        }
    }
}

/// A named continuous parameter range, the unit the strategy exploration
/// works in.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRange {
    /// Parameter name (matches the field it maps to, e.g. `"alpha0"`).
    pub name: String,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl PaddingStrategy {
    /// The exploration space of §III-C: every tunable parameter with its
    /// initial range.
    pub fn parameter_space() -> Vec<ParamRange> {
        let mut v = Vec::new();
        for i in 0..NUM_FEATURES {
            v.push(ParamRange {
                name: format!("alpha{i}"),
                lo: 0.0,
                hi: 4.0,
            });
        }
        let push = |v: &mut Vec<ParamRange>, name: &str, lo: f64, hi: f64| {
            v.push(ParamRange {
                name: name.into(),
                lo,
                hi,
            });
        };
        push(&mut v, "beta", -1.0, 2.0);
        push(&mut v, "mu", 0.1, 3.0);
        push(&mut v, "zeta", 0.5, 12.0);
        push(&mut v, "pu_low", 0.01, 0.10);
        push(&mut v, "pu_high", 0.08, 0.30);
        push(&mut v, "tau", 0.10, 0.40);
        push(&mut v, "eta", 0.03, 0.25);
        push(&mut v, "theta", 1.0, 8.0);
        v
    }

    /// The parameter groups used for local exploration (Algorithm 3 line 3):
    /// parameters with strong ties share a group.
    pub fn parameter_groups() -> Vec<Vec<String>> {
        vec![
            // Formula weights act together.
            (0..NUM_FEATURES)
                .map(|i| format!("alpha{i}"))
                .chain(["beta".into()])
                .collect(),
            // Output scale and recycling effort govern padding magnitude.
            vec!["mu".into(), "zeta".into()],
            // Budget schedule.
            vec!["pu_low".into(), "pu_high".into()],
            // Triggers.
            vec!["tau".into(), "eta".into()],
            // Legalization.
            vec!["theta".into()],
        ]
    }

    /// Applies a named parameter value; unknown names are ignored so a
    /// tuner can carry extra bookkeeping keys.
    pub fn apply(&mut self, name: &str, value: f64) {
        if let Some(rest) = name.strip_prefix("alpha") {
            if let Ok(i) = rest.parse::<usize>() {
                if i < NUM_FEATURES {
                    self.alpha[i] = value;
                }
            }
            return;
        }
        match name {
            "beta" => self.beta = value,
            "mu" => self.mu = value,
            "zeta" => self.zeta = value,
            "pu_low" => self.pu_low = value,
            "pu_high" => self.pu_high = value.max(self.pu_low),
            "tau" => self.tau = value,
            "eta" => self.eta = value,
            "theta" => self.theta = value,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let s = PaddingStrategy::default();
        assert!(s.pu_low < s.pu_high);
        assert!(s.tau > 0.0 && s.eta > 0.0);
        assert!(s.max_rounds >= 2);
        assert_eq!(s.legal_budget, 0.05);
    }

    #[test]
    fn space_covers_all_tunables() {
        let space = PaddingStrategy::parameter_space();
        assert_eq!(space.len(), NUM_FEATURES + 8);
        assert!(space.iter().all(|p| p.lo < p.hi));
        // Group membership only references real parameters.
        let names: Vec<_> = space.iter().map(|p| p.name.clone()).collect();
        for group in PaddingStrategy::parameter_groups() {
            for p in group {
                assert!(names.contains(&p), "group references unknown param {p}");
            }
        }
    }

    #[test]
    fn apply_round_trips() {
        let mut s = PaddingStrategy::default();
        s.apply("alpha2", 3.5);
        s.apply("mu", 1.25);
        s.apply("nonsense", 99.0);
        assert_eq!(s.alpha[2], 3.5);
        assert_eq!(s.mu, 1.25);
    }

    #[test]
    fn pu_high_never_drops_below_pu_low() {
        let mut s = PaddingStrategy::default();
        s.apply("pu_low", 0.09);
        s.apply("pu_high", 0.01);
        assert!(s.pu_high >= s.pu_low);
    }
}
