//! Multi-feature cell padding with recycling and utilization control
//! (paper §III-B.2–3, Algorithm 1).

use crate::features::{FeatureMatrix, NUM_FEATURES};
use crate::strategy::PaddingStrategy;
use puffer_db::cast;
use puffer_db::netlist::Netlist;

/// Mutable padding bookkeeping carried across routability-optimizer rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddingState {
    /// Accumulated padding width per cell (`HP` of Algorithm 1).
    pub pad: Vec<f64>,
    /// How many rounds each cell has received positive padding (`pt(c)`).
    pub pad_count: Vec<u32>,
    /// Rounds executed so far (`i`).
    pub round: usize,
    /// Incremental padding utilization of the most recent round (padding
    /// area *added* by the round / available area), for the η trigger:
    /// small increments mean the padding is converging (§III-B.3).
    pub last_utilization: f64,
}

impl PaddingState {
    /// Fresh state for `num_cells` cells.
    pub fn new(num_cells: usize) -> Self {
        PaddingState {
            pad: vec![0.0; num_cells],
            pad_count: vec![0; num_cells],
            round: 0,
            last_utilization: f64::INFINITY,
        }
    }

    /// Total padding area over movable cells.
    pub fn total_area(&self, netlist: &Netlist) -> f64 {
        netlist
            .iter_cells()
            .filter(|(_, c)| c.is_movable())
            .map(|(id, c)| self.pad[id.index()] * c.height)
            .sum()
    }
}

/// The expected padding of Eq. (14):
/// `Pad(c) = log(max(Σ αᵢ·fᵢ(c) + β, 1)) · μ`.
///
/// # Panics
///
/// Panics if `features` has fewer than [`NUM_FEATURES`] entries.
pub fn padding_formula(features: &[f64], strategy: &PaddingStrategy) -> f64 {
    assert!(features.len() >= NUM_FEATURES);
    let mut acc = strategy.beta;
    for (a, f) in strategy.alpha.iter().zip(features) {
        acc += a * f;
    }
    acc.max(1.0).ln() * strategy.mu
}

/// Outcome of one padding round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaddingRound {
    /// Round index after this call (1-based).
    pub round: usize,
    /// Padding utilization after scaling (total pad area / available area).
    pub utilization: f64,
    /// Target utilization `pu_i` of Eq. (16) for this round.
    pub target_utilization: f64,
    /// Number of cells that received positive new padding.
    pub padded_cells: usize,
    /// Number of cells whose history padding was recycled.
    pub recycled_cells: usize,
    /// Scale ratio applied to enforce the utilization cap (1.0 = no cap).
    pub scale: f64,
}

/// One round of Algorithm 1: compute per-cell padding from features,
/// recycle stale padding, and enforce the utilization schedule.
///
/// `available_area` is the `A` of Algorithm 1 — the free placement area the
/// padding budget is measured against. Returns round statistics; the new
/// cumulative padding is in `state.pad`.
pub fn padding_round(
    netlist: &Netlist,
    features: &FeatureMatrix,
    strategy: &PaddingStrategy,
    state: &mut PaddingState,
    available_area: f64,
) -> PaddingRound {
    state.round += 1;
    let i = state.round;
    let mut padded = 0usize;
    let mut recycled = 0usize;
    let area_before = state.total_area(netlist);

    for (id, cell) in netlist.iter_cells() {
        if !cell.is_movable() {
            continue;
        }
        let want = padding_formula(features.row(id), strategy);
        let idx = id.index();
        if want > 0.0 {
            // Incremental padding: each round builds on the last.
            state.pad[idx] += want;
            state.pad_count[idx] += 1;
            padded += 1;
        } else if state.pad[idx] > 0.0 {
            // Recycle Eq. (15): r_i(c) = (i − pt(c)) / (i + ζ).
            let r = (cast::idx_f64(i) - f64::from(state.pad_count[idx]))
                / (cast::idx_f64(i) + strategy.zeta);
            if r > 0.0 {
                state.pad[idx] *= 1.0 - r.min(1.0);
                recycled += 1;
            }
        }
        // Cap a single cell's padding at a sane multiple of its width so a
        // runaway feature cannot create a degenerate giant.
        state.pad[idx] = state.pad[idx].min(cell.width * strategy.max_pad_widths);
    }

    // Utilization schedule of Eq. (16).
    let xi = cast::idx_f64(strategy.max_rounds.max(2));
    let pu_i = strategy.pu_low
        + ((cast::idx_f64(i) - 1.0) / (xi - 1.0)).min(1.0) * (strategy.pu_high - strategy.pu_low);
    let total = state.total_area(netlist);
    let budget = pu_i * available_area;
    let mut scale = 1.0;
    if total > budget && total > 0.0 {
        scale = budget / total;
        for p in &mut state.pad {
            *p *= scale;
        }
    }
    let final_total = state.total_area(netlist);
    state.last_utilization = if available_area > 0.0 {
        (final_total - area_before).max(0.0) / available_area
    } else {
        f64::INFINITY
    };

    PaddingRound {
        round: i,
        utilization: if available_area > 0.0 {
            final_total / available_area
        } else {
            f64::INFINITY
        },
        target_utilization: pu_i,
        padded_cells: padded,
        recycled_cells: recycled,
        scale,
    }
}

/// The three trigger conditions for invoking the routability optimizer
/// (§III-B.3): density overflow below τ, previous padding utilization below
/// η (i.e. the padding converged), and fewer than ξ rounds so far.
pub fn should_trigger(
    density_overflow: f64,
    state: &PaddingState,
    strategy: &PaddingStrategy,
) -> bool {
    let overflow_ok = density_overflow < strategy.tau;
    let converged = state.round == 0 || state.last_utilization < strategy.eta;
    let rounds_ok = state.round < strategy.max_rounds;
    overflow_ok && converged && rounds_ok
}

/// Returns the per-cell padding for cells as a plain vector (a copy of
/// `state.pad`), convenient for `puffer_place`-style consumers.
pub fn padding_vector(state: &PaddingState) -> Vec<f64> {
    state.pad.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;
    use crate::strategy::PaddingStrategy;
    use puffer_db::geom::Point;
    use puffer_db::netlist::{CellId, CellKind, NetlistBuilder};

    fn netlist(n: usize) -> Netlist {
        let mut nb = NetlistBuilder::new();
        for i in 0..n {
            nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
        }
        let net = nb.add_net("n");
        nb.connect(net, CellId(0), Point::ORIGIN).unwrap();
        nb.build().unwrap()
    }

    /// Builds a feature matrix where every cell has the given local
    /// congestion and zeros elsewhere.
    fn features_with_lcg(netlist: &Netlist, lcg: &[f64]) -> FeatureMatrix {
        let mut fm = FeatureMatrix::zeroed(netlist.num_cells());
        for (i, &v) in lcg.iter().enumerate() {
            fm.set(CellId(i as u32), Feature::LocalCongestion, v);
        }
        fm
    }

    #[test]
    fn formula_is_log_shaped() {
        let s = PaddingStrategy::default();
        let mut f = [0.0; NUM_FEATURES];
        // Negative drive: log(max(<1, 1)) = 0.
        f[0] = -5.0;
        assert_eq!(padding_formula(&f, &s), 0.0);
        // Positive drive grows logarithmically.
        f[0] = 10.0;
        let p10 = padding_formula(&f, &s);
        f[0] = 100.0;
        let p100 = padding_formula(&f, &s);
        assert!(p10 > 0.0);
        assert!(p100 > p10);
        assert!(p100 < 10.0 * p10, "log growth, not linear");
    }

    #[test]
    fn congested_cells_get_padded_others_recycled() {
        let nl = netlist(3);
        let s = PaddingStrategy::default();
        let mut state = PaddingState::new(3);
        // Round 1: cells 0 and 1 congested.
        let fm = features_with_lcg(&nl, &[3.0, 3.0, -1.0]);
        let r1 = padding_round(&nl, &fm, &s, &mut state, 1e9);
        assert_eq!(r1.padded_cells, 2);
        assert!(state.pad[0] > 0.0 && state.pad[1] > 0.0);
        assert_eq!(state.pad[2], 0.0);

        // Round 2: cell 1 no longer congested — its padding shrinks.
        let before = state.pad[1];
        let fm2 = features_with_lcg(&nl, &[3.0, -1.0, -1.0]);
        let r2 = padding_round(&nl, &fm2, &s, &mut state, 1e9);
        assert_eq!(r2.recycled_cells, 1);
        assert!(state.pad[1] < before);
        assert!(state.pad[0] > state.pad[1]);
    }

    #[test]
    fn recycle_rate_depends_on_history() {
        // A cell padded every round has pt == i => r == 0 (no recycling);
        // a cell padded once long ago has r -> (i-1)/(i+ζ) > 0.
        let nl = netlist(2);
        let s = PaddingStrategy::default();
        let mut state = PaddingState::new(2);
        let always = features_with_lcg(&nl, &[3.0, 3.0]);
        padding_round(&nl, &always, &s, &mut state, 1e9);
        let once_only = features_with_lcg(&nl, &[3.0, -1.0]);
        for _ in 0..4 {
            padding_round(&nl, &once_only, &s, &mut state, 1e9);
        }
        assert!(state.pad[1] < state.pad[0]);
        assert!(state.pad[1] > 0.0, "recycling withdraws a part, not all");
    }

    #[test]
    fn utilization_cap_scales_padding() {
        let nl = netlist(4);
        let s = PaddingStrategy {
            pu_low: 0.01,
            pu_high: 0.01,
            ..PaddingStrategy::default()
        };
        let mut state = PaddingState::new(4);
        let fm = features_with_lcg(&nl, &[50.0, 50.0, 50.0, 50.0]);
        // Tiny available area forces scaling.
        let r = padding_round(&nl, &fm, &s, &mut state, 1.0);
        assert!(r.scale < 1.0);
        assert!(r.utilization <= 0.01 + 1e-9);
        let total = state.total_area(&nl);
        assert!(total <= 0.01 + 1e-9);
    }

    #[test]
    fn utilization_schedule_ramps() {
        let s = PaddingStrategy {
            pu_low: 0.1,
            pu_high: 0.5,
            max_rounds: 5,
            ..PaddingStrategy::default()
        };
        let nl = netlist(1);
        let mut state = PaddingState::new(1);
        let fm = features_with_lcg(&nl, &[-1.0]);
        let mut targets = Vec::new();
        for _ in 0..5 {
            targets.push(padding_round(&nl, &fm, &s, &mut state, 1e9).target_utilization);
        }
        assert!((targets[0] - 0.1).abs() < 1e-12);
        assert!((targets[4] - 0.5).abs() < 1e-12);
        assert!(targets.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn per_cell_padding_is_capped() {
        let nl = netlist(1);
        let s = PaddingStrategy {
            max_pad_widths: 3.0,
            ..PaddingStrategy::default()
        };
        let mut state = PaddingState::new(1);
        let fm = features_with_lcg(&nl, &[1e12]);
        for _ in 0..10 {
            padding_round(&nl, &fm, &s, &mut state, 1e9);
        }
        assert!(state.pad[0] <= 3.0 + 1e-9); // cell width 1.0 × cap 3.0
    }

    #[test]
    fn trigger_conditions() {
        let s = PaddingStrategy {
            tau: 0.15,
            eta: 0.02,
            max_rounds: 3,
            ..PaddingStrategy::default()
        };
        let mut state = PaddingState::new(1);
        // Fresh state: only overflow matters.
        assert!(should_trigger(0.10, &state, &s));
        assert!(!should_trigger(0.20, &state, &s));
        // After a round with high utilization: padding not converged.
        state.round = 1;
        state.last_utilization = 0.05;
        assert!(!should_trigger(0.10, &state, &s));
        state.last_utilization = 0.01;
        assert!(should_trigger(0.10, &state, &s));
        // Round limit ξ.
        state.round = 3;
        assert!(!should_trigger(0.10, &state, &s));
    }

    #[test]
    fn fixed_cells_are_never_padded() {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("m", 5.0, 5.0, CellKind::FixedMacro);
        nb.add_cell("c", 1.0, 1.0, CellKind::Movable);
        let nl = nb.build().unwrap();
        let s = PaddingStrategy::default();
        let mut state = PaddingState::new(2);
        let fm = features_with_lcg(&nl, &[100.0, 100.0]);
        padding_round(&nl, &fm, &s, &mut state, 1e9);
        assert_eq!(state.pad[0], 0.0);
        assert!(state.pad[1] > 0.0);
    }
}
