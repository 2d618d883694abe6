//! Property-based tests on the padding algorithm's invariants, driven by
//! the in-workspace `puffer_rng::check` harness.

use puffer_db::geom::Point;
use puffer_db::netlist::{CellId, CellKind, Netlist, NetlistBuilder};
use puffer_pad::{padding_formula, padding_round, FeatureMatrix, PaddingState, PaddingStrategy};
use puffer_rng::check::run_cases;
use puffer_rng::prop_check;

fn netlist(n: usize) -> Netlist {
    let mut nb = NetlistBuilder::new();
    for i in 0..n {
        nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
    }
    let net = nb.add_net("n");
    nb.connect(net, CellId(0), Point::ORIGIN).unwrap();
    nb.build().unwrap()
}

fn features(netlist: &Netlist, lcg: &[f64]) -> FeatureMatrix {
    FeatureMatrix::from_local_congestion(netlist.num_cells(), lcg)
}

/// The padding formula is non-negative and monotone in any single
/// feature with a positive weight.
#[test]
fn formula_is_nonnegative_and_monotone() {
    run_cases(
        48,
        0x2001,
        |rng| (rng.gen_range(-10.0..10.0), rng.gen_range(0.0..10.0)),
        |&(f0, extra)| {
            let s = PaddingStrategy::default();
            let mut a = [0.0; puffer_pad::NUM_FEATURES];
            a[0] = f0;
            let mut b = a;
            b[0] = f0 + extra;
            let pa = padding_formula(&a, &s);
            let pb = padding_formula(&b, &s);
            prop_check!(pa >= 0.0, "negative padding {pa}");
            prop_check!(pb >= pa - 1e-12, "monotone: {pa} then {pb}");
            Ok(())
        },
    );
}

/// After any sequence of rounds, the total padding area never exceeds
/// the scheduled utilization budget.
#[test]
fn utilization_budget_always_holds() {
    run_cases(
        48,
        0x2002,
        |rng| {
            let lcg: Vec<f64> = (0..8).map(|_| rng.gen_range(-2.0..50.0)).collect();
            let rounds = rng.gen_range(1..6usize);
            let area = rng.gen_range(1.0..100.0);
            (lcg, rounds, area)
        },
        |(lcg, rounds, area)| {
            let nl = netlist(8);
            let s = PaddingStrategy::default();
            let mut state = PaddingState::new(8);
            let fm = features(&nl, lcg);
            for _ in 0..*rounds {
                let r = padding_round(&nl, &fm, &s, &mut state, *area);
                prop_check!(
                    state.total_area(&nl) <= r.target_utilization * area + 1e-6,
                    "total {} > budget {}",
                    state.total_area(&nl),
                    r.target_utilization * area
                );
                prop_check!(r.target_utilization <= s.pu_high + 1e-12);
            }
            Ok(())
        },
    );
}

/// Padding is always non-negative and respects the per-cell cap.
#[test]
fn per_cell_padding_bounds() {
    run_cases(
        48,
        0x2003,
        |rng| {
            let lcg: Vec<f64> = (0..8).map(|_| rng.gen_range(-5.0..1e6)).collect();
            let rounds = rng.gen_range(1..8usize);
            (lcg, rounds)
        },
        |(lcg, rounds)| {
            let nl = netlist(8);
            let s = PaddingStrategy::default();
            let mut state = PaddingState::new(8);
            let fm = features(&nl, lcg);
            for _ in 0..*rounds {
                padding_round(&nl, &fm, &s, &mut state, 1e9);
            }
            for (i, &p) in state.pad.iter().enumerate() {
                prop_check!(p >= 0.0, "cell {i} negative padding {p}");
                prop_check!(p <= s.max_pad_widths * 1.0 + 1e-9, "cell {i} over cap: {p}");
            }
            Ok(())
        },
    );
}

/// A cell that is never congested again monotonically loses padding
/// through recycling.
#[test]
fn recycling_is_monotone_decreasing() {
    run_cases(
        48,
        0x2004,
        |rng| rng.gen_range(1.0..50.0),
        |&initial_cg| {
            let nl = netlist(2);
            let s = PaddingStrategy::default();
            let mut state = PaddingState::new(2);
            padding_round(
                &nl,
                &features(&nl, &[initial_cg, initial_cg]),
                &s,
                &mut state,
                1e9,
            );
            let mut last = state.pad[0];
            for _ in 0..6 {
                padding_round(
                    &nl,
                    &features(&nl, &[-1.0, initial_cg]),
                    &s,
                    &mut state,
                    1e9,
                );
                prop_check!(
                    state.pad[0] <= last + 1e-12,
                    "padding grew: {} then {}",
                    last,
                    state.pad[0]
                );
                last = state.pad[0];
            }
            Ok(())
        },
    );
}
