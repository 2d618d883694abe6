//! Weighted-average (WA) wirelength model and its gradient (paper Eq. (2)).
//!
//! The WA model smooths the max/min of pin coordinates per net:
//!
//! ```text
//! WA⁺(e) = Σ xⱼ·e^{xⱼ/γ} / Σ e^{xⱼ/γ}
//! WA⁻(e) = Σ xⱼ·e^{−xⱼ/γ} / Σ e^{−xⱼ/γ}
//! W(e)   = WA⁺ − WA⁻           (per axis; total is x-part + y-part)
//! ```
//!
//! Exponents are shifted by the per-net max/min for numerical stability.
//! `γ` controls accuracy: as `γ → 0`, WA → HPWL from below.

use puffer_db::cast;
use puffer_db::design::Placement;
use puffer_db::netlist::{NetId, Netlist};

/// WA wirelength evaluation result: value and per-cell gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct WirelengthGrad {
    /// Total weighted WA wirelength (x-part + y-part over all nets).
    pub value: f64,
    /// ∂W/∂x per cell (indexed by `CellId::index`).
    pub grad_x: Vec<f64>,
    /// ∂W/∂y per cell.
    pub grad_y: Vec<f64>,
}

/// Computes the WA wirelength and its gradient with smoothing parameter
/// `gamma`, over up to `threads` workers.
///
/// Gradients accumulate over pins onto the owning cells (pin offsets are
/// rigid). Nets with fewer than two pins contribute nothing.
///
/// Nets are processed in fixed index chunks (`puffer_par::chunk_ranges`,
/// boundaries independent of the thread count); each chunk records its
/// per-pin gradient contributions sparsely in net order, and the chunks
/// are applied to the output in chunk order. Every f64 addition therefore
/// happens with the same operands in the same order for any `threads`
/// value, so the result is **bit-identical** across thread counts.
///
/// With a single worker the sparse contributions would be applied in
/// exactly (chunk, net, pin) order, which is a plain serial accumulation —
/// so the 1-thread path skips the contribution buffers and writes straight
/// into the output, staying within a few percent of an unchunked loop
/// while remaining bit-identical to the multi-worker path.
///
/// # Panics
///
/// Panics if `gamma` is not strictly positive.
pub fn wa_wirelength_grad_threaded(
    netlist: &Netlist,
    placement: &Placement,
    gamma: f64,
    threads: usize,
) -> WirelengthGrad {
    assert!(gamma > 0.0, "gamma must be positive");
    let n = netlist.num_cells();
    let mut out = WirelengthGrad {
        value: 0.0,
        grad_x: vec![0.0; n],
        grad_y: vec![0.0; n],
    };

    if puffer_par::clamp_threads(threads) == 1 {
        // Single worker: accumulate directly. The per-chunk value
        // grouping is kept so the total matches the merged path exactly.
        let mut scratch = NetScratch::default();
        for range in puffer_par::chunk_ranges(netlist.num_nets()) {
            let mut value = 0.0;
            for i in range {
                let id = NetId(cast::idx_u32(i));
                value += net_wa_grad(netlist, placement, gamma, id, &mut scratch, &mut |axis,
                                                                                       cell,
                                                                                       g| {
                    if axis == 0 {
                        out.grad_x[cell] += g;
                    } else {
                        out.grad_y[cell] += g;
                    }
                });
            }
            out.value += value;
        }
        return out;
    }

    let partials = puffer_par::map_chunks(netlist.num_nets(), threads, |range| {
        let mut value = 0.0;
        // Sparse per-pin contributions (cell index, gradient), in net
        // order. Sized upfront: one entry per pin per axis.
        let pins: usize = range
            .clone()
            .map(|i| netlist.net_degree(NetId(cast::idx_u32(i))))
            .sum();
        let mut contrib_x: Vec<(usize, f64)> = Vec::with_capacity(pins);
        let mut contrib_y: Vec<(usize, f64)> = Vec::with_capacity(pins);
        let mut scratch = NetScratch::default();
        for i in range {
            let id = NetId(cast::idx_u32(i));
            value += net_wa_grad(netlist, placement, gamma, id, &mut scratch, &mut |axis,
                                                                                   cell,
                                                                                   g| {
                if axis == 0 {
                    contrib_x.push((cell, g));
                } else {
                    contrib_y.push((cell, g));
                }
            });
        }
        (value, contrib_x, contrib_y)
    });

    for (value, cx, cy) in &partials {
        out.value += value;
        for &(cell, g) in cx {
            out.grad_x[cell] += g;
        }
        for &(cell, g) in cy {
            out.grad_y[cell] += g;
        }
    }
    out
}

/// Per-net scratch buffers reused across nets (SoA layout: coordinates,
/// shifted exponentials, and finished gradients each live in their own
/// contiguous array so the arithmetic loops vectorize).
#[derive(Default)]
struct NetScratch {
    coords: Vec<f64>,
    exps_p: Vec<f64>,
    exps_m: Vec<f64>,
    grads: Vec<f64>,
}

/// One net's weighted WA wirelength (both axes); per-pin gradient
/// contributions are handed to `emit(axis, cell_index, g)` in pin order,
/// axis 0 (x) first. Nets below degree 2 or with zero weight contribute
/// nothing.
#[inline]
fn net_wa_grad(
    netlist: &Netlist,
    placement: &Placement,
    gamma: f64,
    net: NetId,
    scratch: &mut NetScratch,
    emit: &mut impl FnMut(usize, usize, f64),
) -> f64 {
    let pins = netlist.net_pins(net);
    let weight = netlist.net(net).weight;
    if pins.len() < 2 || weight == 0.0 {
        return 0.0;
    }
    let NetScratch {
        coords,
        exps_p,
        exps_m,
        grads,
    } = scratch;
    let inv_gamma = 1.0 / gamma;
    let mut value = 0.0;
    for axis in 0..2 {
        coords.clear();
        for &pid in pins {
            let p = placement.pin_pos(netlist, pid);
            coords.push(if axis == 0 { p.x } else { p.y });
        }
        let (max, min) = coords
            .iter()
            .fold((f64::NEG_INFINITY, f64::INFINITY), |(mx, mn), &x| {
                (mx.max(x), mn.min(x))
            });

        // Stable exponentials. The `exp` calls stay scalar (no vector libm),
        // but the SoA pushes keep the sums in a dependence-free form.
        exps_p.clear();
        exps_m.clear();
        let mut sp = 0.0; // Σ e⁺
        let mut sxp = 0.0; // Σ x e⁺
        let mut sm = 0.0; // Σ e⁻
        let mut sxm = 0.0; // Σ x e⁻
        for &x in coords.iter() {
            let ep = ((x - max) * inv_gamma).exp();
            let em = ((min - x) * inv_gamma).exp();
            exps_p.push(ep);
            exps_m.push(em);
            sp += ep;
            sxp += x * ep;
            sm += em;
            sxm += x * em;
        }
        let wa = sxp / sp - sxm / sm;
        value += weight * wa;

        // Gradient: ∂WA⁺/∂xⱼ = ((1 + xⱼ/γ)·eⱼ⁺·S⁺ − eⱼ⁺·SX⁺/γ) / S⁺²
        //           ∂WA⁻/∂xⱼ = ((1 − xⱼ/γ)·eⱼ⁻·S⁻ + eⱼ⁻·SX⁻/γ) / S⁻²
        //
        // Phase 1 writes the per-pin gradients into an SoA scratch array:
        // pure arithmetic over contiguous f64 slices with the reciprocals
        // hoisted out of the loop, which LLVM autovectorizes. Phase 2 does
        // the (gather-indexed) emit separately.
        let inv_sp2 = 1.0 / (sp * sp);
        let inv_sm2 = 1.0 / (sm * sm);
        let w = weight;
        grads.clear();
        for j in 0..coords.len() {
            let x = coords[j];
            let ep = exps_p[j];
            let em = exps_m[j];
            let dp = ((1.0 + x * inv_gamma) * ep * sp - ep * sxp * inv_gamma) * inv_sp2;
            let dm = ((1.0 - x * inv_gamma) * em * sm + em * sxm * inv_gamma) * inv_sm2;
            grads.push(w * (dp - dm));
        }
        for (j, &pid) in pins.iter().enumerate() {
            emit(axis, netlist.pin(pid).cell.index(), grads[j]);
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::Point;
    use puffer_db::hpwl::total_hpwl;
    use puffer_db::netlist::{CellId, CellKind, NetlistBuilder};

    fn pair_netlist() -> Netlist {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::ORIGIN).unwrap();
        nb.connect(n, b, Point::ORIGIN).unwrap();
        nb.build().unwrap()
    }

    #[test]
    fn wa_approaches_hpwl_for_small_gamma() {
        let nl = pair_netlist();
        let mut p = Placement::zeroed(2);
        p.set(CellId(1), Point::new(10.0, 7.0));
        let hp = total_hpwl(&nl, &p);
        let loose = wa_wirelength_grad_threaded(&nl, &p, 5.0, 1).value;
        let tight = wa_wirelength_grad_threaded(&nl, &p, 0.05, 1).value;
        assert!(tight <= hp + 1e-9, "WA underestimates HPWL");
        assert!((tight - hp).abs() < 0.1);
        assert!((loose - hp).abs() > (tight - hp).abs());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut nb = NetlistBuilder::new();
        let ids: Vec<_> = (0..4)
            .map(|i| nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable))
            .collect();
        let n0 = nb.add_net("n0");
        for &c in &ids[..3] {
            nb.connect(n0, c, Point::new(0.1, -0.2)).unwrap();
        }
        let n1 = nb.add_weighted_net("n1", 2.0);
        nb.connect(n1, ids[2], Point::ORIGIN).unwrap();
        nb.connect(n1, ids[3], Point::ORIGIN).unwrap();
        let nl = nb.build().unwrap();

        let mut p = Placement::zeroed(4);
        p.set(ids[0], Point::new(0.0, 0.0));
        p.set(ids[1], Point::new(4.0, 1.0));
        p.set(ids[2], Point::new(2.0, 5.0));
        p.set(ids[3], Point::new(7.0, 2.0));
        let gamma = 1.0;
        let g = wa_wirelength_grad_threaded(&nl, &p, gamma, 1);
        let h = 1e-6;
        for c in 0..4 {
            for axis in 0..2 {
                let mut pp = p.clone();
                let mut pm = p.clone();
                let pos = p.pos(CellId(c));
                if axis == 0 {
                    pp.set(CellId(c), Point::new(pos.x + h, pos.y));
                    pm.set(CellId(c), Point::new(pos.x - h, pos.y));
                } else {
                    pp.set(CellId(c), Point::new(pos.x, pos.y + h));
                    pm.set(CellId(c), Point::new(pos.x, pos.y - h));
                }
                let fd = (wa_wirelength_grad_threaded(&nl, &pp, gamma, 1).value
                    - wa_wirelength_grad_threaded(&nl, &pm, gamma, 1).value)
                    / (2.0 * h);
                let an = if axis == 0 {
                    g.grad_x[c as usize]
                } else {
                    g.grad_y[c as usize]
                };
                assert!(
                    (fd - an).abs() < 1e-5,
                    "cell {c} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn gradient_pulls_pins_together() {
        let nl = pair_netlist();
        let mut p = Placement::zeroed(2);
        p.set(CellId(1), Point::new(10.0, 0.0));
        let g = wa_wirelength_grad_threaded(&nl, &p, 1.0, 1);
        // Moving cell 0 right reduces wirelength: negative gradient.
        assert!(g.grad_x[0] < 0.0);
        assert!(g.grad_x[1] > 0.0);
        // Symmetric y: no pull.
        assert!(g.grad_y[0].abs() < 1e-9);
    }

    #[test]
    fn large_coordinates_stay_finite() {
        let nl = pair_netlist();
        let mut p = Placement::zeroed(2);
        p.set(CellId(0), Point::new(1e6, -1e6));
        p.set(CellId(1), Point::new(-1e6, 1e6));
        let g = wa_wirelength_grad_threaded(&nl, &p, 0.01, 1);
        assert!(g.value.is_finite());
        assert!(g.grad_x.iter().all(|v| v.is_finite()));
        assert!(g.grad_y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_pin_nets_contribute_nothing() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::ORIGIN).unwrap();
        let nl = nb.build().unwrap();
        let g = wa_wirelength_grad_threaded(&nl, &Placement::zeroed(1), 1.0, 1);
        assert_eq!(g.value, 0.0);
        assert_eq!(g.grad_x[0], 0.0);
    }

    #[test]
    fn gradient_sums_to_zero_per_net() {
        // WA wirelength is translation invariant, so the gradient over all
        // cells of a net must sum to zero in each axis.
        let mut nb = NetlistBuilder::new();
        let ids: Vec<_> = (0..5)
            .map(|i| nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable))
            .collect();
        let n = nb.add_net("n");
        for &c in &ids {
            nb.connect(n, c, Point::new(0.2, -0.1)).unwrap();
        }
        let nl = nb.build().unwrap();
        let mut p = Placement::zeroed(5);
        for (i, &c) in ids.iter().enumerate() {
            p.set(c, Point::new((i * i) as f64, (i * 3 % 5) as f64));
        }
        let g = wa_wirelength_grad_threaded(&nl, &p, 0.7, 1);
        assert!(g.grad_x.iter().sum::<f64>().abs() < 1e-9);
        assert!(g.grad_y.iter().sum::<f64>().abs() < 1e-9);
    }

    #[test]
    fn net_weights_scale_both_value_and_gradient() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_weighted_net("n", 3.0);
        nb.connect(n, a, Point::ORIGIN).unwrap();
        nb.connect(n, b, Point::ORIGIN).unwrap();
        let nl3 = nb.build().unwrap();
        let nl1 = pair_netlist();
        let mut p = Placement::zeroed(2);
        p.set(CellId(1), Point::new(5.0, 5.0));
        let g3 = wa_wirelength_grad_threaded(&nl3, &p, 1.0, 1);
        let g1 = wa_wirelength_grad_threaded(&nl1, &p, 1.0, 1);
        assert!((g3.value - 3.0 * g1.value).abs() < 1e-9);
        assert!((g3.grad_x[0] - 3.0 * g1.grad_x[0]).abs() < 1e-9);
    }
}
