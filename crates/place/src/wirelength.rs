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
//! Exponents are shifted by the per-net max/min for numerical stability:
//! `eⱼ⁺ = exp((xⱼ − max)·γ⁻¹)` and `eⱼ⁻ = exp((min − xⱼ)·γ⁻¹)`.
//! `γ` controls accuracy: as `γ → 0`, WA → HPWL from below.
//!
//! # The elision rule
//!
//! Eq. (2) names four exponentials per pin, and `exp` is where the kernel's
//! time goes. Two families of them have an answer that is known before
//! `exp` is called, and the kernel ([`WaWorkspace`]) does not call it there:
//!
//! * an argument that is `±0.0` gives exactly `1.0` — the max pin's `e⁺`,
//!   the min pin's `e⁻`, every pin tied with them, and every pin of a net
//!   whose pins coincide (`exp(±0) = 1` is exact in IEEE 754 and in every
//!   libm);
//! * an argument whose bits equal those of `(min − max)·γ⁻¹` — which the
//!   min pin's `e⁺` and the max pin's `e⁻` are by construction, the same
//!   expression over the same operands — has the value of that one call,
//!   made once per net and axis.
//!
//! A net of degree `d` with distinct coordinates therefore costs `2d − 3`
//! calls per axis instead of `2d`. Both are memoisation of a pure function:
//! same bits in, same bits out, so **every output bit is the one the
//! un-elided sum produces**, NaN and ±∞ pins included (they match neither
//! test, or match it with the argument `exp` would have been given anyway).
//! The un-elided arithmetic lives on as the oracle of
//! `tests/proptest_invariants.rs`, and `tests/wa_bits.rs` pins the bits the
//! pre-elision kernel produced.
//!
//! # The HPWL by-product
//!
//! The per-net max and min the shift needs are the net's bounding box, so
//! an evaluation also yields the exact HPWL of the placement it saw
//! ([`WaWorkspace::hpwl`]): each net's `weight · ((max_x − min_x) +
//! (max_y − min_y))`, folded over its pins in the order
//! [`puffer_db::hpwl::net_hpwl`] folds them, and summed over all nets in
//! net order as [`puffer_db::hpwl::total_hpwl`] sums them — so the two are
//! bit-identical, NaN pins and the nets that contribute no gradient
//! included.

use puffer_db::cast;
use puffer_db::design::Placement;
use puffer_db::netlist::{NetId, Netlist, Pin, PinId};
use std::ops::Range;

/// Pins one lane of [`WaWorkspace::gradient`] must have to pay for its
/// spawn: [`crate::GpLanes::for_design`] gives the kernel one lane per this
/// many pins. `examples/lane_calibration.rs` (EXPERIMENTS.md, "Lane
/// calibration") measured two lanes winning 16–33 % from 40 K pins up but
/// 7–18 % at 13.6 K; the second lane starts between the two, at 24 K.
pub(crate) const WA_PINS_PER_LANE: usize = 12_000;

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
/// `gamma`, over up to `threads` workers: [`WaWorkspace::gradient`] on a
/// workspace built for this one call. A caller that evaluates repeatedly
/// keeps a [`WaWorkspace`] instead.
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
    let mut ws = WaWorkspace::new(threads);
    let value = ws.gradient(netlist, placement, gamma);
    WirelengthGrad {
        value,
        grad_x: ws.grad_x,
        grad_y: ws.grad_y,
    }
}

/// Exact operation counts of a [`WaWorkspace`]; see
/// [`WaWorkspace::take_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaCounts {
    /// [`WaWorkspace::gradient`] calls.
    pub grad_evals: u64,
    /// `exp` invocations actually made, each net-axis's shared span term
    /// included.
    pub exp_calls: u64,
    /// The exponentials Eq. (2) names: four per pin of every net that
    /// contributes (degree ≥ 2, non-zero weight), per evaluation.
    pub exp_terms: u64,
}

/// The WA kernel with every buffer it needs, allocated on first use and
/// reused: one pin buffer per worker, the per-cell gradient, and the
/// per-chunk gradient lists of the workers that cannot accumulate in place.
///
/// A `GlobalPlacer` keeps one for its lifetime. The workspace adapts to
/// whatever netlist it is handed; nothing of an earlier evaluation survives
/// into the next.
///
/// # Determinism
///
/// Nets are processed in the fixed index chunks of
/// `puffer_par::chunk_ranges` (boundaries independent of the thread count).
/// A chunk's value is summed in net order and the total in chunk order; a
/// cell's gradient is the sum of its pins' contributions in (chunk, net,
/// pin) order. One kernel computes a net; two sinks take its per-pin
/// gradients. The worker that owns the head of the chunk list — the calling
/// thread; with one worker, the only one — adds them straight into the
/// output: its chunks precede all others, so that *is* the merge order.
/// Every other worker appends the values alone (16 B per pin, no cell
/// index) to its chunk's list, and the lists are applied in chunk order
/// afterwards, re-walking the chunk's nets for the cell indices. Every
/// `f64` addition thus happens with the same operands in the same order
/// for any worker count: the result is **bit-identical** across thread
/// counts. The HPWL by-product follows the same two sinks: the head worker
/// adds each net's term to a running sum, every other worker lists them
/// (8 B per net) in its chunks, and the lists continue the sum in chunk
/// order — one fold in net order whatever the worker count.
#[derive(Debug)]
pub struct WaWorkspace {
    lanes: Vec<PinBuf>,
    /// The fixed chunks of the net index space and what each produced.
    chunks: Vec<Range<usize>>,
    parts: Vec<ChunkPart>,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    hpwl: f64,
    counts: WaCounts,
}

/// One worker's view of one net: pin coordinates and owning cells, the
/// shifted exponentials of the axis in hand and the finished per-pin
/// gradients, each in its own contiguous array so the arithmetic loops
/// vectorise. Grown to the largest degree met; only `[..degree]` of the
/// current net is ever read.
#[derive(Debug, Default)]
struct PinBuf {
    x: Vec<f64>,
    y: Vec<f64>,
    cell: Vec<usize>,
    exp_p: Vec<f64>,
    exp_m: Vec<f64>,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
}

impl PinBuf {
    fn fit(&mut self, degree: usize) {
        if self.x.len() < degree {
            for v in [
                &mut self.x,
                &mut self.y,
                &mut self.exp_p,
                &mut self.exp_m,
                &mut self.grad_x,
                &mut self.grad_y,
            ] {
                v.resize(degree, 0.0);
            }
            self.cell.resize(degree, 0);
        }
    }
}

/// What one chunk of nets produced, as the ordered merge consumes it.
#[derive(Debug, Default)]
struct ChunkPart {
    value: f64,
    /// Every net's weighted HPWL in net order; empty for the chunks whose
    /// owner summed directly.
    hpwl: Vec<f64>,
    /// Per-pin gradient values of the chunk's contributing nets in (net,
    /// pin) order; empty for the chunks whose owner accumulated directly.
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    exp_calls: u64,
    exp_terms: u64,
}

/// Where a worker's per-pin gradients and per-net HPWL terms go.
enum Sink<'a> {
    /// Straight into the per-cell output `(∂W/∂x, ∂W/∂y)` and the running
    /// HPWL sum.
    Accumulate(&'a mut [f64], &'a mut [f64], &'a mut f64),
    /// Onto the chunk's lists.
    List,
}

impl Sink<'_> {
    /// Takes one net's weighted HPWL.
    #[inline]
    fn hpwl(&mut self, list: &mut Vec<f64>, term: f64) {
        match self {
            Sink::Accumulate(_, _, sum) => **sum += term,
            Sink::List => list.push(term),
        }
    }
}

struct Lane<'a> {
    buf: &'a mut PinBuf,
    sink: Sink<'a>,
}

/// The read-only half of an evaluation.
struct Nets<'a> {
    netlist: &'a Netlist,
    pins: &'a [Pin],
    xs: &'a [f64],
    ys: &'a [f64],
    inv_gamma: f64,
}

impl WaWorkspace {
    /// An empty workspace for up to `threads` workers.
    pub fn new(threads: usize) -> Self {
        let threads = puffer_par::clamp_threads(threads);
        WaWorkspace {
            lanes: (0..threads).map(|_| PinBuf::default()).collect(),
            chunks: Vec::new(),
            parts: Vec::new(),
            grad_x: Vec::new(),
            grad_y: Vec::new(),
            hpwl: 0.0,
            counts: WaCounts::default(),
        }
    }

    /// The WA wirelength of `placement` at a positive `gamma`; leaves its
    /// gradient in [`WaWorkspace::grad_x`] / [`WaWorkspace::grad_y`] and
    /// the placement's HPWL in [`WaWorkspace::hpwl`].
    ///
    /// Gradients accumulate over pins onto the owning cells (pin offsets are
    /// rigid). Nets with fewer than two pins or zero weight contribute
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `placement` has fewer cells than `netlist`.
    pub fn gradient(&mut self, netlist: &Netlist, placement: &Placement, gamma: f64) -> f64 {
        debug_assert!(gamma > 0.0, "gamma must be positive");
        self.counts.grad_evals += 1;
        let num_nets = netlist.num_nets();
        if self.chunks.last().map_or(0, |r| r.end) != num_nets {
            self.chunks = puffer_par::chunk_ranges(num_nets);
            self.parts
                .resize_with(self.chunks.len(), ChunkPart::default);
        }
        for grad in [&mut self.grad_x, &mut self.grad_y] {
            grad.clear();
            grad.resize(netlist.num_cells(), 0.0);
        }
        // Where `Iterator::sum`, and so `total_hpwl`, starts its fold.
        let mut hpwl: f64 = std::iter::empty::<f64>().sum();
        let mut head = Some((&mut self.grad_x[..], &mut self.grad_y[..], &mut hpwl));
        let mut lanes: Vec<Lane<'_>> = self
            .lanes
            .iter_mut()
            .map(|buf| Lane {
                buf,
                sink: match head.take() {
                    Some((gx, gy, sum)) => Sink::Accumulate(gx, gy, sum),
                    None => Sink::List,
                },
            })
            .collect();
        let nets = Nets {
            netlist,
            pins: netlist.pins(),
            xs: placement.xs(),
            ys: placement.ys(),
            inv_gamma: 1.0 / gamma,
        };
        let chunks = &self.chunks;
        puffer_par::for_each_block(&mut self.parts, 1, &mut lanes, |first, parts, lane| {
            for (part, range) in parts.iter_mut().zip(&chunks[first..]) {
                nets.chunk(range.clone(), part, lane);
            }
        });
        drop(lanes);

        let mut value = 0.0;
        for (part, range) in self.parts.iter().zip(&self.chunks) {
            value += part.value;
            self.counts.exp_calls += part.exp_calls;
            self.counts.exp_terms += part.exp_terms;
            for term in &part.hpwl {
                hpwl += term;
            }
            if part.grad_x.is_empty() {
                continue;
            }
            let cells = range
                .clone()
                .filter_map(|net| nets.contributing(net))
                .flat_map(|(ids, _)| ids)
                .map(|id| nets.pins[id.index()].cell.index());
            for ((cell, gx), gy) in cells.zip(&part.grad_x).zip(&part.grad_y) {
                self.grad_x[cell] += gx;
                self.grad_y[cell] += gy;
            }
        }
        self.hpwl = hpwl;
        value
    }

    /// The exact HPWL of the placement the last [`WaWorkspace::gradient`]
    /// call saw, bit-identical to [`puffer_db::hpwl::total_hpwl`] of it
    /// (see the module docs).
    pub fn hpwl(&self) -> f64 {
        self.hpwl
    }

    /// ∂W/∂x per cell (indexed by `CellId::index`), as of the last
    /// [`WaWorkspace::gradient`] call.
    pub fn grad_x(&self) -> &[f64] {
        &self.grad_x
    }

    /// ∂W/∂y per cell; see [`WaWorkspace::grad_x`].
    pub fn grad_y(&self) -> &[f64] {
        &self.grad_y
    }

    /// The operation counts since the last call.
    pub fn take_counts(&mut self) -> WaCounts {
        std::mem::take(&mut self.counts)
    }
}

impl Nets<'_> {
    /// The pins and weight of net `net` if it [`contributes`].
    #[inline]
    fn contributing(&self, net: usize) -> Option<(&[PinId], f64)> {
        let ids = self.netlist.net_pins(NetId(cast::idx_u32(net)));
        let weight = self.netlist.nets()[net].weight;
        contributes(ids.len(), weight).then_some((ids, weight))
    }

    /// Evaluates the nets of one chunk into `part`, their per-pin gradients
    /// into the lane's sink.
    fn chunk(&self, range: Range<usize>, part: &mut ChunkPart, lane: &mut Lane<'_>) {
        part.grad_x.clear();
        part.grad_y.clear();
        part.hpwl.clear();
        let buf = &mut *lane.buf;
        let mut value = 0.0;
        let mut exp_calls = 0;
        let mut exp_terms = 0;
        for net in range {
            let ids = self.netlist.net_pins(NetId(cast::idx_u32(net)));
            let weight = self.netlist.nets()[net].weight;
            let d = ids.len();
            buf.fit(d);
            // The one gather: both coordinates and the owning cell of every
            // pin, `Placement::pin_pos` inlined.
            for (((x, y), cell), id) in buf.x[..d]
                .iter_mut()
                .zip(&mut buf.y[..d])
                .zip(&mut buf.cell[..d])
                .zip(ids)
            {
                let pin = &self.pins[id.index()];
                *cell = pin.cell.index();
                *x = self.xs[*cell] + pin.offset.x;
                *y = self.ys[*cell] + pin.offset.y;
            }
            if !contributes(d, weight) {
                // No gradient, but `total_hpwl` counts `weight · net_hpwl`:
                // `net_hpwl` is `0.0` below two pins, and `0 · span` is NaN
                // when every pin is.
                let span = if d < 2 {
                    0.0
                } else {
                    let [(xh, xl), (yh, yl)] = [&buf.x[..d], &buf.y[..d]].map(extremes);
                    (xh - xl) + (yh - yl)
                };
                lane.sink.hpwl(&mut part.hpwl, weight * span);
                continue;
            }
            exp_terms += 4 * cast::idx_u64(d);
            let mut net_value = 0.0;
            let mut spans = [0.0; 2];
            for ((coords, grads), span) in [(&buf.x, &mut buf.grad_x), (&buf.y, &mut buf.grad_y)]
                .into_iter()
                .zip(&mut spans)
            {
                let (wa, (max, min)) = self.axis(
                    &coords[..d],
                    &mut buf.exp_p[..d],
                    &mut buf.exp_m[..d],
                    &mut grads[..d],
                    weight,
                    &mut exp_calls,
                );
                net_value += weight * wa;
                *span = max - min;
            }
            // `net_hpwl`'s `(xh − xl) + (yh − yl)`, weighted.
            lane.sink
                .hpwl(&mut part.hpwl, weight * (spans[0] + spans[1]));
            value += net_value;
            match &mut lane.sink {
                Sink::Accumulate(out_x, out_y, _) => {
                    for ((&cell, gx), gy) in buf.cell[..d].iter().zip(&buf.grad_x).zip(&buf.grad_y)
                    {
                        out_x[cell] += gx;
                        out_y[cell] += gy;
                    }
                }
                Sink::List => {
                    part.grad_x.extend_from_slice(&buf.grad_x[..d]);
                    part.grad_y.extend_from_slice(&buf.grad_y[..d]);
                }
            }
        }
        part.value = value;
        part.exp_calls = exp_calls;
        part.exp_terms = exp_terms;
    }

    /// One net's `WA⁺ − WA⁻` along one axis (unweighted) and the axis's
    /// [`extremes`], and `weight · ∂(WA⁺ − WA⁻)/∂xⱼ` per pin into `grads`.
    /// `exp_p`/`exp_m` are scratch of the net's degree.
    #[inline]
    fn axis(
        &self,
        coords: &[f64],
        exp_p: &mut [f64],
        exp_m: &mut [f64],
        grads: &mut [f64],
        w: f64,
        exp_calls: &mut u64,
    ) -> (f64, (f64, f64)) {
        let inv_gamma = self.inv_gamma;
        let (max, min) = extremes(coords);

        // The elision rule of the module docs: `exp` is called for the span
        // once, and then only for arguments that are neither ±0 nor the
        // span's.
        let span = (min - max) * inv_gamma;
        let span_exp = if span == 0.0 {
            1.0
        } else {
            *exp_calls += 1;
            span.exp()
        };
        let mut exp = |arg: f64| {
            if arg == 0.0 {
                1.0
            } else if arg.to_bits() == span.to_bits() {
                span_exp
            } else {
                *exp_calls += 1;
                arg.exp()
            }
        };

        let mut sp = 0.0; // Σ e⁺
        let mut sxp = 0.0; // Σ x e⁺
        let mut sm = 0.0; // Σ e⁻
        let mut sxm = 0.0; // Σ x e⁻
        for ((&x, ep), em) in coords.iter().zip(exp_p.iter_mut()).zip(exp_m.iter_mut()) {
            *ep = exp((x - max) * inv_gamma);
            *em = exp((min - x) * inv_gamma);
            sp += *ep;
            sxp += x * *ep;
            sm += *em;
            sxm += x * *em;
        }

        // ∂WA⁺/∂xⱼ = ((1 + xⱼ/γ)·eⱼ⁺·S⁺ − eⱼ⁺·SX⁺/γ) / S⁺²
        // ∂WA⁻/∂xⱼ = ((1 − xⱼ/γ)·eⱼ⁻·S⁻ + eⱼ⁻·SX⁻/γ) / S⁻²
        //
        // Pure arithmetic over contiguous slices with the reciprocals
        // hoisted out of the loop, which LLVM autovectorises; the
        // cell-indexed scatter is the sink's.
        let inv_sp2 = 1.0 / (sp * sp);
        let inv_sm2 = 1.0 / (sm * sm);
        for (((g, &x), &ep), &em) in grads.iter_mut().zip(coords).zip(&*exp_p).zip(&*exp_m) {
            let dp = ((1.0 + x * inv_gamma) * ep * sp - ep * sxp * inv_gamma) * inv_sp2;
            let dm = ((1.0 - x * inv_gamma) * em * sm + em * sxm * inv_gamma) * inv_sm2;
            *g = w * (dp - dm);
        }
        (sxp / sp - sxm / sm, (max, min))
    }
}

/// Whether a net of `degree` pins and `weight` has a WA gradient: nets
/// below degree 2 or with zero weight do not. The kernel and the ordered
/// merge both ask, so they list the same per-pin gradients.
#[inline]
fn contributes(degree: usize, weight: f64) -> bool {
    degree >= 2 && weight != 0.0
}

/// `(max, min)` of `coords`, folded in order from `(−∞, +∞)` with
/// `f64::max`/`f64::min` as [`puffer_db::hpwl::net_hpwl`] folds them: a NaN
/// coordinate is skipped.
#[inline]
fn extremes(coords: &[f64]) -> (f64, f64) {
    coords
        .iter()
        .fold((f64::NEG_INFINITY, f64::INFINITY), |(mx, mn), &x| {
            (mx.max(x), mn.min(x))
        })
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

    /// One net over its own cells at `xs` (all on the line y = 2x).
    fn line_net(xs: &[f64]) -> (Netlist, Placement) {
        let mut nb = NetlistBuilder::new();
        let n = nb.add_net("n");
        let mut p = Placement::zeroed(xs.len());
        for (i, &x) in xs.iter().enumerate() {
            let c = nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable);
            nb.connect(n, c, Point::ORIGIN).unwrap();
            p.set(c, Point::new(x, 2.0 * x));
        }
        (nb.build().unwrap(), p)
    }

    #[test]
    fn exp_is_called_only_where_the_answer_is_not_known() {
        let counts = |xs: &[f64]| {
            let (nl, p) = line_net(xs);
            let mut ws = WaWorkspace::new(1);
            ws.gradient(&nl, &p, 1.5);
            let c = ws.take_counts();
            assert_eq!(c.grad_evals, 1);
            assert_eq!(ws.take_counts(), WaCounts::default(), "taking resets");
            // Both axes.
            (c.exp_calls / 2, c.exp_terms / 2)
        };
        // Distinct coordinates: the span once, then every pin that is
        // neither the max nor the min twice — 2d − 3 of 2d.
        assert_eq!(counts(&[3.0, -1.0, 4.0, 1.5, 9.0]), (7, 10));
        assert_eq!(counts(&[0.0, 8.0]), (1, 4));
        // Ties share the extreme pins' answers; coincident pins need none.
        assert_eq!(counts(&[8.0, 0.0, 8.0, 0.0]), (1, 8));
        assert_eq!(counts(&[5.0, 5.0, 5.0]), (0, 6));
        // A net that contributes nothing names no exponential either.
        assert_eq!(counts(&[7.0]), (0, 0));
    }

    /// Address and capacity of every buffer the workspace owns.
    fn buffers(ws: &WaWorkspace) -> Vec<(usize, usize)> {
        let f64s = |v: &Vec<f64>| (v.as_ptr() as usize, v.capacity());
        let mut all = vec![f64s(&ws.grad_x), f64s(&ws.grad_y)];
        all.push((ws.chunks.as_ptr() as usize, ws.chunks.capacity()));
        for b in &ws.lanes {
            all.extend([&b.x, &b.y, &b.exp_p, &b.exp_m, &b.grad_x, &b.grad_y].map(f64s));
            all.push((b.cell.as_ptr() as usize, b.cell.capacity()));
        }
        for part in &ws.parts {
            all.extend([f64s(&part.grad_x), f64s(&part.grad_y), f64s(&part.hpwl)]);
        }
        all
    }

    /// What `warm_step_faults.rs` cannot see at test sizes: once warm, an
    /// evaluation at any worker count keeps every buffer where it is — the
    /// per-chunk lists of the list sink included.
    #[test]
    fn a_warm_evaluation_reallocates_nothing() {
        let d = puffer_gen::generate(&puffer_gen::GeneratorConfig {
            num_cells: 300,
            num_nets: 330,
            ..puffer_gen::GeneratorConfig::default()
        })
        .unwrap();
        let nl = d.netlist();
        let mut p = d.initial_placement();
        for threads in [1, 2, 3] {
            let mut ws = WaWorkspace::new(threads);
            ws.gradient(nl, &p, 1.0);
            let warm = buffers(&ws);
            let listed: usize = ws.parts.iter().map(|part| part.grad_x.len()).sum();
            assert_eq!(
                listed > 0,
                threads > 1,
                "only the head worker accumulates in place"
            );
            for (i, id) in nl.movable_cells().enumerate() {
                p.set(id, Point::new((i % 17) as f64, (i % 5) as f64));
            }
            ws.gradient(nl, &p, 0.3);
            assert_eq!(buffers(&ws), warm, "threads {threads}");
        }
    }

    /// Enough nets for every chunk, with each kind `total_hpwl` treats
    /// apart: a zero-weight net, a one-pin net and a NaN pin; `all_nan`
    /// also puts every pin of the zero-weight net at NaN, which makes the
    /// total NaN.
    fn hpwl_zoo(all_nan: bool) -> (Netlist, Placement) {
        let mut rng = puffer_rng::StdRng::seed_from_u64(45);
        let mut nb = NetlistBuilder::new();
        let cells: Vec<CellId> = (0..120)
            .map(|i| nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable))
            .collect();
        let mut p = Placement::zeroed(cells.len());
        for &c in &cells {
            p.set(c, Point::new(rng.next_f64() * 50.0, rng.next_f64() * 30.0));
        }
        let offset = |rng: &mut puffer_rng::StdRng| Point::new(rng.next_f64() - 0.5, 0.25);
        for n in 0..150 {
            let net = nb.add_weighted_net(format!("n{n}"), 0.5 + rng.next_f64());
            for _ in 0..rng.gen_range(2..6usize) {
                let cell = cells[rng.gen_range(0..cells.len())];
                let at = offset(&mut rng);
                nb.connect(net, cell, at).unwrap();
            }
        }
        let zero = nb.add_weighted_net("zero", 0.0);
        for &c in &cells[40..43] {
            nb.connect(zero, c, Point::ORIGIN).unwrap();
        }
        let lone = nb.add_weighted_net("lone", 2.0);
        nb.connect(lone, cells[7], Point::ORIGIN).unwrap();
        p.set(cells[3], Point::new(f64::NAN, 4.0));
        if all_nan {
            for &c in &cells[40..43] {
                p.set(c, Point::new(f64::NAN, f64::NAN));
            }
        }
        (nb.build().unwrap(), p)
    }

    #[test]
    fn the_hpwl_by_product_is_total_hpwl_bit_for_bit() {
        for all_nan in [false, true] {
            let (nl, p) = hpwl_zoo(all_nan);
            let expect = total_hpwl(&nl, &p);
            assert_eq!(expect.is_nan(), all_nan, "{expect}");
            for threads in [1, 2, 3] {
                let mut ws = WaWorkspace::new(threads);
                assert!(ws.chunks.is_empty());
                ws.gradient(&nl, &p, 0.8);
                assert!(ws.chunks.len() > threads, "{} chunks", ws.chunks.len());
                assert_eq!(
                    ws.hpwl().to_bits(),
                    expect.to_bits(),
                    "threads {threads}, all_nan {all_nan}: {} vs {expect}",
                    ws.hpwl()
                );
            }
        }
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
