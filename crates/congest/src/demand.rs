//! Topology-based probabilistic routing demand (paper §III-A.2).
//!
//! Every net is decomposed into two-point nets on its RSMT. "I"-shaped
//! two-point nets deposit one track of demand in each Gcell they pass, in
//! the corresponding direction. "L"-shaped two-point nets spread the demand
//! of the two possible L routes uniformly over their bounding box. A pin
//! penalty adds demand for local nets whose pins land in one Gcell.
//!
//! [`decompose_net`] is the workspace's one net decomposition: the global
//! router (`puffer_route`) routes the segments it returns, so the estimate
//! and the router's work list start from the same two-point nets. Pins are
//! quantized to Gcells **before** the RSMT is built, which makes a net's
//! segments a function of its set of pin Gcells — the same in any pin
//! order — and keeps two pins that share a Gcell from producing a segment
//! out of sub-Gcell coordinate noise (a Steiner median of unquantized
//! positions can land across a Gcell edge no pin crossed).

use crate::CongestError;
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_db::grid::Grid;
use puffer_db::netlist::{NetId, Netlist};
use puffer_flute::Topology;

/// One two-point net, recorded in Gcell coordinates for the detour pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Gcell x of endpoint `a`.
    pub ax: usize,
    /// Gcell y of endpoint `a`.
    pub ay: usize,
    /// Gcell x of endpoint `b`.
    pub bx: usize,
    /// Gcell y of endpoint `b`.
    pub by: usize,
    /// Whether endpoint `a` is a Steiner point.
    pub a_steiner: bool,
    /// Whether endpoint `b` is a Steiner point.
    pub b_steiner: bool,
}

/// Geometric class of a two-point net in Gcell space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentShape {
    /// Both endpoints in the same Gcell.
    Local,
    /// Same Gcell row: a horizontal I-shape.
    HorizontalI,
    /// Same Gcell column: a vertical I-shape.
    VerticalI,
    /// Distinct rows and columns: an L-shape.
    Ell,
}

impl SegmentRecord {
    /// Classifies the segment.
    pub fn shape(&self) -> SegmentShape {
        match (self.ax == self.bx, self.ay == self.by) {
            (true, true) => SegmentShape::Local,
            (false, true) => SegmentShape::HorizontalI,
            (true, false) => SegmentShape::VerticalI,
            (false, false) => SegmentShape::Ell,
        }
    }
}

/// Nets one lane of [`try_build_demand`] must have to pay for its spawn:
/// the estimator gives the demand pass one lane per this many nets.
/// `examples/lane_calibration.rs` (EXPERIMENTS.md, "Lane calibration")
/// measured two lanes winning 21–36 % from 4.3 K nets up but 7–19 % at
/// 1.3 K; the second lane starts between the two, at 2.4 K.
pub(crate) const DEMAND_NETS_PER_LANE: usize = 1_200;

/// Demand the estimator adds per pin to the pin's Gcell in each direction,
/// capturing local nets whose pins share a Gcell (§III-A.2).
pub const PIN_PENALTY: f64 = 0.08;

/// Horizontal demand grid, vertical demand grid, and the routed segment
/// records they were accumulated from.
pub type DemandMaps = (Grid<f64>, Grid<f64>, Vec<SegmentRecord>);

/// Builds `(h_demand, v_demand, segments)` for a placement snapshot.
///
/// `template` supplies the Gcell geometry (any capacity map works); demand
/// grids share its region and resolution. Nets are processed on exactly
/// `threads` workers via `puffer-par` (clamped to `1..=32`) with fixed
/// chunking and an ordered merge, so the result is bit-identical for any
/// thread count.
///
/// A panicking worker thread (e.g. a placement shorter than the netlist
/// indexing out of bounds) is reported as [`CongestError::WorkerPanic`]
/// instead of unwinding through `join()` — puffer-par drains every worker
/// before reporting, since re-raising inside `thread::scope` aborts the
/// process outright when more than one worker panics.
///
/// # Errors
///
/// [`CongestError::WorkerPanic`] with the first worker's panic message.
pub fn try_build_demand(
    design: &Design,
    placement: &Placement,
    template: &Grid<f64>,
    pin_penalty: f64,
    threads: usize,
) -> Result<DemandMaps, CongestError> {
    let mut h_dmd: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
    let mut v_dmd: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
    let netlist = design.netlist();
    let mut segments = Vec::new();

    // Chunking, thread clamping, and panic draining all go through
    // puffer-par: fixed net-index chunks, one demand-grid partial per
    // chunk, merged in chunk order (so the result is bit-identical for
    // any thread count).
    let partials = puffer_par::try_map_chunks(netlist.num_nets(), threads, |range| {
        let mut h: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
        let mut v = h.clone();
        let mut segs = Vec::new();
        for i in range {
            let first = segs.len();
            let net = NetId(cast::idx_u32(i));
            decompose_net(netlist, placement, template, net, &mut segs);
            for rec in &segs[first..] {
                deposit(&mut h, &mut v, rec);
            }
        }
        (h, v, segs)
    })
    .map_err(|e| CongestError::WorkerPanic(e.0))?;
    for (h, v, segs) in partials {
        puffer_par::merge_add(h_dmd.as_mut_slice(), h.as_slice());
        puffer_par::merge_add(v_dmd.as_mut_slice(), v.as_slice());
        segments.extend(segs);
    }

    add_pin_penalty(&mut h_dmd, &mut v_dmd, netlist, placement, pin_penalty);

    Ok((h_dmd, v_dmd, segments))
}

/// Appends the RSMT decomposition of `net` to `out`, in absolute Gcells of
/// `gcells`: each pin is quantized to its Gcell, and
/// [`Topology::from_gcells`] builds the tree over those integer
/// coordinates, so every endpoint (Steiner points included) is a Gcell.
/// A net whose pins share one Gcell appends nothing.
pub fn decompose_net(
    netlist: &Netlist,
    placement: &Placement,
    gcells: &Grid<f64>,
    net: NetId,
    out: &mut Vec<SegmentRecord>,
) {
    let pins: Vec<(u32, u32)> = netlist
        .net_pins(net)
        .iter()
        .map(|&pid| {
            let (ix, iy) = gcells.cell_of(placement.pin_pos(netlist, pid));
            (cast::idx_u32(ix), cast::idx_u32(iy))
        })
        .collect();
    let topo = Topology::from_gcells(&pins);
    let nodes = topo.nodes();
    out.extend(topo.segments().iter().map(|seg| {
        let (a, b) = (nodes[seg.a], nodes[seg.b]);
        SegmentRecord {
            ax: cast::trunc_idx(a.pos.x),
            ay: cast::trunc_idx(a.pos.y),
            bx: cast::trunc_idx(b.pos.x),
            by: cast::trunc_idx(b.pos.y),
            a_steiner: a.kind.is_steiner(),
            b_steiner: b.kind.is_steiner(),
        }
    }));
}

/// Pin penalty: local-net demand at every pin's Gcell, in pin-index order.
/// The estimator passes [`PIN_PENALTY`].
fn add_pin_penalty(
    h_dmd: &mut Grid<f64>,
    v_dmd: &mut Grid<f64>,
    netlist: &Netlist,
    placement: &Placement,
    pin_penalty: f64,
) {
    if pin_penalty > 0.0 {
        for i in 0..netlist.num_pins() {
            let pid = puffer_db::netlist::PinId(cast::idx_u32(i));
            let pos = placement.pin_pos(netlist, pid);
            let (ix, iy) = h_dmd.cell_of(pos);
            *h_dmd.at_mut(ix, iy) += pin_penalty;
            *v_dmd.at_mut(ix, iy) += pin_penalty;
        }
    }
}

/// Deposits one segment's probabilistic demand into the grids.
fn deposit(h_dmd: &mut Grid<f64>, v_dmd: &mut Grid<f64>, rec: &SegmentRecord) {
    let (x0, x1) = (rec.ax.min(rec.bx), rec.ax.max(rec.bx));
    let (y0, y1) = (rec.ay.min(rec.by), rec.ay.max(rec.by));
    // Row-slice inner loops: the per-cell adds (values and order per grid
    // cell) are identical to indexed `at_mut` walks, but contiguous slices
    // let LLVM vectorize the row bodies and hoist the bounds checks.
    let nx = h_dmd.nx();
    match rec.shape() {
        SegmentShape::Local => {}
        SegmentShape::HorizontalI => {
            let row = rec.ay * nx;
            for c in &mut h_dmd.as_mut_slice()[row + x0..=row + x1] {
                *c += 1.0;
            }
        }
        SegmentShape::VerticalI => {
            let data = v_dmd.as_mut_slice();
            let mut i = y0 * nx + rec.ax;
            for _ in y0..=y1 {
                data[i] += 1.0;
                i += nx;
            }
        }
        SegmentShape::Ell => {
            // Average of the two L routes: horizontal demand 1/nrows per
            // bbox Gcell, vertical demand 1/ncols per bbox Gcell.
            let nrows = cast::idx_f64(y1 - y0 + 1);
            let ncols = cast::idx_f64(x1 - x0 + 1);
            let h_share = 1.0 / nrows;
            let v_share = 1.0 / ncols;
            let h = h_dmd.as_mut_slice();
            let v = v_dmd.as_mut_slice();
            for y in y0..=y1 {
                let row = y * nx;
                for c in &mut h[row + x0..=row + x1] {
                    *c += h_share;
                }
                for c in &mut v[row + x0..=row + x1] {
                    *c += v_share;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_db::geom::{Point, Rect};

    fn grids() -> (Grid<f64>, Grid<f64>) {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        (Grid::new(r, 10, 10), Grid::new(r, 10, 10))
    }

    #[test]
    fn horizontal_i_deposits_unit_track() {
        let (mut h, mut v) = grids();
        let rec = SegmentRecord {
            ax: 2,
            ay: 5,
            bx: 6,
            by: 5,
            a_steiner: false,
            b_steiner: false,
        };
        assert_eq!(rec.shape(), SegmentShape::HorizontalI);
        deposit(&mut h, &mut v, &rec);
        for x in 2..=6 {
            assert_eq!(*h.at(x, 5), 1.0);
        }
        assert_eq!(h.sum(), 5.0);
        assert_eq!(v.sum(), 0.0);
    }

    #[test]
    fn vertical_i_deposits_unit_track() {
        let (mut h, mut v) = grids();
        let rec = SegmentRecord {
            ax: 3,
            ay: 8,
            bx: 3,
            by: 4,
            a_steiner: false,
            b_steiner: false,
        };
        assert_eq!(rec.shape(), SegmentShape::VerticalI);
        deposit(&mut h, &mut v, &rec);
        assert_eq!(v.sum(), 5.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn ell_spreads_average_demand() {
        let (mut h, mut v) = grids();
        let rec = SegmentRecord {
            ax: 1,
            ay: 1,
            bx: 4,
            by: 3,
            a_steiner: false,
            b_steiner: true,
        };
        assert_eq!(rec.shape(), SegmentShape::Ell);
        deposit(&mut h, &mut v, &rec);
        // Total horizontal demand equals the horizontal crossing count (4
        // columns), total vertical equals 3 rows.
        assert!((h.sum() - 4.0).abs() < 1e-9);
        assert!((v.sum() - 3.0).abs() < 1e-9);
        // Uniform inside the bbox.
        assert!((*h.at(1, 1) - 1.0 / 3.0).abs() < 1e-9);
        assert!((*v.at(4, 3) - 1.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn local_segment_deposits_nothing() {
        let (mut h, mut v) = grids();
        let rec = SegmentRecord {
            ax: 5,
            ay: 5,
            bx: 5,
            by: 5,
            a_steiner: false,
            b_steiner: false,
        };
        assert_eq!(rec.shape(), SegmentShape::Local);
        deposit(&mut h, &mut v, &rec);
        assert_eq!(h.sum() + v.sum(), 0.0);
    }

    #[test]
    fn build_demand_adds_pin_penalty() {
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        use puffer_db::tech::Technology;
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::ORIGIN).unwrap();
        nb.connect(n, b, Point::ORIGIN).unwrap();
        let d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 20.0, 20.0),
        )
        .unwrap();
        let mut p = Placement::zeroed(2);
        p.set(a, Point::new(2.5, 2.5));
        p.set(b, Point::new(12.5, 2.5));
        let template: Grid<f64> = Grid::new(d.region(), 4, 4);
        let (h, v, segs) = try_build_demand(&d, &p, &template, 0.25, 2).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].shape(), SegmentShape::HorizontalI);
        // 3 Gcells crossed horizontally (columns 0..=2 at 5-unit pitch) plus
        // two pin penalties.
        assert!((h.sum() - (3.0 + 0.5)).abs() < 1e-9);
        assert!((v.sum() - 0.5).abs() < 1e-9);
    }

    /// Regression: cells sitting exactly on a Gcell edge must bin
    /// identically in the decomposition and the pin-penalty pass.
    /// `Grid::cell_of` bins an on-edge point up into the next cell (clamped
    /// at the boundary); because pins are quantized **before** the RSMT is
    /// built, there is no second rounding site left to disagree.
    #[test]
    fn on_edge_pins_bin_identically_in_fingerprint_and_deposit() {
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        use puffer_db::tech::Technology;
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::ORIGIN).unwrap();
        nb.connect(n, b, Point::ORIGIN).unwrap();
        let d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 20.0, 20.0),
        )
        .unwrap();
        let template: Grid<f64> = Grid::new(d.region(), 4, 4);
        // Gcell pitch is 5.0; x = 5.0 and x = 10.0 sit exactly on edges.
        let mut p = Placement::zeroed(2);
        p.set(a, Point::new(5.0, 10.0));
        p.set(b, Point::new(10.0, 10.0));
        // cell_of bins the on-edge coordinate up: x=5 → column 1, x=10 →
        // column 2, y=10 → row 2.
        let mut segs = Vec::new();
        decompose_net(d.netlist(), &p, &template, n, &mut segs);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].ax, segs[0].ay), (1, 2));
        assert_eq!((segs[0].bx, segs[0].by), (2, 2));
        // The demand build records the same segment, and the pin-penalty
        // pass (which calls cell_of independently) puts its demand in the
        // same Gcells.
        let (h, _, built) = try_build_demand(&d, &p, &template, 1.0, 1).unwrap();
        assert_eq!(built, segs);
        assert!(*h.at(1, 2) >= 1.0 && *h.at(2, 2) >= 1.0);
    }

    #[test]
    fn demand_is_identical_for_any_thread_count() {
        use puffer_gen::{generate, GeneratorConfig};
        let d = generate(&GeneratorConfig {
            num_cells: 300,
            num_nets: 340,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let p = d.initial_placement();
        let template: Grid<f64> = Grid::new(d.region(), 12, 12);
        let (h1, v1, s1) = try_build_demand(&d, &p, &template, 0.1, 1).unwrap();
        let (h8, v8, s8) = try_build_demand(&d, &p, &template, 0.1, 8).unwrap();
        assert_eq!(s1, s8);
        for (a, b) in h1.as_slice().iter().zip(h8.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in v1.as_slice().iter().zip(v8.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// The estimator's whole error contract: it keeps no state between
    /// calls, so a failed build leaves nothing behind for the next one.
    #[test]
    fn panicking_workers_become_an_error_not_an_abort() {
        use puffer_gen::{generate, GeneratorConfig};
        let d = generate(&GeneratorConfig {
            num_cells: 200,
            num_nets: 220,
            ..GeneratorConfig::default()
        })
        .unwrap();
        // A placement shorter than the netlist makes every worker index out
        // of bounds; with 4 workers this used to abort the process (first
        // `join().expect` re-panicked while other panicked handles were
        // still pending in the scope).
        let short = Placement::zeroed(1);
        let template: Grid<f64> = Grid::new(d.region(), 8, 8);
        let err = try_build_demand(&d, &short, &template, 0.0, 4).unwrap_err();
        assert!(matches!(err, CongestError::WorkerPanic(_)), "{err}");
        assert!(err.to_string().contains("worker"), "{err}");
    }

    #[test]
    fn zero_pin_penalty_skips_pass() {
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        use puffer_db::tech::Technology;
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::ORIGIN).unwrap();
        let d = Design::new(
            "t",
            nb.build().unwrap(),
            Technology::default(),
            Rect::new(0.0, 0.0, 20.0, 20.0),
        )
        .unwrap();
        let template: Grid<f64> = Grid::new(d.region(), 4, 4);
        let (h, v, _) = try_build_demand(&d, &Placement::zeroed(1), &template, 0.0, 2).unwrap();
        assert_eq!(h.sum() + v.sum(), 0.0);
    }
}
