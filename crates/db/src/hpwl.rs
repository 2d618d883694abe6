//! Half-perimeter wirelength (HPWL) evaluation.
//!
//! HPWL is the standard placement wirelength metric: for each net, the half
//! perimeter of the bounding box of its pins, weighted by the net weight.

use crate::design::Placement;
use crate::netlist::{NetId, Netlist};

/// HPWL of a single net (unweighted). Nets with fewer than two pins have
/// zero wirelength.
pub fn net_hpwl(netlist: &Netlist, placement: &Placement, net: NetId) -> f64 {
    let pins = netlist.net_pins(net);
    if pins.len() < 2 {
        return 0.0;
    }
    let mut xl = f64::INFINITY;
    let mut xh = f64::NEG_INFINITY;
    let mut yl = f64::INFINITY;
    let mut yh = f64::NEG_INFINITY;
    for &pid in pins {
        let p = placement.pin_pos(netlist, pid);
        xl = xl.min(p.x);
        xh = xh.max(p.x);
        yl = yl.min(p.y);
        yh = yh.max(p.y);
    }
    (xh - xl) + (yh - yl)
}

/// Total weighted HPWL over all nets.
///
/// ```
/// use puffer_db::geom::Point;
/// use puffer_db::netlist::{CellKind, NetlistBuilder};
/// use puffer_db::design::Placement;
/// use puffer_db::hpwl::total_hpwl;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nb = NetlistBuilder::new();
/// let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
/// let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
/// let n = nb.add_net("n");
/// nb.connect(n, a, Point::ORIGIN)?;
/// nb.connect(n, b, Point::ORIGIN)?;
/// let nl = nb.build()?;
/// let mut p = Placement::zeroed(2);
/// p.set(b, Point::new(3.0, 4.0));
/// assert_eq!(total_hpwl(&nl, &p), 7.0);
/// # Ok(())
/// # }
/// ```
pub fn total_hpwl(netlist: &Netlist, placement: &Placement) -> f64 {
    netlist
        .iter_nets()
        .map(|(id, net)| net.weight * net_hpwl(netlist, placement, id))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;
    use crate::netlist::{CellKind, NetlistBuilder};

    fn netlist_three() -> (Netlist, Placement) {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
        let c = nb.add_cell("c", 1.0, 1.0, CellKind::Movable);
        let n0 = nb.add_net("n0");
        nb.connect(n0, a, Point::ORIGIN).unwrap();
        nb.connect(n0, b, Point::ORIGIN).unwrap();
        nb.connect(n0, c, Point::ORIGIN).unwrap();
        let n1 = nb.add_weighted_net("n1", 2.0);
        nb.connect(n1, a, Point::new(0.25, 0.0)).unwrap();
        nb.connect(n1, b, Point::new(-0.25, 0.0)).unwrap();
        let nl = nb.build().unwrap();
        let mut p = Placement::zeroed(3);
        p.set(a, Point::new(0.0, 0.0));
        p.set(b, Point::new(10.0, 0.0));
        p.set(c, Point::new(5.0, 5.0));
        (nl, p)
    }

    #[test]
    fn net_hpwl_bounding_box() {
        let (nl, p) = netlist_three();
        assert_eq!(net_hpwl(&nl, &p, NetId(0)), 15.0); // bbox 10 x 5
    }

    #[test]
    fn pin_offsets_count() {
        let (nl, p) = netlist_three();
        // n1: pins at 0.25 and 9.75 => width 9.5.
        assert!((net_hpwl(&nl, &p, NetId(1)) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn total_is_weighted_sum() {
        let (nl, p) = netlist_three();
        assert!((total_hpwl(&nl, &p) - (15.0 + 2.0 * 9.5)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_nets_are_zero() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::ORIGIN).unwrap();
        nb.add_net("empty");
        let nl = nb.build().unwrap();
        let p = Placement::zeroed(1);
        assert_eq!(total_hpwl(&nl, &p), 0.0);
    }

    #[test]
    fn hpwl_is_translation_invariant() {
        let (nl, p) = netlist_three();
        let base = total_hpwl(&nl, &p);
        let mut q = p.clone();
        for (id, _) in nl.iter_cells() {
            let at = q.pos(id);
            q.set(id, Point::new(at.x + 123.0, at.y - 45.0));
        }
        assert!((total_hpwl(&nl, &q) - base).abs() < 1e-9);
    }
}
