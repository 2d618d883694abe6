//! Netlist model: cells, nets, pins, and a validating builder.
//!
//! A netlist is a hypergraph `H = (V, E)` (paper §II-A): vertices are cell
//! instances, hyperedges are nets, and the incidence structure is carried by
//! pins. A [`Pin`] belongs to exactly one cell and one net and has a fixed
//! geometric offset from its cell's center.
//!
//! Construction goes through [`NetlistBuilder`], which validates the
//! structure once at [`NetlistBuilder::build`]; the resulting [`Netlist`] is
//! immutable, so every index stored inside it is guaranteed in-bounds for the
//! lifetime of the value.

use crate::error::DbError;
use crate::geom::Point;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a `usize` index into the owning collection.
            #[inline]
            pub fn index(self) -> usize {
                crate::cast::u32_idx(self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifier of a cell within a [`Netlist`].
    CellId
);
id_type!(
    /// Identifier of a net within a [`Netlist`].
    NetId
);
id_type!(
    /// Identifier of a pin within a [`Netlist`].
    PinId
);

/// Whether a cell can be moved by the placer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A standard cell the placer may move.
    Movable,
    /// A fixed macro; also acts as a placement and routing blockage.
    FixedMacro,
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellKind::Movable => write!(f, "movable"),
            CellKind::FixedMacro => write!(f, "fixed_macro"),
        }
    }
}

/// A cell instance.
///
/// Pin membership is not stored here: the owning [`Netlist`] keeps one flat
/// compressed array for all cells (see [`Netlist::cell_pins`]), so a cell
/// record stays a fixed-size struct even on million-cell designs.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Width in database units. This is the *physical* width; padding used
    /// by the routability optimizer is tracked separately by the placer.
    pub width: f64,
    /// Height in database units.
    pub height: f64,
    /// Movability.
    pub kind: CellKind,
}

impl Cell {
    /// Cell area.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Whether the placer may move this cell.
    pub fn is_movable(&self) -> bool {
        self.kind == CellKind::Movable
    }
}

/// A net (hyperedge) connecting two or more pins.
///
/// Pin membership lives in the owning [`Netlist`]'s compressed array (see
/// [`Netlist::net_pins`] and [`Netlist::net_degree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Net weight for wirelength objectives (default 1.0).
    pub weight: f64,
}

/// A pin: the connection point between one cell and one net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Connected net.
    pub net: NetId,
    /// Offset of the pin from the owning cell's **center**.
    pub offset: Point,
}

/// An immutable, validated netlist.
///
/// Use [`NetlistBuilder`] to construct one; see the [crate-level
/// example](crate) for the full flow.
///
/// # Storage layout
///
/// Pin membership is stored struct-of-arrays style: one flat [`PinId`]
/// array per side (cell side and net side) plus `u32` start offsets, CSR
/// fashion. Compared to a `Vec<PinId>` inside every [`Cell`] and [`Net`],
/// this removes two heap allocations and two 24-byte `Vec` headers per
/// entity — on a 1.5M-cell design that is hundreds of megabytes of peak
/// memory and allocator churn. The membership slices are reachable only
/// through [`Netlist::cell_pins`] / [`Netlist::net_pins`], so the compact
/// layout is invisible to downstream crates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    /// Start offset of each cell's pin-id run in `cell_pin_ids`
    /// (`len == cells.len() + 1`; cell `i` owns `[starts[i], starts[i+1])`).
    cell_pin_starts: Vec<u32>,
    /// Pin ids grouped by owning cell, in connect order within each cell.
    cell_pin_ids: Vec<PinId>,
    /// Start offset of each net's pin-id run in `net_pin_ids`.
    net_pin_starts: Vec<u32>,
    /// Pin ids grouped by net, in connect order within each net.
    net_pin_ids: Vec<PinId>,
}

/// Groups the pin table by `key` (owning cell or net index) into a CSR
/// (starts, ids) pair via a counting sort; every key must be `< buckets`.
fn csr_by(pins: &[Pin], buckets: usize, key: impl Fn(&Pin) -> usize) -> (Vec<u32>, Vec<PinId>) {
    let mut starts = vec![0u32; buckets + 1];
    for pin in pins {
        starts[key(pin) + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut cursor = starts.clone();
    let mut ids = vec![PinId(0); pins.len()];
    for (i, pin) in pins.iter().enumerate() {
        let slot = &mut cursor[key(pin)];
        ids[crate::cast::u32_idx(*slot)] = PinId(crate::cast::idx_u32(i));
        *slot += 1;
    }
    (starts, ids)
}

/// Flattens per-entity pin-id lists into a CSR (starts, ids) pair.
fn flatten_membership(lists: Vec<Vec<PinId>>) -> (Vec<u32>, Vec<PinId>) {
    let total = lists.iter().map(Vec::len).sum();
    let mut starts = Vec::with_capacity(lists.len() + 1);
    let mut ids = Vec::with_capacity(total);
    starts.push(0u32);
    for list in lists {
        ids.extend_from_slice(&list);
        starts.push(crate::cast::idx_u32(ids.len()));
    }
    (starts, ids)
}

impl Netlist {
    /// Assembles a netlist directly from its parts, **bypassing all
    /// builder validation**. This exists so the invariant checkers in
    /// `puffer-audit` can be exercised against deliberately corrupted
    /// netlists; real construction must go through [`NetlistBuilder`].
    ///
    /// `cell_pins` and `net_pins` carry the per-entity membership lists
    /// (one per cell / net, in id order); they are flattened verbatim, so
    /// a deliberately inconsistent membership survives into the netlist.
    #[doc(hidden)]
    pub fn from_raw_parts(
        cells: Vec<Cell>,
        nets: Vec<Net>,
        pins: Vec<Pin>,
        cell_pins: Vec<Vec<PinId>>,
        net_pins: Vec<Vec<PinId>>,
    ) -> Netlist {
        let (cell_pin_starts, cell_pin_ids) = flatten_membership(cell_pins);
        let (net_pin_starts, net_pin_ids) = flatten_membership(net_pins);
        Netlist {
            cells,
            nets,
            pins,
            cell_pin_starts,
            cell_pin_ids,
            net_pin_starts,
            net_pin_ids,
        }
    }

    /// Pin ids attached to `cell`, in connect order.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds (ids from this netlist never are).
    #[inline]
    pub fn cell_pins(&self, cell: CellId) -> &[PinId] {
        let i = cell.index();
        let lo = crate::cast::u32_idx(self.cell_pin_starts[i]);
        let hi = crate::cast::u32_idx(self.cell_pin_starts[i + 1]);
        &self.cell_pin_ids[lo..hi]
    }

    /// Pin ids on `net`, in connect order.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    #[inline]
    pub fn net_pins(&self, net: NetId) -> &[PinId] {
        let i = net.index();
        let lo = crate::cast::u32_idx(self.net_pin_starts[i]);
        let hi = crate::cast::u32_idx(self.net_pin_starts[i + 1]);
        &self.net_pin_ids[lo..hi]
    }

    /// Number of pins on `net` (its degree).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    #[inline]
    pub fn net_degree(&self, net: NetId) -> usize {
        self.net_pins(net).len()
    }

    /// All cells, indexable by [`CellId::index`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All pins, indexable by [`PinId::index`].
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds (ids from this netlist never are).
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The pin with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Number of cells (movable and fixed).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Iterator over `(CellId, &Cell)` pairs.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(crate::cast::idx_u32(i)), c))
    }

    /// Iterator over `(NetId, &Net)` pairs.
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(crate::cast::idx_u32(i)), n))
    }

    /// Ids of all movable cells.
    pub fn movable_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.iter_cells()
            .filter(|(_, c)| c.is_movable())
            .map(|(id, _)| id)
    }

    /// Ids of all fixed macros.
    pub fn fixed_macros(&self) -> impl Iterator<Item = CellId> + '_ {
        self.iter_cells()
            .filter(|(_, c)| !c.is_movable())
            .map(|(id, _)| id)
    }

    /// Total area of movable cells.
    pub fn movable_area(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.is_movable())
            .map(Cell::area)
            .sum()
    }
}

/// Incrementally builds and validates a [`Netlist`].
///
/// ```
/// use puffer_db::netlist::{CellKind, NetlistBuilder};
/// use puffer_db::geom::Point;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nb = NetlistBuilder::new();
/// let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
/// let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
/// let n = nb.add_net("n0");
/// nb.connect(n, a, Point::ORIGIN)?;
/// nb.connect(n, b, Point::ORIGIN)?;
/// let netlist = nb.build()?;
/// assert_eq!(netlist.net_degree(n), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints for large designs.
    pub fn with_capacity(cells: usize, nets: usize, pins: usize) -> Self {
        NetlistBuilder {
            cells: Vec::with_capacity(cells),
            nets: Vec::with_capacity(nets),
            pins: Vec::with_capacity(pins),
        }
    }

    /// Adds a cell and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not strictly positive or not
    /// finite. Use [`NetlistBuilder::try_add_cell`] when the dimensions come
    /// from untrusted input (e.g. a parsed file).
    #[expect(
        clippy::panic,
        reason = "documented panicking convenience over the fallible try_add_cell"
    )]
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
    ) -> CellId {
        self.try_add_cell(name, width, height, kind)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`NetlistBuilder::add_cell`]: a zero-area, negative, or
    /// non-finite dimension is a [`DbError::Validate`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Validate`] when `width` or `height` is not
    /// strictly positive and finite.
    pub fn try_add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
    ) -> Result<CellId, DbError> {
        let name = name.into();
        if !(width > 0.0 && width.is_finite()) {
            return Err(DbError::Validate(format!(
                "cell '{name}' width must be positive and finite, got {width}"
            )));
        }
        if !(height > 0.0 && height.is_finite()) {
            return Err(DbError::Validate(format!(
                "cell '{name}' height must be positive and finite, got {height}"
            )));
        }
        let id = CellId(crate::cast::idx_u32(self.cells.len()));
        self.cells.push(Cell {
            name,
            width,
            height,
            kind,
        });
        Ok(id)
    }

    /// Width and height of an already-added cell, or `None` for an unknown
    /// id. Streaming parsers use this to validate pin offsets against the
    /// owning cell without keeping a separate size table.
    pub fn cell_dims(&self, cell: CellId) -> Option<(f64, f64)> {
        self.cells.get(cell.index()).map(|c| (c.width, c.height))
    }

    /// Adds a net with weight 1 and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.add_weighted_net(name, 1.0)
    }

    /// Adds a net with an explicit weight and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite. Use
    /// [`NetlistBuilder::try_add_weighted_net`] for untrusted input.
    #[expect(
        clippy::panic,
        reason = "documented panicking convenience over the fallible try_add_weighted_net"
    )]
    pub fn add_weighted_net(&mut self, name: impl Into<String>, weight: f64) -> NetId {
        self.try_add_weighted_net(name, weight)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`NetlistBuilder::add_weighted_net`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Validate`] when `weight` is negative or not
    /// finite.
    pub fn try_add_weighted_net(
        &mut self,
        name: impl Into<String>,
        weight: f64,
    ) -> Result<NetId, DbError> {
        let name = name.into();
        if !(weight >= 0.0 && weight.is_finite()) {
            return Err(DbError::Validate(format!(
                "net '{name}' weight must be non-negative and finite, got {weight}"
            )));
        }
        let id = NetId(crate::cast::idx_u32(self.nets.len()));
        self.nets.push(Net { name, weight });
        Ok(id)
    }

    /// Connects `cell` to `net` with a pin at `offset` from the cell center,
    /// returning the new pin's id.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::BadId`] if either id is unknown.
    pub fn connect(&mut self, net: NetId, cell: CellId, offset: Point) -> Result<PinId, DbError> {
        if cell.index() >= self.cells.len() {
            return Err(DbError::BadId(format!("{cell} while connecting to {net}")));
        }
        if net.index() >= self.nets.len() {
            return Err(DbError::BadId(format!("{net} while connecting {cell}")));
        }
        let id = PinId(crate::cast::idx_u32(self.pins.len()));
        self.pins.push(Pin { cell, net, offset });
        Ok(id)
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Validates the structure and produces an immutable [`Netlist`].
    ///
    /// Single-pin and zero-pin nets are permitted (they occur in real designs
    /// as dangling or unconnected nets) but nets connecting the same cell
    /// more than once are collapsed into the bounding structure as-is; they
    /// contribute nothing to wirelength, which matches industrial practice.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Validate`] if a pin offset is non-finite or lies
    /// outside its cell's bounding box by more than the cell's half-size
    /// (a sign of corrupted input).
    pub fn build(self) -> Result<Netlist, DbError> {
        for (i, pin) in self.pins.iter().enumerate() {
            if !pin.offset.x.is_finite() || !pin.offset.y.is_finite() {
                return Err(DbError::Validate(format!("pin {i} has non-finite offset")));
            }
            let cell = &self.cells[pin.cell.index()];
            if pin.offset.x.abs() > cell.width || pin.offset.y.abs() > cell.height {
                return Err(DbError::Validate(format!(
                    "pin {i} offset {} exceeds cell '{}' extent ({} x {})",
                    pin.offset, cell.name, cell.width, cell.height
                )));
            }
        }
        // Compressed membership via counting sort over the pin table: pins
        // were validated in-bounds above, and scattering in pin-id order
        // keeps each entity's run in connect order — the exact order the
        // old per-entity `Vec<PinId>` lists carried.
        let (cell_pin_starts, cell_pin_ids) =
            csr_by(&self.pins, self.cells.len(), |p| p.cell.index());
        let (net_pin_starts, net_pin_ids) = csr_by(&self.pins, self.nets.len(), |p| p.net.index());
        Ok(Netlist {
            cells: self.cells,
            nets: self.nets,
            pins: self.pins,
            cell_pin_starts,
            cell_pin_ids,
            net_pin_starts,
            net_pin_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cell_netlist() -> Netlist {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 2.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 3.0, 1.0, CellKind::FixedMacro);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::new(0.5, 0.0)).unwrap();
        nb.connect(n, b, Point::new(-1.0, 0.0)).unwrap();
        nb.build().unwrap()
    }

    #[test]
    fn ids_round_trip() {
        let nl = two_cell_netlist();
        assert_eq!(nl.num_cells(), 2);
        assert_eq!(nl.num_nets(), 1);
        assert_eq!(nl.num_pins(), 2);
        assert_eq!(nl.cell(CellId(0)).name, "a");
        assert_eq!(nl.pin(PinId(1)).cell, CellId(1));
        assert_eq!(usize::from(CellId(1)), 1);
    }

    #[test]
    fn movable_and_fixed_partitions() {
        let nl = two_cell_netlist();
        assert_eq!(nl.movable_cells().collect::<Vec<_>>(), vec![CellId(0)]);
        assert_eq!(nl.fixed_macros().collect::<Vec<_>>(), vec![CellId(1)]);
        assert_eq!(nl.movable_area(), 2.0);
    }

    #[test]
    fn connect_rejects_bad_ids() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        assert!(nb.connect(NetId(9), a, Point::ORIGIN).is_err());
        assert!(nb.connect(n, CellId(9), Point::ORIGIN).is_err());
    }

    #[test]
    fn build_rejects_wild_pin_offsets() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::new(100.0, 0.0)).unwrap();
        assert!(matches!(nb.build(), Err(DbError::Validate(_))));
    }

    #[test]
    fn build_rejects_nan_offsets() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        nb.connect(n, a, Point::new(f64::NAN, 0.0)).unwrap();
        assert!(nb.build().is_err());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_cell_panics() {
        let mut nb = NetlistBuilder::new();
        nb.add_cell("bad", 0.0, 1.0, CellKind::Movable);
    }

    #[test]
    fn net_degree_and_weight() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_weighted_net("clk", 2.5);
        nb.connect(n, a, Point::ORIGIN).unwrap();
        let nl = nb.build().unwrap();
        assert_eq!(nl.net_degree(n), 1);
        assert_eq!(nl.net(n).weight, 2.5);
    }

    #[test]
    fn cell_pin_backrefs_are_consistent() {
        let nl = two_cell_netlist();
        for (cid, _) in nl.iter_cells() {
            for &pid in nl.cell_pins(cid) {
                assert_eq!(nl.pin(pid).cell, cid);
            }
        }
        for (nid, _) in nl.iter_nets() {
            for &pid in nl.net_pins(nid) {
                assert_eq!(nl.pin(pid).net, nid);
            }
        }
    }

    #[test]
    fn membership_runs_preserve_connect_order() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 2.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 2.0, 1.0, CellKind::Movable);
        let n0 = nb.add_net("n0");
        let n1 = nb.add_net("n1");
        // Interleave connections so the CSR scatter has to regroup.
        let p0 = nb.connect(n1, b, Point::ORIGIN).unwrap();
        let p1 = nb.connect(n0, a, Point::ORIGIN).unwrap();
        let p2 = nb.connect(n1, a, Point::ORIGIN).unwrap();
        let p3 = nb.connect(n0, b, Point::ORIGIN).unwrap();
        let nl = nb.build().unwrap();
        assert_eq!(nl.net_pins(n0), &[p1, p3]);
        assert_eq!(nl.net_pins(n1), &[p0, p2]);
        assert_eq!(nl.cell_pins(a), &[p1, p2]);
        assert_eq!(nl.cell_pins(b), &[p0, p3]);
        assert_eq!(nl.net_degree(n0), 2);
    }

    #[test]
    fn cell_dims_reports_added_cells() {
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 2.0, 1.5, CellKind::Movable);
        assert_eq!(nb.cell_dims(a), Some((2.0, 1.5)));
        assert_eq!(nb.cell_dims(CellId(7)), None);
    }

    #[test]
    fn display_impls() {
        assert_eq!(CellId(3).to_string(), "CellId(3)");
        assert_eq!(CellKind::Movable.to_string(), "movable");
        assert_eq!(CellKind::FixedMacro.to_string(), "fixed_macro");
    }
}
