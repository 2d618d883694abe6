//! Circuit database for the PUFFER routability-driven placement framework.
//!
//! This crate is the foundation substrate shared by every other crate in the
//! workspace. It models what a placement flow needs from a physical-design
//! database:
//!
//! * [`geom`] — plain geometry (points, rectangles) in floating-point
//!   database units;
//! * [`tech`] — technology data: placement sites, rows, and the metal-layer
//!   stack used for routing-capacity computation (paper Eq. (8));
//! * [`netlist`] — cells, nets, and pins with a validating builder;
//! * [`design`] — a placeable design (netlist + technology + floorplan) and
//!   [`design::Placement`] solutions;
//! * [`grid`] — dense 2-D grids used for density bins and Gcell maps;
//! * [`hpwl`] — half-perimeter wirelength evaluation;
//! * [`stats`] — the Table-I style design statistics;
//! * [`io`] — a small self-describing text format for designs and placements;
//! * [`bookshelf`] — reader/writer for the UCLA Bookshelf benchmark format;
//! * [`svg`] — SVG rendering of placements for reports and the CLI.
//!
//! # Example
//!
//! ```
//! use puffer_db::design::Design;
//! use puffer_db::geom::{Point, Rect};
//! use puffer_db::netlist::{CellKind, NetlistBuilder};
//! use puffer_db::tech::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nb = NetlistBuilder::new();
//! let a = nb.add_cell("a", 2.0, 1.0, CellKind::Movable);
//! let b = nb.add_cell("b", 2.0, 1.0, CellKind::Movable);
//! let n = nb.add_net("n");
//! nb.connect(n, a, Point::new(0.5, 0.5))?;
//! nb.connect(n, b, Point::new(-0.5, 0.5))?;
//! let netlist = nb.build()?;
//!
//! let design = Design::new(
//!     "tiny",
//!     netlist,
//!     Technology::default(),
//!     Rect::new(0.0, 0.0, 100.0, 100.0),
//! )?;
//! assert_eq!(design.stats().movable_cells, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod bookshelf;
pub mod cast;
pub mod design;
pub mod error;
pub mod geom;
pub mod grid;
pub mod hpwl;
pub mod io;
pub mod netlist;
pub mod stats;
pub mod svg;
pub mod tech;

pub use design::{Design, Placement};
pub use error::DbError;
pub use geom::{Point, Rect};
pub use grid::Grid;
pub use netlist::{Cell, CellId, CellKind, Net, NetId, Netlist, NetlistBuilder, Pin, PinId};
pub use tech::{Layer, PreferredDirection, Technology};
