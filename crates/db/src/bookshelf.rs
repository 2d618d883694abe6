//! Bookshelf placement-format support (UCLA `.aux/.nodes/.nets/.pl/.scl`).
//!
//! The academic placement community (ISPD contests, RePlAce, NTUplace)
//! exchanges designs in the Bookshelf format; this module reads those
//! benchmarks into a [`Design`] and writes placements back as `.pl` files,
//! so the framework can run on published netlists in addition to the
//! synthetic Table I presets.
//!
//! One loop reads every input: [`parse_bookshelf_streaming`] pulls lines
//! out of [`BufRead`] sources through a single reused buffer, so peak
//! memory is bounded by the netlist being built, never by the size of the
//! input files. This is the path [`read_aux`] uses and the one million-cell
//! benchmarks need; [`parse_bookshelf`] is the same call over in-memory
//! `&str` contents — convenient for tests and small designs.
//!
//! Declared counts are enforced: `NumNodes`, `NumNets`, `NumPins`, and
//! each net's `NetDegree` must match what the file actually defines, so a
//! truncated input yields a structured [`DbError`] — never a silently
//! partial netlist.
//!
//! Conventions translated at this boundary:
//!
//! * Bookshelf `.pl` coordinates are **lower-left corners**; [`Placement`]
//!   stores cell **centers**.
//! * Bookshelf pin offsets are from the node center — same as [`Pin`].
//! * `terminal` nodes become [`CellKind::FixedMacro`]; their `.pl`
//!   positions are design data ([`Design::place_macro`]).
//! * The placement region is the bounding box of the `.scl` core rows; row
//!   height and site width come from the first row. The metal stack is not
//!   part of Bookshelf, so the [`Technology::default`] stack is assumed,
//!   rescaled so that one row height matches the `.scl` row height.
//!
//! [`Pin`]: crate::netlist::Pin
//! [`CellKind::FixedMacro`]: crate::netlist::CellKind

use crate::design::{Design, Placement};
use crate::error::DbError;
use crate::geom::{Point, Rect};
use crate::io::LineReader;
use crate::netlist::{CellId, CellKind, NetId, Netlist, NetlistBuilder};
use crate::tech::Technology;
use std::collections::BTreeMap;
use std::io::{BufRead, Read};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Shared per-line parser state
// ---------------------------------------------------------------------------

/// Incremental `.nodes`/`.nets` parser, fed one content line at a time.
struct BookshelfParser {
    nb: NetlistBuilder,
    by_name: BTreeMap<String, CellId>,
    /// `NumNodes : N` when declared, checked against cells actually added.
    declared_nodes: Option<usize>,
    parsed_nodes: usize,
    /// The net currently accepting pin lines.
    current_net: Option<NetId>,
    /// `(declaring line, declared degree, net name)` of the open net, kept
    /// so a truncated pin list is reported against its `NetDegree` line.
    open_net: Option<(usize, usize, String)>,
    pins_in_net: usize,
    declared_nets: Option<usize>,
    declared_pins: Option<usize>,
    parsed_nets: usize,
    parsed_pins: usize,
}

impl BookshelfParser {
    fn new() -> Self {
        BookshelfParser {
            nb: NetlistBuilder::new(),
            by_name: BTreeMap::new(),
            declared_nodes: None,
            parsed_nodes: 0,
            current_net: None,
            open_net: None,
            pins_in_net: 0,
            declared_nets: None,
            declared_pins: None,
            parsed_nets: 0,
            parsed_pins: 0,
        }
    }

    fn nodes_line(&mut self, lineno: usize, line: &str) -> Result<(), DbError> {
        let mut it = line.split_whitespace();
        let Some(first) = it.next() else {
            return Ok(());
        };
        if first == "NumNodes" {
            let _colon = it.next();
            self.declared_nodes = it.next().and_then(|t| t.parse().ok());
            return Ok(());
        }
        if first == "NumTerminals" {
            return Ok(());
        }
        let w: f64 = parse_tok(it.next(), "nodes", lineno, "width")?;
        let h: f64 = parse_tok(it.next(), "nodes", lineno, "height")?;
        let kind = match it.next() {
            Some("terminal") | Some("terminal_NI") => CellKind::FixedMacro,
            _ => CellKind::Movable,
        };
        // try_add_cell also rejects NaN/inf sizes, which `w <= 0.0` misses.
        let id = self
            .nb
            .try_add_cell(first, w, h, kind)
            .map_err(|e| DbError::Parse {
                line: lineno,
                message: format!("nodes: {e}"),
            })?;
        self.by_name.insert(first.to_string(), id);
        self.parsed_nodes += 1;
        Ok(())
    }

    fn finish_nodes(&self, last_line: usize) -> Result<(), DbError> {
        if let Some(d) = self.declared_nodes {
            if d != self.parsed_nodes {
                return Err(DbError::Parse {
                    line: last_line,
                    message: format!(
                        "nodes: NumNodes declares {d} node(s) but the file defines {} \
                         (truncated file?)",
                        self.parsed_nodes
                    ),
                });
            }
        }
        Ok(())
    }

    fn nets_line(&mut self, lineno: usize, line: &str) -> Result<(), DbError> {
        let mut it = line.split_whitespace();
        let Some(first) = it.next() else {
            return Ok(());
        };
        match first {
            "NumNets" => {
                let _colon = it.next();
                self.declared_nets = it.next().and_then(|t| t.parse().ok());
            }
            "NumPins" => {
                let _colon = it.next();
                self.declared_pins = it.next().and_then(|t| t.parse().ok());
            }
            "NetDegree" => {
                self.close_net()?;
                // `NetDegree : d  name?`
                let _colon = it.next();
                let degree: Option<usize> = it.next().and_then(|t| t.parse().ok());
                let net_name = it
                    .next()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("net_{lineno}"));
                self.current_net = Some(self.nb.add_net(net_name.clone()));
                self.open_net = degree.map(|d| (lineno, d, net_name));
                self.pins_in_net = 0;
                self.parsed_nets += 1;
            }
            node => {
                let Some(net) = self.current_net else {
                    return Err(DbError::Parse {
                        line: lineno,
                        message: "nets: pin line before any NetDegree".into(),
                    });
                };
                let Some(&cell) = self.by_name.get(node) else {
                    return Err(DbError::Parse {
                        line: lineno,
                        message: format!("nets: unknown node '{node}'"),
                    });
                };
                // `<node> <I|O|B> : dx dy` (offsets optional).
                let _dir = it.next();
                let _colon = it.next();
                let dx: f64 = it.next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
                let dy: f64 = it.next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
                // Clamp offsets into the node (some benchmarks have pins on
                // the boundary plus rounding noise).
                let (w, h) = self.nb.cell_dims(cell).ok_or_else(|| DbError::Parse {
                    line: lineno,
                    message: format!("nets: node '{node}' has no recorded size"),
                })?;
                self.nb
                    .connect(
                        net,
                        cell,
                        Point::new(dx.clamp(-w / 2.0, w / 2.0), dy.clamp(-h / 2.0, h / 2.0)),
                    )
                    .map_err(|e| DbError::Parse {
                        line: lineno,
                        message: e.to_string(),
                    })?;
                self.pins_in_net += 1;
                self.parsed_pins += 1;
            }
        }
        Ok(())
    }

    /// Checks the open net's pin list against its declared degree.
    fn close_net(&mut self) -> Result<(), DbError> {
        if let Some((line, degree, name)) = self.open_net.take() {
            if degree != self.pins_in_net {
                return Err(DbError::Parse {
                    line,
                    message: format!(
                        "nets: net '{name}' declares {degree} pin(s) but lists {} \
                         (truncated file?)",
                        self.pins_in_net
                    ),
                });
            }
        }
        Ok(())
    }

    fn finish_nets(&mut self, last_line: usize) -> Result<(), DbError> {
        self.close_net()?;
        if let Some(d) = self.declared_nets {
            if d != self.parsed_nets {
                return Err(DbError::Parse {
                    line: last_line,
                    message: format!(
                        "nets: NumNets declares {d} net(s) but the file defines {} \
                         (truncated file?)",
                        self.parsed_nets
                    ),
                });
            }
        }
        if let Some(d) = self.declared_pins {
            if d != self.parsed_pins {
                return Err(DbError::Parse {
                    line: last_line,
                    message: format!(
                        "nets: NumPins declares {d} pin(s) but the file defines {} \
                         (truncated file?)",
                        self.parsed_pins
                    ),
                });
            }
        }
        Ok(())
    }

    fn build(self) -> Result<(BTreeMap<String, CellId>, Netlist), DbError> {
        Ok((self.by_name, self.nb.build()?))
    }
}

/// Fields of the CoreRow block currently being parsed.
#[derive(Default)]
struct CurRow {
    y: Option<f64>,
    height: Option<f64>,
    site_width: Option<f64>,
    x_origin: Option<f64>,
    num_sites: Option<f64>,
}

/// Accumulates `.scl` core rows; the region is their bounding box.
#[derive(Default)]
struct SclPass {
    /// Completed rows as `(y, height, x origin, width)`.
    rows: Vec<(f64, f64, f64, f64)>,
    /// Current CoreRow block.
    cur: CurRow,
    /// Site width recovered from the first row that states one.
    first_site_width: Option<f64>,
}

impl SclPass {
    fn line(&mut self, line: &str) {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["CoreRow", ..] => self.cur = CurRow::default(),
            ["Coordinate", ":", v] => self.cur.y = v.parse().ok(),
            ["Height", ":", v] => self.cur.height = v.parse().ok(),
            ["Sitewidth", ":", v] => {
                let sw = v.parse().ok();
                self.cur.site_width = sw;
                if self.first_site_width.is_none() {
                    self.first_site_width = sw;
                }
            }
            ["SubrowOrigin", ":", x, "NumSites", ":", n] => {
                self.cur.x_origin = x.parse().ok();
                self.cur.num_sites = n.parse().ok();
            }
            ["SubrowOrigin", ":", x] => self.cur.x_origin = x.parse().ok(),
            ["NumSites", ":", n] => self.cur.num_sites = n.parse().ok(),
            ["End"] => {
                if let CurRow {
                    y: Some(y),
                    height: Some(h),
                    site_width: Some(sw),
                    x_origin: Some(x0),
                    num_sites: Some(ns),
                } = self.cur
                {
                    self.rows.push((y, h, x0, sw * ns));
                }
            }
            _ => {}
        }
    }

    /// Resolves `(region, row_height, site_width)`; with no usable rows, a
    /// square region sized for ~70% utilization is synthesized.
    ///
    /// # Errors
    ///
    /// [`DbError::Validate`] when the rows do not span a region (a NaN or
    /// negative height, site width or site count).
    fn finish(self, netlist: &Netlist) -> Result<(Rect, f64, f64), DbError> {
        if self.rows.is_empty() {
            let area: f64 = netlist.movable_area().max(1.0) / 0.7;
            let side = area.sqrt().ceil();
            return Ok((Rect::new(0.0, 0.0, side, side), 1.0, 0.2));
        }
        let row_h = self.rows[0].1;
        let site_w = self.first_site_width.unwrap_or(1.0);
        let xl = self.rows.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
        let xh = self
            .rows
            .iter()
            .map(|r| r.2 + r.3)
            .fold(f64::NEG_INFINITY, f64::max);
        let yl = self.rows.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        let yh = self
            .rows
            .iter()
            .map(|r| r.0 + r.1)
            .fold(f64::NEG_INFINITY, f64::max);
        // `Rect::new` debug-asserts its corner order.
        if !(xl < xh && yl < yh) {
            return Err(DbError::Validate(format!(
                ".scl rows span no region: x {xl}..{xh}, y {yl}..{yh}"
            )));
        }
        Ok((Rect::new(xl, yl, xh, yh), row_h, site_w))
    }
}

fn make_design(
    name: &str,
    netlist: Netlist,
    region: Rect,
    row_height: f64,
    site_width: f64,
) -> Result<Design, DbError> {
    let mut tech = Technology::default();
    // Rescale the default stack so pitches stay proportional to row height.
    let scale = row_height / tech.row_height;
    tech.row_height = row_height;
    tech.site_width = site_width;
    for layer in &mut tech.layers {
        layer.metal_width *= scale;
        layer.wire_spacing *= scale;
    }
    Design::new(name, netlist, tech, region)
}

/// Applies one `.pl` line: movable positions land in `initial`, terminal
/// positions become design data.
fn pl_line(
    design: &mut Design,
    initial: &mut Placement,
    by_name: &BTreeMap<String, CellId>,
    lineno: usize,
    line: &str,
) -> Result<(), DbError> {
    let mut it = line.split_whitespace();
    let Some(node) = it.next() else {
        return Ok(());
    };
    let Some(&cell) = by_name.get(node) else {
        return Err(DbError::Parse {
            line: lineno,
            message: format!("pl: unknown node '{node}'"),
        });
    };
    let x: f64 = parse_tok(it.next(), "pl", lineno, "x")?;
    let y: f64 = parse_tok(it.next(), "pl", lineno, "y")?;
    let (w, h) = {
        let c = design.netlist().cell(cell);
        (c.width, c.height)
    };
    let center = Point::new(x + w / 2.0, y + h / 2.0);
    if design.netlist().cell(cell).is_movable() {
        initial.set(cell, center);
    } else {
        // Clamp into the region: Bookshelf terminals may sit on the
        // core boundary or in the periphery.
        let region = design.region();
        let half = Point::new(w / 2.0, h / 2.0);
        let clamped = Point::new(
            center.x.clamp(
                region.xl + half.x,
                (region.xh - half.x).max(region.xl + half.x),
            ),
            center.y.clamp(
                region.yl + half.y,
                (region.yh - half.y).max(region.yl + half.y),
            ),
        );
        design
            .place_macro(cell, clamped)
            .map_err(|e| DbError::Parse {
                line: lineno,
                message: e.to_string(),
            })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Front-ends
// ---------------------------------------------------------------------------

/// Parses a Bookshelf design from in-memory file contents:
/// [`parse_bookshelf_streaming`] over the strings' bytes.
///
/// `scl` may be empty, in which case a square region sized for ~70%
/// utilization is synthesized.
///
/// # Errors
///
/// Returns [`DbError::Parse`] describing the offending file and line.
pub fn parse_bookshelf(
    name: &str,
    nodes: &str,
    nets: &str,
    pl: &str,
    scl: &str,
) -> Result<Design, DbError> {
    parse_bookshelf_streaming(
        name,
        nodes.as_bytes(),
        nets.as_bytes(),
        pl.as_bytes(),
        scl.as_bytes(),
    )
}

/// Parses a Bookshelf design by streaming each file line-by-line through a
/// reused buffer: peak memory is the netlist under construction plus one
/// line, regardless of file sizes. An empty `scl` synthesizes a square
/// region sized for ~70% utilization.
///
/// # Errors
///
/// Returns [`DbError::Parse`] for malformed content and [`DbError::Read`]
/// (with the last completed line) when a reader fails mid-parse.
pub fn parse_bookshelf_streaming<N, E, P, S>(
    name: &str,
    nodes: N,
    nets: E,
    pl: P,
    scl: S,
) -> Result<Design, DbError>
where
    N: BufRead,
    E: BufRead,
    P: BufRead,
    S: BufRead,
{
    let mut parser = BookshelfParser::new();
    let mut reader = LineReader::new(nodes, ".nodes");
    let mut last = 0;
    while let Some((lineno, line)) = reader.next_content("UCLA nodes")? {
        last = lineno;
        parser.nodes_line(lineno, line)?;
    }
    parser.finish_nodes(last)?;

    let mut reader = LineReader::new(nets, ".nets");
    let mut last = 0;
    while let Some((lineno, line)) = reader.next_content("UCLA nets")? {
        last = lineno;
        parser.nets_line(lineno, line)?;
    }
    parser.finish_nets(last)?;

    let mut scl_pass = SclPass::default();
    let mut reader = LineReader::new(scl, ".scl");
    while let Some((_, line)) = reader.next_content("UCLA scl")? {
        scl_pass.line(line);
    }

    let (by_name, netlist) = parser.build()?;
    let (region, row_height, site_width) = scl_pass.finish(&netlist)?;
    let mut design = make_design(name, netlist, region, row_height, site_width)?;
    // Fixed nodes only; movable positions are a starting point.
    let mut initial = design.initial_placement();
    let mut reader = LineReader::new(pl, ".pl");
    while let Some((lineno, line)) = reader.next_content("UCLA pl")? {
        pl_line(&mut design, &mut initial, &by_name, lineno, line)?;
    }
    // A partial or missing .pl leaves terminals unplaced; callers decide
    // whether that matters via [`Design::check_macros_placed`].
    Ok(design)
}

/// How [`read_aux_with`] opens the sibling files named by the `.aux`.
/// The default opener is a plain buffered `File`; a caller can substitute
/// one that routes reads through a fault-injection hook.
pub type AuxOpener<'a> = dyn FnMut(&Path) -> std::io::Result<Box<dyn BufRead>> + 'a;

/// Reads a Bookshelf design given the path of its `.aux` file, streaming
/// every referenced file.
///
/// # Errors
///
/// Returns [`DbError`] on I/O failures or malformed content.
pub fn read_aux(path: impl AsRef<Path>) -> Result<Design, DbError> {
    read_aux_with(path, &mut |p: &Path| -> std::io::Result<Box<dyn BufRead>> {
        Ok(Box::new(std::io::BufReader::new(std::fs::File::open(p)?)))
    })
}

/// [`read_aux`] with a custom file opener, so callers can wrap the readers
/// (e.g. in a chaos-test fault hook) without this crate knowing about it.
///
/// # Errors
///
/// Returns [`DbError`] on I/O failures or malformed content.
pub fn read_aux_with(path: impl AsRef<Path>, open: &mut AuxOpener<'_>) -> Result<Design, DbError> {
    let path = path.as_ref();
    let mut aux = String::new();
    open(path)
        .and_then(|mut r| r.read_to_string(&mut aux))
        .map_err(DbError::Io)?;
    let dir = path.parent().unwrap_or(Path::new("."));
    let mut nodes: Option<PathBuf> = None;
    let mut nets: Option<PathBuf> = None;
    let mut pl: Option<PathBuf> = None;
    let mut scl: Option<PathBuf> = None;
    for tok in aux.split_whitespace() {
        let target: &mut Option<PathBuf> = match Path::new(tok).extension().and_then(|e| e.to_str())
        {
            Some("nodes") => &mut nodes,
            Some("nets") => &mut nets,
            Some("pl") => &mut pl,
            Some("scl") => &mut scl,
            _ => continue,
        };
        *target = Some(dir.join(tok));
    }
    let (Some(nodes), Some(nets)) = (nodes, nets) else {
        return Err(DbError::Parse {
            line: 0,
            message: "aux: missing .nodes or .nets reference".into(),
        });
    };
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bookshelf");
    let nodes = open(&nodes).map_err(DbError::Io)?;
    let nets = open(&nets).map_err(DbError::Io)?;
    let pl: Box<dyn BufRead> = match pl {
        Some(p) => open(&p).map_err(DbError::Io)?,
        None => Box::new(std::io::empty()),
    };
    let scl: Box<dyn BufRead> = match scl {
        Some(p) => open(&p).map_err(DbError::Io)?,
        None => Box::new(std::io::empty()),
    };
    parse_bookshelf_streaming(name, nodes, nets, pl, scl)
}

/// Serialises a placement as a Bookshelf `.pl` file (lower-left corners;
/// fixed nodes tagged `/FIXED`).
pub fn write_pl(design: &Design, placement: &Placement) -> String {
    let mut out = String::from("UCLA pl 1.0\n\n");
    for (id, cell) in design.netlist().iter_cells() {
        let p = placement.pos(id);
        let x = p.x - cell.width / 2.0;
        let y = p.y - cell.height / 2.0;
        if cell.is_movable() {
            out.push_str(&format!("{} {:.4} {:.4} : N\n", cell.name, x, y));
        } else {
            out.push_str(&format!("{} {:.4} {:.4} : N /FIXED\n", cell.name, x, y));
        }
    }
    out
}

fn parse_tok<T: std::str::FromStr>(
    tok: Option<&str>,
    file: &str,
    line: usize,
    what: &str,
) -> Result<T, DbError> {
    tok.ok_or_else(|| DbError::Parse {
        line,
        message: format!("{file}: missing {what}"),
    })?
    .parse()
    .map_err(|_| DbError::Parse {
        line,
        message: format!("{file}: bad {what}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: &str = "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n\
        a 2 1\nb 2 1\nram 8 8 terminal\n";
    const NETS: &str = "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n\
        NetDegree : 2 n0\n a I : 0.5 0.0\n b O : -0.5 0.0\n\
        NetDegree : 2 n1\n b I : 0 0\n ram O : 0 0\n";
    const PL: &str = "UCLA pl 1.0\n\na 0 0 : N\nb 4 0 : N\nram 20 20 : N /FIXED\n";
    const SCL: &str = "UCLA scl 1.0\nNumRows : 2\n\
        CoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n \
        Sitespacing : 1\n SubrowOrigin : 0 NumSites : 40\nEnd\n\
        CoreRow Horizontal\n Coordinate : 1\n Height : 1\n Sitewidth : 1\n \
        Sitespacing : 1\n SubrowOrigin : 0 NumSites : 40\nEnd\n";

    #[test]
    fn parses_a_minimal_design() {
        // Region is only 2 rows tall; grow it via more rows for the macro.
        let tall_scl: String = (0..30)
            .map(|i| {
                format!(
                    "CoreRow Horizontal\n Coordinate : {i}\n Height : 1\n Sitewidth : 1\n \
                     SubrowOrigin : 0 NumSites : 40\nEnd\n"
                )
            })
            .collect();
        let d = parse_bookshelf("mini", NODES, NETS, PL, &tall_scl).unwrap();
        let s = d.stats();
        assert_eq!(s.movable_cells, 2);
        assert_eq!(s.macros, 1);
        assert_eq!(s.nets, 2);
        assert_eq!(s.movable_pins, 3);
        assert_eq!(d.region(), Rect::new(0.0, 0.0, 40.0, 30.0));
        assert_eq!(d.tech().row_height, 1.0);
        // Fixed node at lower-left (20, 20), size 8x8 → center (24, 24).
        let m = d.netlist().fixed_macros().next().unwrap();
        assert_eq!(d.fixed_position(m), Some(Point::new(24.0, 24.0)));
    }

    #[test]
    fn missing_scl_synthesizes_a_region() {
        let d = parse_bookshelf("mini", NODES, NETS, "", "").unwrap();
        assert!(d.region().area() > 0.0);
        assert!(d.check_macros_placed().is_err(), "no .pl ⇒ macro unplaced");
    }

    #[test]
    fn unknown_nodes_in_nets_are_reported() {
        let bad = "NetDegree : 2 n0\n a I : 0 0\n ghost O : 0 0\n";
        let err = parse_bookshelf("x", NODES, bad, "", "").unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn pin_offsets_are_clamped_into_the_node() {
        let nets = "NetDegree : 2 n0\n a I : 99 99\n b O : 0 0\n";
        let d = parse_bookshelf("x", NODES, nets, "", "").unwrap();
        let pin = d.netlist().pin(crate::netlist::PinId(0));
        assert!(pin.offset.x <= 1.0 && pin.offset.y <= 0.5);
    }

    #[test]
    fn pl_round_trips_through_write_pl() {
        let tall_scl: String = (0..30)
            .map(|i| {
                format!(
                    "CoreRow Horizontal\n Coordinate : {i}\n Height : 1\n Sitewidth : 1\n \
                     SubrowOrigin : 0 NumSites : 40\nEnd\n"
                )
            })
            .collect();
        let d = parse_bookshelf("mini", NODES, NETS, PL, &tall_scl).unwrap();
        let mut placement = d.initial_placement();
        let a = d.netlist().movable_cells().next().unwrap();
        placement.set(a, Point::new(3.0, 5.5));
        let pl_text = write_pl(&d, &placement);
        assert!(pl_text.contains("/FIXED"));
        // Lower-left of cell 'a' (2x1 at center (3, 5.5)) is (2, 5).
        assert!(pl_text.contains("a 2.0000 5.0000 : N"));

        // Feed the written .pl back in: same fixed position, moved cell.
        let d2 = parse_bookshelf("mini", NODES, NETS, &pl_text, &tall_scl).unwrap();
        let m = d2.netlist().fixed_macros().next().unwrap();
        assert_eq!(d2.fixed_position(m), Some(Point::new(24.0, 24.0)));
    }

    #[test]
    fn read_aux_resolves_sibling_files() {
        let dir = std::env::temp_dir().join("puffer-bookshelf-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nodes"), NODES).unwrap();
        std::fs::write(dir.join("t.nets"), NETS).unwrap();
        std::fs::write(dir.join("t.pl"), "").unwrap();
        std::fs::write(dir.join("t.scl"), SCL).unwrap();
        std::fs::write(
            dir.join("t.aux"),
            "RowBasedPlacement : t.nodes t.nets t.wts t.pl t.scl\n",
        )
        .unwrap();
        let d = read_aux(dir.join("t.aux")).unwrap();
        assert_eq!(d.name(), "t");
        assert_eq!(d.stats().movable_cells, 2);
        assert_eq!(d.region().xh, 40.0);
    }

    #[test]
    fn generated_design_places_after_bookshelf_round_trip() {
        // Cross-check against our own text format: a design exported to
        // Bookshelf .pl and re-read keeps the same netlist structure.
        let d = parse_bookshelf("mini", NODES, NETS, "", "").unwrap();
        assert_eq!(d.netlist().num_pins(), 4);
        for (id, _) in d.netlist().iter_nets() {
            assert_eq!(d.netlist().net_degree(id), 2);
        }
    }

    #[test]
    fn mutilated_fixture_archives_to_the_clean_bytes() {
        // CRLF endings, comments, blank lines and trailing blanks are all
        // noise the reader must drop without a trace.
        let mutilate = |text: &str| -> String {
            let mut out = String::from("# leading comment\r\n\r\n");
            for line in text.lines() {
                out.push_str(line);
                out.push_str(" \t \r\n# between records\r\n\n");
            }
            out.push_str("# no trailing newline");
            out
        };
        let tall_scl: String = (0..30)
            .map(|i| {
                format!(
                    "CoreRow Horizontal\n Coordinate : {i}\n Height : 1\n Sitewidth : 1\n \
                     SubrowOrigin : 0 NumSites : 40\nEnd\n"
                )
            })
            .collect();
        let clean = parse_bookshelf("mini", NODES, NETS, PL, &tall_scl).unwrap();
        let noisy = parse_bookshelf(
            "mini",
            &mutilate(NODES),
            &mutilate(NETS),
            &mutilate(PL),
            &mutilate(&tall_scl),
        )
        .unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        crate::io::write_design(&clean, &mut a).unwrap();
        crate::io::write_design(&noisy, &mut b).unwrap();
        assert_eq!(a, b, "mutilation must not leak into the parsed design");
    }

    #[test]
    fn streaming_handles_crlf_line_endings() {
        let nodes = NODES.replace('\n', "\r\n");
        let nets = NETS.replace('\n', "\r\n");
        let d = parse_bookshelf_streaming(
            "crlf",
            nodes.as_bytes(),
            nets.as_bytes(),
            &b""[..],
            &b""[..],
        )
        .unwrap();
        assert_eq!(d.stats().nets, 2);
        assert_eq!(d.netlist().num_pins(), 4);
    }

    #[test]
    fn truncated_net_pin_list_is_rejected() {
        // Cut the file mid-net: n1 declares 2 pins but lists 1.
        let truncated = "UCLA nets 1.0\n\
            NetDegree : 2 n0\n a I : 0 0\n b O : 0 0\n\
            NetDegree : 2 n1\n b I : 0 0\n";
        let err = parse_bookshelf("x", NODES, truncated, "", "").unwrap_err();
        match err {
            DbError::Parse { line, ref message } => {
                assert_eq!(line, 5, "error points at the NetDegree line");
                assert!(message.contains("n1"), "got: {message}");
                assert!(message.contains("declares 2"), "got: {message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn declared_count_mismatches_are_rejected() {
        let nodes = "UCLA nodes 1.0\nNumNodes : 5\na 2 1\nb 2 1\n";
        let err = parse_bookshelf("x", nodes, "", "", "").unwrap_err();
        assert!(err.to_string().contains("NumNodes"), "got: {err}");

        let nets = "UCLA nets 1.0\nNumNets : 3\n\
            NetDegree : 2 n0\n a I : 0 0\n b O : 0 0\n";
        let err = parse_bookshelf("x", NODES, nets, "", "").unwrap_err();
        assert!(err.to_string().contains("NumNets"), "got: {err}");

        let nets = "UCLA nets 1.0\nNumPins : 9\n\
            NetDegree : 2 n0\n a I : 0 0\n b O : 0 0\n";
        let err = parse_bookshelf("x", NODES, nets, "", "").unwrap_err();
        assert!(err.to_string().contains("NumPins"), "got: {err}");
    }

    #[test]
    fn failing_reader_surfaces_a_read_error_with_context() {
        // A reader that yields one good line and then an I/O error.
        struct Flaky {
            sent: bool,
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.sent {
                    return Err(std::io::Error::other("wire cut"));
                }
                self.sent = true;
                let line = b"NetDegree : 2 n0\n";
                buf[..line.len()].copy_from_slice(line);
                Ok(line.len())
            }
        }
        let nets = std::io::BufReader::new(Flaky { sent: false });
        let err =
            parse_bookshelf_streaming("x", NODES.as_bytes(), nets, &b""[..], &b""[..]).unwrap_err();
        match err {
            DbError::Read { ref file, line, .. } => {
                assert_eq!(file, ".nets");
                assert_eq!(line, 1, "one line was consumed before the failure");
            }
            other => panic!("expected a read error, got {other:?}"),
        }
    }
}
