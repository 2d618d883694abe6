//! Rectilinear Steiner minimal tree (RSMT) construction for PUFFER.
//!
//! The paper (§III-A.2) uses FLUTE to obtain an RSMT topology per net and
//! then works exclusively on the resulting set of *two-point nets*, whose
//! endpoints are either cell pins or Steiner points. This crate provides the
//! same interface built from scratch:
//!
//! * exact optimal topologies for nets with ≤ 3 pins (single trunk at the
//!   coordinate-wise median);
//! * for larger nets, a rectilinear Prim MST followed by iterative
//!   Steiner-point refinement (the classic "steinerized MST", within a few
//!   percent of FLUTE's wirelength at placement-net sizes);
//! * decomposition into [`Segment`]s that remember whether each endpoint is
//!   a pin or a Steiner point — the distinction drives the paper's
//!   detour-imitating demand expansion (§III-A.3).
//!
//! # Example
//!
//! ```
//! use puffer_db::geom::Point;
//! use puffer_flute::{Topology, NodeKind};
//! let pins = [Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(2.0, 3.0)];
//! let topo = Topology::from_points(&pins);
//! // Optimal 3-pin RSMT: trunk at the median (2, 0); wirelength 4 + 3.
//! assert_eq!(topo.wirelength(), 7.0);
//! assert!(topo.nodes().iter().any(|n| n.kind == NodeKind::Steiner));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use puffer_db::design::Placement;
use puffer_db::geom::Point;
use puffer_db::netlist::{NetId, Netlist, PinId};

/// What a topology node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A terminal of the net. Carries the pin id when built from a netlist;
    /// topologies built from raw points use `Pin(PinId(u32::MAX))` markers.
    Pin(PinId),
    /// A Steiner (branch) point introduced by tree construction.
    Steiner,
}

impl NodeKind {
    /// Whether the node is a Steiner point.
    pub fn is_steiner(self) -> bool {
        self == NodeKind::Steiner
    }
}

/// A node of an RSMT topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Location.
    pub pos: Point,
    /// Pin or Steiner.
    pub kind: NodeKind,
}

/// A two-point net: one edge of the topology.
///
/// `a` and `b` index into [`Topology::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First endpoint (node index).
    pub a: usize,
    /// Second endpoint (node index).
    pub b: usize,
}

/// An RSMT topology for one net.
///
/// The topology is a tree: `edges.len() == distinct positions - 1` (pins at
/// identical coordinates are merged into one node).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    edges: Vec<Segment>,
    /// For merged coincident pins: all pin ids represented by each node.
    node_pins: Vec<Vec<PinId>>,
}

impl Topology {
    /// Builds the topology for `net` under `placement`.
    ///
    /// Pins at identical coordinates are merged into a single node that
    /// remembers all its pin ids (see [`Topology::pins_at`]).
    pub fn for_net(netlist: &Netlist, placement: &Placement, net: NetId) -> Topology {
        let pins = netlist.net_pins(net);
        let pts: Vec<(Point, PinId)> = pins
            .iter()
            .map(|&pid| (placement.pin_pos(netlist, pid), pid))
            .collect();
        Self::build(&pts)
    }

    /// Builds a topology from bare terminal positions (no pin identities).
    pub fn from_points(points: &[Point]) -> Topology {
        let pts: Vec<(Point, PinId)> = points.iter().map(|&p| (p, PinId(u32::MAX))).collect();
        Self::build(&pts)
    }

    /// Builds the **canonical** topology over integer Gcell coordinates.
    ///
    /// The input cells are sorted and deduplicated before construction, so
    /// any permutation (or duplication) of the same Gcell multiset yields a
    /// bit-identical topology — node order, Steiner points and edge list
    /// included. This is what makes the congestion estimate and the global
    /// route (both decompose through `puffer_congest::demand::decompose_net`)
    /// independent of the order a net lists its pins in. Degenerate nets are
    /// canonical too: a net whose pins all share one Gcell collapses to a
    /// single node with no segments.
    ///
    /// All coordinates are integers, so every median/MST computation is
    /// exact in `f64` and translation by an integer offset is lossless.
    pub fn from_gcells(cells: &[(u32, u32)]) -> Topology {
        let mut sorted: Vec<(u32, u32)> = cells.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let pts: Vec<(Point, PinId)> = sorted
            .iter()
            .map(|&(x, y)| (Point::new(f64::from(x), f64::from(y)), PinId(u32::MAX)))
            .collect();
        Self::build(&pts)
    }

    fn build(pts: &[(Point, PinId)]) -> Topology {
        // Merge coincident pins.
        let mut nodes: Vec<Node> = Vec::new();
        let mut node_pins: Vec<Vec<PinId>> = Vec::new();
        'outer: for &(p, pid) in pts {
            for (i, n) in nodes.iter().enumerate() {
                if (n.pos.x - p.x).abs() < 1e-9 && (n.pos.y - p.y).abs() < 1e-9 {
                    node_pins[i].push(pid);
                    continue 'outer;
                }
            }
            nodes.push(Node {
                pos: p,
                kind: NodeKind::Pin(pid),
            });
            node_pins.push(vec![pid]);
        }

        let n = nodes.len();
        let mut topo = Topology {
            nodes,
            edges: Vec::new(),
            node_pins,
        };
        match n {
            0 | 1 => {}
            2 => topo.edges.push(Segment { a: 0, b: 1 }),
            3 => topo.build_median_star(),
            _ => {
                topo.build_mst();
                topo.steinerize();
            }
        }
        topo
    }

    /// Optimal 3-terminal RSMT: a star centred on the coordinate-wise
    /// median (adds no Steiner node when the median coincides with a pin).
    fn build_median_star(&mut self) {
        let mut xs: Vec<f64> = self.nodes.iter().map(|n| n.pos.x).collect();
        let mut ys: Vec<f64> = self.nodes.iter().map(|n| n.pos.y).collect();
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        let m = Point::new(xs[1], ys[1]);
        if let Some(hub) = self
            .nodes
            .iter()
            .position(|n| (n.pos.x - m.x).abs() < 1e-9 && (n.pos.y - m.y).abs() < 1e-9)
        {
            for i in 0..3 {
                if i != hub {
                    self.edges.push(Segment { a: hub, b: i });
                }
            }
        } else {
            let hub = self.push_steiner(m);
            for i in 0..3 {
                self.edges.push(Segment { a: hub, b: i });
            }
        }
    }

    /// O(n²) rectilinear Prim MST over the (deduplicated) nodes.
    fn build_mst(&mut self) {
        let n = self.nodes.len();
        let mut in_tree = vec![false; n];
        let mut best_cost = vec![f64::INFINITY; n];
        let mut best_parent = vec![usize::MAX; n];
        in_tree[0] = true;
        for j in 1..n {
            best_cost[j] = self.nodes[0].pos.l1_distance(self.nodes[j].pos);
            best_parent[j] = 0;
        }
        for _ in 1..n {
            let mut pick = usize::MAX;
            let mut pick_cost = f64::INFINITY;
            for j in 0..n {
                if !in_tree[j] && best_cost[j] < pick_cost {
                    pick_cost = best_cost[j];
                    pick = j;
                }
            }
            in_tree[pick] = true;
            self.edges.push(Segment {
                a: best_parent[pick],
                b: pick,
            });
            for j in 0..n {
                if !in_tree[j] {
                    let d = self.nodes[pick].pos.l1_distance(self.nodes[j].pos);
                    if d < best_cost[j] {
                        best_cost[j] = d;
                        best_parent[j] = pick;
                    }
                }
            }
        }
    }

    /// Iteratively inserts Steiner points: for each node `u` and pair of
    /// tree neighbours `(v, w)`, the coordinate-wise median of `(u, v, w)`
    /// is the optimal branch point; rewiring through it never lengthens the
    /// tree and shortens it whenever the three bounding boxes overlap.
    fn steinerize(&mut self) {
        const MAX_PASSES: usize = 4;
        for _ in 0..MAX_PASSES {
            let mut improved = false;
            // Rebuild adjacency each pass; edges mutate during the pass.
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
            for (ei, e) in self.edges.iter().enumerate() {
                adj[e.a].push(ei);
                adj[e.b].push(ei);
            }
            #[allow(clippy::needless_range_loop, reason = "adjacency is index-coupled")]
            for u in 0..self.nodes.len() {
                if adj[u].len() < 2 {
                    continue;
                }
                // Greedy best pair of incident edges.
                let mut best: Option<(usize, usize, Point, f64)> = None;
                for i in 0..adj[u].len() {
                    for j in (i + 1)..adj[u].len() {
                        let (e1, e2) = (adj[u][i], adj[u][j]);
                        let v = self.other_end(e1, u);
                        let w = self.other_end(e2, u);
                        let m = median3(self.nodes[u].pos, self.nodes[v].pos, self.nodes[w].pos);
                        let before = self.nodes[u].pos.l1_distance(self.nodes[v].pos)
                            + self.nodes[u].pos.l1_distance(self.nodes[w].pos);
                        let after = self.nodes[u].pos.l1_distance(m)
                            + m.l1_distance(self.nodes[v].pos)
                            + m.l1_distance(self.nodes[w].pos);
                        let gain = before - after;
                        if gain > 1e-9 && best.is_none_or(|(_, _, _, g)| gain > g) {
                            best = Some((e1, e2, m, gain));
                        }
                    }
                }
                if let Some((e1, e2, m, _)) = best {
                    let v = self.other_end(e1, u);
                    let w = self.other_end(e2, u);
                    let s = self.push_steiner(m);
                    self.edges[e1] = Segment { a: u, b: s };
                    self.edges[e2] = Segment { a: s, b: v };
                    self.edges.push(Segment { a: s, b: w });
                    improved = true;
                    // Adjacency is stale for u/v/w now; restart the pass.
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        self.prune_degenerate();
    }

    /// Removes zero-length edges created when a Steiner point lands exactly
    /// on an existing node, merging the endpoints.
    fn prune_degenerate(&mut self) {
        while let Some(ei) = self
            .edges
            .iter()
            .position(|e| self.nodes[e.a].pos.l1_distance(self.nodes[e.b].pos) < 1e-9 && e.a != e.b)
        {
            let Segment { a, b } = self.edges[ei];
            // Keep the pin node if one of them is a pin; drop edge, rewire b -> a.
            let (keep, drop) = if self.nodes[b].kind.is_steiner() {
                (a, b)
            } else {
                (b, a)
            };
            self.edges.swap_remove(ei);
            for e in &mut self.edges {
                if e.a == drop {
                    e.a = keep;
                }
                if e.b == drop {
                    e.b = keep;
                }
            }
            // Node `drop` becomes an orphan; leave it in place (indices stay
            // stable) — it has no incident edges so it never contributes.
        }
        self.edges.retain(|e| e.a != e.b);
    }

    fn other_end(&self, edge: usize, node: usize) -> usize {
        let e = self.edges[edge];
        if e.a == node {
            e.b
        } else {
            e.a
        }
    }

    fn push_steiner(&mut self, p: Point) -> usize {
        self.nodes.push(Node {
            pos: p,
            kind: NodeKind::Steiner,
        });
        self.node_pins.push(Vec::new());
        self.nodes.len() - 1
    }

    /// All nodes; [`Segment`] endpoints index into this slice.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All two-point nets of the topology.
    pub fn segments(&self) -> &[Segment] {
        &self.edges
    }

    /// Pin ids merged into node `i` (empty for Steiner nodes).
    pub fn pins_at(&self, i: usize) -> &[PinId] {
        &self.node_pins[i]
    }

    /// Rectilinear wirelength of the tree.
    pub fn wirelength(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| self.nodes[e.a].pos.l1_distance(self.nodes[e.b].pos))
            .sum()
    }

    /// Number of terminals (distinct pin positions).
    pub fn num_terminals(&self) -> usize {
        self.nodes.iter().filter(|n| !n.kind.is_steiner()).count()
    }

    /// Whether the edge set forms a single connected tree over all nodes
    /// that have at least one incident edge (used by tests and debugging).
    pub fn is_connected_tree(&self) -> bool {
        let n = self.nodes.len();
        if self.edges.is_empty() {
            return n <= 1 || self.num_terminals() <= 1;
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.a].push(e.b);
            adj[e.b].push(e.a);
        }
        let touched: Vec<usize> = (0..n).filter(|&i| !adj[i].is_empty()).collect();
        let mut seen = vec![false; n];
        let mut stack = vec![touched[0]];
        seen[touched[0]] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == touched.len() && self.edges.len() == touched.len() - 1
    }
}

/// Coordinate-wise median of three points — the optimal rectilinear branch
/// location for three terminals.
pub fn median3(a: Point, b: Point, c: Point) -> Point {
    Point::new(median(a.x, b.x, c.x), median(a.y, b.y, c.y))
}

fn median(a: f64, b: f64, c: f64) -> f64 {
    a.max(b).min(a.max(c)).min(b.max(c))
}

/// Rectilinear MST wirelength over a point set (lower-bound cross-check for
/// tests; the RSMT is never longer than the MST).
pub fn mst_wirelength(points: &[Point]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    in_tree[0] = true;
    for j in 1..n {
        best[j] = points[0].l1_distance(points[j]);
    }
    let mut total = 0.0;
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut cost = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best[j] < cost {
                cost = best[j];
                pick = j;
            }
        }
        total += cost;
        in_tree[pick] = true;
        for j in 0..n {
            if !in_tree[j] {
                best[j] = best[j].min(points[pick].l1_distance(points[j]));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_nets() {
        let t = Topology::from_points(&[]);
        assert_eq!(t.wirelength(), 0.0);
        let t = Topology::from_points(&[Point::new(1.0, 1.0)]);
        assert_eq!(t.wirelength(), 0.0);
        assert!(t.segments().is_empty());
    }

    #[test]
    fn two_pin_net_is_direct() {
        let t = Topology::from_points(&[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.wirelength(), 7.0);
    }

    #[test]
    fn three_pin_median_star_is_optimal() {
        let t = Topology::from_points(&[
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 5.0),
        ]);
        // Median (5, 0); wirelength = 5 + 5 + 5 = 15 (HPWL of bbox).
        assert_eq!(t.wirelength(), 15.0);
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.nodes().iter().filter(|n| n.kind.is_steiner()).count(), 1);
    }

    #[test]
    fn three_collinear_pins_add_no_steiner() {
        let t = Topology::from_points(&[
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(9.0, 0.0),
        ]);
        assert_eq!(t.wirelength(), 9.0);
        assert_eq!(t.nodes().iter().filter(|n| n.kind.is_steiner()).count(), 0);
    }

    #[test]
    fn coincident_pins_merge() {
        let t = Topology::from_points(&[
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(4.0, 1.0),
        ]);
        assert_eq!(t.num_terminals(), 2);
        assert_eq!(t.wirelength(), 3.0);
    }

    #[test]
    fn steinerization_beats_mst_on_cross() {
        // Four pins forming a plus sign: MST = 3 arms through center pin
        // pairs, RSMT introduces a branch point at the center.
        let pts = [
            Point::new(0.0, 5.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 10.0),
        ];
        let t = Topology::from_points(&pts);
        let mst = mst_wirelength(&pts);
        assert!(
            t.wirelength() <= mst + 1e-9,
            "rsmt {} > mst {}",
            t.wirelength(),
            mst
        );
        // Optimal is 20 (star at (5,5)); MST is 25.
        assert_eq!(t.wirelength(), 20.0);
        assert!(t.is_connected_tree());
    }

    #[test]
    fn rsmt_never_exceeds_mst_randomized() {
        use puffer_rng::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let n = rng.gen_range(2..25);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let t = Topology::from_points(&pts);
            let mst = mst_wirelength(&pts);
            assert!(
                t.wirelength() <= mst + 1e-6,
                "trial {trial}: rsmt {} > mst {}",
                t.wirelength(),
                mst
            );
            assert!(t.is_connected_tree(), "trial {trial}: disconnected");
            // Steiner lower bound: RSMT >= MST / 1.5 for rectilinear trees.
            assert!(
                t.wirelength() >= mst / 1.5 - 1e-6,
                "trial {trial}: impossibly short"
            );
        }
    }

    #[test]
    fn for_net_tracks_pin_ids() {
        use puffer_db::netlist::{CellKind, NetlistBuilder};
        let mut nb = NetlistBuilder::new();
        let a = nb.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let b = nb.add_cell("b", 1.0, 1.0, CellKind::Movable);
        let n = nb.add_net("n");
        let pa = nb.connect(n, a, Point::ORIGIN).unwrap();
        let pb = nb.connect(n, b, Point::ORIGIN).unwrap();
        let nl = nb.build().unwrap();
        let mut pl = Placement::zeroed(2);
        pl.set(b, Point::new(6.0, 2.0));
        let t = Topology::for_net(&nl, &pl, n);
        assert_eq!(t.wirelength(), 8.0);
        assert_eq!(t.pins_at(0), &[pa]);
        assert_eq!(t.pins_at(1), &[pb]);
    }

    #[test]
    fn gcells_all_in_one_cell_collapse_to_a_point() {
        // Every pin shares one Gcell. The canonical topology is a single
        // node with no segments — such a net deposits no demand and gives
        // the router nothing to route.
        let t = Topology::from_gcells(&[(3, 7), (3, 7), (3, 7), (3, 7)]);
        assert_eq!(t.segments().len(), 0);
        assert_eq!(t.num_terminals(), 1);
        assert_eq!(t.wirelength(), 0.0);
    }

    #[test]
    fn gcells_duplicate_coordinates_merge_canonically() {
        // Duplicate-coordinate pins must not inflate the node set or change
        // the tree relative to the deduplicated input.
        let with_dups = Topology::from_gcells(&[(0, 0), (4, 0), (0, 0), (2, 3), (4, 0)]);
        let deduped = Topology::from_gcells(&[(0, 0), (4, 0), (2, 3)]);
        assert_eq!(with_dups.nodes(), deduped.nodes());
        assert_eq!(with_dups.segments(), deduped.segments());
        assert_eq!(with_dups.wirelength(), deduped.wirelength());
    }

    #[test]
    fn gcells_topology_is_pin_order_invariant() {
        // The same Gcell multiset in any pin order yields a bit-identical
        // topology (node order included) — what the estimator's and the
        // router's pin-order invariance rests on.
        use puffer_rng::StdRng;
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..25 {
            let n = rng.gen_range(2..12);
            let cells: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0..20u64) as u32,
                        rng.gen_range(0..20u64) as u32,
                    )
                })
                .collect();
            let reference = Topology::from_gcells(&cells);
            let mut shuffled = cells.clone();
            // Deterministic shuffle: repeated random swaps.
            for _ in 0..16 {
                let i = rng.gen_range(0..shuffled.len() as u64) as usize;
                let j = rng.gen_range(0..shuffled.len() as u64) as usize;
                shuffled.swap(i, j);
            }
            let t = Topology::from_gcells(&shuffled);
            assert_eq!(t.nodes(), reference.nodes(), "trial {trial}");
            assert_eq!(t.segments(), reference.segments(), "trial {trial}");
            assert!(t.is_connected_tree(), "trial {trial}");
        }
    }

    #[test]
    fn gcells_translation_is_exact() {
        // Integer translation of the input must translate every node
        // exactly: decomposing a net on absolute Gcells gives the segments
        // its bounding-box-relative Gcells gave, shifted — so no offset
        // form is needed.
        let base = [(1u32, 2u32), (5, 2), (3, 6), (1, 6)];
        let t0 = Topology::from_gcells(&base);
        let shifted: Vec<(u32, u32)> = base.iter().map(|&(x, y)| (x + 100, y + 200)).collect();
        let t1 = Topology::from_gcells(&shifted);
        assert_eq!(t0.nodes().len(), t1.nodes().len());
        for (a, b) in t0.nodes().iter().zip(t1.nodes()) {
            assert_eq!(a.pos.x + 100.0, b.pos.x);
            assert_eq!(a.pos.y + 200.0, b.pos.y);
            assert_eq!(a.kind.is_steiner(), b.kind.is_steiner());
        }
        assert_eq!(t0.segments(), t1.segments());
    }

    #[test]
    fn median3_is_componentwise() {
        let m = median3(
            Point::new(0.0, 9.0),
            Point::new(5.0, 1.0),
            Point::new(2.0, 4.0),
        );
        assert_eq!(m, Point::new(2.0, 4.0));
    }

    #[test]
    fn mst_wirelength_simple_chain() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        assert_eq!(mst_wirelength(&pts), 2.0);
        assert_eq!(mst_wirelength(&pts[..1]), 0.0);
    }
}
