//! Property-based tests on cross-crate invariants, driven by the
//! in-workspace `puffer_rng::check` harness.

use puffer_db::design::{Design, Placement};
use puffer_db::geom::{Point, Rect};
use puffer_db::grid::Grid;
use puffer_db::hpwl::total_hpwl;
use puffer_db::netlist::{CellId, CellKind, Netlist, NetlistBuilder};
use puffer_db::tech::Technology;
use puffer_flute::{mst_wirelength, Topology};
use puffer_legal::{check_legal, discretize_padding, legalize_bounded};
use puffer_place::{wa_wirelength_grad_threaded, WaWorkspace, WirelengthGrad};
use puffer_rng::check::{run_cases, vec_of};
use puffer_rng::{prop_check, StdRng};

fn arb_points(rng: &mut StdRng, max: usize) -> Vec<Point> {
    vec_of(rng, 1..max, |r| {
        Point::new(r.gen_range(0.0..100.0), r.gen_range(0.0..100.0))
    })
}

/// RSMT wirelength is sandwiched between the Steiner lower bound and
/// the MST, and the topology is always a connected tree.
#[test]
fn rsmt_is_bounded_and_connected() {
    run_cases(
        64,
        0x1001,
        |rng| arb_points(rng, 20),
        |points| {
            let topo = Topology::from_points(points);
            let mst = mst_wirelength(points);
            prop_check!(topo.wirelength() <= mst + 1e-6);
            prop_check!(topo.wirelength() >= mst / 1.5 - 1e-6);
            prop_check!(topo.is_connected_tree());
            Ok(())
        },
    );
}

/// Splatting arbitrary rectangles into a grid conserves mass for
/// rectangles inside the region.
#[test]
fn grid_splat_conserves_mass() {
    run_cases(
        64,
        0x1002,
        |rng| {
            (
                rng.gen_range(0.0..80.0),
                rng.gen_range(0.0..80.0),
                rng.gen_range(0.1..20.0),
                rng.gen_range(0.1..20.0),
                rng.gen_range(0.1..100.0),
            )
        },
        |&(xl, yl, w, h, amount)| {
            let mut g: Grid<f64> = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 16, 16);
            g.splat(&Rect::new(xl, yl, xl + w, yl + h), amount);
            prop_check!(
                (g.sum() - amount).abs() < 1e-6,
                "mass {} != {amount}",
                g.sum()
            );
            Ok(())
        },
    );
}

/// WA wirelength is always a lower bound of HPWL and converges to it.
#[test]
fn wa_lower_bounds_hpwl() {
    run_cases(
        64,
        0x1003,
        |rng| {
            let mut pts = arb_points(rng, 8);
            // The property needs at least two pins.
            if pts.len() < 2 {
                pts.push(Point::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ));
            }
            pts
        },
        |points| {
            let mut nb = NetlistBuilder::new();
            let ids: Vec<_> = (0..points.len())
                .map(|i| nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable))
                .collect();
            let n = nb.add_net("n");
            for &c in &ids {
                nb.connect(n, c, Point::ORIGIN).unwrap();
            }
            let nl = nb.build().unwrap();
            let mut p = Placement::zeroed(points.len());
            for (i, pt) in points.iter().enumerate() {
                p.set(ids[i], *pt);
            }
            let hp = total_hpwl(&nl, &p);
            let tight = wa_wirelength_grad_threaded(&nl, &p, 0.01, 1).value;
            let loose = wa_wirelength_grad_threaded(&nl, &p, 10.0, 1).value;
            prop_check!(tight <= hp + 1e-6, "tight {tight} > hpwl {hp}");
            prop_check!(loose <= hp + 1e-6, "loose {loose} > hpwl {hp}");
            prop_check!(
                (hp - tight) <= (hp - loose) + 1e-6,
                "smaller gamma is tighter"
            );
            Ok(())
        },
    );
}

/// Legalization of any in-region placement yields a legal placement.
#[test]
fn legalization_always_legal() {
    run_cases(
        64,
        0x1004,
        |rng| {
            let positions = vec_of(rng, 30..60, |r| {
                (r.gen_range(0.0..40.0), r.gen_range(0.0..40.0))
            });
            let pad_pattern: Vec<u32> = (0..60).map(|_| rng.gen_range(0..4u32)).collect();
            (positions, pad_pattern)
        },
        |(seed_positions, pad_pattern)| {
            let mut nb = NetlistBuilder::new();
            for i in 0..seed_positions.len() {
                nb.add_cell(format!("c{i}"), 0.6, 1.0, CellKind::Movable);
            }
            let d = Design::new(
                "t",
                nb.build().unwrap(),
                Technology::default(),
                Rect::new(0.0, 0.0, 40.0, 40.0),
            )
            .unwrap();
            let mut p = Placement::zeroed(seed_positions.len());
            for (i, &(x, y)) in seed_positions.iter().enumerate() {
                p.set(CellId(i as u32), Point::new(x, y));
            }
            let pads: Vec<u32> = (0..seed_positions.len())
                .map(|i| pad_pattern[i % pad_pattern.len()])
                .collect();
            let out = legalize_bounded(&d, &p, &pads, &puffer_budget::Budget::unbounded())
                .expect("ample capacity");
            prop_check!(
                check_legal(&d, &out.placement, &pads).is_ok(),
                "legalized placement is not legal"
            );
            Ok(())
        },
    );
}

/// Discretized padding is monotone in the continuous padding and never
/// maps positive padding to zero.
#[test]
fn discretization_is_monotone() {
    run_cases(
        64,
        0x1005,
        |rng| {
            let mut pads = vec_of(rng, 2..40, |r| r.gen_range(0.0..10.0));
            pads.sort_by(f64::total_cmp);
            let theta = rng.gen_range(1.0..8.0);
            (pads, theta)
        },
        |(pads, theta)| {
            let d = discretize_padding(pads, *theta);
            for w in d.windows(2) {
                prop_check!(w[0] <= w[1], "not monotone: {} then {}", w[0], w[1]);
            }
            for (c, disc) in pads.iter().zip(&d) {
                if *c > 0.0 {
                    prop_check!(*disc >= 1, "positive padding {c} mapped to zero");
                } else {
                    prop_check!(*disc == 0, "zero padding mapped to {disc}");
                }
            }
            Ok(())
        },
    );
}

/// The congestion-map combination rule (Eq. 10) is monotone in demand.
#[test]
fn congestion_monotone_in_demand() {
    run_cases(
        64,
        0x1006,
        |rng| {
            (
                rng.gen_range(0.0..20.0),
                rng.gen_range(0.0..20.0),
                rng.gen_range(1.0..30.0),
            )
        },
        |&(base, extra, cap)| {
            use puffer_congest::CongestionMap;
            let r = Rect::new(0.0, 0.0, 4.0, 4.0);
            let mk = |dmd: f64| {
                CongestionMap::new(
                    Grid::filled(r, 2, 2, cap),
                    Grid::filled(r, 2, 2, cap),
                    Grid::filled(r, 2, 2, dmd),
                    Grid::filled(r, 2, 2, 0.0),
                )
            };
            let lo = mk(base);
            let hi = mk(base + extra);
            prop_check!(hi.cg(0, 0) >= lo.cg(0, 0) - 1e-12);
            prop_check!(hi.overflow_ratio_h() >= lo.overflow_ratio_h() - 1e-12);
            Ok(())
        },
    );
}

/// The parallel WA gradient sums to (numerically) zero over each net's
/// cells — WA is translation invariant — and is bit-identical to the
/// serial path for any thread count.
#[test]
fn parallel_gradient_sums_to_zero_per_net() {
    run_cases(
        32,
        0x1007,
        |rng| {
            // Disjoint nets so per-net gradient sums are separable.
            let nets = rng.gen_range(1..6usize);
            let shapes: Vec<Vec<Point>> = (0..nets)
                .map(|_| {
                    vec_of(rng, 2..7, |r| {
                        Point::new(r.gen_range(0.0..100.0), r.gen_range(0.0..100.0))
                    })
                })
                .collect();
            let gamma = rng.gen_range(0.5..8.0);
            let threads = rng.gen_range(2..9usize);
            (shapes, gamma, threads)
        },
        |(shapes, gamma, threads)| {
            let mut nb = NetlistBuilder::new();
            let mut net_cells: Vec<Vec<CellId>> = Vec::new();
            for (ni, pts) in shapes.iter().enumerate() {
                let ids: Vec<_> = (0..pts.len().max(2))
                    .map(|i| nb.add_cell(format!("c{ni}_{i}"), 1.0, 1.0, CellKind::Movable))
                    .collect();
                let net = nb.add_net(format!("n{ni}"));
                for &c in &ids {
                    nb.connect(net, c, Point::ORIGIN).unwrap();
                }
                net_cells.push(ids);
            }
            let nl = nb.build().unwrap();
            let mut p = Placement::zeroed(nl.num_cells());
            for (ni, pts) in shapes.iter().enumerate() {
                for (i, pt) in pts.iter().enumerate() {
                    p.set(net_cells[ni][i], *pt);
                }
            }
            let serial = wa_wirelength_grad_threaded(&nl, &p, *gamma, 1);
            let par = wa_wirelength_grad_threaded(&nl, &p, *gamma, *threads);
            prop_check!(
                par.value.to_bits() == serial.value.to_bits(),
                "value not bit-identical at {threads} threads"
            );
            for (a, b) in par.grad_x.iter().zip(&serial.grad_x) {
                prop_check!(a.to_bits() == b.to_bits(), "grad_x not bit-identical");
            }
            for (a, b) in par.grad_y.iter().zip(&serial.grad_y) {
                prop_check!(a.to_bits() == b.to_bits(), "grad_y not bit-identical");
            }
            for cells in &net_cells {
                let sx: f64 = cells.iter().map(|c| par.grad_x[c.index()]).sum();
                let sy: f64 = cells.iter().map(|c| par.grad_y[c.index()]).sum();
                let scale: f64 = cells
                    .iter()
                    .map(|c| par.grad_x[c.index()].abs() + par.grad_y[c.index()].abs())
                    .sum::<f64>()
                    .max(1.0);
                prop_check!(sx.abs() <= 1e-9 * scale, "x-sum {sx} not ~0");
                prop_check!(sy.abs() <= 1e-9 * scale, "y-sum {sy} not ~0");
            }
            Ok(())
        },
    );
}

/// Eq. (2) as written: `exp` is called for every pin, sign and axis, pins
/// are read through `Placement::pin_pos`, and the sums are grouped the way
/// the kernel documents — a net's axes, a chunk's nets, the chunks. This is
/// the arithmetic the eliding kernel must reproduce; it lives here so that
/// the un-elided form stays in the tree.
fn wa_oracle(netlist: &Netlist, placement: &Placement, gamma: f64) -> WirelengthGrad {
    let n = netlist.num_cells();
    let mut out = WirelengthGrad {
        value: 0.0,
        grad_x: vec![0.0; n],
        grad_y: vec![0.0; n],
    };
    let inv_gamma = 1.0 / gamma;
    for chunk in puffer_par::chunk_ranges(netlist.num_nets()) {
        let mut chunk_value = 0.0;
        for (id, net) in netlist.iter_nets().skip(chunk.start).take(chunk.len()) {
            let pins = netlist.net_pins(id);
            if pins.len() < 2 || net.weight == 0.0 {
                continue;
            }
            let mut net_value = 0.0;
            for axis in 0..2 {
                let coords: Vec<f64> = pins
                    .iter()
                    .map(|&pid| {
                        let p = placement.pin_pos(netlist, pid);
                        [p.x, p.y][axis]
                    })
                    .collect();
                let max = coords.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
                let min = coords.iter().fold(f64::INFINITY, |m, &x| m.min(x));
                let exp_p: Vec<f64> = coords
                    .iter()
                    .map(|x| ((x - max) * inv_gamma).exp())
                    .collect();
                let exp_m: Vec<f64> = coords
                    .iter()
                    .map(|x| ((min - x) * inv_gamma).exp())
                    .collect();
                let (mut sp, mut sxp, mut sm, mut sxm) = (0.0, 0.0, 0.0, 0.0);
                for ((&x, &ep), &em) in coords.iter().zip(&exp_p).zip(&exp_m) {
                    sp += ep;
                    sxp += x * ep;
                    sm += em;
                    sxm += x * em;
                }
                net_value += net.weight * (sxp / sp - sxm / sm);
                let inv_sp2 = 1.0 / (sp * sp);
                let inv_sm2 = 1.0 / (sm * sm);
                for (((&pid, &x), &ep), &em) in pins.iter().zip(&coords).zip(&exp_p).zip(&exp_m) {
                    let dp = ((1.0 + x * inv_gamma) * ep * sp - ep * sxp * inv_gamma) * inv_sp2;
                    let dm = ((1.0 - x * inv_gamma) * em * sm + em * sxm * inv_gamma) * inv_sm2;
                    let grad = if axis == 0 {
                        &mut out.grad_x
                    } else {
                        &mut out.grad_y
                    };
                    grad[netlist.pin(pid).cell.index()] += net.weight * (dp - dm);
                }
            }
            chunk_value += net_value;
        }
        out.value += chunk_value;
    }
    out
}

/// The eliding kernel, in both forms and at any thread count, is the
/// un-elided Eq. (2) bit for bit — on netlists with shared cells, pin
/// offsets, degree-1 and zero-weight nets, and coordinates drawn from a
/// small lattice so that ties, coincident pins and ±0 arguments are common.
#[test]
fn wa_kernel_matches_the_unelided_oracle_bit_for_bit() {
    #[derive(Debug)]
    struct Case {
        cells: Vec<Point>,
        /// `(weight, [(cell, offset)])` per net.
        nets: Vec<(f64, Vec<(usize, Point)>)>,
        gamma: f64,
        threads: usize,
    }
    run_cases(
        96,
        0x1018,
        |rng| {
            let lattice = rng.gen_bool(0.5);
            let coord = |r: &mut StdRng| {
                if lattice {
                    f64::from(r.gen_range(0..4u32)) * 2.5 - 2.5
                } else {
                    r.gen_range(-50.0..50.0)
                }
            };
            let cells = vec_of(rng, 2..40, |r| Point::new(coord(r), coord(r)));
            let num_cells = cells.len();
            let nets = vec_of(rng, 1..60, |r| {
                let weight = [0.0, 1.0, 1.0, 2.5][r.gen_range(0..4usize)];
                let pins = vec_of(r, 1..9, |r| {
                    let offset = if r.gen_bool(0.5) {
                        Point::ORIGIN
                    } else {
                        Point::new(
                            f64::from(r.gen_range(0..3u32)) * 0.5 - 0.5,
                            r.gen_range(-0.5..0.5),
                        )
                    };
                    (r.gen_range(0..num_cells), offset)
                });
                (weight, pins)
            });
            Case {
                cells,
                nets,
                gamma: [0.01, 0.3, 1.0, 8.0][rng.gen_range(0..4usize)] * rng.gen_range(0.5..2.0),
                threads: rng.gen_range(1..6usize),
            }
        },
        |case| {
            let mut nb = NetlistBuilder::new();
            let ids: Vec<_> = (0..case.cells.len())
                .map(|i| nb.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable))
                .collect();
            for (i, (weight, pins)) in case.nets.iter().enumerate() {
                let net = nb.add_weighted_net(format!("n{i}"), *weight);
                for &(cell, offset) in pins {
                    nb.connect(net, ids[cell], offset).unwrap();
                }
            }
            let nl = nb.build().unwrap();
            let mut p = Placement::zeroed(nl.num_cells());
            for (&id, &at) in ids.iter().zip(&case.cells) {
                p.set(id, at);
            }
            let want = wa_oracle(&nl, &p, case.gamma);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let mut ws = WaWorkspace::new(case.threads);
            let value = ws.gradient(&nl, &p, case.gamma);
            prop_check!(
                value.to_bits() == want.value.to_bits(),
                "value {value} vs oracle {}",
                want.value
            );
            prop_check!(
                bits(ws.grad_x()) == bits(&want.grad_x),
                "grad_x differs from the oracle"
            );
            prop_check!(
                bits(ws.grad_y()) == bits(&want.grad_y),
                "grad_y differs from the oracle"
            );
            let counts = ws.take_counts();
            prop_check!(counts.exp_calls <= counts.exp_terms, "{counts:?}");
            Ok(())
        },
    );
}

/// Merging per-chunk partial density grids in chunk order conserves the
/// total charge histogram and is invariant to the worker count.
#[test]
fn density_histogram_is_conserved_under_partial_grid_merge() {
    run_cases(
        32,
        0x1008,
        |rng| {
            let cells: Vec<(f64, f64, f64)> = vec_of(rng, 1..40, |r| {
                (
                    r.gen_range(6.0..58.0),
                    r.gen_range(6.0..58.0),
                    r.gen_range(0.5..3.0),
                )
            });
            let threads = rng.gen_range(2..9usize);
            (cells, threads)
        },
        |(cells, threads)| {
            let region = Rect::new(0.0, 0.0, 64.0, 64.0);
            let (mx, my) = (32usize, 32usize);
            let (dx, dy) = (region.width() / mx as f64, region.height() / my as f64);
            let scatter = |t: usize| -> Grid<f64> {
                let parts = puffer_par::try_map_chunks(cells.len(), t, |range| {
                    let mut g: Grid<f64> = Grid::new(region, mx, my);
                    for i in range {
                        let (x, y, w) = cells[i];
                        let r = Rect::new(
                            x - w.max(dx) / 2.0,
                            y - 1f64.max(dy) / 2.0,
                            x + w.max(dx) / 2.0,
                            y + 1f64.max(dy) / 2.0,
                        );
                        g.splat(&r, w); // height 1.0 → charge = w
                    }
                    g
                })
                .unwrap();
                let mut merged: Grid<f64> = Grid::new(region, mx, my);
                for p in &parts {
                    puffer_par::merge_add(merged.as_mut_slice(), p.as_slice());
                }
                merged
            };
            let merged = scatter(*threads);
            let single = scatter(1);
            for (a, b) in merged.as_slice().iter().zip(single.as_slice()) {
                prop_check!(
                    a.to_bits() == b.to_bits(),
                    "merged grid not bit-identical at {threads} threads"
                );
            }
            let total: f64 = cells.iter().map(|c| c.2).sum();
            prop_check!(
                (merged.sum() - total).abs() <= 1e-9 * total.max(1.0),
                "histogram mass {} != total charge {total}",
                merged.sum()
            );
            Ok(())
        },
    );
}

/// The threaded 2-D transform round trip (DCT-II forward, DCT-III inverse,
/// orthogonal normalisation) reproduces the serial round trip bit-for-bit,
/// so its reconstruction error is *exactly* the serial error.
#[test]
fn transform_round_trip_error_matches_serial_exactly() {
    use puffer_fft::{dct2, dct3, transform2d_threaded};
    run_cases(
        32,
        0x1009,
        |rng| {
            let dims = [8usize, 16, 32];
            let nx = dims[rng.gen_range(0..3usize)];
            let ny = dims[rng.gen_range(0..3usize)];
            let data: Vec<f64> = (0..nx * ny).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let threads = rng.gen_range(2..9usize);
            (nx, ny, data, threads)
        },
        |(nx, ny, data, threads)| {
            let norm = 4.0 / (*nx as f64 * *ny as f64);
            let round_trip = |t: usize| -> Vec<f64> {
                let fwd = transform2d_threaded(data, *nx, *ny, dct2, t);
                let mut back = transform2d_threaded(&fwd, *nx, *ny, dct3, t);
                for v in &mut back {
                    *v *= norm;
                }
                back
            };
            let serial = round_trip(1);
            let par = round_trip(*threads);
            for ((s, p), orig) in serial.iter().zip(&par).zip(data) {
                prop_check!(
                    s.to_bits() == p.to_bits(),
                    "round trip not bit-identical at {threads} threads"
                );
                prop_check!(
                    (s - orig).abs() <= 1e-9 * orig.abs().max(1.0),
                    "round trip error too large: {s} vs {orig}"
                );
            }
            Ok(())
        },
    );
}

/// The same design with every net's pins connected in a permuted order.
/// Cell ids, net ids, macros and names are unchanged; only pin ids (and so
/// the order `net_pins` lists a net's pins in) move.
fn with_permuted_pins(design: &Design, rng: &mut StdRng) -> Design {
    let nl = design.netlist();
    let mut nb = NetlistBuilder::new();
    for c in nl.cells() {
        nb.add_cell(c.name.clone(), c.width, c.height, c.kind);
    }
    for (id, net) in nl.iter_nets() {
        let twin = nb.add_weighted_net(net.name.clone(), net.weight);
        let mut pins: Vec<_> = nl.net_pins(id).iter().map(|&p| *nl.pin(p)).collect();
        rng.shuffle(&mut pins);
        for pin in pins {
            nb.connect(twin, pin.cell, pin.offset).unwrap();
        }
    }
    let mut twin = Design::new(
        design.name(),
        nb.build().unwrap(),
        design.tech().clone(),
        design.region(),
    )
    .unwrap();
    for id in nl.fixed_macros() {
        let at = design.fixed_position(id).unwrap();
        twin.place_macro(id, at).unwrap();
    }
    twin
}

/// Pin order is not an input of the congestion estimate or of the global
/// route: both decompose a net through the one quantize-first RSMT
/// (`puffer_congest::demand::decompose_net`), which sorts the pins' Gcells
/// before building the tree. A design whose nets list their pins in a
/// permuted order gives bit-identical capacity and demand grids and the
/// same segment list at every thread count, maps that pass the audit
/// checkers, and the same routed paths, WL, HOF and VOF. (The full flow is
/// not claimed: the WA wirelength sums over pins in pin order.)
#[test]
fn pin_order_moves_no_estimate_or_route_bit() {
    use puffer_audit::Validate;
    use puffer_congest::demand::try_build_demand;
    use puffer_congest::{CongestionEstimator, CongestionMap, EstimatorConfig};
    use puffer_gen::{generate, GeneratorConfig};
    use puffer_route::{GlobalRouter, RouteReport, RouterConfig};
    fn bits(map: &CongestionMap) -> Vec<u64> {
        let grids = [
            map.h_capacity(),
            map.v_capacity(),
            map.h_demand(),
            map.v_demand(),
        ];
        grids
            .iter()
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }
    fn report(r: &RouteReport) -> [u64; 3] {
        [r.wirelength, r.hof_pct, r.vof_pct].map(f64::to_bits)
    }
    run_cases(
        4,
        0x100A,
        |rng| {
            (
                rng.gen_range(0u64..1u64 << 48), // design seed
                rng.gen_range(0u64..1u64 << 48), // placement + permutation seed
            )
        },
        |&(design_seed, seed)| {
            let design = generate(&GeneratorConfig {
                num_cells: 180,
                num_nets: 200,
                num_macros: 1,
                hotspot: 0.5,
                seed: design_seed,
                ..GeneratorConfig::default()
            })
            .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let twin = with_permuted_pins(&design, &mut rng);
            // Cells spread over the middle 60 % of the die: nets span
            // Gcells and the maps overflow somewhere.
            let region = design.region();
            let c = region.center();
            let mut placement = design.initial_placement();
            for id in design.netlist().movable_cells() {
                let x = c.x + (rng.next_f64() - 0.5) * 0.6 * region.width();
                let y = c.y + (rng.next_f64() - 0.5) * 0.6 * region.height();
                placement.set(id, Point::new(x, y));
            }
            let est_config = |threads| EstimatorConfig {
                threads,
                ..EstimatorConfig::default()
            };
            let reference = CongestionEstimator::new(&design, est_config(1));
            let map = reference.try_estimate(&design, &placement).unwrap();
            let (_, _, segs) =
                try_build_demand(&design, &placement, reference.h_capacity(), 0.0, 1).unwrap();
            prop_check!(!segs.is_empty());
            let route_config = |threads| RouterConfig {
                threads,
                ..RouterConfig::default()
            };
            let route = GlobalRouter::new(&design, route_config(1))
                .try_route(&design, &placement)
                .unwrap();
            for threads in 1..=4 {
                let est = CongestionEstimator::new(&twin, est_config(threads));
                let twin_map = est.try_estimate(&twin, &placement).unwrap();
                prop_check!(
                    bits(&twin_map) == bits(&map),
                    "permuted pins moved an estimate bit at {threads} threads"
                );
                let (_, _, twin_segs) =
                    try_build_demand(&twin, &placement, est.h_capacity(), 0.0, threads).unwrap();
                prop_check!(twin_segs == segs, "segments differ at {threads} threads");
                prop_check!(
                    twin_map.validate().is_ok(),
                    "map fails audit checks: {:?}",
                    twin_map.validate().err()
                );
                let twin_route = GlobalRouter::new(&twin, route_config(threads))
                    .try_route(&twin, &placement)
                    .unwrap();
                prop_check!(
                    twin_route.paths == route.paths,
                    "paths at {threads} threads"
                );
                prop_check!(
                    report(&twin_route) == report(&route),
                    "route report at {threads} threads"
                );
            }
            Ok(())
        },
    );
}
