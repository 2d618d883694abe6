//! Integration: a Bookshelf-imported design runs through the full flow.

mod oracle;

use puffer::{evaluate_bounded, Job, PufferConfig};
use puffer_budget::Budget;
use puffer_db::bookshelf::{parse_bookshelf, write_pl};
use puffer_db::design::Design;
use puffer_db::io::write_design;
use puffer_gen::{generate, GeneratorConfig};
use puffer_route::RouterConfig;
use puffer_trace::Trace;

/// Builds Bookshelf text for a generated design (round-trip fixture):
/// nodes/nets from the netlist, rows matching the region, macros in .pl.
fn to_bookshelf(design: &Design) -> (String, String, String, String) {
    let nl = design.netlist();
    let mut nodes = String::from("UCLA nodes 1.0\n");
    for (_, c) in nl.iter_cells() {
        if c.is_movable() {
            nodes.push_str(&format!("{} {} {}\n", c.name, c.width, c.height));
        } else {
            nodes.push_str(&format!("{} {} {} terminal\n", c.name, c.width, c.height));
        }
    }
    let mut nets = String::from("UCLA nets 1.0\n");
    for (id, net) in nl.iter_nets() {
        nets.push_str(&format!("NetDegree : {} {}\n", nl.net_degree(id), net.name));
        for &pid in nl.net_pins(id) {
            let pin = nl.pin(pid);
            nets.push_str(&format!(
                " {} B : {} {}\n",
                nl.cell(pin.cell).name,
                pin.offset.x,
                pin.offset.y
            ));
        }
    }
    let pl = write_pl(design, &design.initial_placement());
    let region = design.region();
    let tech = design.tech();
    let n_rows = (region.height() / tech.row_height).floor() as usize;
    let n_sites = (region.width() / tech.site_width).floor() as usize;
    let mut scl = String::from("UCLA scl 1.0\n");
    for i in 0..n_rows {
        scl.push_str(&format!(
            "CoreRow Horizontal\n Coordinate : {}\n Height : {}\n Sitewidth : {}\n \
             SubrowOrigin : {} NumSites : {}\nEnd\n",
            region.yl + i as f64 * tech.row_height,
            tech.row_height,
            tech.site_width,
            region.xl,
            n_sites
        ));
    }
    (nodes, nets, pl, scl)
}

#[test]
fn bookshelf_round_trip_preserves_structure_and_places() {
    let original = generate(&GeneratorConfig {
        num_cells: 250,
        num_nets: 280,
        num_macros: 2,
        utilization: 0.55,
        ..GeneratorConfig::default()
    })
    .expect("generate");
    let (nodes, nets, pl, scl) = to_bookshelf(&original);
    let imported = parse_bookshelf("roundtrip", &nodes, &nets, &pl, &scl).expect("parse");
    imported
        .check_macros_placed()
        .expect("macros placed via .pl");

    // Same structural statistics.
    assert_eq!(
        imported.stats().movable_cells,
        original.stats().movable_cells
    );
    assert_eq!(imported.stats().nets, original.stats().nets);
    assert_eq!(imported.stats().movable_pins, original.stats().movable_pins);
    assert_eq!(imported.stats().macros, original.stats().macros);

    // The imported design places and routes end to end.
    let mut cfg = PufferConfig::default();
    cfg.placer.max_iters = 120;
    cfg.placer.stop_overflow = 0.15;
    let flow = Job::new(cfg).run(&imported).expect("place");
    let zeros = vec![0u32; imported.netlist().num_cells()];
    puffer_legal::check_legal(&imported, &flow.placement, &zeros).expect("legal");
    let report = evaluate_bounded(
        &imported,
        &flow.placement,
        &RouterConfig::default(),
        &Budget::unbounded(),
        &Trace::disabled(),
    )
    .expect("route");
    oracle::assert_route_report(&imported, &report);
    assert!(report.wirelength > 0.0);

    // And it archives in the native format, too.
    let mut buf = Vec::new();
    write_design(&imported, &mut buf).expect("archive");
    assert!(!buf.is_empty());
}
