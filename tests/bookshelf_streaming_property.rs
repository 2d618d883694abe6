//! Property test: the Bookshelf reader ignores everything the format says
//! it may ignore.
//!
//! Randomized designs are written as Bookshelf text, then *mutilated* in
//! ways the format tolerates — CRLF line endings, interleaved comments,
//! blank lines, trailing horizontal garbage. The mutilated input must
//! parse to a design that archives to the same bytes as the clean input:
//! the reader's reused line buffer, trimming and skip rules may not leak
//! into the result.

use puffer_db::bookshelf::{parse_bookshelf, write_pl};
use puffer_db::design::Design;
use puffer_db::io::write_design;
use puffer_gen::{generate, GeneratorConfig};
use puffer_rng::StdRng;

/// Builds Bookshelf text for a generated design (same shape as the
/// round-trip fixture in `bookshelf_flow.rs`).
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

/// Randomly mutilates Bookshelf text in ways the format tolerates:
/// comment lines, blank lines, CRLF endings, and trailing spaces/tabs.
/// The *content* lines (and their order) are untouched.
fn mutilate(text: &str, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for line in text.lines() {
        if rng.gen_bool(0.10) {
            out.push_str("# a comment the parser must skip\n");
        }
        if rng.gen_bool(0.08) {
            out.push('\n');
        }
        out.push_str(line);
        if rng.gen_bool(0.15) {
            // Trailing horizontal garbage: spaces and tabs only, so the
            // trimmed content is unchanged.
            out.push_str(" \t  ");
        }
        if rng.gen_bool(0.5) {
            out.push_str("\r\n");
        } else {
            out.push('\n');
        }
    }
    if rng.gen_bool(0.5) {
        out.push_str("\n\n# trailing comment\n\n");
    }
    out
}

/// Archives a design to its canonical byte representation.
fn archive(design: &Design) -> Vec<u8> {
    let mut buf = Vec::new();
    write_design(design, &mut buf).expect("archive");
    buf
}

#[test]
fn mutilated_random_designs_archive_to_the_clean_bytes() {
    let mut rng = StdRng::seed_from_u64(0xB00C_5E1F);
    for case in 0..12u64 {
        let cells = rng.gen_range(20..220);
        let config = GeneratorConfig {
            name: format!("prop{case}"),
            num_cells: cells,
            num_nets: cells + rng.gen_range(0..cells / 2 + 1),
            num_macros: rng.gen_range(0..3),
            utilization: 0.5 + rng.next_f64() * 0.2,
            hotspot: if rng.gen_bool(0.3) { 0.5 } else { 0.0 },
            seed: 0x5EED_0000 + case,
            ..GeneratorConfig::default()
        };
        let design = generate(&config).expect("generate");
        let (nodes, nets, pl, scl) = to_bookshelf(&design);
        let clean = parse_bookshelf("prop", &nodes, &nets, &pl, &scl).expect("clean parse");
        let mutilated = parse_bookshelf(
            "prop",
            &mutilate(&nodes, &mut rng),
            &mutilate(&nets, &mut rng),
            &mutilate(&pl, &mut rng),
            &mutilate(&scl, &mut rng),
        )
        .expect("mutilated parse");

        assert_eq!(
            archive(&clean),
            archive(&mutilated),
            "case {case}: mutilation leaked into the design"
        );
        // And the Bookshelf trip itself kept the generated structure.
        assert_eq!(
            clean.stats().movable_cells,
            design.stats().movable_cells,
            "case {case}"
        );
        assert_eq!(clean.stats().nets, design.stats().nets, "case {case}");
    }
}

#[test]
fn pathological_line_endings_archive_to_the_clean_bytes() {
    // Deterministic worst case: every line CRLF, comments between records,
    // no trailing newline on the final line.
    let nodes = "UCLA nodes 1.0\r\n# c\r\na 2 1\r\nb 2 1\r\n\r\nm 4 1 terminal\r\n";
    let nets = "UCLA nets 1.0\r\nNetDegree : 2 n0\r\n a B : 0 0\r\n b B : 0.5 0\r\n# done";
    let pl = "UCLA pl 1.0\r\nm 10 0 : N /FIXED\r\n";
    let scl = "UCLA scl 1.0\r\nCoreRow Horizontal\r\n Coordinate : 0\r\n Height : 1\r\n \
               Sitewidth : 0.2\r\n SubrowOrigin : 0 NumSites : 100\r\nEnd\r\n";
    let mutilated = parse_bookshelf("crlf", nodes, nets, pl, scl).expect("mutilated");
    let clean = parse_bookshelf(
        "crlf",
        "UCLA nodes 1.0\na 2 1\nb 2 1\nm 4 1 terminal\n",
        "UCLA nets 1.0\nNetDegree : 2 n0\n a B : 0 0\n b B : 0.5 0\n",
        &pl.replace('\r', ""),
        &scl.replace('\r', ""),
    )
    .expect("clean");
    assert_eq!(archive(&mutilated), archive(&clean));
    assert_eq!(mutilated.stats().nets, 1);
}
