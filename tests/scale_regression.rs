//! Million-cell scale regression (nightly-style, `--features expensive`).
//!
//! Streams a synthetic 1M-cell Bookshelf design through the streaming
//! parser and asserts the process peak RSS stays under a documented
//! ceiling. The fixture is written line-by-line through a `BufWriter`
//! (never materialized in memory) and parsed from `BufReader`s, so the
//! measured high-water mark is the parser plus the netlist itself — the
//! quantity the streaming front-end exists to bound.
//!
//! `scripts/ci.sh` runs this as a nightly smoke under `PUFFER_NIGHTLY=1`.
#![cfg(feature = "expensive")]

use puffer_db::bookshelf::parse_bookshelf_streaming;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;

/// Cells (and nets) in the synthetic design; pins are 3x this.
const CELLS: usize = 1_000_000;

/// Peak-RSS ceiling for streaming ingestion of the 1M-cell design. The
/// resident netlist (cells + nets + struct-of-arrays pins + CSR
/// membership + the name interning map) measures ~363 MiB in a debug
/// test binary; the ceiling sits ~2x above that to catch an accidental
/// whole-file slurp or a superlinear structure, not allocator noise.
const MAX_RSS_BYTES: u64 = 768 * 1024 * 1024;

fn fixture_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("puffer-scale-regression");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    dir
}

/// Streams the `.nodes` file: 1M movable cells, constant footprint.
fn write_nodes(path: &PathBuf) {
    let mut w = BufWriter::new(File::create(path).expect("create .nodes"));
    writeln!(w, "UCLA nodes 1.0").unwrap();
    writeln!(w, "NumNodes : {CELLS}").unwrap();
    writeln!(w, "NumTerminals : 0").unwrap();
    for i in 0..CELLS {
        writeln!(w, "c{i} 0.4 1.0").unwrap();
    }
    w.flush().unwrap();
}

/// Streams the `.nets` file: one degree-3 net per cell, connecting each
/// cell to two pseudo-random neighbours (fixed affine maps, so the file
/// is deterministic without holding any state).
fn write_nets(path: &PathBuf) {
    let mut w = BufWriter::new(File::create(path).expect("create .nets"));
    writeln!(w, "UCLA nets 1.0").unwrap();
    writeln!(w, "NumNets : {CELLS}").unwrap();
    writeln!(w, "NumPins : {}", 3 * CELLS).unwrap();
    for i in 0..CELLS {
        writeln!(w, "NetDegree : 3 n{i}").unwrap();
        writeln!(w, " c{i} B : 0 0").unwrap();
        writeln!(w, " c{} B : 0.1 0.2", (i * 7 + 1) % CELLS).unwrap();
        writeln!(w, " c{} B : -0.1 0.3", (i * 13 + 5) % CELLS).unwrap();
    }
    w.flush().unwrap();
}

#[test]
fn million_cell_streaming_ingestion_stays_under_the_rss_ceiling() {
    let dir = fixture_dir();
    let nodes_path = dir.join("million.nodes");
    let nets_path = dir.join("million.nets");
    write_nodes(&nodes_path);
    write_nets(&nets_path);

    let design = parse_bookshelf_streaming(
        "million",
        BufReader::new(File::open(&nodes_path).expect("open .nodes")),
        BufReader::new(File::open(&nets_path).expect("open .nets")),
        // No .pl / .scl: the parser synthesizes a square region sized for
        // the movable area, exactly like `read_aux` on a missing file.
        &b""[..],
        &b""[..],
    )
    .expect("streaming parse");

    let nl = design.netlist();
    assert_eq!(nl.num_cells(), CELLS);
    assert_eq!(nl.num_nets(), CELLS);
    assert_eq!(nl.num_pins(), 3 * CELLS);
    // Spot-check one net's membership against the generating maps.
    let (id, _) = nl.iter_nets().nth(17).expect("net 17 exists");
    let pins: Vec<usize> = nl
        .net_pins(id)
        .iter()
        .map(|&p| nl.pin(p).cell.0 as usize)
        .collect();
    assert_eq!(pins, vec![17, (17 * 7 + 1) % CELLS, (17 * 13 + 5) % CELLS]);

    let Some(peak) = puffer_budget::mem::peak_rss_bytes() else {
        eprintln!("skipping RSS assertion: /proc/self/status unavailable");
        return;
    };
    eprintln!(
        "[scale] {CELLS} cells ingested, peak RSS {:.0} MiB (ceiling {:.0} MiB)",
        peak as f64 / (1 << 20) as f64,
        MAX_RSS_BYTES as f64 / (1 << 20) as f64
    );
    assert!(
        peak <= MAX_RSS_BYTES,
        "peak RSS {peak} exceeds the documented {MAX_RSS_BYTES}-byte ceiling"
    );

    drop(design);
    let _ = std::fs::remove_file(&nodes_path);
    let _ = std::fs::remove_file(&nets_path);
}
