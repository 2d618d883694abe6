//! Regression gate for the bench harness's artifact I/O: every benchmark
//! binary must route the tables and figures it writes through
//! `puffer_budget::fsx::atomic_write` — a bench run killed mid-write must
//! never leave a half-written `table2.csv` that a later comparison step
//! silently ingests. `scripts/policy.sh` bans the raw write primitives in
//! the binaries; this test checks the positive half.

use std::path::PathBuf;

fn bin_sources() -> Vec<(String, String)> {
    let bin_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&bin_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            sources.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    sources.sort();
    assert!(
        sources.len() >= 5,
        "expected the full bench binary set, found {sources:?}"
    );
    sources
}

#[test]
fn every_artifact_writing_binary_uses_atomic_write() {
    for (name, text) in bin_sources() {
        // A bench binary that produces an on-disk artifact mentions its
        // output directory helper; those must commit via atomic_write.
        if text.contains("ensure_out_dir") {
            assert!(
                text.contains("fsx::atomic_write("),
                "{name} prepares an output dir but never commits through \
                 fsx::atomic_write"
            );
        }
    }
}
