//! A file-stated region larger than `Design::new`'s area bound is an input
//! error, reported by the real `puffer` binary: `place`, `eval`, `convert`
//! (whose region is the `.scl` rows' bounding box) and `audit design` exit
//! 1 with one stderr line naming the region. `place` used to accept this
//! 1e13 × 3 region and abort (exit 134) allocating its congestion grid.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repro: two cells and one net on a 1e13 × 3 region of unit rows.
const WIDE_PD: &str = "design wide\ntech 1 0.2\nregion 0 0 1e13 3\n\
                       cell a 1 1 movable\ncell b 1 1 movable\nnet n 1\n\
                       pin 0 0 0 0\npin 1 0 0 0\n";

const REGION: &str = "[0, 10000000000000] x [0, 3]";

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("puffer-region-bound-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().unwrap().to_string()
}

/// Runs `puffer args`, asserting exit 1 and one stderr line naming the
/// region.
fn refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_puffer"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "puffer {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "puffer {args:?}: {stderr}");
    assert!(stderr.contains(REGION), "puffer {args:?}: {stderr}");
}

#[test]
fn an_oversized_region_is_refused_by_every_entry_point() {
    let dir = tmp_dir();
    let pd = path(&dir, "wide.pd");
    std::fs::write(&pd, WIDE_PD).unwrap();
    let pl = path(&dir, "wide.pl");
    std::fs::write(&pl, "place 0 1 1\nplace 1 2 1\n").unwrap();
    refused(&["place", &pd, "-o", &path(&dir, "out.pl")]);
    refused(&["eval", &pd, &pl]);
    refused(&["audit", "design", &pd]);

    std::fs::write(dir.join("w.nodes"), "UCLA nodes 1.0\na 1 1\nb 1 1\n").unwrap();
    std::fs::write(
        dir.join("w.nets"),
        "UCLA nets 1.0\nNetDegree : 2 n\n a I : 0 0\n b O : 0 0\n",
    )
    .unwrap();
    std::fs::write(dir.join("w.pl"), "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\n").unwrap();
    let scl: String = (0..3)
        .map(|y| {
            format!(
                "CoreRow Horizontal\n Coordinate : {y}\n Height : 1\n Sitewidth : 0.2\n \
                 SubrowOrigin : 0 NumSites : 5e13\nEnd\n"
            )
        })
        .collect();
    std::fs::write(dir.join("w.scl"), scl).unwrap();
    std::fs::write(
        dir.join("w.aux"),
        "RowBasedPlacement : w.nodes w.nets w.pl w.scl\n",
    )
    .unwrap();
    refused(&["convert", &path(&dir, "w.aux"), "-o", &path(&dir, "w.pd")]);
}
