//! A design whose layer list leaves one direction without a routing layer
//! (every layer after the first routes) is an input error, reported by the
//! real `puffer` binary: `place` and `eval` exit 1 with one stderr line
//! naming the direction. `place` used to run the whole flow on a congestion
//! estimate with zero capacity, and `eval` then refused the result.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("puffer-routing-layers-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().unwrap().to_string()
}

/// Runs `puffer args`, asserting exit 1 and one stderr line that ends in
/// `message`.
fn refused(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_puffer"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "puffer {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "puffer {args:?}: {stderr}");
    assert!(
        stderr.trim_end().ends_with(message),
        "puffer {args:?}: {stderr}"
    );
}

#[test]
fn a_direction_without_routing_layers_is_refused_by_place_and_eval() {
    let dir = tmp_dir();
    let full = path(&dir, "or1200.pd");
    let status = Command::new(env!("CARGO_BIN_EXE_puffer"))
        .args(["gen", "--preset", "or1200", "--scale", "0.003", "-o", &full])
        .output()
        .unwrap()
        .status;
    assert!(status.success());
    let text = std::fs::read_to_string(&full).unwrap();
    let pl = path(&dir, "any.pl");
    let cells = text.lines().filter(|l| l.starts_with("cell ")).count();
    let placement: String = (0..cells).map(|i| format!("place {i} 1 1\n")).collect();
    std::fs::write(&pl, placement).unwrap();
    // The default stack is M1 H, then M2..M8 alternating V/H.
    for (dropped, direction) in [
        (
            &["M2", "M3", "M4", "M5", "M6", "M7", "M8"][..],
            "horizontal",
        ),
        (&["M2", "M4", "M6", "M8"][..], "vertical"),
    ] {
        let kept: String = text
            .lines()
            .filter(|l| {
                !dropped
                    .iter()
                    .any(|m| l.starts_with(&format!("layer {m} ")))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let pd = path(&dir, &format!("no-{direction}.pd"));
        std::fs::write(&pd, kept).unwrap();
        let message = format!("no {direction} routing layer (a layer after the first)");
        refused(&["place", &pd, "-o", &path(&dir, "out.pl")], &message);
        refused(&["eval", &pd, &pl], &message);
    }
}
