//! The `chaos` test target: checks the fault-injection scenario table,
//! runs each `flow` and `fs` row once, and holds the seeded sweep of every
//! group. The table and its runners live in `chaos/harness.rs`; the
//! umbrella library's unit tests run the `serve` rows once.
//!
//! The ignored `seeded_sweep` runs every group at its sweep's seed count:
//!
//! ```text
//! cargo test --release --test chaos -- --ignored --nocapture
//! ```

#[path = "chaos/harness.rs"]
mod harness;

use harness::{gate, pick, run_group, GROUPS};

#[test]
fn every_flow_and_fs_row_ends_in_a_legal_state() {
    let _gate = gate();
    for group in GROUPS.iter().filter(|g| g.name != "serve") {
        run_group(group, group.rows.len() as u64);
    }
}

#[test]
#[ignore = "the seeded sweep: cargo test --release --test chaos -- --ignored"]
fn seeded_sweep() {
    let _gate = gate();
    for group in &GROUPS {
        run_group(group, group.seeds);
    }
}

#[test]
fn table_names_are_unique_and_seeds_cover_every_row_of_a_group() {
    let _gate = gate();
    let names: Vec<&str> = GROUPS
        .iter()
        .flat_map(|g| g.rows.iter().map(|(name, _)| *name))
        .collect();
    for (i, name) in names.iter().enumerate() {
        assert!(
            !names[..i].contains(name),
            "duplicate scenario name '{name}'"
        );
    }
    for group in &GROUPS {
        let n = group.rows.len() as u64;
        assert!(n > 0, "group '{}' has no scenario", group.name);
        assert!(group.seeds >= n, "the '{}' sweep skips rows", group.name);
        // n consecutive seeds of a group hit each of its n rows once.
        let mut hit: Vec<&str> = (n..2 * n).map(|seed| pick(group.rows, seed).0).collect();
        hit.sort_unstable();
        hit.dedup();
        assert_eq!(hit.len(), group.rows.len());
    }
}
