//! The `serve` rows of the fault-injection harness (`tests/chaos/harness.rs`),
//! run once here: this unit-test binary holds no other test, so the
//! process-global `fsx` fault a row arms can hit nothing but that row.

#[path = "../tests/chaos/harness.rs"]
#[allow(dead_code)] // the sweep seed counts are read by the `chaos` test target only
mod harness;

mod tests {
    use super::harness::{gate, run_group, GROUPS};

    /// Runs every serve row once — the smoke that drives the engine, queue
    /// and trace locks under the debug-build leaf-lock check.
    #[test]
    fn every_serve_row_ends_in_a_legal_state() {
        let _gate = gate();
        for group in GROUPS.iter().filter(|g| g.name == "serve") {
            run_group(group, group.rows.len() as u64);
        }
    }
}
