//! Fixtures for both halves of the source policy. `puffer lint`'s two
//! structural rules each trip on a minimal throwaway workspace and stay
//! quiet on the clean variant. `scripts/policy.sh` — the toolchain half —
//! must pass the real workspace and fail the committed negative fixture
//! (`fixtures/policy_violations`, one violation per lint and per
//! `clippy.toml` entry) naming every one of them.

use puffer_audit::{lint_workspace, LintConfig, LintError, LintReport};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const FORBID: &str = "#![forbid(unsafe_code)]\n";

/// A throwaway fixture workspace under the system temp dir.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root = std::env::temp_dir().join("puffer-lint-fixtures").join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates")).unwrap();
        Fixture { root }
    }

    /// Adds `crates/<dir>` with a manifest naming `package`, workspace
    /// dependencies `deps`, and the given `lib.rs` source.
    fn add_crate(&self, dir: &str, package: &str, deps: &[&str], lib: &str) -> &Fixture {
        let c = self.root.join("crates").join(dir);
        std::fs::create_dir_all(c.join("src")).unwrap();
        let mut manifest = format!("[package]\nname = \"{package}\"\n\n[dependencies]\n");
        for d in deps {
            manifest.push_str(&format!("{d}.workspace = true\n"));
        }
        std::fs::write(c.join("Cargo.toml"), manifest).unwrap();
        std::fs::write(c.join("src/lib.rs"), lib).unwrap();
        self
    }

    fn lint(&self) -> Result<LintReport, LintError> {
        lint_workspace(&LintConfig {
            root: self.root.clone(),
        })
    }
}

fn rules_of(report: &LintReport) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_crate_produces_no_findings() {
    let fx = Fixture::new("clean");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn ok() -> Option<u8> {{ None }}\n"),
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.crates_scanned, 1);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn missing_forbid_unsafe_is_a_finding() {
    let fx = Fixture::new("forbid");
    fx.add_crate("db", "puffer-db", &[], "pub fn ok() {}\n");
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["forbid-unsafe"]);
    assert_eq!(report.findings[0].path, "crates/db/src/lib.rs");
}

#[test]
fn upward_dependency_is_a_layering_finding() {
    let fx = Fixture::new("layering-up");
    // puffer-db (layer 0) depending on puffer (layer 4) points upward.
    fx.add_crate(
        "db",
        "puffer-db",
        &["puffer"],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["layering"]);
    assert!(report.findings[0].message.contains("strictly downward"));
}

#[test]
fn unknown_crate_is_a_layering_finding() {
    let fx = Fixture::new("layering-unknown");
    fx.add_crate(
        "mystery",
        "puffer-mystery",
        &[],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["layering"]);
    assert!(report.findings[0].message.contains("layer table"));
}

#[test]
fn missing_crates_dir_is_a_bad_root() {
    let root = std::env::temp_dir()
        .join("puffer-lint-fixtures")
        .join("not-a-workspace");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let err = lint_workspace(&LintConfig { root }).unwrap_err();
    assert!(matches!(err, LintError::BadRoot(_)), "{err}");
}

/// CARGO_MANIFEST_DIR is crates/audit; the workspace root is two up.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .unwrap()
        .to_path_buf()
}

#[test]
fn the_real_workspace_passes_its_own_lint() {
    let report = lint_workspace(&LintConfig {
        root: workspace_root(),
    })
    .unwrap();
    assert!(
        report.findings.is_empty(),
        "the repository must lint clean:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn json_lines_emits_one_flat_object_per_finding() {
    let fx = Fixture::new("json");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        "pub fn missing_the_forbid_attribute() {}\n",
    );
    let report = fx.lint().unwrap();
    let json = report.json_lines();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 1);
    assert!(
        lines[0].starts_with("{\"rule\":\"forbid-unsafe\""),
        "{json}"
    );
    assert!(
        lines[0].contains("\"path\":\"crates/db/src/lib.rs\""),
        "{json}"
    );
    // The schema is {"rule","path","message"}: findings are whole-file.
    assert!(!lines[0].contains("\"line\""), "{json}");
    assert!(lines[0].contains("\"message\":\""), "{json}");
    assert!(lines[0].ends_with('}'), "{json}");
    assert!(
        json.ends_with('\n'),
        "json_lines output must be newline-terminated"
    );
}

// ---------------------------------------------------------------------------
// The toolchain half: scripts/policy.sh
// ---------------------------------------------------------------------------

/// Runs `scripts/policy.sh [dir]` from the repo root and returns (passed,
/// its diagnostics). `None`, loudly, when this toolchain has no clippy —
/// `scripts/ci.sh` hard-requires it, so the gate itself never skips.
fn policy_sh(dir: Option<&str>) -> Option<(bool, String)> {
    let clippy = Command::new("cargo").args(["clippy", "-V"]).output();
    if !clippy.is_ok_and(|o| o.status.success()) {
        eprintln!("\n*** SKIPPED: `cargo clippy -V` failed — scripts/policy.sh was NOT run ***\n");
        return None;
    }
    let out = Command::new("bash")
        .arg("scripts/policy.sh")
        .args(dir)
        .current_dir(workspace_root())
        .output()
        .unwrap();
    Some((
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// What `policy.sh` says about the negative fixture; one run serves every
/// per-rule test below.
fn fixture_findings() -> Option<&'static str> {
    static OUT: OnceLock<Option<String>> = OnceLock::new();
    OUT.get_or_init(|| {
        let (passed, out) = policy_sh(Some("crates/audit/tests/fixtures/policy_violations"))?;
        assert!(
            !passed,
            "policy.sh must fail on the negative fixture:\n{out}"
        );
        Some(out)
    })
    .as_deref()
}

/// Asserts the fixture run names every needle: a lint (as rustc prints it,
/// `-D clippy::unwrap-used`), a disallowed path, or a `clippy.toml` reason.
#[track_caller]
fn assert_fixture_names(needles: &[&str]) {
    let Some(out) = fixture_findings() else {
        return;
    };
    for needle in needles {
        assert!(
            out.contains(needle),
            "policy.sh on the fixture does not name `{needle}`:\n{out}"
        );
    }
}

#[test]
fn the_real_workspace_passes_the_toolchain_policy() {
    let Some((passed, out)) = policy_sh(None) else {
        return;
    };
    assert!(
        passed,
        "scripts/policy.sh must pass on the repository:\n{out}"
    );
}

#[test]
fn unwrap_in_library_code_is_a_no_panic_finding() {
    assert_fixture_names(&[
        "clippy::unwrap-used",
        "clippy::expect-used",
        "clippy::panic",
        "clippy::todo",
        "clippy::unimplemented",
    ]);
}

/// Asserts how often the fixture run reports `finding`. The fixture
/// repeats each of these violations where no finding is due.
#[track_caller]
fn assert_fixture_reports(finding: &str, times: usize) {
    let Some(out) = fixture_findings() else {
        return;
    };
    assert_eq!(
        out.matches(finding).count(),
        times,
        "`{finding}` in:\n{out}"
    );
}

#[test]
fn test_blocks_strings_and_comments_do_not_trip_no_panic() {
    // The fixture says `.unwrap()` six times: in a comment, a doc comment,
    // a string, a `#[cfg(test)]` module, under a justified `#[expect]`,
    // and once in live library code.
    assert_fixture_reports("used `unwrap()`", 1);
}

#[test]
fn btree_map_and_test_only_hash_map_are_clean() {
    // The import and the signature; not the `#[cfg(test)]` use.
    assert_fixture_reports("disallowed type `std::collections::HashMap`", 2);
    assert_fixture_reports("BTreeMap`", 0);
}

// A sanctioned home is a module under `#![expect(<lint>, reason = "..")]`:
// the fixture's `sanctioned_home` repeats four violations, each still
// reported exactly once — for the copy outside it.

#[test]
fn the_clock_crates_may_read_the_wall_clock() {
    assert_fixture_reports("disallowed method `std::time::Instant::now`", 1);
}

#[test]
fn thread_scope_in_the_fork_join_layer_is_sanctioned() {
    assert_fixture_reports("disallowed method `std::thread::scope`", 1);
}

#[test]
fn raw_io_is_sanctioned_in_fsx_binaries_and_tests() {
    // Binaries are no longer exempt: `policy.sh` runs on `--bins`.
    assert_fixture_reports("disallowed method `std::fs::write`", 1);
}

#[test]
fn casts_in_tests_the_helper_module_and_cold_crates_are_exempt() {
    // Cold crates simply do not deny `clippy::as_conversions` at their root.
    assert_fixture_reports("silent `as` conversion", 1);
}

#[test]
fn bare_thread_spawn_is_always_a_finding() {
    assert_fixture_names(&[
        "`std::thread::spawn`",
        "unjoined threads outlive their work",
    ]);
}

#[test]
fn thread_scope_elsewhere_recommends_puffer_par() {
    assert_fixture_names(&[
        "`std::thread::scope`",
        "puffer-par is the one deterministic",
    ]);
}

#[test]
fn bare_numeric_cast_in_a_hot_crate_is_a_finding() {
    assert_fixture_names(&["deny(clippy::as_conversions)", "silent `as` conversion"]);
}

#[test]
fn hash_map_in_library_code_is_an_unordered_iter_finding() {
    assert_fixture_names(&[
        "clippy::disallowed-types",
        "`std::collections::HashMap`",
        "`std::collections::HashSet`",
        "iteration order varies run to run",
    ]);
}

#[test]
fn instant_now_outside_the_clock_crates_is_a_wallclock_finding() {
    assert_fixture_names(&[
        "clippy::disallowed-methods",
        "`std::time::Instant::now`",
        "`std::time::SystemTime::now`",
        "puffer_budget::clock",
    ]);
}

#[test]
fn raw_write_primitives_in_library_code_are_raw_io_findings() {
    assert_fixture_names(&[
        "`std::fs::File::create`",
        "`std::fs::write`",
        "`std::fs::rename`",
        "`std::fs::File::sync_all`",
        "fsx::atomic_write",
    ]);
}

#[test]
fn raw_mutex_lock_is_a_lock_order_finding() {
    assert_fixture_names(&["`std::sync::Mutex::lock`", "lockcheck::lock_leaf"]);
}

#[test]
fn stale_waiver_is_itself_a_finding() {
    assert_fixture_names(&[
        "unfulfilled-lint-expectations",
        "stale: nothing below panics any more",
    ]);
}

#[test]
fn waiver_without_a_real_reason_is_rejected() {
    assert_fixture_names(&["clippy::allow-attributes-without-reason"]);
}
