//! Both halves of the source policy, as tests.
//!
//! The structural half is [`lint`] below: the two rules no compiler lint
//! expresses, checked from the manifests and the crate roots.
//!
//! * `layering` — crate dependencies parsed from the workspace manifests
//!   must respect the architecture layers ([`LAYERS`]: e.g. `db` depends on
//!   nothing, only the assembly layers may depend on `core`), so erosion
//!   fails `cargo test` instead of waiting for a review comment.
//! * `forbid-unsafe` — every crate root (`src/lib.rs`, `src/main.rs`,
//!   `src/bin/*.rs`) must declare `#![forbid(unsafe_code)]`; the one root
//!   that hosts sanctioned `unsafe` ([`DENY_UNSAFE_ROOTS`]) declares `deny`.
//!
//! Each rule trips on a minimal throwaway workspace and stays quiet on the
//! clean variant, and the real workspace passes both. The toolchain half,
//! `scripts/policy.sh`, must pass the real workspace and fail the committed
//! negative fixture (`fixtures/policy_violations`, one violation per lint
//! and per `clippy.toml` entry) naming every one of them.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Architecture layers, bottom-up. A crate may only depend on workspace
/// crates with a strictly lower layer; a workspace crate missing from this
/// table is itself a finding, so the table can never silently rot.
const LAYERS: &[(&str, u8)] = &[
    // Substrate: no workspace dependencies at all.
    ("puffer-budget", 0),
    ("puffer-rng", 0),
    ("puffer-db", 0),
    // Telemetry sits one layer up: its mutexes are locked through the
    // budget crate's `lock_leaf`.
    ("puffer-trace", 1),
    // Deterministic fork-join over the budget substrate.
    ("puffer-par", 1),
    // Numerics over the fork-join layer.
    ("puffer-fft", 2),
    // Geometry / generation / legalization over the database.
    ("puffer-flute", 2),
    ("puffer-gen", 2),
    ("puffer-legal", 2),
    // Analysis engines.
    ("puffer-congest", 3),
    ("puffer-place", 3),
    ("puffer-explore", 3),
    // Optimizers composing the engines.
    ("puffer-pad", 4),
    ("puffer-route", 4),
    ("puffer-dp", 4),
    // The assembled flow.
    ("puffer", 5),
    // Verification over the assembled flow.
    ("puffer-audit", 6),
    // The job daemon: supervision (queueing, retry, recovery) over the
    // assembled flow — every lint gate applies to it like any other crate.
    ("puffer-serve", 7),
    // Tooling over the whole stack.
    ("puffer-cli", 8),
    ("puffer-bench", 8),
    ("puffer-suite", 9),
];

/// Crate roots that declare `#![deny(unsafe_code)]` instead of `forbid`:
/// puffer-budget's `signal` module binds `signal(2)` under the workspace's
/// single `#[expect(unsafe_code)]`, which `forbid` would not let it state.
const DENY_UNSAFE_ROOTS: &[&str] = &["crates/budget/src/lib.rs"];

/// One policy violation.
#[derive(Debug)]
struct Finding {
    /// Which rule tripped (`layering` or `forbid-unsafe`).
    rule: &'static str,
    /// Path relative to the workspace root, with forward slashes.
    path: String,
    /// What was found.
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
    }
}

/// The packages under `root`: every `crates/*` with a manifest, then the
/// workspace root package (the umbrella crate).
fn packages(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = read_dir_sorted(&root.join("crates"))
        .into_iter()
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        dirs.push(root.to_path_buf());
    }
    dirs
}

/// Checks both structural rules over [`packages`]`(root)`; the findings
/// come back sorted by path.
fn lint(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for dir in packages(root) {
        let manifest_path = dir.join("Cargo.toml");
        let rel_manifest = rel_path(root, &manifest_path);
        let (package, deps) = parse_manifest(&std::fs::read_to_string(&manifest_path).unwrap());
        let Some(package) = package else {
            findings.push(Finding {
                rule: "layering",
                path: rel_manifest,
                message: "manifest has no [package] name".to_string(),
            });
            continue;
        };
        check_layering(&package, &deps, &rel_manifest, &mut findings);

        let src = dir.join("src");
        let mut roots = vec![src.join("lib.rs"), src.join("main.rs")];
        let bin = src.join("bin");
        if bin.is_dir() {
            roots.extend(
                read_dir_sorted(&bin)
                    .into_iter()
                    .filter(|p| p.extension().is_some_and(|e| e == "rs")),
            );
        }
        for file in roots.into_iter().filter(|p| p.is_file()) {
            let rel = rel_path(root, &file);
            let text = std::fs::read_to_string(&file).unwrap();
            let declared = text.contains("#![forbid(unsafe_code)]")
                || (DENY_UNSAFE_ROOTS.contains(&rel.as_str())
                    && text.contains("#![deny(unsafe_code)]"));
            if !declared {
                findings.push(Finding {
                    rule: "forbid-unsafe",
                    path: rel,
                    message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
                });
            }
        }
    }
    findings.sort_by(|a, b| a.path.cmp(&b.path));
    findings
}

/// Extracts the package name and the `[dependencies]` keys from a
/// manifest. Hand-rolled for the subset of TOML the workspace uses:
/// section headers and `key = ...` / `key.workspace = true` lines.
/// Dev-dependencies are deliberately ignored — tests may cross layers.
fn parse_manifest(text: &str) -> (Option<String>, Vec<String>) {
    let mut section = String::new();
    let mut package = None;
    let mut deps = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(h) = line.strip_prefix('[') {
            section = h.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if section == "package" && key == "name" {
            package = Some(value.trim().trim_matches('"').to_string());
        }
        if section == "dependencies" {
            // `puffer-db.workspace = true` parses as key "puffer-db.workspace".
            let name = key.split('.').next().unwrap_or(key);
            deps.push(name.to_string());
        }
    }
    (package, deps)
}

fn layer_of(package: &str) -> Option<u8> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == package)
        .map(|&(_, l)| l)
}

fn check_layering(package: &str, deps: &[String], rel_manifest: &str, findings: &mut Vec<Finding>) {
    let Some(layer) = layer_of(package) else {
        findings.push(Finding {
            rule: "layering",
            path: rel_manifest.to_string(),
            message: format!(
                "crate '{package}' is not in the architecture layer table; add it to \
                 LAYERS in puffer-audit"
            ),
        });
        return;
    };
    for dep in deps {
        if !dep.starts_with("puffer") {
            continue; // external deps are policed by the offline-build rule, not layering
        }
        match layer_of(dep) {
            None => findings.push(Finding {
                rule: "layering",
                path: rel_manifest.to_string(),
                message: format!("dependency '{dep}' is not in the architecture layer table"),
            }),
            Some(dep_layer) if dep_layer >= layer => findings.push(Finding {
                rule: "layering",
                path: rel_manifest.to_string(),
                message: format!(
                    "'{package}' (layer {layer}) may not depend on '{dep}' (layer \
                     {dep_layer}); dependencies must point strictly downward"
                ),
            }),
            Some(_) => {}
        }
    }
}

fn read_dir_sorted(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    out.sort();
    out
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

// ---------------------------------------------------------------------------
// The structural half on fixtures and on the real workspace
// ---------------------------------------------------------------------------

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
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn manifest_parser_reads_name_and_dependencies_only() {
    let toml = "
[package]
name = \"puffer-db\"
version.workspace = true

[dependencies]
puffer-rng.workspace = true
libm = \"0.2\"

[dev-dependencies]
puffer-gen.workspace = true
";
    let (name, deps) = parse_manifest(toml);
    assert_eq!(name.as_deref(), Some("puffer-db"));
    assert_eq!(deps, vec!["puffer-rng".to_string(), "libm".to_string()]);
}

#[test]
fn layering_rejects_upward_and_unknown_dependencies() {
    let mut findings = Vec::new();
    check_layering(
        "puffer-db",
        &["puffer-place".to_string()],
        "crates/db/Cargo.toml",
        &mut findings,
    );
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("strictly downward"));

    findings.clear();
    check_layering(
        "puffer-cli",
        &["puffer-mystery".to_string()],
        "crates/cli/Cargo.toml",
        &mut findings,
    );
    assert_eq!(findings.len(), 1);
    assert!(findings[0]
        .message
        .contains("not in the architecture layer table"));

    findings.clear();
    check_layering(
        "puffer-pad",
        &["puffer-congest".to_string(), "puffer-db".to_string()],
        "crates/pad/Cargo.toml",
        &mut findings,
    );
    assert!(findings.is_empty(), "{findings:?}");
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
    let findings = lint(&fx.root);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn missing_forbid_unsafe_is_a_finding() {
    let fx = Fixture::new("forbid");
    fx.add_crate("db", "puffer-db", &[], "pub fn ok() {}\n");
    let findings = lint(&fx.root);
    assert_eq!(rules_of(&findings), vec!["forbid-unsafe"]);
    assert_eq!(findings[0].path, "crates/db/src/lib.rs");
}

#[test]
fn upward_dependency_is_a_layering_finding() {
    let fx = Fixture::new("layering-up");
    // puffer-db (layer 0) depending on puffer (layer 5) points upward.
    fx.add_crate(
        "db",
        "puffer-db",
        &["puffer"],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    let findings = lint(&fx.root);
    assert_eq!(rules_of(&findings), vec!["layering"]);
    assert!(findings[0].message.contains("strictly downward"));
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
    let findings = lint(&fx.root);
    assert_eq!(rules_of(&findings), vec!["layering"]);
    assert!(findings[0].message.contains("layer table"));
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
    let root = workspace_root();
    let findings = lint(&root);
    assert!(
        findings.is_empty(),
        "the repository must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A root without the workspace would pass with zero findings: what was
    // checked must be every entry of crates/ plus the root package.
    let checked = packages(&root);
    let crates = std::fs::read_dir(root.join("crates")).unwrap().count();
    assert_eq!(checked.len(), crates + 1, "{checked:?}");
    assert!(checked.contains(&root), "{checked:?}");
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
