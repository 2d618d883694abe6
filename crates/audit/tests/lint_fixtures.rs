//! Fixture workspaces for the lint driver: each rule must trip on a
//! minimal source that violates it and stay quiet on the clean variant,
//! and the waiver machinery must suppress, budget, and stale-check.

use puffer_audit::{lint_workspace, LintConfig, LintError, LintReport};
use std::path::PathBuf;

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

    fn write(&self, rel: &str, content: &str) -> &Fixture {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
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
fn unwrap_in_library_code_is_a_no_panic_finding() {
    let fx = Fixture::new("no-panic");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn bad(v: Option<u8>) -> u8 {{ v.unwrap() }}\n"),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["no-panic"]);
    assert_eq!(report.findings[0].line, 2);
    assert_eq!(report.findings[0].path, "crates/db/src/lib.rs");
}

#[test]
fn test_blocks_strings_and_comments_do_not_trip_no_panic() {
    let fx = Fixture::new("masked");
    let lib = format!(
        "{FORBID}\
         // a comment mentioning x.unwrap() is fine\n\
         pub const HINT: &str = \"call .unwrap() at your peril\";\n\
         #[cfg(test)]\n\
         mod tests {{\n\
             #[test]\n\
             fn t() {{ Some(1).unwrap(); panic!(\"in tests this is fine\") }}\n\
         }}\n"
    );
    fx.add_crate("db", "puffer-db", &[], &lib);
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn binary_roots_are_exempt_from_no_panic() {
    let fx = Fixture::new("bin-exempt");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    fx.write(
        "crates/db/src/main.rs",
        &format!("{FORBID}fn main() {{ std::env::args().next().unwrap(); }}\n"),
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn bare_thread_spawn_is_always_a_finding() {
    let fx = Fixture::new("spawn");
    // Even in the sanctioned scoped-thread crate, bare spawn is banned.
    fx.add_crate(
        "par",
        "puffer-par",
        &[],
        &format!("{FORBID}pub fn run() {{ std::thread::spawn(|| ()); }}\n"),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["no-bare-spawn"]);
}

#[test]
fn thread_scope_is_no_longer_sanctioned_in_route_and_congest() {
    // Their panic-draining pools delegate to puffer-par now.
    let scope_src = format!("{FORBID}pub fn run() {{ std::thread::scope(|_| ()); }}\n");
    for (dir, package) in [
        ("congest", "puffer-congest"),
        ("route", "puffer-route"),
        ("db", "puffer-db"),
    ] {
        let fx = Fixture::new(&format!("scope-bad-{dir}"));
        fx.add_crate(dir, package, &[], &scope_src);
        let report = fx.lint().unwrap();
        assert_eq!(rules_of(&report), vec!["no-bare-spawn"], "{dir}");
    }
}

#[test]
fn thread_scope_in_the_fork_join_layer_is_sanctioned() {
    // puffer-par *is* the deterministic fork-join layer: its scoped
    // threads are the one place the workspace is allowed to spawn.
    let fx = Fixture::new("scope-par-ok");
    fx.add_crate(
        "par",
        "puffer-par",
        &[],
        &format!("{FORBID}pub fn run() {{ std::thread::scope(|_| ()); }}\n"),
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn thread_scope_elsewhere_recommends_puffer_par() {
    // A kernel crate reaching for thread::scope directly must be pointed
    // at the sanctioned fork-join layer instead.
    let fx = Fixture::new("scope-place-bad");
    fx.add_crate(
        "place",
        "puffer-place",
        &[],
        &format!("{FORBID}pub fn run() {{ std::thread::scope(|_| ()); }}\n"),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["no-bare-spawn"]);
    assert!(
        report.findings[0].message.contains("puffer-par"),
        "finding should point at the fork-join layer: {}",
        report.findings[0].message
    );
}

#[test]
fn missing_forbid_unsafe_is_a_finding() {
    let fx = Fixture::new("forbid");
    fx.add_crate("db", "puffer-db", &[], "pub fn ok() {}\n");
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["forbid-unsafe"]);
    assert_eq!(report.findings[0].line, 0);
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
fn waiver_suppresses_a_finding_and_counts_it() {
    let fx = Fixture::new("waive");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn bad(v: Option<u8>) -> u8 {{ v.unwrap() }}\n"),
    );
    fx.write(
        "lint-allow.toml",
        "[[allow]]\n\
         rule = \"no-panic\"\n\
         path = \"crates/db/src/lib.rs\"\n\
         reason = \"fixture exercising the waiver machinery\"\n",
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.waived, 1);
}

#[test]
fn stale_waiver_is_itself_a_finding() {
    let fx = Fixture::new("stale-waiver");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    fx.write(
        "lint-allow.toml",
        "[[allow]]\n\
         rule = \"no-panic\"\n\
         path = \"crates/db/src/lib.rs\"\n\
         reason = \"nothing here fires any more\"\n",
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["waiver"]);
    assert!(report.findings[0].message.contains("stale"));
}

#[test]
fn waiver_budget_is_enforced() {
    let fx = Fixture::new("waiver-budget");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    let mut allow = String::new();
    for i in 0..=puffer_audit::lint::MAX_WAIVERS {
        allow.push_str(&format!(
            "[[allow]]\nrule = \"no-panic\"\npath = \"crates/db/src/f{i}.rs\"\n\
             reason = \"padding out the waiver budget\"\n"
        ));
    }
    fx.write("lint-allow.toml", &allow);
    let err = fx.lint().unwrap_err();
    assert!(matches!(err, LintError::Waiver(_)), "{err}");
    assert!(err.to_string().contains("budget"));
}

#[test]
fn waiver_without_a_real_reason_is_rejected() {
    let fx = Fixture::new("waiver-reason");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    fx.write(
        "lint-allow.toml",
        "[[allow]]\nrule = \"no-panic\"\npath = \"crates/db/src/lib.rs\"\nreason = \"because\"\n",
    );
    let err = fx.lint().unwrap_err();
    assert!(matches!(err, LintError::Waiver(_)), "{err}");
    assert!(err.to_string().contains("justification"));
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

#[test]
fn the_real_workspace_passes_its_own_lint() {
    // CARGO_MANIFEST_DIR is crates/audit; the workspace root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .unwrap()
        .to_path_buf();
    let report = lint_workspace(&LintConfig { root }).unwrap();
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
fn bare_numeric_cast_in_a_hot_crate_is_a_finding() {
    let fx = Fixture::new("cast-hot");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn bin(x: f64) -> usize {{ x as usize }}\n"),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["cast"]);
    assert_eq!(report.findings[0].line, 2);
    assert!(report.findings[0].message.contains("`as usize`"));
    assert!(report.findings[0].message.contains("puffer_db::cast"));
}

#[test]
fn casts_in_tests_the_helper_module_and_cold_crates_are_exempt() {
    // cast.rs is the sanctioned home of the bare casts the helpers wrap.
    let fx = Fixture::new("cast-exempt");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!(
            "{FORBID}pub mod cast;\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 #[test]\n\
                 fn t() {{ assert_eq!(3.7 as usize, crate::cast::trunc_idx(3.7)); }}\n\
             }}\n"
        ),
    );
    fx.write(
        "crates/db/src/cast.rs",
        "pub fn trunc_idx(x: f64) -> usize {\n    x as usize\n}\n",
    );
    // Cold crates (not in the hot list) may still cast bare.
    fx.add_crate(
        "trace",
        "puffer-trace",
        &[],
        &format!("{FORBID}pub fn pct(n: usize) -> f64 {{ n as f64 }}\n"),
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn hash_map_in_library_code_is_an_unordered_iter_finding() {
    let fx = Fixture::new("unordered");
    fx.add_crate(
        "trace",
        "puffer-trace",
        &[],
        &format!(
            "{FORBID}use std::collections::HashMap;\n\
             pub fn build() -> HashMap<String, u32> {{ HashMap::new() }}\n"
        ),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["unordered-iter", "unordered-iter"]);
    assert!(report.findings[0].message.contains("random order"));
}

#[test]
fn btree_map_and_test_only_hash_map_are_clean() {
    let fx = Fixture::new("unordered-clean");
    fx.add_crate(
        "trace",
        "puffer-trace",
        &[],
        &format!(
            "{FORBID}use std::collections::BTreeMap;\n\
             pub fn build() -> BTreeMap<String, u32> {{ BTreeMap::new() }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 use std::collections::HashMap;\n\
                 #[test]\n\
                 fn t() {{ let _ = HashMap::<u8, u8>::new(); }}\n\
             }}\n"
        ),
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn instant_now_outside_the_clock_crates_is_a_wallclock_finding() {
    let fx = Fixture::new("wallclock");
    fx.add_crate(
        "place",
        "puffer-place",
        &[],
        &format!(
            "{FORBID}pub fn stamp() -> std::time::Instant {{ std::time::Instant::now() }}\n"
        ),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["wallclock"]);
    assert!(report.findings[0].message.contains("puffer_budget::clock"));
}

#[test]
fn the_clock_crates_may_read_the_wall_clock() {
    // puffer-budget and puffer-trace *implement* the timing facade.
    let src =
        format!("{FORBID}pub fn stamp() -> std::time::Instant {{ std::time::Instant::now() }}\n");
    let fx = Fixture::new("wallclock-exempt");
    fx.add_crate("budget", "puffer-budget", &[], &src);
    fx.add_crate("trace", "puffer-trace", &["puffer-budget"], &src);
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn raw_mutex_lock_is_a_lock_order_finding() {
    let fx = Fixture::new("raw-lock");
    fx.add_crate(
        "trace",
        "puffer-trace",
        &[],
        &format!(
            "{FORBID}pub fn peek(m: &std::sync::Mutex<u32>) {{ let _g = m.lock(); }}\n"
        ),
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["lock-order"]);
    assert!(report.findings[0].message.contains("lock_ordered"));
}

/// The rank registry a lock-order fixture workspace needs: the analysis
/// parses it from `crates/budget/src/lockcheck.rs`, exactly like the real
/// workspace.
const FIXTURE_RANKS: &str = "\
    use super::LockClass;\n\
    pub mod classes {\n\
        pub static SERVE_QUEUE: LockClass = LockClass::new(\"serve.queue\", 10);\n\
        pub static SERVE_JOBS: LockClass = LockClass::new(\"serve.jobs\", 20);\n\
    }\n";

fn lock_order_fixture(name: &str, body: &str) -> Fixture {
    let fx = Fixture::new(name);
    fx.add_crate(
        "budget",
        "puffer-budget",
        &[],
        &format!("{FORBID}pub mod lockcheck;\n"),
    );
    fx.write("crates/budget/src/lockcheck.rs", FIXTURE_RANKS);
    fx.add_crate(
        "serve",
        "puffer-serve",
        &["puffer-budget"],
        &format!("{FORBID}use puffer_budget::lockcheck::{{classes, lock_ordered}};\n{body}"),
    );
    fx
}

#[test]
fn inverted_lock_acquisition_contradicts_the_declared_order() {
    let fx = lock_order_fixture(
        "lock-inverted",
        "pub fn inverted(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {\n\
             let hi = lock_ordered(b, &classes::SERVE_JOBS);\n\
             let lo = lock_ordered(a, &classes::SERVE_QUEUE);\n\
             *hi + *lo\n\
         }\n",
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["lock-order"]);
    assert!(
        report.findings[0]
            .message
            .contains("'serve.queue' (rank 10) while 'serve.jobs' (rank 20)"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn in_order_lock_acquisition_passes() {
    let fx = lock_order_fixture(
        "lock-ordered",
        "pub fn ordered(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {\n\
             let lo = lock_ordered(a, &classes::SERVE_QUEUE);\n\
             let hi = lock_ordered(b, &classes::SERVE_JOBS);\n\
             *lo + *hi\n\
         }\n",
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn raw_write_primitives_in_library_code_are_raw_io_findings() {
    let fx = Fixture::new("raw-io");
    fx.add_crate(
        "trace",
        "puffer-trace",
        &[],
        &format!(
            "{FORBID}use std::fs::{{self, File}};\n\
             pub fn bad(p: &std::path::Path) -> std::io::Result<()> {{\n\
                 let f = File::create(p)?;\n\
                 fs::write(p, b\"x\")?;\n\
                 fs::rename(p, p)?;\n\
                 f.sync_all()\n\
             }}\n"
        ),
    );
    let report = fx.lint().unwrap();
    assert_eq!(
        rules_of(&report),
        vec!["raw-io", "raw-io", "raw-io", "raw-io"]
    );
    assert_eq!(report.findings[0].line, 4);
    assert!(
        report.findings[0].message.contains("fsx::atomic_write"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn raw_io_is_sanctioned_in_fsx_binaries_and_tests() {
    let raw = "pub fn w(p: &std::path::Path) {\n    let _ = std::fs::write(p, b\"x\");\n}\n";
    // The durable layer itself is the one sanctioned home of the
    // primitives it wraps.
    let fx = Fixture::new("raw-io-exempt");
    fx.add_crate(
        "budget",
        "puffer-budget",
        &[],
        &format!("{FORBID}pub mod fsx;\n"),
    );
    fx.write("crates/budget/src/fsx.rs", raw);
    // Binary roots and #[cfg(test)] blocks are outside the rule, like
    // every other library-only lint.
    fx.write(
        "crates/budget/src/main.rs",
        &format!("{FORBID}fn main() {{ let _ = std::fs::write(\"x\", b\"y\"); }}\n"),
    );
    fx.add_crate(
        "trace",
        "puffer-trace",
        &["puffer-budget"],
        &format!(
            "{FORBID}pub fn ok() {{}}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 #[test]\n\
                 fn t() {{ std::fs::write(\"t\", b\"fixture\").unwrap(); }}\n\
             }}\n"
        ),
    );
    let report = fx.lint().unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn waiver_for_a_deleted_file_is_a_finding() {
    let fx = Fixture::new("waiver-gone");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn ok() {{}}\n"),
    );
    fx.write(
        "lint-allow.toml",
        "[[allow]]\n\
         rule = \"no-panic\"\n\
         path = \"crates/db/src/deleted_module.rs\"\n\
         reason = \"this file was removed in a refactor\"\n",
    );
    let report = fx.lint().unwrap();
    assert_eq!(rules_of(&report), vec!["waiver"]);
    assert!(
        report.findings[0].message.contains("no longer exists"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn json_lines_emits_one_flat_object_per_finding() {
    let fx = Fixture::new("json");
    fx.add_crate(
        "db",
        "puffer-db",
        &[],
        &format!("{FORBID}pub fn bad(v: Option<u8>) -> u8 {{ v.unwrap() }}\n"),
    );
    let report = fx.lint().unwrap();
    let json = report.json_lines();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].starts_with("{\"rule\":\"no-panic\""), "{json}");
    assert!(lines[0].contains("\"path\":\"crates/db/src/lib.rs\""), "{json}");
    assert!(lines[0].contains("\"line\":2"), "{json}");
    assert!(lines[0].ends_with('}'), "{json}");
    assert!(json.ends_with('\n'), "json_lines output must be newline-terminated");
}
