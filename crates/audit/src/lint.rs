//! The structural half of the source policy, behind `puffer lint`: the
//! two rules no compiler lint expresses, checked from the manifests and
//! the crate roots with no dependency on rustc.
//!
//! * `layering` — crate dependencies parsed from the workspace manifests
//!   must respect the architecture layers (e.g. `db` depends on nothing,
//!   only the assembly layers may depend on `core`), so erosion becomes a
//!   build failure instead of a review comment.
//! * `forbid-unsafe` — every crate root (`src/lib.rs`, `src/main.rs`,
//!   `src/bin/*.rs`) must declare `#![forbid(unsafe_code)]`; the one root
//!   that hosts sanctioned `unsafe` ([`DENY_UNSAFE_ROOTS`]) declares `deny`.
//!
//! Everything the toolchain can express — no panics, `HashMap`s, clock
//! reads, raw writes, raw `Mutex::lock`s or thread spawns in library code,
//! no bare `as` in the hot crates — is `clippy.toml` plus
//! `scripts/policy.sh`, with each exemption an in-source
//! `#[expect(<lint>, reason = "..")]`; README "Static analysis" has the
//! table.

use std::fmt;
use std::path::{Path, PathBuf};

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

/// Configuration for a lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root: the directory holding `crates/`.
    pub root: PathBuf,
}

/// A failure of the lint run itself (as opposed to findings in the code).
#[derive(Debug)]
pub enum LintError {
    /// A file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The root does not look like the workspace.
    BadRoot(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "cannot read {}: {source}", path.display()),
            LintError::BadRoot(p) => {
                write!(f, "{} does not contain a crates/ directory", p.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

/// One policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Which rule tripped (`layering` or `forbid-unsafe`).
    pub rule: &'static str,
    /// Path relative to the workspace root, with forward slashes.
    pub path: String,
    /// What was found.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
    }
}

impl LintFinding {
    /// The finding as one flat JSON object (no trailing newline), for
    /// `puffer lint --json`: `{"rule":…,"path":…,"message":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"rule\":\"");
        puffer_trace::escape_into(self.rule, &mut out);
        out.push_str("\",\"path\":\"");
        puffer_trace::escape_into(&self.path, &mut out);
        out.push_str("\",\"message\":\"");
        puffer_trace::escape_into(&self.message, &mut out);
        out.push_str("\"}");
        out
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// The findings; the run fails when this is non-empty.
    pub findings: Vec<LintFinding>,
    /// Crate roots checked.
    pub files_scanned: usize,
    /// Crates scanned.
    pub crates_scanned: usize,
}

impl LintReport {
    /// All findings as JSONL: one flat JSON object per line, in report
    /// order, with a trailing newline after each (empty string when the
    /// run is clean). Machine-readable output for `puffer lint --json`.
    #[must_use]
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_json());
            out.push('\n');
        }
        out
    }
}

/// Lints the workspace rooted at `config.root`.
///
/// # Errors
///
/// [`LintError`] when the root is not a workspace or a file cannot be
/// read. Policy violations are *not* errors — they come back in the
/// report.
pub fn lint_workspace(config: &LintConfig) -> Result<LintReport, LintError> {
    let root = &config.root;
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(LintError::BadRoot(root.clone()));
    }
    let mut report = LintReport::default();

    let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
        .into_iter()
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    // The workspace root package participates too (umbrella crate).
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        crate_dirs.push(root.clone());
    }

    for dir in &crate_dirs {
        report.crates_scanned += 1;
        let manifest_path = dir.join("Cargo.toml");
        let rel_manifest = rel_path(root, &manifest_path);
        let (package, deps) = parse_manifest(&read_file(&manifest_path)?);
        let Some(package) = package else {
            report.findings.push(LintFinding {
                rule: "layering",
                path: rel_manifest,
                message: "manifest has no [package] name".to_string(),
            });
            continue;
        };
        check_layering(&package, &deps, &rel_manifest, &mut report.findings);

        let src = dir.join("src");
        let mut roots = vec![src.join("lib.rs"), src.join("main.rs")];
        let bin = src.join("bin");
        if bin.is_dir() {
            roots.extend(
                read_dir_sorted(&bin)?
                    .into_iter()
                    .filter(|p| p.extension().is_some_and(|e| e == "rs")),
            );
        }
        for file in roots.into_iter().filter(|p| p.is_file()) {
            report.files_scanned += 1;
            let rel = rel_path(root, &file);
            let text = read_file(&file)?;
            let declared = text.contains("#![forbid(unsafe_code)]")
                || (DENY_UNSAFE_ROOTS.contains(&rel.as_str())
                    && text.contains("#![deny(unsafe_code)]"));
            if !declared {
                report.findings.push(LintFinding {
                    rule: "forbid-unsafe",
                    path: rel,
                    message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
                });
            }
        }
    }

    report.findings.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(report)
}

// ---------------------------------------------------------------------------
// Manifest parsing & layering
// ---------------------------------------------------------------------------

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

fn check_layering(
    package: &str,
    deps: &[String],
    rel_manifest: &str,
    findings: &mut Vec<LintFinding>,
) {
    let Some(layer) = layer_of(package) else {
        findings.push(LintFinding {
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
            None => findings.push(LintFinding {
                rule: "layering",
                path: rel_manifest.to_string(),
                message: format!("dependency '{dep}' is not in the architecture layer table"),
            }),
            Some(dep_layer) if dep_layer >= layer => findings.push(LintFinding {
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

// ---------------------------------------------------------------------------
// Filesystem helpers
// ---------------------------------------------------------------------------

fn read_file(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|source| LintError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let entries = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
