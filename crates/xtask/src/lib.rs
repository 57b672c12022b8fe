#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `xtask` — repo automation for the gossip-latencies workspace.
//!
//! `tidy` is a self-contained determinism & safety linter (no
//! dependencies beyond `std`): a lightweight Rust tokenizer feeds
//! twelve rule families that enforce the engine's determinism contract
//! — the property the golden-trace suite *observes*, this tool
//! *protects*. Run it as `cargo xtask tidy`; see DESIGN.md §8
//! "Determinism contract & tidy rules" for the contract itself.
//! `loc` counts the lines of each crate's `src/` outside test items,
//! with the same tokenizer ([`loc`]).

pub mod lexer;
pub mod loc;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use rules::Violation;

/// The outcome of a full repo scan.
#[derive(Debug)]
pub struct ScanResult {
    /// Findings, sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Number of files (Rust + manifests) inspected.
    pub files_scanned: usize,
}

/// Directories never scanned: third-party code, build output, VCS
/// metadata, and the tidy fixture corpus (which is *deliberately*
/// violating — the fixture tests feed it through the rules directly).
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel == ".git"
        || rel == "vendor"
        || rel == "crates/xtask/tests/fixtures"
        || rel.ends_with("/target")
}

fn walk(root: &Path, rel: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let dir = root.join(rel);
    let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child_rel = if rel.is_empty() {
            name.to_string()
        } else {
            format!("{rel}/{name}")
        };
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if !skip_dir(&child_rel) {
                walk(root, &child_rel, out)?;
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(PathBuf::from(child_rel));
        }
    }
    Ok(())
}

/// Crate-root files that must carry `#![forbid(unsafe_code)]`: every
/// member library root plus the workspace root library.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")))
}

/// Scans the workspace at `root` and returns every finding.
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be read.
pub fn scan_repo(root: &Path) -> std::io::Result<ScanResult> {
    let mut files = Vec::new();
    walk(root, "", &mut files)?;
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(root.join(rel))?;
        files_scanned += 1;
        if rel_str.ends_with(".rs") {
            violations.extend(rules::check_rust_file(&rel_str, &src));
            if is_crate_root(&rel_str) {
                violations.extend(rules::check_crate_root(&rel_str, &src));
            }
        } else {
            violations.extend(rules::check_manifest(&rel_str, &src));
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(ScanResult {
        violations,
        files_scanned,
    })
}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// `cargo xtask`, else walks up from the current directory to the first
/// ancestor containing both `Cargo.toml` and `crates/`.
///
/// # Errors
///
/// Returns an error message when no workspace root can be found.
pub fn find_root() -> Result<PathBuf, String> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(&manifest);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() && root.join("crates").is_dir() {
                return Ok(root.to_path_buf());
            }
        }
    }
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("could not locate the workspace root (Cargo.toml + crates/)".to_string());
        }
    }
}
