//! Workspace traversal: which `.rs` files get scanned, and which crate
//! each belongs to.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A source file selected for scanning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (stable diagnostics).
    pub rel_path: String,
    /// Crate key: the directory under `crates/`, or `fpb` for the root
    /// package's `src/`, `tests/`, `examples/`.
    pub crate_key: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", "shims", "fixtures"];

/// Collects every scannable `.rs` file under `root` (a workspace
/// checkout), sorted by path so scans are deterministic.
///
/// Skipped entirely: `target/`, `.git/`, the vendored dependency shims
/// (`crates/shims/` — API-compatibility stand-ins, not project code), and
/// any `fixtures/` directory (the lint engine's own test corpus of
/// seeded violations).
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                crate_key: crate_key_of(&rel),
                rel_path: rel,
                abs_path: path,
            });
        }
    }
    Ok(())
}

/// Derives the crate key from a repo-relative path.
pub fn crate_key_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        _ => "fpb".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key_of("crates/core/src/ledger.rs"), "core");
        assert_eq!(crate_key_of("crates/sim/tests/parallel_sweep.rs"), "sim");
        assert_eq!(crate_key_of("src/cli.rs"), "fpb");
        assert_eq!(crate_key_of("tests/integration.rs"), "fpb");
        assert_eq!(crate_key_of("examples/quickstart.rs"), "fpb");
    }

    #[test]
    fn walk_skips_shims_fixtures_and_target() {
        // Walk this workspace (the crate's own manifest dir has the repo
        // root two levels up).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let files = collect_sources(root).expect("walk workspace");
        assert!(!files.is_empty());
        assert!(files
            .iter()
            .any(|f| f.rel_path == "crates/core/src/ledger.rs"));
        assert!(files.iter().all(|f| !f.rel_path.contains("target/")));
        assert!(files.iter().all(|f| !f.rel_path.contains("shims/")));
        assert!(files.iter().all(|f| !f.rel_path.contains("fixtures/")));
        // Deterministic order.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
