//! # fpb-analyze: the two checks no stock tool makes
//!
//! A hand-rolled, zero-registry-dependency Rust source scanner (lexer,
//! item parser, workspace symbol table and name-resolved call graph) for
//! two invariants FPB's results depend on that neither the compiler nor
//! clippy can express:
//!
//! * **`panic_reachability`** — no panic site (`.unwrap()`, `.expect()`,
//!   `panic!`-family) on a call chain from the engine's fallible entry
//!   points `System::try_run` / `System::try_step`, in fpb-core, fpb-sim
//!   and fpb-pcm. Clippy sees each panic site alone and accepts one that
//!   carries an `#[expect]`; this rule asks whether the engine can reach it.
//! * **`atomic_ordering`** — `Ordering::Relaxed` on an fpb-sim
//!   coordination atomic only with an adjacent `// ORDER:` justification.
//!
//! Everything else is a stock tool's job: clippy's restriction lints
//! (panic-freedom, narrowing casts, float equality) and the determinism
//! bans in `crates/clippy.toml`, the compiler (private scheme components,
//! `#[must_use]` grants, `unsafe_code = "forbid"`), and the conservation
//! tests. A finding has no suppression syntax: fix the code.
//!
//! The gate is this crate's unit test `workspace_scan_is_clean`, which
//! `cargo test --workspace` runs.
//!
//! ## Quickstart
//!
//! ```
//! use fpb_analyze::semantic::scan_semantic;
//!
//! let src = "impl System { pub fn try_step(&mut self) { self.q.pop().unwrap() } }";
//! let violations = scan_semantic("crates/sim/src/hot.rs", "sim", src);
//! assert_eq!(violations.len(), 1);
//! assert!(violations[0].to_string().contains("panic_reachability"));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;
pub mod symbols;
pub mod walk;

use std::io;
use std::path::Path;

use rules::Violation;

/// The result of scanning a workspace tree.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every violation found, in (file, line) order.
    pub violations: Vec<Violation>,
}

/// Scans every source file under `root` (see [`walk::collect_sources`]
/// for what is included) and applies both rules: `atomic_ordering` file
/// by file, and `panic_reachability` over the workspace call graph.
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn scan_root(root: &Path) -> io::Result<ScanResult> {
    let sources = walk::collect_sources(root)?;
    let facts = sources
        .iter()
        .map(|src| {
            let text = std::fs::read_to_string(&src.abs_path)?;
            Ok(semantic::file_facts(&src.rel_path, &src.crate_key, &text))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(ScanResult {
        files_scanned: sources.len(),
        violations: semantic::analyze(&facts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repo root, two levels above this crate's manifest.
    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn workspace_scan_is_clean() {
        // The gate: every finding in the workspace must be fixed. CI runs
        // it as part of `cargo test --workspace`.
        let root = repo_root();
        let result = scan_root(&root).expect("scan workspace");
        assert!(result.files_scanned > 50, "suspiciously few files scanned");
        let found: Vec<String> = result.violations.iter().map(|v| v.to_string()).collect();
        assert!(
            found.is_empty(),
            "lint found violations:\n{}",
            found.join("\n")
        );
    }

    #[test]
    fn violations_are_sorted_and_stable() {
        let root = repo_root();
        let a = scan_root(&root).expect("scan");
        let b = scan_root(&root).expect("scan");
        assert_eq!(a.violations, b.violations, "scan must be deterministic");
        let mut sorted = a.violations.clone();
        sorted.sort_by(|x, y| (&x.file, x.line, x.rule).cmp(&(&y.file, y.line, y.rule)));
        assert_eq!(a.violations, sorted);
    }
}
