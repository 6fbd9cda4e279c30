//! # fpb-analyze: project-specific static analysis for the FPB workspace
//!
//! A hand-rolled, zero-registry-dependency Rust source scanner enforcing
//! the invariants FPB's results depend on that neither the compiler nor
//! clippy can express:
//!
//! * **Panic-freedom** — no `unwrap`/`expect`/`panic!`-family in the
//!   engine/ledger/manager hot paths outside test code, and no panic site
//!   reachable from `System::run`/`step` through the call graph.
//! * **Power accounting** — no narrowing `as` casts or exact float
//!   equality on token/energy/cycle values, and every granted power token
//!   consumed on every exit path.
//! * **Determinism taint** — no wall-clock, environment, hash-order or
//!   thread-id source on a call chain into metrics, reports or the event
//!   log.
//! * **Scheme isolation and atomic ordering** — scheme policy mutated
//!   only in the scheme module; `Ordering::Relaxed` on coordination
//!   atomics only with an `// ORDER:` justification.
//!
//! The blanket bans live in stock tools: `unsafe_code = "forbid"` in the
//! workspace `[lints]`, and the wall-clock, environment and hash-container
//! bans in `crates/clippy.toml`.
//!
//! Intentional exceptions carry an inline `fpb-lint: allow` directive;
//! any other finding fails the scan with a `file:line` diagnostic. See
//! [`rules::Rule`] for the catalog and DESIGN.md for the rationale of
//! each rule.
//!
//! ## Quickstart
//!
//! ```
//! use fpb_analyze::{report::render_text, rules::scan_source};
//!
//! let src = "fn hot(x: Option<u8>) -> u8 { x.unwrap() }";
//! let violations = scan_source("crates/core/src/hot.rs", "core", src);
//! assert_eq!(violations.len(), 1);
//! assert!(render_text(&violations, 1).ends_with("— FAILED\n"));
//! ```
//!
//! The CLI entry point is `fpb lint`; CI runs it as a blocking job and
//! uploads its `--format json` report as an artifact.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod callgraph;
pub mod cfg;
pub mod lexer;
pub mod parser;
pub mod report;
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
/// for what is included) and applies the whole rule catalog: the lexical
/// rules and the semantic rules (token leaks, panic reachability,
/// nondeterminism taint) over the workspace call graph.
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
        // The real gate: every finding in the workspace must be fixed or
        // carry an inline directive. This is the same check `fpb lint`
        // and CI run, so a new violation fails the unit suite too.
        let root = repo_root();
        let result = scan_root(&root).expect("scan workspace");
        assert!(result.files_scanned > 50, "suspiciously few files scanned");
        assert!(
            result.violations.is_empty(),
            "lint found violations:\n{}",
            report::render_text(&result.violations, result.files_scanned)
        );
    }

    #[test]
    fn every_directive_names_a_known_rule() {
        // A directive naming a removed or misspelled rule suppresses
        // nothing, and says so nowhere; keep every one meaningful.
        let mut unknown = Vec::new();
        for src in walk::collect_sources(&repo_root()).expect("walk workspace") {
            let text = std::fs::read_to_string(&src.abs_path).expect("read source");
            let directives = rules::Directives::parse(&lexer::lex(&text).comments);
            for (line, name) in directives.unknown {
                unknown.push(format!("{}:{line}: `{name}`", src.rel_path));
            }
        }
        assert!(
            unknown.is_empty(),
            "fpb-lint directives naming no known rule:\n{}",
            unknown.join("\n")
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
