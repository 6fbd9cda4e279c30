//! The rule catalog, the finding type, and the per-file
//! `atomic_ordering` scan.
//!
//! Both rules guard an invariant that neither the compiler nor clippy
//! can see:
//!
//! * [`Rule::PanicReachability`] — a panic site on a call chain from the
//!   engine's fallible entry points (`System::try_run` / `try_step`).
//!   Clippy accepts a suppressed `panic!` anywhere; this rule asks
//!   whether the engine can reach it.
//! * [`Rule::AtomicOrdering`] — `Ordering::Relaxed` on a cross-thread
//!   coordination atomic without an adjacent `// ORDER:` justification.
//!   A too-weak ordering passes clippy and, on x86, every test.
//!
//! Findings have no suppression syntax: fix the code, or for
//! `atomic_ordering` write the `// ORDER:` proof beside the use.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::{Lexed, TokKind, Token};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A panic site transitively reachable from `System::try_run` /
    /// `System::try_step` through the call graph.
    PanicReachability,
    /// `Ordering::Relaxed` on a cross-thread coordination atomic without
    /// an adjacent `// ORDER:` justification.
    AtomicOrdering,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 2] = [Rule::PanicReachability, Rule::AtomicOrdering];

    /// Stable machine-readable name (used in diagnostics and in the
    /// fixture corpus's `//~` markers).
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicReachability => "panic_reachability",
            Rule::AtomicOrdering => "atomic_ordering",
        }
    }

    /// Parses a rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// Whether this rule applies to source in the given crate.
    ///
    /// `crate_key` is the directory name under `crates/` (`core`, `sim`,
    /// `pcm`, ...) or `fpb` for the workspace root package.
    pub fn applies_to(self, crate_key: &str) -> bool {
        match self {
            // The engine, its power ledger and the device model it drives.
            Rule::PanicReachability => matches!(crate_key, "core" | "sim" | "pcm"),
            // The cross-thread coordination atomics live in fpb-sim's
            // exec/supervise modules.
            Rule::AtomicOrdering => crate_key == "sim",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the specific finding.
    pub message: String,
}

impl fmt::Display for Violation {
    /// `file:line: rule: message`, so editors and CI logs link straight
    /// to the source.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Macros that panic by design (asserts stay out: they state contracts,
/// and `debug_assert!` vanishes in release builds).
pub(crate) const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The [`Rule::AtomicOrdering`] scan of one lexed file: each
/// `Ordering::Relaxed` outside test code needs an `// ORDER:` comment on
/// its own line or within the three lines above it.
pub(crate) fn atomic_ordering(file: &str, crate_key: &str, lexed: &Lexed) -> Vec<Violation> {
    if !Rule::AtomicOrdering.applies_to(crate_key) || is_test_file(file) {
        return Vec::new();
    }
    let test_lines = test_region_lines(&lexed.tokens);
    let order_lines: BTreeSet<u32> = lexed
        .comments
        .iter()
        .filter(|c| c.text.contains("ORDER:"))
        .flat_map(|c| c.start_line..=c.end_line)
        .collect();
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let qualified = t.is_ident("Relaxed")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Ordering");
        if !qualified || test_lines.contains(&t.line) {
            continue;
        }
        let documented = (t.line.saturating_sub(3)..=t.line).any(|l| order_lines.contains(&l));
        if !documented {
            out.push(Violation {
                rule: Rule::AtomicOrdering,
                file: file.to_string(),
                line: t.line,
                message: "`Ordering::Relaxed` without an `// ORDER:` justification".to_string(),
            });
        }
    }
    out
}

/// True if the whole file is test/bench/example code.
pub(crate) fn is_test_file(file: &str) -> bool {
    let normalized = file.replace('\\', "/");
    normalized.contains("/tests/")
        || normalized.contains("/benches/")
        || normalized.contains("/examples/")
        || normalized.starts_with("tests/")
        || normalized.starts_with("benches/")
        || normalized.starts_with("examples/")
        || normalized.ends_with("proptests.rs")
}

/// Computes the set of source lines inside `#[cfg(test)]` / `#[test]`
/// items by tracking brace depth: a test attribute arms a pending flag
/// that latches onto the next `{` and stays set until its matching `}`.
pub(crate) fn test_region_lines(toks: &[Token]) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    let mut depth: i32 = 0;
    let mut pending = false;
    let mut test_until: Vec<i32> = Vec::new(); // stack of depths to pop at
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if !test_until.is_empty() {
            lines.insert(t.line);
        }
        match t.kind {
            TokKind::Punct('#') => {
                // `#[...]` or `#![...]`: scan the attribute's tokens.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    let mut nest = 0i32;
                    let mut is_test_attr = false;
                    let mut first_ident: Option<&str> = None;
                    let mut k = j;
                    while let Some(a) = toks.get(k) {
                        match a.kind {
                            TokKind::Punct('[') | TokKind::Punct('(') => nest += 1,
                            TokKind::Punct(']') | TokKind::Punct(')') => {
                                nest -= 1;
                                if nest == 0 {
                                    break;
                                }
                            }
                            TokKind::Ident => {
                                if first_ident.is_none() {
                                    first_ident = Some(a.text.as_str());
                                }
                                if a.text == "test" {
                                    is_test_attr = true;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`
                    // — but not e.g. `#[should_panic(expected = "test")]`.
                    if is_test_attr && matches!(first_ident, Some("cfg") | Some("test")) {
                        pending = true;
                    }
                    i = k + 1;
                    continue;
                }
            }
            TokKind::Punct('{') => {
                if pending {
                    test_until.push(depth);
                    pending = false;
                    lines.insert(t.line);
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if test_until.last() == Some(&depth) {
                    test_until.pop();
                }
            }
            TokKind::Punct(';') => {
                // A test attribute on a braceless item (`#[cfg(test)] mod
                // proptests;`) must not latch onto the next block.
                pending = false;
            }
            _ => {}
        }
        i += 1;
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn relaxed_lines(file: &str, src: &str) -> Vec<u32> {
        atomic_ordering(file, "sim", &lex(src))
            .into_iter()
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn relaxed_needs_an_adjacent_order_comment() {
        let src = "fn f(a: &AtomicU64) {\n\
                   let x = a.load(Ordering::Relaxed);\n\
                   // ORDER: independent counter, no cross-thread ordering\n\
                   let y = a.load(Ordering::Relaxed);\n\
                   let z = a.load(Ordering::SeqCst);\n\
                   }";
        assert_eq!(relaxed_lines("crates/sim/src/x.rs", src), vec![2]);
        // Outside fpb-sim the rule does not apply.
        assert!(atomic_ordering("crates/core/src/x.rs", "core", &lex(src)).is_empty());
    }

    #[test]
    fn test_regions_and_files_are_exempt() {
        let src = "fn hot() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { a.load(Ordering::Relaxed); }\n\
                   }\n";
        assert!(relaxed_lines("crates/sim/src/x.rs", src).is_empty());
        let src = "fn t() { a.load(Ordering::Relaxed); }";
        assert!(relaxed_lines("crates/sim/tests/integ.rs", src).is_empty());
        assert!(relaxed_lines("crates/sim/src/proptests.rs", src).is_empty());
        assert_eq!(relaxed_lines("crates/sim/src/exec.rs", src), vec![1]);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nmod proptests;\nfn hot() { a.load(Ordering::Relaxed); }";
        assert_eq!(relaxed_lines("crates/sim/src/x.rs", src), vec![3]);
    }

    #[test]
    fn unqualified_relaxed_and_comments_are_not_uses() {
        // An imported `Relaxed` is not matched (the workspace always
        // qualifies it), and a comment or string naming it is not code.
        let src = "// Ordering::Relaxed here would be wrong\n\
                   fn f() { let s = \"Ordering::Relaxed\"; }";
        assert!(relaxed_lines("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn violations_render_as_file_line_rule_message() {
        let v = Violation {
            rule: Rule::AtomicOrdering,
            file: "crates/sim/src/exec.rs".into(),
            line: 7,
            message: "m".into(),
        };
        assert_eq!(
            v.to_string(),
            "crates/sim/src/exec.rs:7: atomic_ordering: m"
        );
        assert_eq!(
            Rule::from_name("panic_reachability"),
            Some(Rule::PanicReachability)
        );
        assert_eq!(Rule::from_name("panic_freedom"), None);
    }
}
