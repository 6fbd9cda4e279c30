//! Per-file fact extraction and the interprocedural link stage.
//!
//! The analysis runs in two phases:
//!
//! 1. **Extraction** ([`file_facts`]) — lex + parse one file, run the
//!    per-file [`Rule::AtomicOrdering`] scan, and record the
//!    interprocedural *facts*: every call site (with its conservative
//!    resolution kind) and every panic site. Facts depend only on the
//!    file's own text.
//! 2. **Link** ([`link`]) — build the workspace symbol table and call
//!    graph from all files' facts and run [`Rule::PanicReachability`]:
//!    the shortest call chain from `System::try_run` / `try_step` to each
//!    panic site.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::lexer::{lex, Lexed, TokKind};
use crate::parser::{enclosing_fn, parse_items, FnItem};
use crate::rules::{self, Rule, Violation, PANIC_MACROS};
use crate::symbols::{FnId, SymbolTable};

/// How a call site names its callee (resolution happens in
/// [`CallGraph::build`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a free call (or `Self`-less path the extractor
    /// could not type).
    Free,
    /// `recv.name(...)` — a method call on an unknown receiver type.
    Method,
    /// `Type::name(...)` — a typed path call (`Self` is substituted with
    /// the caller's impl type at extraction).
    Typed(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee's bare name.
    pub name: String,
    /// Resolution kind.
    pub kind: CallKind,
    /// 1-based source line of the call.
    pub line: u32,
}

/// A panic site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFact {
    /// 1-based source line.
    pub line: u32,
    /// What it is (`` `.unwrap()` ``, `` `panic!` ``).
    pub what: String,
}

/// Everything the link stage needs to know about one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Bare function name.
    pub name: String,
    /// Enclosing impl type, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn takes `self`.
    pub has_self: bool,
    /// Whether the fn is test code (facts below stay empty then).
    pub is_test: bool,
    /// Call sites in the body (innermost-fn attribution).
    pub calls: Vec<Call>,
    /// Panic sites in the body.
    pub panic_sites: Vec<SiteFact>,
}

/// The analysis result for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Repo-relative path.
    pub rel_path: String,
    /// Crate key (see [`Rule::applies_to`]).
    pub crate_key: String,
    /// Per-file violations: the [`Rule::AtomicOrdering`] scan.
    pub violations: Vec<Violation>,
    /// Function facts for the link stage.
    pub fns: Vec<FnFact>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "match", "for", "loop", "return", "let", "as", "move", "ref", "mut", "break",
    "in", "await",
];

/// Extracts one file's facts: the per-file violations and the call and
/// panic-site records the link stage consumes.
pub fn file_facts(rel_path: &str, crate_key: &str, src: &str) -> FileFacts {
    let lexed = lex(src);
    let items = parse_items(&lexed);
    let test_file = rules::is_test_file(rel_path);
    let test_lines = rules::test_region_lines(&lexed.tokens);

    let mut fns: Vec<FnFact> = items
        .iter()
        .map(|it| FnFact {
            name: it.name.clone(),
            self_ty: it.self_ty.clone(),
            line: it.line,
            has_self: it.has_self,
            is_test: test_file || it.is_test,
            calls: Vec::new(),
            panic_sites: Vec::new(),
        })
        .collect();

    extract_fn_facts(&lexed, &items, &mut fns, &test_lines);

    FileFacts {
        rel_path: rel_path.to_string(),
        crate_key: crate_key.to_string(),
        violations: rules::atomic_ordering(rel_path, crate_key, &lexed),
        fns,
    }
}

/// One pass over the token stream filling each function's calls and
/// panic sites. Test functions keep empty facts: they are never roots,
/// and edges into them resolve to fns whose own facts are empty anyway.
fn extract_fn_facts(
    lexed: &Lexed,
    items: &[FnItem],
    fns: &mut [FnFact],
    test_lines: &BTreeSet<u32>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(owner) = enclosing_fn(items, i) else {
            continue;
        };
        if fns[owner].is_test || test_lines.contains(&t.line) {
            continue;
        }
        let name = t.text.as_str();
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let after_dot = i > 0 && toks[i - 1].is_punct('.');

        // Call sites: `ident(` that is not a definition or keyword.
        if called && !NON_CALL_KEYWORDS.contains(&name) && !(i > 0 && toks[i - 1].is_ident("fn")) {
            let kind = if after_dot {
                CallKind::Method
            } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                match toks.get(i.wrapping_sub(3)) {
                    Some(seg)
                        if seg.kind == TokKind::Ident
                            && seg.text.starts_with(char::is_uppercase) =>
                    {
                        let ty = if seg.text == "Self" {
                            fns[owner].self_ty.clone().unwrap_or_else(|| "Self".into())
                        } else {
                            seg.text.clone()
                        };
                        CallKind::Typed(ty)
                    }
                    // `module::f(...)` — resolve by bare name.
                    _ => CallKind::Free,
                }
            } else {
                CallKind::Free
            };
            fns[owner].calls.push(Call {
                name: name.to_string(),
                kind,
                line: t.line,
            });
        }

        // Panic sites: `.unwrap()` / `.expect(..)` calls and the
        // panicking macros.
        let what = if (name == "unwrap" || name == "expect") && after_dot && called {
            format!("`.{name}()`")
        } else if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            format!("`{name}!`")
        } else {
            continue;
        };
        fns[owner].panic_sites.push(SiteFact { line: t.line, what });
    }
}

/// The interprocedural link stage: [`Rule::PanicReachability`] over the
/// whole workspace's facts. Input order does not matter — the symbol
/// table sorts internally and BFS tie-breaking is deterministic.
///
/// The roots are the engine's fallible entry points. `System::run` and
/// `System::step` only call them and panic on `Err`, as their docs
/// state, so they are not roots.
pub fn link(facts: &[FileFacts]) -> Vec<Violation> {
    let table = SymbolTable::build(facts);
    let graph = CallGraph::build(&table, facts);
    let roots: Vec<FnId> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            !s.is_test
                && s.self_ty.as_deref() == Some("System")
                && matches!(s.name.as_str(), "try_run" | "try_step")
        })
        .map(|(id, _)| id)
        .collect();
    let mut out = Vec::new();
    if roots.is_empty() {
        return out;
    }
    let parent = graph.shortest_paths(&roots);
    for (id, sym) in table.fns.iter().enumerate() {
        if parent[id].is_none()
            || sym.is_test
            || !Rule::PanicReachability.applies_to(&sym.crate_key)
        {
            continue;
        }
        let Some(fact) = table.fact(facts, id) else {
            continue;
        };
        for site in &fact.panic_sites {
            out.push(Violation {
                rule: Rule::PanicReachability,
                file: sym.file.clone(),
                line: site.line,
                message: format!(
                    "{} reachable from the engine via {}",
                    site.what,
                    graph.chain(&table, &parent, id)
                ),
            });
        }
    }
    out
}

/// Full analysis over a set of facts: per-file violations plus the link
/// stage, in stable (file, line, rule) order.
pub fn analyze(facts: &[FileFacts]) -> Vec<Violation> {
    let mut out: Vec<Violation> = facts.iter().flat_map(|f| f.violations.clone()).collect();
    out.extend(link(facts));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Single-file convenience used by the fixture harness: extraction plus
/// a link over just this file.
pub fn scan_semantic(rel_path: &str, crate_key: &str, src: &str) -> Vec<Violation> {
    analyze(&[file_facts(rel_path, crate_key, src)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reachable(src: &str) -> Vec<Violation> {
        scan_semantic("crates/sim/src/x.rs", "sim", src)
            .into_iter()
            .filter(|v| v.rule == Rule::PanicReachability)
            .collect()
    }

    #[test]
    fn panic_reachability_reports_shortest_chain() {
        let src = "impl System {\n\
                   pub fn try_run(&mut self) { self.tick() }\n\
                   fn tick(&mut self) { deep() } }\n\
                   fn deep() { inner.unwrap() }\n\
                   fn unrelated() { x.unwrap() }";
        let reach = reachable(src);
        assert_eq!(reach.len(), 1, "only the reachable site: {reach:?}");
        assert_eq!(reach[0].line, 4);
        assert!(
            reach[0]
                .message
                .contains("System::try_run → System::tick → deep"),
            "chain missing: {}",
            reach[0].message
        );
    }

    #[test]
    fn panicking_wrappers_are_not_roots() {
        // `run` and `step` re-raise the fallible entry points' errors;
        // nothing the engine calls reaches them.
        let src = "impl System {\n\
                   pub fn run(self) { match self.try_run() { Ok(m) => m, Err(e) => panic!(\"{e}\") } }\n\
                   pub fn step(&mut self) { self.try_step().expect(\"deadlock\") }\n\
                   pub fn try_run(self) -> Result<(), E> { Ok(()) }\n\
                   pub fn try_step(&mut self) -> Result<bool, E> { Ok(false) } }";
        assert_eq!(reachable(src), Vec::<Violation>::new());
    }

    #[test]
    fn test_code_is_neither_root_nor_site() {
        let src = "impl System { pub fn try_step(&mut self) { helper() } }\n\
                   fn helper() {}\n\
                   #[cfg(test)] mod tests {\n\
                   fn helper() { x.unwrap() }\n\
                   #[test] fn t() { System::try_step(); y.unwrap() } }";
        assert_eq!(reachable(src), Vec::<Violation>::new());
    }

    #[test]
    fn analyze_is_order_invariant() {
        let a = file_facts(
            "crates/sim/src/a.rs",
            "sim",
            "impl System { pub fn try_run(&mut self) { helper() } }",
        );
        let b = file_facts("crates/sim/src/b.rs", "sim", "fn helper() { x.unwrap() }");
        let ab = analyze(&[a.clone(), b.clone()]);
        let ba = analyze(&[b, a]);
        assert_eq!(ab, ba);
        assert!(ab.iter().any(|v| v.rule == Rule::PanicReachability));
    }
}
