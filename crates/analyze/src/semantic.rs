//! Per-file semantic fact extraction and the interprocedural link stage.
//!
//! The semantic rules split into two phases:
//!
//! 1. **Extraction** ([`file_facts`]) — lex + parse one file, run the
//!    lexical rules and the intra-procedural [`Rule::TokenLeak`] check,
//!    and record the interprocedural *facts*: every call site (with its
//!    conservative resolution kind), every panic site, and every
//!    nondeterminism source. Facts depend only on the file's own text.
//! 2. **Link** ([`link`]) — build the workspace symbol table and call
//!    graph from all files' facts and run the reachability rules:
//!    [`Rule::PanicReachability`] (shortest call chain from
//!    `System::run`/`step` to each panic site) and [`Rule::NondetTaint`]
//!    (nondeterminism sources transitively callable from metrics/report
//!    emission).
//!
//! Directive suppression (`fpb-lint: allow(...)`) happens at extraction
//! time: a suppressed panic site or nondet source is simply not recorded,
//! so the link stage needs no access to comments.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::cfg;
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::parser::{enclosing_fn, parse_items, FnItem};
use crate::rules::{self, Directives, Rule, Violation};
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

/// A panic site or nondeterminism source inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFact {
    /// 1-based source line.
    pub line: u32,
    /// What it is (`` `.unwrap()` ``, `` `Instant` wall-clock read ``).
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
    /// Unsuppressed panic sites in the body.
    pub panic_sites: Vec<SiteFact>,
    /// Unsuppressed nondeterminism sources in the body.
    pub nondet_sources: Vec<SiteFact>,
}

/// The analysis result for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Repo-relative path.
    pub rel_path: String,
    /// Crate key (see [`Rule::applies_to`]).
    pub crate_key: String,
    /// Per-file violations: every lexical rule plus [`Rule::TokenLeak`].
    pub violations: Vec<Violation>,
    /// Function facts for the link stage.
    pub fns: Vec<FnFact>,
}

/// Ledger functions whose return value carries granted power tokens and
/// must therefore be released, returned, stored, or propagated on every
/// exit path.
const ACQUIRE_FNS: [&str; 2] = ["try_grant_flat", "try_grant_chips"];

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "match", "for", "loop", "return", "let", "as", "move", "ref", "mut", "break",
    "in", "await",
];

/// Extracts one file's facts: lexical + intra-procedural violations and
/// the call/panic/nondet records the link stage consumes.
pub fn file_facts(rel_path: &str, crate_key: &str, src: &str) -> FileFacts {
    let lexed = lex(src);
    let items = parse_items(&lexed);
    let allow = Directives::parse(&lexed.comments);
    let test_file = rules::is_test_file(rel_path);
    let test_lines = rules::test_region_lines(&lexed.tokens);

    let mut violations = rules::scan_lexed(rel_path, crate_key, &lexed);
    violations.extend(token_leaks(
        rel_path, crate_key, &lexed, &items, &allow, test_file,
    ));

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
            nondet_sources: Vec::new(),
        })
        .collect();

    extract_fn_facts(&lexed, &items, &mut fns, &allow, test_file, &test_lines);

    FileFacts {
        rel_path: rel_path.to_string(),
        crate_key: crate_key.to_string(),
        violations,
        fns,
    }
}

/// One pass over the token stream filling each function's calls, panic
/// sites, and nondeterminism sources. Test functions keep empty facts:
/// they are never roots, and edges into them resolve to fns whose own
/// facts are empty anyway.
fn extract_fn_facts(
    lexed: &Lexed,
    items: &[FnItem],
    fns: &mut [FnFact],
    allow: &Directives,
    test_file: bool,
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
        let in_test = test_file || fns[owner].is_test || test_lines.contains(&t.line);
        if in_test {
            continue;
        }
        let name = t.text.as_str();

        // Call sites: `ident(` that is not a definition or keyword.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALL_KEYWORDS.contains(&name)
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            let kind = if i > 0 && toks[i - 1].is_punct('.') {
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

        // Panic sites (mirrors the lexical panic_freedom patterns, but
        // suppressed by the panic_reachability directive).
        let panic_what = if (name == "unwrap" || name == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            Some(format!("`.{name}()`"))
        } else if rules::PANIC_MACROS.contains(&name)
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            Some(format!("`{name}!`"))
        } else {
            None
        };
        if let Some(what) = panic_what {
            if !allow.allows(Rule::PanicReachability, t.line) {
                fns[owner].panic_sites.push(SiteFact { line: t.line, what });
            }
        }

        // Nondeterminism sources.
        let nondet_what = match name {
            "Instant" | "SystemTime" => Some(format!("`{name}` wall-clock read")),
            "HashMap" | "HashSet" => Some(format!("`{name}` iteration order")),
            "ThreadId" => Some("thread id".to_string()),
            "env" => {
                let path_use = i > 0
                    && toks[i - 1].is_punct(':')
                    && !toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                let call_use = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("var"));
                (path_use || call_use).then(|| "`std::env` read".to_string())
            }
            "thread" => (toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("current")))
            .then(|| "thread id".to_string()),
            _ => None,
        };
        if let Some(what) = nondet_what {
            if !allow.allows(Rule::NondetTaint, t.line) {
                fns[owner]
                    .nondet_sources
                    .push(SiteFact { line: t.line, what });
            }
        }
    }
}

/// The intra-procedural [`Rule::TokenLeak`] check: every acquisition
/// call site is classified, and bound grants get a must-consume walk
/// over the CFG sketch.
fn token_leaks(
    rel_path: &str,
    crate_key: &str,
    lexed: &Lexed,
    items: &[FnItem],
    allow: &Directives,
    test_file: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if !Rule::TokenLeak.applies_to(crate_key) || test_file {
        return out;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !ACQUIRE_FNS.contains(&t.text.as_str())
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || (i > 0 && toks[i - 1].is_ident("fn"))
        {
            continue;
        }
        let Some(owner) = enclosing_fn(items, i) else {
            continue;
        };
        if items[owner].is_test || allow.allows(Rule::TokenLeak, t.line) {
            continue;
        }
        if let Some(msg) = acquisition_leak(toks, &items[owner], i) {
            out.push(Violation {
                rule: Rule::TokenLeak,
                file: rel_path.to_string(),
                line: t.line,
                message: format!("`{}` grant {msg}", t.text),
            });
        }
    }
    out
}

/// Classifies one acquisition call at token `i` inside `item`'s body.
/// Returns a leak description, or `None` when every exit path consumes
/// the grant (or the value demonstrably escapes: returned, stored,
/// passed as an argument, chained, or propagated).
fn acquisition_leak(toks: &[Token], item: &FnItem, i: usize) -> Option<String> {
    let (body_open, body_close) = item.body;
    let stmts = cfg::parse_block(toks, body_open + 1, body_close);
    let block = cfg::block_containing(&stmts, i);
    let plain = block.iter().find_map(|s| match s {
        cfg::Stmt::Plain(a, b) if *a <= i && i < *b => Some((*a, *b)),
        _ => None,
    });
    let (s, e) = plain?;

    // Control-flow headers (`if let`, `while let`, `match` scrutinees)
    // bind the grant inside the block that follows.
    if matches!(toks[s].text.as_str(), "if" | "while" | "match" | "for")
        && toks[s].kind == TokKind::Ident
    {
        return header_acquisition_leak(toks, item, s, i);
    }

    if toks[s].is_ident("let") {
        let Some(var) = let_binding_var(toks, s + 1, i) else {
            // `let _ = acq()` discards; other irrefutable patterns we
            // cannot name are given the benefit of the doubt.
            if toks.get(s + 1).is_some_and(|t| t.is_ident("_")) {
                return Some("is discarded by `let _`".to_string());
            }
            return None;
        };
        // For `let PAT = init else { diverge };` the bound variable does
        // not exist on the diverging path — skip past the else arm.
        let from = if toks.get(e).is_some_and(|t| t.is_ident("else"))
            && toks.get(e + 1).is_some_and(|t| t.is_punct('{'))
        {
            cfg::match_group(toks, e + 1, body_close, '{', '}')
        } else {
            e
        };
        return render_leaks(cfg::find_leaks(toks, block, &var, from, 0), &var);
    }
    if toks[s].is_ident("return") {
        return None; // returned to the caller — theirs now
    }
    // Trailing expression of a block: the value flows outward.
    if toks.get(e).is_none_or(|t| t.is_punct('}')) {
        return None;
    }
    // Argument / struct-field / closure-capture position.
    if group_nest(toks, s, i) > 0 {
        return None;
    }
    // Assignment target somewhere before the call (`self.hold = acq();`).
    if (s..i).any(|k| {
        toks[k].is_punct('=')
            && !toks.get(k + 1).is_some_and(|n| n.is_punct('='))
            && !toks
                .get(k.wrapping_sub(1))
                .is_some_and(|p| matches!(p.kind, TokKind::Punct(c) if "<>=!+-*/%&|^".contains(c)))
    }) {
        return None;
    }
    // Chained (`acq().map(...)`) or propagated (`acq()?`).
    let close = cfg::match_group(toks, i + 1, e, '(', ')');
    if toks
        .get(close + 1)
        .is_some_and(|n| n.is_punct('.') || n.is_punct('?'))
    {
        return None;
    }
    Some("result is discarded (never bound, stored, or returned)".to_string())
}

/// `if let`/`while let`/`match` acquisition: the grant binds inside the
/// block that follows the header starting at `s`, which must consume it
/// on every path.
fn header_acquisition_leak(toks: &[Token], item: &FnItem, s: usize, i: usize) -> Option<String> {
    let (_, body_close) = item.body;
    if toks[s].is_ident("match") {
        let open = cfg::find_body_open(toks, i, body_close)?;
        let close = cfg::match_group(toks, open, body_close, '{', '}');
        for ((ps, pe), arm) in cfg::split_match_arms(toks, open, close) {
            let Some(var) = pattern_binding_var(toks, ps, pe) else {
                continue; // no binding (e.g. `None =>`) — nothing held
            };
            if let Some(msg) = render_leaks(cfg::find_leaks(toks, &arm, &var, 0, 0), &var) {
                return Some(msg);
            }
        }
        return None;
    }
    // `if let` / `while let`: the pattern var binds in the first arm.
    let let_pos = (s..i).find(|&k| toks[k].is_ident("let"))?;
    let var = let_binding_var(toks, let_pos + 1, i)?;
    let open = cfg::find_body_open(toks, i, body_close)?;
    let close = cfg::match_group(toks, open, body_close, '{', '}');
    let arm = cfg::parse_block(toks, open + 1, close);
    render_leaks(cfg::find_leaks(toks, &arm, &var, 0, 0), &var)
}

/// Extracts the variable a `let` binds, given the token just after `let`
/// and the acquisition position as a scan bound. Handles `let [mut] g =`,
/// `let Some(g) =`, `let Ok(mut g) =`. Complex patterns return `None`.
fn let_binding_var(toks: &[Token], mut j: usize, bound: usize) -> Option<String> {
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let first = toks.get(j)?;
    if first.kind != TokKind::Ident || first.text == "_" {
        return None;
    }
    if toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
        return pattern_binding_var(toks, j, bound);
    }
    // `let g = ...` or `let g: Grant = ...`.
    let next = toks.get(j + 1)?;
    (next.is_punct('=') || next.is_punct(':')).then(|| first.text.clone())
}

/// The single identifier bound inside a `Some(...)`/`Ok(...)`-style
/// pattern in `[s, e)`, or `None` for patterns with zero or several
/// candidate bindings.
fn pattern_binding_var(toks: &[Token], s: usize, e: usize) -> Option<String> {
    let open = (s..e).find(|&k| toks[k].is_punct('('))?;
    let close = cfg::match_group(toks, open, e, '(', ')');
    let mut var = None;
    for t in &toks[open + 1..close] {
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_") {
            if var.is_some() {
                return None; // several bindings — give up, no FP
            }
            var = Some(t.text.clone());
        }
    }
    var
}

/// Paren/bracket/brace nesting depth of token `i` relative to `s`.
fn group_nest(toks: &[Token], s: usize, i: usize) -> i32 {
    let mut nest = 0i32;
    for t in &toks[s..i] {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => nest -= 1,
            _ => {}
        }
    }
    nest
}

/// Formats the walk's leaks into one violation message.
fn render_leaks(leaks: Vec<cfg::Leak>, var: &str) -> Option<String> {
    if leaks.is_empty() {
        return None;
    }
    let parts: Vec<String> = leaks
        .iter()
        .map(|l| match l.kind {
            "end of scope" => "is dropped at end of scope without release".to_string(),
            kind => format!("leaks on {kind} at line {}", l.line),
        })
        .collect();
    Some(format!("bound to `{var}` {}", parts.join("; ")))
}

/// The interprocedural link stage: reachability rules over the whole
/// workspace's facts. Input order does not matter — the symbol table
/// sorts internally and BFS tie-breaking is deterministic.
pub fn link(facts: &[FileFacts]) -> Vec<Violation> {
    let table = SymbolTable::build(facts);
    let graph = CallGraph::build(&table, facts);
    let mut out = Vec::new();

    // panic_reachability: panic sites on call chains from the engine's
    // public stepping entry points.
    let roots: Vec<FnId> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            !s.is_test
                && s.self_ty.as_deref() == Some("System")
                && matches!(s.name.as_str(), "run" | "step")
        })
        .map(|(id, _)| id)
        .collect();
    if !roots.is_empty() {
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
    }

    // nondet_taint: nondeterminism sources transitively callable from
    // metrics/report emission, the event folds (metrics, timeline), the
    // inspect recorder / event wire codec, or the record codec that
    // writes every durable file — a nondeterministic value reaching the
    // event log would break record→replay byte-identity. The codec is
    // listed by file because the name-based call graph gives path calls
    // such as `store::read(..)` no edge.
    let sinks: Vec<FnId> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            !s.is_test
                && Rule::NondetTaint.applies_to(&s.crate_key)
                && (s.self_ty.as_deref() == Some("Metrics")
                    || s.self_ty.as_deref() == Some("LifecycleEvent")
                    || s.self_ty.as_deref() == Some("EventLogWriter")
                    || s.file.ends_with("metrics.rs")
                    || s.file.ends_with("timeline.rs")
                    || s.file.ends_with("report.rs")
                    || s.file.ends_with("inspect/recorder.rs")
                    || s.file.ends_with("inspect/event.rs")
                    || s.file.ends_with("sim/src/store.rs"))
        })
        .map(|(id, _)| id)
        .collect();
    if !sinks.is_empty() {
        let parent = graph.shortest_paths(&sinks);
        for (id, sym) in table.fns.iter().enumerate() {
            if parent[id].is_none() || sym.is_test || !Rule::NondetTaint.applies_to(&sym.crate_key)
            {
                continue;
            }
            let Some(fact) = table.fact(facts, id) else {
                continue;
            };
            for site in &fact.nondet_sources {
                out.push(Violation {
                    rule: Rule::NondetTaint,
                    file: sym.file.clone(),
                    line: site.line,
                    message: format!(
                        "{} feeds metrics/report output via {}",
                        site.what,
                        graph.chain(&table, &parent, id)
                    ),
                });
            }
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

    fn findings(src: &str) -> Vec<(Rule, u32)> {
        scan_semantic("crates/sim/src/x.rs", "sim", src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    fn leaks(src: &str) -> Vec<u32> {
        findings(src)
            .into_iter()
            .filter(|(r, _)| *r == Rule::TokenLeak)
            .map(|(_, l)| l)
            .collect()
    }

    #[test]
    fn leaked_grant_is_flagged_with_exit_kind() {
        let src = "impl Mgr {\n\
                   fn bad(&mut self) -> Result<(), E> {\n\
                       let g = self.ledger.try_grant_flat(need);\n\
                       self.audit()?;\n\
                       self.ledger.release(&g);\n\
                       Ok(())\n\
                   } }";
        assert_eq!(leaks(src), vec![3]);
    }

    #[test]
    fn released_on_all_paths_is_clean() {
        let src = "impl Mgr {\n\
                   fn good(&mut self) {\n\
                       let g = self.ledger.try_grant_flat(need);\n\
                       if self.gate { self.hold(g); } else { self.ledger.release(&g); }\n\
                   } }";
        assert_eq!(leaks(src), Vec::<u32>::new());
    }

    #[test]
    fn discarded_result_is_flagged() {
        let src = "fn f(l: &mut Ledger) { l.try_grant_flat(d); }";
        assert_eq!(leaks(src), vec![1]);
    }

    #[test]
    fn returned_stored_and_argument_positions_are_clean() {
        let src = "impl M {\n\
                   fn a(&mut self) -> Option<Grant> { self.ledger.try_grant_flat(d) }\n\
                   fn b(&mut self) { self.hold = self.ledger.try_grant_flat(d); }\n\
                   fn c(&mut self) { self.stash(self.ledger.try_grant_flat(d)); }\n\
                   fn d(&mut self) -> A { A { g: self.ledger.try_grant_chips(&d) } }\n\
                   }";
        assert_eq!(leaks(src), Vec::<u32>::new());
    }

    #[test]
    fn if_let_acquisition_checks_the_arm() {
        let bad = "impl M { fn f(&mut self) {\n\
                   if let Some(g) = self.ledger.try_grant_flat(d) {\n\
                       if self.cold { return; }\n\
                       self.ledger.release(&g);\n\
                   } } }";
        assert_eq!(leaks(bad), vec![2]);
        let good = "impl M { fn f(&mut self) {\n\
                    if let Some(g) = self.ledger.try_grant_flat(d) {\n\
                        self.ledger.release(&g);\n\
                    } } }";
        assert_eq!(leaks(good), Vec::<u32>::new());
    }

    #[test]
    fn match_acquisition_checks_binding_arms() {
        let src = "impl M { fn f(&mut self) {\n\
                   match self.ledger.try_grant_chips(&d) {\n\
                       Some(g) => { self.log(); }\n\
                       None => {}\n\
                   } } }";
        assert_eq!(leaks(src), vec![2]);
    }

    #[test]
    fn let_else_divergence_does_not_hold_the_grant() {
        let src = "impl M { fn f(&mut self) -> Result<(), E> {\n\
                   let Some(g) = self.ledger.try_grant_flat(d) else { return Err(E); };\n\
                   self.ledger.release(&g);\n\
                   Ok(())\n\
                   } }";
        assert_eq!(leaks(src), Vec::<u32>::new());
    }

    #[test]
    fn definition_site_and_tests_are_exempt() {
        let src = "impl Ledger { pub fn try_grant_flat(&mut self, t: Tokens) -> Option<Grant> {\n\
                   None } }\n\
                   #[cfg(test)] mod tests { #[test] fn t(l: &mut Ledger) {\n\
                   l.try_grant_flat(d); } }";
        assert_eq!(leaks(src), Vec::<u32>::new());
    }

    #[test]
    fn panic_reachability_reports_shortest_chain() {
        let src = "impl System {\n\
                   pub fn run(&mut self) { self.tick() }\n\
                   fn tick(&mut self) { deep() } }\n\
                   fn deep() { inner.unwrap() }\n\
                   fn unrelated() { x.unwrap() }";
        let found = scan_semantic("crates/sim/src/x.rs", "sim", src);
        let reach: Vec<&Violation> = found
            .iter()
            .filter(|v| v.rule == Rule::PanicReachability)
            .collect();
        assert_eq!(reach.len(), 1, "only the reachable site: {found:?}");
        assert_eq!(reach[0].line, 4);
        assert!(
            reach[0]
                .message
                .contains("System::run → System::tick → deep"),
            "chain missing: {}",
            reach[0].message
        );
    }

    #[test]
    fn nondet_taint_flags_sources_feeding_metrics() {
        let src = "impl Metrics {\n\
                   pub fn render(&self) -> String { stamp() } }\n\
                   fn stamp() -> String { let t = Instant::now(); fmt(t) }\n\
                   fn free_floating() { let t = Instant::now(); }";
        let found = scan_semantic("crates/sim/src/x.rs", "sim", src);
        let taint: Vec<&Violation> = found
            .iter()
            .filter(|v| v.rule == Rule::NondetTaint)
            .collect();
        assert_eq!(taint.len(), 1, "only the sink-reachable source: {found:?}");
        assert_eq!(taint[0].line, 3);
        assert!(taint[0].message.contains("Metrics::render → stamp"));
    }

    #[test]
    fn nondet_taint_covers_inspect_recorder_and_event_codec() {
        // A nondeterministic value feeding the event wire codec or the
        // recorder would break record→replay byte-identity, so both are
        // sinks like Metrics.
        let src = "impl LifecycleEvent {\n\
                   pub fn encode(&self) -> String { tag() } }\n\
                   fn tag() -> String { let t = Instant::now(); fmt(t) }";
        let found = scan_semantic("crates/sim/src/x.rs", "sim", src);
        let taint: Vec<&Violation> = found
            .iter()
            .filter(|v| v.rule == Rule::NondetTaint)
            .collect();
        assert_eq!(taint.len(), 1, "{found:?}");
        assert!(taint[0].message.contains("LifecycleEvent::encode → tag"));

        // Any function in the recorder file, or in the record codec that
        // writes the event log's bytes, is a sink, whatever its type.
        let src = "pub fn frame(body: &str) -> String { salt() }\n\
                   fn salt() -> String { let t = Instant::now(); fmt(t) }";
        for file in [
            "crates/sim/src/inspect/recorder.rs",
            "crates/sim/src/store.rs",
        ] {
            let found = scan_semantic(file, "sim", src);
            assert!(
                found.iter().any(|v| v.rule == Rule::NondetTaint),
                "{file} must be a taint sink: {found:?}"
            );
        }
        // A source read inside the codec itself is flagged too.
        let src = "pub fn push_frame(out: &mut String, body: &str) {\n\
                   let t = SystemTime::now(); out.push_str(body) }";
        let found = scan_semantic("crates/sim/src/store.rs", "sim", src);
        let taint: Vec<&Violation> = found
            .iter()
            .filter(|v| v.rule == Rule::NondetTaint)
            .collect();
        assert_eq!(taint.len(), 1, "{found:?}");
        assert_eq!(taint[0].line, 2);
        // Outside the sink files the same function feeds nothing.
        let found = scan_semantic("crates/sim/src/x.rs", "sim", src);
        assert!(
            !found.iter().any(|v| v.rule == Rule::NondetTaint),
            "{found:?}"
        );
    }

    #[test]
    fn directives_suppress_semantic_sites() {
        let src = "impl System { pub fn run(&mut self) {\n\
                   // fpb-lint: allow(panic_freedom, panic_reachability) — documented abort\n\
                   panic!(\"boom\")\n\
                   } }";
        let found = findings(src);
        assert!(
            !found.iter().any(|(r, _)| *r == Rule::PanicReachability),
            "directive must suppress the site: {found:?}"
        );
    }

    #[test]
    fn atomic_ordering_requires_order_comment() {
        let src = "fn f(a: &AtomicU64) {\n\
                   let x = a.load(Ordering::Relaxed);\n\
                   // ORDER: independent counter, no cross-thread ordering\n\
                   let y = a.load(Ordering::Relaxed);\n\
                   let z = a.load(Ordering::SeqCst);\n\
                   }";
        let found = findings(src);
        assert_eq!(
            found
                .iter()
                .filter(|(r, _)| *r == Rule::AtomicOrdering)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn analyze_is_order_invariant() {
        let a = file_facts(
            "crates/sim/src/a.rs",
            "sim",
            "impl System { pub fn run(&mut self) { helper() } }",
        );
        let b = file_facts("crates/sim/src/b.rs", "sim", "fn helper() { x.unwrap() }");
        let ab = analyze(&[a.clone(), b.clone()]);
        let ba = analyze(&[b, a]);
        assert_eq!(ab, ba);
        assert!(ab.iter().any(|v| v.rule == Rule::PanicReachability));
    }
}
