//! The lint rule catalog and the per-file scanning pass.
//!
//! Every rule guards an invariant neither the compiler nor clippy can see
//! but FPB's results depend on:
//!
//! * [`Rule::PanicFreedom`] — the engine/ledger/manager hot paths must
//!   degrade gracefully (PR 1's contract), so `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!` are banned outside test code.
//! * [`Rule::TruncatingCast`] — an `as u32`-style narrowing cast on a
//!   token/cycle/energy quantity silently loses power accounting.
//! * [`Rule::FloatEq`] — exact `==` against a float literal on accounting
//!   values is almost always a latent epsilon bug.
//! * [`Rule::SchemeIsolation`] — scheme policy knobs (write cancellation,
//!   pausing, truncation, PreSET, controller feedback) may only be
//!   mutated inside the scheme module; engine stages must consume them
//!   through the `Scheme` trait hooks.
//!
//! Intentional exceptions are annotated in source with a directive
//! comment: `fpb-lint: allow(rule_name)` suppresses the named rule(s) on
//! the directive's line and the next line; `fpb-lint: allow-file(rule_name)`
//! suppresses them for the whole file. Any other finding fails the scan.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Comment, TokKind, Token};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`-family outside `#[cfg(test)]`.
    PanicFreedom,
    /// Narrowing `as` cast on a power-accounting quantity.
    TruncatingCast,
    /// `==`/`!=` against a float literal.
    FloatEq,
    /// Scheme policy field mutated outside the scheme module.
    SchemeIsolation,
    /// A power-token acquisition (`try_grant_flat`, `try_grant_chips`) not
    /// released, returned, or propagated on every exit path (semantic).
    TokenLeak,
    /// A panic site transitively reachable from `System::run`/`step`
    /// through the call graph (semantic).
    PanicReachability,
    /// A nondeterminism source (wall clock, env, hash iteration, thread
    /// IDs) transitively reachable from metrics/report emission (semantic).
    NondetTaint,
    /// `Ordering::Relaxed` on a cross-thread coordination atomic without
    /// an adjacent `// ORDER:` justification (semantic).
    AtomicOrdering,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::PanicFreedom,
        Rule::TruncatingCast,
        Rule::FloatEq,
        Rule::SchemeIsolation,
        Rule::TokenLeak,
        Rule::PanicReachability,
        Rule::NondetTaint,
        Rule::AtomicOrdering,
    ];

    /// Stable machine-readable name (used in the reports and
    /// `fpb-lint:` directives).
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "panic_freedom",
            Rule::TruncatingCast => "truncating_cast",
            Rule::FloatEq => "float_eq",
            Rule::SchemeIsolation => "scheme_isolation",
            Rule::TokenLeak => "token_leak",
            Rule::PanicReachability => "panic_reachability",
            Rule::NondetTaint => "nondet_taint",
            Rule::AtomicOrdering => "atomic_ordering",
        }
    }

    /// Parses a rule name (as written in a directive).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale, shown in diagnostics.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "hot paths must degrade gracefully, not panic",
            Rule::TruncatingCast => "narrowing cast silently loses power accounting",
            Rule::FloatEq => "exact float equality on accounting values is an epsilon bug",
            Rule::SchemeIsolation => {
                "scheme policy is composed in the scheme module; stages consume it via hooks"
            }
            Rule::TokenLeak => {
                "every granted power token must return to the ledger on every exit path"
            }
            Rule::PanicReachability => {
                "a panic reachable from System::run/step can abort a simulation mid-write"
            }
            Rule::NondetTaint => {
                "a nondeterminism source feeding metrics/report output breaks bit-equality gates"
            }
            Rule::AtomicOrdering => {
                "Relaxed on a coordination atomic needs an `// ORDER:` proof it cannot reorder"
            }
        }
    }

    /// Whether this rule applies to source in the given crate.
    ///
    /// `crate_key` is the directory name under `crates/` (`core`, `sim`,
    /// `pcm`, ...) or `fpb` for the workspace root package.
    pub fn applies_to(self, crate_key: &str) -> bool {
        match self {
            // The engine/ledger/manager and device-model hot paths. Grants
            // are issued by fpb-core's ledger and consumed in the simulation
            // crates; panic/taint propagation follows the same scope.
            Rule::PanicFreedom | Rule::TokenLeak | Rule::PanicReachability | Rule::NondetTaint => {
                matches!(crate_key, "core" | "sim" | "pcm")
            }
            // Accounting quantities are defined in fpb-types and consumed
            // in the simulation crates.
            Rule::TruncatingCast | Rule::FloatEq => {
                matches!(crate_key, "core" | "sim" | "pcm" | "types")
            }
            // The Scheme trait and its composable setup live in fpb-sim.
            Rule::SchemeIsolation => crate_key == "sim",
            // The cross-thread coordination atomics live in fpb-sim's
            // exec/supervise modules.
            Rule::AtomicOrdering => crate_key == "sim",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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

/// Identifiers whose presence on a line marks it as handling power,
/// energy, or time accounting (the [`Rule::TruncatingCast`] scope).
const DOMAIN_WORDS: [&str; 7] = [
    "token", "millis", "cycle", "energy", "budget", "cells", "watt",
];

/// Narrowing integer cast targets. Widening (`as u64`) and float casts
/// carry explicit rounding intent (`.floor()`, `.ceil()`) and are left to
/// review.
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Macros banned by [`Rule::PanicFreedom`] (asserts stay allowed: they
/// state contracts, and `debug_assert!` vanishes in release builds).
pub(crate) const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Scheme policy fields ([`Rule::SchemeIsolation`]): assigning to one of
/// these through a field access outside the scheme module bypasses the
/// `Scheme` trait composition.
const SCHEME_FIELDS: [&str; 6] = [
    "cancellation",
    "pausing",
    "truncation_ecc",
    "pre_write_read",
    "preset",
    "worst_case_hold",
];

/// Scans one file's source text.
///
/// * `file` — repo-relative path used in diagnostics.
/// * `crate_key` — which crate the file belongs to (see
///   [`Rule::applies_to`]).
///
/// Test code is exempt from every rule: regions under
/// `#[cfg(test)]`/`#[test]`, and whole files under `tests/`, `benches/`,
/// `examples/`, or named `proptests.rs`.
pub fn scan_source(file: &str, crate_key: &str, src: &str) -> Vec<Violation> {
    scan_lexed(file, crate_key, &lex(src))
}

/// Token-stream form of [`scan_source`], for callers that already lexed
/// the file (the semantic fact extractor shares one lex per file).
pub(crate) fn scan_lexed(
    file: &str,
    crate_key: &str,
    lexed: &crate::lexer::Lexed,
) -> Vec<Violation> {
    let test_file = is_test_file(file);
    let scheme_module = is_scheme_module(file);
    let test_lines = test_region_lines(&lexed.tokens);
    let allow = Directives::parse(&lexed.comments);
    let domain_lines = domain_word_lines(&lexed.tokens);
    let order_lines: BTreeSet<u32> = lexed
        .comments
        .iter()
        .filter(|c| c.text.contains("ORDER:"))
        .flat_map(|c| c.start_line..=c.end_line)
        .collect();

    let mut out = Vec::new();
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let in_test = test_file || test_lines.contains(&t.line);
        let emit = |rule: Rule, line: u32, message: String, out: &mut Vec<Violation>| {
            if rule.applies_to(crate_key) && !allow.allows(rule, line) {
                out.push(Violation {
                    rule,
                    file: file.to_string(),
                    line,
                    message,
                });
            }
        };
        if t.kind != TokKind::Ident {
            // Float equality: `== 0.5` / `0.5 ==` (and `!=`).
            if let TokKind::Punct(c) = t.kind {
                if (c == '=' || c == '!')
                    && !in_test
                    && is_eq_operator(toks, i)
                    && (is_float_num(toks, i.wrapping_sub(1)) || is_float_num(toks, i + 2))
                {
                    emit(
                        Rule::FloatEq,
                        t.line,
                        "exact equality against a float literal".to_string(),
                        &mut out,
                    );
                }
            }
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" if !in_test => {
                let is_method_call = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_method_call {
                    emit(
                        Rule::PanicFreedom,
                        t.line,
                        format!("`.{}()` can panic; use a typed error path", t.text),
                        &mut out,
                    );
                }
            }
            name if PANIC_MACROS.contains(&name)
                && !in_test
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                emit(
                    Rule::PanicFreedom,
                    t.line,
                    format!("`{name}!` in non-test code"),
                    &mut out,
                );
            }
            "as" if !in_test => {
                if let Some(next) = toks.get(i + 1) {
                    if next.kind == TokKind::Ident
                        && NARROW_TARGETS.contains(&next.text.as_str())
                        && domain_lines.contains(&t.line)
                    {
                        emit(
                            Rule::TruncatingCast,
                            t.line,
                            format!("narrowing `as {}` on an accounting value", next.text),
                            &mut out,
                        );
                    }
                }
            }
            name if SCHEME_FIELDS.contains(&name)
                && !in_test
                && !scheme_module
                && is_field_assignment(toks, i) =>
            {
                emit(
                    Rule::SchemeIsolation,
                    t.line,
                    format!("scheme policy field `{name}` mutated outside the scheme module"),
                    &mut out,
                );
            }
            "Relaxed" if !in_test => {
                // `Ordering::Relaxed` on a coordination atomic: fine for
                // counters, but only with an adjacent `// ORDER:` comment
                // proving no cross-thread ordering depends on it.
                let qualified = i >= 2
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks
                        .get(i.wrapping_sub(3))
                        .is_some_and(|t| t.is_ident("Ordering"));
                let documented =
                    (t.line.saturating_sub(3)..=t.line).any(|l| order_lines.contains(&l));
                if qualified && !documented {
                    emit(
                        Rule::AtomicOrdering,
                        t.line,
                        "`Ordering::Relaxed` without an `// ORDER:` justification".to_string(),
                        &mut out,
                    );
                }
            }
            _ => {}
        }
    }
    out
}

/// True if the file belongs to the scheme module (the one place allowed
/// to compose and mutate scheme policy).
fn is_scheme_module(file: &str) -> bool {
    let normalized = file.replace('\\', "/");
    normalized.contains("/scheme/") || normalized.ends_with("/scheme.rs")
}

/// True when identifier token `i` is the field of a plain or compound
/// assignment: preceded by `.`, followed by `=` (or `op=`) but not `==`.
fn is_field_assignment(toks: &[Token], i: usize) -> bool {
    if i == 0 || !toks[i - 1].is_punct('.') {
        return false;
    }
    let mut j = i + 1;
    // Compound assignment: one operator punct before the `=`.
    if toks
        .get(j)
        .is_some_and(|t| matches!(t.kind, TokKind::Punct(c) if "+-*/%&|^".contains(c)))
    {
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_punct('='))
        && !toks.get(j + 1).is_some_and(|t| t.is_punct('='))
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

/// Returns true when token `i` starts a `==` or `!=` operator (two
/// adjacent `=`, or `!` followed by `=`, not part of `<=`, `>=`, `=>`,
/// or a compound assignment).
fn is_eq_operator(toks: &[Token], i: usize) -> bool {
    let Some(t) = toks.get(i) else { return false };
    let Some(n) = toks.get(i + 1) else {
        return false;
    };
    match t.kind {
        TokKind::Punct('=') => {
            // `==`, not `<=`/`>=`/`+=`/... (previous punct would pair) and
            // not `===`-like runs (Rust has none).
            n.is_punct('=')
                && !toks.get(i.wrapping_sub(1)).is_some_and(
                    |p| matches!(p.kind, TokKind::Punct(c) if "<>=+-*/%&|^!".contains(c)),
                )
        }
        TokKind::Punct('!') => n.is_punct('='),
        _ => false,
    }
}

fn is_float_num(toks: &[Token], i: usize) -> bool {
    toks.get(i)
        .is_some_and(|t| matches!(t.kind, TokKind::Num { float: true }))
}

/// Lines whose tokens mention a power-accounting identifier.
fn domain_word_lines(toks: &[Token]) -> BTreeSet<u32> {
    toks.iter()
        .filter(|t| t.kind == TokKind::Ident)
        .filter(|t| {
            let lower = t.text.to_lowercase();
            DOMAIN_WORDS.iter().any(|w| lower.contains(w))
        })
        .map(|t| t.line)
        .collect()
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

/// Parsed `fpb-lint:` allow directives for one file.
#[derive(Debug, Default)]
pub(crate) struct Directives {
    /// Rules suppressed for the whole file.
    file_wide: BTreeSet<Rule>,
    /// Rule → lines on which it is suppressed.
    lines: BTreeMap<Rule, BTreeSet<u32>>,
    /// `(line, name)` of every directive argument that names no rule.
    pub(crate) unknown: Vec<(u32, String)>,
}

impl Directives {
    pub(crate) fn parse(comments: &[Comment]) -> Self {
        let mut d = Directives::default();
        for c in comments {
            // Doc comments (`///`, `//!`, `/** */`, `/*! */`) may quote a
            // directive; only plain comments are directives.
            if c.text.starts_with(['/', '!', '*']) {
                continue;
            }
            let Some(idx) = c.text.find("fpb-lint:") else {
                continue;
            };
            let rest = &c.text[idx + "fpb-lint:".len()..];
            let (file_wide, args) = if let Some(args) = extract_args(rest, "allow-file") {
                (true, args)
            } else if let Some(args) = extract_args(rest, "allow") {
                (false, args)
            } else {
                continue;
            };
            for name in args.split(',') {
                let Some(rule) = Rule::from_name(name.trim()) else {
                    d.unknown.push((c.start_line, name.trim().to_string()));
                    continue;
                };
                if file_wide {
                    d.file_wide.insert(rule);
                } else {
                    // The directive covers its own line(s) and the next.
                    d.lines
                        .entry(rule)
                        .or_default()
                        .extend(c.start_line..=c.end_line + 1);
                }
            }
        }
        d
    }

    pub(crate) fn allows(&self, rule: Rule, line: u32) -> bool {
        self.file_wide.contains(&rule) || self.lines.get(&rule).is_some_and(|s| s.contains(&line))
    }
}

/// Extracts `args` from `verb(args)` at the start of `rest` (after
/// optional whitespace), or `None` if `rest` doesn't start with `verb(`.
fn extract_args<'a>(rest: &'a str, verb: &str) -> Option<&'a str> {
    let rest = rest.trim_start();
    let body = rest.strip_prefix(verb)?;
    let body = body.trim_start();
    let body = body.strip_prefix('(')?;
    // `allow` must not match `allow-file(`.
    body.split(')').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_found(file: &str, crate_key: &str, src: &str) -> Vec<(Rule, u32)> {
        scan_source(file, crate_key, src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn unwrap_flagged_only_as_method_call() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::PanicFreedom, 2)]
        );
        // `unwrap_or` and the bare word in a string are not calls.
        let src = "fn f() { x.unwrap_or(3); let s = \"unwrap()\"; }";
        assert!(rules_found("crates/core/src/x.rs", "core", src).is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let src = "fn f() { panic!(\"boom\"); unreachable!() }";
        let found = rules_found("crates/sim/src/x.rs", "sim", src);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|(r, _)| *r == Rule::PanicFreedom));
        // `should_panic` attribute or a fn named panic_free: not flagged.
        let src = "#[should_panic(expected = \"x\")] fn panic_free() {}";
        assert!(rules_found("crates/sim/src/x.rs", "sim", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn hot() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); panic!(); }\n\
                   }\n";
        assert!(rules_found("crates/core/src/x.rs", "core", src).is_empty());
        // ... but the same code outside the module is flagged.
        let src2 = "fn hot() { x.unwrap(); }";
        assert_eq!(rules_found("crates/core/src/x.rs", "core", src2).len(), 1);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nmod proptests;\nfn hot() { x.unwrap(); }";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::PanicFreedom, 3)]
        );
    }

    #[test]
    fn test_files_are_exempt() {
        let src = "fn t() { x.unwrap(); }";
        assert!(rules_found("crates/sim/tests/integ.rs", "sim", src).is_empty());
        assert!(rules_found("crates/sim/src/proptests.rs", "sim", src).is_empty());
        assert_eq!(rules_found("crates/sim/src/engine.rs", "sim", src).len(), 1);
    }

    #[test]
    fn truncating_cast_needs_domain_word() {
        let src = "fn f(t: u64) -> u32 { t as u32 }";
        assert!(rules_found("crates/core/src/x.rs", "core", src).is_empty());
        let src = "fn f(tokens: u64) -> u32 { tokens as u32 }";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::TruncatingCast, 1)]
        );
        // Widening is fine even on domain values.
        let src = "fn f(tokens: u32) -> u64 { tokens as u64 }";
        assert!(rules_found("crates/core/src/x.rs", "core", src).is_empty());
    }

    #[test]
    fn float_eq_matches_literal_comparisons() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }";
        assert_eq!(
            rules_found("crates/types/src/x.rs", "types", src),
            vec![(Rule::FloatEq, 1)]
        );
        let src = "fn f(x: f64) -> bool { 0.5 != x }";
        assert_eq!(rules_found("crates/types/src/x.rs", "types", src).len(), 1);
        // Integer equality, `<=`, and `=>` arms stay clean.
        let src = "fn f(x: u64) -> bool { x == 5 || x <= 9 }";
        assert!(rules_found("crates/types/src/x.rs", "types", src).is_empty());
    }

    #[test]
    fn allow_directives_suppress() {
        let src = "// fpb-lint: allow(panic_freedom) — documented contract\n\
                   fn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); }\n";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::PanicFreedom, 3)],
            "directive covers its own and the next line only"
        );
        let src = "// fpb-lint: allow-file(float_eq)\n\
                   fn g(x: f64) -> bool { x == 0.5 }\n\
                   fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::PanicFreedom, 3)],
            "allow-file suppresses only the named rule"
        );
        let d = Directives::parse(&lex("// fpb-lint: allow(float_eq, determinism)").comments);
        assert_eq!(d.unknown, vec![(1, "determinism".to_string())]);
    }

    #[test]
    fn doc_comments_are_not_directives() {
        let src = "/// Silence it with `// fpb-lint: allow(panic_freedom)`.\n\
                   fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::PanicFreedom, 2)]
        );
        let src = "//! `// fpb-lint: allow-file(panic_freedom)` exempts a file.\n\
                   /** fpb-lint: allow(panic_freedom) */\n\
                   fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_found("crates/core/src/x.rs", "core", src),
            vec![(Rule::PanicFreedom, 3)]
        );
    }

    #[test]
    fn doc_comment_examples_are_not_code() {
        let src = "/// ```\n/// let x = y.unwrap();\n/// ```\nfn f() {}";
        assert!(rules_found("crates/core/src/x.rs", "core", src).is_empty());
    }
}
