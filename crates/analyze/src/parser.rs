//! Item-level parser over the lexer's token stream.
//!
//! The semantic rules need one structural fact the flat token stream
//! cannot give them: *which function a token belongs to*. This parser
//! recovers exactly that — `fn` items with their enclosing `impl` type,
//! parameter-list `self` detection, and the token range of each body —
//! and deliberately nothing more. No expressions, no types, no generics:
//! like the lexer, it prefers a slightly-wrong item sketch over refusing
//! to parse, because the rules built on top (call graph, reachability,
//! taint) are conservative over-approximations anyway.
//!
//! Nested functions become their own items; tokens inside a nested body
//! are attributed to the *innermost* enclosing `fn`. Closure bodies stay
//! attributed to the function that defines them — which is what the
//! interprocedural rules want, since a thread body or callback executes
//! on behalf of its spawner.

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::test_region_lines;

/// One parsed `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's bare name (`run`, `try_grant_flat`).
    pub name: String,
    /// The enclosing `impl` type's head identifier (`System` for
    /// `impl<S: Scheme> System<S>`), or `None` for free functions.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, **inclusive of both braces**.
    /// `body.0` is the `{`, `body.1` the matching `}`. Functions without
    /// a body (trait method signatures) are not emitted at all.
    pub body: (usize, usize),
    /// Whether the parameter list contains a `self` receiver.
    pub has_self: bool,
    /// Whether the item lives in a test region (`#[cfg(test)]`/`#[test]`)
    /// or would be recognized as one by the lexical rules.
    pub is_test: bool,
}

/// Parses every `fn` item in a lexed file.
///
/// `impl` context is tracked through a brace-depth stack so methods of
/// nested or sequential impl blocks resolve to the right type;
/// `impl Trait for Type` attributes methods to `Type`.
pub fn parse_items(lexed: &Lexed) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let test_lines = test_region_lines(toks);
    let mut out = Vec::new();
    // Stack of (brace depth at which the impl body opened, type name).
    let mut impl_stack: Vec<(i32, String)> = Vec::new();
    let mut depth: i32 = 0;
    // A pending impl type waiting for its `{` to open.
    let mut pending_impl: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('{') => {
                if let Some(ty) = pending_impl.take() {
                    impl_stack.push((depth, ty));
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if impl_stack.last().is_some_and(|(d, _)| *d == depth) {
                    impl_stack.pop();
                }
            }
            TokKind::Punct(';') => {
                // `impl Foo;` does not exist, but a parse hiccup must not
                // leak a pending impl onto an unrelated block.
                pending_impl = None;
            }
            TokKind::Ident => match t.text.as_str() {
                "impl" => {
                    if let Some((ty, next)) = parse_impl_head(toks, i + 1) {
                        pending_impl = Some(ty);
                        i = next;
                        continue;
                    }
                }
                "fn" => {
                    if let Some((item, next)) = parse_fn(toks, i, &impl_stack, &test_lines) {
                        // Recurse into the body for nested fns by simply
                        // continuing the walk *inside* it: the walk is
                        // linear, so nested items are found naturally. The
                        // outer item's body range already spans them; the
                        // innermost-wins attribution happens in
                        // `enclosing_fn` lookups.
                        out.push(item);
                        // Continue right after the signature (inside the
                        // body) so nested fns are parsed too. The body's
                        // `{` is skipped by the jump, so count it here or
                        // the impl context pops one `}` early.
                        depth += 1;
                        i = next;
                        continue;
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    out
}

/// Given token index of the first token after `impl`, extracts the impl
/// type's head identifier and the index of the token that ends the head
/// (the `{`, `where`, or whatever stopped the scan — not consumed).
///
/// Handles `impl<'a, S: Scheme> System<S>`, `impl Trait for Type`, and
/// `impl Type`. Returns `None` when no type name is found before `{`.
fn parse_impl_head(toks: &[Token], mut i: usize) -> Option<(String, usize)> {
    // Skip the generic parameter list `<...>` if present.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angle_group(toks, i);
    }
    let mut head: Option<String> = None;
    while let Some(t) = toks.get(i) {
        match &t.kind {
            TokKind::Ident if t.text == "for" => {
                // `impl Trait for Type`: the real subject follows.
                head = None;
                i += 1;
            }
            TokKind::Ident if t.text == "where" => break,
            TokKind::Ident => {
                // Take path segments; the head identifier is the last
                // segment before generics (`core::ledger::Ledger` → the
                // final ident wins on the next iteration).
                head = Some(t.text.clone());
                i += 1;
            }
            TokKind::Punct('<') => i = skip_angle_group(toks, i),
            TokKind::Punct('{') => break,
            TokKind::Punct(':')
            | TokKind::Punct('&')
            | TokKind::Punct('(')
            | TokKind::Punct(')')
            | TokKind::Punct('*')
            | TokKind::Punct(',')
            | TokKind::Punct('\'') => i += 1,
            TokKind::Lifetime => i += 1,
            _ => break,
        }
    }
    head.map(|h| (h, i))
}

/// Skips a balanced `<...>` group starting at `i` (which must be `<`).
/// Returns the index just past the matching `>`. Comparison operators
/// cannot appear here (impl headers and fn signatures only).
fn skip_angle_group(toks: &[Token], mut i: usize) -> usize {
    let mut nest = 0i32;
    while let Some(t) = toks.get(i) {
        match t.kind {
            TokKind::Punct('<') => nest += 1,
            TokKind::Punct('>') => {
                nest -= 1;
                if nest == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses one `fn` item starting at the `fn` keyword token. Returns the
/// item and the token index *inside* the body (just past its `{`) so the
/// caller's walk discovers nested items, or `None` for bodyless
/// signatures (trait declarations, extern blocks).
fn parse_fn(
    toks: &[Token],
    fn_idx: usize,
    impl_stack: &[(i32, String)],
    test_lines: &std::collections::BTreeSet<u32>,
) -> Option<(FnItem, usize)> {
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut i = fn_idx + 2;
    // Skip generics on the fn itself.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angle_group(toks, i);
    }
    // Parameter list.
    if !toks.get(i).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let (params_end, has_self) = scan_params(toks, i);
    i = params_end;
    // Scan forward to the body `{` or a terminating `;` (signature only).
    // Return types and where clauses contain no braces; `->` and bounds
    // are skipped token-wise, angle groups as groups (so `Result<T, E>`
    // commas don't confuse anything — they couldn't anyway).
    loop {
        let t = toks.get(i)?;
        match t.kind {
            TokKind::Punct('{') => break,
            TokKind::Punct(';') => return None,
            TokKind::Punct('<') => {
                i = skip_angle_group(toks, i);
                continue;
            }
            _ => i += 1,
        }
    }
    let body_open = i;
    let body_close = match_brace(toks, body_open);
    let item = FnItem {
        name: name_tok.text.clone(),
        self_ty: impl_stack.last().map(|(_, ty)| ty.clone()),
        line: toks[fn_idx].line,
        body: (body_open, body_close),
        has_self,
        is_test: test_lines.contains(&toks[fn_idx].line),
    };
    Some((item, body_open + 1))
}

/// Scans a parameter list starting at its `(`. Returns (index past the
/// matching `)`, whether a top-level `self` receiver appears).
fn scan_params(toks: &[Token], open: usize) -> (usize, bool) {
    let mut nest = 0i32;
    let mut has_self = false;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                nest -= 1;
                if nest == 0 {
                    return (i + 1, has_self);
                }
            }
            TokKind::Ident if t.text == "self" && nest == 1 => has_self = true,
            _ => {}
        }
        i += 1;
    }
    (i, has_self)
}

/// Index of the `}` matching the `{` at `open` (or the last token when
/// unbalanced — truncated files must not panic the parser).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut nest = 0i32;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        match t.kind {
            TokKind::Punct('{') => nest += 1,
            TokKind::Punct('}') => {
                nest -= 1;
                if nest == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Finds the innermost item whose body contains token index `tok` —
/// `items` must come from [`parse_items`] on the same file. Innermost =
/// the item with the narrowest containing body range.
pub fn enclosing_fn(items: &[FnItem], tok: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (k, item) in items.iter().enumerate() {
        if item.body.0 < tok && tok < item.body.1 {
            let narrower = match best {
                None => true,
                Some(b) => {
                    let cur = items[b].body;
                    (item.body.1 - item.body.0) < (cur.1 - cur.0)
                }
            };
            if narrower {
                best = Some(k);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src))
    }

    #[test]
    fn free_and_method_items() {
        let src = "fn free(x: u8) -> u8 { x }\n\
                   impl<S: Scheme> System<S> {\n\
                       pub fn run(self) -> Metrics { self.go() }\n\
                       fn helper(&mut self, n: u64) {}\n\
                   }\n\
                   fn tail() {}\n";
        let it = items(src);
        let names: Vec<(&str, Option<&str>, bool)> = it
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, false),
                ("run", Some("System"), true),
                ("helper", Some("System"), true),
                ("tail", None, false),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let src = "impl Scheme for Fpb { fn on_admit(&self) {} }";
        let it = items(src);
        assert_eq!(it[0].self_ty.as_deref(), Some("Fpb"));
    }

    #[test]
    fn trait_signatures_without_bodies_are_skipped() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { self.sig() } }";
        let it = items(src);
        assert_eq!(it.len(), 1);
        assert_eq!(it[0].name, "with_default");
    }

    #[test]
    fn nested_fns_are_separate_items_with_innermost_attribution() {
        let src = "fn outer() {\n    fn inner() { boom() }\n    inner()\n}";
        let it = items(src);
        assert_eq!(it.len(), 2);
        let lexed = lex(src);
        let boom = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("boom"))
            .unwrap();
        let owner = enclosing_fn(&it, boom).unwrap();
        assert_eq!(it[owner].name, "inner");
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let src = "fn g<T: Ord, const N: usize>(x: [T; N]) -> Vec<T> where T: Clone { vec![] }\n\
                   fn after() {}";
        let it = items(src);
        assert_eq!(it.len(), 2);
        assert_eq!(it[1].name, "after");
    }

    #[test]
    fn test_region_items_are_marked() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}";
        let it = items(src);
        assert!(!it[0].is_test);
        assert!(it[1].is_test, "fn t inside cfg(test) must be marked");
    }

    #[test]
    fn sequential_impl_blocks_do_not_bleed() {
        let src = "impl A { fn fa(&self) {} }\nimpl B { fn fb(&self) {} }\nfn free() {}";
        let it = items(src);
        assert_eq!(it[0].self_ty.as_deref(), Some("A"));
        assert_eq!(it[1].self_ty.as_deref(), Some("B"));
        assert_eq!(it[2].self_ty, None);
    }
}
