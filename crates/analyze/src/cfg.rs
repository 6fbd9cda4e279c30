//! An intra-procedural CFG *sketch* for exit-path analysis.
//!
//! This is not a full control-flow graph: it recovers exactly the shape
//! the `token_leak` rule needs — the statement list of a function body
//! with `if`/`else` chains, `match` arms, and loops as nested blocks,
//! plus `return`/`?` exit events — and nothing more. Patterns, guards,
//! and expressions stay opaque token ranges. Closure bodies are swallowed
//! into their statement, so a `return` inside a closure is (correctly)
//! not a function exit.
//!
//! The leak analysis on top is a *must-consume* walk: starting after an
//! acquisition, every path to a function exit (early `return`, `?`
//! propagation, or scope end) must pass a consuming use of the bound
//! variable. A branch consumes only if **all** of its arms consume or
//! exit; a loop body's consumption is trusted (zero-iteration paths are a
//! deliberate false-negative — the polarity that avoids false positives).
//! `break`/`continue` are ignored for the same reason.

use crate::lexer::{TokKind, Token};

/// One statement in the CFG sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// A straight-line statement: token range `[start, end)`.
    Plain(usize, usize),
    /// An unconditional nested block (`{ ... }` or `unsafe { ... }`).
    Sub(Vec<Stmt>),
    /// An `if`/`else if`/`else` chain, a `match`, or a `let-else` arm.
    /// `exhaustive` is true when a fall-through without entering any arm
    /// is impossible (an `else` exists, or it's a `match`).
    Branch {
        /// Arms, each its own statement list.
        arms: Vec<Vec<Stmt>>,
        /// Whether every path necessarily enters some arm.
        exhaustive: bool,
    },
    /// A `loop`/`while`/`for` body.
    Loop(Vec<Stmt>),
}

/// Parses the token range strictly inside a body's braces
/// (`open + 1 .. close`) into a statement list.
pub fn parse_block(toks: &[Token], start: usize, end: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct(';') => {
                i += 1;
            }
            TokKind::Punct('{') => {
                let close = match_group(toks, i, end, '{', '}');
                out.push(Stmt::Sub(parse_block(toks, i + 1, close)));
                i = close + 1;
            }
            TokKind::Ident if t.text == "unsafe" && next_is(toks, i + 1, end, '{') => {
                let open = i + 1;
                let close = match_group(toks, open, end, '{', '}');
                out.push(Stmt::Sub(parse_block(toks, open + 1, close)));
                i = close + 1;
            }
            TokKind::Ident if t.text == "if" => {
                i = parse_if_chain(toks, i, end, &mut out);
            }
            TokKind::Ident if t.text == "match" => {
                let Some(open) = find_body_open(toks, i + 1, end) else {
                    out.push(Stmt::Plain(i, end));
                    break;
                };
                // The scrutinee is evaluated on every path into the
                // match — surface it as a Plain so consumption and exit
                // scans see it.
                out.push(Stmt::Plain(i, open));
                let close = match_group(toks, open, end, '{', '}');
                let arms = split_match_arms(toks, open, close)
                    .into_iter()
                    .map(|(_, body)| body)
                    .collect();
                out.push(Stmt::Branch {
                    arms,
                    exhaustive: true,
                });
                i = close + 1;
            }
            TokKind::Ident if matches!(t.text.as_str(), "loop" | "while" | "for") => {
                let Some(open) = find_body_open(toks, i + 1, end) else {
                    out.push(Stmt::Plain(i, end));
                    break;
                };
                // Loop headers are evaluated at least once.
                out.push(Stmt::Plain(i, open));
                let close = match_group(toks, open, end, '{', '}');
                out.push(Stmt::Loop(parse_block(toks, open + 1, close)));
                i = close + 1;
            }
            _ => {
                let (stmt, next) = parse_plain(toks, i, end, &mut out);
                if let Some(s) = stmt {
                    out.push(s);
                }
                i = next;
            }
        }
    }
    out
}

/// True when token `i` (within `end`) is the punctuation `c`.
fn next_is(toks: &[Token], i: usize, end: usize, c: char) -> bool {
    i < end && toks[i].is_punct(c)
}

/// Index of the token closing the group opened at `open` (which must be
/// the `op` character), scanning no further than `end`.
pub(crate) fn match_group(toks: &[Token], open: usize, end: usize, op: char, cl: char) -> usize {
    let mut nest = 0i32;
    let mut i = open;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct(c) if *c == op => nest += 1,
            TokKind::Punct(c) if *c == cl => {
                nest -= 1;
                if nest == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Finds the `{` opening a control-flow body, starting after the keyword.
/// Rust forbids naked struct literals in `if`/`while`/`for` headers, so
/// the first `{` outside parens/brackets opens the body.
pub(crate) fn find_body_open(toks: &[Token], mut i: usize, end: usize) -> Option<usize> {
    let mut nest = 0i32;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nest -= 1,
            TokKind::Punct('{') if nest == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses an `if … {…} else if … {…} else {…}` chain starting at the
/// `if` keyword, pushing onto `out`. Returns the index past the chain.
///
/// The first condition is evaluated on every path and is emitted as a
/// sibling Plain before the Branch; each `else if` condition is only
/// evaluated on paths that reach its arm, so it is prepended *inside*
/// that arm.
fn parse_if_chain(toks: &[Token], mut i: usize, end: usize, out: &mut Vec<Stmt>) -> usize {
    let mut arms: Vec<Vec<Stmt>> = Vec::new();
    let mut exhaustive = false;
    let mut first = true;
    loop {
        // `i` sits on `if`; find the body.
        let Some(open) = find_body_open(toks, i + 1, end) else {
            out.push(Stmt::Branch { arms, exhaustive });
            return end;
        };
        let cond = Stmt::Plain(i, open);
        let close = match_group(toks, open, end, '{', '}');
        let mut arm = parse_block(toks, open + 1, close);
        if first {
            out.push(cond);
            first = false;
        } else {
            arm.insert(0, cond);
        }
        arms.push(arm);
        i = close + 1;
        // `else if` continues the chain; `else {` terminates it.
        if i < end && toks[i].is_ident("else") {
            if i + 1 < end && toks[i + 1].is_ident("if") {
                i += 1;
                continue;
            }
            if next_is(toks, i + 1, end, '{') {
                let open = i + 1;
                let close = match_group(toks, open, end, '{', '}');
                arms.push(parse_block(toks, open + 1, close));
                exhaustive = true;
                i = close + 1;
            }
        }
        out.push(Stmt::Branch { arms, exhaustive });
        return i;
    }
}

/// Splits a match body (braces at `open`/`close`) into arms, returning
/// each arm's pattern token range `[start, arrow)` and its parsed body.
pub(crate) fn split_match_arms(
    toks: &[Token],
    open: usize,
    close: usize,
) -> Vec<((usize, usize), Vec<Stmt>)> {
    let mut arms = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Skip the pattern (and guard) to its `=>`. Patterns may contain
        // `Foo { .. }` braces, so all three nest kinds count.
        let mut nest = 0i32;
        let mut arrow = None;
        let mut k = j;
        while k < close {
            match &toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => nest += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => nest -= 1,
                TokKind::Punct('=') if nest == 0 && next_is(toks, k + 1, close, '>') => {
                    arrow = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(arrow) = arrow else { break };
        let pattern = (j, arrow);
        let body_start = arrow + 2;
        if next_is(toks, body_start, close, '{') {
            let bclose = match_group(toks, body_start, close, '{', '}');
            arms.push((pattern, parse_block(toks, body_start + 1, bclose)));
            j = bclose + 1;
            if next_is(toks, j, close, ',') {
                j += 1;
            }
        } else {
            // Expression arm: runs to the `,` at nest 0, or the match end.
            let mut nest = 0i32;
            let mut k = body_start;
            while k < close {
                match &toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => nest += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => nest -= 1,
                    TokKind::Punct(',') if nest == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            arms.push((pattern, vec![Stmt::Plain(body_start, k)]));
            j = k + 1;
        }
    }
    arms
}

/// Parses a plain statement starting at `i`. Handles the `let … else {`
/// split: the diverging else-block is pushed onto `out` as a
/// non-exhaustive Branch *after* the binding's Plain part. Returns
/// (the Plain statement, index past the statement).
fn parse_plain(toks: &[Token], i: usize, end: usize, out: &mut Vec<Stmt>) -> (Option<Stmt>, usize) {
    let is_let = toks[i].is_ident("let");
    let mut nest = 0i32;
    let mut saw_control = false;
    let mut j = i;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => nest -= 1,
            TokKind::Punct(';') if nest == 0 => {
                return (Some(Stmt::Plain(i, j)), j + 1);
            }
            TokKind::Ident
                if nest == 0
                    && matches!(toks[j].text.as_str(), "if" | "match" | "loop" | "while") =>
            {
                saw_control = true;
            }
            TokKind::Ident
                if is_let
                    && !saw_control
                    && nest == 0
                    && toks[j].text == "else"
                    && next_is(toks, j + 1, end, '{') =>
            {
                // `let PAT = init else { diverge };` — emit the binding
                // part, then the diverging arm as a one-armed branch.
                out.push(Stmt::Plain(i, j));
                let open = j + 1;
                let close = match_group(toks, open, end, '{', '}');
                let arm = parse_block(toks, open + 1, close);
                let mut k = close + 1;
                if next_is(toks, k, end, ';') {
                    k += 1;
                }
                return (
                    Some(Stmt::Branch {
                        arms: vec![arm],
                        exhaustive: false,
                    }),
                    k,
                );
            }
            _ => {}
        }
        j += 1;
    }
    (Some(Stmt::Plain(i, end)), end)
}

/// A leak found by the must-consume walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leak {
    /// Line of the exit that loses the value.
    pub line: u32,
    /// What kind of exit: "early return", "`?` propagation", "end of scope".
    pub kind: &'static str,
}

/// How a statement list terminates, from the walk's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Control continues past the list; `consumed` says whether every
    /// falling-through path consumed the value.
    FallsThrough { consumed: bool },
    /// Every path through the list exited the function.
    Exits,
}

/// Runs the must-consume walk for variable `var`, starting within
/// `stmts` at the first statement whose tokens begin at or after
/// `from_tok`. `scope_end_line` anchors the end-of-scope leak report.
pub fn find_leaks(
    toks: &[Token],
    stmts: &[Stmt],
    var: &str,
    from_tok: usize,
    scope_end_line: u32,
) -> Vec<Leak> {
    let mut leaks = Vec::new();
    let flow = walk(toks, stmts, var, from_tok, false, &mut leaks);
    if let Flow::FallsThrough { consumed: false } = flow {
        leaks.push(Leak {
            line: scope_end_line,
            kind: "end of scope",
        });
    }
    leaks
}

fn walk(
    toks: &[Token],
    stmts: &[Stmt],
    var: &str,
    from_tok: usize,
    consumed_in: bool,
    leaks: &mut Vec<Leak>,
) -> Flow {
    let mut consumed = consumed_in;
    for stmt in stmts {
        if stmt_end(stmt) <= from_tok {
            continue;
        }
        match stmt {
            Stmt::Plain(s, e) => {
                let (s, e) = (*s.max(&from_tok), *e);
                let consumes_here = consumes(toks, s, e, var);
                if !consumed && !consumes_here {
                    for (line, kind) in exits_in(toks, s, e) {
                        leaks.push(Leak { line, kind });
                    }
                }
                consumed |= consumes_here;
                if s < e && toks[s].is_ident("return") {
                    return Flow::Exits;
                }
            }
            Stmt::Sub(inner) => match walk(toks, inner, var, from_tok, consumed, leaks) {
                Flow::Exits => return Flow::Exits,
                Flow::FallsThrough { consumed: c } => consumed = c,
            },
            Stmt::Branch { arms, exhaustive } => {
                let mut all_safe = true;
                let mut all_exit = !arms.is_empty();
                for arm in arms {
                    match walk(toks, arm, var, from_tok, consumed, leaks) {
                        Flow::Exits => {}
                        Flow::FallsThrough { consumed: c } => {
                            all_exit = false;
                            all_safe &= c;
                        }
                    }
                }
                if *exhaustive && all_exit {
                    return Flow::Exits;
                }
                consumed = consumed || (*exhaustive && all_safe);
            }
            Stmt::Loop(body) => {
                // A loop body's consumption is trusted (see module docs);
                // exits inside the body are still checked per-path.
                if let Flow::FallsThrough { consumed: c } =
                    walk(toks, body, var, from_tok, consumed, leaks)
                {
                    consumed = c;
                }
            }
        }
    }
    Flow::FallsThrough { consumed }
}

/// Last token index covered by a statement (for skipping pre-acquisition
/// statements).
fn stmt_end(stmt: &Stmt) -> usize {
    match stmt {
        Stmt::Plain(_, e) => *e,
        Stmt::Sub(inner) | Stmt::Loop(inner) => inner.iter().map(stmt_end).max().unwrap_or(0),
        Stmt::Branch { arms, .. } => arms
            .iter()
            .flat_map(|a| a.iter().map(stmt_end))
            .max()
            .unwrap_or(0),
    }
}

/// True when `var` is consumed in `[s, e)`: an occurrence that is not a
/// method-receiver (`var.method(...)` observes, it does not consume) and
/// not an argument to `drop(...)` (which destroys the value without
/// returning its tokens).
pub fn consumes(toks: &[Token], s: usize, e: usize, var: &str) -> bool {
    for i in s..e {
        if toks[i].is_ident(var)
            && !toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && !is_drop_arg(toks, s, i)
        {
            return true;
        }
    }
    false
}

/// True when the occurrence at `i` sits (possibly behind `&`) directly
/// inside a `drop(...)` call.
fn is_drop_arg(toks: &[Token], stmt_start: usize, i: usize) -> bool {
    let mut j = i;
    while j > stmt_start && toks[j - 1].is_punct('&') {
        j -= 1;
    }
    j >= 2 && toks[j - 1].is_punct('(') && toks[j - 2].is_ident("drop")
}

/// Function-exit events in a plain-statement range: `return` and `?` at
/// brace-nest zero (so closure bodies and block expressions swallowed
/// into the statement do not count).
fn exits_in(toks: &[Token], s: usize, e: usize) -> Vec<(u32, &'static str)> {
    let mut out = Vec::new();
    let mut brace = 0i32;
    for t in &toks[s..e] {
        match &t.kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace -= 1,
            TokKind::Ident if brace == 0 && t.text == "return" => {
                out.push((t.line, "early return"));
            }
            TokKind::Punct('?') if brace == 0 => {
                out.push((t.line, "`?` propagation"));
            }
            _ => {}
        }
    }
    out
}

/// Locates the statement list that lexically contains token `tok`,
/// returning the innermost block's statements. Used to root the leak
/// walk at the acquisition's own scope (a grant bound inside an `if` arm
/// dies at that arm's closing brace).
pub fn block_containing(stmts: &[Stmt], tok: usize) -> &[Stmt] {
    for stmt in stmts {
        match stmt {
            Stmt::Plain(s, e) => {
                if *s <= tok && tok < *e {
                    return stmts;
                }
            }
            Stmt::Sub(inner) | Stmt::Loop(inner) => {
                if span_contains(inner, tok) {
                    return block_containing(inner, tok);
                }
            }
            Stmt::Branch { arms, .. } => {
                for arm in arms {
                    if span_contains(arm, tok) {
                        return block_containing(arm, tok);
                    }
                }
            }
        }
    }
    stmts
}

fn span_contains(stmts: &[Stmt], tok: usize) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Plain(a, b) => *a <= tok && tok < *b,
        Stmt::Sub(inner) | Stmt::Loop(inner) => span_contains(inner, tok),
        Stmt::Branch { arms, .. } => arms.iter().any(|a| span_contains(a, tok)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Parses `src` as a full fn body and runs the leak walk for `var`
    /// starting at token 0.
    fn leaks_for(src: &str, var: &str) -> Vec<&'static str> {
        let lexed = lex(src);
        let stmts = parse_block(&lexed.tokens, 0, lexed.tokens.len());
        find_leaks(&lexed.tokens, &stmts, var, 0, 99)
            .into_iter()
            .map(|l| l.kind)
            .collect()
    }

    #[test]
    fn straight_line_release_is_clean() {
        assert_eq!(
            leaks_for("work(); ledger.release(&g);", "g"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn never_released_leaks_at_scope_end() {
        assert_eq!(leaks_for("work(); more();", "g"), vec!["end of scope"]);
    }

    #[test]
    fn early_return_before_release_leaks() {
        let src = "if bad { return Err(e); } ledger.release(&g);";
        assert_eq!(leaks_for(src, "g"), vec!["early return"]);
    }

    #[test]
    fn returning_the_value_is_consumption() {
        assert_eq!(
            leaks_for("if ok { return Some(g); } ledger.release(&g);", "g"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn question_mark_between_acquire_and_release_leaks() {
        let src = "let x = fallible()?; ledger.release(&g);";
        assert_eq!(leaks_for(src, "g"), vec!["`?` propagation"]);
    }

    #[test]
    fn question_mark_in_consuming_stmt_is_safe() {
        // The call that takes `g` happens before its `?` can fire.
        assert_eq!(leaks_for("store(g)?; done();", "g"), Vec::<&str>::new());
    }

    #[test]
    fn both_branch_arms_consuming_covers_the_exit() {
        let src = "if a { ledger.release(&g); } else { pool.recycle(g); } return x;";
        assert_eq!(leaks_for(src, "g"), Vec::<&str>::new());
    }

    #[test]
    fn one_unconsumed_arm_leaks_at_scope_end() {
        let src = "if a { ledger.release(&g); } tail();";
        assert_eq!(leaks_for(src, "g"), vec!["end of scope"]);
    }

    #[test]
    fn match_arms_checked_individually() {
        let src = "match x { A => ledger.release(&g), B => { return Ok(()); } }";
        // Arm B returns without consuming: early-return leak; arm A
        // consumes, so no scope-end leak after an exhaustive match...
        // but the fall-through from arm A is consumed, B exited leaky.
        assert_eq!(leaks_for(src, "g"), vec!["early return"]);
    }

    #[test]
    fn receiver_position_is_not_consumption() {
        assert_eq!(
            leaks_for("let x = g.used_gcp();", "g"),
            vec!["end of scope"]
        );
    }

    #[test]
    fn drop_is_not_consumption() {
        assert_eq!(leaks_for("drop(g);", "g"), vec!["end of scope"]);
        assert_eq!(leaks_for("drop(&g);", "g"), vec!["end of scope"]);
    }

    #[test]
    fn closure_return_is_not_a_function_exit() {
        let src = "spawn(move || { return 1; }); ledger.release(&g);";
        assert_eq!(leaks_for(src, "g"), Vec::<&str>::new());
    }

    #[test]
    fn let_else_divergence_checks_prior_bindings() {
        // `g` is live when the let-else diverges without consuming it.
        let src = "let Some(x) = opt else { return; }; ledger.release(&g);";
        assert_eq!(leaks_for(src, "g"), vec!["early return"]);
    }

    #[test]
    fn loop_body_consumption_is_trusted() {
        let src = "while go { ledger.release(&g); } tail();";
        assert_eq!(leaks_for(src, "g"), Vec::<&str>::new());
    }

    #[test]
    fn if_expression_in_let_is_not_let_else() {
        let src = "let x = if c { 1 } else { 2 }; ledger.release(&g);";
        assert_eq!(leaks_for(src, "g"), Vec::<&str>::new());
    }
}
