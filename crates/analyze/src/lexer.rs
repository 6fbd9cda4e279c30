//! A minimal, zero-dependency Rust lexer.
//!
//! The lint rules need exactly four things the raw source cannot give
//! them directly: identifiers with line numbers, punctuation with
//! adjacency (to tell `.unwrap(` from the word "unwrap" in a string),
//! numeric literals tagged int-vs-float, and comments (for `ORDER:`
//! checks and `fpb-lint:` directives). Everything else — strings, char
//! literals, lifetimes — is recognized only so its *contents* cannot be
//! mistaken for code. No `syn`, no registry dependencies: the scanner
//! must build in the same zero-network environment as the rest of the
//! workspace.

/// What a token is, as far as the lint rules care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unwrap`, `unsafe`, `as`, `HashMap`).
    Ident,
    /// A numeric literal. `float` is true for `1.5`, `2e9`, `1f64`.
    Num {
        /// True when the literal is a floating-point literal.
        float: bool,
    },
    /// A single punctuation character (`.`, `(`, `=`, `!`, ...).
    /// Multi-character operators appear as adjacent tokens.
    Punct(char),
    /// A string, byte-string, raw-string, or char literal (contents
    /// dropped).
    Literal,
    /// A lifetime (`'a`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind of token.
    pub kind: TokKind,
    /// Source text for identifiers and numbers; empty otherwise.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with its position (line comments span one line; block
/// comments may span many).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment body, excluding the `//` / `/* */` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub start_line: u32,
    /// 1-based line the comment ends on.
    pub end_line: u32,
}

/// The full result of lexing one file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src`, never failing: unrecognized bytes become punctuation and
/// unterminated literals run to end-of-file. Lint rules prefer scanning
/// slightly-wrong token streams over refusing to scan a file.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().peekable(),
            line: 1,
            out: Lexed::default(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    /// Peeks two characters ahead without consuming (cloning a `Chars`
    /// iterator is cheap — it is a byte cursor).
    fn peek2(&mut self) -> Option<char> {
        let mut clone = self.chars.clone();
        clone.next();
        clone.next()
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' => match self.peek2() {
                    Some('/') => self.line_comment(),
                    Some('*') => self.block_comment(),
                    _ => {
                        self.bump();
                        self.push(TokKind::Punct('/'), String::new(), line);
                    }
                },
                '"' => self.string_literal(),
                '\'' => self.quote(),
                'r' | 'b' if self.raw_string_ahead() => self.raw_or_byte_string(),
                'r' if self.raw_ident_ahead() => {
                    // Raw identifier `r#match`: strip the `r#` prefix and
                    // lex the keyword-shaped name as a plain identifier.
                    self.bump();
                    self.bump();
                    self.ident();
                }
                'b' if self.peek2() == Some('\'') => {
                    // Byte char literal `b'x'`: one literal token, not a
                    // phantom `b` identifier followed by a char.
                    self.bump();
                    self.quote();
                }
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                c => {
                    self.bump();
                    self.push(TokKind::Punct(c), String::new(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.line;
        self.bump(); // /
        self.bump(); // /
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text,
            start_line: start,
            end_line: start,
        });
    }

    fn block_comment(&mut self) {
        let start = self.line;
        self.bump(); // /
        self.bump(); // *
        let mut depth = 1u32;
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '/' && self.peek() == Some('*') {
                self.bump();
                depth += 1;
                text.push_str("/*");
            } else if c == '*' && self.peek() == Some('/') {
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
            }
        }
        self.out.comments.push(Comment {
            text,
            start_line: start,
            end_line: self.line,
        });
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // "
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // skip the escaped character
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, String::new(), line);
    }

    /// `'` starts either a lifetime (`'a`, `'static`) or a char literal
    /// (`'x'`, `'\n'`). A lifetime is an identifier not followed by a
    /// closing quote.
    fn quote(&mut self) {
        let line = self.line;
        self.bump(); // '
        match self.peek() {
            Some(c) if (c.is_alphabetic() || c == '_') && self.peek2() != Some('\'') => {
                let mut text = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Lifetime, text, line);
            }
            Some('\\') => {
                self.bump(); // backslash
                self.bump(); // escaped char ('\x41' etc. ends at the quote)
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokKind::Literal, String::new(), line);
            }
            Some(_) => {
                self.bump(); // the char itself
                self.bump(); // closing quote
                self.push(TokKind::Literal, String::new(), line);
            }
            None => {
                self.push(TokKind::Punct('\''), String::new(), line);
            }
        }
    }

    /// True when the cursor sits on a raw/byte string opener: `r"`, `b"`,
    /// `br"`, or `r`/`br` followed by any run of `#` ending in `"`. A `#`
    /// run NOT ending in `"` is a raw identifier (`r#match`), not a
    /// string — treating it as one would swallow the rest of the file.
    fn raw_string_ahead(&mut self) -> bool {
        let mut clone = self.chars.clone();
        match clone.next() {
            Some('r') => {}
            Some('b') => match clone.next() {
                Some('"') => return true,
                Some('r') => {}
                _ => return false,
            },
            _ => return false,
        }
        match clone.next() {
            Some('"') => true,
            Some('#') => {
                let mut c = clone.next();
                while c == Some('#') {
                    c = clone.next();
                }
                c == Some('"')
            }
            _ => false,
        }
    }

    /// True when the cursor sits on a raw identifier: `r#` followed by an
    /// identifier-start character (`r#type`, `r#match`).
    fn raw_ident_ahead(&mut self) -> bool {
        let mut clone = self.chars.clone();
        clone.next() == Some('r')
            && clone.next() == Some('#')
            && clone.next().is_some_and(|c| c.is_alphabetic() || c == '_')
    }

    fn raw_or_byte_string(&mut self) {
        let line = self.line;
        let mut raw = false;
        // Consume the prefix letters (`r`, `b`, or `br`).
        while let Some(c) = self.peek() {
            if c == 'r' {
                raw = true;
                self.bump();
            } else if c == 'b' {
                self.bump();
            } else {
                break;
            }
        }
        if raw {
            let mut hashes = 0usize;
            while self.peek() == Some('#') {
                hashes += 1;
                self.bump();
            }
            self.bump(); // opening "
                         // Scan to `"` followed by `hashes` hash marks.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    let mut clone = self.chars.clone();
                    for _ in 0..hashes {
                        if clone.next() != Some('#') {
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.push(TokKind::Literal, String::new(), line);
        } else {
            // Plain byte string `b"..."`: same escape rules as strings.
            self.string_literal();
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut float = false;
        // Integer part (covers 0x/0o/0b prefixes: hex digits are consumed
        // as alphanumerics below).
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                if c == 'e' || c == 'E' {
                    // Exponent only counts as float in a decimal literal
                    // (`1e9`), not hex (`0xE`).
                    if !text.starts_with("0x") && !text.starts_with("0X") {
                        float = true;
                    }
                }
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1.5` is a float; `1..` is a range and `1.max()` is a
                // method call.
                match self.peek2() {
                    Some(d) if d.is_ascii_digit() => {
                        float = true;
                        text.push('.');
                        self.bump();
                    }
                    _ => break,
                }
            } else if (c == '+' || c == '-') && (text.ends_with('e') || text.ends_with('E')) {
                // Exponent sign: `1e-9`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if text.ends_with("f32") || text.ends_with("f64") {
            float = true;
        }
        self.push(TokKind::Num { float }, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts_with_lines() {
        let l = lex("let x = a.unwrap();\nfoo()");
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 1);
        let foo = l.tokens.iter().find(|t| t.is_ident("foo")).unwrap();
        assert_eq!(foo.line, 2);
        assert!(l.tokens.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "x.unwrap() // not a comment"; y"#);
        assert_eq!(idents(r#"let s = "x.unwrap()"; y"#), vec!["let", "s", "y"]);
        assert!(l.comments.is_empty());
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"quote " inside"#; after"###;
        assert_eq!(idents(src), vec!["let", "s", "after"]);
        let src = "let b = b\"bytes\"; tail";
        assert_eq!(idents(src), vec!["let", "b", "tail"]);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        assert_eq!(idents("let c = 'x'; d"), vec!["let", "c", "d"]);
        assert_eq!(idents(r"let c = '\n'; d"), vec!["let", "c", "d"]);
        let l = lex("fn f<'a>(x: &'a str) {}");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        // The lifetime must not swallow following tokens.
        assert!(l.tokens.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("code(); // trailing unwrap() mention\n/* block\nspan */ more()");
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("unwrap"));
        assert_eq!(l.comments[1].start_line, 2);
        assert_eq!(l.comments[1].end_line, 3);
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.tokens.iter().any(|t| t.is_ident("more")));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ code()");
        assert_eq!(l.comments.len(), 1);
        assert!(l.tokens.iter().any(|t| t.is_ident("code")));
    }

    #[test]
    fn numbers_int_vs_float() {
        let l = lex("1 2.5 1e9 0xE5 1_000 3f64 0.5 1..2 1.max(2)");
        let nums: Vec<(String, bool)> = l
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Num { float } => Some((t.text.clone(), float)),
                _ => None,
            })
            .collect();
        assert_eq!(
            nums,
            vec![
                ("1".into(), false),
                ("2.5".into(), true),
                ("1e9".into(), true),
                ("0xE5".into(), false),
                ("1_000".into(), false),
                ("3f64".into(), true),
                ("0.5".into(), true),
                ("1".into(), false),
                ("2".into(), false),
                ("1".into(), false),
                ("2".into(), false),
            ]
        );
        // `1.max(2)` keeps the method name.
        assert!(l.tokens.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn raw_strings_with_multi_hash_delimiters() {
        // `r##"…"##` may contain `"#` sequences without terminating.
        let src = "let s = r##\"quote \"# inside\"##; after";
        assert_eq!(idents(src), vec!["let", "s", "after"]);
        let src = "let s = r###\"x\"## not yet \"###; tail";
        assert_eq!(idents(src), vec!["let", "s", "tail"]);
        // Empty raw string and zero-hash form.
        assert_eq!(idents("let s = r\"\"; t"), vec!["let", "s", "t"]);
        assert_eq!(idents("let s = r#\"\"#; t"), vec!["let", "s", "t"]);
    }

    #[test]
    fn raw_identifiers_are_identifiers_not_strings() {
        // `r#match` must not open a raw string and swallow the file.
        let src = "let r#type = r#match.unwrap(); trailing";
        let l = lex(src);
        assert!(l.tokens.iter().any(|t| t.is_ident("type")));
        assert!(l.tokens.iter().any(|t| t.is_ident("match")));
        assert!(l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.tokens.iter().any(|t| t.is_ident("trailing")));
        // The `.unwrap(` shape survives for the panic_freedom detector.
        let pos = l.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(l.tokens[pos - 1].is_punct('.'));
        assert!(l.tokens[pos + 1].is_punct('('));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        // Raw byte strings with hash delimiters hide their contents.
        let src = "let b = br##\"not code .unwrap()\"##; tail";
        assert_eq!(idents(src), vec!["let", "b", "tail"]);
        // Byte char literal is one literal token, not ident + char.
        let l = lex("let c = b'x'; d");
        assert_eq!(idents("let c = b'x'; d"), vec!["let", "c", "d"]);
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            1
        );
        // Escaped byte char.
        assert_eq!(idents(r"let c = b'\n'; d"), vec!["let", "c", "d"]);
    }

    #[test]
    fn deeply_nested_block_comments() {
        let l = lex("/* a /* b /* c */ b */ a */ code()");
        assert_eq!(l.comments.len(), 1);
        assert!(l.tokens.iter().any(|t| t.is_ident("code")));
        // Partial markers inside the comment do not unbalance it.
        let l = lex("/* star * slash / ok */ more()");
        assert!(l.tokens.iter().any(|t| t.is_ident("more")));
    }

    #[test]
    fn lifetime_vs_char_literal_ambiguity() {
        // A lifetime immediately followed by a char literal.
        let l = lex("fn f<'a>(x: &'a u8) { g('x') }");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            1
        );
        // `'_` anonymous lifetime and `'_'` char literal.
        let l = lex("let x: &'_ u8 = f('_');");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "_"));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            1
        );
        // Escaped quote char `'\''`.
        assert_eq!(idents(r"let q = '\''; d"), vec!["let", "q", "d"]);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        let _ = lex("let s = \"never closed");
        let _ = lex("/* never closed");
        let _ = lex("let r = r#\"never closed");
        let _ = lex("'");
    }
}
