//! A minimal hand-rolled Rust lexer: enough fidelity to walk `.rs`
//! sources as a line-numbered token stream without ever confusing
//! string/comment contents for code.
//!
//! The lexer is deliberately lossy where lints don't care — numeric
//! literals keep no value, `::` is two `:` punct tokens — but it is
//! exact about the things that make naive grep-based linting wrong:
//! nested block comments, raw strings, byte strings, char literals vs.
//! lifetimes, and escapes. Comments are preserved in a side channel so
//! `atomics-ordering-discipline` can read protocol declarations and the
//! parser can find `# Panics` sections.

/// One lexical token (trivia excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `unwrap`, `Instant`, ...).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// Any string literal (`"…"`, `r#"…"#`, `b"…"`). Contents dropped.
    Str,
    /// A char or byte literal (`'a'`, `b'\n'`). Contents dropped.
    Char,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A numeric literal. Value dropped.
    Num,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub line: u32,
    pub tok: Tok,
}

/// A comment (line or block, doc or plain) with its starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl LexedFile {
    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when token `i` is the punct `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    /// Line of token `i` (0 when out of range, which callers never hit).
    pub fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into tokens and comments.
pub fn lex(src: &str) -> LexedFile {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = LexedFile::default();

    while let Some(b) = c.peek(0) {
        let line = c.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek(1) == Some(b'/') => {
                let start = c.pos;
                while let Some(b) = c.peek(0) {
                    if b == b'\n' {
                        break;
                    }
                    c.bump();
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                });
            }
            b'/' if c.peek(1) == Some(b'*') => {
                let start = c.pos;
                c.bump();
                c.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (c.peek(0), c.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            c.bump();
                            c.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            c.bump();
                            c.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&c.src[start..c.pos]).into_owned(),
                });
            }
            b'"' => {
                lex_string(&mut c);
                out.tokens.push(Token { line, tok: Tok::Str });
            }
            b'r' | b'b' if starts_prefixed_literal(&c) => {
                let tok = lex_prefixed_literal(&mut c);
                out.tokens.push(Token { line, tok });
            }
            b'\'' => {
                let tok = lex_quote(&mut c);
                out.tokens.push(Token { line, tok });
            }
            _ if is_ident_start(b) => {
                let start = c.pos;
                while let Some(b) = c.peek(0) {
                    if !is_ident_continue(b) {
                        break;
                    }
                    c.bump();
                }
                let text = String::from_utf8_lossy(&c.src[start..c.pos]).into_owned();
                out.tokens.push(Token {
                    line,
                    tok: Tok::Ident(text),
                });
            }
            _ if b.is_ascii_digit() => {
                // Digits, underscores, and alphanumeric suffixes/hex. `.`
                // is excluded so range syntax (`0..n`) stays punctuation;
                // lints never look at numeric values.
                while let Some(b) = c.peek(0) {
                    if !is_ident_continue(b) {
                        break;
                    }
                    c.bump();
                }
                out.tokens.push(Token { line, tok: Tok::Num });
            }
            _ => {
                c.bump();
                out.tokens.push(Token {
                    line,
                    tok: Tok::Punct(b as char),
                });
            }
        }
    }
    out
}

/// True when the cursor sits on `r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`.
fn starts_prefixed_literal(c: &Cursor) -> bool {
    match c.peek(0) {
        Some(b'r') => {
            let mut i = 1;
            while c.peek(i) == Some(b'#') {
                i += 1;
            }
            i > 1 && c.peek(i) == Some(b'"') || c.peek(1) == Some(b'"')
        }
        Some(b'b') => match c.peek(1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => {
                let mut i = 2;
                while c.peek(i) == Some(b'#') {
                    i += 1;
                }
                c.peek(i) == Some(b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Consumes `r…`, `b…`, `br…` literals after `starts_prefixed_literal`.
fn lex_prefixed_literal(c: &mut Cursor) -> Tok {
    if c.peek(0) == Some(b'b') {
        c.bump();
        if c.peek(0) == Some(b'\'') {
            return lex_quote(c);
        }
    }
    if c.peek(0) == Some(b'r') {
        c.bump();
        let mut hashes = 0usize;
        while c.peek(0) == Some(b'#') {
            c.bump();
            hashes += 1;
        }
        // Opening quote.
        c.bump();
        loop {
            match c.bump() {
                None => break,
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && c.peek(0) == Some(b'#') {
                        c.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        Tok::Str
    } else {
        lex_string(c);
        Tok::Str
    }
}

/// Consumes a `"…"` string starting at the opening quote.
fn lex_string(c: &mut Cursor) {
    c.bump(); // opening "
    while let Some(b) = c.bump() {
        match b {
            b'\\' => {
                c.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime), starting at `'`.
fn lex_quote(c: &mut Cursor) -> Tok {
    c.bump(); // opening '
    match c.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: consume until closing quote.
            while let Some(b) = c.bump() {
                if b == b'\\' {
                    c.bump();
                } else if b == b'\'' {
                    break;
                }
            }
            Tok::Char
        }
        Some(b) if is_ident_start(b) => {
            // `'a'` is a char; `'abc` (no closing quote after the ident
            // run) is a lifetime.
            let mut i = 1;
            while let Some(n) = c.peek(i) {
                if !is_ident_continue(n) {
                    break;
                }
                i += 1;
            }
            if c.peek(i) == Some(b'\'') {
                for _ in 0..=i {
                    c.bump();
                }
                Tok::Char
            } else {
                for _ in 0..i {
                    c.bump();
                }
                Tok::Lifetime
            }
        }
        Some(_) => {
            // `'(' `, `'0'` etc.: a one-char literal.
            c.bump();
            if c.peek(0) == Some(b'\'') {
                c.bump();
            }
            Tok::Char
        }
        None => Tok::Lifetime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = "let x = \"Instant::now()\"; // Instant::now in comment\nfn f() {}";
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"fn".to_string()));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("Instant"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"unwrap() \"quoted\" \"#; let t = unwrap;";
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "unwrap").count(), 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let toks: Vec<_> = lex(src).tokens.into_iter().map(|t| t.tok).collect();
        assert_eq!(toks.iter().filter(|t| **t == Tok::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| **t == Tok::Char).count(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn g() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "g"]);
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let src = "fn a() {}\n\nfn b() {}\n";
        let lexed = lex(src);
        let b_tok = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .map(|t| t.line);
        assert_eq!(b_tok, Some(3));
    }

    #[test]
    fn byte_strings_are_strings() {
        let src = "let x = b\"thread_rng\"; let y = br#\"from_entropy\"#;";
        assert!(idents(src).iter().all(|s| s == "let" || s == "x" || s == "y"));
    }

    #[test]
    fn multiline_strings_advance_lines() {
        let src = "let s = \"line1\nline2\";\nfn after() {}";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("after".into()))
            .map(|t| t.line);
        assert_eq!(after, Some(3));
    }
}
