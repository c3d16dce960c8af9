//! A small, dependency-free Rust lexer.
//!
//! The lint rules must never fire on text inside a string literal or a
//! comment — a regex-based scanner needs `format!`-assembled needles to
//! avoid flagging itself. This lexer produces a token stream that gets
//! the hard cases right:
//!
//! * raw strings with any number of hashes (`r#"…"#`, `br##"…"##`);
//! * nested block comments (`/* outer /* inner */ still outer */`);
//! * `'a` lifetimes vs. `'a'` char literals (and `'\u{…}'` escapes);
//! * `r#ident` raw identifiers;
//! * `::` path separators as one token, so call/path extraction does not
//!   need adjacency bookkeeping.
//!
//! Comments are kept as tokens (with their line numbers) because the
//! annotation grammar, `// cm-lint: allow(<RULE>, <reason>)`, lives in
//! comments.

use std::ops::Range;

/// What one token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `for`, `Instant`, …).
    Ident,
    /// A lifetime (`'a`), stored without the leading quote.
    Lifetime,
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Any string literal: plain, raw, byte, or raw byte.
    Str,
    /// A numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
    /// The `::` path separator.
    PathSep,
    /// A line or block comment, text included.
    Comment,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// The token class.
    pub kind: TokKind,
    /// The token text. For [`TokKind::Str`] the quotes/hashes are kept;
    /// for [`TokKind::Lifetime`] the leading `'` is stripped.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// Indices of the non-comment tokens in `toks[range]` — the stream every
/// rule matches on (comments stay in `toks` for the annotation layer).
pub fn code(toks: &[Tok], range: Range<usize>) -> Vec<usize> {
    range
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect()
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenizes `src`. Unterminated constructs (string, comment) consume to
/// end of input rather than erroring: the lexer is a lint front end, not a
/// compiler, and a best-effort stream beats a hard stop.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    /// Advances one byte, counting lines.
    fn bump(&mut self) -> u8 {
        let c = self.peek(0);
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while self.pos < self.src.len() {
            let line = self.line;
            let start = self.pos;
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => {
                    while self.pos < self.src.len() && self.peek(0) != b'\n' {
                        self.bump();
                    }
                    self.push(TokKind::Comment, start, line);
                }
                b'/' if self.peek(1) == b'*' => {
                    self.block_comment();
                    self.push(TokKind::Comment, start, line);
                }
                b'r' | b'b' if self.raw_string_ahead() => {
                    self.raw_string();
                    self.push(TokKind::Str, start, line);
                }
                b'b' if self.peek(1) == b'\'' => {
                    self.bump(); // b
                    self.char_literal();
                    self.push(TokKind::Char, start, line);
                }
                b'b' if self.peek(1) == b'"' => {
                    self.bump(); // b
                    self.string();
                    self.push(TokKind::Str, start, line);
                }
                b'r' if self.peek(1) == b'#' && is_ident_start(self.peek(2)) => {
                    // Raw identifier r#type.
                    self.bump();
                    self.bump();
                    while is_ident_cont(self.peek(0)) {
                        self.bump();
                    }
                    self.push(TokKind::Ident, start, line);
                }
                b'"' => {
                    self.string();
                    self.push(TokKind::Str, start, line);
                }
                b'\'' => self.quote(start, line),
                c if is_ident_start(c) => {
                    while is_ident_cont(self.peek(0)) {
                        self.bump();
                    }
                    self.push(TokKind::Ident, start, line);
                }
                c if c.is_ascii_digit() => {
                    self.number();
                    self.push(TokKind::Num, start, line);
                }
                b':' if self.peek(1) == b':' => {
                    self.bump();
                    self.bump();
                    self.push(TokKind::PathSep, start, line);
                }
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    /// `/* … */` with nesting.
    fn block_comment(&mut self) {
        self.bump(); // /
        self.bump(); // *
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
    }

    /// True when the cursor sits on `r"`, `r#…#"`, `br"` or `br#…#"`.
    fn raw_string_ahead(&self) -> bool {
        let mut i = 1; // past the leading r or b
        if self.peek(0) == b'b' {
            if self.peek(1) != b'r' {
                return false;
            }
            i = 2;
        }
        while self.peek(i) == b'#' {
            i += 1;
        }
        self.peek(i) == b'"'
    }

    /// Consumes a raw (byte) string: `r#*"…"#*` with a matching hash count.
    fn raw_string(&mut self) {
        if self.peek(0) == b'b' {
            self.bump();
        }
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            if self.bump() == b'"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == b'#' {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
        }
    }

    /// Consumes a plain string body starting at the opening quote.
    fn string(&mut self) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.bump() {
                b'\\' => {
                    self.bump(); // whatever is escaped, incl. \" and \\
                }
                b'"' => return,
                _ => {}
            }
        }
    }

    /// Consumes a char literal body starting at the opening quote.
    fn char_literal(&mut self) {
        self.bump(); // opening quote
        if self.peek(0) == b'\\' {
            self.bump();
            if self.peek(0) == b'u' && self.peek(1) == b'{' {
                while self.pos < self.src.len() && self.peek(0) != b'}' {
                    self.bump();
                }
            }
            self.bump(); // escaped char (or the closing } consumer below)
        } else {
            self.bump(); // the char itself (multibyte UTF-8 tails are
                         // consumed by the closing-quote scan below)
        }
        while self.pos < self.src.len() && self.peek(0) != b'\'' {
            self.bump();
        }
        self.bump(); // closing quote
    }

    /// `'` is a lifetime, a loop label, or a char literal. A quote followed
    /// by an identifier is a char literal only if the identifier is
    /// immediately followed by a closing quote (`'a'`); otherwise it is a
    /// lifetime (`'a`, `'static`).
    fn quote(&mut self, start: usize, line: u32) {
        if self.peek(1) == b'\\' {
            self.char_literal();
            self.push(TokKind::Char, start, line);
            return;
        }
        if is_ident_start(self.peek(1)) {
            let mut i = 2;
            while is_ident_cont(self.peek(i)) {
                i += 1;
            }
            if self.peek(i) == b'\'' {
                self.char_literal();
                self.push(TokKind::Char, start, line);
            } else {
                self.bump(); // '
                while is_ident_cont(self.peek(0)) {
                    self.bump();
                }
                // Strip the quote so Lifetime text is the bare name.
                let text = String::from_utf8_lossy(&self.src[start + 1..self.pos]).into_owned();
                self.out.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                });
            }
            return;
        }
        // 'x' where x is punctuation, a digit, or multibyte UTF-8.
        self.char_literal();
        self.push(TokKind::Char, start, line);
    }

    /// Numeric literal: digits, `_`, type suffixes, hex/oct/bin letters, a
    /// fraction dot only when followed by a digit (so `0..n` stays a range)
    /// and a signed exponent.
    fn number(&mut self) {
        while self.pos < self.src.len() {
            let c = self.peek(0);
            if c.is_ascii_alphanumeric() || c == b'_' {
                let was_exp = (c == b'e' || c == b'E')
                    && (self.peek(1) == b'+' || self.peek(1) == b'-')
                    && self.peek(2).is_ascii_digit();
                self.bump();
                if was_exp {
                    self.bump(); // the sign
                }
            } else if c == b'.' && self.peek(1).is_ascii_digit() {
                self.bump();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_pathsep() {
        let toks = kinds("foo::bar(x);");
        assert_eq!(toks[0], (TokKind::Ident, "foo".into()));
        assert_eq!(toks[1], (TokKind::PathSep, "::".into()));
        assert_eq!(toks[2], (TokKind::Ident, "bar".into()));
        assert_eq!(toks[3], (TokKind::Punct, "(".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let x = "Instant::now()";"#);
        assert!(toks.iter().all(|(_, t)| t != "Instant"));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn number_does_not_eat_range_dots() {
        let toks = kinds("0..10");
        assert_eq!(toks[0], (TokKind::Num, "0".into()));
        assert_eq!(toks[1], (TokKind::Punct, ".".into()));
        assert_eq!(toks[2], (TokKind::Punct, ".".into()));
        assert_eq!(toks[3], (TokKind::Num, "10".into()));
    }

    #[test]
    fn float_and_exponent_stay_one_token() {
        let toks = kinds("1.5e-3 + 2");
        assert_eq!(toks[0], (TokKind::Num, "1.5e-3".into()));
    }

    #[test]
    fn raw_strings_with_hashes_hide_their_contents() {
        // The closing quote inside the body must not end the literal; only
        // the matching number of hashes does.
        let toks = kinds(r####"let x = r##"quote " and hash "# then thread_rng()"## ;"####);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || !t.contains("thread_rng")));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        // Byte raw strings take the same path.
        let toks = kinds(r###"let y = br#"Instant::now()"# ;"###);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || t != "Instant"));
    }

    #[test]
    fn nested_block_comments_stay_one_token() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        let words: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(words, vec!["a", "b"]);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Comment).count(),
            1
        );
    }

    #[test]
    fn lifetime_vs_char_literal() {
        // `'a` in a generic position is a lifetime; `'a'` is a char.
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; }");
        let lifetimes = toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 1));
        // An escaped char quote must not open a lifetime.
        let toks = kinds(r"let q = '\''; x");
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Char));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "x"));
    }
}
