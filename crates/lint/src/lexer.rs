//! A hand-rolled Rust lexer, just deep enough for token-stream lint rules.
//!
//! The lexer splits a source file into identifier / punctuation / literal
//! tokens with exact `line:col` spans, and keeps comments in a side table
//! (rules need them for `// SAFETY:` checks and suppression directives).
//! String, char, and byte literals are tokenized as opaque atoms so rule
//! patterns never fire on words *inside* a literal. The atoms keep their
//! contents; no rule reads them.
//!
//! It is not a full Rust lexer — no float-vs-range disambiguation subtleties
//! beyond what the rules need — but it handles the constructs that appear in
//! this workspace: nested block comments, raw strings (`r#"…"#`), byte and
//! C strings, char literals vs. lifetimes, and doc comments.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `unsafe`, `for`, ...).
    Ident,
    /// String literal of any flavor; `text` holds the *contents*.
    Str,
    /// Char or byte literal; `text` holds the raw inside.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`); `text` holds the name without the quote.
    Lifetime,
    /// Single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One token with its span.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

/// A comment (line or block), with the span of its opening delimiter.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    pub col: u32,
}

/// A lexed file: tokens in order, comments in a side table.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lex `src` into tokens and comments. Never fails: unrecognized bytes
/// become single-character punctuation tokens, and an unterminated literal
/// simply runs to end of file (the rules stay span-accurate either way).
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    text.push(cur.bump().unwrap() as char);
                }
                out.comments.push(Comment { text, line, col });
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                let mut text = String::new();
                let mut depth = 0u32;
                while let Some(c) = cur.peek(0) {
                    if c == b'/' && cur.peek(1) == Some(b'*') {
                        depth += 1;
                        text.push(cur.bump().unwrap() as char);
                        text.push(cur.bump().unwrap() as char);
                    } else if c == b'*' && cur.peek(1) == Some(b'/') {
                        depth -= 1;
                        text.push(cur.bump().unwrap() as char);
                        text.push(cur.bump().unwrap() as char);
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(cur.bump().unwrap() as char);
                    }
                }
                out.comments.push(Comment { text, line, col });
            }
            b'"' => {
                let text = lex_plain_string(&mut cur);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    line,
                    col,
                });
            }
            b'\'' => {
                lex_quote(&mut cur, &mut out, line, col);
            }
            _ if b.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    // A `.` continues the number only before another digit:
                    // `1..n` is a range, not a float.
                    let float_dot =
                        c == b'.' && cur.peek(1).map(|n| n.is_ascii_digit()).unwrap_or(false);
                    if c.is_ascii_alphanumeric() || c == b'_' || float_dot {
                        text.push(cur.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text,
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if is_ident_continue(c) {
                        text.push(cur.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                // String-literal prefixes: r"", r#""#, b"", br"", c"", ...
                let is_prefix = matches!(text.as_str(), "r" | "b" | "br" | "rb" | "c" | "cr");
                if is_prefix && matches!(cur.peek(0), Some(b'"') | Some(b'#')) {
                    if let Some(content) = lex_maybe_raw_string(&mut cur) {
                        out.toks.push(Tok {
                            kind: TokKind::Str,
                            text: content,
                            line,
                            col,
                        });
                        continue;
                    }
                }
                if text == "b" && cur.peek(0) == Some(b'\'') {
                    // Byte literal b'x'.
                    cur.bump();
                    let content = lex_char_body(&mut cur);
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: content,
                        line,
                        col,
                    });
                    continue;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// A `"…"` string, cursor on the opening quote. Returns the contents.
fn lex_plain_string(cur: &mut Cursor<'_>) -> String {
    cur.bump(); // opening "
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        match c {
            b'\\' => {
                cur.bump();
                if cur.peek(0).is_some() {
                    text.push(cur.bump().unwrap() as char);
                }
            }
            b'"' => {
                cur.bump();
                break;
            }
            _ => text.push(cur.bump().unwrap() as char),
        }
    }
    text
}

/// After a string prefix (`r`, `b`, `br`, ...): either `#*"` (raw) or `"`.
/// Returns `None` if what follows is not actually a string (e.g. `r#foo`
/// raw identifiers), leaving the cursor where further `#` tokens lex as
/// punctuation — close enough for lint purposes.
fn lex_maybe_raw_string(cur: &mut Cursor<'_>) -> Option<String> {
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some(b'#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some(b'"') {
        return None;
    }
    for _ in 0..=hashes {
        cur.bump(); // the #s and the opening quote
    }
    let mut text = String::new();
    if hashes == 0 {
        // A `b"…"`-style string still processes escapes.
        loop {
            match cur.peek(0) {
                Some(b'\\') => {
                    cur.bump();
                    if cur.peek(0).is_some() {
                        text.push(cur.bump().unwrap() as char);
                    }
                }
                Some(b'"') => {
                    cur.bump();
                    break;
                }
                Some(_) => text.push(cur.bump().unwrap() as char),
                None => break,
            }
        }
        return Some(text);
    }
    // Raw: scan for `"` followed by `hashes` hash marks.
    loop {
        match cur.peek(0) {
            Some(b'"') => {
                let mut n = 0usize;
                while n < hashes && cur.peek(1 + n) == Some(b'#') {
                    n += 1;
                }
                if n == hashes {
                    for _ in 0..=hashes {
                        cur.bump();
                    }
                    break;
                }
                text.push(cur.bump().unwrap() as char);
            }
            Some(_) => text.push(cur.bump().unwrap() as char),
            None => break,
        }
    }
    Some(text)
}

/// Cursor on a `'`: lifetime or char literal.
fn lex_quote(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    // Lifetime: 'ident not closed by another quote ('a, 'static — but 'a'
    // is a char). Look past the identifier run for a closing quote.
    if cur.peek(1).map(is_ident_start).unwrap_or(false) {
        let mut n = 1;
        while cur.peek(n).map(is_ident_continue).unwrap_or(false) {
            n += 1;
        }
        if cur.peek(n) != Some(b'\'') {
            cur.bump(); // the quote
            let mut text = String::new();
            while cur.peek(0).map(is_ident_continue).unwrap_or(false) {
                text.push(cur.bump().unwrap() as char);
            }
            out.toks.push(Tok {
                kind: TokKind::Lifetime,
                text,
                line,
                col,
            });
            return;
        }
    }
    cur.bump(); // opening quote
    let text = lex_char_body(cur);
    out.toks.push(Tok {
        kind: TokKind::Char,
        text,
        line,
        col,
    });
}

/// Body of a char/byte literal, cursor just past the opening quote.
fn lex_char_body(cur: &mut Cursor<'_>) -> String {
    let mut text = String::new();
    loop {
        match cur.peek(0) {
            Some(b'\\') => {
                cur.bump();
                if cur.peek(0).is_some() {
                    text.push(cur.bump().unwrap() as char);
                }
            }
            Some(b'\'') => {
                cur.bump();
                break;
            }
            Some(_) => text.push(cur.bump().unwrap() as char),
            None => break,
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn words_inside_strings_and_comments_do_not_tokenize() {
        let src = r##"
            // HashMap in a comment
            /* HashSet in /* a nested */ block */
            let a = "HashMap inside a string";
            let b = r#"HashSet raw "quoted" inside"#;
            let c = 'H';
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|i| *i == "HashMap").count(), 1);
        assert!(!ids.contains(&"HashSet".to_string()));
    }

    #[test]
    fn string_contents_are_retained_for_bl006() {
        let l = lex(r#"Counter::new("tor.cells_in")"#);
        let strs: Vec<&Tok> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "tor.cells_in");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> Ctx<'_> { 'x' }");
        let lifes: Vec<&Tok> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifes.len(), 3); // 'a, 'a, '_
        let chars: Vec<&Tok> = l.toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "x");
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let l = lex("a\n  bc");
        assert_eq!((l.toks[0].line, l.toks[0].col), (1, 1));
        assert_eq!((l.toks[1].line, l.toks[1].col), (2, 3));
    }

    #[test]
    fn comments_record_their_spans() {
        let l = lex("x /* b */ y // end");
        assert_eq!(l.comments.len(), 2);
        assert_eq!((l.comments[0].line, l.comments[0].col), (1, 3));
        assert!(l.comments[1].text.contains("end"));
    }

    #[test]
    fn ranges_do_not_glue_into_floats() {
        let l = lex("0..pool.len()");
        assert_eq!(l.toks[0].text, "0");
        assert_eq!(l.toks[0].kind, TokKind::Num);
        // Then two '.' puncts.
        assert_eq!(l.toks[1].text, ".");
        assert_eq!(l.toks[2].text, ".");
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let l = lex(r#"let x = b"enc"; let y = b'\n';"#);
        let strs: Vec<&Tok> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "enc");
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Char));
    }
}
