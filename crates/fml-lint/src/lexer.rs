//! A minimal Rust lexer: just enough token structure for line-level lint
//! rules, with none of the grammar.
//!
//! The hard part of scanning Rust for *tokens we care about* (`.lock()`,
//! `pool::run`, `vec!` inside a loop) is everything that can *contain*
//! those spellings without meaning them: line comments, nested block
//! comments, regular/raw/byte string literals, and character literals that
//! must not be confused with lifetimes.  This module resolves exactly those
//! ambiguities and emits a flat token stream plus, kept apart from it, the
//! comment text.
//!
//! It is *not* a conforming lexer: multi-character operators beyond the
//! common two/three-character ones are split, numeric suffixes are folded
//! into the literal, and no parsing happens.  That is sufficient — every
//! rule matches short token sequences, and the unit tests below pin the
//! corner cases (nested `/* /* */ */`, `r#"…"#`, `'a'` vs `'a`, doc comments
//! containing the word `unsafe`).

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `spawn`, `foo_bar`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer literal (including hex/octal/binary and tuple-index digits).
    Int,
    /// Floating-point literal (`1.0`, `2e5`, `3f64`).
    Float,
    /// String or byte-string literal; `text` holds the *contents* (quotes
    /// and raw-string hashes stripped, escapes left as written).
    Str,
    /// Character or byte-character literal (`'a'`, `b'\n'`).
    Char,
    /// Any other punctuation; common two/three-character operators (`::`,
    /// `==`, `!=`, `..=`, …) arrive as a single token.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
}

/// One comment with its 1-based *starting* line.  `doc` distinguishes
/// `///`/`//!`/`/**`/`/*!` documentation from plain comments.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: usize,
    pub text: String,
    pub doc: bool,
}

/// The output of [`lex`]: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators recognized as single `Punct` tokens, longest
/// first so `..=` is not split into `..` `=` (which would make `==`-matching
/// rules misfire on range patterns).
const OPS3: [&str; 4] = ["..=", "...", "<<=", ">>="];
const OPS2: [&str; 18] = [
    "::", "==", "!=", "<=", ">=", "->", "=>", "..", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=",
];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Lexes `src` into tokens and comments.  Never fails: unterminated
/// constructs simply run to end of input (the rustc build will report them;
/// the lint only needs to stay sound on valid code).
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        // -- whitespace ----------------------------------------------------
        if c.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        // -- comments ------------------------------------------------------
        if c == b'/' && cur.peek(1) == Some(b'/') {
            let line = cur.line;
            let start = cur.pos;
            while let Some(c) = cur.peek(0) {
                if c == b'\n' {
                    break;
                }
                cur.bump();
            }
            let text = std::str::from_utf8(&cur.src[start..cur.pos])
                .unwrap_or("")
                .to_string();
            // `///` and `//!` are doc comments; `////…` is a plain divider.
            let doc =
                (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
            out.comments.push(Comment { line, text, doc });
            continue;
        }
        if c == b'/' && cur.peek(1) == Some(b'*') {
            let line = cur.line;
            let start = cur.pos;
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            // Block comments nest in Rust: track depth.
            while depth > 0 {
                if cur.starts_with("/*") {
                    depth += 1;
                    cur.bump();
                    cur.bump();
                } else if cur.starts_with("*/") {
                    depth -= 1;
                    cur.bump();
                    cur.bump();
                } else if cur.bump().is_none() {
                    break;
                }
            }
            let text = std::str::from_utf8(&cur.src[start..cur.pos])
                .unwrap_or("")
                .to_string();
            let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
                || text.starts_with("/*!");
            out.comments.push(Comment { line, text, doc });
            continue;
        }
        // -- raw / byte string prefixes ------------------------------------
        // r"…", r#"…"#, br"…", b"…", b'…' — checked before plain idents so
        // the prefix letter is not lexed as an identifier.
        if (c == b'r' || c == b'b') && raw_or_byte_string(&mut cur, &mut out) {
            continue;
        }
        // -- identifiers ----------------------------------------------------
        if is_ident_start(c) {
            let line = cur.line;
            let start = cur.pos;
            while cur.peek(0).map(is_ident_continue).unwrap_or(false) {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                line,
            });
            continue;
        }
        // -- numbers --------------------------------------------------------
        if c.is_ascii_digit() {
            lex_number(&mut cur, &mut out);
            continue;
        }
        // -- strings --------------------------------------------------------
        if c == b'"' {
            lex_quoted(&mut cur, &mut out, b'"');
            continue;
        }
        // -- char literal vs lifetime --------------------------------------
        if c == b'\'' {
            lex_tick(&mut cur, &mut out);
            continue;
        }
        // -- punctuation ----------------------------------------------------
        let line = cur.line;
        let mut matched = None;
        for op in OPS3 {
            if cur.starts_with(op) {
                matched = Some(op);
                break;
            }
        }
        if matched.is_none() {
            for op in OPS2 {
                if cur.starts_with(op) {
                    matched = Some(op);
                    break;
                }
            }
        }
        if let Some(op) = matched {
            for _ in 0..op.len() {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: op.to_string(),
                line,
            });
        } else {
            cur.bump();
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: (c as char).to_string(),
                line,
            });
        }
    }
    out
}

/// Handles `r`/`b`-prefixed literals at the cursor.  Returns `false` (cursor
/// untouched) when the prefix is actually a plain identifier (`radius`,
/// `b`).  Raw identifiers (`r#type`) are lexed here as a *single* `Ident`
/// token whose text keeps the `r#` prefix: `r#unsafe` names an identifier,
/// never the keyword, so keyword-matching rules must not see it as `unsafe`
/// — and the parser must not see a stray `#` inside a struct body.
fn raw_or_byte_string(cur: &mut Cursor, out: &mut Lexed) -> bool {
    let c = cur.peek(0).unwrap();
    // b'…' byte char
    if c == b'b' && cur.peek(1) == Some(b'\'') {
        cur.bump();
        lex_tick(cur, out);
        return true;
    }
    // b"…" byte string
    if c == b'b' && cur.peek(1) == Some(b'"') {
        cur.bump();
        lex_quoted(cur, out, b'"');
        return true;
    }
    // r#ident — raw identifier (exactly one `#`, then an ident start).
    if c == b'r' && cur.peek(1) == Some(b'#') && cur.peek(2).map(is_ident_start).unwrap_or(false) {
        let line = cur.line;
        let start = cur.pos;
        cur.bump(); // r
        cur.bump(); // #
        while cur.peek(0).map(is_ident_continue).unwrap_or(false) {
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokenKind::Ident,
            text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
            line,
        });
        return true;
    }
    // r"…" / r#"…"# / br"…" / br#"…"#
    let mut ahead = 1;
    if c == b'b' && cur.peek(1) == Some(b'r') {
        ahead = 2;
    } else if c != b'r' {
        return false;
    }
    let mut hashes = 0usize;
    while cur.peek(ahead + hashes) == Some(b'#') {
        hashes += 1;
    }
    if cur.peek(ahead + hashes) != Some(b'"') {
        return false; // a plain ident starting with r/b
    }
    let line = cur.line;
    for _ in 0..ahead + hashes + 1 {
        cur.bump();
    }
    let start = cur.pos;
    let terminator = format!("\"{}", "#".repeat(hashes));
    let mut end = cur.pos;
    while cur.peek(0).is_some() {
        if cur.starts_with(&terminator) {
            end = cur.pos;
            for _ in 0..terminator.len() {
                cur.bump();
            }
            break;
        }
        cur.bump();
        end = cur.pos;
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text: String::from_utf8_lossy(&cur.src[start..end]).into_owned(),
        line,
    });
    true
}

/// Lexes a `"…"` (or `b"…"`) string with backslash escapes.
fn lex_quoted(cur: &mut Cursor, out: &mut Lexed, quote: u8) {
    let line = cur.line;
    cur.bump(); // opening quote
    let start = cur.pos;
    let mut end = cur.pos;
    while let Some(c) = cur.peek(0) {
        if c == b'\\' {
            cur.bump();
            cur.bump();
            end = cur.pos;
            continue;
        }
        if c == quote {
            end = cur.pos;
            cur.bump();
            break;
        }
        cur.bump();
        end = cur.pos;
    }
    out.tokens.push(Token {
        kind: TokenKind::Str,
        text: String::from_utf8_lossy(&cur.src[start..end]).into_owned(),
        line,
    });
}

/// Disambiguates `'…` — char literal or lifetime/label.
///
/// After the tick: a backslash always means a char literal (`'\n'`); an
/// identifier character followed by a closing tick is a char literal
/// (`'a'`); an identifier character *not* followed by a closing tick starts
/// a lifetime (`'a`, `'static`); anything else (e.g. `'('`) is a one-char
/// literal.
fn lex_tick(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let next = cur.peek(1);
    let after = cur.peek(2);
    let is_lifetime = match next {
        Some(c) if is_ident_start(c) => after != Some(b'\''),
        _ => false,
    };
    if is_lifetime {
        cur.bump(); // tick
        let start = cur.pos;
        while cur.peek(0).map(is_ident_continue).unwrap_or(false) {
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokenKind::Lifetime,
            text: format!("'{}", String::from_utf8_lossy(&cur.src[start..cur.pos])),
            line,
        });
        return;
    }
    // Char literal: consume to the closing tick, honoring escapes.
    cur.bump(); // opening tick
    let start = cur.pos;
    let mut end = cur.pos;
    while let Some(c) = cur.peek(0) {
        if c == b'\\' {
            cur.bump();
            cur.bump();
            end = cur.pos;
            continue;
        }
        if c == b'\'' {
            end = cur.pos;
            cur.bump();
            break;
        }
        // A char literal is at most a few bytes; bail if a stray tick opens
        // something unterminated so we cannot swallow the rest of the file.
        if cur.pos - start > 8 {
            break;
        }
        cur.bump();
        end = cur.pos;
    }
    out.tokens.push(Token {
        kind: TokenKind::Char,
        text: String::from_utf8_lossy(&cur.src[start..end]).into_owned(),
        line,
    });
}

/// Lexes a numeric literal, classifying it as `Int` or `Float`.
///
/// Float iff it has a fractional part (`1.0`, `4.`), an exponent (`2e5`), or
/// an `f32`/`f64` suffix.  `x.0` tuple indexing never reaches here with the
/// dot (the dot is lexed as punctuation first), and `1..n` keeps the range
/// operator: a dot only joins the literal when followed by a digit or by
/// nothing number-like (`4.`), never by a second dot or an identifier.
fn lex_number(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let start = cur.pos;
    let mut float = false;

    if cur.peek(0) == Some(b'0')
        && matches!(
            cur.peek(1),
            Some(b'x') | Some(b'o') | Some(b'b') | Some(b'X')
        )
    {
        cur.bump();
        cur.bump();
        while cur
            .peek(0)
            .map(|c| c.is_ascii_alphanumeric() || c == b'_')
            .unwrap_or(false)
        {
            cur.bump();
        }
    } else {
        while cur
            .peek(0)
            .map(|c| c.is_ascii_digit() || c == b'_')
            .unwrap_or(false)
        {
            cur.bump();
        }
        // fractional part
        if cur.peek(0) == Some(b'.') {
            let after = cur.peek(1);
            let joins = match after {
                Some(c) if c.is_ascii_digit() => true,
                Some(b'.') => false,                   // range `1..n`
                Some(c) if is_ident_start(c) => false, // method `1.max(..)`
                _ => true,                             // trailing `4.`
            };
            if joins {
                float = true;
                cur.bump();
                while cur
                    .peek(0)
                    .map(|c| c.is_ascii_digit() || c == b'_')
                    .unwrap_or(false)
                {
                    cur.bump();
                }
            }
        }
        // exponent
        if matches!(cur.peek(0), Some(b'e') | Some(b'E')) {
            let (sign, digit) = (cur.peek(1), cur.peek(2));
            let has_exp = match sign {
                Some(c) if c.is_ascii_digit() => true,
                Some(b'+') | Some(b'-') => digit.map(|c| c.is_ascii_digit()).unwrap_or(false),
                _ => false,
            };
            if has_exp {
                float = true;
                cur.bump();
                if matches!(cur.peek(0), Some(b'+') | Some(b'-')) {
                    cur.bump();
                }
                while cur
                    .peek(0)
                    .map(|c| c.is_ascii_digit() || c == b'_')
                    .unwrap_or(false)
                {
                    cur.bump();
                }
            }
        }
        // suffix (u32, i64, f64, usize, …) — folded into the literal
        let suffix_start = cur.pos;
        while cur.peek(0).map(is_ident_continue).unwrap_or(false) {
            cur.bump();
        }
        let suffix = &cur.src[suffix_start..cur.pos];
        if suffix.starts_with(b"f32") || suffix.starts_with(b"f64") {
            float = true;
        }
    }

    out.tokens.push(Token {
        kind: if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        },
        text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let l = lex("a /* outer /* inner */ still outer */ b");
        assert_eq!(l.tokens.len(), 2, "only `a` and `b` are code");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
        assert!(!l.comments[0].doc);
    }

    #[test]
    fn line_and_doc_comments_are_classified() {
        let l = lex("/// doc\n//! inner doc\n// plain\n//// divider\nfn x() {}");
        let docs: Vec<bool> = l.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, vec![true, true, false, false]);
        assert_eq!(l.comments[2].line, 3);
    }

    #[test]
    fn doc_comment_containing_unsafe_is_not_a_code_token() {
        let l = lex("/// this fn is unsafe to misuse\nfn safe_actually() {}");
        assert!(
            !l.tokens.iter().any(|t| t.text == "unsafe"),
            "`unsafe` inside a doc comment must not appear as a code token"
        );
        assert!(l.comments[0].text.contains("unsafe"));
    }

    #[test]
    fn raw_strings_hide_their_contents_from_code() {
        let l = lex(r###"let s = r#"unsafe { == } "quoted" "#; let t = 1;"###);
        let strs: Vec<&Token> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("unsafe"));
        assert!(
            !l.tokens
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "unsafe"),
            "raw-string contents must not leak into code tokens"
        );
        // the lexer resumes correctly after the closing `"#`
        assert!(l.tokens.iter().any(|t| t.text == "t"));
    }

    #[test]
    fn byte_and_raw_byte_strings_lex_as_strings() {
        let l = lex(r##"let a = b"bytes"; let b2 = br#"raw bytes"#;"##);
        let strs: Vec<String> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(strs, vec!["bytes".to_string(), "raw bytes".to_string()]);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let l = lex("let c = 'a'; fn f<'a>(x: &'a str) {} let n = '\\n'; 'outer: loop {}");
        let chars: Vec<String> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.clone())
            .collect();
        let lifetimes: Vec<String> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["a".to_string(), "\\n".to_string()]);
        assert_eq!(
            lifetimes,
            vec!["'a".to_string(), "'a".to_string(), "'outer".to_string()]
        );
    }

    #[test]
    fn escaped_quote_inside_string_does_not_terminate_it() {
        let l = lex(r#"let s = "with \" quote"; let x = 2;"#);
        let s = l
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("one string");
        assert_eq!(s.text, r#"with \" quote"#);
        assert!(l.tokens.iter().any(|t| t.text == "x"));
    }

    #[test]
    fn float_vs_int_classification() {
        for (src, kind) in [
            ("1.0", TokenKind::Float),
            ("4.", TokenKind::Float),
            ("2e5", TokenKind::Float),
            ("1.5e-3", TokenKind::Float),
            ("3f64", TokenKind::Float),
            ("7", TokenKind::Int),
            ("0xFF", TokenKind::Int),
            ("1_000", TokenKind::Int),
            ("42usize", TokenKind::Int),
        ] {
            let l = lex(src);
            assert_eq!(l.tokens[0].kind, kind, "literal {src:?}");
        }
        // tuple index and ranges stay integers
        let l = kinds("x.0 == y.0");
        assert!(l.iter().all(|(k, _)| *k != TokenKind::Float), "{l:?}");
        let l = kinds("for i in 1..n {}");
        assert!(l.iter().any(|(k, t)| *k == TokenKind::Punct && t == ".."));
        assert!(l.iter().all(|(k, _)| *k != TokenKind::Float));
        // method call on an integer literal
        let l = kinds("1.max(2)");
        assert!(l.iter().any(|(_, t)| t == "max"));
        assert!(l.iter().all(|(k, _)| *k != TokenKind::Float));
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let l = kinds("a == b != c ..= d :: e");
        let puncts: Vec<&str> = l
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "..=", "::"]);
    }

    #[test]
    fn unsafe_code_attribute_is_one_identifier() {
        let l = kinds("#[allow(unsafe_code)]");
        assert!(
            l.iter().any(|(_, t)| t == "unsafe_code"),
            "`unsafe_code` must not split into `unsafe` + `_code`: {l:?}"
        );
        assert!(!l.iter().any(|(_, t)| t == "unsafe"));
    }

    #[test]
    fn raw_identifiers_are_single_idents_and_never_keywords() {
        let l = kinds("struct S { r#type: u32, r#unsafe: bool }\nlet r#fn = 1;");
        assert!(
            l.iter()
                .any(|(k, t)| *k == TokenKind::Ident && t == "r#type"),
            "r#type must be one Ident token: {l:?}"
        );
        assert!(
            !l.iter().any(|(_, t)| t == "unsafe" || t == "#"),
            "r#unsafe must not leak a bare `unsafe` keyword or `#`: {l:?}"
        );
        // `r#"…"#` raw strings still lex as strings after the change.
        let l = lex(r###"let s = r#"still a string"#;"###);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "fn a() {}\n/* two\nlines */\nlet s = \"x\ny\";\nfn b() {}";
        let l = lex(src);
        let b = l.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 6);
        assert_eq!(l.comments[0].line, 2);
    }
}
