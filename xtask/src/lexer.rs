//! Zero-dependency token-stream lexer for the workspace analyses.
//!
//! `cargo xtask lint` started life on a masking pass (blank out comments
//! and literals, then substring-scan). The static analyses introduced with
//! `cargo xtask analyze` need more structure than a masked string offers:
//! which function a token belongs to, how deep inside nested blocks it
//! sits, and what a string literal *actually contains* once escapes are
//! resolved. This module lexes a Rust source file into a flat token vector
//! with per-token line numbers and brace depth, then runs a lightweight
//! item parser over it that recovers `fn` bodies and `#[cfg(test)]`
//! regions.
//!
//! It is deliberately not a full Rust parser (`syn` is not in the vendored
//! crate set, and the invariants we check don't need one): no expression
//! trees, no type resolution, no macro expansion. Tokens are enough to ask
//! "is this identifier a real code token?", "which fn body is it in?", and
//! "what locks are constructed/acquired around here?" — the questions the
//! lint rules and the concurrency analyses actually ask.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `RwLock`, ...).
    Ident,
    /// Lifetime (`'a`, `'static`) — kept distinct so `'x'` vs `'x` is
    /// never confused.
    Lifetime,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`); the token
    /// text is the **unescaped** content, not the raw spelling.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// A single punctuation byte (`.`, `(`, `{`, `=`, ...).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Ident/Punct/Num: the raw text. Str: the unescaped literal value.
    pub text: String,
    /// 1-based source line of the token's first byte.
    pub line: usize,
    /// Brace (`{}`) nesting depth *before* this token is consumed; the
    /// `{` that opens a block carries the depth outside it.
    pub depth: usize,
}

impl Tok {
    /// Is this the punctuation byte `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes() == [c as u8]
    }

    /// Is this the identifier `w`?
    pub fn is_ident(&self, w: &str) -> bool {
        self.kind == TokKind::Ident && self.text == w
    }
}

/// A `fn` item recovered by the item parser.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token-index range of the body **including** its `{` and `}`;
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]` region (or annotated `#[test]`)?
    pub in_test: bool,
}

/// A lexed file: tokens plus derived structure.
#[derive(Debug)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    /// All `fn` items in source order (nested fns appear after their
    /// enclosing fn; closures are not items).
    pub fns: Vec<FnItem>,
    /// Token-index ranges covered by `#[cfg(test)]`-gated blocks.
    test_ranges: Vec<(usize, usize)>,
}

impl Lexed {
    /// Lex `src` and parse item structure.
    pub fn new(src: &str) -> Lexed {
        let toks = lex(src);
        let test_ranges = find_test_ranges(&toks);
        let fns = parse_fns(&toks, &test_ranges);
        Lexed {
            toks,
            fns,
            test_ranges,
        }
    }

    /// Is token index `i` inside a `#[cfg(test)]` region?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// 1-based line numbers of every occurrence of `word` as an identifier
    /// token (never inside comments or literals — those aren't tokens).
    pub fn ident_lines(&self, word: &str) -> Vec<usize> {
        self.toks
            .iter()
            .filter(|t| t.is_ident(word))
            .map(|t| t.line)
            .collect()
    }
}

// ------------------------------------------------------------------ lexer --

fn lex(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut depth = 0usize;

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if next == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if next == Some(b'*') => {
                let mut d = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        d += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        d -= 1;
                        i += 2;
                        if d == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                let (value, end) = unescape_string(bytes, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: value,
                    line: start_line,
                    depth,
                });
                i = end;
            }
            b'r' | b'b' if is_string_prefix(bytes, i) => {
                let start_line = line;
                let mut j = i;
                let mut raw = false;
                while bytes[j] == b'r' || bytes[j] == b'b' {
                    raw |= bytes[j] == b'r';
                    j += 1;
                }
                let (value, end) = if raw {
                    raw_string(bytes, j, &mut line)
                } else {
                    unescape_string(bytes, j, &mut line)
                };
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: value,
                    line: start_line,
                    depth,
                });
                i = end;
            }
            b'\'' => {
                // Char literal or lifetime.
                if let Some(end) = char_literal_end(bytes, i) {
                    let nl = bytes[i..end].iter().filter(|&&c| c == b'\n').count();
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                        depth,
                    });
                    line += nl;
                    i = end;
                } else {
                    // Lifetime: `'` + ident.
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: String::from_utf8_lossy(&bytes[i..j]).into_owned(),
                        line,
                        depth,
                    });
                    i = j;
                }
            }
            _ if b.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'.')
                {
                    // Stop a float at `..` (range) or `.ident` (method call).
                    if bytes[j] == b'.'
                        && !bytes.get(j + 1).copied().unwrap_or(b' ').is_ascii_digit()
                    {
                        break;
                    }
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: String::from_utf8_lossy(&bytes[i..j]).into_owned(),
                    line,
                    depth,
                });
                i = j;
            }
            _ if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] >= 0x80)
                {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&bytes[i..j]).into_owned(),
                    line,
                    depth,
                });
                i = j;
            }
            _ => {
                if b == b'}' {
                    depth = depth.saturating_sub(1);
                }
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    depth,
                });
                if b == b'{' {
                    depth += 1;
                }
                i += 1;
            }
        }
    }
    toks
}

/// Does `bytes[i..]` start a raw/byte string prefix (`r"`, `r#`, `br"`,
/// `b"`, ...) rather than an identifier like `result`?
fn is_string_prefix(bytes: &[u8], i: usize) -> bool {
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Consume a normal string starting at its opening quote, resolving
/// escapes (`\"`, `\\`, `\n`, `\u{…}`, line-continuations). Returns the
/// unescaped value and the index one past the closing quote.
fn unescape_string(bytes: &[u8], start: usize, line: &mut usize) -> (String, usize) {
    let mut value = Vec::new();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                match bytes[i + 1] {
                    b'n' => value.push(b'\n'),
                    b't' => value.push(b'\t'),
                    b'r' => value.push(b'\r'),
                    b'0' => value.push(0),
                    b'\n' => {
                        // Line continuation: swallow the newline and
                        // following indentation.
                        *line += 1;
                        i += 2;
                        while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
                            i += 1;
                        }
                        continue;
                    }
                    b'u' => {
                        // \u{XXXX}: skip to the closing brace.
                        let mut j = i + 2;
                        while j < bytes.len() && bytes[j] != b'}' {
                            j += 1;
                        }
                        value.push(b'?'); // placeholder; rules only need ASCII shape
                        i = j + 1;
                        continue;
                    }
                    other => value.push(other), // \", \\, \'
                }
                i += 2;
            }
            b'"' => {
                return (String::from_utf8_lossy(&value).into_owned(), i + 1);
            }
            b'\n' => {
                *line += 1;
                value.push(b'\n');
                i += 1;
            }
            c => {
                value.push(c);
                i += 1;
            }
        }
    }
    (String::from_utf8_lossy(&value).into_owned(), i)
}

/// Consume a raw string starting at its `#`s or opening quote. Returns the
/// literal value (raw strings have no escapes) and the index one past the
/// closing delimiter.
fn raw_string(bytes: &[u8], start: usize, line: &mut usize) -> (String, usize) {
    let mut i = start;
    let mut hashes = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'"' {
        return (String::new(), i);
    }
    i += 1;
    let body_start = i;
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            let value = String::from_utf8_lossy(&bytes[body_start..i]).into_owned();
            return (value, i + 1 + hashes);
        }
        if bytes[i] == b'\n' {
            *line += 1;
        }
        i += 1;
    }
    (
        String::from_utf8_lossy(&bytes[body_start..i]).into_owned(),
        i,
    )
}

/// If a char literal starts at `i`, return the index one past its closing
/// quote; `None` for lifetimes.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    if bytes[j] == b'\\' {
        j += 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return (j < bytes.len()).then_some(j + 1);
    }
    let s = std::str::from_utf8(&bytes[j..]).ok()?;
    let c = s.chars().next()?;
    let after = j + c.len_utf8();
    (bytes.get(after) == Some(&b'\'')).then(|| after + 1)
}

// ----------------------------------------------------------------- parser --

/// Token-index ranges covered by `#[cfg(test)]`-gated items (the gated
/// item's whole brace block).
fn find_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `#` `[` `cfg` `(` `test` `)` `]`
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
        {
            // The gated item's body: next `{` at or below the attribute's
            // depth, spanning to its matching `}`.
            if let Some(open) = (i + 7..toks.len()).find(|&j| toks[j].is_punct('{')) {
                if let Some(close) = matching_close(toks, open) {
                    ranges.push((i, close));
                    i = open + 1; // nested cfg(test) inside is redundant
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

/// Index of the bracket matching the `{`, `(` or `[` at `open`.
pub fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let (o, c) = match toks.get(open)?.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn parse_fns(toks: &[Tok], test_ranges: &[(usize, usize)]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            // Scan forward past generics/args/return type for either the
            // body `{` or a terminating `;` (trait method declaration).
            // Parens and angle brackets can nest; only `(`/`)` need
            // balancing because `{` cannot appear in an argument list
            // outside a nested closure body (which always follows a `(`).
            let mut j = i + 2;
            let mut paren = 0usize;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren = paren.saturating_sub(1);
                } else if paren == 0 && t.is_punct('{') {
                    if let Some(close) = matching_close(toks, j) {
                        body = Some((j, close));
                    }
                    break;
                } else if paren == 0 && t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            let in_test =
                test_ranges.iter().any(|&(s, e)| i >= s && i <= e) || has_test_attr(toks, i);
            fns.push(FnItem {
                name,
                body,
                in_test,
            });
        }
        i += 1;
    }
    fns
}

/// Does the fn keyword at `i` have a `#[test]`-like attribute directly
/// before it (allowing for visibility and other attributes in between)?
fn has_test_attr(toks: &[Tok], fn_idx: usize) -> bool {
    // Walk backwards over `pub`, `crate`, `(`, `)`, `]` ... collecting
    // attribute idents until something that can't precede a fn item.
    let mut j = fn_idx;
    let mut steps = 0;
    while j > 0 && steps < 24 {
        j -= 1;
        steps += 1;
        let t = &toks[j];
        if t.is_ident("test") || t.is_ident("should_panic") {
            // Only count it when it's inside `#[...]`.
            if j >= 2 && toks[j - 1].is_punct('[') && toks[j - 2].is_punct('#') {
                return true;
            }
        }
        if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_literals_are_not_ident_tokens() {
        let l = Lexed::new(
            "let x = 1; // RwLock here\nlet s = \"thread_rng inside\";\n/* Instant */ let y = 2;",
        );
        assert!(l.ident_lines("RwLock").is_empty());
        assert!(l.ident_lines("thread_rng").is_empty());
        assert!(l.ident_lines("Instant").is_empty());
        assert_eq!(l.ident_lines("x"), vec![1]);
        assert_eq!(l.ident_lines("y"), vec![3]);
    }

    #[test]
    fn code_identifiers_survive() {
        let l = Lexed::new("use std::sync::RwLock;\nlet t = Instant::now();");
        assert_eq!(l.ident_lines("RwLock"), vec![1]);
        assert_eq!(l.ident_lines("Instant"), vec![2]);
    }

    #[test]
    fn string_escapes_are_resolved() {
        let l = Lexed::new(r#"m.counter("web.a\"b", "");"#);
        let lit: Vec<&Tok> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(lit[0].text, "web.a\"b");
        assert_eq!(lit[1].text, "");
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let l = Lexed::new(r##"let r = r#"Sys"Time"#; let lt: &'static str = "x"; let c = 'q';"##);
        let strs: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["Sys\"Time", "x"]);
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn fn_items_and_bodies() {
        let src = "pub fn alpha(x: u32) -> u32 { x + 1 }\nfn beta() { if true { alpha(2); } }\ntrait T { fn decl(&self); }";
        let l = Lexed::new(src);
        let names: Vec<&str> = l.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "decl"]);
        assert!(l.fns[0].body.is_some());
        assert!(l.fns[2].body.is_none());
    }

    #[test]
    fn cfg_test_regions() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn real2() {}";
        let l = Lexed::new(src);
        let real = l.fns.iter().find(|f| f.name == "real").unwrap();
        let t = l.fns.iter().find(|f| f.name == "t").unwrap();
        let real2 = l.fns.iter().find(|f| f.name == "real2").unwrap();
        assert!(!real.in_test);
        assert!(t.in_test);
        assert!(!real2.in_test);
    }

    #[test]
    fn test_attr_marks_fn() {
        let l = Lexed::new("#[test]\nfn unit() { z.unwrap(); }\n");
        assert!(l.fns[0].in_test);
    }

    #[test]
    fn depth_tracking() {
        let l = Lexed::new("fn f() { { inner(); } outer(); }");
        let inner = l.toks.iter().find(|t| t.is_ident("inner")).unwrap();
        let outer = l.toks.iter().find(|t| t.is_ident("outer")).unwrap();
        assert_eq!(inner.depth, 2);
        assert_eq!(outer.depth, 1);
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let l = Lexed::new("let a = 1.max(2); let b = 1.5; let r = 0..10;");
        assert_eq!(l.ident_lines("max"), vec![1]);
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1.5"));
    }
}
