//! A small hand-rolled Rust tokenizer, aware of exactly the constructs
//! that break naive text scanning: line and (nested) block comments,
//! string/char/byte literals, raw strings with arbitrary `#` fences, and
//! the lifetime-vs-char-literal ambiguity after `'`.
//!
//! It does NOT attempt full lexical fidelity (numeric literal suffixes and
//! float forms are split crudely); the analyses in this crate only need
//! identifier/punctuation sequences with correct line numbers and correct
//! skipping of comment/string content.

/// Token classes the analyses distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`::` arrives as two `:`).
    Punct,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Numeric literal (split naively around `.`).
    Num,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (for `Punct`, a single character; strings keep only a
    /// placeholder — content is never needed and may be huge).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A `// lint:allow(rule, reason)` escape-hatch comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment appears on.
    pub line: u32,
    /// The rule being allowed (e.g. `lock_order`).
    pub rule: String,
    /// The justification text; empty means the allow is malformed.
    pub reason: String,
}

/// Tokenizer output: the token stream plus any allow comments found.
#[derive(Debug, Default)]
pub struct TokenStream {
    /// All tokens outside comments/whitespace.
    pub toks: Vec<Tok>,
    /// All `lint:allow` comments, in source order.
    pub allows: Vec<Allow>,
    /// Lines carrying a `// lint:hotpath` marker: the next function is an
    /// allocation-free hot path (see the `hotpath_alloc` rule).
    pub hotpaths: Vec<u32>,
}

/// Tokenize `src`. Never fails: unterminated constructs consume to EOF.
pub fn tokenize(src: &str) -> TokenStream {
    let b = src.as_bytes();
    let mut out = TokenStream::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                // Doc comments (`///`, `//!`) are prose, not directives —
                // mentioning lint:allow there must not create an allow.
                let is_doc = start < b.len() && (b[start] == b'/' || b[start] == b'!');
                if !is_doc {
                    scan_allow(&src[start..j], line, &mut out.allows);
                    scan_hotpath(&src[start..j], line, &mut out.hotpaths);
                }
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment. Plain ones are scanned for allows;
                // doc blocks (`/**`, `/*!`) are prose and skipped.
                let is_doc = i + 2 < b.len() && (b[i + 2] == b'*' || b[i + 2] == b'!');
                let start_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                if !is_doc {
                    scan_allow(&src[start..j.min(b.len())], start_line, &mut out.allows);
                    scan_hotpath(&src[start..j.min(b.len())], start_line, &mut out.hotpaths);
                }
                i = j;
            }
            b'"' => {
                i = scan_string(b, i, &mut line);
                out.toks.push(Tok { kind: TokKind::Str, text: String::new(), line });
            }
            b'r' | b'b' if is_raw_or_byte_start(b, i) => {
                let tok_line = line;
                let (ni, kind) = scan_raw_or_byte(b, i, &mut line);
                i = ni;
                out.toks.push(Tok { kind, text: String::new(), line: tok_line });
            }
            b'\'' => {
                let tok_line = line;
                let (ni, kind, text) = scan_quote(b, i, &mut line);
                i = ni;
                out.toks.push(Tok { kind, text, line: tok_line });
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.toks.push(Tok { kind: TokKind::Num, text: src[start..i].to_string(), line });
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Is `b[i..]` the start of a raw string (`r"`, `r#"`) or byte literal
/// (`b"`, `b'`, `br"`, `br#"`)? Plain identifiers starting with r/b fall
/// through to ident scanning.
fn is_raw_or_byte_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < b.len() && b[j] == b'\'' {
            return true;
        }
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
    } else if j < b.len() && b[j] == b'"' {
        return b[i] == b'b'; // b"…"
    } else {
        return false;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Scan a raw/byte string or byte-char starting at `i`; returns the index
/// past it and the token kind.
fn scan_raw_or_byte(b: &[u8], i: usize, line: &mut u32) -> (usize, TokKind) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < b.len() && b[j] == b'\'' {
            let (nj, _, _) = scan_quote(b, j, line);
            return (nj, TokKind::Char);
        }
    }
    let raw = j < b.len() && b[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < b.len() && b[j] == b'"');
    j += 1; // opening quote
    if raw {
        // Raw: no escapes; terminated by `"` followed by `hashes` hashes.
        while j < b.len() {
            if b[j] == b'\n' {
                *line += 1;
                j += 1;
                continue;
            }
            if b[j] == b'"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < b.len() && seen < hashes && b[k] == b'#' {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return (k, TokKind::Str);
                }
            }
            j += 1;
        }
        (j, TokKind::Str)
    } else {
        (scan_string(b, j - 1, line), TokKind::Str)
    }
}

/// Scan a `"…"` string with escapes starting at the opening quote index;
/// returns the index past the closing quote.
fn scan_string(b: &[u8], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                // A `\` line continuation still ends a source line.
                if b.get(j + 1) == Some(&b'\n') {
                    *line += 1;
                }
                j += 2;
            }
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Disambiguate `'a'` (char) from `'a` (lifetime), starting at the `'`.
/// Returns (index past token, kind, text — the lifetime name if any).
fn scan_quote(b: &[u8], i: usize, line: &mut u32) -> (usize, TokKind, String) {
    let mut j = i + 1;
    if j >= b.len() {
        return (j, TokKind::Char, String::new());
    }
    if b[j] == b'\\' {
        // Escaped char literal: consume escape then to closing quote.
        j += 2;
        while j < b.len() && b[j] != b'\'' {
            if b[j] == b'\n' {
                *line += 1;
            }
            j += 1;
        }
        return ((j + 1).min(b.len()), TokKind::Char, String::new());
    }
    if b[j] == b'_' || b[j].is_ascii_alphabetic() {
        let start = j;
        while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
            j += 1;
        }
        if j < b.len() && b[j] == b'\'' && j - start == 1 {
            // 'a' — single-char literal.
            return (j + 1, TokKind::Char, String::new());
        }
        if j < b.len() && b[j] == b'\'' && j - start > 1 {
            // Multi-char between quotes is not valid Rust, but doc text in
            // cfg'd-out macros can produce it; treat as char to stay sane.
            return (j + 1, TokKind::Char, String::new());
        }
        let name = String::from_utf8_lossy(&b[start..j]).into_owned();
        return (j, TokKind::Lifetime, name);
    }
    // Something like '9' or punctuation char literal.
    while j < b.len() && b[j] != b'\'' {
        if b[j] == b'\n' {
            *line += 1;
        }
        j += 1;
    }
    ((j + 1).min(b.len()), TokKind::Char, String::new())
}

/// Extract `lint:allow(rule, reason)` from a comment body (may contain
/// several, e.g. in a block comment spanning lines — each is attributed to
/// the comment's starting line plus its newline offset).
fn scan_allow(comment: &str, start_line: u32, out: &mut Vec<Allow>) {
    let mut line = start_line;
    for part in comment.split('\n') {
        let mut rest = part;
        while let Some(pos) = rest.find("lint:allow") {
            rest = &rest[pos + "lint:allow".len()..];
            let Some(open) = rest.find('(') else { break };
            // Nothing but whitespace may sit between `lint:allow` and `(`.
            if !rest[..open].trim().is_empty() {
                continue;
            }
            let Some(close) = rest[open..].find(')') else {
                // Unterminated: record as malformed (empty reason).
                out.push(Allow { line, rule: rest[open + 1..].trim().to_string(), reason: String::new() });
                break;
            };
            let inner = &rest[open + 1..open + close];
            let (rule, reason) = match inner.split_once(',') {
                Some((r, why)) => (r.trim().to_string(), normalize_reason(why)),
                None => (inner.trim().to_string(), String::new()),
            };
            out.push(Allow { line, rule, reason });
            rest = &rest[open + close + 1..];
        }
        line += 1;
    }
}

/// Record lines carrying a `lint:hotpath` marker (one per comment line;
/// the marker annotates the function that follows).
fn scan_hotpath(comment: &str, start_line: u32, out: &mut Vec<u32>) {
    for (line, part) in (start_line..).zip(comment.split('\n')) {
        if part.contains("lint:hotpath") {
            out.push(line);
        }
    }
}

/// Trim whitespace and one layer of quotes from an allow reason.
fn normalize_reason(raw: &str) -> String {
    let t = raw.trim();
    let t = t.strip_prefix('"').unwrap_or(t);
    let t = t.strip_suffix('"').unwrap_or(t);
    t.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn skips_line_and_nested_block_comments() {
        let src = "a // b c\n/* d /* e */ f */ g";
        assert_eq!(idents(src), vec!["a", "g"]);
    }

    #[test]
    fn skips_strings_and_raw_strings() {
        let src = r###"let x = "lock() inside"; let y = r#"also lock() " here"#; z"###;
        assert_eq!(idents(src), vec!["let", "x", "let", "y", "z"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.lock() }";
        let ids = idents(src);
        assert!(ids.contains(&"lock".to_string()), "{ids:?}");
        let lifetimes: Vec<_> = tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let src = "let c = 'a'; let n = '\\n'; let q = '\\''; done";
        assert_eq!(idents(src), vec!["let", "c", "let", "n", "let", "q", "done"]);
        let chars = tokenize(src).toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        // The second newline follows a `\` line continuation.
        let src = "let a = \"one\ntwo \\\nthree\";\nb";
        let toks = tokenize(src).toks;
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn allow_comments_are_parsed() {
        let src = "// lint:allow(lock_order, \"ordered by shard index\")\nx.lock();\n";
        let ts = tokenize(src);
        assert_eq!(ts.allows.len(), 1);
        assert_eq!(ts.allows[0].rule, "lock_order");
        assert_eq!(ts.allows[0].reason, "ordered by shard index");
        assert_eq!(ts.allows[0].line, 1);
    }

    #[test]
    fn allow_without_reason_is_flagged_as_empty() {
        let src = "// lint:allow(determinism)\nx();\n";
        let ts = tokenize(src);
        assert_eq!(ts.allows[0].rule, "determinism");
        assert!(ts.allows[0].reason.is_empty());
    }

    #[test]
    fn hotpath_markers_are_recorded_but_not_in_doc_comments() {
        let src = "// lint:hotpath\npub fn hot() {}\n/// mentions lint:hotpath in prose\nfn cold() {}\n";
        let ts = tokenize(src);
        assert_eq!(ts.hotpaths, vec![1]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"lock()\"; let c = b'x'; let r = br#\"read()\"#; end";
        assert_eq!(idents(src), vec!["let", "a", "let", "c", "let", "r", "end"]);
    }
}
