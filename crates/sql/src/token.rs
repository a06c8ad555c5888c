//! SQL lexer.
//!
//! One pass over the text gives the tokens the parser reads and the
//! statement's *shape*: its tokens joined by single spaces, keywords and
//! identifiers lowercased, and one `?` in place of each literal. Statements
//! that differ only in their constants share a shape; it keys the cluster's
//! plan cache.

use std::borrow::Cow;

use polardbx_common::{Error, Result, Value};

/// A lexical token. Identifiers and strings borrow from the text.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (uppercased check via `is_kw`).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(Cow<'a, str>),
    /// Punctuation / operators.
    Symbol(Symbol),
    /// End of input.
    Eof,
}

/// Operator and punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Symbol {
    /// The symbol as a shape spells it.
    fn text(self) -> &'static str {
        match self {
            Symbol::LParen => "(",
            Symbol::RParen => ")",
            Symbol::Comma => ",",
            Symbol::Semi => ";",
            Symbol::Dot => ".",
            Symbol::Star => "*",
            Symbol::Plus => "+",
            Symbol::Minus => "-",
            Symbol::Slash => "/",
            Symbol::Percent => "%",
            Symbol::Eq => "=",
            Symbol::Neq => "!=",
            Symbol::Lt => "<",
            Symbol::Le => "<=",
            Symbol::Gt => ">",
            Symbol::Ge => ">=",
        }
    }
}

impl Token<'_> {
    /// Does this token match keyword `kw` (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// The value of a literal token; `None` for any other token.
    fn literal(&self) -> Option<Value> {
        match self {
            Token::Int(v) => Some(Value::Int(*v)),
            Token::Float(v) => Some(Value::Double(*v)),
            Token::Str(s) => Some(Value::Str(s.to_string())),
            _ => None,
        }
    }

    pub(crate) fn is_literal(&self) -> bool {
        matches!(self, Token::Int(_) | Token::Float(_) | Token::Str(_))
    }
}

/// A statement's tokens and its shape, from one pass over its text.
#[derive(Debug)]
pub struct Lexed<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    shape: String,
}

impl<'a> Lexed<'a> {
    /// The tokens, ending with `Token::Eof`, each with its byte position.
    pub(crate) fn tokens(&self) -> &[(Token<'a>, usize)] {
        &self.tokens
    }

    /// The statement's shape: `select v from t where id = ?`.
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// Does the statement start with keyword `kw`?
    pub fn starts_with_kw(&self, kw: &str) -> bool {
        self.tokens[0].0.is_kw(kw)
    }

    /// The statement's literals, in text order: what each `?` of the
    /// shape stands for.
    pub fn literals(&self) -> Vec<Value> {
        self.tokens.iter().filter_map(|(t, _)| t.literal()).collect()
    }
}

/// Tokenize `input`: its tokens, ending with `Token::Eof`, each with its
/// byte position for error reporting, and its shape.
pub fn lex(input: &str) -> Result<Lexed<'_>> {
    let bytes = input.as_bytes();
    let mut out = Lexed {
        tokens: Vec::with_capacity(input.len() / 4 + 2),
        shape: String::with_capacity(input.len() + input.len() / 2),
    };
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        let token = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // `--` line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            '(' | ')' | ',' | ';' | '.' | '*' | '+' | '-' | '/' | '%' | '=' => {
                i += 1;
                Token::Symbol(match c {
                    '(' => Symbol::LParen,
                    ')' => Symbol::RParen,
                    ',' => Symbol::Comma,
                    ';' => Symbol::Semi,
                    '.' => Symbol::Dot,
                    '*' => Symbol::Star,
                    '+' => Symbol::Plus,
                    '-' => Symbol::Minus,
                    '/' => Symbol::Slash,
                    '%' => Symbol::Percent,
                    _ => Symbol::Eq,
                })
            }
            '!' | '<' | '>' => {
                let next = bytes.get(i + 1).copied();
                let (symbol, len) = match (c, next) {
                    ('!', Some(b'=')) | ('<', Some(b'>')) => (Symbol::Neq, 2),
                    ('<', Some(b'=')) => (Symbol::Le, 2),
                    ('>', Some(b'=')) => (Symbol::Ge, 2),
                    ('<', _) => (Symbol::Lt, 1),
                    ('>', _) => (Symbol::Gt, 1),
                    _ => return Err(Error::Parse { message: "lone '!'".into(), position: i }),
                };
                i += len;
                Token::Symbol(symbol)
            }
            '\'' => {
                // A doubled quote escapes a quote; only then is the string
                // copied out of the text.
                i += 1;
                let mut owned: Option<String> = None;
                let mut from = i;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(Error::Parse {
                                message: "unterminated string".into(),
                                position: start,
                            })
                        }
                        Some(&b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            let s = owned.get_or_insert_with(String::new);
                            s.push_str(&input[from..=i]);
                            i += 2;
                            from = i;
                        }
                        Some(&b'\'') => break,
                        Some(_) => i += 1,
                    }
                }
                let text = match owned {
                    Some(mut s) => {
                        s.push_str(&input[from..i]);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(&input[from..i]),
                };
                i += 1;
                Token::Str(text)
            }
            '0'..='9' => {
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if is_float {
                    Token::Float(text.parse::<f64>().map_err(|_| Error::Parse {
                        message: format!("bad float {text}"),
                        position: start,
                    })?)
                } else {
                    Token::Int(text.parse::<i64>().map_err(|_| Error::Parse {
                        message: format!("bad integer {text}"),
                        position: start,
                    })?)
                }
            }
            'a'..='z' | 'A'..='Z' | '_' | '`' => {
                let quoted = c == '`';
                if quoted {
                    i += 1;
                }
                let id_start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let id = &input[id_start..i];
                if quoted {
                    if bytes.get(i) != Some(&b'`') {
                        return Err(Error::Parse {
                            message: "unterminated `identifier`".into(),
                            position: start,
                        });
                    }
                    i += 1;
                }
                Token::Ident(id)
            }
            other => {
                return Err(Error::Parse {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        };
        out.push(token, start);
    }
    out.tokens.push((Token::Eof, input.len()));
    Ok(out)
}

impl<'a> Lexed<'a> {
    fn push(&mut self, token: Token<'a>, position: usize) {
        if !self.shape.is_empty() {
            self.shape.push(' ');
        }
        match &token {
            Token::Ident(id) => {
                self.shape.extend(id.chars().map(|c| c.to_ascii_lowercase()))
            }
            Token::Symbol(symbol) => self.shape.push_str(symbol.text()),
            _ if token.is_literal() => self.shape.push('?'),
            _ => {}
        }
        self.tokens.push((token, position));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        lex(s).unwrap().tokens.into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn basic_select() {
        let t = toks("SELECT a, b FROM t WHERE a >= 10;");
        assert!(t[0].is_kw("select"));
        assert_eq!(t[1], Token::Ident("a"));
        assert!(t.contains(&Token::Symbol(Symbol::Ge)));
        assert_eq!(t.last(), Some(&Token::Eof));
    }

    #[test]
    fn numbers_and_strings() {
        let t = toks("42 3.25 'it''s'");
        assert_eq!(t[0], Token::Int(42));
        assert_eq!(t[1], Token::Float(3.25));
        assert_eq!(t[2], Token::Str("it's".into()));
    }

    #[test]
    fn operators() {
        let t = toks("a != b <> c <= d >= e < f > g = h");
        let syms: Vec<_> = t
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(
            syms,
            vec![
                Symbol::Neq,
                Symbol::Neq,
                Symbol::Le,
                Symbol::Ge,
                Symbol::Lt,
                Symbol::Gt,
                Symbol::Eq
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT -- comment here\n 1");
        assert_eq!(t.len(), 3); // SELECT, 1, EOF
    }

    #[test]
    fn backtick_identifiers() {
        let t = toks("`order` . `key`");
        assert_eq!(t[0], Token::Ident("order"));
        assert_eq!(t[2], Token::Ident("key"));
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("`broken").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn a_shape_has_one_mark_per_literal_and_keeps_every_identifier() {
        let l = lex(" SELECT  v FROM t1 WHERE id = 7 AND s <> 'it''s' -- note\n").unwrap();
        assert_eq!(l.shape(), "select v from t1 where id = ? and s != ?");
        assert_eq!(l.literals(), vec![Value::Int(7), Value::str("it's")]);
        assert_ne!(lex("SELECT v FROM t2 WHERE id = 7").unwrap().shape(), l.shape());
        assert_eq!(lex("select a FROM `T` where x = 1e5").unwrap().shape(), "select a from t where x = ? e5");
        assert!(lex("UPDATE t SET v = 1").unwrap().starts_with_kw("update"));
    }
}
