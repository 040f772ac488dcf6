//! Hand-written SQL lexer.
//!
//! Produces a flat token stream that borrows from the input: identifiers
//! are slices of it, string literals are too unless they hold a doubled
//! quote, and keywords — recognised case-insensitively — are a `Copy` enum
//! the parser matches on directly. Lexing a statement allocates the token
//! buffer and nothing else.

use crate::error::ParseError;
use std::borrow::Cow;
use std::fmt;

/// A single lexical token together with its byte offset in the input.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken<'a> {
    pub token: Token<'a>,
    pub offset: usize,
}

/// SQL token kinds. `'a` is the lifetime of the lexed input.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Recognised SQL keyword (`SELECT`, `FROM`, ...), in any case.
    Keyword(Keyword),
    /// Identifier (table, column, alias, function name), quotes removed.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// Single-quoted string literal with quotes removed and escapes
    /// resolved: borrowed unless it contains `''`.
    Str(Cow<'a, str>),
    /// `?` parameter placeholder.
    Param,
    Comma,
    Dot,
    LParen,
    RParen,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `<=>` MySQL null-safe equality.
    NullSafeEq,
    /// End of input sentinel.
    Eof,
}

macro_rules! keywords {
    ($($variant:ident => $spelling:literal,)*) => {
        /// Keywords recognised by the lexer. Any other word is an identifier.
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $($variant,)*
        }

        impl Keyword {
            const ALL: &'static [Keyword] = &[$(Keyword::$variant,)*];

            /// The upper-case spelling.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $spelling,)*
                }
            }
        }
    };
}

keywords! {
    As => "AS", By => "BY", In => "IN", Is => "IS", On => "ON", Or => "OR",
    And => "AND", Asc => "ASC", Avg => "AVG", Key => "KEY", Max => "MAX", Min => "MIN",
    Not => "NOT", Set => "SET", Sum => "SUM",
    Desc => "DESC", Drop => "DROP", From => "FROM", Into => "INTO", Join => "JOIN",
    Left => "LEFT", Like => "LIKE", Null => "NULL", True => "TRUE",
    Count => "COUNT", Cross => "CROSS", False => "FALSE", Group => "GROUP", Index => "INDEX",
    Inner => "INNER", Limit => "LIMIT", Order => "ORDER", Outer => "OUTER", Right => "RIGHT",
    Table => "TABLE", Where => "WHERE",
    Create => "CREATE", Delete => "DELETE", Having => "HAVING", Insert => "INSERT",
    Offset => "OFFSET", Select => "SELECT", Unique => "UNIQUE", Update => "UPDATE",
    Values => "VALUES",
    Between => "BETWEEN", Primary => "PRIMARY",
    Distinct => "DISTINCT",
}

impl Keyword {
    /// `ALL` is sorted by spelling length; `BY_LEN[n]..BY_LEN[n + 1]` are
    /// the keywords of length `n`.
    const BY_LEN: [usize; 10] = {
        let mut starts = [0usize; 10];
        let mut i = 0;
        while i < Self::ALL.len() {
            let len = Self::ALL[i].as_str().len();
            assert!(len < 9 && (i == 0 || Self::ALL[i - 1].as_str().len() <= len));
            let mut n = len + 1;
            while n < 10 {
                starts[n] += 1;
                n += 1;
            }
            i += 1;
        }
        starts
    };

    /// The keyword `word` spells, ignoring ASCII case.
    pub fn lookup(word: &str) -> Option<Keyword> {
        let (from, to) = (
            *Self::BY_LEN.get(word.len())?,
            *Self::BY_LEN.get(word.len() + 1)?,
        );
        // Most words are identifiers: tell by the first letter, upper-cased.
        let first = word.as_bytes().first()? & !0x20;
        Self::ALL[from..to].iter().copied().find(|k| {
            let spelling = k.as_str().as_bytes();
            spelling[0] == first && spelling.eq_ignore_ascii_case(word.as_bytes())
        })
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Prints as the quoted spelling (`"SELECT"`), which is how parse errors
/// have always named a keyword token.
impl fmt::Debug for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// True if `s` lexes, unquoted, to `Token::Ident(s)`: the printer quotes
/// every other identifier.
pub(crate) fn is_bare_ident(s: &str) -> bool {
    let bytes = s.as_bytes();
    bytes
        .first()
        .is_some_and(|&c| c == b'_' || c.is_ascii_alphabetic())
        && bytes.iter().all(|&c| is_word_byte(c))
        && Keyword::lookup(s).is_none()
}

fn is_word_byte(c: u8) -> bool {
    c == b'_' || c == b'$' || c.is_ascii_alphanumeric()
}

/// Lexes `input` into a token vector terminated by [`Token::Eof`].
pub fn lex(input: &str) -> Result<Vec<SpannedToken<'_>>, ParseError> {
    let bytes = input.as_bytes();
    // SQL runs at two to three bytes a token; the buffer rarely regrows.
    let mut tokens = Vec::with_capacity(bytes.len() / 2 + 2);
    let mut i = 0usize;

    while i < bytes.len() {
        let start = i;
        let c = bytes[i];
        let token = match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'\'' => {
                let (s, next) = lex_string(input, i)?;
                i = next;
                Token::Str(s)
            }
            b'`' | b'"' => {
                let rest = &input[i + 1..];
                let Some(end) = rest.find(c as char) else {
                    return Err(ParseError::new("unterminated quoted identifier", i));
                };
                i += end + 2;
                Token::Ident(&rest[..end])
            }
            b'0'..=b'9' => {
                let (token, next) = lex_number(input, i)?;
                i = next;
                token
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                while i < bytes.len() && is_word_byte(bytes[i]) {
                    i += 1;
                }
                let word = &input[start..i];
                match Keyword::lookup(word) {
                    Some(k) => Token::Keyword(k),
                    None => Token::Ident(word),
                }
            }
            _ => {
                let (token, len) = match (c, bytes.get(i + 1), bytes.get(i + 2)) {
                    (b'<', Some(b'='), Some(b'>')) => (Token::NullSafeEq, 3),
                    (b'<', Some(b'='), _) => (Token::LtEq, 2),
                    (b'<', Some(b'>'), _) | (b'!', Some(b'='), _) => (Token::NotEq, 2),
                    (b'>', Some(b'='), _) => (Token::GtEq, 2),
                    (b'<', ..) => (Token::Lt, 1),
                    (b'>', ..) => (Token::Gt, 1),
                    (b',', ..) => (Token::Comma, 1),
                    (b'.', ..) => (Token::Dot, 1),
                    (b'(', ..) => (Token::LParen, 1),
                    (b')', ..) => (Token::RParen, 1),
                    (b';', ..) => (Token::Semicolon, 1),
                    (b'*', ..) => (Token::Star, 1),
                    (b'+', ..) => (Token::Plus, 1),
                    (b'-', ..) => (Token::Minus, 1),
                    (b'/', ..) => (Token::Slash, 1),
                    (b'%', ..) => (Token::Percent, 1),
                    (b'?', ..) => (Token::Param, 1),
                    (b'=', ..) => (Token::Eq, 1),
                    _ => {
                        // `i` is on a character boundary: every arm above
                        // consumes whole ASCII bytes or whole slices.
                        let ch = input[i..].chars().next().expect("i < len");
                        return Err(ParseError::new(
                            format!("unexpected character {ch:?}"),
                            i,
                        ));
                    }
                };
                i += len;
                token
            }
        };
        tokens.push(SpannedToken {
            token,
            offset: start,
        });
    }

    tokens.push(SpannedToken {
        token: Token::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

/// Lexes a single-quoted string starting at `start` (which must be a quote).
/// Supports `''` escaping of embedded quotes; a string without one is
/// returned as a slice of the input.
fn lex_string(input: &str, start: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let unterminated = || ParseError::new("unterminated string literal", start);
    let bytes = input.as_bytes();
    // A quote byte never occurs inside a multi-byte UTF-8 sequence, so
    // every slice below starts and ends on a character boundary.
    let mut from = start + 1;
    let mut end = from + input[from..].find('\'').ok_or_else(unterminated)?;
    if bytes.get(end + 1) != Some(&b'\'') {
        return Ok((Cow::Borrowed(&input[from..end]), end + 1));
    }
    let mut out = String::new();
    while bytes.get(end + 1) == Some(&b'\'') {
        // Keep the first quote of the pair, skip the second.
        out.push_str(&input[from..=end]);
        from = end + 2;
        end = from + input[from..].find('\'').ok_or_else(unterminated)?;
    }
    out.push_str(&input[from..end]);
    Ok((Cow::Owned(out), end + 1))
}

fn lex_number(input: &str, start: usize) -> Result<(Token<'_>, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    if is_float {
        text.parse::<f64>()
            .map(|v| (Token::Float(v), i))
            .map_err(|_| ParseError::new("invalid float literal", start))
    } else {
        text.parse::<i64>()
            .map(|v| (Token::Int(v), i))
            .map_err(|_| ParseError::new("integer literal out of range", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<Token<'_>> {
        lex(sql).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_basic_select() {
        let toks = kinds("SELECT a FROM t WHERE x = 1");
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("a"),
                Token::Keyword(Keyword::From),
                Token::Ident("t"),
                Token::Keyword(Keyword::Where),
                Token::Ident("x"),
                Token::Eq,
                Token::Int(1),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = kinds("select A from B");
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[2], Token::Keyword(Keyword::From));
    }

    #[test]
    fn lexes_operators() {
        let toks = kinds("<= >= <> != < > = <=>");
        assert_eq!(
            toks,
            vec![
                Token::LtEq,
                Token::GtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::NullSafeEq,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_string_with_escaped_quote() {
        let toks = kinds("'it''s'");
        assert_eq!(toks[0], Token::Str("it's".into()));
    }

    #[test]
    fn lexes_numbers() {
        let toks = kinds("42 3.5 1e3 2.5e-2");
        assert_eq!(toks[0], Token::Int(42));
        assert_eq!(toks[1], Token::Float(3.5));
        assert_eq!(toks[2], Token::Float(1e3));
        assert_eq!(toks[3], Token::Float(2.5e-2));
    }

    #[test]
    fn lexes_quoted_identifiers() {
        let toks = kinds("`order` \"select\"");
        assert_eq!(toks[0], Token::Ident("order"));
        assert_eq!(toks[1], Token::Ident("select"));
    }

    #[test]
    fn skips_line_comments() {
        let toks = kinds("SELECT -- comment here\n 1");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1], Token::Int(1));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(lex("SELECT #").is_err());
    }

    #[test]
    fn param_placeholder() {
        assert_eq!(kinds("?")[0], Token::Param);
    }

    #[test]
    fn every_keyword_looks_up_in_any_case() {
        assert_eq!(Keyword::ALL.len(), 48);
        for &k in Keyword::ALL {
            assert_eq!(Keyword::lookup(k.as_str()), Some(k));
            assert_eq!(Keyword::lookup(&k.as_str().to_ascii_lowercase()), Some(k));
            assert!(!is_bare_ident(k.as_str()));
        }
        for word in ["", "s", "selec", "selects", "distinctly", "se_ect", "c1"] {
            assert_eq!(Keyword::lookup(word), None, "{word}");
        }
    }

    #[test]
    fn strings_borrow_unless_they_hold_an_escape() {
        let toks = kinds("'plain' 'it''s' '' ''''");
        assert!(matches!(&toks[0], Token::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[1], Token::Str(Cow::Owned(s)) if s == "it's"));
        assert!(matches!(&toks[2], Token::Str(Cow::Borrowed(""))));
        assert_eq!(toks[3], Token::Str("'".into()));
        assert!(lex("'''").is_err());
    }

    #[test]
    fn multi_byte_text_inside_strings_and_quoted_identifiers() {
        let toks = kinds("'héllo ''wörld''' `naïve` \"日本\"");
        assert_eq!(toks[0], Token::Str("héllo 'wörld'".into()));
        assert_eq!(toks[1], Token::Ident("naïve"));
        assert_eq!(toks[2], Token::Ident("日本"));
    }

    #[test]
    fn non_ascii_outside_a_string_is_reported_whole() {
        let err = lex("SELECT é").unwrap_err();
        assert_eq!(err.message, "unexpected character 'é'");
        assert_eq!(err.offset, 7);
        assert_eq!(lex("a ! b").unwrap_err().message, "unexpected character '!'");
    }

    #[test]
    fn bare_identifiers_are_exactly_what_lexes_back() {
        for name in ["a", "_x", "c1", "t$2", "Orders"] {
            assert!(is_bare_ident(name), "{name}");
            assert_eq!(kinds(name)[0], Token::Ident(name));
        }
        for name in ["", "1a", "$a", "my col", "a-b", "naïve", "order", "Select"] {
            assert!(!is_bare_ident(name), "{name}");
        }
    }
}
