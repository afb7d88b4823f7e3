//! Tokenizer for the `.scn` scenario language.
//!
//! The language is line-oriented: a statement is one physical line, `#`
//! starts a comment that runs to the end of the line, and blank lines
//! separate nothing. Every token carries its 1-based line and column so
//! the parser and the static validator can point at the exact offender.
//!
//! The trace debugger's breakpoint predicates (`respect_dbg::pred`) lex
//! with [`lex`] too, so a token, unit or diagnostic changed here changes
//! them as well.

use std::fmt;

use crate::ast::Cmp;
use crate::ScnError;

/// Payload of one token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// A bare word: directive keyword, scope, field, model or scheduler
    /// name, `key` of a `key=value` pair.
    Ident(String),
    /// A numeric literal, optionally suffixed with a time unit
    /// (`120ms`, `5e-3`, `40`). The value is *unscaled*; the parser
    /// applies the unit where a duration is expected and rejects it
    /// where a plain number is expected. A literal that overflows `f64`
    /// (`1e400`) is an error, so the value is always finite.
    Number {
        /// The literal's numeric value, before any unit scaling.
        value: f64,
        /// The validated time unit, when one was written.
        unit: Option<Unit>,
    },
    /// `=`
    Assign,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// End of a physical line (statement separator).
    Newline,
}

/// A time unit suffix on a numeric literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Seconds.
    S,
    /// Milliseconds.
    Ms,
    /// Microseconds.
    Us,
    /// Nanoseconds.
    Ns,
}

impl Unit {
    /// Seconds per one of this unit.
    #[must_use]
    pub fn seconds(self) -> f64 {
        match self {
            Unit::S => 1.0,
            Unit::Ms => 1e-3,
            Unit::Us => 1e-6,
            Unit::Ns => 1e-9,
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "s" => Some(Unit::S),
            "ms" => Some(Unit::Ms),
            "us" => Some(Unit::Us),
            "ns" => Some(Unit::Ns),
            _ => None,
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::Ns => "ns",
        })
    }
}

/// One token with its source position (both 1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token payload.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the token's first character.
    pub col: usize,
}

impl Tok {
    /// The comparison operator this token spells, if any.
    #[must_use]
    pub fn comparison(&self) -> Option<Cmp> {
        Some(match self {
            Tok::Lt => Cmp::Lt,
            Tok::Le => Cmp::Le,
            Tok::Gt => Cmp::Gt,
            Tok::Ge => Cmp::Ge,
            Tok::EqEq => Cmp::Eq,
            Tok::Ne => Cmp::Ne,
            _ => return None,
        })
    }

    /// Short human name used in "expected X, found Y" diagnostics.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Number { value, unit: None } => format!("number `{value}`"),
            Tok::Number {
                value,
                unit: Some(u),
            } => format!("number `{value}{u}`"),
            Tok::Assign => "`=`".to_string(),
            Tok::Dot => "`.`".to_string(),
            Tok::LParen => "`(`".to_string(),
            Tok::RParen => "`)`".to_string(),
            Tok::Plus => "`+`".to_string(),
            Tok::Minus => "`-`".to_string(),
            Tok::Star => "`*`".to_string(),
            Tok::Slash => "`/`".to_string(),
            Tok::Lt => "`<`".to_string(),
            Tok::Le => "`<=`".to_string(),
            Tok::Gt => "`>`".to_string(),
            Tok::Ge => "`>=`".to_string(),
            Tok::EqEq => "`==`".to_string(),
            Tok::Ne => "`!=`".to_string(),
            Tok::Newline => "end of line".to_string(),
        }
    }
}

/// Tokenizes `src`. Comments and blank lines vanish; every statement
/// ends in exactly one [`Tok::Newline`] (including the last).
///
/// # Errors
///
/// [`ScnError`] pointing at the first unexpected character, malformed
/// number, or unknown time-unit suffix.
pub fn lex(src: &str) -> Result<Vec<Token>, ScnError> {
    let mut out = Vec::new();
    for (li, raw_line) in src.lines().enumerate() {
        let line = li + 1;
        let bytes: Vec<char> = raw_line.chars().collect();
        let mut i = 0usize;
        let start = out.len();
        while i < bytes.len() {
            let c = bytes[i];
            let col = i + 1;
            match c {
                '#' => break,
                c if c.is_whitespace() => {
                    i += 1;
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let s: String = bytes[i..]
                        .iter()
                        .take_while(|c| c.is_ascii_alphanumeric() || **c == '_' || **c == '-')
                        .collect();
                    i += s.chars().count();
                    out.push(Token {
                        tok: Tok::Ident(s),
                        line,
                        col,
                    });
                }
                c if c.is_ascii_digit() => {
                    let (tok, len) = lex_number(&bytes[i..], line, col)?;
                    i += len;
                    out.push(Token { tok, line, col });
                }
                '=' if bytes.get(i + 1) == Some(&'=') => {
                    i += 2;
                    out.push(Token {
                        tok: Tok::EqEq,
                        line,
                        col,
                    });
                }
                '!' if bytes.get(i + 1) == Some(&'=') => {
                    i += 2;
                    out.push(Token {
                        tok: Tok::Ne,
                        line,
                        col,
                    });
                }
                '<' if bytes.get(i + 1) == Some(&'=') => {
                    i += 2;
                    out.push(Token {
                        tok: Tok::Le,
                        line,
                        col,
                    });
                }
                '>' if bytes.get(i + 1) == Some(&'=') => {
                    i += 2;
                    out.push(Token {
                        tok: Tok::Ge,
                        line,
                        col,
                    });
                }
                '=' | '.' | '(' | ')' | '+' | '-' | '*' | '/' | '<' | '>' => {
                    let tok = match c {
                        '=' => Tok::Assign,
                        '.' => Tok::Dot,
                        '(' => Tok::LParen,
                        ')' => Tok::RParen,
                        '+' => Tok::Plus,
                        '-' => Tok::Minus,
                        '*' => Tok::Star,
                        '/' => Tok::Slash,
                        '<' => Tok::Lt,
                        _ => Tok::Gt,
                    };
                    i += 1;
                    out.push(Token { tok, line, col });
                }
                other => {
                    return Err(ScnError::at(
                        line,
                        col,
                        format!("unexpected character `{other}`"),
                    ));
                }
            }
        }
        if out.len() > start {
            out.push(Token {
                tok: Tok::Newline,
                line,
                col: bytes.len() + 1,
            });
        }
    }
    Ok(out)
}

/// Lexes one numeric literal starting at `chars[0]` (an ASCII digit):
/// `digits [ '.' digits ] [ ('e'|'E') ['+'|'-'] digits ] [ unit ]`.
fn lex_number(chars: &[char], line: usize, col: usize) -> Result<(Tok, usize), ScnError> {
    let mut i = 0usize;
    while i < chars.len() && chars[i].is_ascii_digit() {
        i += 1;
    }
    if i < chars.len() && chars[i] == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
        i += 1;
        while i < chars.len() && chars[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
        let mut j = i + 1;
        if j < chars.len() && (chars[j] == '+' || chars[j] == '-') {
            j += 1;
        }
        if j < chars.len() && chars[j].is_ascii_digit() {
            i = j;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let digits: String = chars[..i].iter().collect();
    let value: f64 = digits
        .parse()
        .map_err(|_| ScnError::at(line, col, format!("malformed number `{digits}`")))?;
    // an overflowing literal would read as infinity, which no canonical
    // rendering can spell back as a number
    if value.is_infinite() {
        return Err(ScnError::at(
            line,
            col,
            format!("number `{digits}` is out of range"),
        ));
    }
    // an alphabetic tail is a unit suffix; validate it here so `120msec`
    // fails at the suffix, not at some downstream keyword check
    let suffix: String = chars[i..]
        .iter()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect();
    if suffix.is_empty() {
        return Ok((Tok::Number { value, unit: None }, i));
    }
    let Some(unit) = Unit::parse(&suffix) else {
        return Err(ScnError::at(
            line,
            col + i,
            format!("unknown time unit `{suffix}` (expected s, ms, us, or ns)"),
        ));
    };
    Ok((
        Tok::Number {
            value,
            unit: Some(unit),
        },
        i + suffix.chars().count(),
    ))
}
