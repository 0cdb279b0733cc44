//! The LLM-SQL lexer: statement text to `(token, byte offset)` pairs.
//!
//! The walk is over `char`s, never bytes: statement text is arbitrary
//! UTF-8 (prompts, labels and compared values in any script), every token
//! offset is a byte offset on a char boundary, and string literals are
//! copied as slices of the input, so what the optimizer sees is what the
//! statement said, byte for byte.

use super::SqlError;
use crate::optimizer::CmpOp;
use std::iter::Peekable;
use std::str::CharIndices;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Tok {
    Ident(String),
    Str(String),
    /// Numeric literal, kept verbatim (`LIMIT` wants an integer, predicates
    /// may compare decimals).
    Number(String),
    LParen,
    RParen,
    Comma,
    Star,
    Cmp(CmpOp),
}

/// Consumes the run of chars `keep` accepts and returns the byte offset at
/// which it ends.
fn run_end(chars: &mut Peekable<CharIndices<'_>>, len: usize, keep: fn(char) -> bool) -> usize {
    while chars.next_if(|&(_, c)| keep(c)).is_some() {}
    chars.peek().map_or(len, |&(i, _)| i)
}

/// Reads the rest of the string literal whose opening quote sits at `open`:
/// the slices between quotes, with `''` unescaped to `'`.
fn string_literal(
    input: &str,
    chars: &mut Peekable<CharIndices<'_>>,
    open: usize,
) -> Result<String, SqlError> {
    let mut s = String::new();
    let mut segment = open + 1;
    loop {
        match chars.next() {
            Some((quote, '\'')) => {
                s.push_str(&input[segment..quote]);
                if chars.next_if(|&(_, c)| c == '\'').is_none() {
                    return Ok(s);
                }
                s.push('\'');
                segment = quote + 2;
            }
            Some(_) => {}
            None => {
                return Err(SqlError::Parse {
                    message: "unterminated string literal".into(),
                    offset: open,
                })
            }
        }
    }
}

pub(super) fn lex(input: &str) -> Result<Vec<(Tok, usize)>, SqlError> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let tok = match c {
            c if c.is_whitespace() => continue,
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            ',' => Tok::Comma,
            '*' => Tok::Star,
            '=' => Tok::Cmp(CmpOp::Eq),
            '<' if chars.next_if(|&(_, n)| n == '>').is_some() => Tok::Cmp(CmpOp::Ne),
            '<' if chars.next_if(|&(_, n)| n == '=').is_some() => Tok::Cmp(CmpOp::Le),
            '<' => Tok::Cmp(CmpOp::Lt),
            '>' if chars.next_if(|&(_, n)| n == '=').is_some() => Tok::Cmp(CmpOp::Ge),
            '>' => Tok::Cmp(CmpOp::Gt),
            '\'' => Tok::Str(string_literal(input, &mut chars, i)?),
            c if c.is_ascii_digit() => {
                let mut end = run_end(&mut chars, input.len(), |c| c.is_ascii_digit());
                // Optional decimal part: `3.5` is one literal; `3.x` is not.
                if input[end..].starts_with('.')
                    && input[end + 1..].starts_with(|c: char| c.is_ascii_digit())
                {
                    chars.next();
                    end = run_end(&mut chars, input.len(), |c| c.is_ascii_digit());
                }
                Tok::Number(input[i..end].to_string())
            }
            c if c.is_alphanumeric() || c == '_' => {
                let end = run_end(&mut chars, input.len(), |c| {
                    c.is_alphanumeric() || matches!(c, '_' | '.' | '/')
                });
                Tok::Ident(input[i..end].to_string())
            }
            c => {
                return Err(SqlError::Parse {
                    message: format!("unexpected character {c:?}"),
                    offset: i,
                })
            }
        };
        out.push((tok, i));
    }
    Ok(out)
}
