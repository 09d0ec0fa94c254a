//! Hand-written lexer for the mini-C kernel language.
//!
//! Layout: the lexer walks the bytes of the source `&str` with one cursor.
//! An identifier's token borrows its slice of the source, and a number is
//! parsed straight from its slice, so a whole lexing run allocates the token
//! vector and nothing else; only a number spelled with `_` separators copies
//! its digits once, without them. Tokens and the source's syntax are ASCII;
//! a byte at or above `0x80` starts a multi-byte character, which is decoded
//! only to ask whether it is white space or to name it in an error. Columns
//! count characters, not bytes: every character but `\n` advances the column
//! by one, white space included, and `\n` starts the next line.

use crate::error::CompileError;
use crate::token::{Span, Token, TokenKind};

/// Tokenize `source` into a vector of tokens ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`CompileError`] on unknown characters or malformed numeric
/// literals.
///
/// # Examples
///
/// ```
/// use splitc_minic::lex;
/// let tokens = lex("fn f() { return; }").unwrap();
/// assert!(tokens.len() > 5);
/// ```
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, CompileError> {
    Lexer {
        source,
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    }
    .run()
}

struct Lexer<'a> {
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn byte_at(&self, pos: usize) -> Option<u8> {
        self.bytes.get(pos).copied()
    }

    /// The (possibly multi-byte) character at the cursor.
    fn char_here(&self) -> char {
        self.source[self.pos..]
            .chars()
            .next()
            .expect("the cursor is on a character boundary")
    }

    /// Step over `n` bytes of ASCII other than `\n`.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    fn skip_trivia(&mut self) {
        while let Some(b) = self.byte_at(self.pos) {
            match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b'/' if self.byte_at(self.pos + 1) == Some(b'/') => {
                    // Up to the line end, which the next round consumes.
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    let chars = rest[..len].iter().filter(|&&c| !is_continuation(c)).count();
                    self.pos += len;
                    self.col += chars as u32;
                }
                _ if b.is_ascii() => {
                    if !char::from(b).is_whitespace() {
                        return;
                    }
                    self.advance(1);
                }
                _ => {
                    let c = self.char_here();
                    if !c.is_whitespace() {
                        return;
                    }
                    self.pos += c.len_utf8();
                    self.col += 1;
                }
            }
        }
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, CompileError> {
        // The catalogue lexes to 0.38 tokens per byte and the fuzz
        // generators' sources to 0.37–0.44, so one token per two bytes holds
        // them without growing. A token takes at least one byte, so a denser
        // source grows the vector once at most.
        let mut tokens = Vec::with_capacity(self.bytes.len() / 2 + 1);
        loop {
            self.skip_trivia();
            let span = self.span();
            let Some(b) = self.byte_at(self.pos) else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span,
                });
                return Ok(tokens);
            };
            let kind = if b.is_ascii_digit() {
                self.number(span)?
            } else if b.is_ascii_alphabetic() || b == b'_' {
                self.ident()
            } else {
                self.symbol(span)?
            };
            tokens.push(Token { kind, span });
        }
    }

    fn number(&mut self, span: Span) -> Result<TokenKind<'a>, CompileError> {
        let start = self.pos;
        let mut end = start;
        let mut is_float = false;
        while let Some(c) = self.byte_at(end) {
            let next = self.byte_at(end + 1);
            if c.is_ascii_digit() || c == b'_' {
                end += 1;
            } else if c == b'.' && !is_float && next.is_some_and(|d| d.is_ascii_digit()) {
                is_float = true;
                end += 1;
            } else if (c == b'e' || c == b'E')
                && next.is_some_and(|d| d.is_ascii_digit() || d == b'-' || d == b'+')
            {
                is_float = true;
                end += 2;
            } else {
                break;
            }
        }
        self.advance(end - start);
        let spelled = &self.source[start..end];
        let owned;
        let text = if spelled.contains('_') {
            owned = spelled.replace('_', "");
            owned.as_str()
        } else {
            spelled
        };
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| CompileError::lex(span, format!("malformed float literal `{text}`")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| CompileError::lex(span, format!("malformed integer literal `{text}`")))
        }
    }

    fn ident(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
            .unwrap_or(self.bytes.len() - start);
        self.advance(len);
        match &self.source[start..start + len] {
            "fn" => TokenKind::KwFn,
            "let" => TokenKind::KwLet,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            "as" => TokenKind::KwAs,
            text => TokenKind::Ident(text),
        }
    }

    fn symbol(&mut self, span: Span) -> Result<TokenKind<'a>, CompileError> {
        let next = self.byte_at(self.pos + 1);
        // A two-byte operator when the next byte is `second`.
        let two = |second: u8, yes: TokenKind<'a>, no: TokenKind<'a>| {
            if next == Some(second) {
                (2, yes)
            } else {
                (1, no)
            }
        };
        let (len, kind) = match self.bytes[self.pos] {
            b'(' => (1, TokenKind::LParen),
            b')' => (1, TokenKind::RParen),
            b'{' => (1, TokenKind::LBrace),
            b'}' => (1, TokenKind::RBrace),
            b'[' => (1, TokenKind::LBracket),
            b']' => (1, TokenKind::RBracket),
            b',' => (1, TokenKind::Comma),
            b';' => (1, TokenKind::Semi),
            b':' => (1, TokenKind::Colon),
            b'*' => (1, TokenKind::Star),
            b'+' => (1, TokenKind::Plus),
            b'/' => (1, TokenKind::Slash),
            b'%' => (1, TokenKind::Percent),
            b'^' => (1, TokenKind::Caret),
            b'~' => (1, TokenKind::Tilde),
            b'-' => two(b'>', TokenKind::Arrow, TokenKind::Minus),
            b'&' => two(b'&', TokenKind::AndAnd, TokenKind::Amp),
            b'|' => two(b'|', TokenKind::OrOr, TokenKind::Pipe),
            b'!' => two(b'=', TokenKind::NotEq, TokenKind::Bang),
            b'=' => two(b'=', TokenKind::EqEq, TokenKind::Assign),
            b'<' if next == Some(b'<') => (2, TokenKind::Shl),
            b'<' => two(b'=', TokenKind::Le, TokenKind::Lt),
            b'>' if next == Some(b'>') => (2, TokenKind::Shr),
            b'>' => two(b'=', TokenKind::Ge, TokenKind::Gt),
            _ => {
                return Err(CompileError::lex(
                    span,
                    format!("unexpected character `{}`", self.char_here()),
                ));
            }
        };
        self.advance(len);
        Ok(kind)
    }
}

/// `true` for the second and later bytes of a multi-byte UTF-8 character.
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_idents_and_symbols() {
        let k = kinds("fn add(a: i32) -> i32 { return a + 1; }");
        assert_eq!(k[0], TokenKind::KwFn);
        assert_eq!(k[1], TokenKind::Ident("add"));
        assert!(k.contains(&TokenKind::Arrow));
        assert!(k.contains(&TokenKind::KwReturn));
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("1_000")[0], TokenKind::Int(1000));
        assert_eq!(kinds("2.5")[0], TokenKind::Float(2.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::Float(0.25));
    }

    #[test]
    fn distinguishes_compound_operators() {
        assert_eq!(
            kinds("a <= b << c < d")
                .into_iter()
                .filter(|k| !matches!(k, TokenKind::Ident(_) | TokenKind::Eof))
                .collect::<Vec<_>>(),
            vec![TokenKind::Le, TokenKind::Shl, TokenKind::Lt]
        );
        assert_eq!(
            kinds("a && b & c || d | e")
                .into_iter()
                .filter(|k| !matches!(k, TokenKind::Ident(_) | TokenKind::Eof))
                .collect::<Vec<_>>(),
            vec![
                TokenKind::AndAnd,
                TokenKind::Amp,
                TokenKind::OrOr,
                TokenKind::Pipe
            ]
        );
        assert_eq!(
            kinds("a == b = c != d ! e")
                .into_iter()
                .filter(|k| !matches!(k, TokenKind::Ident(_) | TokenKind::Eof))
                .collect::<Vec<_>>(),
            vec![
                TokenKind::EqEq,
                TokenKind::Assign,
                TokenKind::NotEq,
                TokenKind::Bang
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_positions() {
        let toks = lex("// a comment\n  x").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x"));
        assert_eq!(toks[0].span, Span::new(2, 3));
    }

    #[test]
    fn reports_unknown_characters() {
        let err = lex("let x = $;").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(lex("99999999999999999999").is_err());
    }
}
