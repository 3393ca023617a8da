//! Lexer for the hypermedia markup language.
//!
//! The token stream distinguishes three things:
//! * opening tags `<NAME>` and closing tags `</NAME>`,
//! * attribute assignments `NAME=value` (value is a bare word or a
//!   double-quoted string with `\"` and `\\` escapes),
//! * free text runs.
//!
//! Attribute assignments are recognized only where the parser expects them
//! (inside media/link elements); lexically they are emitted whenever an
//! ALL-CAPS keyword is immediately followed by `=`, which matches the
//! paper's examples (`SOURCE=retrieval_options ID=component_id ...`).

use crate::keywords::{AttrKeyword, TagKeyword};
use std::fmt;

/// Source position (1-based line and column) for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `<NAME>`
    Open(TagKeyword),
    /// `</NAME>`
    Close(TagKeyword),
    /// `NAME=value`
    Attr(AttrKeyword, String),
    /// A run of free text (whitespace-normalized within the run).
    Text(String),
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Where it starts.
    pub pos: Pos,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Explanation.
    pub message: String,
    /// Where the problem was found.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Reads the source a whole character at a time (`i` is always on a
/// character boundary) and slices names, values and words out of it; `src`
/// is its bytes, for ASCII lookahead.
struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }
    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }
    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }
    fn peek_char(&self) -> Option<char> {
        match self.peek()? {
            b if b.is_ascii() => Some(b as char),
            _ => self.text[self.i..].chars().next(),
        }
    }
    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.i += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }
    /// The run of characters from the current position that `part`
    /// accepts, consumed.
    fn take_while(&mut self, part: impl Fn(char) -> bool) -> &'a str {
        let start = self.i;
        while self.peek_char().is_some_and(&part) {
            self.bump();
        }
        &self.text[start..self.i]
    }
    fn err(&self, msg: impl Into<String>) -> LexError {
        LexError {
            message: msg.into(),
            pos: self.pos(),
        }
    }

    fn lex_tag(&mut self) -> Result<Token, LexError> {
        let pos = self.pos();
        self.bump(); // '<'
        let closing = if self.peek() == Some(b'/') {
            self.bump();
            true
        } else {
            false
        };
        let name = self.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
        match self.peek() {
            Some(b'>') => {}
            Some(c) => return Err(self.err(format!("unexpected byte {:?} in tag name", c as char))),
            None => return Err(self.err("unterminated tag (missing '>')")),
        }
        self.bump();
        let kw = TagKeyword::from_spelling(name)
            .ok_or_else(|| self.err(format!("unknown tag keyword '{name}'")))?;
        Ok(Token {
            kind: if closing {
                TokenKind::Close(kw)
            } else {
                TokenKind::Open(kw)
            },
            pos,
        })
    }

    fn lex_value(&mut self) -> Result<String, LexError> {
        if self.peek() == Some(b'"') {
            self.bump();
            let mut v = String::new();
            loop {
                v.push_str(self.take_while(|c| c != '"' && c != '\\'));
                match self.bump() {
                    None => return Err(self.err("unterminated quoted value")),
                    Some('"') => break,
                    _ => match self.bump() {
                        Some('"') => v.push('"'),
                        Some('\\') => v.push('\\'),
                        Some('n') => v.push('\n'),
                        other => {
                            return Err(self.err(format!("bad escape '\\{}'", other.unwrap_or('?'))))
                        }
                    },
                }
            }
            Ok(v)
        } else {
            let v = self.take_while(|c| !c.is_ascii_whitespace() && c != '<' && c != '>');
            if v.is_empty() {
                return Err(self.err("empty attribute value"));
            }
            Ok(v.to_string())
        }
    }

    /// Try to lex a `NAME=value` attribute starting at the current position.
    /// Returns Ok(None) if the upcoming word is not an attribute assignment
    /// (caller treats it as text).
    fn try_lex_attr(&mut self) -> Result<Option<Token>, LexError> {
        let save = (self.i, self.line, self.col);
        let pos = self.pos();
        let name = self.take_while(|c| c.is_ascii_uppercase() || c == '_');
        if name.is_empty() || self.peek() != Some(b'=') {
            (self.i, self.line, self.col) = save;
            return Ok(None);
        }
        let Some(kw) = AttrKeyword::from_spelling(name) else {
            (self.i, self.line, self.col) = save;
            return Ok(None);
        };
        self.bump(); // '='
        let value = self.lex_value()?;
        Ok(Some(Token {
            kind: TokenKind::Attr(kw, value),
            pos,
        }))
    }

    /// A text run, whitespace-normalised as it is read: its words, sliced
    /// from the source, joined by single spaces. It ends at a tag or where
    /// an attribute assignment begins a word.
    fn lex_text(&mut self) -> Token {
        let pos = self.pos();
        let mut norm = String::new();
        loop {
            self.take_while(char::is_whitespace);
            match self.peek() {
                None | Some(b'<') => break,
                Some(c) if c.is_ascii_uppercase() && self.looks_like_attr() => break,
                _ => {}
            }
            if !norm.is_empty() {
                norm.push(' ');
            }
            norm.push_str(self.take_while(|c| c != '<' && !c.is_whitespace()));
        }
        Token {
            kind: TokenKind::Text(norm),
            pos,
        }
    }

    /// Lookahead: does an `ATTRKEYWORD=` assignment start here?
    fn looks_like_attr(&self) -> bool {
        let rest = &self.src[self.i..];
        let len = rest
            .iter()
            .take_while(|&&c| c.is_ascii_uppercase() || c == b'_')
            .count();
        len > 0
            && rest.get(len) == Some(&b'=')
            && AttrKeyword::from_spelling(&self.text[self.i..self.i + len]).is_some()
    }

    fn run(&mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(b'<') => {
                    if self.peek2() == Some(b'!') {
                        // Comment: <!-- ... --> (implementation convenience).
                        self.skip_comment()?;
                    } else {
                        out.push(self.lex_tag()?);
                    }
                }
                Some(_) => {
                    if let Some(tok) = self.try_lex_attr()? {
                        out.push(tok);
                    } else {
                        let tok = self.lex_text();
                        if let TokenKind::Text(t) = &tok.kind {
                            if !t.is_empty() {
                                out.push(tok);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn skip_comment(&mut self) -> Result<(), LexError> {
        // assumes "<!"
        let start = self.pos();
        self.bump();
        self.bump();
        // expect "--"
        if self.peek() != Some(b'-') || self.peek2() != Some(b'-') {
            return Err(LexError {
                message: "malformed comment (expected '<!--')".into(),
                pos: start,
            });
        }
        self.bump();
        self.bump();
        loop {
            match self.bump() {
                None => {
                    return Err(LexError {
                        message: "unterminated comment".into(),
                        pos: start,
                    })
                }
                Some('-') => {
                    if self.peek() == Some(b'-') && self.peek2() == Some(b'>') {
                        self.bump();
                        self.bump();
                        return Ok(());
                    }
                }
                Some(_) => {}
            }
        }
    }
}

/// Tokenize a complete source text.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(src).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tags_and_text() {
        let toks = kinds("<TITLE> Hello world </TITLE>");
        assert_eq!(
            toks,
            vec![
                TokenKind::Open(TagKeyword::Title),
                TokenKind::Text("Hello world".into()),
                TokenKind::Close(TagKeyword::Title),
            ]
        );
    }

    #[test]
    fn case_insensitive_tags() {
        let toks = kinds("<title>x</TiTlE>");
        assert!(matches!(toks[0], TokenKind::Open(TagKeyword::Title)));
        assert!(matches!(toks[2], TokenKind::Close(TagKeyword::Title)));
    }

    #[test]
    fn attributes_bare_and_quoted() {
        let toks = kinds(r#"<IMG> SOURCE=srv0:/imgs/logo ID=3 NOTE="a \"quoted\" note" </IMG>"#);
        assert_eq!(
            toks,
            vec![
                TokenKind::Open(TagKeyword::Img),
                TokenKind::Attr(AttrKeyword::Source, "srv0:/imgs/logo".into()),
                TokenKind::Attr(AttrKeyword::Id, "3".into()),
                TokenKind::Attr(AttrKeyword::Note, "a \"quoted\" note".into()),
                TokenKind::Close(TagKeyword::Img),
            ]
        );
    }

    #[test]
    fn text_with_embedded_uppercase_not_attr() {
        // "NATO summit" starts with caps but has no '=': it is text.
        let toks = kinds("<TEXT> NATO summit </TEXT>");
        assert_eq!(toks[1], TokenKind::Text("NATO summit".into()));
    }

    #[test]
    fn attr_boundary_inside_text() {
        // An attribute starting mid-element cuts the text run.
        let toks = kinds("<VI> intro STARTIME=2s </VI>");
        assert_eq!(
            toks,
            vec![
                TokenKind::Open(TagKeyword::Vi),
                TokenKind::Text("intro".into()),
                TokenKind::Attr(AttrKeyword::Startime, "2s".into()),
                TokenKind::Close(TagKeyword::Vi),
            ]
        );
    }

    /// Text and values are read a character at a time, not a byte: a
    /// multi-byte character survives whole, and a byte inside one is never
    /// taken for whitespace.
    #[test]
    fn non_ascii_text_and_values_survive() {
        let toks = kinds("<TEXT> café voilà tout </TEXT>");
        assert_eq!(toks[1], TokenKind::Text("café voilà tout".into()));
        let toks = kinds(r#"<IMG> NOTE="naïve" SOURCE=là ID=3 </IMG>"#);
        assert_eq!(toks[1], TokenKind::Attr(AttrKeyword::Note, "naïve".into()));
        assert_eq!(toks[2], TokenKind::Attr(AttrKeyword::Source, "là".into()));
        // A no-break space still separates words.
        let toks = kinds("<TEXT> a\u{a0}b </TEXT>");
        assert_eq!(toks[1], TokenKind::Text("a b".into()));
    }

    #[test]
    fn unknown_tag_rejected() {
        let e = tokenize("<BLINK>").unwrap_err();
        assert!(e.message.contains("unknown tag keyword"));
    }

    #[test]
    fn unterminated_tag_rejected() {
        assert!(tokenize("<TITLE").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(tokenize(r#"<IMG> NOTE="oops"#).is_err());
    }

    #[test]
    fn comments_skipped() {
        let toks = kinds("<PAR> <!-- ignore me --> <SEP>");
        assert_eq!(
            toks,
            vec![
                TokenKind::Open(TagKeyword::Par),
                TokenKind::Open(TagKeyword::Sep)
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("<PAR>\n  <SEP>").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn whitespace_normalized_in_text() {
        let toks = kinds("<TEXT>  a\n   b\t c  </TEXT>");
        assert_eq!(toks[1], TokenKind::Text("a b c".into()));
    }

    #[test]
    fn malformed_comment_rejected() {
        assert!(tokenize("<!oops>").is_err());
        assert!(tokenize("<!-- never ends").is_err());
    }
}
