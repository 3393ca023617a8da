//! Recursive-descent parser for the markup language, following the BNF
//! grammar of paper Fig. 1.
//!
//! `<Hdocument> ::= TITLE STRING END_TITLE <HSentence>` where each
//! `<HSentence>` is headings + main body + separator. The parser is strict
//! about element structure (unknown attributes for an element, mismatched
//! close tags and missing mandatory attributes are errors) but tolerant
//! about ordering of attributes inside an element.

use crate::ast::*;
use crate::keywords::{AttrKeyword, TagKeyword};
use crate::lexer::{tokenize, LexError, Pos, Token, TokenKind};
use crate::values::{
    parse_dimension, parse_doc_target, parse_duration, parse_host, parse_id, parse_link_kind,
    parse_source, parse_time, parse_where, region_from_parts, SourceRef,
};
use hermes_core::{HeadingLevel, LinkKind, MediaTime, TextStyle};
use std::fmt;

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// Position of the offending token (or end of input).
    pub pos: Option<Pos>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "parse error at {}: {}", p, self.message),
            None => write!(f, "parse error at end of input: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            pos: Some(e.pos),
        }
    }
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

type PResult<T> = Result<T, ParseError>;
/// The attribute set of an element plus its `NOTE` annotation.
type AttrSet = (Vec<(AttrKeyword, String, Pos)>, Option<String>);
/// The parsed attribute bundle shared by `<AU>`-like elements.
type AudioAttrs = (
    Option<SourceRef>,
    Timing,
    Option<u64>,
    Option<String>,
    Option<String>,
);

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }
    /// Take the next token. It is moved out, not cloned: the parser never
    /// looks back, so the slot keeps only its position.
    fn bump(&mut self) -> Option<Token> {
        let slot = self.toks.get_mut(self.i)?;
        self.i += 1;
        let spent = Token {
            kind: TokenKind::Text(String::new()),
            pos: slot.pos,
        };
        Some(std::mem::replace(slot, spent))
    }
    /// Take the next token, which the caller has peeked is an attribute.
    fn bump_attr(&mut self) -> (AttrKeyword, String, Pos) {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Attr(a, v),
                pos,
            }) => (a, v, pos),
            _ => unreachable!("peeked an attribute"),
        }
    }
    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            pos: self.peek().map(|t| t.pos),
        }
    }
    fn expect_open(&mut self, kw: TagKeyword) -> PResult<()> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Open(k),
                ..
            }) if k == kw => Ok(()),
            Some(t) => Err(ParseError {
                message: format!("expected <{kw}>, found {:?}", t.kind),
                pos: Some(t.pos),
            }),
            None => Err(ParseError {
                message: format!("expected <{kw}>"),
                pos: None,
            }),
        }
    }
    fn expect_close(&mut self, kw: TagKeyword) -> PResult<()> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Close(k),
                ..
            }) if k == kw => Ok(()),
            Some(t) => Err(ParseError {
                message: format!("expected </{kw}>, found {:?}", t.kind),
                pos: Some(t.pos),
            }),
            None => Err(ParseError {
                message: format!("unclosed <{kw}>"),
                pos: None,
            }),
        }
    }
    fn take_text(&mut self) -> PResult<String> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Text(s),
                ..
            }) => Ok(s),
            Some(t) => Err(ParseError {
                message: format!("expected text, found {:?}", t.kind),
                pos: Some(t.pos),
            }),
            None => Err(ParseError {
                message: "expected text".into(),
                pos: None,
            }),
        }
    }

    fn document(&mut self) -> PResult<HmlDocument> {
        self.expect_open(TagKeyword::Title)?;
        let title = self.take_text()?;
        self.expect_close(TagKeyword::Title)?;
        let mut sentences = Vec::new();
        while self.peek().is_some() {
            sentences.push(self.sentence()?);
        }
        Ok(HmlDocument { title, sentences })
    }

    fn sentence(&mut self) -> PResult<HSentence> {
        let mut headings = Vec::new();
        while let Some(Token {
            kind: TokenKind::Open(kw),
            ..
        }) = self.peek()
        {
            let level = match kw {
                TagKeyword::H1 => HeadingLevel::H1,
                TagKeyword::H2 => HeadingLevel::H2,
                TagKeyword::H3 => HeadingLevel::H3,
                _ => break,
            };
            let kw = *kw;
            self.bump();
            let text = self.take_text()?;
            self.expect_close(kw)?;
            headings.push(Heading { level, text });
        }
        let mut body = Vec::new();
        let mut separator = false;
        loop {
            match self.peek() {
                None => break,
                Some(Token {
                    kind: TokenKind::Open(kw),
                    ..
                }) => match kw {
                    // A heading starts the next sentence — but only if this
                    // sentence already has content; otherwise it was consumed
                    // above.
                    TagKeyword::H1 | TagKeyword::H2 | TagKeyword::H3 => break,
                    TagKeyword::Sep => {
                        self.bump();
                        separator = true;
                        break;
                    }
                    TagKeyword::Par => {
                        self.bump();
                        body.push(BodyItem::Paragraph);
                    }
                    TagKeyword::Text => body.push(BodyItem::Text(self.text_elem()?)),
                    TagKeyword::Img => body.push(BodyItem::Image(self.image_elem()?)),
                    TagKeyword::Au => body.push(BodyItem::Audio(self.audio_elem()?)),
                    TagKeyword::Vi => body.push(BodyItem::Video(self.video_elem()?)),
                    TagKeyword::AuVi => body.push(BodyItem::AudioVideo(self.au_vi_elem()?)),
                    TagKeyword::Hlink => body.push(BodyItem::Link(self.link_elem()?)),
                    TagKeyword::Title => {
                        return Err(self.err_here("duplicate <TITLE> — only one per document"))
                    }
                    TagKeyword::Bold | TagKeyword::Italic | TagKeyword::Underline => {
                        return Err(self.err_here("style span outside <TEXT>"))
                    }
                },
                Some(t) => {
                    return Err(ParseError {
                        message: format!("unexpected {:?} in sentence body", t.kind),
                        pos: Some(t.pos),
                    })
                }
            }
        }
        Ok(HSentence {
            headings,
            body,
            separator,
        })
    }

    fn text_elem(&mut self) -> PResult<TextElem> {
        self.expect_open(TagKeyword::Text)?;
        let mut runs = Vec::new();
        let mut timing = Timing::default();
        let mut id = None;
        self.styled_runs(TextStyle::PLAIN, &mut runs, &mut timing, &mut id)?;
        self.expect_close(TagKeyword::Text)?;
        Ok(TextElem { runs, timing, id })
    }

    /// Collect styled runs until the matching close of the *enclosing* tag is
    /// visible (we stop before any Close token and let the caller consume it).
    fn styled_runs(
        &mut self,
        style: TextStyle,
        runs: &mut Vec<AstTextRun>,
        timing: &mut Timing,
        id: &mut Option<u64>,
    ) -> PResult<()> {
        loop {
            match self.peek() {
                Some(Token {
                    kind: TokenKind::Text(_),
                    ..
                }) => {
                    let text = self.take_text()?;
                    runs.push(AstTextRun { text, style });
                }
                Some(Token {
                    kind: TokenKind::Attr(..),
                    ..
                }) => {
                    let (a, v, pos) = self.bump_attr();
                    match a {
                        AttrKeyword::Startime => {
                            timing.start = Some(parse_time(&v).map_err(|e| ParseError {
                                message: e.to_string(),
                                pos: Some(pos),
                            })?)
                        }
                        AttrKeyword::Duration => {
                            timing.duration = Some(parse_duration(&v).map_err(|e| ParseError {
                                message: e.to_string(),
                                pos: Some(pos),
                            })?)
                        }
                        AttrKeyword::Id => {
                            *id = Some(parse_id(&v).map_err(|e| ParseError {
                                message: e.to_string(),
                                pos: Some(pos),
                            })?)
                        }
                        other => {
                            return Err(ParseError {
                                message: format!("attribute {other} not allowed in <TEXT>"),
                                pos: Some(pos),
                            })
                        }
                    }
                }
                Some(Token {
                    kind: TokenKind::Open(kw),
                    ..
                }) if kw.is_style() => {
                    let kw = *kw;
                    self.bump();
                    let inner = match kw {
                        TagKeyword::Bold => TextStyle {
                            bold: true,
                            ..style
                        },
                        TagKeyword::Italic => TextStyle {
                            italic: true,
                            ..style
                        },
                        TagKeyword::Underline => TextStyle {
                            underline: true,
                            ..style
                        },
                        _ => unreachable!(),
                    };
                    self.styled_runs(inner, runs, timing, id)?;
                    self.expect_close(kw)?;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Collect the attribute set of a media/link element until its close tag.
    fn attrs_until_close(&mut self, kw: TagKeyword) -> PResult<AttrSet> {
        self.expect_open(kw)?;
        let mut attrs = Vec::new();
        let mut note: Option<String> = None;
        loop {
            match self.peek() {
                Some(Token {
                    kind: TokenKind::Attr(..),
                    ..
                }) => {
                    let item = self.bump_attr();
                    if item.0 == AttrKeyword::Note {
                        note = Some(item.1);
                    } else {
                        attrs.push(item);
                    }
                }
                Some(Token {
                    kind: TokenKind::Close(k),
                    ..
                }) if *k == kw => {
                    self.bump();
                    return Ok((attrs, note));
                }
                Some(t) => {
                    return Err(ParseError {
                        message: format!("unexpected {:?} inside <{kw}>", t.kind),
                        pos: Some(t.pos),
                    })
                }
                None => {
                    return Err(ParseError {
                        message: format!("unclosed <{kw}>"),
                        pos: None,
                    })
                }
            }
        }
    }

    fn image_elem(&mut self) -> PResult<ImageElem> {
        let (attrs, note) = self.attrs_until_close(TagKeyword::Img)?;
        let mut source = None;
        let mut timing = Timing::default();
        let (mut at, mut w, mut h) = (None, None, None);
        let mut id = None;
        let mut encoding = None;
        for (a, v, pos) in attrs {
            let map = |e: crate::values::ValueError| ParseError {
                message: e.to_string(),
                pos: Some(pos),
            };
            match a {
                AttrKeyword::Source => source = Some(parse_source(&v).map_err(map)?),
                AttrKeyword::Startime => timing.start = Some(parse_time(&v).map_err(map)?),
                AttrKeyword::Duration => timing.duration = Some(parse_duration(&v).map_err(map)?),
                AttrKeyword::Where => at = Some(parse_where(&v).map_err(map)?),
                AttrKeyword::Width => w = Some(parse_dimension(&v).map_err(map)?),
                AttrKeyword::Height => h = Some(parse_dimension(&v).map_err(map)?),
                AttrKeyword::Id => id = Some(parse_id(&v).map_err(map)?),
                AttrKeyword::EncodingAttr => encoding = Some(v),
                other => {
                    return Err(ParseError {
                        message: format!("attribute {other} not allowed in <IMG>"),
                        pos: Some(pos),
                    })
                }
            }
        }
        Ok(ImageElem {
            source: source.ok_or_else(|| ParseError {
                message: "<IMG> requires SOURCE".into(),
                pos: None,
            })?,
            timing,
            region: region_from_parts(at, w, h),
            id,
            note,
            encoding,
        })
    }

    fn audio_attrs(
        &mut self,
        attrs: Vec<(AttrKeyword, String, Pos)>,
        ctx: &str,
    ) -> PResult<AudioAttrs> {
        let mut source = None;
        let mut timing = Timing::default();
        let mut id = None;
        let mut encoding = None;
        let mut sync = None;
        for (a, v, pos) in attrs {
            let map = |e: crate::values::ValueError| ParseError {
                message: e.to_string(),
                pos: Some(pos),
            };
            match a {
                AttrKeyword::Source => source = Some(parse_source(&v).map_err(map)?),
                AttrKeyword::Startime => timing.start = Some(parse_time(&v).map_err(map)?),
                AttrKeyword::Duration => timing.duration = Some(parse_duration(&v).map_err(map)?),
                AttrKeyword::Id => id = Some(parse_id(&v).map_err(map)?),
                AttrKeyword::EncodingAttr => encoding = Some(v),
                AttrKeyword::Sync => sync = Some(v),
                other => {
                    return Err(ParseError {
                        message: format!("attribute {other} not allowed in <{ctx}>"),
                        pos: Some(pos),
                    })
                }
            }
        }
        Ok((source, timing, id, encoding, sync))
    }

    fn audio_elem(&mut self) -> PResult<AudioElem> {
        let (attrs, note) = self.attrs_until_close(TagKeyword::Au)?;
        let (source, timing, id, encoding, sync) = self.audio_attrs(attrs, "AU")?;
        Ok(AudioElem {
            source: source.ok_or_else(|| ParseError {
                message: "<AU> requires SOURCE".into(),
                pos: None,
            })?,
            timing,
            id,
            note,
            encoding,
            sync,
        })
    }

    fn video_elem(&mut self) -> PResult<VideoElem> {
        let (attrs, note) = self.attrs_until_close(TagKeyword::Vi)?;
        let mut source = None;
        let mut timing = Timing::default();
        let (mut at, mut w, mut h) = (None, None, None);
        let mut id = None;
        let mut encoding = None;
        let mut sync = None;
        for (a, v, pos) in attrs {
            let map = |e: crate::values::ValueError| ParseError {
                message: e.to_string(),
                pos: Some(pos),
            };
            match a {
                AttrKeyword::Source => source = Some(parse_source(&v).map_err(map)?),
                AttrKeyword::Startime => timing.start = Some(parse_time(&v).map_err(map)?),
                AttrKeyword::Duration => timing.duration = Some(parse_duration(&v).map_err(map)?),
                AttrKeyword::Where => at = Some(parse_where(&v).map_err(map)?),
                AttrKeyword::Width => w = Some(parse_dimension(&v).map_err(map)?),
                AttrKeyword::Height => h = Some(parse_dimension(&v).map_err(map)?),
                AttrKeyword::Id => id = Some(parse_id(&v).map_err(map)?),
                AttrKeyword::EncodingAttr => encoding = Some(v),
                AttrKeyword::Sync => sync = Some(v),
                other => {
                    return Err(ParseError {
                        message: format!("attribute {other} not allowed in <VI>"),
                        pos: Some(pos),
                    })
                }
            }
        }
        Ok(VideoElem {
            source: source.ok_or_else(|| ParseError {
                message: "<VI> requires SOURCE".into(),
                pos: None,
            })?,
            timing,
            region: region_from_parts(at, w, h),
            id,
            note,
            encoding,
            sync,
        })
    }

    /// `<AU_VI>`: per the grammar the element carries paired attributes —
    /// audio's first, video's second: `STARTIME= STARTIME= SOURCE= SOURCE=
    /// ID= ID=`. A single `STARTIME`/`DURATION` applies to both halves.
    /// If two start times are given they must be equal ("the two media
    /// should start and stop playing at the same time").
    fn au_vi_elem(&mut self) -> PResult<AudioVideoElem> {
        let (attrs, note) = self.attrs_until_close(TagKeyword::AuVi)?;
        let mut starts: Vec<MediaTime> = Vec::new();
        let mut durations = Vec::new();
        let mut sources: Vec<SourceRef> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut encodings: Vec<String> = Vec::new();
        for (a, v, pos) in attrs {
            let map = |e: crate::values::ValueError| ParseError {
                message: e.to_string(),
                pos: Some(pos),
            };
            match a {
                AttrKeyword::Startime => starts.push(parse_time(&v).map_err(map)?),
                AttrKeyword::Duration => durations.push(parse_duration(&v).map_err(map)?),
                AttrKeyword::Source => sources.push(parse_source(&v).map_err(map)?),
                AttrKeyword::Id => ids.push(parse_id(&v).map_err(map)?),
                AttrKeyword::EncodingAttr => encodings.push(v),
                other => {
                    return Err(ParseError {
                        message: format!("attribute {other} not allowed in <AU_VI>"),
                        pos: Some(pos),
                    })
                }
            }
        }
        if sources.len() != 2 {
            return Err(ParseError {
                message: format!(
                    "<AU_VI> requires exactly two SOURCE attributes, got {}",
                    sources.len()
                ),
                pos: None,
            });
        }
        if starts.len() > 2 || durations.len() > 2 || ids.len() > 2 {
            return Err(ParseError {
                message: "<AU_VI> allows at most two of each timing/id attribute".into(),
                pos: None,
            });
        }
        if starts.len() == 2 && starts[0] != starts[1] {
            return Err(ParseError {
                message: "<AU_VI> start times must be equal (the pair starts together)".into(),
                pos: None,
            });
        }
        if durations.len() == 2 && durations[0] != durations[1] {
            return Err(ParseError {
                message: "<AU_VI> durations must be equal (the pair stops together)".into(),
                pos: None,
            });
        }
        let start = starts.first().copied();
        let duration = durations.first().copied();
        let timing = Timing { start, duration };
        let mut src_it = sources.into_iter();
        let a_src = src_it.next().unwrap();
        let v_src = src_it.next().unwrap();
        let audio = AudioElem {
            source: a_src,
            timing,
            id: ids.first().copied(),
            note: None,
            encoding: encodings.first().cloned(),
            sync: None,
        };
        let video = VideoElem {
            source: v_src,
            timing,
            region: None,
            id: ids.get(1).copied(),
            note: None,
            encoding: encodings.get(1).cloned(),
            sync: None,
        };
        Ok(AudioVideoElem { audio, video, note })
    }

    fn link_elem(&mut self) -> PResult<LinkElem> {
        let (attrs, note) = self.attrs_until_close(TagKeyword::Hlink)?;
        let mut kind = LinkKind::Sequential;
        let mut to = None;
        let mut host = None;
        let mut at = None;
        for (a, v, pos) in attrs {
            let map = |e: crate::values::ValueError| ParseError {
                message: e.to_string(),
                pos: Some(pos),
            };
            match a {
                AttrKeyword::Kind => kind = parse_link_kind(&v).map_err(map)?,
                AttrKeyword::To => to = Some(parse_doc_target(&v).map_err(map)?),
                AttrKeyword::Host => host = Some(parse_host(&v).map_err(map)?),
                AttrKeyword::At => at = Some(parse_time(&v).map_err(map)?),
                other => {
                    return Err(ParseError {
                        message: format!("attribute {other} not allowed in <HLINK>"),
                        pos: Some(pos),
                    })
                }
            }
        }
        Ok(LinkElem {
            kind,
            to: to.ok_or_else(|| ParseError {
                message: "<HLINK> requires TO".into(),
                pos: None,
            })?,
            host,
            at,
            note,
        })
    }
}

/// Parse a complete markup source text into a document AST.
pub fn parse(src: &str) -> Result<HmlDocument, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, i: 0 };
    let doc = p.document()?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::MediaDuration;

    #[test]
    fn minimal_document() {
        let doc = parse("<TITLE> Hello </TITLE>").unwrap();
        assert_eq!(doc.title, "Hello");
        assert!(doc.sentences.is_empty());
    }

    #[test]
    fn paper_layout_example() {
        // The exact example from §3.1 of the paper.
        let src = r#"
<TITLE> This is a title </TITLE>
<H1> This is a heading 1 </H1>
<TEXT> This is a text segment </TEXT>
<PAR>
<TEXT> This is another text segment. <B> This is boldface. </B> <I> And this is in italics. </I> </TEXT>
"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.title, "This is a title");
        assert_eq!(doc.sentences.len(), 1);
        let s = &doc.sentences[0];
        assert_eq!(s.headings.len(), 1);
        assert_eq!(s.headings[0].level, HeadingLevel::H1);
        assert_eq!(s.body.len(), 3); // TEXT, PAR, TEXT
        match &s.body[2] {
            BodyItem::Text(t) => {
                assert_eq!(t.runs.len(), 3);
                assert!(t.runs[1].style.bold);
                assert!(t.runs[2].style.italic);
                assert!(!t.runs[0].style.bold);
            }
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn image_with_all_attributes() {
        let src = r#"<TITLE>t</TITLE>
<IMG> SOURCE=srv0:imgs/a.jpg STARTIME=0s DURATION=5s WHERE=10,20 WIDTH=320 HEIGHT=200 ID=1 NOTE="logo" </IMG>"#;
        let doc = parse(src).unwrap();
        match &doc.sentences[0].body[0] {
            BodyItem::Image(img) => {
                assert_eq!(img.timing.start, Some(MediaTime::ZERO));
                assert_eq!(img.timing.duration, Some(MediaDuration::from_secs(5)));
                assert_eq!(img.region.unwrap().width, 320);
                assert_eq!(img.id, Some(1));
                assert_eq!(img.note.as_deref(), Some("logo"));
            }
            other => panic!("expected image, got {other:?}"),
        }
    }

    #[test]
    fn au_vi_pair_shares_timing() {
        let src = r#"<TITLE>t</TITLE>
<AU_VI> STARTIME=6s DURATION=8s SOURCE=a1.pcm SOURCE=v1.mpg ID=3 ID=4 </AU_VI>"#;
        let doc = parse(src).unwrap();
        match &doc.sentences[0].body[0] {
            BodyItem::AudioVideo(av) => {
                assert_eq!(av.audio.timing.start, Some(MediaTime::from_secs(6)));
                assert_eq!(av.video.timing.start, Some(MediaTime::from_secs(6)));
                assert_eq!(av.audio.id, Some(3));
                assert_eq!(av.video.id, Some(4));
            }
            other => panic!("expected au_vi, got {other:?}"),
        }
    }

    #[test]
    fn au_vi_mismatched_starts_rejected() {
        let src = r#"<TITLE>t</TITLE>
<AU_VI> STARTIME=6s STARTIME=7s SOURCE=a SOURCE=v </AU_VI>"#;
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("start times must be equal"));
    }

    #[test]
    fn au_vi_requires_two_sources() {
        let src = "<TITLE>t</TITLE> <AU_VI> SOURCE=a </AU_VI>";
        assert!(parse(src).is_err());
    }

    #[test]
    fn hlink_with_timed_activation() {
        let src = r#"<TITLE>t</TITLE>
<HLINK> AT=19s TO=doc2 KIND=SEQ NOTE="next lesson" </HLINK>
<HLINK> TO=doc9 HOST=srv3 KIND=EXP </HLINK>"#;
        let doc = parse(src).unwrap();
        match (&doc.sentences[0].body[0], &doc.sentences[0].body[1]) {
            (BodyItem::Link(a), BodyItem::Link(b)) => {
                assert_eq!(a.at, Some(MediaTime::from_secs(19)));
                assert_eq!(a.kind, LinkKind::Sequential);
                assert_eq!(b.kind, LinkKind::Explorational);
                assert!(b.host.is_some());
                assert_eq!(b.at, None);
            }
            other => panic!("expected links, got {other:?}"),
        }
    }

    #[test]
    fn separator_splits_sentences() {
        let src = r#"<TITLE>t</TITLE>
<H1> one </H1> <TEXT> a </TEXT> <SEP>
<H2> two </H2> <TEXT> b </TEXT>"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.sentences.len(), 2);
        assert!(doc.sentences[0].separator);
        assert!(!doc.sentences[1].separator);
        assert_eq!(doc.sentences[1].headings[0].level, HeadingLevel::H2);
    }

    #[test]
    fn heading_starts_new_sentence() {
        let src = r#"<TITLE>t</TITLE>
<TEXT> a </TEXT>
<H1> fresh </H1> <TEXT> b </TEXT>"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.sentences.len(), 2);
        assert!(doc.sentences[0].headings.is_empty());
        assert_eq!(doc.sentences[1].headings.len(), 1);
    }

    #[test]
    fn missing_source_rejected() {
        assert!(parse("<TITLE>t</TITLE> <IMG> ID=1 </IMG>").is_err());
        assert!(parse("<TITLE>t</TITLE> <AU> ID=1 </AU>").is_err());
        assert!(parse("<TITLE>t</TITLE> <VI> ID=1 </VI>").is_err());
        assert!(parse("<TITLE>t</TITLE> <HLINK> KIND=SEQ </HLINK>").is_err());
    }

    #[test]
    fn wrong_attribute_for_element_rejected() {
        let e = parse("<TITLE>t</TITLE> <AU> SOURCE=a WIDTH=3 </AU>").unwrap_err();
        assert!(e.message.contains("not allowed"));
    }

    #[test]
    fn mismatched_close_rejected() {
        assert!(parse("<TITLE>t</TITLE> <TEXT> x </IMG>").is_err());
    }

    #[test]
    fn missing_title_rejected() {
        assert!(parse("<TEXT> x </TEXT>").is_err());
    }

    #[test]
    fn duplicate_title_rejected() {
        assert!(parse("<TITLE>a</TITLE><TITLE>b</TITLE>").is_err());
    }

    #[test]
    fn nested_styles_compose() {
        let doc =
            parse("<TITLE>t</TITLE> <TEXT> <B> bold <I> bold-italic </I> </B> </TEXT>").unwrap();
        match &doc.sentences[0].body[0] {
            BodyItem::Text(t) => {
                assert!(t.runs[0].style.bold && !t.runs[0].style.italic);
                assert!(t.runs[1].style.bold && t.runs[1].style.italic);
            }
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn style_outside_text_rejected() {
        assert!(parse("<TITLE>t</TITLE> <B> x </B>").is_err());
    }

    #[test]
    fn timed_text_component() {
        let doc = parse("<TITLE>t</TITLE> <TEXT> STARTIME=2s DURATION=3s caption </TEXT>").unwrap();
        match &doc.sentences[0].body[0] {
            BodyItem::Text(t) => {
                assert_eq!(t.timing.start, Some(MediaTime::from_secs(2)));
                assert_eq!(t.timing.duration, Some(MediaDuration::from_secs(3)));
                assert_eq!(t.runs[0].text, "caption");
            }
            other => panic!("expected text, got {other:?}"),
        }
    }
}
