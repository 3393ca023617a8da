//! Abstract syntax tree of the markup language, mirroring the BNF grammar of
//! paper Fig. 1: a document is a `TITLE` followed by a sequence of
//! `<HSentence>`s, each of which has optional headings, a main body of media
//! elements and links, and an optional separator.

use crate::values::SourceRef;
use hermes_core::{
    DocumentId, HeadingLevel, LinkKind, MediaDuration, MediaTime, Region, ServerId, TextStyle,
};

/// A styled run of text inside `<TEXT>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AstTextRun {
    /// The characters.
    pub text: String,
    /// Accumulated style from enclosing `B`/`I`/`U` spans.
    pub style: TextStyle,
}

/// Common timing attributes of a media element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timing {
    /// `STARTIME=` — relative playout start; defaults to 0.
    pub start: Option<MediaTime>,
    /// `DURATION=` — playout duration; `None` = open-ended / intrinsic.
    pub duration: Option<MediaDuration>,
}

/// `<TEXT>` element: styled runs (paragraph breaks appear as body items).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextElem {
    /// Styled text runs.
    pub runs: Vec<AstTextRun>,
    /// Optional timing (text may be timed like any media).
    pub timing: Timing,
    /// Optional explicit component id.
    pub id: Option<u64>,
}

/// `<IMG>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageElem {
    /// Where the image data lives (`SOURCE=`).
    pub source: SourceRef,
    /// Timing attributes.
    pub timing: Timing,
    /// Placement (`WHERE`/`WIDTH`/`HEIGHT`).
    pub region: Option<Region>,
    /// Component id (`ID=`).
    pub id: Option<u64>,
    /// Annotation (`NOTE=`).
    pub note: Option<String>,
    /// Encoding name (`ENCODING=`, defaults inferred from the object key).
    pub encoding: Option<String>,
}

/// `<AU>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioElem {
    /// Source (`SOURCE=`).
    pub source: SourceRef,
    /// Timing.
    pub timing: Timing,
    /// Component id.
    pub id: Option<u64>,
    /// Annotation.
    pub note: Option<String>,
    /// Encoding name.
    pub encoding: Option<String>,
    /// Named sync group (`SYNC=`, extension).
    pub sync: Option<String>,
}

/// `<VI>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoElem {
    /// Source (`SOURCE=`).
    pub source: SourceRef,
    /// Timing.
    pub timing: Timing,
    /// Placement.
    pub region: Option<Region>,
    /// Component id.
    pub id: Option<u64>,
    /// Annotation.
    pub note: Option<String>,
    /// Encoding name.
    pub encoding: Option<String>,
    /// Named sync group (`SYNC=`, extension).
    pub sync: Option<String>,
}

/// `<AU_VI>` element: the synchronized audio+video pair. Per the grammar,
/// it carries two `STARTIME`s, two `SOURCE`s and two `ID`s (audio first),
/// but the pair must start together — the parser enforces equal start times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioVideoElem {
    /// The audio half.
    pub audio: AudioElem,
    /// The video half.
    pub video: VideoElem,
    /// Shared annotation.
    pub note: Option<String>,
}

/// `<HLINK>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkElem {
    /// Sequential (default) or explorational (`KIND=`).
    pub kind: LinkKind,
    /// Target document (`TO=`).
    pub to: DocumentId,
    /// Target server for remote links (`HOST=`).
    pub host: Option<ServerId>,
    /// Timed auto-activation (`AT=`).
    pub at: Option<MediaTime>,
    /// Annotation.
    pub note: Option<String>,
}

/// One item of an `<HSentence>` body (`<Body>` in the grammar).
#[derive(Debug, Clone, PartialEq)]
pub enum BodyItem {
    /// `<TEXT>`.
    Text(TextElem),
    /// `<IMG>`.
    Image(ImageElem),
    /// `<AU>`.
    Audio(AudioElem),
    /// `<VI>`.
    Video(VideoElem),
    /// `<AU_VI>`.
    AudioVideo(AudioVideoElem),
    /// `<HLINK>`.
    Link(LinkElem),
    /// `<PAR>` — paragraph break.
    Paragraph,
}

/// A heading line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heading {
    /// H1/H2/H3.
    pub level: HeadingLevel,
    /// Heading text.
    pub text: String,
}

/// `<HSentence>`: headings, then a body, then an optional separator.
#[derive(Debug, Clone, PartialEq)]
pub struct HSentence {
    /// Leading headings (the grammar allows at most one per level slot; we
    /// keep them in order of appearance).
    pub headings: Vec<Heading>,
    /// Body items.
    pub body: Vec<BodyItem>,
    /// Trailing `<SEP>`.
    pub separator: bool,
}

/// `<Hdocument>`: the root.
#[derive(Debug, Clone, PartialEq)]
pub struct HmlDocument {
    /// Document title.
    pub title: String,
    /// Sentences in order.
    pub sentences: Vec<HSentence>,
}

impl HmlDocument {
    /// Iterate all body items across sentences.
    pub fn body_items(&self) -> impl Iterator<Item = &BodyItem> {
        self.sentences.iter().flat_map(|s| s.body.iter())
    }
    /// Count media elements (AU_VI counts as two streams).
    pub fn media_count(&self) -> usize {
        self.body_items()
            .map(|b| match b {
                BodyItem::Text(_)
                | BodyItem::Image(_)
                | BodyItem::Audio(_)
                | BodyItem::Video(_) => 1,
                BodyItem::AudioVideo(_) => 2,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::SourceRef;

    #[test]
    fn counting_helpers() {
        let doc = HmlDocument {
            title: "t".into(),
            sentences: vec![HSentence {
                headings: vec![],
                body: vec![
                    BodyItem::Paragraph,
                    BodyItem::Text(TextElem {
                        runs: vec![],
                        timing: Timing::default(),
                        id: None,
                    }),
                    BodyItem::AudioVideo(AudioVideoElem {
                        audio: AudioElem {
                            source: SourceRef::Relative("a".into()),
                            timing: Timing::default(),
                            id: None,
                            note: None,
                            encoding: None,
                            sync: None,
                        },
                        video: VideoElem {
                            source: SourceRef::Relative("v".into()),
                            timing: Timing::default(),
                            region: None,
                            id: None,
                            note: None,
                            encoding: None,
                            sync: None,
                        },
                        note: None,
                    }),
                    BodyItem::Link(LinkElem {
                        kind: LinkKind::Sequential,
                        to: DocumentId::new(2),
                        host: None,
                        at: None,
                        note: None,
                    }),
                ],
                separator: true,
            }],
        };
        assert_eq!(doc.media_count(), 3);
        assert_eq!(doc.body_items().count(), 4);
    }
}
