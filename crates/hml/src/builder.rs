//! Programmatic document builder: constructs documents without writing
//! markup by hand. Only tests use it (`tests/markup_roundtrip.rs` builds
//! the documents it feeds to the parser and serializer); the examples and
//! workload generators write their markup as text.

use crate::ast::*;
use crate::values::SourceRef;
use hermes_core::{
    DocumentId, HeadingLevel, LinkKind, MediaDuration, MediaSource, MediaTime, Region, TextStyle,
};

/// Fluent builder for [`HmlDocument`].
#[derive(Debug, Clone)]
pub struct DocumentBuilder {
    title: String,
    sentences: Vec<HSentence>,
    current: HSentence,
    next_id: u64,
}

fn empty_sentence() -> HSentence {
    HSentence {
        headings: Vec::new(),
        body: Vec::new(),
        separator: false,
    }
}

impl DocumentBuilder {
    /// Start a document with a title.
    pub fn new(title: impl Into<String>) -> Self {
        DocumentBuilder {
            title: title.into(),
            sentences: Vec::new(),
            current: empty_sentence(),
            next_id: 0,
        }
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Add a heading to the current sentence.
    pub fn heading(mut self, level: HeadingLevel, text: impl Into<String>) -> Self {
        self.current.headings.push(Heading {
            level,
            text: text.into(),
        });
        self
    }

    /// Add plain text.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.current.body.push(BodyItem::Text(TextElem {
            runs: vec![AstTextRun {
                text: text.into(),
                style: TextStyle::PLAIN,
            }],
            timing: Timing::default(),
            id: None,
        }));
        self
    }

    /// Add a paragraph break.
    pub fn paragraph(mut self) -> Self {
        self.current.body.push(BodyItem::Paragraph);
        self
    }

    /// Add an image with timing and optional placement.
    pub fn image(
        mut self,
        source: MediaSource,
        start: MediaTime,
        duration: MediaDuration,
        region: Option<Region>,
    ) -> Self {
        let id = self.take_id();
        self.current.body.push(BodyItem::Image(ImageElem {
            source: SourceRef::Absolute(source),
            timing: Timing {
                start: Some(start),
                duration: Some(duration),
            },
            region,
            id: Some(id),
            note: None,
            encoding: None,
        }));
        self
    }

    /// Add an audio clip.
    pub fn audio(mut self, source: MediaSource, start: MediaTime, duration: MediaDuration) -> Self {
        let id = self.take_id();
        self.current.body.push(BodyItem::Audio(AudioElem {
            source: SourceRef::Absolute(source),
            timing: Timing {
                start: Some(start),
                duration: Some(duration),
            },
            id: Some(id),
            note: None,
            encoding: None,
            sync: None,
        }));
        self
    }

    /// Add a video clip.
    pub fn video(mut self, source: MediaSource, start: MediaTime, duration: MediaDuration) -> Self {
        let id = self.take_id();
        self.current.body.push(BodyItem::Video(VideoElem {
            source: SourceRef::Absolute(source),
            timing: Timing {
                start: Some(start),
                duration: Some(duration),
            },
            region: None,
            id: Some(id),
            note: None,
            encoding: None,
            sync: None,
        }));
        self
    }

    /// Add a synchronized audio+video pair (the `AU_VI` construct).
    pub fn audio_video(
        mut self,
        audio_source: MediaSource,
        video_source: MediaSource,
        start: MediaTime,
        duration: MediaDuration,
    ) -> Self {
        let a_id = self.take_id();
        let v_id = self.take_id();
        let timing = Timing {
            start: Some(start),
            duration: Some(duration),
        };
        self.current.body.push(BodyItem::AudioVideo(AudioVideoElem {
            audio: AudioElem {
                source: SourceRef::Absolute(audio_source),
                timing,
                id: Some(a_id),
                note: None,
                encoding: None,
                sync: None,
            },
            video: VideoElem {
                source: SourceRef::Absolute(video_source),
                timing,
                region: None,
                id: Some(v_id),
                note: None,
                encoding: None,
                sync: None,
            },
            note: None,
        }));
        self
    }

    /// Add a local hyperlink.
    pub fn link(mut self, kind: LinkKind, to: DocumentId, at: Option<MediaTime>) -> Self {
        self.current.body.push(BodyItem::Link(LinkElem {
            kind,
            to,
            host: None,
            at,
            note: None,
        }));
        self
    }

    /// Close the current sentence with a separator and start a new one.
    pub fn separator(mut self) -> Self {
        self.current.separator = true;
        let s = std::mem::replace(&mut self.current, empty_sentence());
        self.sentences.push(s);
        self
    }

    /// Finish and return the document AST.
    pub fn build(mut self) -> HmlDocument {
        if !self.current.headings.is_empty() || !self.current.body.is_empty() {
            self.sentences.push(self.current);
        }
        HmlDocument {
            title: self.title,
            sentences: self.sentences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::scenario_build::build_scenario;
    use crate::serializer::serialize;
    use hermes_core::ServerId;

    #[test]
    fn builder_round_trips_through_markup() {
        let srv = ServerId::new(0);
        let doc = DocumentBuilder::new("Lesson 1")
            .heading(HeadingLevel::H1, "Introduction")
            .text("Welcome to the course")
            .paragraph()
            .image(
                MediaSource::new(srv, "fig1.jpg"),
                MediaTime::ZERO,
                MediaDuration::from_secs(5),
                Some(Region::new(0, 0, 320, 200)),
            )
            .audio_video(
                MediaSource::new(srv, "nar.pcm"),
                MediaSource::new(srv, "clip.mpg"),
                MediaTime::from_secs(5),
                MediaDuration::from_secs(10),
            )
            .separator()
            .heading(HeadingLevel::H2, "Next")
            .link(
                LinkKind::Sequential,
                DocumentId::new(2),
                Some(MediaTime::from_secs(20)),
            )
            .build();
        assert_eq!(doc.sentences.len(), 2);
        let text = serialize(&doc);
        let reparsed = parse(&text).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn builder_output_lowers_to_well_formed_scenario() {
        let srv = ServerId::new(1);
        let doc = DocumentBuilder::new("x")
            .audio_video(
                MediaSource::new(srv, "a.pcm"),
                MediaSource::new(srv, "v.mpg"),
                MediaTime::ZERO,
                MediaDuration::from_secs(8),
            )
            .build();
        let s = build_scenario(&doc, DocumentId::new(1), srv).unwrap();
        assert!(s.is_well_formed(), "{:?}", s.validate());
        assert_eq!(s.sync_groups.len(), 1);
    }

    #[test]
    fn builder_ids_unique() {
        let srv = ServerId::new(0);
        let doc = DocumentBuilder::new("x")
            .image(
                MediaSource::new(srv, "a.jpg"),
                MediaTime::ZERO,
                MediaDuration::from_secs(1),
                None,
            )
            .video(
                MediaSource::new(srv, "v.mpg"),
                MediaTime::ZERO,
                MediaDuration::from_secs(1),
            )
            .build();
        let ids: Vec<_> = doc
            .body_items()
            .filter_map(|b| match b {
                BodyItem::Image(i) => i.id,
                BodyItem::Video(v) => v.id,
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
