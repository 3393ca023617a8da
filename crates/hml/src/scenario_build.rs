//! Scenario extraction: turn a parsed document AST into the core
//! [`Scenario`] — the client-side "preprocessing of the received
//! presentation scenario" that recognizes each media stream and fills in the
//! playout structures.
//!
//! Component ids: explicit `ID=` values are honored; elements without one
//! get the next free id. `AU_VI` pairs become two components bound by a
//! [`SyncGroup`]. Encodings are taken from `ENCODING=` or inferred from the
//! object key's extension, falling back to a per-kind default.

use crate::ast::*;
use crate::values::SourceRef;
use hermes_core::{
    ComponentContent, ComponentId, DocumentId, Encoding, HyperLink, LinkTarget, MediaComponent,
    MediaKind, MediaTime, Scenario, ServerId, SyncGroup, TextBlock, TextRun,
};
use std::collections::BTreeSet;
use std::fmt;

/// An error produced while lowering an AST to a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two elements claim the same explicit component id.
    DuplicateId(u64),
    /// An `ENCODING=` value names an unknown encoding.
    UnknownEncoding(String),
    /// An encoding is valid but does not match the element's media kind
    /// (e.g. `ENCODING=jpeg` on an `<AU>`).
    EncodingKindMismatch {
        /// The encoding named.
        encoding: String,
        /// The element's kind.
        expected: MediaKind,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateId(id) => write!(f, "duplicate component id {id}"),
            BuildError::UnknownEncoding(e) => write!(f, "unknown encoding '{e}'"),
            BuildError::EncodingKindMismatch { encoding, expected } => {
                write!(f, "encoding '{encoding}' is not a {expected} encoding")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Infer an encoding from the object key's extension.
fn infer_encoding(object: &str, kind: MediaKind) -> Encoding {
    let ext = object.rsplit('.').next().unwrap_or("");
    if let Some(e) = Encoding::from_name(ext) {
        if e.kind() == kind {
            return e;
        }
    }
    match kind {
        MediaKind::Text => Encoding::PlainText,
        MediaKind::Image => Encoding::Jpeg,
        MediaKind::Audio => Encoding::Pcm,
        MediaKind::Video => Encoding::Mpeg,
    }
}

fn resolve_encoding(
    explicit: &Option<String>,
    source: &SourceRef,
    kind: MediaKind,
) -> Result<Encoding, BuildError> {
    if let Some(name) = explicit {
        let e =
            Encoding::from_name(name).ok_or_else(|| BuildError::UnknownEncoding(name.clone()))?;
        if e.kind() != kind {
            return Err(BuildError::EncodingKindMismatch {
                encoding: name.clone(),
                expected: kind,
            });
        }
        return Ok(e);
    }
    let object = match source {
        SourceRef::Absolute(m) => m.object.as_str(),
        SourceRef::Relative(o) => o.as_str(),
    };
    Ok(infer_encoding(object, kind))
}

struct IdPicker {
    used: BTreeSet<u64>,
    next: u64,
}

impl IdPicker {
    fn new() -> Self {
        IdPicker {
            used: BTreeSet::new(),
            next: 0,
        }
    }
    fn claim(&mut self, explicit: Option<u64>) -> Result<ComponentId, BuildError> {
        match explicit {
            Some(id) => {
                if !self.used.insert(id) {
                    return Err(BuildError::DuplicateId(id));
                }
                Ok(ComponentId::new(id))
            }
            None => {
                while self.used.contains(&self.next) {
                    self.next += 1;
                }
                let id = self.next;
                self.used.insert(id);
                self.next += 1;
                Ok(ComponentId::new(id))
            }
        }
    }
}

/// Lower a document AST into a [`Scenario`].
///
/// * `document` — the id this scenario presents;
/// * `home` — the server relative `SOURCE` keys resolve against.
pub fn build_scenario(
    doc: &HmlDocument,
    document: DocumentId,
    home: ServerId,
) -> Result<Scenario, BuildError> {
    let mut scenario = Scenario::new(document, doc.title.clone());
    let mut ids = IdPicker::new();
    // Named SYNC groups (extension): label → member component ids.
    let mut named_sync: std::collections::BTreeMap<String, Vec<ComponentId>> =
        std::collections::BTreeMap::new();

    // First pass: claim all explicit ids so implicit allocation never
    // collides with a later explicit one.
    for item in doc.body_items() {
        let explicit: Vec<Option<u64>> = match item {
            BodyItem::Text(t) => vec![t.id],
            BodyItem::Image(i) => vec![i.id],
            BodyItem::Audio(a) => vec![a.id],
            BodyItem::Video(v) => vec![v.id],
            BodyItem::AudioVideo(av) => vec![av.audio.id, av.video.id],
            _ => vec![],
        };
        for id in explicit.into_flatten() {
            if !ids.used.insert(id) {
                return Err(BuildError::DuplicateId(id));
            }
        }
    }
    // `claim` must not double-insert explicit ids; reset and re-run with a
    // shared picker that already knows them.
    let pre_claimed = ids.used.clone();
    let mut ids = IdPicker::new();
    ids.used = pre_claimed;

    let claim_explicit = |ids: &mut IdPicker, explicit: Option<u64>| match explicit {
        Some(id) => Ok(ComponentId::new(id)), // already registered in pass 1
        None => ids.claim(None),
    };

    for sentence in &doc.sentences {
        // Headings become part of the always-visible text component stream:
        // we synthesize one text component per sentence holding headings +
        // text blocks that are untimed; timed <TEXT> elements become their
        // own components.
        let mut blocks: Vec<TextBlock> = sentence
            .headings
            .iter()
            .map(|h| TextBlock::Heading(h.level, h.text.clone()))
            .collect();

        for item in &sentence.body {
            match item {
                BodyItem::Paragraph => blocks.push(TextBlock::ParagraphBreak),
                BodyItem::Text(t) => {
                    let runs: Vec<TextRun> = t
                        .runs
                        .iter()
                        .map(|r| TextRun {
                            text: r.text.clone(),
                            style: r.style,
                        })
                        .collect();
                    if t.timing.start.is_none() && t.timing.duration.is_none() && t.id.is_none() {
                        // Untimed anonymous text folds into the sentence text.
                        blocks.push(TextBlock::Runs(runs));
                    } else {
                        let id = claim_explicit(&mut ids, t.id)?;
                        scenario.components.push(MediaComponent {
                            id,
                            content: ComponentContent::Text(vec![TextBlock::Runs(runs)]),
                            start: t.timing.start.unwrap_or(MediaTime::ZERO),
                            duration: t.timing.duration,
                            region: None,
                            note: None,
                        });
                    }
                }
                BodyItem::Image(img) => {
                    let id = claim_explicit(&mut ids, img.id)?;
                    let encoding = resolve_encoding(&img.encoding, &img.source, MediaKind::Image)?;
                    scenario.components.push(MediaComponent {
                        id,
                        content: ComponentContent::Stored {
                            source: img.source.resolve(home),
                            encoding,
                        },
                        start: img.timing.start.unwrap_or(MediaTime::ZERO),
                        duration: img.timing.duration,
                        region: img.region,
                        note: img.note.clone(),
                    });
                }
                BodyItem::Audio(au) => {
                    let id = claim_explicit(&mut ids, au.id)?;
                    let encoding = resolve_encoding(&au.encoding, &au.source, MediaKind::Audio)?;
                    if let Some(label) = &au.sync {
                        named_sync.entry(label.clone()).or_default().push(id);
                    }
                    scenario.components.push(MediaComponent {
                        id,
                        content: ComponentContent::Stored {
                            source: au.source.resolve(home),
                            encoding,
                        },
                        start: au.timing.start.unwrap_or(MediaTime::ZERO),
                        duration: au.timing.duration,
                        region: None,
                        note: au.note.clone(),
                    });
                }
                BodyItem::Video(vi) => {
                    let id = claim_explicit(&mut ids, vi.id)?;
                    let encoding = resolve_encoding(&vi.encoding, &vi.source, MediaKind::Video)?;
                    if let Some(label) = &vi.sync {
                        named_sync.entry(label.clone()).or_default().push(id);
                    }
                    scenario.components.push(MediaComponent {
                        id,
                        content: ComponentContent::Stored {
                            source: vi.source.resolve(home),
                            encoding,
                        },
                        start: vi.timing.start.unwrap_or(MediaTime::ZERO),
                        duration: vi.timing.duration,
                        region: vi.region,
                        note: vi.note.clone(),
                    });
                }
                BodyItem::AudioVideo(av) => {
                    let a_id = claim_explicit(&mut ids, av.audio.id)?;
                    let v_id = claim_explicit(&mut ids, av.video.id)?;
                    let a_enc =
                        resolve_encoding(&av.audio.encoding, &av.audio.source, MediaKind::Audio)?;
                    let v_enc =
                        resolve_encoding(&av.video.encoding, &av.video.source, MediaKind::Video)?;
                    let start = av.audio.timing.start.unwrap_or(MediaTime::ZERO);
                    let duration = av.audio.timing.duration;
                    scenario.components.push(MediaComponent {
                        id: a_id,
                        content: ComponentContent::Stored {
                            source: av.audio.source.resolve(home),
                            encoding: a_enc,
                        },
                        start,
                        duration,
                        region: None,
                        note: av.note.clone(),
                    });
                    scenario.components.push(MediaComponent {
                        id: v_id,
                        content: ComponentContent::Stored {
                            source: av.video.source.resolve(home),
                            encoding: v_enc,
                        },
                        start,
                        duration,
                        region: av.video.region,
                        note: av.note.clone(),
                    });
                    scenario.sync_groups.push(SyncGroup {
                        members: vec![a_id, v_id],
                    });
                }
                BodyItem::Link(l) => {
                    let target = match l.host {
                        Some(h) if h != home => LinkTarget::Remote(h, l.to),
                        _ => LinkTarget::Local(l.to),
                    };
                    scenario.links.push(HyperLink {
                        kind: l.kind,
                        target,
                        auto_at: l.at,
                        note: l.note.clone(),
                    });
                }
            }
        }

        if !blocks.is_empty() {
            let id = ids.claim(None)?;
            scenario.components.push(MediaComponent {
                id,
                content: ComponentContent::Text(blocks),
                start: MediaTime::ZERO,
                duration: None, // visible "throughout the presentation"
                region: None,
                note: None,
            });
        }
    }

    // Materialize named SYNC groups (≥2 members each; singletons are
    // authoring mistakes the scenario validator would flag as degenerate,
    // so drop them silently — a lone label synchronizes with nothing).
    for (_, members) in named_sync {
        if members.len() >= 2 {
            scenario.sync_groups.push(SyncGroup { members });
        }
    }

    Ok(scenario)
}

/// Small helper: iterate `Vec<Option<T>>` flattening the `Some`s.
trait IntoFlatten<T> {
    fn into_flatten(self) -> Vec<T>;
}
impl<T> IntoFlatten<T> for Vec<Option<T>> {
    fn into_flatten(self) -> Vec<T> {
        self.into_iter().flatten().collect()
    }
}

/// Parse markup text and lower it to a scenario in one step.
pub fn scenario_from_markup(
    src: &str,
    document: DocumentId,
    home: ServerId,
) -> Result<Scenario, crate::Error> {
    let doc = crate::parser::parse(src)?;
    build_scenario(&doc, document, home).map_err(crate::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use hermes_core::MediaDuration;

    fn build(src: &str) -> Scenario {
        let doc = parse(src).unwrap();
        build_scenario(&doc, DocumentId::new(1), ServerId::new(0)).unwrap()
    }

    #[test]
    fn figure2_markup_produces_expected_scenario() {
        // The §3.1 example scenario written in the markup language.
        let src = r#"
<TITLE> Figure 2 </TITLE>
<TEXT> This text is shown throughout the presentation </TEXT>
<IMG> SOURCE=i1.jpg STARTIME=0s DURATION=5s ID=1 </IMG>
<IMG> SOURCE=i2.jpg STARTIME=5s DURATION=7s ID=2 </IMG>
<AU_VI> STARTIME=6s DURATION=8s SOURCE=a1.pcm SOURCE=v.mpg ID=3 ID=4 </AU_VI>
<AU> SOURCE=a2.pcm STARTIME=15s DURATION=4s ID=5 </AU>
<HLINK> AT=19s TO=doc2 KIND=SEQ </HLINK>
"#;
        let s = build(src);
        assert!(s.is_well_formed(), "{:?}", s.validate());
        // 5 stored components + 1 synthesized sentence text component.
        assert_eq!(s.components.len(), 6);
        assert_eq!(s.sync_groups.len(), 1);
        assert_eq!(
            s.sync_groups[0].members,
            vec![ComponentId::new(3), ComponentId::new(4)]
        );
        assert_eq!(s.presentation_end(), MediaTime::from_secs(19));
        let v = s.component(ComponentId::new(4)).unwrap();
        assert_eq!(v.start, MediaTime::from_secs(6));
        assert_eq!(v.duration, Some(MediaDuration::from_secs(8)));
        assert_eq!(v.kind(), MediaKind::Video);
    }

    #[test]
    fn encoding_inferred_from_extension() {
        let s = build("<TITLE>t</TITLE> <IMG> SOURCE=logo.gif ID=1 </IMG>");
        match &s.component(ComponentId::new(1)).unwrap().content {
            ComponentContent::Stored { encoding, .. } => assert_eq!(*encoding, Encoding::Gif),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn encoding_default_when_extension_unknown() {
        let s = build("<TITLE>t</TITLE> <VI> SOURCE=clip.raw ID=1 </VI>");
        match &s.component(ComponentId::new(1)).unwrap().content {
            ComponentContent::Stored { encoding, .. } => assert_eq!(*encoding, Encoding::Mpeg),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explicit_encoding_overrides_extension() {
        let s = build("<TITLE>t</TITLE> <AU> SOURCE=sound.pcm ENCODING=adpcm ID=1 </AU>");
        match &s.component(ComponentId::new(1)).unwrap().content {
            ComponentContent::Stored { encoding, .. } => assert_eq!(*encoding, Encoding::Adpcm),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn encoding_kind_mismatch_rejected() {
        let doc = parse("<TITLE>t</TITLE> <AU> SOURCE=x ENCODING=jpeg </AU>").unwrap();
        let e = build_scenario(&doc, DocumentId::new(1), ServerId::new(0)).unwrap_err();
        assert!(matches!(e, BuildError::EncodingKindMismatch { .. }));
    }

    #[test]
    fn duplicate_explicit_ids_rejected() {
        let doc = parse("<TITLE>t</TITLE> <IMG> SOURCE=a ID=1 </IMG> <IMG> SOURCE=b ID=1 </IMG>")
            .unwrap();
        let e = build_scenario(&doc, DocumentId::new(1), ServerId::new(0)).unwrap_err();
        assert_eq!(e, BuildError::DuplicateId(1));
    }

    #[test]
    fn implicit_ids_avoid_explicit_ones() {
        // Explicit ID=0 forces the implicit allocator to skip 0.
        let s = build("<TITLE>t</TITLE> <IMG> SOURCE=a ID=0 </IMG> <IMG> SOURCE=b </IMG>");
        let ids: Vec<u64> = s.components.iter().map(|c| c.id.raw()).collect();
        let unique: BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "ids not unique: {ids:?}");
    }

    #[test]
    fn remote_links_resolved() {
        let s = build(
            "<TITLE>t</TITLE> <HLINK> TO=doc5 HOST=srv2 KIND=EXP </HLINK> <HLINK> TO=doc6 HOST=srv0 </HLINK>",
        );
        assert_eq!(
            s.links[0].target,
            LinkTarget::Remote(ServerId::new(2), DocumentId::new(5))
        );
        // HOST pointing at the home server collapses to a local link.
        assert_eq!(s.links[1].target, LinkTarget::Local(DocumentId::new(6)));
    }

    #[test]
    fn relative_sources_resolve_to_home_server() {
        let doc = parse("<TITLE>t</TITLE> <IMG> SOURCE=pic.jpg ID=1 </IMG>").unwrap();
        let s = build_scenario(&doc, DocumentId::new(1), ServerId::new(9)).unwrap();
        match &s.component(ComponentId::new(1)).unwrap().content {
            ComponentContent::Stored { source, .. } => {
                assert_eq!(source.server, ServerId::new(9));
                assert_eq!(source.object, "pic.jpg");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn untimed_text_folds_into_sentence_component() {
        let s = build("<TITLE>t</TITLE> <H1> head </H1> <TEXT> body </TEXT> <PAR>");
        assert_eq!(s.components.len(), 1);
        match &s.components[0].content {
            ComponentContent::Text(blocks) => {
                assert!(matches!(blocks[0], TextBlock::Heading(_, _)));
                assert!(matches!(blocks[1], TextBlock::Runs(_)));
                assert!(matches!(blocks[2], TextBlock::ParagraphBreak));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.components[0].duration, None);
    }

    #[test]
    fn timed_text_is_its_own_component() {
        let s = build("<TITLE>t</TITLE> <TEXT> STARTIME=2s DURATION=3s ID=7 caption </TEXT>");
        let c = s.component(ComponentId::new(7)).unwrap();
        assert_eq!(c.start, MediaTime::from_secs(2));
        assert_eq!(c.duration, Some(MediaDuration::from_secs(3)));
    }

    #[test]
    fn named_sync_groups_generalize_au_vi() {
        // Three streams synchronized by one SYNC label — the n-way
        // generalization of AU_VI (the paper's future-work extension).
        let s = build(
            "<TITLE>t</TITLE>
             <AU> SOURCE=a1.pcm STARTIME=2s DURATION=8s ID=1 SYNC=scene </AU>
             <AU> SOURCE=a2.pcm STARTIME=2s DURATION=8s ID=2 SYNC=scene </AU>
             <VI> SOURCE=v.mpg STARTIME=2s DURATION=8s ID=3 SYNC=scene </VI>
             <AU> SOURCE=solo.pcm STARTIME=0s DURATION=1s ID=4 SYNC=lonely </AU>",
        );
        assert!(s.is_well_formed(), "{:?}", s.validate());
        assert_eq!(s.sync_groups.len(), 1, "singleton labels dropped");
        assert_eq!(
            s.sync_groups[0].members,
            vec![
                ComponentId::new(1),
                ComponentId::new(2),
                ComponentId::new(3)
            ]
        );
        assert_eq!(s.sync_partners(ComponentId::new(1)).len(), 2);
    }

    #[test]
    fn mismatched_sync_timing_flagged() {
        let s = build(
            "<TITLE>t</TITLE>
             <AU> SOURCE=a.pcm STARTIME=0s DURATION=5s ID=1 SYNC=g </AU>
             <VI> SOURCE=v.mpg STARTIME=1s DURATION=5s ID=2 SYNC=g </VI>",
        );
        assert!(!s.is_well_formed());
    }

    #[test]
    fn one_step_helper_works() {
        let s = scenario_from_markup(
            "<TITLE>t</TITLE> <AU> SOURCE=a.pcm ID=1 DURATION=2s </AU>",
            DocumentId::new(3),
            ServerId::new(0),
        )
        .unwrap();
        assert_eq!(s.document, DocumentId::new(3));
    }
}
