//! The Hermes distance-education layer (paper §6): lesson libraries with
//! pre-orchestrated scenarios, media content, and tutor mail — generated
//! synthetically but shaped like the prototype's courseware.

use crate::protocol::MailMessage;
use crate::server_actor::ServerActor;
use hermes_core::{DocumentId, Encoding, MediaDuration, MediaKind};
use hermes_simnet::SimRng;

/// Parameters of a generated lesson.
#[derive(Debug, Clone, Copy)]
pub struct LessonShape {
    /// Number of image figures.
    pub images: usize,
    /// Seconds each image stays on screen.
    pub image_secs: i64,
    /// Whether the lesson has a narrated (synchronized audio+video) segment.
    pub narrated_clip_secs: Option<i64>,
    /// Whether a closing audio summary plays.
    pub closing_audio_secs: Option<i64>,
}

impl Default for LessonShape {
    fn default() -> Self {
        LessonShape {
            images: 2,
            image_secs: 5,
            narrated_clip_secs: Some(8),
            closing_audio_secs: Some(4),
        }
    }
}

/// Generate the markup text of one lesson. The produced scenario follows the
/// Fig. 2 pattern: persistent lesson text, a sequence of figures, a
/// synchronized narration clip, a closing audio segment, and a timed
/// sequential link to the next lesson.
pub fn lesson_markup(
    title: &str,
    topic_words: &[&str],
    shape: LessonShape,
    next: Option<DocumentId>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("<TITLE> {title} </TITLE>\n"));
    out.push_str(&format!("<H1> {title} </H1>\n"));
    out.push_str(&format!(
        "<TEXT> This lesson covers {}. Follow the tutor's sequence or explore the links. </TEXT>\n<PAR>\n",
        topic_words.join(", ")
    ));
    let mut t = 0i64;
    let mut id = 1u64;
    for i in 0..shape.images {
        out.push_str(&format!(
            "<IMG> SOURCE=figs/{title_key}-{i}.jpg STARTIME={t}s DURATION={d}s WHERE={x},40 WIDTH=320 HEIGHT=240 ID={id} NOTE=\"figure {i}\" </IMG>\n",
            title_key = title.to_lowercase().replace(' ', "-"),
            d = shape.image_secs,
            x = 20 + (i as i32) * 360,
        ));
        t += shape.image_secs;
        id += 1;
    }
    if let Some(clip) = shape.narrated_clip_secs {
        out.push_str(&format!(
            "<AU_VI> STARTIME={t}s DURATION={clip}s SOURCE=audio/narration-{key}.pcm SOURCE=video/clip-{key}.mpg ID={a} ID={v} NOTE=\"narrated clip\" </AU_VI>\n",
            key = title.to_lowercase().replace(' ', "-"),
            a = id,
            v = id + 1,
        ));
        t += clip;
        id += 2;
    }
    if let Some(secs) = shape.closing_audio_secs {
        out.push_str(&format!(
            "<AU> SOURCE=audio/summary-{key}.pcm STARTIME={t}s DURATION={secs}s ID={id} NOTE=\"summary\" </AU>\n",
            key = title.to_lowercase().replace(' ', "-"),
        ));
        t += secs;
    }
    if let Some(next) = next {
        out.push_str(&format!(
            "<HLINK> AT={t}s TO=doc{} KIND=SEQ NOTE=\"next lesson\" </HLINK>\n",
            next.raw()
        ));
    }
    out
}

/// Populate a server with a course of `n` linked lessons (documents
/// `first..first+n`), including all referenced media objects. Returns the
/// lesson document ids.
pub fn install_course(
    server: &mut ServerActor,
    course: &str,
    topic_words: &[&str],
    first: u64,
    n: usize,
    shape: LessonShape,
    rng: &mut SimRng,
) -> Vec<DocumentId> {
    let mut ids = Vec::new();
    for i in 0..n {
        let doc = DocumentId::new(first + i as u64);
        let next = if i + 1 < n {
            Some(DocumentId::new(first + i as u64 + 1))
        } else {
            None
        };
        let title = format!("{course} {}", i + 1);
        let markup = lesson_markup(&title, topic_words, shape, next);
        // Install media objects the markup references.
        let key = title.to_lowercase().replace(' ', "-");
        for img in 0..shape.images {
            server.db.store_mut(MediaKind::Image).add(
                format!("figs/{key}-{img}.jpg"),
                Encoding::Jpeg,
                MediaDuration::from_secs(shape.image_secs),
                rng.range_u64(0, u64::MAX / 2),
            );
        }
        if let Some(clip) = shape.narrated_clip_secs {
            server.db.store_mut(MediaKind::Audio).add(
                format!("audio/narration-{key}.pcm"),
                Encoding::Pcm,
                MediaDuration::from_secs(clip),
                rng.range_u64(0, u64::MAX / 2),
            );
            server.db.store_mut(MediaKind::Video).add(
                format!("video/clip-{key}.mpg"),
                Encoding::Mpeg,
                MediaDuration::from_secs(clip),
                rng.range_u64(0, u64::MAX / 2),
            );
        }
        if let Some(secs) = shape.closing_audio_secs {
            server.db.store_mut(MediaKind::Audio).add(
                format!("audio/summary-{key}.pcm"),
                Encoding::Pcm,
                MediaDuration::from_secs(secs),
                rng.range_u64(0, u64::MAX / 2),
            );
        }
        server
            .db
            .add_document(doc, markup, format!("{course} lesson {}", i + 1))
            .expect("generated lesson must be well-formed");
        ids.push(doc);
    }
    ids
}

/// A canned tutor reply, as §6.2.4 describes ("the tutor can send replies to
/// the user prompting him/her to retrieve specific lessons").
pub fn tutor_reply(student: &str, tutor: &str, lesson: DocumentId) -> MailMessage {
    MailMessage {
        from: tutor.to_string(),
        to: student.to_string(),
        subject: "Re: question".to_string(),
        body: format!(
            "Please retrieve lesson doc{} for the details.",
            lesson.raw()
        ),
        attachments: vec![("text/plain".into(), 256)],
    }
}

/// The Fig. 2 demonstration document installed with its media objects.
pub fn install_figure2(server: &mut ServerActor, doc: DocumentId, rng: &mut SimRng) {
    for (key, enc, secs) in [
        ("i1.jpg", Encoding::Jpeg, 5i64),
        ("i2.jpg", Encoding::Jpeg, 7),
    ] {
        server.db.store_mut(MediaKind::Image).add(
            key,
            enc,
            MediaDuration::from_secs(secs),
            rng.range_u64(0, u64::MAX / 2),
        );
    }
    server.db.store_mut(MediaKind::Audio).add(
        "a1.pcm",
        Encoding::Pcm,
        MediaDuration::from_secs(8),
        rng.range_u64(0, u64::MAX / 2),
    );
    server.db.store_mut(MediaKind::Audio).add(
        "a2.pcm",
        Encoding::Pcm,
        MediaDuration::from_secs(4),
        rng.range_u64(0, u64::MAX / 2),
    );
    server.db.store_mut(MediaKind::Video).add(
        "v.mpg",
        Encoding::Mpeg,
        MediaDuration::from_secs(8),
        rng.range_u64(0, u64::MAX / 2),
    );
    server
        .db
        .add_document(
            doc,
            hermes_hml::FIGURE2_MARKUP,
            "the paper's Fig. 2 scenario",
        )
        .expect("figure-2 markup is well-formed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_actor::ServerConfig;
    use hermes_core::{NodeId, ServerId};

    #[test]
    fn lesson_markup_parses_and_links() {
        let m = lesson_markup(
            "Networks 101",
            &["packets", "routing"],
            LessonShape::default(),
            Some(DocumentId::new(7)),
        );
        let s = hermes_hml::scenario_from_markup(&m, DocumentId::new(6), ServerId::new(0)).unwrap();
        assert!(s.is_well_formed(), "{:?}", s.validate());
        assert_eq!(s.sync_groups.len(), 1);
        assert_eq!(s.links.len(), 1);
        assert_eq!(s.links[0].target.document(), DocumentId::new(7));
        assert!(s.links[0].auto_at.is_some());
    }

    #[test]
    fn course_installation_complete() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut server =
            ServerActor::new(NodeId::new(1), ServerId::new(0), ServerConfig::default());
        let ids = install_course(
            &mut server,
            "Biology",
            &["cells", "plants"],
            10,
            3,
            LessonShape::default(),
            &mut rng,
        );
        assert_eq!(ids.len(), 3);
        assert_eq!(server.db.len(), 3);
        assert_eq!(server.db.topics().len(), 3);
        // Every referenced media object is installed.
        for id in &ids {
            let doc = server.db.document(*id).unwrap();
            for c in &doc.scenario.components {
                if let hermes_core::ComponentContent::Stored { source, encoding } = &c.content {
                    let store = server.db.store(encoding.kind());
                    assert!(
                        store.get(&source.object).is_some(),
                        "missing object {}",
                        source.object
                    );
                }
            }
        }
        // Lessons chain: lesson 1 links to lesson 2, etc.; the last has none.
        assert_eq!(
            server.db.document(ids[0]).unwrap().scenario.links[0]
                .target
                .document(),
            ids[1]
        );
        assert!(server
            .db
            .document(ids[2])
            .unwrap()
            .scenario
            .links
            .is_empty());
    }

    #[test]
    fn figure2_installation() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut server =
            ServerActor::new(NodeId::new(1), ServerId::new(0), ServerConfig::default());
        install_figure2(&mut server, DocumentId::new(1), &mut rng);
        let d = server.db.document(DocumentId::new(1)).unwrap();
        assert_eq!(d.scenario.components.len(), 6);
        assert!(server.db.store(MediaKind::Video).get("v.mpg").is_some());
    }

    #[test]
    fn tutor_reply_points_at_lesson() {
        let m = tutor_reply("s@hermes", "t@hermes", DocumentId::new(42));
        assert!(m.body.contains("doc42"));
        assert_eq!(m.to, "s@hermes");
    }
}
