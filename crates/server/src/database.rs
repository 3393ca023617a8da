//! The multimedia database of one multimedia (Hermes) server.
//!
//! "The internal structural presentation of a hypermedia object is stored in
//! a multimedia server, while the inline data that compose the document may
//! reside on their own media servers attached to the multimedia server"
//! (§2). Documents are stored as markup text plus the lowered scenario;
//! topics group documents into the list presented after connection.

use hermes_core::{DocumentId, MediaKind, Scenario, ServerId, ServiceError, ServiceResult};
use hermes_hml::scenario_from_markup;
use hermes_media::MediaStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A topic entry in the service's contents list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicEntry {
    /// The document presenting the topic/lesson.
    pub document: DocumentId,
    /// Display title.
    pub title: String,
    /// Short description shown in the topic list.
    pub description: String,
}

/// One stored hypermedia document.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    /// The markup source text ("the representation of a document by the
    /// markup language is actually a text file").
    pub markup: String,
    /// The lowered presentation scenario.
    pub scenario: Scenario,
}

/// A multimedia server's database: documents, topics and the media stores of
/// its attached media servers (one per media kind).
#[derive(Debug)]
pub struct MultimediaDb {
    /// This server's id (relative SOURCE keys resolve against it).
    pub server: ServerId,
    /// Documents are shared out as `Arc` handles: the delivery path holds a
    /// document across admission + media activation without deep-copying the
    /// markup and scenario per request.
    documents: BTreeMap<DocumentId, Arc<StoredDocument>>,
    topics: Vec<TopicEntry>,
    /// Media stores keyed by kind — "for every media object (e.g., text,
    /// image, audio, video, etc) a media server is associated" (§6.1).
    stores: BTreeMap<MediaKind, MediaStore>,
}

impl MultimediaDb {
    /// An empty database for a server.
    pub fn new(server: ServerId) -> Self {
        let mut stores = BTreeMap::new();
        for k in MediaKind::ALL {
            stores.insert(k, MediaStore::new());
        }
        MultimediaDb {
            server,
            documents: BTreeMap::new(),
            topics: Vec::new(),
            stores,
        }
    }

    /// Ingest a document from markup text; lowers it to a scenario, stores
    /// both and registers the topic entry.
    pub fn add_document(
        &mut self,
        id: DocumentId,
        markup: impl Into<String>,
        description: impl Into<String>,
    ) -> ServiceResult<&StoredDocument> {
        let markup = markup.into();
        let scenario = scenario_from_markup(&markup, id, self.server)
            .map_err(|e| ServiceError::ParseError(e.to_string()))?;
        if !scenario.is_well_formed() {
            return Err(ServiceError::MalformedScenario(format!(
                "{:?}",
                scenario.validate()
            )));
        }
        self.topics.push(TopicEntry {
            document: id,
            title: scenario.title.clone(),
            description: description.into(),
        });
        self.documents
            .insert(id, Arc::new(StoredDocument { markup, scenario }));
        Ok(&**self.documents.get(&id).unwrap())
    }

    /// Retrieve a document as a cheap shared handle.
    pub fn document(&self, id: DocumentId) -> ServiceResult<&Arc<StoredDocument>> {
        self.documents
            .get(&id)
            .ok_or(ServiceError::DocumentNotFound(id))
    }

    /// The topic list (the service contents presented after connection).
    pub fn topics(&self) -> &[TopicEntry] {
        &self.topics
    }

    /// The media store for a kind (the attached media server's storage).
    pub fn store(&self, kind: MediaKind) -> &MediaStore {
        &self.stores[&kind]
    }

    /// Mutable media store access (content ingestion).
    pub fn store_mut(&mut self, kind: MediaKind) -> &mut MediaStore {
        self.stores.get_mut(&kind).unwrap()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }
    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Scan all documents for a search token (case-insensitive), per §6.2.2:
    /// "all the text documents stored in that server are scanned ... only
    /// the lessons which contain the item of interest and the server
    /// location are transmitted". Returns matching (document, title) pairs.
    pub fn search(&self, token: &str) -> Vec<(DocumentId, String)> {
        let needle = token.to_lowercase();
        if needle.is_empty() {
            return Vec::new();
        }
        self.documents
            .iter()
            .filter(|(_, d)| d.markup.to_lowercase().contains(&needle))
            .map(|(id, d)| (*id, d.scenario.title.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{Encoding, MediaDuration};

    fn db() -> MultimediaDb {
        let mut db = MultimediaDb::new(ServerId::new(0));
        db.add_document(
            DocumentId::new(1),
            "<TITLE> Rivers of Europe </TITLE> <TEXT> The Danube flows east </TEXT>",
            "geography",
        )
        .unwrap();
        db.add_document(
            DocumentId::new(2),
            "<TITLE> Alps </TITLE> <TEXT> Mountain geography lesson </TEXT>
             <AU> SOURCE=narration.pcm STARTIME=0s DURATION=10s ID=1 </AU>",
            "geography",
        )
        .unwrap();
        db.store_mut(MediaKind::Audio).add(
            "narration.pcm",
            Encoding::Pcm,
            MediaDuration::from_secs(10),
            7,
        );
        db
    }

    #[test]
    fn ingest_and_retrieve() {
        let db = db();
        assert_eq!(db.len(), 2);
        let d = db.document(DocumentId::new(1)).unwrap();
        assert_eq!(d.scenario.title, "Rivers of Europe");
        assert!(db.document(DocumentId::new(2)).is_ok());
        assert!(matches!(
            db.document(DocumentId::new(9)),
            Err(ServiceError::DocumentNotFound(_))
        ));
    }

    #[test]
    fn topics_registered_in_order() {
        let db = db();
        let t = db.topics();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].title, "Rivers of Europe");
        assert_eq!(t[1].document, DocumentId::new(2));
        assert_eq!(t[0].description, "geography");
    }

    #[test]
    fn malformed_markup_rejected() {
        let mut db = MultimediaDb::new(ServerId::new(0));
        let e = db
            .add_document(DocumentId::new(1), "<BLINK>", "x")
            .unwrap_err();
        assert!(matches!(e, ServiceError::ParseError(_)));
        assert!(db.is_empty());
        assert!(db.topics().is_empty());
    }

    #[test]
    fn duplicate_component_ids_rejected_as_malformed() {
        let mut db = MultimediaDb::new(ServerId::new(0));
        let e = db
            .add_document(
                DocumentId::new(1),
                "<TITLE>t</TITLE> <IMG> SOURCE=a ID=1 </IMG> <IMG> SOURCE=b ID=1 </IMG>",
                "x",
            )
            .unwrap_err();
        assert!(matches!(e, ServiceError::ParseError(_)), "{e:?}");
    }

    #[test]
    fn search_scans_markup_case_insensitively() {
        let db = db();
        let hits = db.search("danube");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, DocumentId::new(1));
        // Token present in both documents.
        assert_eq!(db.search("GEOGRAPHY").len(), 1); // only doc 2's body has it
        assert_eq!(db.search("lesson").len(), 1);
        assert!(db.search("volcano").is_empty());
        assert!(db.search("").is_empty());
    }

    #[test]
    fn media_store_per_kind() {
        let db = db();
        assert_eq!(db.store(MediaKind::Audio).len(), 1);
        assert_eq!(db.store(MediaKind::Video).len(), 0);
        assert!(db.store(MediaKind::Audio).get("narration.pcm").is_some());
    }
}
