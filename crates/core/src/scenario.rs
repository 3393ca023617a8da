//! The pre-orchestrated presentation scenario model.
//!
//! A hypermedia document "is a composition of different media that are
//! appropriately placed in time and space to form a playout scenario" (§3).
//! The model has four logical abstractions:
//!
//! * **content** — the inline media entities, where they are stored and how
//!   they are encoded ([`MediaSource`], [`Encoding`]);
//! * **layout** — where media appear on the desktop ([`Region`]);
//! * **synchronization** — relative start times `t_i` and durations `d_i`,
//!   plus sync groups binding streams (the `AU_VI` construct) that "should
//!   start and stop playing at the same time";
//! * **interconnection** — sequential / explorational hyperlinks, optionally
//!   auto-activated after a timed delay (`AT`).

use crate::ids::{ComponentId, DocumentId, ServerId};
use crate::interval::Interval;
use crate::layout::{HeadingLevel, Region, TextStyle};
use crate::media_kind::{Encoding, MediaKind};
use crate::time::{MediaDuration, MediaTime};
use std::collections::{BTreeMap, BTreeSet};

/// Where a media component's inline data lives: the media server path / key
/// that the `SOURCE` keyword carries ("information about the storage of data
/// ... based on the database model used by the service").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MediaSource {
    /// The multimedia server holding the referenced media server.
    pub server: ServerId,
    /// Storage key within the media server (a path or object name).
    pub object: String,
}

impl MediaSource {
    /// Construct a source reference.
    pub fn new(server: ServerId, object: impl Into<String>) -> Self {
        MediaSource {
            server,
            object: object.into(),
        }
    }
}

/// A run of styled text inside a text component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextRun {
    /// The characters.
    pub text: String,
    /// Style flags (B/I/U).
    pub style: TextStyle,
}

/// Structured body content of a text component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextBlock {
    /// A heading line (`H1`/`H2`/`H3`).
    Heading(HeadingLevel, String),
    /// A paragraph break (`PAR`).
    ParagraphBreak,
    /// A sequence of styled runs.
    Runs(Vec<TextRun>),
}

/// The content payload of one media component.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentContent {
    /// Inline formatted text (travels with the scenario; always available).
    Text(Vec<TextBlock>),
    /// Media fetched from a media server.
    Stored {
        /// Where to fetch it from.
        source: MediaSource,
        /// Its encoding.
        encoding: Encoding,
    },
}

impl ComponentContent {
    /// The media kind of this content.
    pub fn kind(&self) -> MediaKind {
        match self {
            ComponentContent::Text(_) => MediaKind::Text,
            ComponentContent::Stored { encoding, .. } => encoding.kind(),
        }
    }
}

/// One media component of the scenario: a piece of media with an `ID`,
/// timing (`STARTIME`/`DURATION`), placement (`WHERE`/`HEIGHT`/`WIDTH`) and
/// an optional annotation (`NOTE`).
#[derive(Debug, Clone, PartialEq)]
pub struct MediaComponent {
    /// Unique id within the document (demultiplexing key at the client).
    pub id: ComponentId,
    /// The content (inline text or stored media reference).
    pub content: ComponentContent,
    /// Relative playout start time `t_i` (µs after presentation start).
    pub start: MediaTime,
    /// Playout duration `d_i`. `None` means "until the presentation ends"
    /// (the always-visible background text of the Fig. 2 example).
    pub duration: Option<MediaDuration>,
    /// Placement on the desktop, if spatial.
    pub region: Option<Region>,
    /// Author's annotation (`NOTE`).
    pub note: Option<String>,
}

impl MediaComponent {
    /// Media kind shortcut.
    pub fn kind(&self) -> MediaKind {
        self.content.kind()
    }
    /// The playout interval, clamped to a presentation that ends at
    /// `presentation_end` for open-ended components.
    pub fn interval(&self, presentation_end: MediaTime) -> Interval {
        let end = match self.duration {
            Some(d) => self.start + d,
            None => presentation_end.max(self.start),
        };
        Interval::new(self.start, end)
    }
    /// Is this component continuous (audio/video)?
    pub fn is_continuous(&self) -> bool {
        self.kind().is_continuous()
    }
}

/// Hyperlink categories (§3): *sequential* links "preserve the logical
/// sequence (or the author's sequence)"; *explorational* links "override the
/// logical sequence and provide access to related information".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Follows the author's intended sequence of documents.
    Sequential,
    /// Jumps to related side information.
    Explorational,
}

/// Where a hyperlink leads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LinkTarget {
    /// A document on the same multimedia server.
    Local(DocumentId),
    /// A document on another multimedia server (triggers the
    /// suspend-connection / new-connection migration of §5).
    Remote(ServerId, DocumentId),
}

impl LinkTarget {
    /// The document this target points at.
    pub fn document(&self) -> DocumentId {
        match self {
            LinkTarget::Local(d) => *d,
            LinkTarget::Remote(_, d) => *d,
        }
    }
}

/// A hyperlink (`HLINK`), optionally auto-activated `AT` a scenario time:
/// "a specific link will be automatically followed after the expiration of a
/// time period ... in the absence of user involvement".
#[derive(Debug, Clone, PartialEq)]
pub struct HyperLink {
    /// Sequential or explorational.
    pub kind: LinkKind,
    /// Destination document.
    pub target: LinkTarget,
    /// Auto-follow time (`AT`), relative to presentation start.
    pub auto_at: Option<MediaTime>,
    /// Annotation shown to the user (`NOTE`).
    pub note: Option<String>,
}

/// A group of components that must start and stop together — the `AU_VI`
/// construct ("the two media should start and stop playing at the same
/// time"). Generalized to any set of component ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncGroup {
    /// Members of the group; all must share start and duration.
    pub members: Vec<ComponentId>,
}

/// A complete pre-orchestrated presentation scenario for one document.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Document this scenario presents.
    pub document: DocumentId,
    /// Document title (`TITLE`).
    pub title: String,
    /// Media components ordered by author (body order).
    pub components: Vec<MediaComponent>,
    /// Sync groups binding related continuous streams.
    pub sync_groups: Vec<SyncGroup>,
    /// Outgoing hyperlinks.
    pub links: Vec<HyperLink>,
}

/// A structural problem found while validating a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioIssue {
    /// Two components share one id.
    DuplicateComponentId(ComponentId),
    /// A sync group names an unknown component.
    UnknownSyncMember(ComponentId),
    /// A sync group has fewer than two members.
    DegenerateSyncGroup,
    /// Members of one sync group have differing start times or durations.
    SyncGroupTimingMismatch(ComponentId, ComponentId),
    /// A component has a negative start time.
    NegativeStart(ComponentId),
    /// A timed link fires at a negative instant.
    NegativeLinkTime,
    /// Two spatial components with overlapping active intervals overlap on
    /// screen (reported, not fatal: authors may layer intentionally).
    SpatialOverlap(ComponentId, ComponentId),
}

impl Scenario {
    /// Create an empty scenario for a document.
    pub fn new(document: DocumentId, title: impl Into<String>) -> Self {
        Scenario {
            document,
            title: title.into(),
            components: Vec::new(),
            sync_groups: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Look up a component by id.
    pub fn component(&self, id: ComponentId) -> Option<&MediaComponent> {
        self.components.iter().find(|c| c.id == id)
    }

    /// The presentation end: the latest end instant over all bounded
    /// components and timed links (open-ended components don't extend it).
    pub fn presentation_end(&self) -> MediaTime {
        let mut end = MediaTime::ZERO;
        for c in &self.components {
            if let Some(d) = c.duration {
                end = end.max(c.start + d);
            } else {
                end = end.max(c.start);
            }
        }
        for l in &self.links {
            if let Some(at) = l.auto_at {
                end = end.max(at);
            }
        }
        end
    }

    /// The sync group containing `id`, if any.
    pub fn sync_group_of(&self, id: ComponentId) -> Option<&SyncGroup> {
        self.sync_groups.iter().find(|g| g.members.contains(&id))
    }

    /// Partner components that must stay in sync with `id` (excluding itself).
    pub fn sync_partners(&self, id: ComponentId) -> Vec<ComponentId> {
        self.sync_group_of(id)
            .map(|g| g.members.iter().copied().filter(|m| *m != id).collect())
            .unwrap_or_default()
    }

    /// The earliest timed (`AT`) link, if any — the auto-follow that
    /// "preserves the sequential nature ... in the absence of user
    /// involvement".
    pub fn next_auto_link(&self) -> Option<&HyperLink> {
        self.links
            .iter()
            .filter(|l| l.auto_at.is_some())
            .min_by_key(|l| l.auto_at)
    }

    /// The Allen relation between every ordered pair of components'
    /// playout intervals — the interval-based temporal analysis of the
    /// scenario ([LIT 93] lineage). Useful to authors for checking that a
    /// scenario means what they drew.
    pub fn temporal_relations(
        &self,
    ) -> Vec<(ComponentId, ComponentId, crate::interval::AllenRelation)> {
        let end = self.presentation_end();
        let mut out = Vec::new();
        for i in 0..self.components.len() {
            for j in (i + 1)..self.components.len() {
                let a = &self.components[i];
                let b = &self.components[j];
                out.push((a.id, b.id, a.interval(end).allen(&b.interval(end))));
            }
        }
        out
    }

    /// Validate structural invariants; returns all issues found.
    pub fn validate(&self) -> Vec<ScenarioIssue> {
        let mut issues = Vec::new();
        let mut seen = BTreeSet::new();
        for c in &self.components {
            if !seen.insert(c.id) {
                issues.push(ScenarioIssue::DuplicateComponentId(c.id));
            }
            if c.start < MediaTime::ZERO {
                issues.push(ScenarioIssue::NegativeStart(c.id));
            }
        }
        let by_id: BTreeMap<ComponentId, &MediaComponent> =
            self.components.iter().map(|c| (c.id, c)).collect();
        for g in &self.sync_groups {
            if g.members.len() < 2 {
                issues.push(ScenarioIssue::DegenerateSyncGroup);
            }
            for m in &g.members {
                if !by_id.contains_key(m) {
                    issues.push(ScenarioIssue::UnknownSyncMember(*m));
                }
            }
            for pair in g.members.windows(2) {
                if let (Some(a), Some(b)) = (by_id.get(&pair[0]), by_id.get(&pair[1])) {
                    if a.start != b.start || a.duration != b.duration {
                        issues.push(ScenarioIssue::SyncGroupTimingMismatch(a.id, b.id));
                    }
                }
            }
        }
        for l in &self.links {
            if let Some(at) = l.auto_at {
                if at < MediaTime::ZERO {
                    issues.push(ScenarioIssue::NegativeLinkTime);
                }
            }
        }
        // Spatial overlap among temporally-overlapping visual components.
        let end = self.presentation_end();
        let visual: Vec<&MediaComponent> = self
            .components
            .iter()
            .filter(|c| c.region.is_some() && c.kind() != MediaKind::Audio)
            .collect();
        for i in 0..visual.len() {
            for j in (i + 1)..visual.len() {
                let (a, b) = (visual[i], visual[j]);
                let (ra, rb) = (a.region.unwrap(), b.region.unwrap());
                if ra.overlaps(&rb) && a.interval(end).overlaps(&b.interval(end)) {
                    issues.push(ScenarioIssue::SpatialOverlap(a.id, b.id));
                }
            }
        }
        issues
    }

    /// True iff `validate` finds no *fatal* issues (spatial overlap is a
    /// warning only).
    pub fn is_well_formed(&self) -> bool {
        self.validate()
            .iter()
            .all(|i| matches!(i, ScenarioIssue::SpatialOverlap(_, _)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_component(id: u64, start_ms: i64, dur_ms: Option<i64>) -> MediaComponent {
        MediaComponent {
            id: ComponentId::new(id),
            content: ComponentContent::Text(vec![TextBlock::Runs(vec![TextRun {
                text: "hello".into(),
                style: TextStyle::PLAIN,
            }])]),
            start: MediaTime::from_millis(start_ms),
            duration: dur_ms.map(MediaDuration::from_millis),
            region: None,
            note: None,
        }
    }

    fn stored(id: u64, enc: Encoding, start_ms: i64, dur_ms: i64) -> MediaComponent {
        MediaComponent {
            id: ComponentId::new(id),
            content: ComponentContent::Stored {
                source: MediaSource::new(ServerId::new(0), format!("obj-{id}")),
                encoding: enc,
            },
            start: MediaTime::from_millis(start_ms),
            duration: Some(MediaDuration::from_millis(dur_ms)),
            region: None,
            note: None,
        }
    }

    fn demo() -> Scenario {
        let mut s = Scenario::new(DocumentId::new(1), "demo");
        s.components.push(text_component(0, 0, None));
        s.components.push(stored(1, Encoding::Jpeg, 0, 4000));
        s.components.push(stored(2, Encoding::Pcm, 4000, 6000));
        s.components.push(stored(3, Encoding::Mpeg, 4000, 6000));
        s.sync_groups.push(SyncGroup {
            members: vec![ComponentId::new(2), ComponentId::new(3)],
        });
        s.links.push(HyperLink {
            kind: LinkKind::Sequential,
            target: LinkTarget::Local(DocumentId::new(2)),
            auto_at: Some(MediaTime::from_millis(12000)),
            note: None,
        });
        s
    }

    #[test]
    fn well_formed_demo() {
        let s = demo();
        assert!(s.is_well_formed(), "issues: {:?}", s.validate());
        assert_eq!(s.presentation_end(), MediaTime::from_millis(12000));
    }

    #[test]
    fn duplicate_ids_flagged() {
        let mut s = demo();
        s.components.push(stored(1, Encoding::Gif, 0, 100));
        assert!(s
            .validate()
            .contains(&ScenarioIssue::DuplicateComponentId(ComponentId::new(1))));
        assert!(!s.is_well_formed());
    }

    #[test]
    fn sync_group_mismatch_flagged() {
        let mut s = demo();
        // Desynchronize the video member.
        s.components[3].start = MediaTime::from_millis(4500);
        assert!(matches!(
            s.validate().as_slice(),
            [ScenarioIssue::SyncGroupTimingMismatch(_, _)]
        ));
    }

    #[test]
    fn unknown_sync_member_flagged() {
        let mut s = demo();
        s.sync_groups[0].members.push(ComponentId::new(99));
        assert!(s
            .validate()
            .contains(&ScenarioIssue::UnknownSyncMember(ComponentId::new(99))));
    }

    #[test]
    fn degenerate_group_flagged() {
        let mut s = demo();
        s.sync_groups.push(SyncGroup {
            members: vec![ComponentId::new(2)],
        });
        assert!(s.validate().contains(&ScenarioIssue::DegenerateSyncGroup));
    }

    #[test]
    fn sync_partner_lookup() {
        let s = demo();
        assert_eq!(
            s.sync_partners(ComponentId::new(2)),
            vec![ComponentId::new(3)]
        );
        assert!(s.sync_partners(ComponentId::new(0)).is_empty());
    }

    #[test]
    fn open_ended_component_interval_clamps() {
        let s = demo();
        let end = s.presentation_end();
        let iv = s.components[0].interval(end);
        assert_eq!(iv.start, MediaTime::ZERO);
        assert_eq!(iv.end, end);
    }

    #[test]
    fn spatial_overlap_is_warning_only() {
        let mut s = demo();
        s.components[1].region = Some(Region::new(0, 0, 100, 100));
        let mut extra = stored(4, Encoding::Gif, 1000, 1000);
        extra.region = Some(Region::new(50, 50, 100, 100));
        s.components.push(extra);
        assert!(s
            .validate()
            .iter()
            .any(|i| matches!(i, ScenarioIssue::SpatialOverlap(_, _))));
        assert!(s.is_well_formed());
    }

    #[test]
    fn next_auto_link_is_earliest() {
        let mut s = demo();
        s.links.push(HyperLink {
            kind: LinkKind::Explorational,
            target: LinkTarget::Remote(ServerId::new(5), DocumentId::new(9)),
            auto_at: Some(MediaTime::from_millis(8000)),
            note: None,
        });
        let l = s.next_auto_link().unwrap();
        assert_eq!(l.auto_at, Some(MediaTime::from_millis(8000)));
    }

    #[test]
    fn temporal_relations_match_figure() {
        use crate::interval::AllenRelation;
        let s = demo();
        let rels = s.temporal_relations();
        // demo: image [0,4), audio/video [4,10) synchronized.
        let find = |a: u64, b: u64| {
            rels.iter()
                .find(|(x, y, _)| *x == ComponentId::new(a) && *y == ComponentId::new(b))
                .map(|(_, _, r)| *r)
                .unwrap()
        };
        assert_eq!(find(1, 2), AllenRelation::Meets); // image meets audio
        assert_eq!(find(2, 3), AllenRelation::Equals); // the sync pair
        assert_eq!(rels.len(), 6); // C(4,2) pairs over the demo's components
    }
}
