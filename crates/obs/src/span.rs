//! Spans: named sim-time intervals with parent/child links, modeling the
//! paper's session lifecycle (admission → placement → prefill → playout →
//! recovery → degradation/upgrade → teardown) so a session's full timeline
//! can be reconstructed from one run.

use crate::event::Labels;
use hermes_core::MediaTime;
use std::collections::BTreeMap;

/// Handle to a span inside a [`SpanStore`]. `SpanId::NONE` is the null
/// handle: returned when tracing is disabled and accepted (as a no-op
/// parent / end target) everywhere, so call sites never need to branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null span handle.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// True for the null handle.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// One lifecycle interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's handle.
    pub id: SpanId,
    /// Parent span (`SpanId::NONE` for roots).
    pub parent: SpanId,
    /// Static span name.
    pub name: &'static str,
    /// Raw id of the node that opened the span.
    pub node: u64,
    /// Label set (the session id here drives per-session timelines).
    pub labels: Labels,
    /// Open time.
    pub start: MediaTime,
    /// Close time (`None` while still open).
    pub end: Option<MediaTime>,
}

/// The smallest step the span store grows by.
const MIN_STEP: usize = 256;

/// Append-only span storage plus the per-session root index. The spans
/// grow in steps (`grow_step`), not by doubling.
#[derive(Debug, Clone, Default)]
pub struct SpanStore {
    spans: Vec<Span>,
    session_roots: BTreeMap<u64, SpanId>,
}

impl SpanStore {
    /// Open a span. `parent` may be `SpanId::NONE` for a root.
    pub fn start(
        &mut self,
        at: MediaTime,
        node: u64,
        name: &'static str,
        labels: Labels,
        parent: SpanId,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let spans = &mut self.spans;
        let step = crate::grow_step(spans.len(), spans.capacity(), MIN_STEP);
        spans.reserve_exact(step);
        spans.push(Span {
            id,
            parent,
            name,
            node,
            labels,
            start: at,
            end: None,
        });
        id
    }

    /// Close a span (idempotent; the null handle and unknown ids are
    /// ignored, and the first close wins).
    pub fn end(&mut self, id: SpanId, at: MediaTime) {
        if let Some(s) = self.get_mut(id) {
            if s.end.is_none() {
                s.end = Some(at);
            }
        }
    }

    /// The root span of `session`, created on first use: every actor that
    /// touches a session parents its lifecycle spans under the same root
    /// regardless of which side (client or server) reached it first.
    pub fn session_root(&mut self, session: u64, node: u64, at: MediaTime) -> SpanId {
        if let Some(&id) = self.session_roots.get(&session) {
            return id;
        }
        let id = self.start(at, node, "session", Labels::session(session), SpanId::NONE);
        self.session_roots.insert(session, id);
        id
    }

    /// The root span of `session` if one was ever created (read-only
    /// companion of [`Self::session_root`] — attribution uses it to key
    /// causal contexts without creating spans).
    pub fn session_root_of(&self, session: u64) -> Option<SpanId> {
        self.session_roots.get(&session).copied()
    }

    /// Look up a span.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        if id.is_none() {
            return None;
        }
        self.spans.get(id.0 as usize)
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        if id.is_none() {
            return None;
        }
        self.spans.get_mut(id.0 as usize)
    }

    /// All spans in creation order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Spans labelled with `session`, in creation (= start-time) order.
    pub fn for_session(&self, session: u64) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.labels.session == Some(session))
            .collect()
    }

    /// Nesting depth of a span (roots are 0).
    pub fn depth(&self, id: SpanId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(s) = self.get(cur) {
            if s.parent.is_none() {
                break;
            }
            d += 1;
            cur = s.parent;
        }
        d
    }

    /// Number of spans stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_links_and_depth() {
        let mut st = SpanStore::default();
        let root = st.session_root(7, 1, MediaTime::from_millis(10));
        let child = st.start(
            MediaTime::from_millis(20),
            1,
            "prefill",
            Labels::session(7),
            root,
        );
        let grand = st.start(
            MediaTime::from_millis(25),
            1,
            "fetch",
            Labels::session(7),
            child,
        );
        assert_eq!(st.depth(root), 0);
        assert_eq!(st.depth(child), 1);
        assert_eq!(st.depth(grand), 2);
        st.end(child, MediaTime::from_millis(40));
        assert_eq!(st.get(child).unwrap().end, Some(MediaTime::from_millis(40)));
        // First close wins.
        st.end(child, MediaTime::from_millis(99));
        assert_eq!(st.get(child).unwrap().end, Some(MediaTime::from_millis(40)));
        assert_eq!(st.for_session(7).len(), 3);
    }

    #[test]
    fn session_root_is_get_or_create() {
        let mut st = SpanStore::default();
        let a = st.session_root(1, 10, MediaTime::from_millis(1));
        let b = st.session_root(1, 99, MediaTime::from_millis(50));
        assert_eq!(a, b);
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn null_handle_is_inert() {
        let mut st = SpanStore::default();
        st.end(SpanId::NONE, MediaTime::from_millis(1));
        assert!(st.get(SpanId::NONE).is_none());
        assert!(st.is_empty());
    }
}
