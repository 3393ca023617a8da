//! Stream sharing: batching and patching for popular content.
//!
//! The paper targets "a large number of users" on one service; a unicast
//! flow per session makes server egress grow linearly with the audience.
//! The classic VoD answer is to *share* delivery channels: requests for
//! the same object arriving within a batching window `W` ride one shared
//! (multicast) flow, and — in patching mode — a viewer arriving shortly
//! *after* a shared flow started still joins it, receiving the missed
//! prefix as a short unicast patch instead of a whole private stream
//! (Hua/Cai/Sheu's patching; Dan/Sitaram/Shahabuddin's batching).
//!
//! [`SharedGroups`] is the whole group table of one server, and needs no
//! simulator: per-document popularity counts and the decision
//! ([`SharedGroups::route`]), the live groups, which group each session is
//! in, each patching joiner's cut-offs, the delivery epochs and the
//! segment-cache pins. Each entry point answers in [`ShareOut`] data the
//! server actor applies in order. The actor keeps admission, the streams,
//! their pacing and the patch streams.

use crate::segcache::SegmentCache;
use hermes_core::{ComponentId, DocumentId, MediaDuration, MediaTime, NodeId, SessionId};
use std::collections::BTreeMap;

/// Which sharing mechanisms are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// Every session gets a private unicast flow (the PR 2 behaviour).
    Off,
    /// Requests within the window batch onto one shared flow; the flow
    /// starts when the window closes.
    Batching,
    /// Batching, plus late joiners patch into an already-started flow.
    BatchingPatching,
}

/// Tunables of the sharing policy.
#[derive(Debug, Clone)]
pub struct SharingPolicy {
    /// Enabled mechanisms.
    pub mode: SharingMode,
    /// Batching window `W`: how long the first request of a batch waits
    /// for companions before the shared flow starts.
    pub window: MediaDuration,
    /// Longest missed prefix a patch may cover; a later request opens a
    /// fresh batch instead.
    pub max_patch: MediaDuration,
    /// Popularity-rank knob: objects ranked strictly below this (0 = most
    /// popular) start their shared flow immediately and rely on patching
    /// for followers, instead of holding the first viewer for the full
    /// window — hot content has followers soon anyway, so batch-wait
    /// latency buys nothing.
    pub hot_rank: usize,
}

impl Default for SharingPolicy {
    fn default() -> Self {
        SharingPolicy {
            mode: SharingMode::Batching,
            window: MediaDuration::from_millis(2_000),
            max_patch: MediaDuration::from_millis(4_000),
            hot_rank: 4,
        }
    }
}

/// How one incoming request should be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareDecision {
    /// A private unicast flow (sharing off).
    Unicast,
    /// Open a new shared group and start its flow after `wait`.
    OpenGroup {
        /// Batching delay before the shared flow starts (zero for hot
        /// objects in patching mode).
        wait: MediaDuration,
    },
    /// Join the object's pending group; the flow has not started yet.
    JoinPending,
    /// Join the streaming group and receive the missed `offset` of
    /// presentation time as a unicast patch.
    JoinWithPatch {
        /// Presentation-time length of the missed prefix.
        offset: MediaDuration,
    },
}

/// What the group table asks its owner to do, in the order it asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareOut {
    /// Add the session's client to multicast group `group`.
    Join {
        /// The multicast group (= the group id).
        group: u64,
        /// The member.
        session: SessionId,
    },
    /// Remove the session's *current* client from multicast group `group`
    /// (nothing, if the session is gone).
    Leave {
        /// The multicast group (= the group id).
        group: u64,
        /// The member.
        session: SessionId,
    },
    /// Tell the session it rides `group` at `epoch` (`StreamJoin`).
    Announce {
        /// The new member.
        session: SessionId,
        /// Its group.
        group: u64,
        /// The group's delivery epoch.
        epoch: u64,
        /// Missed prefix the client must ask a patch for (≥ 0), or −1 for
        /// none: the leader, and a join before the flow started.
        offset_micros: i64,
    },
    /// The group failed over as one unit: renumber it (`GroupEpoch`).
    Epoch {
        /// The group.
        group: u64,
        /// Its new epoch.
        epoch: u64,
    },
}

/// Counters of the stream-sharing machinery on one server, counted by the
/// server actor as it applies [`ShareOut`]s and sends frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Shared groups opened.
    pub groups_opened: u64,
    /// Requests that joined a pending (not yet started) group.
    pub joins_pending: u64,
    /// Requests that joined a started group with a unicast patch.
    pub joins_patched: u64,
    /// Unicast patch streams started.
    pub patch_streams: u64,
    /// Frames sent over multicast groups.
    pub mcast_frames: u64,
    /// Group epoch bumps (media-tier failovers of a shared flow).
    pub epoch_bumps: u64,
}

/// A patching joiner's cut-off per continuous component: the leader's pacer
/// position when the joiner entered the multicast group. The patch covers
/// `[0, cutoff)` and the first shared frame the member sees carries exactly
/// `cutoff`.
pub type Cutoffs = Vec<(ComponentId, MediaTime)>;

/// One shared delivery group: several sessions fed by the leader's streams
/// over one multicast group.
#[derive(Debug)]
struct Group {
    document: DocumentId,
    /// All member sessions, the leader (whose streams feed the group) first.
    members: Vec<SessionId>,
    /// Creation + batching wait; requests before this instant join the
    /// pending batch.
    starts_at: MediaTime,
    /// Bumped exactly once per media-node fault affecting the leader.
    epoch: u64,
    /// Media objects pinned in the segment cache for the group's lifetime.
    objects: Vec<String>,
    /// Cut-offs snapshotted per patching joiner *at join time*, the instant
    /// it enters the multicast group — snapshotting later (at the patch
    /// request) would double-deliver frames multicast in between.
    cutoffs: BTreeMap<SessionId, Cutoffs>,
}

/// The stream-sharing table of one server.
#[derive(Debug)]
pub struct SharedGroups {
    /// The group each session is in (read per frame sent, by `leads`).
    member_of: BTreeMap<SessionId, u64>,
    policy: SharingPolicy,
    /// Requests seen per document (survive a crash, like the id counter).
    requests: BTreeMap<DocumentId, u64>,
    home: u64,
    next: u64,
    groups: BTreeMap<u64, Group>,
    /// The joinable (latest) group per document.
    joinable: BTreeMap<DocumentId, u64>,
}

impl SharedGroups {
    /// An empty table for the server on `home`.
    pub fn new(policy: SharingPolicy, home: NodeId) -> Self {
        SharedGroups {
            policy,
            requests: BTreeMap::new(),
            home: home.raw(),
            next: 1,
            groups: BTreeMap::new(),
            joinable: BTreeMap::new(),
            member_of: BTreeMap::new(),
        }
    }

    /// No group is live.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Count a request for `document` and decide how to serve it from the
    /// phase its joinable group is in at `now`. With sharing `Off` the
    /// answer is `Unicast` and nothing is counted.
    pub fn route(&mut self, document: DocumentId, now: MediaTime) -> ShareDecision {
        if self.policy.mode == SharingMode::Off {
            return ShareDecision::Unicast;
        }
        *self.requests.entry(document).or_insert(0) += 1;
        let group = self.joinable(document).and_then(|g| self.groups.get(&g));
        self.decide(document, group.map(|g| now - g.starts_at))
    }

    /// Popularity rank of `document`: the number of documents with strictly
    /// more requests (0 = most popular). Unseen documents rank last.
    fn rank(&self, document: DocumentId) -> usize {
        match self.requests.get(&document) {
            None => self.requests.len(),
            Some(&own) => self.requests.values().filter(|&&c| c > own).count(),
        }
    }

    /// The decision for a request for `document`, given how long ago its
    /// joinable group's flow started (negative while the batching window is
    /// still open; `None` without a group).
    fn decide(&self, document: DocumentId, elapsed: Option<MediaDuration>) -> ShareDecision {
        let p = &self.policy;
        let patching = p.mode == SharingMode::BatchingPatching;
        match elapsed {
            Some(e) if e < MediaDuration::ZERO => ShareDecision::JoinPending,
            Some(e) if patching && e <= p.max_patch => ShareDecision::JoinWithPatch { offset: e },
            // No group, or too far behind to patch (or patching disabled):
            // the request seeds the next batch for this document.
            _ if patching && self.rank(document) < p.hot_rank => ShareDecision::OpenGroup {
                wait: MediaDuration::ZERO,
            },
            _ => ShareDecision::OpenGroup { wait: p.window },
        }
    }

    /// The group a request for `document` would join.
    pub fn joinable(&self, document: DocumentId) -> Option<u64> {
        self.joinable.get(&document).copied()
    }

    /// Open a group for `document` led by `session` (which first leaves its
    /// current group), its flow starting at `starts_at`, and make it the
    /// document's joinable group. `objects` stay pinned in `cache` while
    /// the group lives: a shared flow serves many viewers per fetched byte,
    /// so its segments must survive cache pressure. Returns the group id.
    pub fn open(
        &mut self,
        session: SessionId,
        document: DocumentId,
        starts_at: MediaTime,
        objects: Vec<String>,
        mut cache: Option<&mut SegmentCache>,
        out: &mut Vec<ShareOut>,
    ) -> u64 {
        self.leave(session, cache.as_deref_mut(), out);
        if let Some(c) = cache {
            objects.iter().for_each(|o| c.pin(o));
        }
        // Travels as an event's `stream` label, a 32-bit slot: fits while
        // the home node's raw id is below 4096 (past it `obs.label_overflow`
        // counts the event and `check_run` reports the run).
        let group = (self.home << 20) | self.next;
        self.next += 1;
        self.groups.insert(
            group,
            Group {
                document,
                members: vec![session],
                starts_at,
                epoch: 0,
                objects,
                cutoffs: BTreeMap::new(),
            },
        );
        self.joinable.insert(document, group);
        self.member_of.insert(session, group);
        out.push(ShareOut::Join { group, session });
        out.push(ShareOut::Announce {
            session,
            group,
            epoch: 0,
            offset_micros: -1,
        });
        group
    }

    /// Add `session` to `group` (it first leaves its current group, which
    /// ends that group if it led it). `offset` is `Some` when the shared
    /// flow already started: `cutoffs` is then asked for the leader's
    /// pacer positions, kept for [`take_cutoffs`](Self::take_cutoffs).
    /// Returns when the group's flow starts; `None` (and nothing done bar
    /// the leave) when the group is gone.
    pub fn join(
        &mut self,
        session: SessionId,
        group: u64,
        offset: Option<MediaDuration>,
        cutoffs: impl FnOnce(SessionId) -> Option<Cutoffs>,
        cache: Option<&mut SegmentCache>,
        out: &mut Vec<ShareOut>,
    ) -> Option<MediaTime> {
        self.leave(session, cache, out);
        let g = self.groups.get_mut(&group)?;
        let leader = g.members.first().copied();
        if let Some(c) = offset.and(leader).and_then(cutoffs) {
            g.cutoffs.insert(session, c);
        }
        g.members.push(session);
        self.member_of.insert(session, group);
        out.push(ShareOut::Join { group, session });
        out.push(ShareOut::Announce {
            session,
            group,
            epoch: g.epoch,
            // The shared flow already runs: the client must ask for the
            // missed prefix (any non-negative offset, including zero —
            // frames may have left in this very instant).
            offset_micros: offset.map_or(-1, |o| o.as_micros().max(0)),
        });
        Some(g.starts_at)
    }

    /// The document and cut-offs `session` patches from, taken once; only
    /// a current member of `group` gets them.
    pub fn take_cutoffs(
        &mut self,
        session: SessionId,
        group: u64,
    ) -> Option<(DocumentId, Cutoffs)> {
        if self.member_of.get(&session) != Some(&group) {
            return None;
        }
        let g = self.groups.get_mut(&group)?;
        Some((g.document, g.cutoffs.remove(&session)?))
    }

    /// Detach `session` from its group, if any. The leader leaving ends the
    /// whole group (members keep whatever they buffered).
    pub fn leave(
        &mut self,
        session: SessionId,
        cache: Option<&mut SegmentCache>,
        out: &mut Vec<ShareOut>,
    ) {
        let Some(group) = self.member_of.remove(&session) else {
            return;
        };
        let Some(g) = self.groups.get_mut(&group) else {
            return;
        };
        let led = g.members.first() == Some(&session);
        g.members.retain(|&m| m != session);
        g.cutoffs.remove(&session);
        out.push(ShareOut::Leave { group, session });
        if led {
            self.end(group, cache, out);
        }
    }

    /// Dissolve `group`: every member leaves (in member order), its objects
    /// are unpinned, and it stops being joinable.
    pub fn end(&mut self, group: u64, cache: Option<&mut SegmentCache>, out: &mut Vec<ShareOut>) {
        let Some(g) = self.groups.remove(&group) else {
            return;
        };
        if self.joinable.get(&g.document) == Some(&group) {
            self.joinable.remove(&g.document);
        }
        for session in g.members {
            self.member_of.remove(&session);
            out.push(ShareOut::Leave { group, session });
        }
        if let Some(c) = cache {
            g.objects.iter().for_each(|o| c.unpin(o));
        }
    }

    /// The group `session` leads, if any: its streams feed that group.
    /// The server asks this for every frame it sends.
    #[inline]
    pub fn leads(&self, session: SessionId) -> Option<u64> {
        let group = *self.member_of.get(&session)?;
        let leader = self.groups.get(&group)?.members.first();
        (leader == Some(&session)).then_some(group)
    }

    /// Streams were re-pointed after a media-node fault: every group whose
    /// leader is among `affected` moves as one unit, exactly one epoch bump
    /// per group, in id order.
    pub fn bump(&mut self, affected: &[(SessionId, ComponentId)], out: &mut Vec<ShareOut>) {
        for (&group, g) in self.groups.iter_mut() {
            let leader = g.members.first();
            if affected.iter().any(|(s, _)| Some(s) == leader) {
                g.epoch += 1;
                out.push(ShareOut::Epoch {
                    group,
                    epoch: g.epoch,
                });
            }
        }
    }

    /// The server crashed: groups are RAM, so every one ends, in id order.
    /// The request counts and the id counter survive (ids stay unique
    /// across incarnations).
    pub fn crash(&mut self, mut cache: Option<&mut SegmentCache>, out: &mut Vec<ShareOut>) {
        while let Some((&group, _)) = self.groups.first_key_value() {
            self.end(group, cache.as_deref_mut(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use ShareDecision::{JoinPending, JoinWithPatch, OpenGroup, Unicast};
    use ShareOut::{Announce, Epoch, Join, Leave};

    const HOME: NodeId = NodeId::new(3);

    fn ms(v: i64) -> MediaDuration {
        MediaDuration::from_millis(v)
    }
    fn at(v: i64) -> MediaTime {
        MediaTime::from_millis(v)
    }
    fn doc(n: u64) -> DocumentId {
        DocumentId::new(n)
    }
    fn ses(n: u64) -> SessionId {
        SessionId::new(n)
    }
    fn cut(v: i64) -> Option<Cutoffs> {
        Some(vec![(ComponentId::new(1), at(v))])
    }

    fn table(mode: SharingMode) -> SharedGroups {
        let policy = SharingPolicy {
            mode,
            window: ms(1_000),
            max_patch: ms(3_000),
            hot_rank: 1,
        };
        SharedGroups::new(policy, HOME)
    }

    /// Open a group for document `d` led by session `leader`, streaming from
    /// `starts` ms, holding the object `"obj<d>"`.
    fn open(
        t: &mut SharedGroups,
        leader: u64,
        d: u64,
        starts: i64,
        out: &mut Vec<ShareOut>,
    ) -> u64 {
        t.open(
            ses(leader),
            doc(d),
            at(starts),
            vec![format!("obj{d}")],
            None,
            out,
        )
    }

    fn join(t: &mut SharedGroups, s: u64, g: u64, out: &mut Vec<ShareOut>) -> Option<MediaTime> {
        t.join(
            ses(s),
            g,
            None,
            |_| panic!("a pending join takes no cut-offs"),
            None,
            out,
        )
    }

    #[test]
    fn off_is_always_unicast_and_counts_nothing() {
        let mut t = table(SharingMode::Off);
        assert_eq!(t.route(doc(1), at(0)), Unicast);
        assert!(t.requests.is_empty());
    }

    #[test]
    fn batching_opens_then_joins_within_window() {
        let (mut t, mut out) = (table(SharingMode::Batching), Vec::new());
        assert_eq!(t.route(doc(1), at(0)), OpenGroup { wait: ms(1_000) });
        open(&mut t, 1, 1, 1_000, &mut out);
        assert_eq!(t.route(doc(1), at(500)), JoinPending);
        // Batching alone cannot join a started flow: next batch.
        assert_eq!(t.route(doc(1), at(1_010)), OpenGroup { wait: ms(1_000) });
    }

    #[test]
    fn patching_joins_started_flows_within_bound() {
        let mut t = table(SharingMode::BatchingPatching);
        for _ in 0..3 {
            t.route(doc(1), at(0));
        }
        let near = t.decide(doc(1), Some(ms(2_000)));
        assert_eq!(near, JoinWithPatch { offset: ms(2_000) });
        assert_eq!(
            t.decide(doc(1), Some(ms(0))),
            JoinWithPatch { offset: ms(0) }
        );
        // Beyond max_patch the request seeds a new batch instead, at once:
        // doc 1 is the top-ranked document.
        let far = t.decide(doc(1), Some(ms(3_001)));
        assert_eq!(
            far,
            OpenGroup {
                wait: MediaDuration::ZERO
            }
        );
    }

    #[test]
    fn hot_objects_start_immediately_cold_ones_wait() {
        let mut t = table(SharingMode::BatchingPatching);
        for _ in 0..5 {
            t.route(doc(1), at(0));
        }
        t.route(doc(2), at(0));
        assert_eq!((t.rank(doc(1)), t.rank(doc(2)), t.rank(doc(3))), (0, 1, 2));
        let hot = t.decide(doc(1), None);
        assert_eq!(
            hot,
            OpenGroup {
                wait: MediaDuration::ZERO
            }
        );
        assert_eq!(t.decide(doc(2), None), OpenGroup { wait: ms(1_000) });
    }

    #[test]
    fn rank_counts_strictly_greater() {
        let mut t = table(SharingMode::Batching);
        t.route(doc(1), at(0));
        t.route(doc(2), at(0));
        // Equal counts share the best rank rather than shadow each other.
        assert_eq!((t.rank(doc(1)), t.rank(doc(2))), (0, 0));
        assert_eq!(t.requests[&doc(1)], 1);
    }

    #[test]
    fn group_ids_carry_the_home_node_and_the_index_names_each_documents_group() {
        let (mut t, mut out) = (table(SharingMode::BatchingPatching), Vec::new());
        let a = open(&mut t, 1, 1, 0, &mut out);
        let b = open(&mut t, 2, 2, 0, &mut out);
        assert_eq!((a, b), ((3 << 20) | 1, (3 << 20) | 2));
        assert_eq!(t.joinable(doc(1)), Some(a));
        assert_eq!(t.joinable(doc(2)), Some(b));
        assert_eq!(t.joinable(doc(3)), None);
        let announce = |s, g| Announce {
            session: ses(s),
            group: g,
            epoch: 0,
            offset_micros: -1,
        };
        let (s1, s2) = (ses(1), ses(2));
        let expect = [
            Join {
                group: a,
                session: s1,
            },
            announce(1, a),
            Join {
                group: b,
                session: s2,
            },
            announce(2, b),
        ];
        assert_eq!(out, expect);
        assert_eq!(
            (t.leads(s1), t.leads(s2), t.leads(ses(3))),
            (Some(a), Some(b), None)
        );
    }

    #[test]
    fn a_pending_join_takes_no_cutoffs_a_patched_one_snapshots_the_leader() {
        let (mut t, mut out) = (table(SharingMode::BatchingPatching), Vec::new());
        let g = open(&mut t, 1, 1, 1_000, &mut out);
        out.clear();
        assert_eq!(join(&mut t, 2, g, &mut out), Some(at(1_000)));
        let mut asked = None;
        let snapshot = |leader| {
            asked = Some(leader);
            cut(700)
        };
        let patched = t.join(ses(3), g, Some(ms(1_500)), snapshot, None, &mut out);
        assert_eq!((patched, asked), (Some(at(1_000)), Some(ses(1))));
        let expect = [
            Join {
                group: g,
                session: ses(2),
            },
            Announce {
                session: ses(2),
                group: g,
                epoch: 0,
                offset_micros: -1,
            },
            Join {
                group: g,
                session: ses(3),
            },
            Announce {
                session: ses(3),
                group: g,
                epoch: 0,
                offset_micros: 1_500_000,
            },
        ];
        assert_eq!(out, expect);
        assert_eq!(t.groups[&g].members, [ses(1), ses(2), ses(3)]);
        assert_eq!((t.leads(ses(2)), t.leads(ses(3))), (None, None));
    }

    #[test]
    fn cutoffs_are_taken_once_and_only_by_a_member_of_that_group() {
        let (mut t, mut out) = (table(SharingMode::BatchingPatching), Vec::new());
        let g = open(&mut t, 1, 1, 0, &mut out);
        let other = open(&mut t, 9, 2, 0, &mut out);
        t.join(ses(2), g, Some(ms(500)), |_| cut(700), None, &mut out);
        assert_eq!(t.take_cutoffs(ses(4), g), None, "not a member");
        assert_eq!(t.take_cutoffs(ses(2), other), None, "not that group");
        assert_eq!(
            t.take_cutoffs(ses(1), g),
            None,
            "the leader patches nothing"
        );
        let taken = t.take_cutoffs(ses(2), g);
        assert_eq!(taken, Some((doc(1), cut(700).unwrap())));
        assert_eq!(t.take_cutoffs(ses(2), g), None, "taken twice");
        // A member that leaves before patching takes its snapshot with it.
        t.join(ses(3), g, Some(ms(500)), |_| cut(800), None, &mut out);
        t.leave(ses(3), None, &mut out);
        join(&mut t, 3, g, &mut out);
        assert_eq!(t.take_cutoffs(ses(3), g), None);
    }

    #[test]
    fn a_leader_leave_emits_one_leave_per_remaining_member_in_member_order() {
        let (mut t, mut out) = (table(SharingMode::Batching), Vec::new());
        let mut cache = SegmentCache::new(1 << 20);
        let objects = vec!["v".to_string()];
        let g = t.open(ses(1), doc(1), at(0), objects, Some(&mut cache), &mut out);
        assert!(cache.is_pinned("v"));
        for s in [4, 2, 3] {
            join(&mut t, s, g, &mut out);
        }
        out.clear();
        t.leave(ses(1), Some(&mut cache), &mut out);
        let leave = |s| Leave {
            group: g,
            session: ses(s),
        };
        assert_eq!(out, [leave(1), leave(4), leave(2), leave(3)]);
        assert!(t.is_empty() && t.member_of.is_empty());
        assert_eq!(t.joinable(doc(1)), None);
        assert!(!cache.is_pinned("v"), "an ended group keeps its pin");
    }

    #[test]
    fn a_member_leave_keeps_the_group() {
        let (mut t, mut out) = (table(SharingMode::Batching), Vec::new());
        let g = open(&mut t, 1, 1, 0, &mut out);
        join(&mut t, 2, g, &mut out);
        out.clear();
        t.leave(ses(2), None, &mut out);
        assert_eq!(
            out,
            [Leave {
                group: g,
                session: ses(2)
            }]
        );
        assert_eq!(t.groups[&g].members, [ses(1)]);
        assert_eq!((t.joinable(doc(1)), t.leads(ses(1))), (Some(g), Some(g)));
        t.leave(ses(2), None, &mut out);
        assert_eq!(out.len(), 1, "a second leave is a no-op");
    }

    #[test]
    fn a_second_group_becomes_joinable_and_ending_the_older_leaves_the_index_alone() {
        let (mut t, mut out) = (table(SharingMode::BatchingPatching), Vec::new());
        let older = open(&mut t, 1, 1, 0, &mut out);
        let younger = open(&mut t, 2, 1, 5_000, &mut out);
        assert_eq!(t.joinable(doc(1)), Some(younger));
        out.clear();
        t.end(older, None, &mut out);
        assert_eq!(
            out,
            [Leave {
                group: older,
                session: ses(1)
            }]
        );
        assert_eq!(t.joinable(doc(1)), Some(younger));
        t.end(older, None, &mut out);
        assert_eq!(out.len(), 1, "ending an ended group is a no-op");
    }

    #[test]
    fn a_join_on_a_group_that_ended_in_the_same_dispatch_answers_none() {
        let (mut t, mut out) = (table(SharingMode::BatchingPatching), Vec::new());
        open(&mut t, 1, 1, 0, &mut out);
        out.clear();
        // The leader asks for its own document again: the table says join
        // its own group, and the actor first leaves — which ends it.
        assert_eq!(t.route(doc(1), at(100)), JoinWithPatch { offset: ms(100) });
        let g = t.joinable(doc(1)).unwrap();
        t.leave(ses(1), None, &mut out);
        let snapshot = |_| panic!("no cut-offs from an ended group");
        assert_eq!(
            t.join(ses(1), g, Some(ms(100)), snapshot, None, &mut out),
            None
        );
        assert_eq!(
            out,
            [Leave {
                group: g,
                session: ses(1)
            }]
        );
        assert!(t.member_of.is_empty());
    }

    #[test]
    fn bump_touches_only_groups_led_by_an_affected_session_in_id_order() {
        let (mut t, mut out) = (table(SharingMode::Batching), Vec::new());
        let a = open(&mut t, 1, 1, 0, &mut out);
        open(&mut t, 2, 2, 0, &mut out);
        let c = open(&mut t, 3, 3, 0, &mut out);
        join(&mut t, 4, a, &mut out);
        out.clear();
        // Session 4 is only a member; session 1 has two streams re-pointed.
        let (c1, c2) = (ComponentId::new(1), ComponentId::new(2));
        let affected = [(ses(3), c1), (ses(4), c1), (ses(1), c1), (ses(1), c2)];
        t.bump(&affected, &mut out);
        let expect = [Epoch { group: a, epoch: 1 }, Epoch { group: c, epoch: 1 }];
        assert_eq!(out, expect);
        t.bump(&affected[2..], &mut out);
        assert_eq!(out[2], Epoch { group: a, epoch: 2 });
        assert_eq!(t.groups[&a].epoch, 2);
    }

    #[test]
    fn crash_empties_everything_but_the_counts_and_the_id_counter() {
        let (mut t, mut out) = (table(SharingMode::Batching), Vec::new());
        let mut cache = SegmentCache::new(1 << 20);
        let objects = |o: &str| vec![o.to_string()];
        let a = t.open(
            ses(1),
            doc(1),
            at(0),
            objects("v"),
            Some(&mut cache),
            &mut out,
        );
        join(&mut t, 2, a, &mut out);
        let b = t.open(
            ses(3),
            doc(2),
            at(0),
            objects("w"),
            Some(&mut cache),
            &mut out,
        );
        t.route(doc(1), at(0));
        out.clear();
        t.crash(Some(&mut cache), &mut out);
        let leave = |g, s| Leave {
            group: g,
            session: ses(s),
        };
        assert_eq!(out, [leave(a, 1), leave(a, 2), leave(b, 3)]);
        assert!(t.is_empty() && t.joinable.is_empty() && t.member_of.is_empty());
        assert!(!cache.is_pinned("v") && !cache.is_pinned("w"));
        assert_eq!(open(&mut t, 1, 1, 0, &mut out), (3 << 20) | 3);
        assert_eq!(t.requests[&doc(1)], 1);
    }

    /// ROADMAP item 6 (j): pins are a count. Two groups for one document
    /// overlap whenever a request arrives past `max_patch` while the older
    /// group still streams (common on `vod_shared`: hot titles, 4 s
    /// `max_patch`, 10 s clips); when the older one ends, the object the
    /// younger one still streams keeps the younger group's pin.
    #[test]
    fn overlapping_groups_keep_their_pins() {
        let (mut t, mut out) = (table(SharingMode::BatchingPatching), Vec::new());
        let mut cache = SegmentCache::new(1 << 20);
        let v = || vec!["v".to_string()];
        let older = t.open(ses(1), doc(1), at(0), v(), Some(&mut cache), &mut out);
        t.open(ses(2), doc(1), at(5_000), v(), Some(&mut cache), &mut out);
        t.end(older, Some(&mut cache), &mut out);
        assert!(cache.is_pinned("v"), "the younger group still streams v");
    }

    /// One input; session, document and group draws resolve when it runs.
    #[derive(Debug, Clone)]
    enum Op {
        /// Advance the clock by this many ms and route a request.
        Route(u64, i64),
        Open(u64, u64),
        /// Session, group draw, patched.
        Join(u64, usize, bool),
        Take(u64, usize),
        Leave(u64),
        End(usize),
        Bump(Vec<u64>),
        Crash,
    }

    fn op() -> impl Strategy<Value = Op> {
        let (s, d, g) = (0u64..6, 0u64..3, 0usize..12);
        prop_oneof![
            (d.clone(), 0i64..3_000).prop_map(|(d, dt)| Op::Route(d, dt)),
            (s.clone(), d).prop_map(|(s, d)| Op::Open(s, d)),
            (s.clone(), g.clone(), any::<bool>()).prop_map(|(s, g, p)| Op::Join(s, g, p)),
            (s.clone(), g.clone()).prop_map(|(s, g)| Op::Take(s, g)),
            s.clone().prop_map(Op::Leave),
            g.prop_map(Op::End),
            proptest::collection::vec(s, 0..4).prop_map(Op::Bump),
            Just(Op::Crash),
        ]
    }

    /// The table under test, plus what its outputs have built so far.
    struct Rig {
        t: SharedGroups,
        cache: SegmentCache,
        now: MediaTime,
        /// Every group id ever opened, ended ones included.
        opened: Vec<u64>,
        /// Multicast memberships the `Join` / `Leave` outputs leave standing.
        mcast: BTreeSet<(u64, SessionId)>,
        /// The last epoch announced per group.
        epochs: BTreeMap<u64, u64>,
    }

    /// A group draw: an id ever opened (live or ended), or one in four
    /// draws an id never issued.
    fn gid(opened: &[u64], draw: usize) -> u64 {
        match opened.len() {
            n if n > 0 && draw % 4 != 3 => opened[draw % n],
            _ => draw as u64,
        }
    }

    impl Rig {
        fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
            let (mut out, now) = (Vec::new(), self.now);
            let cache = Some(&mut self.cache);
            match op {
                Op::Route(d, dt) => {
                    self.now = now + ms(*dt);
                    self.t.route(doc(*d), self.now);
                }
                Op::Open(s, d) => {
                    let objects = vec![format!("obj{d}")];
                    let g =
                        self.t
                            .open(ses(*s), doc(*d), now + ms(1_000), objects, cache, &mut out);
                    self.opened.push(g);
                }
                Op::Join(s, g, patched) => {
                    let (g, offset) = (gid(&self.opened, *g), patched.then_some(ms(500)));
                    let snapshot = |l: SessionId| Some(vec![(ComponentId::new(l.raw()), now)]);
                    self.t.join(ses(*s), g, offset, snapshot, cache, &mut out);
                }
                Op::Take(s, g) => {
                    let g = gid(&self.opened, *g);
                    if let Some((d, _)) = self.t.take_cutoffs(ses(*s), g) {
                        prop_assert_eq!(self.t.groups.get(&g).map(|g| g.document), Some(d));
                    }
                }
                Op::Leave(s) => self.t.leave(ses(*s), cache, &mut out),
                Op::End(g) => self.t.end(gid(&self.opened, *g), cache, &mut out),
                Op::Bump(ss) => {
                    let affected: Vec<_> =
                        ss.iter().map(|&s| (ses(s), ComponentId::new(0))).collect();
                    self.t.bump(&affected, &mut out);
                }
                Op::Crash => self.t.crash(cache, &mut out),
            }
            // Every `Leave` follows a `Join` of the same (group, session), an
            // announcement goes to a member, and epochs only go up, by one.
            for o in out {
                match o {
                    Join { group, session } => prop_assert!(self.mcast.insert((group, session))),
                    Leave { group, session } => prop_assert!(self.mcast.remove(&(group, session))),
                    Announce { session, group, .. } => {
                        prop_assert!(self.mcast.contains(&(group, session)))
                    }
                    Epoch { group, epoch } => {
                        let last = self.epochs.entry(group).or_insert(0);
                        prop_assert_eq!(epoch, *last + 1);
                        *last = epoch;
                    }
                }
            }
            Ok(())
        }

        fn check(&self) -> Result<(), TestCaseError> {
            let t = &self.t;
            // Every session is in at most one group, and the membership
            // table agrees with every member list.
            let mut seen = BTreeSet::new();
            for (&id, g) in &t.groups {
                let Some(&leader) = g.members.first() else {
                    return Err(TestCaseError::fail(format!("group {id} has no leader")));
                };
                // A live group's leader is its first member.
                prop_assert_eq!(t.leads(leader), Some(id));
                for &m in &g.members {
                    prop_assert!(seen.insert(m), "{m} is in two groups, or twice in one");
                    prop_assert_eq!(t.member_of.get(&m), Some(&id));
                    prop_assert!(m == leader || t.leads(m).is_none());
                }
                prop_assert!(g.cutoffs.keys().all(|s| g.members.contains(s)));
                // Epochs never decrease: the table holds the last announced.
                prop_assert_eq!(g.epoch, self.epochs.get(&id).copied().unwrap_or(0));
            }
            prop_assert_eq!(seen.len(), t.member_of.len());
            // The index names only live groups, each for its own document.
            for (d, id) in &t.joinable {
                prop_assert_eq!(t.groups.get(id).map(|g| g.document), Some(*d));
            }
            // The multicast groups the outputs built are the member lists.
            let members = t
                .groups
                .iter()
                .flat_map(|(&id, g)| g.members.iter().map(move |&m| (id, m)));
            prop_assert_eq!(&members.collect::<BTreeSet<_>>(), &self.mcast);
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No input in any order — unknown, duplicated and already-ended
        /// group ids, sessions opening or joining while in a group —
        /// panics the table or leaves it telling different stories.
        #[test]
        fn any_input_in_any_order_keeps_the_table_consistent(
            mode in 0usize..3,
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let modes = [SharingMode::Off, SharingMode::Batching, SharingMode::BatchingPatching];
            let mut rig = Rig {
                t: table(modes[mode]),
                cache: SegmentCache::new(1 << 20),
                now: MediaTime::ZERO,
                opened: Vec::new(),
                mcast: BTreeSet::new(),
                epochs: BTreeMap::new(),
            };
            for op in &ops {
                rig.apply(op)?;
                rig.check()?;
            }
        }
    }
}
