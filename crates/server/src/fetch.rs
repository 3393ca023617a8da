//! The multimedia server's client of the distributed media tier (paper
//! Fig. 3: the server pulls continuous media from separate media servers):
//! windowed pipelined segment fetches per stream, the segment cache in front
//! of the network, replica choice, the credit window each media node grants,
//! circuit-breaker scoring, hedged duplicates, shed roll-back and the
//! write-off of a node's outstanding fetches.
//!
//! Nothing here needs a simulator to run. Every entry point takes the
//! [`RemoteStream`] its caller already looked up, a read-only [`TierNet`]
//! (the simulator's handle is one; the tests use a fake) and a caller-owned
//! `Vec<FetchOut>`; what would have been a send, a timer or a trace emit is
//! pushed there as data, and the server actor applies the list in order.
//! The actor keeps sessions, streams, pacing and groups; everything about
//! *which segment is asked of which node when* is here.

use crate::{
    BreakerState, PlacementMap, PressureDetector, ReplicaHealthMap, ReplicaSelector, SegmentCache,
};
use hermes_core::{
    ComponentId, GradeLevel, MediaDuration, MediaKind, MediaTime, NodeId, PricingClass, SessionId,
    VecMap,
};
use hermes_media::{segment_of_frame, SegmentFrame};
use hermes_simnet::{DurationHistogram, Labels, Severity, SimApi, WireSize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

#[cfg(test)]
mod tests;

/// What the fetch client may read of the network it sits on.
pub trait TierNet {
    /// True unless `node` is currently crashed.
    fn node_is_up(&self, node: NodeId) -> bool;
    /// One-way propagation delay of the route `from` → `to` in
    /// microseconds; 0 when no route exists.
    fn propagation_micros(&self, from: NodeId, to: NodeId) -> i64;
}

/// The simulator's handle is such a view; nothing else here names it.
impl<M: WireSize + Clone> TierNet for SimApi<'_, M> {
    fn node_is_up(&self, node: NodeId) -> bool {
        SimApi::node_is_up(self, node)
    }
    fn propagation_micros(&self, from: NodeId, to: NodeId) -> i64 {
        let path = self.net().path_propagation(from, to);
        path.map_or(0, |p| p.as_micros())
    }
}

/// One thing the fetch client wants done, in the order it wants it done.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchOut {
    /// Adopt `session`'s causal root for everything that follows: pumps
    /// serve many sessions from one dispatch, and a fetch must attribute to
    /// the session it serves.
    Adopt(SessionId),
    /// Send a segment fetch request to `tag.replica` (reliable).
    Request {
        /// The fetch id the reply will carry.
        fetch: u64,
        /// Segment, level, deadline and the media node to ask.
        tag: FetchTag,
        /// Media kind (selects the shard store on the node).
        kind: MediaKind,
        /// The media object's storage key, shared with the stream.
        object: Arc<str>,
        /// Segment granularity.
        frames_per_segment: u32,
        /// The session's pricing class (shedding priority).
        class: PricingClass,
    },
    /// Cancel an outstanding fetch at `replica` (reliable, best effort).
    Cancel {
        /// The fetch to cancel.
        fetch: u64,
        /// The node holding it.
        replica: NodeId,
    },
    /// Arm the hedge timer of `fetch`.
    HedgeTimer {
        /// The fetch to race if still unanswered.
        fetch: u64,
        /// The hedge delay.
        delay: MediaDuration,
    },
    /// A credit came free at a node this waiting stream can pull from:
    /// [`MediaTier::repump`] it. Most urgent waiter first.
    Wake((SessionId, ComponentId)),
    /// Record a trace event.
    Event {
        /// Event severity.
        severity: Severity,
        /// Event name.
        name: &'static str,
        /// Event labels.
        labels: Labels,
        /// Payload value (0 when the event carries none).
        value: i64,
        /// Then dump the node's flight recorder under the same name and
        /// labels.
        dump: bool,
    },
    /// A fetch completed after this long (the fetch-latency SLO sample).
    Latency(MediaDuration),
}

impl FetchOut {
    fn event(severity: Severity, name: &'static str, labels: Labels, value: i64) -> Self {
        FetchOut::Event {
            severity,
            name,
            labels,
            value,
            dump: false,
        }
    }

    /// An event followed by a flight dump of the same name.
    fn alarm(severity: Severity, name: &'static str, node: NodeId) -> Self {
        FetchOut::Event {
            severity,
            name,
            labels: Labels::for_peer(node.raw()),
            value: 0,
            dump: true,
        }
    }
}

/// The pacer's side of a pump: whose stream it is and what it still needs.
#[derive(Debug, Clone, Copy)]
pub struct Demand {
    /// The session the stream belongs to.
    pub session: SessionId,
    /// The stream within the session.
    pub component: ComponentId,
    /// The session's pricing class.
    pub class: PricingClass,
    /// The quality level the pacer is sending at.
    pub level: GradeLevel,
    /// Frame period at that level.
    pub frame_period: MediaDuration,
    /// Frames the pacer still has to send, plus one. A discrete object
    /// needs exactly its one oversized frame; demanding more would fetch
    /// redundant copies.
    pub frames_needed: u64,
}

/// Media-tier fetch state of one stream: which replica it pulls from and
/// the windowed-pipelining bookkeeping between the pacer and the network.
#[derive(Debug)]
pub struct RemoteStream {
    /// The media object's storage key, shared by every fetch request and
    /// wait-set entry of the stream.
    pub object: Arc<str>,
    /// Its media kind (selects the shard store on media nodes).
    pub kind: MediaKind,
    /// The media node currently serving this stream.
    pub replica: NodeId,
    /// Segment granularity of this stream's fetches: the tier's configured
    /// value for continuous media, 1 for discrete objects (one oversized
    /// "frame" — fetching a whole segment would pull redundant copies).
    pub frames_per_segment: u32,
    /// Bumped on failover and level retargets; chunks tagged with an older
    /// epoch are stale and dropped.
    pub epoch: u32,
    /// In-order frame specs ready for the pacer to consume.
    pub ready: ReadyFrames,
    /// Next segment index to request.
    next_request: u64,
    /// Next segment index to append into `ready`.
    next_append: u64,
    /// Fetched segments waiting for in-order append (segment → frames, as
    /// fetched or cached: shared, never copied).
    pending: VecMap<u64, Arc<[SegmentFrame]>>,
    /// Frames to drop from the next appended segment (mid-segment starts
    /// after fast-forward or a level retarget).
    skip: u32,
    /// Outstanding segment fetches (segment → fetch id).
    inflight: VecMap<u64, u64>,
}

impl RemoteStream {
    /// Point the fetch window at global frame index `next_seq`, discarding
    /// all buffered and in-flight content (used when a level switch
    /// invalidates fetched frame sizes).
    pub fn retarget(&mut self, next_seq: u64) {
        let (seg, off) = segment_of_frame(next_seq, self.frames_per_segment);
        self.pending.clear();
        self.ready.clear();
        self.inflight.clear();
        self.next_request = seg;
        self.next_append = seg;
        self.skip = off;
        self.epoch += 1;
    }

    /// The stream is being re-pointed at another replica: keep `ready`
    /// (already fetched, in order), drop the rest of the window and start a
    /// new epoch — the stateless fetch protocol makes failover exactly a
    /// re-request from the first frame not yet appended.
    pub fn restart(&mut self, session: SessionId, component: ComponentId, out: &mut Vec<FetchOut>) {
        self.pending.clear();
        self.inflight.clear();
        self.next_request = self.next_append;
        self.epoch += 1;
        out.push(FetchOut::event(
            Severity::Info,
            "stream_epoch",
            Labels::session(session.raw()).stream(component.raw()),
            self.epoch as i64,
        ));
    }

    /// The stream has sent its last frame: drop the frame specs still
    /// queued (fetched whole segments can run past the last frame sent;
    /// nothing pops them now) and give back the fetch window's unused
    /// storage.
    pub fn release(&mut self) {
        self.ready = ReadyFrames::default();
        self.pending.shrink_to_fit();
        self.inflight.shrink_to_fit();
    }

    /// Drain contiguously fetched segments into the ready queue.
    fn drain_ready(&mut self) {
        while let Some(frames) = self.pending.remove(&self.next_append) {
            self.next_append += 1;
            let skipped = self.skip.min(frames.len() as u32);
            self.skip -= skipped;
            self.ready.push_segment(frames, skipped);
        }
    }

    /// Frames buffered or expected from outstanding fetches.
    fn frames_covered(&self) -> u64 {
        self.ready.len() as u64
            + self.pending.values().map(|v| v.len() as u64).sum::<u64>()
            + self.inflight.len() as u64 * self.frames_per_segment as u64
    }
}

/// A stream's fetched frames in pacing order, read in place: each landed
/// segment is held shared, as fetched or cached, with the index of its
/// next unread frame. Nothing is copied out of a segment.
#[derive(Debug, Default)]
pub struct ReadyFrames {
    /// Segments with frames left, oldest first, each with its next frame.
    segments: VecDeque<(Arc<[SegmentFrame]>, u32)>,
    /// Frames left across all of them.
    len: usize,
}

impl ReadyFrames {
    /// Queue `frames[from..]` behind what is queued (nothing when `from` is
    /// past its end).
    pub(crate) fn push_segment(&mut self, frames: Arc<[SegmentFrame]>, from: u32) {
        let left = frames.len().saturating_sub(from as usize);
        if left > 0 {
            self.len += left;
            self.segments.push_back((frames, from));
        }
    }

    /// Frames queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no frame is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The next frame, still in its segment.
    pub fn front(&self) -> Option<&SegmentFrame> {
        let (frames, next) = self.segments.front()?;
        frames.get(*next as usize)
    }

    /// Take the next frame; a segment read to its end is let go.
    pub fn pop_front(&mut self) -> Option<SegmentFrame> {
        let (frames, next) = self.segments.front_mut()?;
        let frame = frames[*next as usize];
        *next += 1;
        if *next as usize == frames.len() {
            self.segments.pop_front();
        }
        self.len -= 1;
        Some(frame)
    }

    /// Drop every queued frame.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.len = 0;
    }
}

/// Frames per fetched segment of a continuous object.
const FRAMES_PER_SEGMENT: u32 = 32;
/// Maximum outstanding segment fetches per stream (the pipelining window).
const PIPELINE: u32 = 3;
/// Floor of the adaptive (P95-derived) hedge delay.
const HEDGE_MIN: MediaDuration = MediaDuration::from_millis(5);
/// Cap of the adaptive hedge delay; also the delay until enough latency
/// samples accumulate to estimate a P95.
const HEDGE_MAX: MediaDuration = MediaDuration::from_millis(250);
/// Slack added to every fetch deadline beyond the playout horizon the
/// stream's buffered frames already cover.
const DEADLINE_SLACK: MediaDuration = MediaDuration::from_millis(500);
/// Fetch-latency target of the CoDel-style pressure detector; also the
/// latency above which a hedge's alternate counts as slow too.
const PRESSURE_TARGET: MediaDuration = MediaDuration::from_millis(50);
/// How long fetch latency must stay above target before the detector
/// declares pressure (transient bursts pass).
const PRESSURE_INTERVAL: MediaDuration = MediaDuration::from_millis(100);

/// Configuration of the distributed media tier, shared by the world builder
/// (content distribution) and the multimedia servers (fetch behaviour).
#[derive(Debug, Clone)]
pub struct MediaTierConfig {
    /// Replicas per media object across the media nodes.
    pub replication: usize,
    /// Segment-cache capacity in payload bytes (0 disables caching).
    pub cache_bytes: u64,
    /// Consult the per-replica circuit breaker: score fetch outcomes,
    /// penalise sick replicas at selection time and bound probe traffic
    /// while a tripped circuit is half-open.
    pub breaker: bool,
    /// Trip a replica's breaker when its EWMA fetch latency exceeds this
    /// (the rest of the breaker's tuning is in [`crate::overload`]).
    pub breaker_latency: MediaDuration,
    /// Issue a duplicate fetch to the next-best replica when the first has
    /// not answered within the hedge delay; first response wins.
    pub hedging: bool,
    /// Walk active sessions down the grade ladder under sustained fetch
    /// pressure (the mid-session extension of admission-time shedding).
    pub ladder: bool,
    /// Cadence of the degradation-ladder evaluation timer.
    pub ladder_period: MediaDuration,
}

impl Default for MediaTierConfig {
    fn default() -> Self {
        MediaTierConfig {
            replication: 2,
            cache_bytes: 512 * 1024,
            breaker: true,
            breaker_latency: MediaDuration::from_millis(250),
            hedging: false,
            ladder: false,
            ladder_period: MediaDuration::from_millis(250),
        }
    }
}

/// Counters of the media-tier fetch path on one multimedia server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaTierStats {
    /// Segment fetches sent to media nodes.
    pub fetches: u64,
    /// Chunks received back.
    pub chunks: u64,
    /// Paced frames that found the ready queue empty (tier too slow).
    pub stalls: u64,
    /// Streams re-pointed at another replica after a media-node fault.
    pub failovers: u64,
    /// Fetches answered with a fetch error.
    pub fetch_errors: u64,
    /// Transport parts received from media nodes (conservation audit
    /// against the nodes' `parts_sent`).
    pub parts_received: u64,
    /// Fetches answered busy (shed by an overloaded node's queue).
    pub busy: u64,
    /// Duplicate fetches issued after the hedge delay expired unanswered.
    pub hedges: u64,
    /// Hedge races the duplicate won.
    pub hedge_wins: u64,
    /// Losing fetches of resolved hedge races cancelled at their node.
    pub hedge_cancels: u64,
    /// Circuit transitions to Open (cumulative; survives health resets and
    /// server restarts, unlike the live health map).
    pub breaker_trips: u64,
    /// Outstanding fetches written off by a media-node incarnation event.
    pub fetches_lost: u64,
    /// Degradation-ladder steps applied (one victim session walked one
    /// level down).
    pub ladder_degrades: u64,
    /// Degradation-ladder steps restored after pressure cleared.
    pub ladder_restores: u64,
}

/// Identifies an outstanding fetch (for chunk routing and failover).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchTag {
    /// The session the fetch belongs to.
    pub session: SessionId,
    /// The stream within the session.
    pub component: ComponentId,
    /// The segment requested.
    pub segment: u64,
    /// The quality level it was computed at.
    pub level: GradeLevel,
    /// The issuing stream's epoch (stale-chunk rejection).
    pub epoch: u32,
    /// The media node it was sent to.
    pub replica: NodeId,
    /// When the fetch was issued (health latency samples, hedge timing).
    pub issued_at: MediaTime,
    /// The playout deadline the request carried.
    pub deadline: MediaTime,
    /// True for the duplicate of a hedged pair.
    pub hedged: bool,
}

/// What [`MediaTier::on_chunk`] leaves for the caller to finish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkDone {
    /// The segment was appended to its stream's window (a discrete object
    /// ships the moment its bytes arrive).
    pub appended: bool,
    /// Replicas whose circuit this completion tripped Open — the answering
    /// one (a slow success) and the loser of a resolved hedge race. Their
    /// streams are ejected only after the fetched frames have landed.
    pub tripped: [Option<NodeId>; 2],
}

/// A fetch outcome as the breaker scores it.
enum Outcome {
    Success(MediaDuration),
    /// A lost hedge race: a censored latency sample of at least this long.
    SlowLoss(MediaDuration),
    Failure,
}

/// The multimedia server's side of the distributed media tier: where its
/// content lives ([`PlacementMap`]), which replica each fetch should use
/// ([`ReplicaSelector`]), the segment cache fronting the network, and the
/// outstanding-fetch table.
#[derive(Debug)]
pub struct MediaTier {
    /// Tier configuration.
    pub cfg: MediaTierConfig,
    /// Object key → media-node replicas.
    pub placement: PlacementMap,
    /// The segment cache (interval-caching admission).
    pub cache: SegmentCache,
    /// Fetch-path counters.
    pub stats: MediaTierStats,
    /// Completed-fetch latency distribution: drives the adaptive hedge
    /// delay and the reported tail percentiles.
    pub fetch_latency: DurationHistogram,
    /// CoDel-style pressure detector (ladder trigger) over how late for its
    /// pacer each segment arrived — over fetch latency with `breaker` off.
    pub pressure: PressureDetector,
    /// Load/RTT-aware replica choice.
    selector: ReplicaSelector,
    /// Outstanding fetches by fetch id.
    inflight: BTreeMap<u64, FetchTag>,
    next_fetch: u64,
    /// Per-replica EWMA health scores and circuit breakers.
    health: ReplicaHealthMap,
    /// Unresolved hedge races, keyed both ways (primary ⇄ duplicate).
    hedge_pairs: BTreeMap<u64, u64>,
    /// The last credit each media node granted: how many fetches may be
    /// outstanding there. A node that has not said is open.
    grants: BTreeMap<NodeId, u16>,
    /// Streams held at the gate, keyed by when each runs dry — most urgent
    /// first — with the object whose replicas can serve it.
    waiting: BTreeMap<(MediaTime, (SessionId, ComponentId)), Arc<str>>,
    /// Each waiting stream's key in `waiting`.
    wait_index: BTreeMap<(SessionId, ComponentId), MediaTime>,
    /// The server's own node: where propagation is measured from, and where
    /// a stream is parked while every replica of its object is down.
    home: NodeId,
}

impl MediaTier {
    /// The tier client of the server on node `home`, for `placement` under
    /// `cfg`.
    pub fn new(cfg: MediaTierConfig, placement: PlacementMap, home: NodeId) -> Self {
        let cache = SegmentCache::new(cfg.cache_bytes);
        let health = ReplicaHealthMap::new(cfg.breaker_latency);
        let pressure = PressureDetector::new(PRESSURE_TARGET, PRESSURE_INTERVAL);
        MediaTier {
            cfg,
            placement,
            cache,
            stats: MediaTierStats::default(),
            fetch_latency: DurationHistogram::new(MediaDuration::from_millis(1), 1024),
            pressure,
            selector: ReplicaSelector::new(),
            inflight: BTreeMap::new(),
            next_fetch: 1,
            health,
            hedge_pairs: BTreeMap::new(),
            grants: BTreeMap::new(),
            waiting: BTreeMap::new(),
            wait_index: BTreeMap::new(),
            home,
        }
    }

    /// The hedge delay: the observed P95 fetch latency clamped to
    /// `[HEDGE_MIN, HEDGE_MAX]`; the cap until enough samples accumulate.
    fn hedge_delay(&self) -> MediaDuration {
        if self.fetch_latency.count() < 16 {
            return HEDGE_MAX;
        }
        self.fetch_latency
            .quantile(0.95)
            .clamp(HEDGE_MIN, HEDGE_MAX)
    }

    /// The stream an outstanding fetch belongs to.
    pub fn owner(&self, fetch: u64) -> Option<(SessionId, ComponentId)> {
        self.inflight.get(&fetch).map(|t| (t.session, t.component))
    }

    /// Fetch state for a new stream over `object`, starting at global frame
    /// index `next_seq`, with its cache reader counted (interval-caching
    /// admission) and its replica picked. `None` for content the placement
    /// map never distributed — the stream then reads its local store. With
    /// every replica down the stream is parked on the server's own node
    /// until a fault event re-points it.
    pub fn open(
        &mut self,
        net: &impl TierNet,
        object: &str,
        kind: MediaKind,
        next_seq: u64,
    ) -> Option<RemoteStream> {
        if self.placement.replicas(object).is_empty() {
            return None;
        }
        let frames_per_segment = if kind.is_continuous() {
            FRAMES_PER_SEGMENT
        } else {
            1 // a discrete "frame" is the whole object; don't fetch copies
        };
        let (seg, off) = segment_of_frame(next_seq, frames_per_segment);
        self.cache.reader_started(object);
        Some(RemoteStream {
            object: object.into(),
            kind,
            replica: self
                .best_replica(net, object, |_| true)
                .unwrap_or(self.home),
            frames_per_segment,
            epoch: 0,
            ready: ReadyFrames::default(),
            next_request: seg,
            next_append: seg,
            pending: VecMap::new(),
            skip: off,
            inflight: VecMap::new(),
        })
    }

    /// The best live replica of `object` among those `ok` admits (score:
    /// outstanding load + path RTT + breaker health penalty — a tripped or
    /// probing circuit loses to any closed one, so outliers are ejected
    /// whenever a healthy alternative exists). `None` when none is up.
    fn best_replica(
        &self,
        net: &impl TierNet,
        object: &str,
        ok: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let candidates = self
            .placement
            .replicas(object)
            .iter()
            .filter(|&&n| ok(n) && net.node_is_up(n))
            .map(|&n| {
                let penalty = if self.cfg.breaker {
                    self.health.penalty_micros(n)
                } else {
                    0
                };
                (n, net.propagation_micros(self.home, n) * 2 + penalty)
            });
        self.selector.pick(candidates)
    }

    /// Allocate a fetch id for `tag`, book it and ask its replica.
    fn issue(
        &mut self,
        tag: FetchTag,
        r: &RemoteStream,
        class: PricingClass,
        out: &mut Vec<FetchOut>,
    ) -> u64 {
        let fetch = self.next_fetch;
        self.next_fetch += 1;
        self.selector.fetch_started(tag.replica);
        self.inflight.insert(fetch, tag);
        out.push(FetchOut::Request {
            fetch,
            tag,
            kind: r.kind,
            object: Arc::clone(&r.object),
            frames_per_segment: r.frames_per_segment,
            class,
        });
        fetch
    }

    /// The gate — the one place that decides whether a fetch may be issued
    /// to `node`: does its last grant leave [`room`](Self::room) for one
    /// more. The selector's count of the fetches outstanding there is the
    /// fetch table's, kept without a search: below the grant there is room
    /// whatever has expired, so the table is searched only at the grant.
    fn has_room(&self, node: NodeId, now: MediaTime) -> bool {
        let below = |&grant| self.selector.outstanding(node) < grant as u64;
        self.grants.get(&node).is_none_or(below) || self.room(node, now) > 0
    }

    /// How many more fetches `node`'s last grant lets this server hold
    /// there. A fetch past its deadline holds nothing: the node sheds
    /// expired work at dispatch, so it is in service or was lost on the
    /// way, and a fetch never answered must not keep a credit for ever.
    /// Without overload control (`breaker: false`) no grant is kept and
    /// every node is open.
    fn room(&self, node: NodeId, now: MediaTime) -> u64 {
        let Some(&grant) = self.grants.get(&node) else {
            return u64::MAX;
        };
        let live = |t: &&FetchTag| t.replica == node && t.deadline >= now;
        (grant as u64).saturating_sub(self.inflight.values().filter(live).count() as u64)
    }

    /// No replica of the stream's object has room: hold it in the wait set
    /// under the moment it runs dry. A stream already there keeps its
    /// place, so one that has run dry stays ahead of one about to.
    fn wait(&mut self, now: MediaTime, d: &Demand, r: &RemoteStream, out: &mut Vec<FetchOut>) {
        let stream = (d.session, d.component);
        if self.wait_index.contains_key(&stream) {
            return;
        }
        let covered = r.frames_covered();
        if covered == 0 {
            // Evidence for attribution: a gap here is the tier's queue.
            let labels = Labels::session(d.session.raw()).segment(r.next_request);
            out.push(FetchOut::event(Severity::Info, "fetch_wait", labels, 0));
        }
        let dry_at = now + d.frame_period * covered as i64;
        self.wait_index.insert(stream, dry_at);
        self.waiting.insert((dry_at, stream), Arc::clone(&r.object));
    }

    /// Take `stream` out of the wait set, if it is there.
    fn unwait(&mut self, stream: (SessionId, ComponentId)) {
        if let Some(dry_at) = self.wait_index.remove(&stream) {
            self.waiting.remove(&(dry_at, stream));
        }
    }

    /// Credits came back at `node`: wake the most urgent waiters whose
    /// object it holds, one per free credit — none for a node no waiter
    /// may be sent to. A waiter that has moved on or gone wakes to nothing.
    fn wake(&mut self, node: NodeId, now: MediaTime, out: &mut Vec<FetchOut>) {
        if self.waiting.is_empty() || !self.health.admits(node, now) {
            return;
        }
        for _ in 0..self.room(node, now).min(self.waiting.len() as u64) {
            let holds = |object: &Arc<str>| self.placement.replicas(object).contains(&node);
            let Some((&(_, stream), _)) = self.waiting.iter().find(|(_, o)| holds(o)) else {
                return;
            };
            self.unwait(stream);
            out.push(FetchOut::Wake(stream));
        }
    }

    /// The one place a credit is given back: `fetch` is no longer
    /// outstanding at its node, whatever ended it. An answer from the node
    /// itself brings its new `grant`.
    fn settle(
        &mut self,
        fetch: u64,
        grant: Option<u16>,
        now: MediaTime,
        out: &mut Vec<FetchOut>,
    ) -> Option<FetchTag> {
        let tag = self.inflight.remove(&fetch)?;
        if let (true, Some(credit)) = (self.cfg.breaker, grant) {
            self.grants.insert(tag.replica, credit.max(1));
        }
        self.selector.fetch_finished(tag.replica);
        self.wake(tag.replica, now, out);
        Some(tag)
    }

    /// Top up a stream's fetch window: serve segments from the cache when
    /// resident, otherwise issue pipelined fetches to the stream's replica
    /// — or, when its window there is full, to another with room — until
    /// the window covers the pacer's remaining need. With every window
    /// full the stream waits for a credit.
    pub fn pump(
        &mut self,
        net: &impl TierNet,
        now: MediaTime,
        d: &Demand,
        r: &mut RemoteStream,
        out: &mut Vec<FetchOut>,
    ) {
        out.push(FetchOut::Adopt(d.session));
        while (r.inflight.len() as u32) < PIPELINE && r.frames_covered() < d.frames_needed {
            let seg = r.next_request;
            // After a shed rolls the cursor back, segments between the shed
            // one and the frontier may still be covered — skip them.
            if seg < r.next_append || r.inflight.contains_key(&seg) || r.pending.contains_key(&seg)
            {
                r.next_request = seg + 1;
                continue;
            }
            if let Some(frames) = self.cache.lookup(&r.object, d.level, seg) {
                r.pending.insert(seg, Arc::clone(frames));
                r.next_request = seg + 1;
                r.drain_ready();
                continue;
            }
            if !net.node_is_up(r.replica) {
                // Parked: every replica of the object is down. The stall
                // poll keeps the stream alive until a fault event re-points
                // it at a live (or restarted) replica.
                break;
            }
            if !self.has_room(r.replica, now) {
                // Full: another with room takes the fetch if it would admit
                // it (a tripped circuit has room: nobody may use it), or wait.
                let usable = |n| self.has_room(n, now) && self.health.admits(n, now);
                let Some(alt) = self.best_replica(net, &r.object, usable) else {
                    self.wait(now, d, r, out);
                    break;
                };
                r.replica = alt;
            }
            if self.cfg.breaker && !self.health.admit(r.replica, now) {
                // Circuit open (or half-open with its probe slots taken):
                // hold the window. The stall poll re-pumps, and the open
                // timeout eventually admits probes through this same path.
                break;
            }
            // The segment is useful until the pacer plays out everything it
            // already has ahead of it; past that (plus slack for transport)
            // the node may shed the request instead of serving dead work.
            let deadline = now
                + d.frame_period * (r.frames_covered() + r.frames_per_segment as u64) as i64
                + DEADLINE_SLACK;
            // An issued fetch is by definition a server-cache miss for this
            // segment — the evidence record the cache-miss-chain attribution
            // class looks for in the event window.
            out.push(FetchOut::event(
                Severity::Info,
                "cache_miss",
                Labels::session(d.session.raw()).segment(seg),
                seg as i64,
            ));
            let tag = FetchTag {
                session: d.session,
                component: d.component,
                segment: seg,
                level: d.level,
                epoch: r.epoch,
                replica: r.replica,
                issued_at: now,
                deadline,
                hedged: false,
            };
            self.unwait((d.session, d.component));
            let fetch = self.issue(tag, r, d.class, out);
            r.inflight.insert(seg, fetch);
            r.next_request = seg + 1;
            self.stats.fetches += 1;
            if self.cfg.hedging {
                out.push(FetchOut::HedgeTimer {
                    fetch,
                    delay: self.hedge_delay(),
                });
            }
        }
    }

    /// Re-pick the stream's replica and refill its window (a no-op refill
    /// if a chunk, an eject or another shed already did). False when no
    /// replica of its object is up: the stream stays parked.
    pub fn repump(
        &mut self,
        net: &impl TierNet,
        now: MediaTime,
        d: &Demand,
        r: &mut RemoteStream,
        out: &mut Vec<FetchOut>,
    ) -> bool {
        let Some(choice) = self.best_replica(net, &r.object, |_| true) else {
            return false;
        };
        r.replica = choice;
        self.pump(net, now, d, r, out);
        true
    }

    /// Forget the hedge race `fetch` is in, if any; returns its partner.
    fn unpair(&mut self, fetch: u64) -> Option<u64> {
        let partner = self.hedge_pairs.remove(&fetch)?;
        self.hedge_pairs.remove(&partner);
        Some(partner)
    }

    /// Score a fetch outcome into `node`'s health (breaker enabled only).
    /// True when this observation newly tripped its circuit Open.
    fn score(&mut self, node: NodeId, now: MediaTime, outcome: Outcome) -> bool {
        if !self.cfg.breaker {
            return false;
        }
        let tripped = match outcome {
            Outcome::Success(latency) => self.health.record_success(node, now, latency),
            Outcome::SlowLoss(elapsed) => self.health.record_slow_loss(node, now, elapsed),
            Outcome::Failure => self.health.record_failure(node, now),
        };
        self.stats.breaker_trips += tripped as u64;
        tripped
    }

    /// Say that `node`'s circuit tripped Open. The caller follows a trip
    /// that [`on_chunk`](Self::on_chunk) reported by re-pointing every live
    /// stream pulling from `node` — the same motion as a media-node crash,
    /// but outstanding fetches may still complete, and their outcomes keep
    /// feeding the health score.
    pub fn report_trip(node: NodeId, out: &mut Vec<FetchOut>) {
        out.push(FetchOut::alarm(Severity::Error, "breaker_trip", node));
    }

    /// A transport part of a segment arrived. Only the final part (`last`)
    /// carries the frame specs, and reliable in-order delivery guarantees
    /// it arrives after every payload part — so earlier parts are counted
    /// and nothing else; it also carries the node's `credit`. `stream` is
    /// the fetch's [`owner`](Self::owner), if it still exists.
    #[allow(clippy::too_many_arguments)]
    pub fn on_chunk(
        &mut self,
        now: MediaTime,
        fetch: u64,
        frames: Arc<[SegmentFrame]>,
        last: bool,
        credit: u16,
        stream: Option<&mut RemoteStream>,
        out: &mut Vec<FetchOut>,
    ) -> ChunkDone {
        let mut done = ChunkDone::default();
        self.stats.parts_received += 1;
        if !last {
            return done;
        }
        let Some(tag) = self.settle(fetch, Some(credit), now, out) else {
            return done; // superseded by failover or session teardown
        };
        self.stats.chunks += 1;
        let latency = now - tag.issued_at;
        self.fetch_latency.record(latency);
        // Behind a window pressure is lateness, not queueing delay: full
        // windows keep the nodes' queues full, so latency sits at queue
        // depth × service time whenever any backlog exists. What hurts is
        // a segment landing after the pacer needed it.
        let late = (now - (tag.deadline - DEADLINE_SLACK)).max(MediaDuration::ZERO);
        let felt = if self.cfg.breaker { late } else { latency };
        self.pressure.observe(now, felt);
        out.push(FetchOut::Latency(latency));
        if self.score(tag.replica, now, Outcome::Success(latency)) {
            done.tripped[0] = Some(tag.replica);
        }
        // Resolve the hedge race: first completion wins, the loser is
        // cancelled at its node (best effort) and accounted. The time the
        // loser spent unanswered is a censored latency observation — enough
        // to trip the breaker on a chronically slow replica that hedges
        // always beat, without counting as a real verdict.
        if let Some(partner) = self.unpair(fetch) {
            self.stats.hedge_wins += tag.hedged as u64;
            if let Some(ptag) = self.settle(partner, None, now, out) {
                if self.score(ptag.replica, now, Outcome::SlowLoss(now - ptag.issued_at)) {
                    done.tripped[1] = Some(ptag.replica);
                }
                self.stats.hedge_cancels += 1;
                out.push(FetchOut::Cancel {
                    fetch: partner,
                    replica: ptag.replica,
                });
            }
        }
        let Some(r) = stream else {
            return done;
        };
        // Offer the segment to the cache even when the stream has moved on
        // (stale epoch): the content itself is valid and shareable.
        self.cache
            .offer(&r.object, tag.level, tag.segment, Arc::clone(&frames));
        if tag.epoch == r.epoch {
            r.inflight.remove(&tag.segment);
            r.pending.insert(tag.segment, frames);
            r.drain_ready();
            done.appended = true;
        }
        done
    }

    /// A media node refused a fetch (object not replicated there). Returns
    /// the fetch's tag: the caller stops the stream — retrying cannot
    /// succeed, the placement map is wrong.
    pub fn on_error(
        &mut self,
        now: MediaTime,
        fetch: u64,
        out: &mut Vec<FetchOut>,
    ) -> Option<FetchTag> {
        let tag = self.settle(fetch, None, now, out)?;
        self.stats.fetch_errors += 1;
        let tripped = self.score(tag.replica, now, Outcome::Failure);
        out.push(FetchOut::event(
            Severity::Warn,
            "fetch_error",
            Labels::session(tag.session.raw())
                .stream(tag.component.raw())
                .peer(tag.replica.raw()),
            0,
        ));
        if tripped {
            Self::report_trip(tag.replica, out);
        }
        // The hedge partner (if still outstanding) carries on alone.
        self.unpair(fetch);
        Some(tag)
    }

    /// A media node shed a fetch from its overloaded queue. Unlike a fetch
    /// *error* this is flow control, not a health verdict: the shed is NOT
    /// scored into the breaker (under a symmetric flash crowd every replica
    /// queues alike, and tripping circuits on shared congestion only
    /// strangles throughput further). The node's `credit` is learned and
    /// the shed segment alone is rolled back; the stream then waits its
    /// turn for a credit like any other — the one this shed gives back may
    /// be its own. With overload control off the window is re-requested at
    /// once (the naive retry storm the benchmarks measure). A still-racing
    /// hedge partner carries the segment alone instead. `stream` is the
    /// fetch's [`owner`](Self::owner) if it is still live (neither done nor
    /// stopped).
    pub fn on_busy(
        &mut self,
        net: &impl TierNet,
        now: MediaTime,
        fetch: u64,
        credit: u16,
        stream: Option<(Demand, &mut RemoteStream)>,
        out: &mut Vec<FetchOut>,
    ) {
        self.stats.busy += 1;
        let Some(&tag) = self.inflight.get(&fetch) else {
            return;
        };
        let racing = self
            .unpair(fetch)
            .is_some_and(|p| self.inflight.contains_key(&p));
        // Surgical retry of just the shed segment: roll the request cursor
        // back so the next pump re-requests it. Sibling fetches, buffered
        // segments and the epoch all stay valid — a shed must not discard
        // work the node is still completing. The epoch check skips this if
        // something else already moved the stream.
        let mut owner = stream.filter(|(_, r)| !racing && r.epoch == tag.epoch);
        if let Some((d, r)) = &mut owner {
            r.inflight.remove(&tag.segment);
            r.next_request = r.next_request.min(tag.segment);
            if self.cfg.breaker {
                self.wait(now, d, r, out);
            }
        }
        self.settle(fetch, Some(credit), now, out);
        if let (false, Some((d, r))) = (self.cfg.breaker, owner) {
            self.repump(net, now, &d, r, out);
        }
    }

    /// The hedge delay of `fetch` expired unanswered: race a duplicate
    /// against the next-best replica. First response wins; the loser is
    /// cancelled and accounted. `stream` is the fetch's
    /// [`owner`](Self::owner) with its session's pricing class.
    pub fn on_hedge_timer(
        &mut self,
        net: &impl TierNet,
        now: MediaTime,
        fetch: u64,
        stream: Option<(&RemoteStream, PricingClass)>,
        out: &mut Vec<FetchOut>,
    ) {
        if !self.cfg.hedging {
            return;
        }
        let Some(tag) = self.inflight.get(&fetch).copied() else {
            return; // answered (or written off) before the delay expired
        };
        if tag.hedged || self.hedge_pairs.contains_key(&fetch) {
            return; // never hedge a hedge, never hedge twice
        }
        // The pulling stream must still want this segment.
        let Some((r, class)) = stream.filter(|(r, _)| r.epoch == tag.epoch) else {
            return;
        };
        // The duplicate takes a credit of its alternate or is not sent.
        let elsewhere = |n| n != tag.replica && self.has_room(n, now);
        let Some(alt) = self.best_replica(net, &r.object, elsewhere) else {
            return; // single-replica object: nothing to race against
        };
        if self.cfg.breaker && !self.health.admit(alt, now) {
            return;
        }
        // Hedging pays only when slowness is idiosyncratic to the primary.
        // If the alternative is observably slow too (a symmetric flash
        // crowd queues every replica alike), a duplicate fetch would feed
        // the overload rather than route around it.
        if self
            .health
            .health(alt)
            .is_some_and(|h| h.latency.value() > PRESSURE_TARGET.as_micros() as f64)
        {
            return;
        }
        let hedge_tag = FetchTag {
            replica: alt,
            issued_at: now,
            hedged: true,
            ..tag
        };
        let hedge = self.issue(hedge_tag, r, class, out);
        self.hedge_pairs.insert(fetch, hedge);
        self.hedge_pairs.insert(hedge, fetch);
        self.stats.hedges += 1;
    }

    /// Write off every fetch outstanding to `node` (they will never be
    /// answered, or must not be): a written-off half of a hedge race leaves
    /// the survivor racing nobody. With `cancel`, each one is also
    /// cancelled at the node. Returns how many were lost.
    fn write_off(&mut self, node: NodeId, cancel: bool, out: &mut Vec<FetchOut>) -> u64 {
        let mut lost = 0;
        let pairs = &mut self.hedge_pairs;
        self.selector.clear_outstanding(node);
        self.inflight.retain(|&fetch, tag| {
            if tag.replica != node {
                return true;
            }
            lost += 1;
            if let Some(partner) = pairs.remove(&fetch) {
                pairs.remove(&partner);
            }
            if cancel {
                out.push(FetchOut::Cancel {
                    fetch,
                    replica: node,
                });
            }
            false
        });
        lost
    }

    /// A media node crashed or restarted. Fetches outstanding to it will
    /// never complete, and a new incarnation is a new server: forget the
    /// old one's load estimate, grant, health score and breaker state (its
    /// trips stay in the cumulative totals). The caller re-points every
    /// stream that was pulling from it; a restarted node (`up`) opens its
    /// window to the waiters it can serve.
    pub fn node_event(&mut self, up: bool, now: MediaTime, node: NodeId, out: &mut Vec<FetchOut>) {
        out.push(FetchOut::alarm(Severity::Warn, "media_failover", node));
        self.health.reset(node);
        self.grants.remove(&node);
        self.stats.fetches_lost += self.write_off(node, false, out);
        if up {
            self.wake(node, now, out);
        }
    }

    /// Controller-driven elastic rebalance: swap the placement map. When
    /// `drain` names a node being scaled in, its outstanding fetches are
    /// cancelled and written off first (the node is healthy, so this is a
    /// graceful drain, not a failover). The caller re-points exactly the
    /// streams whose replica no longer hosts their object.
    pub fn drain(
        &mut self,
        net: &impl TierNet,
        placement: PlacementMap,
        drain: Option<NodeId>,
        out: &mut Vec<FetchOut>,
    ) {
        self.placement = placement;
        let Some(node) = drain else {
            return;
        };
        out.push(FetchOut::event(
            Severity::Info,
            "ctrl_drain",
            Labels::for_peer(node.raw()),
            0,
        ));
        // A drain can race the drained node's own crash (chaos aims crashes
        // at scaled-out standbys too): a reliable cancel to a dead process
        // would be retried into its next incarnation, which never saw the
        // fetch. The crash already voided the queue, so only a live node
        // needs the courtesy cancel.
        self.write_off(node, net.node_is_up(node), out);
    }

    /// The server process crashed: the segment cache, the fetch table, load
    /// and health scores, hedge races, grants, the wait set and pressure
    /// state are RAM and gone.
    /// Cumulative statistics (breaker trips among them) survive for
    /// post-run reporting only.
    pub fn crash(&mut self) {
        let stats = self.cache.stats;
        self.cache = SegmentCache::new(self.cfg.cache_bytes);
        self.cache.stats = stats;
        self.inflight.clear();
        self.selector = ReplicaSelector::new();
        self.health = ReplicaHealthMap::new(self.cfg.breaker_latency);
        self.hedge_pairs.clear();
        self.grants.clear();
        self.waiting.clear();
        self.wait_index.clear();
        self.pressure = PressureDetector::new(PRESSURE_TARGET, PRESSURE_INTERVAL);
    }

    /// A trace event per breaker state change recorded since the last
    /// call. Trips (`to == Open`) are skipped: the fetch-outcome paths
    /// report them eagerly with richer context (flight dump, stream
    /// ejection). What remains — Open → HalfOpen probes, HalfOpen → Closed
    /// recoveries, incarnation resets — gives the invariant checker a
    /// complete, legal-order transition record.
    pub fn breaker_events(&mut self, out: &mut Vec<FetchOut>) {
        for t in self.health.take_transitions() {
            let name = match (t.to, t.cause) {
                (BreakerState::Open, _) => continue,
                (BreakerState::HalfOpen, _) => "breaker_probe",
                (BreakerState::Closed, "reset") => "breaker_reset",
                (BreakerState::Closed, _) => "breaker_close",
            };
            out.push(FetchOut::event(
                Severity::Info,
                name,
                Labels::for_peer(t.node.raw()),
                0,
            ));
        }
    }
}
