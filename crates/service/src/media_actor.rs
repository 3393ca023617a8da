//! The media-server node actor of the distributed media tier.
//!
//! The paper attaches per-kind media servers to the multimedia server
//! (§2, §6.1); here they become real simnet nodes. A media node holds
//! replicated content *shards* — the media objects the placement map
//! assigned to it, keyed by origin multimedia server and media kind — and
//! serves stateless [`ServiceMsg::MediaFetchRequest`]s: every segment is
//! recomputed on demand from the object's metadata, so a crashed node
//! loses nothing and a failed-over stream can resume from any replica.
//!
//! Serving is a single-server queue, not an instantaneous reply: each
//! admitted request costs a deterministic service time (fixed overhead plus
//! a per-byte disk/CPU cost, inflated by an injected brownout factor), and
//! requests wait in a bounded [`OverloadQueue`] with deadline-aware
//! shedding. Shed requests are answered with [`ServiceMsg::MediaFetchBusy`],
//! and every answer carries the puller's credit: its share of the queue
//! bound, which the puller's window then stays inside.

use crate::protocol::ServiceMsg;
use crate::timers;
use hermes_control::REPORT_PERIOD;
use hermes_core::{GradeLevel, MediaDuration, MediaKind, MediaTime, NodeId, ServerId};
use hermes_media::{segment_bytes, segment_frames, MediaObject, MediaStore, SegmentFrame};
use hermes_server::{OverloadQueue, QueuedRequest};
use hermes_simnet::{Labels, Obs, Severity, SimApi};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Service-model configuration of a media node.
#[derive(Debug, Clone)]
pub struct MediaNodeConfig {
    /// Maximum queued fetch requests before capacity shedding.
    pub queue_capacity: usize,
    /// Fixed per-request service overhead (seek + dispatch).
    pub fixed_service: MediaDuration,
    /// Service cost per mebibyte of segment payload (disk read + copy).
    pub per_mbyte: MediaDuration,
}

impl Default for MediaNodeConfig {
    fn default() -> Self {
        MediaNodeConfig {
            queue_capacity: 64,
            fixed_service: MediaDuration::from_micros(200),
            per_mbyte: MediaDuration::from_millis(2),
        }
    }
}

/// Serving statistics of one media node (the per-node load the placement
/// experiment reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaNodeStats {
    /// Fetch requests served with a chunk.
    pub requests_served: u64,
    /// Frames shipped in chunks.
    pub frames_served: u64,
    /// Frame payload bytes shipped in chunks.
    pub bytes_served: u64,
    /// Fetches for objects this node does not hold.
    pub not_found: u64,
    /// Transport parts shipped (conservation audit: every part sent must be
    /// received by a server or die with an accounted fault).
    pub parts_sent: u64,
    /// Fetches shed with `MediaFetchBusy` (queue capacity or deadline).
    pub busy_sent: u64,
    /// Fetches cancelled while still queued (hedge losers).
    pub cancelled: u64,
}

/// One fetch waiting for (or receiving) service.
#[derive(Debug, Clone)]
struct PendingFetch {
    fetch: u64,
    from: NodeId,
    server: ServerId,
    kind: MediaKind,
    object: Arc<str>,
    level: u8,
    segment: u64,
    frames_per_segment: u32,
}

/// A media-server node: replicated content shards, a bounded service queue
/// and serving stats.
pub struct MediaActor {
    /// The node this media server runs on.
    pub node: NodeId,
    /// Service-model configuration.
    pub cfg: MediaNodeConfig,
    /// Replica shards by (origin multimedia server, media kind). Keys from
    /// different origin servers may collide, so shards are kept separate.
    pub shards: BTreeMap<(ServerId, MediaKind), MediaStore>,
    /// Serving statistics.
    pub stats: MediaNodeStats,
    /// Service-time multiplier injected by a `NodeSlow` fault (1 = nominal).
    pub slowdown: u32,
    /// The bounded request queue.
    queue: OverloadQueue<PendingFetch>,
    /// Scratch the queue sheds into; empty between calls, kept so a shed
    /// storm allocates nothing per fetch.
    shed: Vec<QueuedRequest<PendingFetch>>,
    /// The request currently in service, if any, with the frames it ships.
    serving: Option<(PendingFetch, Arc<[SegmentFrame]>)>,
    /// Scratch of `credit`: the distinct pullers it counted last.
    pullers: Vec<NodeId>,
    /// Controller host receiving this node's queue-depth reports, if the
    /// control plane is enabled.
    control_peer: Option<NodeId>,
}

impl MediaActor {
    /// An empty media node with default service costs.
    pub fn new(node: NodeId) -> Self {
        let cfg = MediaNodeConfig::default();
        let queue = OverloadQueue::new(cfg.queue_capacity);
        MediaActor {
            node,
            cfg,
            shards: BTreeMap::new(),
            stats: MediaNodeStats::default(),
            slowdown: 1,
            queue,
            shed: Vec::new(),
            serving: None,
            pullers: Vec::new(),
            control_peer: None,
        }
    }

    /// Start shipping periodic queue-depth reports to the controller host.
    pub fn enable_control_reports(&mut self, api: &mut SimApi<'_, ServiceMsg>, host: NodeId) {
        self.control_peer = Some(host);
        api.set_timer(self.node, REPORT_PERIOD, timers::TK_CONTROL_REPORT, 0);
    }

    /// Re-point the live report chain at a new controller host (failover:
    /// the chain's timer keeps running, only the destination changes).
    /// Distinct from [`enable_control_reports`](Self::enable_control_reports),
    /// which would arm a *second* timer chain.
    pub fn repoint_control(&mut self, host: NodeId) {
        if self.control_peer.is_some() {
            self.control_peer = Some(host);
        }
    }

    /// Re-arm the report chain after a restart (timers die with the old
    /// incarnation).
    pub fn rearm_control(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        if self.control_peer.is_some() {
            api.set_timer(self.node, REPORT_PERIOD, timers::TK_CONTROL_REPORT, 0);
        }
    }

    /// Timer `TK_CONTROL_REPORT`: ship the queue depth to the controller.
    fn on_control_report(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(peer) = self.control_peer else {
            return;
        };
        let report = hermes_control::LoadReport::queue(self.queue.len());
        api.send_reliable(
            self.node,
            peer,
            ServiceMsg::ControlReport { report, epoch: 0 },
        );
        api.set_timer(self.node, REPORT_PERIOD, timers::TK_CONTROL_REPORT, 0);
    }

    /// Replace the service-model configuration (resizes the queue bound).
    pub fn configure(&mut self, cfg: MediaNodeConfig) {
        self.queue.capacity = cfg.queue_capacity.max(1);
        self.cfg = cfg;
    }

    /// Install a replica of `object` for origin server `server` (content
    /// distribution at deployment time).
    pub fn install(&mut self, server: ServerId, object: MediaObject) {
        self.shards
            .entry((server, object.kind()))
            .or_default()
            .insert(object);
    }

    /// Total objects replicated onto this node.
    pub fn objects(&self) -> usize {
        self.shards.values().map(MediaStore::len).sum()
    }

    /// Apply/lift a brownout: service times multiply by `factor`.
    pub fn set_slowdown(&mut self, factor: u32) {
        self.slowdown = factor.max(1);
    }

    /// Snapshot this media node's serving counters into the unified metrics
    /// registry, labelled with the node id (`peer`).
    pub fn publish_metrics(&self, obs: &mut Obs) {
        let l = Labels::for_peer(self.node.raw());
        let st = self.stats;
        obs.registry
            .counter_set("media.requests_served", l, st.requests_served);
        obs.registry
            .counter_set("media.frames_served", l, st.frames_served);
        obs.registry
            .counter_set("media.bytes_served", l, st.bytes_served);
        obs.registry.counter_set("media.not_found", l, st.not_found);
        obs.registry
            .counter_set("media.parts_sent", l, st.parts_sent);
        obs.registry.counter_set("media.busy_sent", l, st.busy_sent);
        obs.registry.counter_set("media.cancelled", l, st.cancelled);
        obs.registry
            .gauge_set("media.queue_len", l, self.queue.len() as f64);
    }

    /// Handle an incoming message addressed to this media node.
    pub fn on_message(&mut self, api: &mut SimApi<'_, ServiceMsg>, from: NodeId, msg: ServiceMsg) {
        match msg {
            ServiceMsg::MediaFetchRequest {
                fetch,
                server,
                kind,
                object,
                level,
                segment,
                frames_per_segment,
                deadline_micros,
                class,
            } => {
                // Existence is a cheap metadata check answered immediately;
                // only real service work queues.
                if self
                    .shards
                    .get(&(server, kind))
                    .and_then(|s| s.get(&object))
                    .is_none()
                {
                    self.stats.not_found += 1;
                    api.send_reliable(
                        self.node,
                        from,
                        ServiceMsg::MediaFetchError {
                            fetch,
                            reason: format!("object '{object}' not replicated here"),
                        },
                    );
                    return;
                }
                let req = QueuedRequest {
                    item: PendingFetch {
                        fetch,
                        from,
                        server,
                        kind,
                        object,
                        level,
                        segment,
                        frames_per_segment,
                    },
                    enqueued_at: api.now(),
                    deadline: MediaTime::from_micros(deadline_micros),
                    class,
                };
                let mut shed_now = std::mem::take(&mut self.shed);
                self.queue.push(req, api.now(), &mut shed_now);
                for shed in shed_now.drain(..) {
                    self.stats.busy_sent += 1;
                    api.emit_val(
                        self.node,
                        Severity::Warn,
                        "fetch_shed",
                        Labels::for_peer(shed.item.from.raw()).segment(shed.item.segment),
                        self.queue.len() as i64,
                    );
                    let busy = ServiceMsg::MediaFetchBusy {
                        fetch: shed.item.fetch,
                        credit: self.credit(shed.item.from),
                    };
                    api.send_reliable(self.node, shed.item.from, busy);
                }
                self.shed = shed_now;
                self.maybe_start(api);
            }
            ServiceMsg::MediaFetchCancel { fetch } => {
                // Best effort: only a still-queued fetch can be abandoned;
                // one already in service streams to completion. Fetch ids
                // are per-server counters, so the sender names it too.
                let before = self.queue.len();
                self.queue.retain(|p| p.fetch != fetch || p.from != from);
                self.stats.cancelled += (before - self.queue.len()) as u64;
            }
            _ => {} // media nodes speak only the fetch protocol
        }
    }

    /// Handle a timer on this media node.
    pub fn on_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, key: u64, _payload: u64) {
        match key {
            timers::TK_MEDIA_SVC => {
                if let Some((p, frames)) = self.serving.take() {
                    self.finish(api, p, frames);
                }
                self.maybe_start(api);
            }
            timers::TK_CONTROL_REPORT => self.on_control_report(api),
            _ => {}
        }
    }

    /// The fetches `to` may hold here from now on: the queue bound shared
    /// equally among the pullers with work queued or in service, `to` among
    /// them (it is being answered, so it is about to ask again). Never 0 —
    /// a puller told to hold nothing could not learn a later, wider grant.
    fn credit(&mut self, to: NodeId) -> u16 {
        let mut pullers = std::mem::take(&mut self.pullers);
        pullers.clear();
        pullers.push(to);
        let queued = self.queue.iter().map(|q| q.item.from);
        for from in queued.chain(self.serving.as_ref().map(|(p, _)| p.from)) {
            if !pullers.contains(&from) {
                pullers.push(from);
            }
        }
        let share = self.queue.capacity / pullers.len();
        self.pullers = pullers;
        share.clamp(1, u16::MAX as usize) as u16
    }

    /// Start serving the queue head if the server is idle.
    fn maybe_start(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        if self.serving.is_some() {
            return;
        }
        // Deadline-expired entries are shed eagerly at dispatch.
        let mut shed_now = std::mem::take(&mut self.shed);
        self.queue.expire(api.now(), &mut shed_now);
        for shed in shed_now.drain(..) {
            self.stats.busy_sent += 1;
            let busy = ServiceMsg::MediaFetchBusy {
                fetch: shed.item.fetch,
                credit: self.credit(shed.item.from),
            };
            api.send_reliable(self.node, shed.item.from, busy);
        }
        self.shed = shed_now;
        let Some(next) = self.queue.pop() else {
            return;
        };
        // Queue-wait provenance (flight-ring only): how long the fetch sat
        // behind other work before service — the context a media-queue
        // attribution's dump window shows.
        api.emit_val(
            self.node,
            Severity::Debug,
            "media_queue_wait",
            Labels::for_peer(next.item.from.raw()).segment(next.item.segment),
            (api.now() - next.enqueued_at).as_micros(),
        );
        let p = next.item;
        let stored = self
            .shards
            .get(&(p.server, p.kind))
            .and_then(|s| s.get(&p.object))
            .expect("existence checked at enqueue; shards are immutable");
        let frames = segment_frames(stored, GradeLevel(p.level), p.segment, p.frames_per_segment);
        let service = self.service_time(segment_bytes(&frames));
        self.serving = Some((p, frames));
        api.set_timer(self.node, service, timers::TK_MEDIA_SVC, 0);
    }

    /// Deterministic service time for a segment of `bytes` payload bytes.
    fn service_time(&self, bytes: u64) -> MediaDuration {
        let per_byte = self.cfg.per_mbyte.as_micros().max(0) as u64;
        let us = self.cfg.fixed_service.as_micros().max(0) as u64 + bytes * per_byte / (1 << 20);
        MediaDuration::from_micros(us as i64) * self.slowdown.max(1) as i64
    }

    /// Service of `p` completed: stream its segment's `frames` back as
    /// transport parts.
    fn finish(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        p: PendingFetch,
        frames: Arc<[SegmentFrame]>,
    ) {
        let total = segment_bytes(&frames);
        self.stats.requests_served += 1;
        self.stats.frames_served += frames.len() as u64;
        self.stats.bytes_served += total;
        // Stream the segment as bounded transport parts — TCP does not
        // deliver megabytes atomically, and a single oversized message
        // could never clear a finite link queue. Only the final part
        // carries the frame specs; earlier parts model payload on the wire.
        const PART_BYTES: u64 = 64 * 1024;
        let mut frames = Some(frames);
        let mut remaining = total;
        let credit = self.credit(p.from);
        loop {
            let part = remaining.min(PART_BYTES);
            remaining -= part;
            let last = remaining == 0;
            self.stats.parts_sent += 1;
            api.send_reliable(
                self.node,
                p.from,
                ServiceMsg::MediaFetchChunk {
                    fetch: p.fetch,
                    payload_bytes: part as u32,
                    last,
                    frames: if last {
                        frames.take().unwrap()
                    } else {
                        Arc::default()
                    },
                    credit,
                },
            );
            if last {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{Encoding, MediaDuration};

    #[test]
    fn install_and_count() {
        let mut m = MediaActor::new(NodeId::new(7));
        m.install(
            ServerId::new(0),
            MediaObject {
                key: "v.mpg".into(),
                encoding: Encoding::Mpeg,
                duration: MediaDuration::from_secs(8),
                seed: 1,
            },
        );
        m.install(
            ServerId::new(1),
            MediaObject {
                key: "v.mpg".into(),
                encoding: Encoding::Mpeg,
                duration: MediaDuration::from_secs(4),
                seed: 2,
            },
        );
        // Same key, different origin servers: two distinct replicas.
        assert_eq!(m.objects(), 2);
        assert_eq!(m.shards.len(), 2);
    }

    /// Queue one fetch from each of `pullers`, oldest first.
    fn queued(m: &mut MediaActor, pullers: impl IntoIterator<Item = u64>) {
        for (i, from) in pullers.into_iter().enumerate() {
            let item = PendingFetch {
                fetch: i as u64,
                from: NodeId::new(from),
                server: ServerId::new(0),
                kind: MediaKind::Video,
                object: "v.mpg".into(),
                level: 0,
                segment: i as u64,
                frames_per_segment: 32,
            };
            let req = QueuedRequest {
                item,
                enqueued_at: MediaTime::ZERO,
                deadline: MediaTime::from_secs(9),
                class: hermes_core::PricingClass::Standard,
            };
            m.queue.push(req, MediaTime::ZERO, &mut m.shed);
        }
        assert!(m.shed.is_empty());
    }

    #[test]
    fn credit_is_the_queue_bound_over_the_distinct_pullers_at_work() {
        let mut m = MediaActor::new(NodeId::new(7));
        let to = NodeId::new(1);
        assert_eq!(m.credit(to), 64, "empty queue: the whole bound");
        // However much one puller has queued, it is one puller — and the
        // one being answered counts whether or not it has work left.
        queued(&mut m, [1, 1, 1, 2, 2]);
        assert_eq!((m.credit(to), m.credit(NodeId::new(3))), (32, 21));
        m.serving = m.queue.pop().map(|q| (q.item, Arc::default()));
        assert_eq!(m.credit(NodeId::new(2)), 32, "in service is at work too");
        // Ten pullers share evenly; a bound smaller than the crowd still
        // grants one each, or a puller could never learn a wider grant.
        queued(&mut m, 3..=10);
        assert_eq!(m.credit(to), 6);
        m.configure(MediaNodeConfig {
            queue_capacity: 4,
            ..MediaNodeConfig::default()
        });
        assert_eq!(m.credit(to), 1);
    }

    /// Finding (i): fetch ids are per-server counters, so a cancel matches
    /// its sender as well as the id. Two servers queue fetch 7 on one node
    /// and the first cancels its own: the second's must stay queued, then
    /// be served.
    #[test]
    fn a_cancel_drops_only_the_senders_fetch() {
        use crate::{ServerConfig, WorldBuilder};
        use hermes_simnet::LinkSpec;
        let mut b = WorldBuilder::new(1);
        let lan = || LinkSpec::lan(100_000_000);
        let one = b.add_server(ServerId::new(0), lan(), ServerConfig::default());
        let two = b.add_server(ServerId::new(1), lan(), ServerConfig::default());
        let m = b.add_media_node(LinkSpec::san(100_000_000));
        let mut sim = b.build(1);
        let object = MediaObject {
            key: "v.mpg".into(),
            encoding: Encoding::Mpeg,
            duration: MediaDuration::from_secs(8),
            seed: 1,
        };
        sim.app_mut().media_mut(m).install(ServerId::new(0), object);
        let fetch = |fetch| ServiceMsg::MediaFetchRequest {
            fetch,
            server: ServerId::new(0),
            kind: MediaKind::Video,
            object: "v.mpg".into(),
            level: 0,
            segment: fetch,
            frames_per_segment: 32,
            deadline_micros: 9_000_000,
            class: hermes_core::PricingClass::Standard,
        };
        sim.with_api(|w, api| {
            let node = w.media_mut(m);
            // Fetch 1 goes into service; both fetch 7s queue behind it.
            node.on_message(api, one, fetch(1));
            node.on_message(api, one, fetch(7));
            node.on_message(api, two, fetch(7));
            node.on_message(api, one, ServiceMsg::MediaFetchCancel { fetch: 7 });
            let queued = node.queue.iter().map(|q| (q.item.fetch, q.item.from));
            assert_eq!(queued.collect::<Vec<_>>(), [(7, two)]);
        });
        sim.run_until(MediaTime::from_secs(1));
        let st = sim.app().media(m).stats;
        assert_eq!((st.cancelled, st.requests_served), (1, 2));
    }

    #[test]
    fn service_time_scales_with_bytes_and_slowdown() {
        let mut m = MediaActor::new(NodeId::new(7));
        let one_mib = m.service_time(1 << 20);
        assert_eq!(
            one_mib,
            m.cfg.fixed_service + m.cfg.per_mbyte,
            "1 MiB costs fixed + per-MiB"
        );
        m.set_slowdown(8);
        assert_eq!(m.service_time(1 << 20), one_mib * 8);
        m.set_slowdown(0); // clamped to nominal
        assert_eq!(m.service_time(1 << 20), one_mib);
    }
}
