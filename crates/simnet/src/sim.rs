//! The discrete-event simulation engine.
//!
//! The engine is generic over the application's message type `M` and an
//! [`App`] implementation that reacts to message deliveries and timers. All
//! the service actors (multimedia servers, media servers, browsers) are
//! driven through these two callbacks, so an entire client–server session is
//! one deterministic, seedable event sequence.
//!
//! Two transports are provided, matching the paper's protocol stack
//! (Fig. 5):
//!
//! * **datagram** (`UDP`-like) — packets individually subject to the link
//!   loss/jitter models; used by RTP media flows;
//! * **reliable** (`TCP`-like) — lost packets are retransmitted after an
//!   RTO with exponential backoff, and delivery to the application is
//!   in-order per (source, destination) pair; used for scenarios, discrete
//!   media and control traffic.
//!
//! Packets are forwarded store-and-forward hop by hop along the static
//! shortest path, so queueing interacts correctly between flows sharing a
//! link.

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::rng::SimRng;
use crate::topology::{LinkOutcome, Network, NONE};
use hermes_core::{MediaDuration, MediaTime, NodeId};
use hermes_obs::causality::CauseCtx;
use hermes_obs::{Labels, Obs, Severity, SpanId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

#[cfg(test)]
mod spec;

/// Anything sent through the network must report its wire size.
pub trait WireSize {
    /// Serialized size in bytes (headers included).
    fn wire_size(&self) -> usize;
}

/// The application driven by the simulator.
pub trait App<M>: Sized {
    /// A message arrived at `node` from `from`.
    fn on_message(&mut self, api: &mut SimApi<'_, M>, node: NodeId, from: NodeId, msg: M);
    /// A timer set with [`SimApi::set_timer`] fired at `node`.
    fn on_timer(&mut self, api: &mut SimApi<'_, M>, node: NodeId, key: u64, payload: u64);
    /// An injected fault was just applied to the engine (see [`FaultKind`]).
    /// Crash faults should clear the application's volatile state for the
    /// node; restart faults may rebuild it. Default: ignore faults.
    fn on_fault(&mut self, api: &mut SimApi<'_, M>, event: FaultEvent) {
        let _ = (api, event);
    }
}

/// The group members one multicast copy is bound for (dense indices,
/// ascending by node id). Most copies are last-hop copies for one or two
/// members, so up to three are carried inline and only longer lists own a
/// buffer, taken from and given back to the engine's free list; the type is
/// no larger than the `Vec` it replaces.
#[derive(Debug)]
enum Targets {
    Few { len: u8, ix: [u32; 3] },
    Many(Vec<u32>),
}

impl Targets {
    fn as_slice(&self) -> &[u32] {
        match self {
            Targets::Few { len, ix } => &ix[..*len as usize],
            Targets::Many(v) => v,
        }
    }

    /// The list `iter` yields; a list longer than three takes a cleared
    /// buffer from `free` (allocating only when `free` is empty).
    fn collect(free: &mut Vec<Vec<u32>>, iter: impl IntoIterator<Item = u32>) -> Targets {
        let mut iter = iter.into_iter();
        let mut ix = [0; 3];
        let mut len = 0;
        for slot in &mut ix {
            let Some(t) = iter.next() else {
                return Targets::Few { len, ix };
            };
            *slot = t;
            len += 1;
        }
        let Some(t) = iter.next() else {
            return Targets::Few { len, ix };
        };
        let mut v = free.pop().unwrap_or_default();
        v.extend_from_slice(&ix);
        v.push(t);
        v.extend(iter);
        Targets::Many(v)
    }

    /// Give a list's buffer, if it has one, back to `free`.
    fn recycle(self, free: &mut Vec<Vec<u32>>) {
        if let Targets::Many(mut v) = self {
            v.clear();
            free.push(v);
        }
    }
}

enum Pending<M> {
    /// A packet from `src` sitting at `here`, about to cross the egress link
    /// toward `dst` (dense node indices, translated once when the send
    /// started): a packet a hop forwarded to `here`, or a retransmission
    /// waiting at `here == src`. A send's first transmission is no event —
    /// [`Core::start_send`] takes the first link itself. It owns no heap
    /// memory but its message: the routing table is asked for the next link
    /// at every hop.
    Hop {
        src: u32,
        here: u32,
        dst: u32,
        msg: M,
        attempt: u32,
        sent_at: MediaTime,
        /// Reliable-stream sequence number; `None` is a datagram.
        seq_no: Option<u64>,
        /// Incarnation of the sending node's stack when the send started:
        /// retransmission chains die with the incarnation that created them.
        src_inc: u64,
        /// Causal context the message carries across hops.
        cause: CauseCtx,
    },
    /// Final delivery to the application.
    Deliver {
        node: NodeId,
        /// Dense index of `node` ([`NONE`] for a node the network never
        /// heard of), so the liveness probe at delivery is an array read.
        ix: u32,
        from: NodeId,
        msg: M,
        /// Incarnation of the destination at scheduling time: a delivery
        /// addressed to a crashed (or since-restarted) process is discarded.
        inc: u64,
        /// Causal context; adopted as the ambient cause while the handler
        /// runs, so everything the handler sends inherits it.
        cause: CauseCtx,
        /// Original send time (provenance: in-flight latency at delivery).
        sent_at: MediaTime,
    },
    /// A timer.
    Timer {
        node: NodeId,
        /// Dense index of `node` ([`NONE`] if unknown to the network).
        ix: u32,
        key: u64,
        payload: u64,
        /// Incarnation of the node when the timer was set.
        inc: u64,
        /// Causal context captured when the timer was set — timer-driven
        /// work stays attributed to the request chain that scheduled it.
        cause: CauseCtx,
    },
    /// A multicast copy that a hop forwarded to `here`, bound for the
    /// subtree of group members in `targets` (dense indices, ascending by
    /// node id). At each hop the copy fans out with ONE link transmission
    /// per distinct egress link, so a shared flow costs a single copy on
    /// every trunk it crosses regardless of receiver count.
    McastHop {
        group: u64,
        /// Dense index of the sender `from` ([`NONE`] if unknown).
        src: u32,
        here: u32,
        targets: Targets,
        from: NodeId,
        msg: M,
        /// Incarnation of the sending node when the send started.
        src_inc: u64,
        /// Causal context the multicast copy carries.
        cause: CauseCtx,
        /// Original send time.
        sent_at: MediaTime,
    },
    /// An injected fault to apply.
    Fault(FaultKind),
}

/// Engine-level delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the application.
    pub delivered: u64,
    /// Datagrams dropped in flight (loss or queue overflow).
    pub datagrams_dropped: u64,
    /// Reliable retransmission attempts performed.
    pub retransmissions: u64,
    /// Reliable messages abandoned after exhausting retries.
    pub reliable_failures: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Injected faults applied.
    pub faults_applied: u64,
    /// Deliveries, timers and retransmissions discarded because the node
    /// involved was crashed (or had restarted into a new incarnation).
    pub fault_drops: u64,
    /// Multicast sends initiated with [`SimApi::send_mcast`].
    pub mcast_sends: u64,
    /// Copies of multicast messages placed on links (one per distinct
    /// egress link per hop — the wire cost of the shared flows).
    pub mcast_link_copies: u64,
    /// Multicast copies that reached a group member's node.
    pub mcast_deliveries: u64,
}

/// Base retransmission timeout of the reliable transport.
const RTO: MediaDuration = MediaDuration::from_millis(200);
/// Reliable transmission attempts before a segment is abandoned: its last
/// retry leaves 25.4 s after the first send.
const MAX_ATTEMPTS: u32 = 8;

/// The future-event list: a min-heap on (time, scheduling order), so events
/// of one instant run in the order they were scheduled. The heap orders
/// 24-byte `(at, seq, slot)` keys; each event sits still in its slot until
/// it is popped, and a popped slot is reused. A field of its own so a
/// borrowed reliable channel can schedule its releases.
struct EventQueue<M> {
    heap: BinaryHeap<Reverse<(MediaTime, u64, u32)>>,
    /// Events by slot; `None` is a free slot, listed in `free`.
    slots: Vec<Option<Pending<M>>>,
    free: Vec<u32>,
    seq: u64,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: MediaTime, pending: Pending<M>) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(pending);
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Time of the earliest event.
    fn peek_at(&self) -> Option<MediaTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    fn pop(&mut self) -> Option<(MediaTime, Pending<M>)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        let pending = self.slots[slot as usize].take();
        Some((at, pending.expect("a queued key names a live slot")))
    }
}

/// A reliable segment waiting at the receiver: (message, causal context,
/// original send time).
type Segment<M> = (M, CauseCtx, MediaTime);

/// One reliable (src, dst) stream: the sender's numbering and the
/// receiver's in-order release gate.
struct Channel<M> {
    /// Next sequence number the sender assigns.
    tx_next: u64,
    /// Next sequence number the gate releases.
    rx_next: u64,
    /// Out-of-order arrivals held back until their predecessors land.
    held: BTreeMap<u64, Segment<M>>,
    /// Sequence numbers the sender abandoned (retry budget exhausted): the
    /// gate skips them instead of wedging.
    abandoned: BTreeSet<u64>,
    /// Monotone delivery clock: per-packet jitter must not reorder
    /// deliveries the gate already released.
    released_at: MediaTime,
}

impl<M> Default for Channel<M> {
    fn default() -> Self {
        Channel {
            tx_next: 0,
            rx_next: 0,
            held: BTreeMap::new(),
            abandoned: BTreeSet::new(),
            released_at: MediaTime::ZERO,
        }
    }
}

impl<M> Channel<M> {
    /// The next segment the gate can pass, skipping abandoned sequence
    /// numbers; `None` once it blocks on a number still outstanding.
    fn next_ready(&mut self) -> Option<Segment<M>> {
        while self.abandoned.remove(&self.rx_next) {
            self.rx_next += 1;
        }
        let segment = self.held.remove(&self.rx_next)?;
        self.rx_next += 1;
        Some(segment)
    }

    /// Schedule, in order, `first` (a segment that arrived in sequence and
    /// already advanced the gate) and every successor the gate can now pass;
    /// each no earlier than `arrival` and strictly after the release before.
    fn release(
        &mut self,
        queue: &mut EventQueue<M>,
        arrival: MediaTime,
        first: Option<Segment<M>>,
        deliver: impl Fn(Segment<M>) -> Pending<M>,
    ) {
        let mut next = first;
        while let Some(segment) = next.take().or_else(|| self.next_ready()) {
            let at = arrival.max(self.released_at + MediaDuration::from_micros(1));
            self.released_at = at;
            queue.push(at, deliver(segment));
        }
    }
}

struct Core<M> {
    now: MediaTime,
    queue: EventQueue<M>,
    net: Network,
    rng: SimRng,
    stats: SimStats,
    /// Reliable streams by dense (src, dst): one lookup per reliable send
    /// and one per reliable arrival or abandon.
    channels: HashMap<(u32, u32), Channel<M>>,
    /// Process state per node, by dense index. Grown on the first fault;
    /// an index beyond it — [`NONE`] included, i.e. a node the network has
    /// never heard of — reads as alive at incarnation 0.
    nodes: Vec<NodeState>,
    /// Multicast group membership, managed by the sim: group id → members.
    mcast_groups: BTreeMap<u64, BTreeSet<NodeId>>,
    /// Scratch for one multicast hop's (egress link, target) pairs, kept
    /// between hops so fanning out allocates only the subtrees it forwards.
    mcast_fanout: Vec<(u32, u32)>,
    /// Cleared buffers of spent multicast target lists, reused by the next
    /// list longer than three: a send and each hop copy allocate none.
    mcast_free: Vec<Vec<u32>>,
    /// The observability capture for the run (tracing, spans, metrics,
    /// flight recorder) — events record through [`SimApi`] so every record
    /// is stamped with the engine clock.
    obs: Obs,
    /// The ambient causal context: set from the delivered envelope before
    /// each `on_message`/`on_timer` dispatch, so everything a handler
    /// sends or schedules inherits the request chain it serves.
    current_cause: CauseCtx,
    /// Protocol-level message classifier for provenance records. The
    /// engine is generic over `M`, so the service layer registers its
    /// classifier as a plain fn pointer (default: every message is "msg").
    kind_of: fn(&M) -> &'static str,
    /// The engine as it was before a send took its first link itself: the
    /// first hop is queued at `now` like a forwarded one. The executable
    /// spec the differential tests hold the engine to.
    #[cfg(test)]
    queued_first_hop: bool,
}

/// Liveness of one node's process.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Crashed by an injected fault and not yet restarted.
    dead: bool,
    /// Process incarnation (bumped on restart).
    inc: u64,
}

impl<M: WireSize + Clone> Core<M> {
    /// Dense index of a node, [`NONE`] if the network never heard of it.
    #[inline]
    fn ix(&self, node: NodeId) -> u32 {
        self.net.index_of(node).unwrap_or(NONE)
    }

    /// Process state of the node at a dense index.
    #[inline]
    fn node(&self, ix: u32) -> NodeState {
        self.nodes.get(ix as usize).copied().unwrap_or_default()
    }

    /// True when work scheduled for the node at `ix` under incarnation `inc`
    /// must be discarded: the process crashed, or restarted since.
    #[inline]
    fn gone(&self, ix: u32, inc: u64) -> bool {
        let state = self.node(ix);
        state.dead || state.inc != inc
    }

    /// Mutable process state for a fault to act on. Faults aimed at a node
    /// the network never heard of find nothing to act on.
    fn node_mut(&mut self, node: NodeId) -> Option<&mut NodeState> {
        let ix = self.net.index_of(node)? as usize;
        if self.nodes.len() <= ix {
            self.nodes.resize(ix + 1, NodeState::default());
        }
        Some(&mut self.nodes[ix])
    }

    /// Run the in-order gate of the reliable stream `src → dst` after one
    /// of its segments arrived (`Some`) or was abandoned (`None`): schedule
    /// every delivery the gate can now pass, no earlier than `arrival`.
    fn advance_reliable_gate(
        &mut self,
        src: u32,
        dst: u32,
        seq: u64,
        arrived: Option<Segment<M>>,
        arrival: MediaTime,
    ) {
        let (node, from) = (self.net.id_at(dst), self.net.id_at(src));
        let inc = self.node(dst).inc;
        let channel = self.channels.entry((src, dst)).or_default();
        let first = match arrived {
            Some(segment) if seq == channel.rx_next => {
                channel.rx_next += 1;
                Some(segment)
            }
            Some(segment) => {
                if seq > channel.rx_next {
                    channel.held.insert(seq, segment);
                } // else a stale duplicate: drop silently.
                return;
            }
            None => {
                channel.abandoned.insert(seq);
                None
            }
        };
        channel.release(&mut self.queue, arrival, first, |(msg, cause, sent_at)| {
            Pending::Deliver {
                node,
                ix: dst,
                from,
                msg,
                inc,
                cause,
                sent_at,
            }
        });
    }

    /// Tear down engine-level reliable-channel state involving a crashed
    /// node: outstanding sequence numbers are abandoned on both sides so
    /// surviving peers' gates cannot wedge on segments that died with the
    /// process (connection-reset semantics).
    fn teardown_reliable_channels(&mut self, node: NodeId) {
        let Some(ix) = self.net.index_of(node) else {
            return;
        };
        for (&(src, dst), channel) in &mut self.channels {
            if src != ix && dst != ix {
                continue;
            }
            channel.rx_next = channel.rx_next.max(channel.tx_next);
            // Segments already delivered to the transport but parked behind
            // the in-order gate die with the connection: account them as
            // fault drops so conservation audits (sent = delivered + dropped
            // + fault_drops) keep balancing across crashes.
            self.stats.fault_drops += channel.held.len() as u64;
            channel.held.clear();
            channel.abandoned.clear();
        }
    }

    /// Apply one injected fault to the engine state.
    fn apply_fault(&mut self, kind: FaultKind) {
        self.stats.faults_applied += 1;
        let now = self.now;
        match kind {
            FaultKind::NodeCrash { node } => {
                if let Some(state) = self.node_mut(node) {
                    state.dead = true;
                }
                self.teardown_reliable_channels(node);
                self.obs
                    .emit(now, node.raw(), Severity::Error, "node_crash", Labels::NONE);
            }
            FaultKind::NodeRestart { node } => {
                if let Some(state) = self.node_mut(node) {
                    state.dead = false;
                    state.inc += 1;
                }
                self.obs.emit(
                    now,
                    node.raw(),
                    Severity::Warn,
                    "node_restart",
                    Labels::NONE,
                );
            }
            FaultKind::LinkDown { a, b } => {
                self.net.set_link_up(a, b, false);
                self.obs.emit(
                    now,
                    a.raw(),
                    Severity::Warn,
                    "link_down",
                    Labels::for_peer(b.raw()),
                );
            }
            FaultKind::LinkUp { a, b } => {
                self.net.set_link_up(a, b, true);
                self.obs.emit(
                    now,
                    a.raw(),
                    Severity::Info,
                    "link_up",
                    Labels::for_peer(b.raw()),
                );
            }
            FaultKind::NodeSlow { node, .. } => {
                // Brownouts change no engine state: the node keeps receiving
                // and its timers keep firing. The application layer sees the
                // fault via `App::on_fault` and inflates its service times.
                self.obs
                    .emit(now, node.raw(), Severity::Warn, "node_slow", Labels::NONE);
            }
            FaultKind::NodeNominal { node } => {
                self.obs.emit(
                    now,
                    node.raw(),
                    Severity::Info,
                    "node_nominal",
                    Labels::NONE,
                );
            }
        }
    }

    /// Start a unicast send: a self-send is delivered as the next event;
    /// any other send crosses its first link here, at the instant it is
    /// made, so a message on an n-link path costs n events. Tie rule: the
    /// send takes the node's egress link, and schedules what that link
    /// reaches, ahead of the events still queued for this microsecond,
    /// among them any retransmission from this node or packet forwarded
    /// through it. A reliable send takes the pair's next sequence number.
    fn start_send(&mut self, from: NodeId, to: NodeId, msg: M, reliable: bool) -> bool {
        let src = self.ix(from);
        let src_state = self.node(src);
        if src_state.dead {
            // A crashed process cannot transmit.
            return false;
        }
        let cause = self.current_cause;
        if from == to {
            // Local delivery: still asynchronous (next event), zero delay.
            let now = self.now;
            self.queue.push(
                now,
                Pending::Deliver {
                    node: to,
                    ix: src,
                    inc: src_state.inc,
                    from,
                    msg,
                    cause,
                    sent_at: now,
                },
            );
            return true;
        }
        let dst = self.ix(to);
        if self.net.egress(src, dst).is_none() {
            return false; // unreachable, or routing invalidated
        }
        let seq_no = reliable.then(|| {
            let channel = self.channels.entry((src, dst)).or_default();
            channel.tx_next += 1;
            channel.tx_next - 1
        });
        let now = self.now;
        #[cfg(test)]
        if self.queued_first_hop {
            self.queue.push(
                now,
                Pending::Hop {
                    src,
                    here: src,
                    dst,
                    msg,
                    attempt: 0,
                    sent_at: now,
                    seq_no,
                    src_inc: src_state.inc,
                    cause,
                },
            );
            return true;
        }
        let inc = src_state.inc;
        self.process_hop(src, src, dst, msg, 0, now, seq_no, inc, cause);
        true
    }

    /// Start a multicast send: one logical message toward every current
    /// member of `group` except the sender, fanned out over the sender's
    /// egress links at once (the tie rule of [`Core::start_send`]; a member
    /// that leaves later in the same instant loses its copy at the next
    /// hop, not at the sender). Returns the number of member nodes targeted
    /// (0 when the sender is dead or the group is empty).
    fn start_send_mcast(&mut self, from: NodeId, group: u64, msg: M) -> usize {
        let src = self.ix(from);
        let src_state = self.node(src);
        if src_state.dead {
            return 0;
        }
        let Some(members) = self.mcast_groups.get(&group) else {
            return 0;
        };
        // A member the network has never heard of is unroutable from
        // anywhere: its copy is counted dropped here, not carried along.
        let mut unknown = 0;
        let members = members.iter().filter(|&&t| t != from).filter_map(|&t| {
            let ix = self.net.index_of(t);
            unknown += ix.is_none() as usize;
            ix
        });
        let targets = Targets::collect(&mut self.mcast_free, members);
        let count = targets.as_slice().len() + unknown;
        if count == 0 {
            targets.recycle(&mut self.mcast_free);
            return 0;
        }
        self.stats.datagrams_dropped += unknown as u64;
        self.stats.mcast_sends += 1;
        let now = self.now;
        let cause = self.current_cause;
        #[cfg(test)]
        if self.queued_first_hop {
            self.queue.push(
                now,
                Pending::McastHop {
                    group,
                    src,
                    here: src,
                    targets,
                    from,
                    msg,
                    src_inc: src_state.inc,
                    cause,
                    sent_at: now,
                },
            );
            return count;
        }
        let inc = src_state.inc;
        self.process_mcast_hop(group, src, src, targets, from, msg, inc, cause, now);
        count
    }

    /// Forward one multicast copy from `here` toward its target subtree:
    /// deliver locally to members at this node, then group the remaining
    /// targets by egress link and place ONE copy on each, in ascending
    /// next-hop id order. A copy lost on a link (loss model, queue overflow
    /// or a fault-injected partition) takes its whole subtree with it —
    /// datagram semantics, like the unicast RTP path. Membership is re-read
    /// at every hop, so a member leaving mid-flight stops receiving
    /// immediately.
    #[allow(clippy::too_many_arguments)]
    fn process_mcast_hop(
        &mut self,
        group: u64,
        src: u32,
        here: u32,
        targets: Targets,
        from: NodeId,
        msg: M,
        src_inc: u64,
        cause: CauseCtx,
        sent_at: MediaTime,
    ) {
        if self.gone(src, src_inc) {
            self.stats.fault_drops += 1;
            targets.recycle(&mut self.mcast_free);
            return;
        }
        let now = self.now;
        let here_inc = self.node(here).inc;
        let mut fanout = std::mem::take(&mut self.mcast_fanout);
        let members = self.mcast_groups.get(&group);
        for &t in targets.as_slice() {
            let id = self.net.id_at(t);
            if !members.is_some_and(|m| m.contains(&id)) {
                continue; // left the group while the copy was in flight
            }
            if t == here {
                self.stats.mcast_deliveries += 1;
                self.queue.push(
                    now,
                    Pending::Deliver {
                        node: id,
                        ix: t,
                        from,
                        msg: msg.clone(),
                        inc: here_inc,
                        cause,
                        sent_at,
                    },
                );
            } else if let Some(link) = self.net.egress(here, t) {
                fanout.push((link, t));
            } else {
                self.stats.datagrams_dropped += 1; // unroutable member
            }
        }
        // Links out of one node end at distinct neighbours, so ordering by
        // (next-hop id, target id) groups by link in ascending next-hop
        // order and keeps every subtree ascending.
        let net = &self.net;
        fanout.sort_unstable_by_key(|&(link, t)| (net.id_at(net.link_to(link)), net.id_at(t)));
        let size = msg.wire_size();
        for copy in fanout.chunk_by(|a, b| a.0 == b.0) {
            let (link, next) = self.net.hop_mut(copy[0].0);
            let outcome = link.transmit(now, size);
            self.stats.mcast_link_copies += 1;
            match outcome {
                LinkOutcome::Delivered { arrival } => {
                    self.queue.push(
                        arrival,
                        Pending::McastHop {
                            group,
                            src,
                            here: next,
                            targets: Targets::collect(
                                &mut self.mcast_free,
                                copy.iter().map(|&(_, t)| t),
                            ),
                            from,
                            msg: msg.clone(),
                            src_inc,
                            cause,
                            sent_at,
                        },
                    );
                }
                LinkOutcome::Lost { .. } | LinkOutcome::QueueFull => {
                    self.stats.datagrams_dropped += copy.len() as u64;
                }
            }
        }
        fanout.clear();
        self.mcast_fanout = fanout;
        targets.recycle(&mut self.mcast_free);
    }

    #[allow(clippy::too_many_arguments)]
    fn process_hop(
        &mut self,
        src: u32,
        here: u32,
        dst: u32,
        msg: M,
        attempt: u32,
        sent_at: MediaTime,
        seq_no: Option<u64>,
        src_inc: u64,
        cause: CauseCtx,
    ) {
        if self.gone(src, src_inc) {
            // The sending process died (or restarted) while this packet or
            // its retransmission chain was in flight: the chain dies too.
            self.stats.fault_drops += 1;
            return;
        }
        let size = msg.wire_size();
        let now = self.now;
        let (outcome, next) = match self.net.egress(here, dst) {
            Some(l) => {
                let (link, next) = self.net.hop_mut(l);
                (link.transmit(now, size), next)
            }
            // Routing was invalidated mid-flight: dropped where it stands.
            None => (LinkOutcome::QueueFull, dst),
        };
        let (from, to) = (self.net.id_at(src), self.net.id_at(dst));
        match outcome {
            LinkOutcome::Delivered { arrival } => {
                if next == dst {
                    // Reached the destination node.
                    match seq_no {
                        None => {
                            let inc = self.node(dst).inc;
                            self.queue.push(
                                arrival,
                                Pending::Deliver {
                                    node: to,
                                    ix: dst,
                                    from,
                                    msg,
                                    inc,
                                    cause,
                                    sent_at,
                                },
                            );
                        }
                        Some(seq) => {
                            // In-order release: deliver if this is the next
                            // expected sequence number, then flush any held
                            // or abandoned successors; otherwise hold.
                            let segment = (msg, cause, sent_at);
                            self.advance_reliable_gate(src, dst, seq, Some(segment), arrival);
                        }
                    }
                } else {
                    self.queue.push(
                        arrival,
                        Pending::Hop {
                            src,
                            here: next,
                            dst,
                            msg,
                            attempt,
                            sent_at,
                            seq_no,
                            src_inc,
                            cause,
                        },
                    );
                }
            }
            LinkOutcome::Lost { .. } | LinkOutcome::QueueFull => {
                match seq_no {
                    None => {
                        self.stats.datagrams_dropped += 1;
                    }
                    Some(seq) => {
                        if attempt + 1 >= MAX_ATTEMPTS {
                            self.stats.reliable_failures += 1;
                            self.obs.emit_val(
                                now,
                                from.raw(),
                                Severity::Warn,
                                "reliable_abandon",
                                Labels::for_peer(to.raw()),
                                attempt as i64 + 1,
                            );
                            // Abandoning a sequence number must not wedge the
                            // receiver's in-order gate: mark it dead so later
                            // segments can still be released.
                            self.advance_reliable_gate(src, dst, seq, None, now);
                        } else {
                            self.stats.retransmissions += 1;
                            // Exponential backoff from the original send time.
                            let backoff = RTO * (1 << attempt.min(6)) as i64;
                            let retry_at = self.now + backoff;
                            self.queue.push(
                                retry_at,
                                Pending::Hop {
                                    src,
                                    here: src,
                                    dst,
                                    msg,
                                    attempt: attempt + 1,
                                    sent_at,
                                    seq_no,
                                    src_inc,
                                    cause,
                                },
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The simulator: owns the application, the network and the event queue.
pub struct Sim<M, A> {
    app: A,
    core: Core<M>,
}

/// The capability handle passed to application callbacks.
pub struct SimApi<'a, M> {
    core: &'a mut Core<M>,
}

impl<'a, M: WireSize + Clone> SimApi<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> MediaTime {
        self.core.now
    }
    /// Send a datagram. Returns false if no route exists.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> bool {
        self.core.start_send(from, to, msg, false)
    }
    /// Send reliably (retransmitted, delivered in order per src/dst pair).
    pub fn send_reliable(&mut self, from: NodeId, to: NodeId, msg: M) -> bool {
        self.core.start_send(from, to, msg, true)
    }
    /// Send a datagram to every member of a multicast group (except the
    /// sender). The copy fans out along the routing tree with one link
    /// transmission per distinct egress link, so N co-located receivers
    /// cost one copy on the shared trunk. Returns the member count
    /// targeted; 0 when the group is empty or the sender is down.
    pub fn send_mcast(&mut self, from: NodeId, group: u64, msg: M) -> usize {
        self.core.start_send_mcast(from, group, msg)
    }
    /// Add `node` to multicast group `group` (idempotent).
    pub fn mcast_join(&mut self, group: u64, node: NodeId) {
        self.core
            .mcast_groups
            .entry(group)
            .or_default()
            .insert(node);
    }
    /// Remove `node` from `group`; an emptied group is dissolved.
    pub fn mcast_leave(&mut self, group: u64, node: NodeId) {
        if let Some(members) = self.core.mcast_groups.get_mut(&group) {
            members.remove(&node);
            if members.is_empty() {
                self.core.mcast_groups.remove(&group);
            }
        }
    }
    /// Arrange for `on_timer(node, key, payload)` after `delay`. Timers die
    /// with the incarnation that set them: if the node crashes (or crashes
    /// and restarts) before the timer fires, it is silently discarded.
    pub fn set_timer(&mut self, node: NodeId, delay: MediaDuration, key: u64, payload: u64) {
        let at = self.core.now + delay.max(MediaDuration::ZERO);
        let ix = self.core.ix(node);
        let inc = self.core.node(ix).inc;
        let cause = self.core.current_cause;
        self.core.queue.push(
            at,
            Pending::Timer {
                node,
                ix,
                key,
                payload,
                inc,
                cause,
            },
        );
    }
    /// The ambient causal context (the request chain the current handler
    /// serves; [`CauseCtx::NONE`] outside any chain).
    #[inline]
    pub fn cause(&self) -> CauseCtx {
        self.core.current_cause
    }
    /// Originate a causal root for `session`: get-or-create the session's
    /// root span, adopt it as the ambient cause, and return the context.
    /// Everything sent or scheduled from here on (until the next dispatch)
    /// descends from this root. Returns [`CauseCtx::NONE`] with tracing
    /// off — propagation then costs nothing and attributes nothing.
    #[inline]
    pub fn cause_root(&mut self, session: u64, node: NodeId) -> CauseCtx {
        let root = self.session_span(session, node);
        let cause = if root.is_none() {
            CauseCtx::NONE
        } else {
            CauseCtx::from_root(root)
        };
        self.core.current_cause = cause;
        cause
    }
    /// True unless the node is currently crashed by an injected fault.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.core.node(self.core.ix(node)).dead
    }
    /// The shared RNG (application-level randomness draws from the same
    /// seeded stream, keeping whole runs reproducible).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
    /// Read-only network access (utilization queries, link stats).
    pub fn net(&self) -> &Network {
        &self.core.net
    }
    /// Mutable network access (reservations, condition changes).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.core.net
    }
    /// Engine counters so far.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }
    /// The run's observability capture (read side: registry, spans, …).
    pub fn obs(&self) -> &Obs {
        &self.core.obs
    }
    /// Mutable observability capture (metric publishing mid-run).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.core.obs
    }
    /// Record a trace event stamped with the engine clock.
    #[inline]
    pub fn emit(&mut self, node: NodeId, severity: Severity, name: &'static str, labels: Labels) {
        let now = self.core.now;
        self.core.obs.emit(now, node.raw(), severity, name, labels);
    }
    /// Record a trace event with a payload value, stamped with the clock.
    #[inline]
    pub fn emit_val(
        &mut self,
        node: NodeId,
        severity: Severity,
        name: &'static str,
        labels: Labels,
        value: i64,
    ) {
        let now = self.core.now;
        self.core
            .obs
            .emit_val(now, node.raw(), severity, name, labels, value);
    }
    /// Open a lifecycle span at the current engine clock. `parent` may be
    /// [`SpanId::NONE`] for a root; returns the null handle when tracing
    /// is off.
    #[inline]
    pub fn span_start(
        &mut self,
        node: NodeId,
        name: &'static str,
        labels: Labels,
        parent: SpanId,
    ) -> SpanId {
        let now = self.core.now;
        self.core
            .obs
            .span_start(now, node.raw(), name, labels, parent)
    }
    /// Close a span at the current engine clock (null handles ignored).
    #[inline]
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.core.now;
        self.core.obs.span_end(id, now);
    }
    /// Get-or-create the root span of a session (raw id) — the shared
    /// parent for client- and server-side lifecycle spans.
    #[inline]
    pub fn session_span(&mut self, session: u64, node: NodeId) -> SpanId {
        let now = self.core.now;
        self.core.obs.session_span(session, node.raw(), now)
    }
    /// Dump `node`'s flight-recorder ring on an anomaly.
    #[inline]
    pub fn flight_dump(&mut self, node: NodeId, reason: &'static str, labels: Labels) {
        let now = self.core.now;
        self.core.obs.dump_flight(now, node.raw(), reason, labels);
    }
}

impl<M: WireSize + Clone, A: App<M>> Sim<M, A> {
    /// Build a simulator from a network, an app and a seed.
    pub fn new(net: Network, app: A, seed: u64) -> Self {
        Sim {
            app,
            core: Core {
                now: MediaTime::ZERO,
                queue: EventQueue::new(),
                net,
                rng: SimRng::seed_from_u64(seed),
                stats: SimStats::default(),
                channels: HashMap::new(),
                nodes: Vec::new(),
                mcast_groups: BTreeMap::new(),
                mcast_fanout: Vec::new(),
                mcast_free: Vec::new(),
                obs: Obs::new(),
                current_cause: CauseCtx::NONE,
                kind_of: |_| "msg",
                #[cfg(test)]
                queued_first_hop: false,
            },
        }
    }

    /// Register the protocol-level message classifier that names the kind
    /// of each delivery in the provenance log (e.g.
    /// `ServiceMsg::provenance_kind`). Called once per delivered message
    /// while tracing is on, never for losses or retransmissions — those
    /// are `SimStats` counters and events.
    pub fn set_msg_kind(&mut self, f: fn(&M) -> &'static str) {
        self.core.kind_of = f;
    }

    /// Current simulation time.
    pub fn now(&self) -> MediaTime {
        self.core.now
    }
    /// The application (for inspection between runs).
    pub fn app(&self) -> &A {
        &self.app
    }
    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }
    /// Engine counters.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }
    /// Network access.
    pub fn net(&self) -> &Network {
        &self.core.net
    }
    /// Mutable network access.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.core.net
    }
    /// True unless the node is currently crashed by an injected fault.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.core.node(self.core.ix(node)).dead
    }
    /// The run's observability capture.
    pub fn obs(&self) -> &Obs {
        &self.core.obs
    }
    /// Mutable observability capture (toggling, metric publishing).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.core.obs
    }
    /// Move the capture out (for export after a run), leaving a fresh one.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::take(&mut self.core.obs)
    }
    /// Snapshot the engine counters and per-network totals into the
    /// capture's metrics registry under the `sim.*` / `net.*` namespaces.
    pub fn publish_metrics(&mut self) {
        let s = self.core.stats;
        let prov = &self.core.obs.prov;
        let (prov_records, prov_retained) = (prov.offered(), prov.len() as u64);
        let prov_dropped = prov.dropped;
        self.core.obs.publish_self_metrics();
        let r = &mut self.core.obs.registry;
        r.counter_set("sim.prov_records", Labels::NONE, prov_records);
        r.counter_set("sim.prov_retained", Labels::NONE, prov_retained);
        r.counter_set("sim.prov_dropped", Labels::NONE, prov_dropped);
        r.counter_set("sim.delivered", Labels::NONE, s.delivered);
        r.counter_set("sim.datagrams_dropped", Labels::NONE, s.datagrams_dropped);
        r.counter_set("sim.retransmissions", Labels::NONE, s.retransmissions);
        r.counter_set("sim.reliable_failures", Labels::NONE, s.reliable_failures);
        r.counter_set("sim.timers_fired", Labels::NONE, s.timers_fired);
        r.counter_set("sim.faults_applied", Labels::NONE, s.faults_applied);
        r.counter_set("sim.fault_drops", Labels::NONE, s.fault_drops);
        r.counter_set("sim.mcast_sends", Labels::NONE, s.mcast_sends);
        r.counter_set("sim.mcast_link_copies", Labels::NONE, s.mcast_link_copies);
        r.counter_set("sim.mcast_deliveries", Labels::NONE, s.mcast_deliveries);
        let n = self.core.net.total_stats();
        r.counter_set("net.packets_sent", Labels::NONE, n.packets_sent);
        r.counter_set("net.packets_lost", Labels::NONE, n.packets_lost);
        r.counter_set(
            "net.packets_dropped_queue",
            Labels::NONE,
            n.packets_dropped_queue,
        );
        r.counter_set("net.bytes_sent", Labels::NONE, n.bytes_sent);
    }

    /// Run app code "from outside" (initial kicks, mid-run interventions).
    /// The ambient cause resets: external kicks start fresh causal chains.
    pub fn with_api<R>(&mut self, f: impl FnOnce(&mut A, &mut SimApi<'_, M>) -> R) -> R {
        self.core.current_cause = CauseCtx::NONE;
        let mut api = SimApi {
            core: &mut self.core,
        };
        f(&mut self.app, &mut api)
    }

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, pending)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        match pending {
            Pending::Hop {
                src,
                here,
                dst,
                msg,
                attempt,
                sent_at,
                seq_no,
                src_inc,
                cause,
            } => {
                self.core.process_hop(
                    src, here, dst, msg, attempt, sent_at, seq_no, src_inc, cause,
                );
            }
            Pending::Deliver {
                node,
                ix,
                from,
                msg,
                inc,
                cause,
                sent_at,
            } => {
                if self.core.gone(ix, inc) {
                    self.core.stats.fault_drops += 1;
                    return true;
                }
                self.core.stats.delivered += 1;
                // Log the delivery (the only provenance written down: kind,
                // causal root, time in flight) and adopt the message's
                // cause for the handler's sends.
                if self.core.obs.on() {
                    let kind = (self.core.kind_of)(&msg);
                    let now = self.core.now;
                    self.core.obs.record_hop(now, cause, kind, now - sent_at);
                }
                self.core.current_cause = cause;
                let mut api = SimApi {
                    core: &mut self.core,
                };
                self.app.on_message(&mut api, node, from, msg);
            }
            Pending::Timer {
                node,
                ix,
                key,
                payload,
                inc,
                cause,
            } => {
                if self.core.gone(ix, inc) {
                    self.core.stats.fault_drops += 1;
                    return true;
                }
                self.core.stats.timers_fired += 1;
                self.core.current_cause = cause;
                let mut api = SimApi {
                    core: &mut self.core,
                };
                self.app.on_timer(&mut api, node, key, payload);
            }
            Pending::McastHop {
                group,
                src,
                here,
                targets,
                from,
                msg,
                src_inc,
                cause,
                sent_at,
            } => {
                self.core.process_mcast_hop(
                    group, src, here, targets, from, msg, src_inc, cause, sent_at,
                );
            }
            Pending::Fault(kind) => {
                // Faults are external: no causal chain.
                self.core.current_cause = CauseCtx::NONE;
                self.core.apply_fault(kind);
                let at = self.core.now;
                let mut api = SimApi {
                    core: &mut self.core,
                };
                self.app.on_fault(&mut api, FaultEvent { at, kind });
            }
        }
        true
    }

    /// Run until the event queue is empty or `limit` events were processed.
    /// Returns the number of events processed.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Run until simulation time reaches `until` (events at exactly `until`
    /// are processed). Returns the number of events processed.
    pub fn run_until(&mut self, until: MediaTime) -> u64 {
        let mut n = 0;
        while self.core.queue.peek_at().is_some_and(|at| at <= until) {
            self.step();
            n += 1;
        }
        self.core.now = self.core.now.max(until);
        n
    }

    /// Schedule a single fault. Instants in the past are clamped to `now`.
    pub fn inject_fault(&mut self, at: MediaTime, kind: FaultKind) {
        let at = at.max(self.core.now);
        self.core.queue.push(at, Pending::Fault(kind));
    }

    /// Install every event of a [`FaultPlan`] on the timer wheel. Events
    /// scheduled for the same instant apply in plan order.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.inject_fault(ev.at, ev.kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::LossModel;
    use crate::topology::LinkSpec;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(String, usize);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn mcast_targets_inline_up_to_three_and_no_larger_than_a_vec() {
        assert_eq!(
            std::mem::size_of::<Targets>(),
            std::mem::size_of::<Vec<u32>>()
        );
        let mut free = Vec::new();
        for n in 0..9u32 {
            let t = Targets::collect(&mut free, 10..10 + n);
            assert_eq!(t.as_slice(), (10..10 + n).collect::<Vec<u32>>());
            assert_eq!(matches!(t, Targets::Few { .. }), n <= 3, "{t:?}");
            t.recycle(&mut free);
            assert_eq!(free.len(), (n > 3) as usize, "one buffer, reused");
        }
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(MediaTime, NodeId, NodeId, String)>,
        timers: Vec<(MediaTime, u64, u64)>,
        echo: bool,
    }

    impl App<Msg> for Recorder {
        fn on_message(&mut self, api: &mut SimApi<'_, Msg>, node: NodeId, from: NodeId, msg: Msg) {
            self.got.push((api.now(), node, from, msg.0.clone()));
            if self.echo && msg.0 == "ping" {
                api.send_reliable(node, from, Msg("pong".into(), msg.1));
            }
        }
        fn on_timer(&mut self, api: &mut SimApi<'_, Msg>, _node: NodeId, key: u64, payload: u64) {
            self.timers.push((api.now(), key, payload));
        }
    }

    fn n(id: u64) -> NodeId {
        NodeId::new(id)
    }

    fn two_node_net(loss: LossModel) -> Network {
        two_node_net_seeded(loss, 9)
    }

    fn two_node_net_seeded(loss: LossModel, seed: u64) -> Network {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut net = Network::new();
        net.add_node(n(0), "client");
        net.add_node(n(1), "server");
        let mut spec = LinkSpec::lan(8_000_000);
        spec.loss = loss;
        net.add_duplex(n(0), n(1), spec, &mut rng);
        net.compute_routes();
        net
    }

    #[test]
    fn datagram_delivery_and_timing() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 1);
        sim.with_api(|_, api| {
            assert!(api.send(n(0), n(1), Msg("hello".into(), 1000)));
        });
        sim.run(100);
        let got = &sim.app().got;
        assert_eq!(got.len(), 1);
        // 1000 bytes at 8 Mbps = 1 ms tx + 200 µs propagation.
        assert_eq!(got[0].0, MediaTime::from_micros(1200));
        assert_eq!(got[0].1, n(1));
        assert_eq!(got[0].2, n(0));
    }

    #[test]
    fn request_response_round_trip() {
        let mut sim = Sim::new(
            two_node_net(LossModel::None),
            Recorder {
                echo: true,
                ..Default::default()
            },
            1,
        );
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("ping".into(), 500));
        });
        sim.run(100);
        let got = &sim.app().got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].3, "pong");
        assert_eq!(got[1].1, n(0)); // pong arrives back at the client
        assert!(got[1].0 > got[0].0);
    }

    #[test]
    fn reliable_survives_heavy_loss() {
        // Seed pinned to a draw where no message exhausts its retry budget:
        // with p = 0.5 and 8 attempts, each message independently fails with
        // probability 2^-8, so some seeds legitimately exceed the budget.
        let mut sim = Sim::new(
            two_node_net_seeded(LossModel::Bernoulli { p: 0.5 }, 2),
            Recorder::default(),
            2,
        );
        sim.with_api(|_, api| {
            for i in 0..50 {
                api.send_reliable(n(0), n(1), Msg(format!("m{i}"), 400));
            }
        });
        sim.run(100_000);
        assert_eq!(sim.app().got.len(), 50, "all reliable messages delivered");
        assert!(sim.stats().retransmissions > 0);
        assert_eq!(sim.stats().reliable_failures, 0);
    }

    #[test]
    fn datagrams_lost_under_loss() {
        let mut sim = Sim::new(
            two_node_net(LossModel::Bernoulli { p: 0.5 }),
            Recorder::default(),
            3,
        );
        sim.with_api(|_, api| {
            for i in 0..200 {
                api.send(n(0), n(1), Msg(format!("d{i}"), 100));
            }
        });
        sim.run(10_000);
        let delivered = sim.app().got.len();
        assert!(delivered > 60 && delivered < 140, "delivered {delivered}");
        assert_eq!(sim.stats().datagrams_dropped as usize + delivered, 200);
    }

    #[test]
    fn reliable_is_in_order_per_pair() {
        let mut sim = Sim::new(
            two_node_net(LossModel::Bernoulli { p: 0.3 }),
            Recorder::default(),
            4,
        );
        sim.with_api(|_, api| {
            for i in 0..30 {
                api.send_reliable(n(0), n(1), Msg(format!("{i:03}"), 300));
            }
        });
        sim.run(100_000);
        let names: Vec<&str> = sim.app().got.iter().map(|g| g.3.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "reliable deliveries out of order");
    }

    #[test]
    fn reliable_in_order_despite_jitter() {
        // Heavy per-packet jitter must not reorder reliable deliveries —
        // the release clock keeps them monotone even when a later packet's
        // jitter sample is smaller.
        let mut rng = SimRng::seed_from_u64(77);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        let mut spec = LinkSpec::lan(8_000_000);
        spec.jitter = crate::models::JitterModel::Exponential {
            mean: MediaDuration::from_millis(20),
        };
        net.add_duplex(n(0), n(1), spec, &mut rng);
        net.compute_routes();
        let mut sim = Sim::new(net, Recorder::default(), 6);
        sim.with_api(|_, api| {
            for i in 0..60 {
                api.send_reliable(n(0), n(1), Msg(format!("{i:03}"), 200));
            }
        });
        sim.run(100_000);
        let names: Vec<&str> = sim.app().got.iter().map(|g| g.3.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "jitter reordered reliable deliveries");
        // Delivery times are strictly monotone per pair.
        for w in sim.app().got.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 5);
        sim.with_api(|_, api| {
            api.set_timer(n(0), MediaDuration::from_millis(30), 1, 100);
            api.set_timer(n(0), MediaDuration::from_millis(10), 2, 200);
            api.set_timer(n(0), MediaDuration::from_millis(20), 3, 300);
        });
        sim.run(10);
        let keys: Vec<u64> = sim.app().timers.iter().map(|t| t.1).collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert_eq!(sim.app().timers[0].0, MediaTime::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 6);
        sim.with_api(|_, api| {
            api.set_timer(n(0), MediaDuration::from_millis(10), 1, 0);
            api.set_timer(n(0), MediaDuration::from_millis(50), 2, 0);
        });
        sim.run_until(MediaTime::from_millis(20));
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.now(), MediaTime::from_millis(20));
        sim.run_until(MediaTime::from_millis(100));
        assert_eq!(sim.app().timers.len(), 2);
    }

    #[test]
    fn self_send_delivers_locally() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 7);
        sim.with_api(|_, api| {
            assert!(api.send(n(0), n(0), Msg("loop".into(), 10)));
        });
        sim.run(10);
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().got[0].0, MediaTime::ZERO);
    }

    #[test]
    fn no_route_returns_false() {
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        // no links
        net.compute_routes();
        let mut sim = Sim::new(net, Recorder::default(), 8);
        sim.with_api(|_, api| {
            assert!(!api.send(n(0), n(1), Msg("x".into(), 10)));
        });
    }

    #[test]
    fn crash_drops_deliveries_and_timers() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 11);
        sim.with_api(|_, api| {
            api.set_timer(n(1), MediaDuration::from_millis(50), 9, 0);
        });
        sim.inject_fault(
            MediaTime::from_millis(10),
            FaultKind::NodeCrash { node: n(1) },
        );
        sim.run_until(MediaTime::from_millis(20));
        assert!(!sim.node_is_up(n(1)));
        // A message sent toward the dead node is dropped at delivery.
        sim.with_api(|_, api| {
            assert!(api.send_reliable(n(0), n(1), Msg("x".into(), 100)));
        });
        sim.run(1_000);
        assert!(sim.app().got.is_empty(), "dead node received a message");
        assert!(sim.app().timers.is_empty(), "dead node's timer fired");
        assert!(sim.stats().fault_drops > 0);
    }

    #[test]
    fn crash_accounts_segments_held_by_the_inorder_gate() {
        // Under loss, later reliable segments arrive while an earlier one is
        // still being retransmitted and wait in the in-order hold. A crash
        // tears the channel down; the held segments must be counted as
        // fault drops, not silently vanish from the conservation ledger.
        let mut sim = Sim::new(
            two_node_net_seeded(LossModel::Bernoulli { p: 0.5 }, 3),
            Recorder::default(),
            3,
        );
        sim.with_api(|_, api| {
            for i in 0..10 {
                api.send_reliable(n(0), n(1), Msg(format!("m{i}"), 300));
            }
        });
        // Crash before the first retransmission timer (RTO 200 ms) so the
        // hold is still populated, then look at the ledger right away.
        sim.inject_fault(
            MediaTime::from_millis(10),
            FaultKind::NodeCrash { node: n(1) },
        );
        sim.run_until(MediaTime::from_millis(10));
        let delivered = sim.app().got.len() as u64;
        assert!(delivered < 10, "loss draw left nothing in the hold");
        assert!(
            sim.stats().fault_drops > 0,
            "held segments were discarded without accounting"
        );
    }

    #[test]
    fn node_slow_changes_no_engine_state() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 21);
        sim.inject_fault(
            MediaTime::from_millis(5),
            FaultKind::NodeSlow {
                node: n(1),
                factor: 10,
            },
        );
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("through".into(), 100));
            api.set_timer(n(1), MediaDuration::from_millis(20), 1, 0);
        });
        sim.run(1_000);
        // The node is alive: delivery and timers proceed; only the app-level
        // service model (not the engine) slows down.
        assert!(sim.node_is_up(n(1)));
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.stats().faults_applied, 1);
        assert_eq!(sim.stats().fault_drops, 0);
    }

    #[test]
    fn crashed_node_cannot_send() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 12);
        sim.inject_fault(MediaTime::ZERO, FaultKind::NodeCrash { node: n(0) });
        sim.run(1);
        sim.with_api(|_, api| {
            assert!(!api.send(n(0), n(1), Msg("x".into(), 100)));
        });
    }

    #[test]
    fn restart_revives_with_fresh_incarnation() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 13);
        // Timer set by incarnation 0; node crashes and restarts before it
        // fires — the stale timer must die with its incarnation.
        sim.with_api(|_, api| {
            api.set_timer(n(1), MediaDuration::from_millis(100), 1, 1);
        });
        sim.install_faults(&FaultPlan::new().crash_for(
            n(1),
            MediaTime::from_millis(10),
            MediaDuration::from_millis(20),
        ));
        sim.run_until(MediaTime::from_millis(40));
        assert!(sim.node_is_up(n(1)));
        // Fresh traffic and timers work after the restart.
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("hello-again".into(), 200));
            api.set_timer(n(1), MediaDuration::from_millis(5), 2, 2);
        });
        sim.run_until(MediaTime::from_millis(200));
        assert!(
            sim.app().timers.iter().all(|t| t.1 == 2),
            "stale timer fired"
        );
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().got[0].3, "hello-again");
    }

    #[test]
    fn partition_heals_through_reliable_arq() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 14);
        // Partition for 1 s starting just before the send: every attempt
        // during the outage is dropped, but backoff retries outlive it.
        sim.install_faults(&FaultPlan::new().partition(
            n(0),
            n(1),
            MediaTime::ZERO,
            MediaTime::from_secs(1),
        ));
        sim.run(1); // apply LinkDown
        sim.with_api(|_, api| {
            for i in 0..5 {
                api.send_reliable(n(0), n(1), Msg(format!("{i}"), 300));
            }
        });
        sim.run(100_000);
        assert_eq!(sim.app().got.len(), 5, "messages lost across the partition");
        assert!(sim.app().got.iter().all(|g| g.0 >= MediaTime::from_secs(1)));
        assert_eq!(sim.stats().reliable_failures, 0);
        assert!(sim.net().total_stats().packets_dropped_down > 0);
        // Datagrams sent during the outage are simply gone.
        assert!(sim.net().link_is_up(n(0), n(1)));
    }

    #[test]
    fn abandoned_sequence_does_not_wedge_the_gate() {
        // Partition longer than the whole retry window (~25.4 s at default
        // rto/attempts): the first message exhausts its budget, and later
        // messages sent after the heal must still be delivered.
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 15);
        sim.install_faults(&FaultPlan::new().partition(
            n(0),
            n(1),
            MediaTime::ZERO,
            MediaTime::from_secs(60),
        ));
        sim.run(1);
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("doomed".into(), 300));
        });
        sim.run_until(MediaTime::from_secs(61));
        assert_eq!(sim.stats().reliable_failures, 1);
        assert!(sim.app().got.is_empty());
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("after-heal".into(), 300));
        });
        sim.run(100_000);
        assert_eq!(sim.app().got.len(), 1, "gate wedged on abandoned seq");
        assert_eq!(sim.app().got[0].3, "after-heal");
    }

    #[test]
    fn gate_releases_held_segments_past_an_abandoned_one() {
        // m0 is lost to a partition and its seven retries (0.2 s to 25.4 s
        // after it) to a second one, so the sender abandons it while m1 and
        // m2 wait in the receiver's hold: the abandon itself must open the
        // gate, in order, at that instant.
        let ms = MediaTime::from_millis;
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 16);
        sim.install_faults(
            &FaultPlan::new()
                .partition(n(0), n(1), ms(0), ms(10))
                .partition(n(0), n(1), ms(90), ms(25_500)),
        );
        sim.run(1); // apply the first LinkDown
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("m0".into(), 100));
        });
        sim.run_until(ms(20));
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("m1".into(), 100));
            api.send_reliable(n(0), n(1), Msg("m2".into(), 100));
        });
        sim.run_until(ms(25_399));
        assert!(sim.app().got.is_empty(), "released past a live gap");
        sim.run_until(ms(25_600));
        sim.with_api(|_, api| {
            api.send_reliable(n(0), n(1), Msg("m3".into(), 100));
        });
        sim.run(1_000);
        let got: Vec<(i64, &str)> = sim
            .app()
            .got
            .iter()
            .map(|g| (g.0.as_micros(), g.3.as_str()))
            .collect();
        // m3: 100 bytes at 8 Mbps = 100 µs tx + 200 µs propagation.
        let released = vec![(25_400_000, "m1"), (25_400_001, "m2"), (25_600_300, "m3")];
        assert_eq!(got, released);
        assert_eq!(sim.stats().reliable_failures, 1);
        assert_eq!(sim.stats().retransmissions, 7);
        assert_eq!(sim.stats().fault_drops, 0);
    }

    #[test]
    fn crash_teardown_counts_exactly_the_held_segments() {
        // m0 is lost to a partition; m1..m3 arrive and wait behind it. A
        // crash of either end resets the channel: the three held segments
        // are fault drops, m0's late retry is a stale duplicate (receiver
        // crash) or dies with its sender (sender crash, one more drop), and
        // the gate is open for the next send.
        let ms = MediaTime::from_millis;
        for (crashed, fault_drops) in [(n(1), 3), (n(0), 4)] {
            let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 17);
            sim.install_faults(
                &FaultPlan::new()
                    .partition(n(0), n(1), ms(0), ms(5))
                    .crash_for(crashed, ms(10), MediaDuration::from_millis(10)),
            );
            sim.run(1); // apply LinkDown
            sim.with_api(|_, api| {
                api.send_reliable(n(0), n(1), Msg("m0".into(), 100));
            });
            sim.run_until(ms(6));
            sim.with_api(|_, api| {
                for i in 1..4 {
                    api.send_reliable(n(0), n(1), Msg(format!("m{i}"), 100));
                }
            });
            sim.run_until(ms(9));
            assert_eq!(sim.stats().fault_drops, 0);
            sim.run_until(ms(10));
            assert_eq!(sim.stats().fault_drops, 3, "held segments at the crash");
            sim.run_until(ms(300)); // m0's retransmission fires at 200 ms
            sim.with_api(|_, api| {
                api.send_reliable(n(0), n(1), Msg("m4".into(), 100));
            });
            sim.run(1_000);
            let got: Vec<&str> = sim.app().got.iter().map(|g| g.3.as_str()).collect();
            assert_eq!(got, vec!["m4"], "crashed {crashed}");
            assert_eq!(sim.stats().fault_drops, fault_drops, "crashed {crashed}");
            assert_eq!(sim.stats().reliable_failures, 0);
        }
    }

    #[test]
    fn channel_gate_skips_runs_of_abandoned_numbers_on_a_monotone_clock() {
        let mut channel: Channel<Msg> = Channel::default();
        let mut queue = EventQueue::new();
        let segment = |name: &str| (Msg(name.into(), 1), CauseCtx::NONE, MediaTime::ZERO);
        let deliver = |(msg, cause, sent_at): Segment<Msg>| Pending::Deliver {
            node: n(1),
            ix: 1,
            from: n(0),
            msg,
            inc: 0,
            cause,
            sent_at,
        };
        // 0 outstanding; 1 and 2 abandoned; 3 and 5 held; 4 outstanding.
        channel.abandoned.extend([1, 2]);
        channel.held.insert(3, segment("s3"));
        channel.held.insert(5, segment("s5"));
        channel.release(&mut queue, MediaTime::from_millis(7), None, deliver);
        assert!(queue.heap.is_empty(), "gate opened past outstanding 0");
        // 0 arrives in sequence: it and 3 go out, the gate stops at 4.
        channel.rx_next = 1;
        let at = MediaTime::from_millis(9);
        channel.release(&mut queue, at, Some(segment("s0")), deliver);
        assert_eq!((channel.rx_next, channel.held.len()), (4, 1));
        // 4 is abandoned at an *earlier* clock reading than the last
        // release: 5 still leaves strictly after it.
        channel.abandoned.insert(4);
        channel.release(&mut queue, MediaTime::from_millis(8), None, deliver);
        assert_eq!(channel.rx_next, 6);
        assert!(channel.abandoned.is_empty() && channel.held.is_empty());
        let mut out = Vec::new();
        while let Some((at, pending)) = queue.pop() {
            match pending {
                Pending::Deliver { msg, .. } => out.push((at.as_micros(), msg.0)),
                _ => unreachable!(),
            }
        }
        let expect = [(9_000, "s0"), (9_001, "s3"), (9_002, "s5")];
        assert_eq!(out.len(), expect.len());
        for ((at, name), (want_at, want_name)) in out.iter().zip(expect) {
            assert_eq!((*at, name.as_str()), (want_at, want_name));
        }
    }

    #[test]
    fn unknown_nodes_read_as_alive_at_incarnation_zero() {
        let mut sim = Sim::new(two_node_net(LossModel::None), Recorder::default(), 18);
        // A fault aimed at a node the network never heard of is applied and
        // reported, but finds no process to act on.
        sim.inject_fault(MediaTime::ZERO, FaultKind::NodeCrash { node: n(99) });
        sim.run(1);
        assert_eq!(sim.stats().faults_applied, 1);
        assert!(sim.node_is_up(n(99)));
        sim.with_api(|_, api| {
            api.set_timer(n(99), MediaDuration::from_millis(1), 4, 2);
            assert!(api.send(n(99), n(99), Msg("loop".into(), 10)));
            assert!(!api.send(n(99), n(1), Msg("out".into(), 10)));
            assert!(!api.send(n(0), n(99), Msg("in".into(), 10)));
            // An unknown group member is unroutable: dropped, not carried.
            api.mcast_join(3, n(99));
            api.mcast_join(3, n(1));
            assert_eq!(api.send_mcast(n(0), 3, Msg("m".into(), 10)), 2);
        });
        sim.run(100);
        let got: Vec<&str> = sim.app().got.iter().map(|g| g.3.as_str()).collect();
        assert_eq!(got, vec!["loop", "m"]);
        assert_eq!(sim.app().timers.len(), 1);
        assert_eq!(sim.stats().datagrams_dropped, 1);
        assert_eq!(sim.stats().fault_drops, 0);
    }

    #[test]
    fn topology_change_mid_run_invalidates_routes_but_not_node_state() {
        let mut sim = Sim::new(star_net(2, LossModel::None, 19), Recorder::default(), 19);
        sim.inject_fault(MediaTime::ZERO, FaultKind::NodeCrash { node: n(11) });
        sim.with_api(|_, api| {
            assert!(api.send(n(1), n(10), Msg("in-flight".into(), 500)));
        });
        // The send already put the packet on the trunk; this is the crash.
        // The packet is still on the trunk when routing is invalidated.
        sim.run(1);
        // A node with a *smaller* id than every other joins: dense indices
        // are add order, so in-flight packets and crash state stay put.
        sim.net_mut().add_node(n(5), "late");
        let mut rng = SimRng::seed_from_u64(19);
        sim.net_mut()
            .add_duplex(n(0), n(5), LinkSpec::lan(8_000_000), &mut rng);
        // add_link invalidated routing: sends are refused, and the packet
        // already in flight is dropped at its next hop like a full queue.
        sim.with_api(|_, api| {
            assert!(!api.send(n(1), n(10), Msg("refused".into(), 500)));
        });
        sim.run(100);
        assert!(sim.app().got.is_empty());
        assert_eq!(sim.stats().datagrams_dropped, 1);
        sim.net_mut().compute_routes();
        sim.with_api(|_, api| {
            assert!(api.send(n(1), n(5), Msg("to-late".into(), 500)));
            assert!(api.send(n(1), n(10), Msg("again".into(), 500)));
            assert!(api.send(n(1), n(11), Msg("to-dead".into(), 500)));
        });
        sim.run(100);
        let got: Vec<(NodeId, &str)> = sim.app().got.iter().map(|g| (g.1, g.3.as_str())).collect();
        assert_eq!(got, vec![(n(5), "to-late"), (n(10), "again")]);
        assert!(!sim.node_is_up(n(11)));
        assert_eq!(sim.stats().fault_drops, 1);
    }

    /// Star topology for multicast tests: server `n(1)` — backbone `n(0)` —
    /// clients `n(10)..n(10+clients)`, with `loss` on the client access
    /// links only (the shared server trunk stays clean).
    fn star_net(clients: u64, loss: LossModel, seed: u64) -> Network {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut net = Network::new();
        net.add_node(n(0), "backbone");
        net.add_node(n(1), "server");
        net.add_duplex(n(1), n(0), LinkSpec::lan(8_000_000), &mut rng);
        for i in 0..clients {
            let c = n(10 + i);
            net.add_node(c, format!("client-{i}"));
            let mut spec = LinkSpec::lan(8_000_000);
            spec.loss = loss.clone();
            net.add_duplex(n(0), c, spec, &mut rng);
        }
        net.compute_routes();
        net
    }

    #[test]
    fn mcast_single_copy_per_egress_link() {
        let mut sim = Sim::new(star_net(4, LossModel::None, 21), Recorder::default(), 21);
        sim.with_api(|_, api| {
            for i in 0..4 {
                api.mcast_join(7, n(10 + i));
            }
            for i in 0..10 {
                assert_eq!(api.send_mcast(n(1), 7, Msg(format!("m{i}"), 800)), 4);
            }
        });
        sim.run(100_000);
        // Every member received every message...
        assert_eq!(sim.app().got.len(), 40);
        for i in 0..4 {
            let cnt = sim.app().got.iter().filter(|g| g.1 == n(10 + i)).count();
            assert_eq!(cnt, 10, "client {i}");
        }
        // ...but the shared server trunk carried ONE copy per send, not
        // one per receiver: fan-out happens at the backbone.
        let trunk = sim.net().link(n(1), n(0)).unwrap().stats;
        assert_eq!(trunk.packets_sent, 10);
        assert_eq!(trunk.bytes_sent, 10 * 800);
        for i in 0..4 {
            let access = sim.net().link(n(0), n(10 + i)).unwrap().stats;
            assert_eq!(access.packets_sent, 10);
        }
        let s = sim.stats();
        assert_eq!(s.mcast_sends, 10);
        assert_eq!(s.mcast_link_copies, 10 * 5); // 1 trunk + 4 access per send
        assert_eq!(s.mcast_deliveries, 40);
    }

    #[test]
    fn mcast_per_receiver_loss_is_independent() {
        let mut sim = Sim::new(
            star_net(3, LossModel::Bernoulli { p: 0.4 }, 22),
            Recorder::default(),
            22,
        );
        sim.with_api(|_, api| {
            for i in 0..3 {
                api.mcast_join(7, n(10 + i));
            }
            for i in 0..200 {
                api.send_mcast(n(1), 7, Msg(format!("m{i}"), 100));
            }
        });
        sim.run(1_000_000);
        // Each access link draws from its own RNG stream: losses hit
        // members independently, and every copy is accounted for.
        let mut counts = Vec::new();
        for i in 0..3 {
            let cnt = sim.app().got.iter().filter(|g| g.1 == n(10 + i)).count();
            assert!((70..170).contains(&cnt), "client {i} got {cnt}");
            counts.push(cnt);
        }
        counts.dedup();
        assert!(counts.len() > 1, "identical loss across receivers");
        let s = sim.stats();
        assert_eq!(
            s.mcast_deliveries + s.datagrams_dropped,
            600,
            "every copy delivered or counted lost"
        );
    }

    #[test]
    fn mcast_membership_churn_in_flight() {
        let mut sim = Sim::new(star_net(2, LossModel::None, 23), Recorder::default(), 23);
        sim.with_api(|_, api| {
            api.mcast_join(7, n(10));
            api.mcast_join(7, n(11));
            // The copy is scheduled, then a member leaves before it moves:
            // membership is re-read at each hop, so the leaver never
            // receives a copy already in flight.
            assert_eq!(api.send_mcast(n(1), 7, Msg("while-member".into(), 400)), 2);
            api.mcast_leave(7, n(11));
        });
        sim.run(10_000);
        assert_eq!(sim.app().got.len(), 1);
        assert_eq!(sim.app().got[0].1, n(10));
        // Rejoining resumes reception of later sends.
        sim.with_api(|_, api| {
            api.mcast_join(7, n(11));
            assert_eq!(api.send_mcast(n(1), 7, Msg("rejoined".into(), 400)), 2);
        });
        sim.run(10_000);
        assert_eq!(sim.app().got.len(), 3);
        assert!(sim
            .app()
            .got
            .iter()
            .any(|g| g.1 == n(11) && g.3 == "rejoined"));
    }

    #[test]
    fn mcast_partitioned_member_stops_then_resumes() {
        let mut sim = Sim::new(star_net(2, LossModel::None, 24), Recorder::default(), 24);
        sim.install_faults(&FaultPlan::new().partition(
            n(0),
            n(11),
            MediaTime::from_millis(10),
            MediaTime::from_millis(100),
        ));
        sim.with_api(|_, api| {
            api.mcast_join(7, n(10));
            api.mcast_join(7, n(11));
            api.send_mcast(n(1), 7, Msg("before".into(), 300));
        });
        sim.run_until(MediaTime::from_millis(10));
        // During the partition only the reachable member receives; the
        // partitioned subtree's copy dies at the cut.
        sim.with_api(|_, api| {
            api.send_mcast(n(1), 7, Msg("during".into(), 300));
        });
        sim.run_until(MediaTime::from_millis(120));
        // After the link heals, mcast reception resumes without rejoining.
        sim.with_api(|_, api| {
            api.send_mcast(n(1), 7, Msg("after".into(), 300));
        });
        sim.run_until(MediaTime::from_millis(200));
        let at = |node: NodeId| -> Vec<&str> {
            sim.app()
                .got
                .iter()
                .filter(|g| g.1 == node)
                .map(|g| g.3.as_str())
                .collect()
        };
        assert_eq!(at(n(10)), vec!["before", "during", "after"]);
        assert_eq!(at(n(11)), vec!["before", "after"]);
        assert!(sim.net().total_stats().packets_dropped_down > 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let trace = |seed| {
            let mut sim = Sim::new(
                two_node_net_seeded(LossModel::Bernoulli { p: 0.2 }, seed),
                Recorder::default(),
                seed,
            );
            sim.install_faults(
                &FaultPlan::new()
                    .crash_for(
                        n(1),
                        MediaTime::from_millis(30),
                        MediaDuration::from_millis(40),
                    )
                    .flap(
                        n(0),
                        n(1),
                        MediaTime::from_millis(100),
                        MediaDuration::from_millis(50),
                        MediaDuration::from_millis(10),
                        4,
                    ),
            );
            sim.with_api(|_, api| {
                for i in 0..40 {
                    api.send_reliable(n(0), n(1), Msg(format!("{i:02}"), 200));
                }
            });
            sim.run(100_000);
            (
                sim.app()
                    .got
                    .iter()
                    .map(|g| (g.0, g.3.clone()))
                    .collect::<Vec<_>>(),
                sim.stats(),
            )
        };
        assert_eq!(trace(42), trace(42));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let trace = |seed| {
            let mut sim = Sim::new(
                two_node_net_seeded(LossModel::Bernoulli { p: 0.2 }, seed),
                Recorder::default(),
                seed,
            );
            sim.with_api(|_, api| {
                for i in 0..40 {
                    api.send(n(0), n(1), Msg(format!("{i}"), 200));
                }
            });
            sim.run(10_000);
            sim.app()
                .got
                .iter()
                .map(|g| (g.0, g.3.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }
}
