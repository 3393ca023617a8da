//! The service's application protocol messages.
//!
//! The protocol stack (paper Fig. 5): the presentation scenario, discrete
//! media and all control traffic travel over the reliable (TCP-like)
//! transport; continuous media travel as RTP over the datagram (UDP-like)
//! transport; RTCP receiver reports ride the datagram path back. Each
//! message declares its wire size so the simulated links can charge
//! serialization delay faithfully.

use hermes_client::FeedbackRow;
use hermes_control::HaMsg;
use hermes_core::{
    ComponentId, DocumentId, MediaKind, MediaTime, PricingClass, ServerId, SessionId, UserId,
};
use hermes_media::SegmentFrame;
use hermes_rtp::{RtcpPacket, RtpPacket};
use hermes_server::{SubscriptionForm, TopicEntry};
use hermes_simnet::WireSize;
use std::sync::Arc;

/// TCP+IP header overhead charged to reliable messages.
pub const TCP_IP_OVERHEAD: usize = 40;

/// Which stack path a message takes (for the FIG5 byte accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StackPath {
    /// Control + scenario + discrete media over TCP.
    ControlTcp,
    /// Continuous media over RTP/UDP.
    MediaRtpUdp,
    /// Feedback over RTCP/UDP.
    FeedbackRtcpUdp,
    /// Asynchronous mail over SMTP/MIME.
    MailSmtp,
    /// Server-to-server media-tier fetch traffic (segment pulls from the
    /// distributed media nodes), over the reliable path.
    MediaFetchTcp,
}

/// A search hit returned by the distributed search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    /// The server holding the lesson (the "server location" of §6.2.2).
    pub server: ServerId,
    /// The matching document.
    pub document: DocumentId,
    /// Its title.
    pub title: String,
}

/// A simulated e-mail message (SMTP/MIME path of Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailMessage {
    /// Sender address.
    pub from: String,
    /// Recipient address.
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub body: String,
    /// MIME attachments as (content-type, size-bytes) pairs.
    pub attachments: Vec<(String, u32)>,
}

impl MailMessage {
    /// Approximate RFC822+MIME size.
    pub fn wire_bytes(&self) -> usize {
        let headers = 128 + self.from.len() + self.to.len() + self.subject.len();
        let attach: usize = self
            .attachments
            .iter()
            .map(|(ct, sz)| ct.len() + 64 + *sz as usize)
            .sum();
        headers + self.body.len() + attach
    }
}

/// All messages exchanged by the service's actors.
#[derive(Debug, Clone)]
pub enum ServiceMsg {
    // ---- control-plane reliability envelope ----
    /// A control message wrapped with a request id. The receiver always
    /// answers with [`ServiceMsg::Ack`] carrying the same id (even for a
    /// duplicate), and processes the inner message only on first sight of
    /// the id — together with sender-side retransmission this gives
    /// effectively-once control-plane semantics across crashes and
    /// partitions.
    Tracked {
        /// Sender-unique request id.
        req: u64,
        /// The wrapped control message.
        inner: Box<ServiceMsg>,
    },
    /// Acknowledges receipt (and eventual processing) of a tracked request.
    Ack {
        /// The request id being acknowledged.
        req: u64,
    },
    /// Server → client: periodic per-session liveness beat, interleaved
    /// with (and implied by) stream traffic. A client declares the server
    /// dead after K consecutive missed beats.
    Heartbeat {
        /// The session.
        session: SessionId,
        /// Monotone beat counter.
        seq: u64,
    },
    /// Client → server: echo of a liveness beat. The server uses acks (and
    /// stream feedback) to notice *client* death: a session whose client
    /// has answered nothing for the configured timeout is torn down instead
    /// of pinning its admission reservation forever.
    HeartbeatAck {
        /// The session.
        session: SessionId,
        /// The beat being acknowledged.
        seq: u64,
    },
    /// Client → server: re-establish a session after a suspected server
    /// failure, carrying enough context to rebuild server-side state if the
    /// server lost it (restart) or to resume in place (false alarm /
    /// network partition).
    ReconnectRequest {
        /// The session being recovered.
        session: SessionId,
        /// The client's identity, if subscribed.
        user: Option<UserId>,
        /// The pricing contract.
        class: PricingClass,
        /// The document being presented when contact was lost, if any.
        document: Option<DocumentId>,
        /// Playout position reached, in microseconds since presentation
        /// start — the server fast-forwards its sources past this point.
        position_micros: i64,
    },
    /// Server → client: the session was recovered.
    ReconnectAck {
        /// The session id the client asked to recover.
        old_session: SessionId,
        /// The live session id (differs from `old_session` when the server
        /// had to rebuild state after a restart).
        session: SessionId,
    },

    // ---- connection / session control (TCP path) ----
    /// Client → server: connection request with optional existing identity.
    Connect {
        /// Existing subscriber id, if any.
        user: Option<UserId>,
        /// The pricing contract claimed.
        class: PricingClass,
    },
    /// Server → client: connection accepted; session established.
    ConnectAck {
        /// The session id allocated by the server.
        session: SessionId,
        /// Whether the user must subscribe first.
        must_subscribe: bool,
    },
    /// Client → server: filled-in subscription form.
    Subscribe {
        /// The session performing the subscription.
        session: SessionId,
        /// The form, shared with the sender's config.
        form: Arc<SubscriptionForm>,
    },
    /// Server → client: subscription accepted; identity issued.
    SubscribeAck {
        /// The session.
        session: SessionId,
        /// The new user id.
        user: UserId,
    },
    /// Server → client: the list of available topics (service contents).
    TopicList {
        /// The session.
        session: SessionId,
        /// The topics: the database's list, shared.
        topics: Arc<[TopicEntry]>,
    },
    /// Client → server: request a document/lesson.
    DocRequest {
        /// The session.
        session: SessionId,
        /// The document wanted.
        document: DocumentId,
    },
    /// Server → client: the presentation scenario (markup text) plus the
    /// per-stream delivery lead the flow scheduler applied.
    ScenarioResponse {
        /// The session.
        session: SessionId,
        /// The document.
        document: DocumentId,
        /// The markup text ("actually a text file").
        markup: String,
        /// The flow lead (client uses it to size its expectation of the
        /// initial prefill delay).
        lead_micros: i64,
    },
    /// Server → client: the request failed.
    DocError {
        /// The session.
        session: SessionId,
        /// Why.
        reason: String,
    },
    /// Client → server: pause the presentation (stop transmitting).
    Pause {
        /// The session.
        session: SessionId,
    },
    /// Client → server: resume from the pause point.
    Resume {
        /// The session.
        session: SessionId,
    },
    /// Client → server: disable one media stream of the presentation.
    DisableStream {
        /// The session.
        session: SessionId,
        /// The stream to stop sending.
        component: ComponentId,
    },
    /// Client → server: suspend the connection (remote-link migration);
    /// the server keeps it alive for a grace period.
    SuspendConnection {
        /// The session.
        session: SessionId,
    },
    /// Client → server: resume a previously suspended connection.
    ResumeSuspended {
        /// The session.
        session: SessionId,
    },
    /// Server → client: a suspended connection's grace period expired and
    /// it was closed ("the connection closes and the attached client is
    /// informed about the event").
    SuspendExpired {
        /// The session.
        session: SessionId,
    },
    /// Client → server: disconnect.
    Disconnect {
        /// The session.
        session: SessionId,
    },
    /// Server → client: a stream was stopped server-side (grading floor).
    StreamStopped {
        /// The session.
        session: SessionId,
        /// The stopped stream.
        component: ComponentId,
    },
    /// Server → client: a stream's quality level changed (informational).
    StreamRegraded {
        /// The session.
        session: SessionId,
        /// The stream.
        component: ComponentId,
        /// New ladder level.
        level: u8,
    },

    // ---- stream sharing (batching / patching, TCP control path) ----
    /// Server → client: this session's continuous media arrive over a
    /// shared delivery group rather than a private flow. When
    /// `offset_micros` is non-negative the shared flow already started and
    /// the client must request the missed prefix with
    /// [`ServiceMsg::PatchRequest`].
    StreamJoin {
        /// The session being attached.
        session: SessionId,
        /// The shared group (also the simulator multicast group id).
        group: u64,
        /// The group's delivery epoch (bumped on media-tier failover).
        epoch: u64,
        /// Approximate presentation time already missed (the server computes
        /// the exact patch cutoffs when the patch is requested); −1 when
        /// joining before the shared flow starts — no patch needed.
        offset_micros: i64,
    },
    /// Client → server: send the missed prefix of the shared flow as a
    /// short unicast patch (Hua/Cai/Sheu patching).
    PatchRequest {
        /// The session.
        session: SessionId,
        /// The shared group being patched into.
        group: u64,
    },
    /// Server → group members (multicast): the group's delivery epoch
    /// advanced — a media-node fault failed the whole shared flow over
    /// under one epoch bump.
    GroupEpoch {
        /// The shared group.
        group: u64,
        /// The new epoch.
        epoch: u64,
    },

    // ---- media (RTP/UDP path) ----
    /// Media server → client: one RTP packet of a continuous stream.
    RtpData {
        /// The session.
        session: SessionId,
        /// Which component the packet belongs to.
        component: ComponentId,
        /// The RTP packet.
        packet: RtpPacket,
        /// Transmission instant (the "timestamping indication" the client
        /// QoS manager uses for delay measurements).
        sent_at: MediaTime,
    },
    /// Server → client: one segment of a discrete media object (image /
    /// text file) pushed over the reliable path. Large objects are
    /// segmented to MTU-sized chunks, as TCP would.
    DiscreteData {
        /// The session.
        session: SessionId,
        /// The component.
        component: ComponentId,
        /// This segment's payload size in bytes.
        size: u32,
        /// Total object size in bytes.
        total: u32,
        /// True on the final segment.
        last: bool,
        /// Transmission instant.
        sent_at: MediaTime,
    },

    /// Media server → client: an RTCP sender report for one stream (sent
    /// periodically alongside the data, per RFC 3550).
    RtcpSenderReport {
        /// The session.
        session: SessionId,
        /// The stream the report describes.
        component: ComponentId,
        /// The report packet.
        packet: RtcpPacket,
    },

    // ---- media tier (server ↔ media-server node, TCP path) ----
    /// Multimedia server → media node: pull one segment of a media object.
    /// The protocol is stateless — a segment is fully identified by
    /// `(server, object, level, segment, frames_per_segment)` — so any
    /// replica can serve any request and failover is a re-request.
    MediaFetchRequest {
        /// Puller-unique fetch id for response matching.
        fetch: u64,
        /// The multimedia server whose content shard is addressed.
        server: ServerId,
        /// The media kind of the object (selects the shard's store).
        kind: MediaKind,
        /// The object's storage key, shared with the pulling stream.
        object: Arc<str>,
        /// Quality level to compute frame sizes at.
        level: u8,
        /// Segment index within the object.
        segment: u64,
        /// Frames per segment the puller addresses with.
        frames_per_segment: u32,
        /// Playout deadline (absolute sim time, µs): past it the segment is
        /// useless, so an overloaded media node sheds the request instead
        /// of serving it late.
        deadline_micros: i64,
        /// Pricing class of the requesting session (cheapest shed first).
        class: PricingClass,
    },
    /// Media node → multimedia server: the requested segment's frame
    /// content. The wire size charges the frame payload — this is the hop
    /// where media bytes genuinely cross the network between servers.
    ///
    /// A large segment is streamed as several bounded *transport parts*
    /// (TCP does not deliver megabytes atomically): every part charges its
    /// `payload_bytes` on the wire, and only the part with `last == true`
    /// carries the frame specs — the logical chunk the puller consumes.
    /// In-order reliable delivery guarantees the last part arrives after
    /// all payload crossed.
    MediaFetchChunk {
        /// The fetch id being answered.
        fetch: u64,
        /// Frame payload bytes carried by this transport part.
        payload_bytes: u32,
        /// Final part of the segment?
        last: bool,
        /// Frame specs (sizes + key flags) of the whole segment; empty on
        /// non-final parts. Always `frames_per_segment` long on the final
        /// part — serving is unbounded past the object's duration; the
        /// puller's pacer bounds the stream. Computed once by the media
        /// node and shared from there on.
        frames: Arc<[SegmentFrame]>,
        /// Final part only: how many fetches this puller may hold at the
        /// node from now on — absolute, so a lost, reordered or repeated
        /// grant needs no bookkeeping. Rides in the 16-byte fetch header.
        credit: u16,
    },
    /// Media node → multimedia server: the fetch could not be served.
    MediaFetchError {
        /// The fetch id being answered.
        fetch: u64,
        /// Why.
        reason: String,
    },
    /// Media node → multimedia server: the fetch was shed by overload
    /// control (queue full or deadline unmeetable). Unlike
    /// [`ServiceMsg::MediaFetchError`] this is transient flow control, not
    /// a verdict on the replica: the puller learns the grant and re-asks
    /// the segment when a credit is free rather than stopping the stream.
    MediaFetchBusy {
        /// The fetch id being shed.
        fetch: u64,
        /// The puller's allowance at the node, as on a final
        /// [`ServiceMsg::MediaFetchChunk`] part.
        credit: u16,
    },
    /// Multimedia server → media node: abandon a fetch if still queued (the
    /// hedged duplicate already won). Best-effort — a fetch already being
    /// served streams to completion.
    MediaFetchCancel {
        /// The fetch id to abandon.
        fetch: u64,
    },

    // ---- closed-loop control plane (TCP path) ----
    /// Server / media node → controller host: this reporter's current
    /// control-plane signals (pressure verdict, SLO burn, queue depth,
    /// per-session stream grades) — the periodic measurement leg of the
    /// closed loop. Built once per report period; the reliable send, the
    /// HA broadcast copies and the host's own ingest share its rows.
    ControlReport {
        /// The report (a cheap-clone handle over one `Arc`).
        report: hermes_control::LoadReport,
        /// The sender's highest controller epoch seen — gossiped so a
        /// node that missed the leader's lease beats (restart, healed
        /// partition) still learns a succession happened before its own
        /// lease clock expires, and a zombie leader hears it has been
        /// superseded. Media nodes report 0 (the world fences for them).
        epoch: u64,
    },
    /// Controller host → owning server: walk one stream of the session one
    /// grade step (down when `upgrade` is false, up when true) along the
    /// shared video-first order — the actuation leg of the closed loop.
    ControlRegrade {
        /// The target session.
        session: SessionId,
        /// Direction of the step.
        upgrade: bool,
        /// The issuing controller's fencing epoch; receivers drop commands
        /// stamped below the highest epoch they have seen.
        epoch: u64,
    },
    /// Controller host → every server: set the fleet admission price — new
    /// admissions start `shed` grade levels below nominal, so flash crowds
    /// are absorbed as many small degradations instead of rejections.
    ControlDirective {
        /// Pre-shed grade levels applied at admission (0 = nominal).
        shed: u8,
        /// The issuing controller's fencing epoch.
        epoch: u64,
    },
    /// Controller host → a media node (intercepted by the world): activate
    /// a standby media node (`active`) or drain it back to standby. The
    /// world rebuilds every server's rendezvous placement so only the
    /// minimal key range moves.
    ControlScale {
        /// Join (`true`) or leave (`false`) the active media tier.
        active: bool,
        /// The issuing controller's fencing epoch.
        epoch: u64,
    },
    /// Controller host → every other server: the periodic lease beat
    /// asserting leadership at `epoch`. The beat doubles as conservative
    /// state replication — it carries the controller's administrative
    /// snapshot (price, standby/scaled-out pools) so any follower can seed
    /// a successor after failover ([`hermes_control::HaMsg::Lease`]).
    ControlLease {
        /// The leaseholder's fencing epoch.
        epoch: u64,
        /// Monotonic beat counter within the epoch (diagnostics).
        seq: u64,
        /// Current admission price (pre-shed levels).
        price: u8,
        /// Standby media nodes available for scale-out, activation order.
        standby: Vec<u64>,
        /// Media nodes scaled out by the leaseholder, most recent last.
        scaled_out: Vec<u64>,
    },
    /// Candidate server → every server peer: ask for a vote to lead the
    /// control plane at `epoch` ([`hermes_control::Election::vote_req`]
    /// decides).
    ControlVoteReq {
        /// The fencing epoch the candidate wants to claim.
        epoch: u64,
    },
    /// Voter → candidate: one vote for leading at `epoch`. A vote that
    /// arrives after the candidacy it answers was abandoned is ignored.
    ControlVote {
        /// The epoch the vote was granted for.
        epoch: u64,
    },

    // ---- feedback (RTCP path) ----
    /// Client → server: periodic feedback report, one row per stream: the
    /// QoS manager's measurement plus, for a stream with an RTP receiver,
    /// its RTCP receiver-report block. The rows are one vector, so a
    /// report costs one allocation whatever its number of streams. It is
    /// priced as 16 bytes, 48 per row and one single-block RR packet per
    /// block; the server grades from the measurements and reads no block.
    Feedback {
        /// The session.
        session: SessionId,
        /// Per-stream rows, in component order.
        rows: Vec<FeedbackRow>,
    },

    // ---- distributed search (TCP path) ----
    /// Client → home server: search the whole service.
    SearchRequest {
        /// The session.
        session: SessionId,
        /// The search token.
        token: String,
        /// Query id for response matching.
        query: u64,
    },
    /// Home server → other server: fan out the query.
    SearchFanout {
        /// Query id.
        query: u64,
        /// The token.
        token: String,
        /// Node to send results back to.
        origin: hermes_core::NodeId,
    },
    /// Other server → home server: partial results.
    SearchPartial {
        /// Query id.
        query: u64,
        /// Hits on the responding server.
        hits: Vec<SearchHit>,
    },
    /// Home server → client: merged results.
    SearchResponse {
        /// The session.
        session: SessionId,
        /// Query id.
        query: u64,
        /// All hits across the service.
        hits: Vec<SearchHit>,
    },

    // ---- annotations (TCP path) ----
    /// Client → server: annotate a document with the user's own remarks
    /// (§5: "the user may also annotate the selected document").
    Annotate {
        /// The session (identifies the user).
        session: SessionId,
        /// The annotated document.
        document: DocumentId,
        /// The remark text.
        text: String,
    },
    /// Client → server: fetch the user's annotations on a document.
    AnnotationsFetch {
        /// The session.
        session: SessionId,
        /// The document.
        document: DocumentId,
    },
    /// Server → client: the user's annotations on a document.
    Annotations {
        /// The document.
        document: DocumentId,
        /// The remarks, oldest first.
        notes: Vec<String>,
    },

    // ---- asynchronous mail (SMTP/MIME path) ----
    /// Client → server: send mail to a tutor (or any address).
    MailSend {
        /// The message.
        mail: MailMessage,
    },
    /// Client → server: fetch mailbox contents for an address.
    MailFetch {
        /// The mailbox owner address.
        address: String,
    },
    /// Server → client: mailbox contents.
    MailBox {
        /// The messages.
        messages: Vec<MailMessage>,
    },
}

impl ServiceMsg {
    /// Which protocol-stack path this message takes (Fig. 5 accounting).
    pub fn stack_path(&self) -> StackPath {
        match self {
            ServiceMsg::Tracked { inner, .. } => inner.stack_path(),
            ServiceMsg::RtpData { .. } => StackPath::MediaRtpUdp,
            ServiceMsg::Feedback { .. }
            | ServiceMsg::RtcpSenderReport { .. }
            | ServiceMsg::Heartbeat { .. }
            | ServiceMsg::HeartbeatAck { .. } => StackPath::FeedbackRtcpUdp,
            ServiceMsg::MailSend { .. }
            | ServiceMsg::MailFetch { .. }
            | ServiceMsg::MailBox { .. } => StackPath::MailSmtp,
            ServiceMsg::MediaFetchRequest { .. }
            | ServiceMsg::MediaFetchChunk { .. }
            | ServiceMsg::MediaFetchError { .. }
            | ServiceMsg::MediaFetchBusy { .. }
            | ServiceMsg::MediaFetchCancel { .. } => StackPath::MediaFetchTcp,
            _ => StackPath::ControlTcp,
        }
    }

    /// Message-class label for engine provenance records: which step of a
    /// request's path this message represents. Registered with the engine
    /// via `Sim::set_msg_kind`, so every delivery the engine logs (one
    /// [`hermes_simnet::obs::HopRecord`] per delivered message, keyed by
    /// causal root) carries it, and a disruption's critical path reads as
    /// request → replica fetch → media-delivery steps. Messages that never arrive
    /// leave no record: losses and retries are `SimStats` counters and
    /// events.
    pub fn provenance_kind(&self) -> &'static str {
        match self {
            ServiceMsg::Tracked { inner, .. } => inner.provenance_kind(),
            ServiceMsg::Ack { .. } => "ack",
            ServiceMsg::Heartbeat { .. } | ServiceMsg::HeartbeatAck { .. } => "heartbeat",
            ServiceMsg::ReconnectRequest { .. } | ServiceMsg::ReconnectAck { .. } => "reconnect",
            ServiceMsg::Connect { .. } | ServiceMsg::ConnectAck { .. } => "connect",
            ServiceMsg::Subscribe { .. }
            | ServiceMsg::SubscribeAck { .. }
            | ServiceMsg::TopicList { .. } => "subscribe",
            ServiceMsg::DocRequest { .. }
            | ServiceMsg::ScenarioResponse { .. }
            | ServiceMsg::DocError { .. } => "request",
            ServiceMsg::Pause { .. }
            | ServiceMsg::Resume { .. }
            | ServiceMsg::DisableStream { .. }
            | ServiceMsg::SuspendConnection { .. }
            | ServiceMsg::ResumeSuspended { .. }
            | ServiceMsg::SuspendExpired { .. }
            | ServiceMsg::Disconnect { .. }
            | ServiceMsg::StreamStopped { .. } => "session_ctl",
            ServiceMsg::StreamRegraded { .. } => "regrade",
            ServiceMsg::StreamJoin { .. } | ServiceMsg::PatchRequest { .. } => "share_join",
            ServiceMsg::GroupEpoch { .. } => "group_epoch",
            ServiceMsg::RtpData { .. } => "rtp",
            ServiceMsg::DiscreteData { .. } => "discrete",
            ServiceMsg::RtcpSenderReport { .. } | ServiceMsg::Feedback { .. } => "feedback",
            ServiceMsg::MediaFetchRequest { .. } => "fetch_req",
            ServiceMsg::MediaFetchChunk { .. } => "fetch_chunk",
            ServiceMsg::MediaFetchError { .. } | ServiceMsg::MediaFetchBusy { .. } => "fetch_fail",
            ServiceMsg::MediaFetchCancel { .. } => "fetch_cancel",
            ServiceMsg::ControlReport { .. } => "ctrl_report",
            ServiceMsg::ControlRegrade { .. }
            | ServiceMsg::ControlDirective { .. }
            | ServiceMsg::ControlScale { .. } => "ctrl_cmd",
            ServiceMsg::ControlLease { .. }
            | ServiceMsg::ControlVoteReq { .. }
            | ServiceMsg::ControlVote { .. } => "ctrl_ha",
            ServiceMsg::SearchRequest { .. }
            | ServiceMsg::SearchFanout { .. }
            | ServiceMsg::SearchPartial { .. }
            | ServiceMsg::SearchResponse { .. } => "search",
            ServiceMsg::Annotate { .. }
            | ServiceMsg::AnnotationsFetch { .. }
            | ServiceMsg::Annotations { .. } => "annotation",
            ServiceMsg::MailSend { .. }
            | ServiceMsg::MailFetch { .. }
            | ServiceMsg::MailBox { .. } => "mail",
        }
    }
}

impl From<HaMsg> for ServiceMsg {
    fn from(msg: HaMsg) -> Self {
        match msg {
            HaMsg::Lease(seq, snapshot) => ServiceMsg::ControlLease {
                epoch: snapshot.epoch,
                seq,
                price: snapshot.price,
                standby: snapshot.standby,
                scaled_out: snapshot.scaled_out,
            },
            HaMsg::VoteReq(epoch) => ServiceMsg::ControlVoteReq { epoch },
            HaMsg::Vote(epoch) => ServiceMsg::ControlVote { epoch },
        }
    }
}

impl WireSize for ServiceMsg {
    fn wire_size(&self) -> usize {
        match self {
            // 8-byte request-id header on top of the wrapped message.
            ServiceMsg::Tracked { inner, .. } => 8 + inner.wire_size(),
            ServiceMsg::Ack { .. } => 8 + TCP_IP_OVERHEAD,
            // Heartbeats ride the datagram path: UDP+IP overhead.
            ServiceMsg::Heartbeat { .. } => 16 + 28,
            ServiceMsg::HeartbeatAck { .. } => 16 + 28,
            ServiceMsg::ReconnectRequest { .. } => 64 + TCP_IP_OVERHEAD,
            ServiceMsg::ReconnectAck { .. } => 24 + TCP_IP_OVERHEAD,
            ServiceMsg::Connect { .. } => 64 + TCP_IP_OVERHEAD,
            ServiceMsg::ConnectAck { .. } => 32 + TCP_IP_OVERHEAD,
            ServiceMsg::Subscribe { form, .. } => {
                48 + form.name.len()
                    + form.address.len()
                    + form.telephone.len()
                    + form.email.len()
                    + TCP_IP_OVERHEAD
            }
            ServiceMsg::SubscribeAck { .. } => 24 + TCP_IP_OVERHEAD,
            ServiceMsg::TopicList { topics, .. } => {
                16 + topics
                    .iter()
                    .map(|t| 16 + t.title.len() + t.description.len())
                    .sum::<usize>()
                    + TCP_IP_OVERHEAD
            }
            ServiceMsg::DocRequest { .. } => 24 + TCP_IP_OVERHEAD,
            ServiceMsg::ScenarioResponse { markup, .. } => 32 + markup.len() + TCP_IP_OVERHEAD,
            ServiceMsg::DocError { reason, .. } => 16 + reason.len() + TCP_IP_OVERHEAD,
            ServiceMsg::Pause { .. }
            | ServiceMsg::Resume { .. }
            | ServiceMsg::SuspendConnection { .. }
            | ServiceMsg::ResumeSuspended { .. }
            | ServiceMsg::SuspendExpired { .. }
            | ServiceMsg::Disconnect { .. } => 16 + TCP_IP_OVERHEAD,
            ServiceMsg::DisableStream { .. } | ServiceMsg::StreamStopped { .. } => {
                24 + TCP_IP_OVERHEAD
            }
            ServiceMsg::StreamRegraded { .. } => 25 + TCP_IP_OVERHEAD,
            // ~32 bytes per gauge of the report's registry form (name
            // hash, labels, value); the 16-byte header absorbs the gossiped
            // epoch stamp.
            ServiceMsg::ControlReport { report, .. } => {
                16 + 32 * report.entries() + TCP_IP_OVERHEAD
            }
            // +8 bytes for the fencing epoch stamp.
            ServiceMsg::ControlRegrade { .. } => 25 + TCP_IP_OVERHEAD,
            ServiceMsg::ControlDirective { .. } => 17 + TCP_IP_OVERHEAD,
            ServiceMsg::ControlScale { .. } => 17 + TCP_IP_OVERHEAD,
            ServiceMsg::ControlVoteReq { .. } | ServiceMsg::ControlVote { .. } => {
                24 + TCP_IP_OVERHEAD
            }
            // epoch + seq + price header plus 8 bytes per pool entry.
            ServiceMsg::ControlLease {
                standby,
                scaled_out,
                ..
            } => 25 + 8 * (standby.len() + scaled_out.len()) + TCP_IP_OVERHEAD,
            ServiceMsg::StreamJoin { .. } => 40 + TCP_IP_OVERHEAD,
            ServiceMsg::PatchRequest { .. } => 24 + TCP_IP_OVERHEAD,
            // Epoch announces ride the multicast datagram path: UDP+IP.
            ServiceMsg::GroupEpoch { .. } => 16 + 28,
            ServiceMsg::RtpData { packet, .. } => packet.wire_size(),
            ServiceMsg::DiscreteData { size, .. } => 24 + *size as usize + TCP_IP_OVERHEAD,
            ServiceMsg::MediaFetchRequest { object, .. } => 57 + object.len() + TCP_IP_OVERHEAD,
            ServiceMsg::MediaFetchChunk {
                payload_bytes,
                frames,
                ..
            } => {
                // The part's share of the frame payload plus a 5-byte spec
                // header per carried frame spec (final part only).
                16 + *payload_bytes as usize + 5 * frames.len() + TCP_IP_OVERHEAD
            }
            ServiceMsg::MediaFetchError { reason, .. } => 16 + reason.len() + TCP_IP_OVERHEAD,
            ServiceMsg::MediaFetchBusy { .. } | ServiceMsg::MediaFetchCancel { .. } => {
                16 + TCP_IP_OVERHEAD
            }
            ServiceMsg::RtcpSenderReport { packet, .. } => packet.wire_size(),
            ServiceMsg::Feedback { rows, .. } => {
                let blocks = rows.iter().filter(|r| r.rr.is_some()).count();
                16 + rows.len() * 48 + blocks * RtcpPacket::receiver_report_size(1)
            }
            ServiceMsg::Annotate { text, .. } => 32 + text.len() + TCP_IP_OVERHEAD,
            ServiceMsg::AnnotationsFetch { .. } => 24 + TCP_IP_OVERHEAD,
            ServiceMsg::Annotations { notes, .. } => {
                16 + notes.iter().map(|n| 8 + n.len()).sum::<usize>() + TCP_IP_OVERHEAD
            }
            ServiceMsg::SearchRequest { token, .. } => 32 + token.len() + TCP_IP_OVERHEAD,
            ServiceMsg::SearchFanout { token, .. } => 32 + token.len() + TCP_IP_OVERHEAD,
            ServiceMsg::SearchPartial { hits, .. } => {
                16 + hits.iter().map(|h| 24 + h.title.len()).sum::<usize>() + TCP_IP_OVERHEAD
            }
            ServiceMsg::SearchResponse { hits, .. } => {
                24 + hits.iter().map(|h| 24 + h.title.len()).sum::<usize>() + TCP_IP_OVERHEAD
            }
            ServiceMsg::MailSend { mail } => mail.wire_bytes() + TCP_IP_OVERHEAD,
            ServiceMsg::MailFetch { address } => 16 + address.len() + TCP_IP_OVERHEAD,
            ServiceMsg::MailBox { messages } => {
                16 + messages.iter().map(|m| m.wire_bytes()).sum::<usize>() + TCP_IP_OVERHEAD
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rtp::PayloadType;

    #[test]
    fn message_is_no_larger_than_before_packets_went_length_only() {
        // Every queued event carries one; 120 B is what it measured with the
        // 32-byte, payload-owning packet.
        assert!(std::mem::size_of::<ServiceMsg>() <= 120);
    }

    #[test]
    fn stack_paths_classified() {
        let rtp = ServiceMsg::RtpData {
            session: SessionId::new(1),
            component: ComponentId::new(1),
            packet: RtpPacket::synthetic(PayloadType::Mpeg, true, 1, 2, 3, 100),
            sent_at: MediaTime::ZERO,
        };
        assert_eq!(rtp.stack_path(), StackPath::MediaRtpUdp);
        let fb = ServiceMsg::Feedback {
            session: SessionId::new(1),
            rows: vec![],
        };
        assert_eq!(fb.stack_path(), StackPath::FeedbackRtcpUdp);
        let mail = ServiceMsg::MailFetch {
            address: "t@x".into(),
        };
        assert_eq!(mail.stack_path(), StackPath::MailSmtp);
        let ctl = ServiceMsg::Pause {
            session: SessionId::new(1),
        };
        assert_eq!(ctl.stack_path(), StackPath::ControlTcp);
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = ServiceMsg::ScenarioResponse {
            session: SessionId::new(1),
            document: DocumentId::new(1),
            markup: "x".into(),
            lead_micros: 0,
        };
        let big = ServiceMsg::ScenarioResponse {
            session: SessionId::new(1),
            document: DocumentId::new(1),
            markup: "x".repeat(10_000),
            lead_micros: 0,
        };
        assert!(big.wire_size() > small.wire_size() + 9_000);
        // RTP data is charged the RTP+UDP+IP cost.
        let rtp = ServiceMsg::RtpData {
            session: SessionId::new(1),
            component: ComponentId::new(1),
            packet: RtpPacket::synthetic(PayloadType::Pcm, true, 1, 2, 3, 160),
            sent_at: MediaTime::ZERO,
        };
        assert_eq!(rtp.wire_size(), 160 + 12 + 28);
    }

    #[test]
    fn mail_size_includes_attachments() {
        let m = MailMessage {
            from: "student@hermes".into(),
            to: "tutor@hermes".into(),
            subject: "question".into(),
            body: "why".into(),
            attachments: vec![("image/gif".into(), 5_000)],
        };
        assert!(m.wire_bytes() > 5_000);
        let plain = MailMessage {
            attachments: vec![],
            ..m.clone()
        };
        assert!(m.wire_bytes() > plain.wire_bytes() + 4_900);
    }
}
