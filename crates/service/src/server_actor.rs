//! The multimedia (Hermes) server actor: session management, document
//! delivery, media-server transmission loops, QoS feedback handling,
//! distributed search and the mail service — everything on the left half of
//! paper Fig. 3, driven by simulator messages and timers.

use crate::protocol::{MailMessage, SearchHit, ServiceMsg};
use crate::timers;
use hermes_control::{
    stream_utility, ControlCommand, ControlSnapshot, ControllerConfig, Election, FleetController,
    HaOut, LoadReport, CONTROL_TICK, LEASE_BEAT, REPORT_PERIOD,
};
use hermes_core::{
    ComponentId, DocumentId, GradeLevel, GradingHysteresis, GradingOrder, MediaDuration, MediaTime,
    NodeId, PricingClass, ServerId, SessionId, UserId, VecMap,
};
use hermes_media::{CodecModel, FrameSource, SegmentFrame};
use hermes_rtp::RtpSender;
use hermes_server::grading::{GradeOut, GradedSession, Grading, StreamView};
use hermes_server::lifecycle::{self, Chain, Input, LifeOut, LifeOuts, Lifecycle, SessionLife};
use hermes_server::{
    compute_flow_scenario, AccountsDb, AdmissionController, AdmissionDecision, Charge,
    ConnectionRequest, Demand, FetchOut, FlowPlan, FlowScenario, LostFetch, MediaTier,
    MultimediaDb, PathCondition, PlacementMap, RemoteStream, ShareDecision, ShareOut, SharedGroups,
    SharingMode, SharingPolicy, SharingStats,
};
use hermes_simnet::obs::{SloMonitor, SloSpec};
use hermes_simnet::{Labels, Obs, Severity, SimApi, SpanId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One active outgoing media stream of a session.
#[derive(Debug)]
pub struct StreamTx {
    /// The transmission plan.
    pub plan: FlowPlan,
    /// The frame generator. With a media tier it becomes the stream's
    /// *pacer*: it owns seq/pts/level/doneness while the frame content is
    /// gated on segments fetched from the tier (see [`RemoteStream`]).
    pub source: FrameSource,
    /// The RTP sender session.
    pub sender: RtpSender,
    /// Stream finished transmitting naturally.
    pub done: bool,
    /// Stream stopped by the grading engine.
    pub stopped: bool,
    /// Frames sent so far.
    pub frames_sent: u64,
    /// Payload bytes sent so far.
    pub bytes_sent: u64,
    /// Media-tier fetch state; `None` streams read their local store
    /// directly (the pre-tier in-process path).
    pub remote: Option<RemoteStream>,
    /// Patch streams only: stop once the source reaches this presentation
    /// time. Strictly exclusive — the first multicast frame the joiner
    /// receives carries exactly this pts, so the patch covers [0, cutoff)
    /// with no duplicate and no gap.
    pub patch_until: Option<MediaTime>,
    /// The stream's timer chain: its one pending timer.
    chain: Chain,
}

impl StreamTx {
    /// A stream about to start: nothing sent yet, no media-tier fetch state
    /// (see [`ServerActor::open_stream`]).
    fn new(
        plan: &FlowPlan,
        source: FrameSource,
        ssrc: u32,
        patch_until: Option<MediaTime>,
    ) -> Self {
        StreamTx {
            plan: plan.clone(),
            source,
            sender: RtpSender::new(ssrc, plan.encoding),
            done: false,
            stopped: false,
            frames_sent: 0,
            bytes_sent: 0,
            remote: None,
            patch_until,
            chain: Chain::default(),
        }
    }

    /// Switch the pacer to `level`. A level switch changes every frame size
    /// from here on: buffered and in-flight segments were computed at the
    /// old level and are now wrong, so the fetch window is re-pointed at
    /// the pacer's position.
    fn set_level(&mut self, level: GradeLevel) {
        self.source.set_level(level);
        let seq = self.source.next_seq();
        if let Some(r) = self.remote.as_mut() {
            r.retarget(seq);
        }
    }

    /// What the fetch client needs to know of the pacer to top up this
    /// stream's window: the frames it will really send, to the end of the
    /// object or, for a patch stream, of the patch.
    fn demand(&self, session: SessionId, component: ComponentId, class: PricingClass) -> Demand {
        let level = self.source.level();
        let end = self.patch_until.unwrap_or(MediaTime::MAX);
        Demand {
            session,
            component,
            class,
            level,
            frame_period: self.source.model().level(level).frame_period(),
            frames_needed: if self.plan.kind.is_continuous() {
                self.source.frames_before(end)
            } else {
                1
            },
        }
    }
}

/// One client session's server-side state.
#[derive(Debug)]
pub struct SessionState {
    /// The client's node.
    pub client: NodeId,
    /// The authenticated user, once known.
    pub user: Option<UserId>,
    /// Pricing contract.
    pub class: PricingClass,
    /// Active media transmissions by component.
    pub streams: VecMap<ComponentId, StreamTx>,
    /// The document being delivered.
    pub current_doc: Option<DocumentId>,
    /// Phase and liveness, read and written by the [`Lifecycle`] core.
    pub life: SessionLife,
    /// The session's root trace span (null when tracing is off).
    pub obs_root: SpanId,
    /// The open admission span: connect → first successful document
    /// admission (null when tracing is off or already closed).
    pub obs_admission: SpanId,
    /// Accumulated utility: the integral of the session's
    /// [`stream_utility`] over *delivered media seconds* (the control
    /// experiment's objective function).
    pub util_acc: f64,
    /// Per-stream media position (`next_pts`) the utility integral has
    /// been charged up to.
    pub util_pos: VecMap<ComponentId, MediaTime>,
}

impl SessionState {
    /// Media progress not yet folded into [`util_acc`]: each continuous
    /// stream's utility times the media time it has produced since the
    /// last [`utility_touch`]. Immutable so harvesting can read the exact
    /// integral without a touch.
    ///
    /// [`util_acc`]: SessionState::util_acc
    /// [`utility_touch`]: SessionState::utility_touch
    pub fn utility_pending(&self) -> f64 {
        self.streams
            .iter()
            .filter(|(_, tx)| tx.plan.kind.is_continuous())
            .map(|(cid, tx)| {
                let from = self.util_pos.get(cid).copied().unwrap_or(MediaTime::ZERO);
                let dm = (tx.source.next_pts() - from).as_micros().max(0) as f64 / 1_000_000.0;
                stream_utility(
                    self.class,
                    tx.plan.kind,
                    tx.source.level().0,
                    tx.source.model().max_level().0,
                ) * dm
            })
            .sum()
    }

    /// Advance the utility integral over each stream's *media* progress
    /// since the last touch. Charging per delivered media second (not per
    /// wall second) means a starved stream earns nothing while it stalls —
    /// congestion stretching a clip cannot inflate the integral. Call
    /// *before* any mutation that changes a stream's level, so each media
    /// interval is charged at the grade that actually produced it.
    pub fn utility_touch(&mut self) {
        self.util_acc += self.utility_pending();
        for (cid, tx) in &self.streams {
            if tx.plan.kind.is_continuous() {
                self.util_pos.insert(*cid, tx.source.next_pts());
            }
        }
    }
}

impl GradedSession for SessionState {
    fn victim_key(&self) -> Option<(PricingClass, MediaTime)> {
        (!self.life.suspended()).then_some((self.class, self.life.connected_at))
    }

    fn streams(&self) -> impl Iterator<Item = StreamView> + '_ {
        self.streams.iter().map(|(&component, tx)| StreamView {
            component,
            kind: tx.plan.kind,
            level: tx.source.level(),
            max_level: tx.source.model().max_level(),
            done: tx.done,
            stopped: tx.stopped,
        })
    }
}

/// A distributed search in progress.
#[derive(Debug)]
struct PendingQuery {
    session: SessionId,
    client: NodeId,
    hits: Vec<SearchHit>,
    awaiting: usize,
}

/// Instead of rejecting a document request outright, retry admission with
/// the streams shed up to this many grade levels below nominal.
const MAX_ADMISSION_SHED: u8 = 3;
/// Re-poll interval while a stream is stalled waiting for the media tier.
const STALL_POLL: MediaDuration = MediaDuration::from_millis(10);
/// Calm period required before the degradation ladder restores one level
/// (and the spacing between successive restores).
const LADDER_HYSTERESIS: MediaDuration = MediaDuration::from_secs(2);

/// Configuration of a server actor.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The client's media time window (prefill target): the flow scheduler
    /// starts each stream this much, plus a transfer margin, ahead of its
    /// playout deadline.
    pub media_time_window: MediaDuration,
    /// Grading order policy (video-first per the paper).
    pub grading_order: GradingOrder,
    /// Grading hysteresis.
    pub hysteresis: GradingHysteresis,
    /// Grace period for suspended connections.
    pub suspend_grace: MediaDuration,
    /// Per-session liveness heartbeat cadence (clients must expect the
    /// same interval).
    pub heartbeat_interval: MediaDuration,
    /// Declare a client dead — and tear its session down — after this long
    /// with no heartbeat ack or feedback from it. Must comfortably exceed
    /// any partition the deployment is expected to ride out.
    pub client_timeout: MediaDuration,
    /// Stream-sharing policy (batching windows / patching). `Off` by
    /// default: every session keeps its private flow.
    pub sharing: SharingPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            media_time_window: MediaDuration::from_millis(1_000),
            grading_order: GradingOrder::default(),
            hysteresis: GradingHysteresis::default(),
            suspend_grace: MediaDuration::from_secs(30),
            heartbeat_interval: MediaDuration::from_millis(400),
            client_timeout: MediaDuration::from_secs(30),
            sharing: SharingPolicy {
                mode: SharingMode::Off,
                ..SharingPolicy::default()
            },
        }
    }
}

/// The multimedia server actor.
pub struct ServerActor {
    /// The node this server runs on.
    pub node: NodeId,
    /// The server's logical id.
    pub server_id: ServerId,
    /// Document + media database.
    pub db: MultimediaDb,
    /// Subscribers and pricing.
    pub accounts: AccountsDb,
    /// Admission control.
    pub admission: AdmissionController,
    /// Configuration.
    pub cfg: ServerConfig,
    /// Live sessions.
    pub sessions: BTreeMap<SessionId, SessionState>,
    /// The stream-sharing table: popularity, groups, which group each
    /// session is in, patch cut-offs, epochs and cache pins.
    pub sharing: SharedGroups,
    /// Session ids, the tracked-request dedup windows and the rebuilt
    /// sessions; each session's phase and liveness go through it.
    pub life: Lifecycle,
    /// What the lifecycle core asked for and nobody has applied yet.
    life_out: LifeOuts,
    /// Other servers (for search fan-out), set by the world builder.
    pub peers: Vec<NodeId>,
    /// Tutor / user mailboxes by address.
    pub mailboxes: BTreeMap<String, Vec<MailMessage>>,
    /// Per-user document annotations (§5).
    pub annotations: BTreeMap<(UserId, DocumentId), Vec<String>>,
    queries: BTreeMap<u64, PendingQuery>,
    /// Subscription forms processed here that the world must replicate.
    pub pending_replications: Vec<(UserId, Arc<hermes_server::SubscriptionForm>)>,
    /// The distributed media tier, when deployed ([`ServiceWorld::distribute_media`]
    /// wires it); `None` keeps the pre-tier fully local delivery path.
    ///
    /// [`ServiceWorld::distribute_media`]: crate::world::ServiceWorld::distribute_media
    pub media: Option<MediaTier>,
    /// What the sharing table asked for and nobody has applied yet.
    share_out: Vec<ShareOut>,
    /// Stream-sharing counters, counted where the actor applies
    /// [`ShareOut`]s and sends frames.
    pub sharing_stats: SharingStats,
    /// Every regrade, whoever asks: the sessions' feedback managers and
    /// the degradation ladder.
    pub grading: Grading,
    /// What the grading core asked for and nobody has applied yet.
    grade_out: Vec<GradeOut>,
    /// The fleet controller, when this server hosts the control plane
    /// ([`host_controller`](Self::host_controller)).
    pub controller: Option<FleetController>,
    /// The controller host this server reports to (`None` disables the
    /// control-plane report chain).
    control_peer: Option<NodeId>,
    /// Fleet admission price set by the controller: new admissions start
    /// this many grade levels below nominal.
    pub admission_price: u8,
    /// The controller election as this server sees it: fence, promise and
    /// replicated snapshot (disk), lease and liveness views (RAM). Whether
    /// this server leads is [`controller`](Self::controller).
    pub election: Election,
    /// What the election asked for and nobody has applied yet.
    ha_out: Vec<HaOut>,
    /// The config a controller this server is elected to host is built
    /// with; set when failover is enabled.
    ha_cfg: Option<ControllerConfig>,
    /// Controller HA counters (elections won, demotions, fenced and stale
    /// command drops).
    pub ctrl_stats: CtrlHaStats,
    /// Utility-seconds of sessions that have already closed (the live
    /// remainder sits in each [`SessionState::util_acc`]).
    pub util_closed: f64,
    /// SLO burn-rate monitor over this server's user-visible objectives:
    /// media fetch latency (`slo.fetch`, the leading signal for media-tier
    /// saturation; a fetch counts bad once it is overdue, not when it
    /// lands) and admission join latency (`slo.join`). Checked every
    /// control-report beat; the max burn feeds the controller as
    /// `ctrl.slo_burn` pressure ahead of queue depth.
    pub slo: SloMonitor,
    /// What the fetch client asked for and nobody has applied yet.
    fetch: FetchPort,
}

/// Fetch-latency SLO: a fetch slower than this is a bad event.
const SLO_FETCH_THRESHOLD: MediaDuration = MediaDuration::from_millis(150);
/// Join-latency SLO: connect→admit slower than this is a bad event.
const SLO_JOIN_THRESHOLD: MediaDuration = MediaDuration::from_millis(500);
/// Error budget for both server SLOs: 50 bad per 1000 (95% objective).
const SLO_BUDGET_PER_1000: f64 = 50.0;

/// Index of the fetch-latency spec in [`server_slo_monitor`]'s spec list.
const SLO_FETCH: usize = 0;
/// Index of the join-latency spec.
const SLO_JOIN: usize = 1;

fn server_slo_monitor() -> SloMonitor {
    SloMonitor::new([
        SloSpec::latency("slo.fetch", SLO_FETCH_THRESHOLD, SLO_BUDGET_PER_1000),
        SloSpec::latency("slo.join", SLO_JOIN_THRESHOLD, SLO_BUDGET_PER_1000),
    ])
}

/// The fetch client's output list and what applying it needs to know of the
/// server. The list is kept across dispatches so none allocates it.
struct FetchPort {
    node: NodeId,
    server: ServerId,
    out: Vec<FetchOut>,
    /// Waiting streams the list said to wake, for [`ServerActor::flush_woken`].
    woken: Vec<(SessionId, ComponentId)>,
}

impl FetchPort {
    /// Apply what the fetch client asked for, in the order it asked.
    fn flush(&mut self, api: &mut SimApi<'_, ServiceMsg>, slo: &mut SloMonitor) {
        let node = self.node;
        for o in self.out.drain(..) {
            match o {
                FetchOut::Adopt(session) => {
                    api.cause_root(session.raw(), node);
                }
                FetchOut::Request {
                    fetch,
                    tag,
                    kind,
                    object,
                    frames_per_segment,
                    class,
                } => {
                    let msg = ServiceMsg::MediaFetchRequest {
                        fetch,
                        server: self.server,
                        kind,
                        object,
                        level: tag.level.0,
                        segment: tag.segment,
                        frames_per_segment,
                        deadline_micros: tag.deadline.as_micros(),
                        class,
                    };
                    api.send_reliable(node, tag.replica, msg);
                }
                FetchOut::Cancel { fetch, replica } => {
                    api.send_reliable(node, replica, ServiceMsg::MediaFetchCancel { fetch });
                }
                FetchOut::HedgeTimer { fetch, delay } => {
                    api.set_timer(node, delay, timers::TK_HEDGE, fetch);
                }
                FetchOut::Wake(stream) => self.woken.push(stream),
                FetchOut::Event {
                    severity,
                    name,
                    labels,
                    value,
                    dump,
                } => {
                    api.emit_val(node, severity, name, labels, value);
                    if dump {
                        api.flight_dump(node, name, labels);
                    }
                }
                FetchOut::Latency(latency) => slo.record_latency(api.now(), SLO_FETCH, latency),
            }
        }
    }
}

/// Set the stream timer [`Lifecycle::arm`] just minted `gen` for, `delay`
/// from now; [`ServerActor::on_stream_timer`] reads every one.
fn arm_stream(
    api: &mut SimApi<'_, ServiceMsg>,
    node: NodeId,
    delay: MediaDuration,
    (session, gen): (SessionId, u32),
) {
    api.set_timer(node, delay, timers::TK_FRAME, timers::pack(session, gen));
}

/// Controller high-availability counters of one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlHaStats {
    /// Stale-epoch control commands dropped by the fence.
    pub fence_drops: u64,
    /// Regrade commands dropped because their target was gone, suspended,
    /// or had no step left (the `ctrl_stale` class).
    pub stale_drops: u64,
    /// Failover elections this node won.
    pub elections: u64,
    /// Self-demotions (report quorum lost, or a higher-epoch lease seen).
    pub demotions: u64,
    /// Lease beats broadcast while leading.
    pub lease_beats: u64,
}

impl ServerActor {
    /// Create a server actor for a node.
    pub fn new(node: NodeId, server_id: ServerId, cfg: ServerConfig) -> Self {
        let sharing = SharedGroups::new(cfg.sharing.clone(), node);
        let grading = Grading::new(cfg.grading_order, cfg.hysteresis);
        ServerActor {
            node,
            server_id,
            db: MultimediaDb::new(server_id),
            accounts: AccountsDb::new(),
            admission: AdmissionController::new(),
            cfg,
            sessions: BTreeMap::new(),
            life: Lifecycle::default(),
            life_out: Vec::new(),
            peers: Vec::new(),
            mailboxes: BTreeMap::new(),
            annotations: BTreeMap::new(),
            queries: BTreeMap::new(),
            pending_replications: Vec::new(),
            media: None,
            sharing,
            share_out: Vec::new(),
            sharing_stats: SharingStats::default(),
            grading,
            grade_out: Vec::new(),
            controller: None,
            control_peer: None,
            admission_price: 0,
            election: Election::new(node.raw()),
            ha_out: Vec::new(),
            ha_cfg: None,
            ctrl_stats: CtrlHaStats::default(),
            util_closed: 0.0,
            slo: server_slo_monitor(),
            fetch: FetchPort {
                node,
                server: server_id,
                out: Vec::new(),
                woken: Vec::new(),
            },
        }
    }

    /// The node crashed: volatile state (sessions, reservations, dedup
    /// windows, in-flight searches) is lost. The databases (documents,
    /// accounts) model disk and survive, and so does the session-id
    /// allocator (see [`Lifecycle`]).
    pub fn on_crash(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        // Shared groups are RAM: dissolve them (and their simulator
        // multicast memberships) before the sessions vanish.
        let cache = self.media.as_mut().map(|t| &mut t.cache);
        self.sharing.crash(cache, &mut self.share_out);
        self.flush_share(api);
        // Every live session dies with the process — say so, and close its
        // spans, so the trace shows a terminal state for each one (the
        // lifecycle invariant checker audits exactly this).
        for (session, s) in std::mem::take(&mut self.sessions) {
            self.release_admission(api, session);
            let labels = Labels::session(session.raw()).peer(s.client.raw());
            let lost = (Severity::Warn, "session_crash_lost", labels);
            self.retire(api, session, s, lost);
        }
        self.life.crash();
        self.queries.clear();
        if let Some(tier) = self.media.as_mut() {
            tier.crash();
        }
        self.grading.crash();
        // Controller leadership is RAM: it dies with the process, and the
        // restarted node rejoins as a follower.
        self.controller = None;
        self.election.crash();
    }

    /// Handle an incoming message addressed to this server.
    pub fn on_message(&mut self, api: &mut SimApi<'_, ServiceMsg>, from: NodeId, msg: ServiceMsg) {
        match msg {
            ServiceMsg::Tracked { req, inner } => {
                // Always re-acknowledge — the previous ack may have died in
                // a partition or with a crashed incarnation — but process
                // the inner request only on first sight of the id.
                api.send_reliable(self.node, from, ServiceMsg::Ack { req });
                if self.life.first_sight(from, req) {
                    self.on_message(api, from, *inner);
                }
            }
            ServiceMsg::ReconnectRequest {
                session,
                user,
                class,
                document,
                position_micros,
            } => self.on_reconnect(api, from, session, user, class, document, position_micros),
            ServiceMsg::Connect { user, class } => self.on_connect(api, from, user, class),
            ServiceMsg::Subscribe { session, form } => self.on_subscribe(api, session, form),
            ServiceMsg::DocRequest { session, document } => {
                self.on_doc_request(api, session, document)
            }
            ServiceMsg::PatchRequest { session, group } => {
                self.on_patch_request(api, session, group)
            }
            ServiceMsg::Feedback { session, rows } => {
                let life = self.sessions.get_mut(&session).map(|s| &mut s.life);
                self.life.ack(life, api.now());
                let out = &mut self.grade_out;
                let report = rows.iter().map(|r| (r.component, r.measurement));
                self.grading.feedback(&self.sessions, session, report, out);
                self.flush_grade(api);
            }
            ServiceMsg::HeartbeatAck { session, .. } => {
                let life = self.sessions.get_mut(&session).map(|s| &mut s.life);
                self.life.ack(life, api.now());
            }
            ServiceMsg::MediaFetchChunk {
                fetch,
                last,
                frames,
                credit,
                ..
            } => self.on_media_chunk(api, fetch, frames, last, credit),
            ServiceMsg::MediaFetchError { fetch, .. } => self.on_media_error(api, fetch),
            ServiceMsg::MediaFetchBusy { fetch, credit } => self.on_media_busy(api, fetch, credit),
            ServiceMsg::Pause { session } => self.step(api, session, Input::Pause),
            ServiceMsg::Resume { session } => self.step(api, session, Input::Resume),
            ServiceMsg::DisableStream { session, component } => {
                if let Some((_, tx)) = Self::stream_mut(&mut self.sessions, session, component) {
                    tx.stopped = true;
                }
            }
            ServiceMsg::SuspendConnection { session } => {
                let until = api.now() + self.cfg.suspend_grace;
                self.step(api, session, Input::Suspend(until))
            }
            ServiceMsg::ResumeSuspended { session } => self.step(api, session, Input::Revisit),
            ServiceMsg::Disconnect { session } => self.on_disconnect(api, session),
            ServiceMsg::SearchRequest {
                session,
                token,
                query,
            } => self.on_search_request(api, session, token, query),
            ServiceMsg::SearchFanout {
                query,
                token,
                origin,
            } => {
                let hits = self.local_hits(&token);
                api.send_reliable(self.node, origin, ServiceMsg::SearchPartial { query, hits });
            }
            ServiceMsg::SearchPartial { query, hits } => self.on_search_partial(api, query, hits),
            ServiceMsg::Annotate {
                session,
                document,
                text,
            } => {
                if let Some(user) = self.sessions.get(&session).and_then(|s| s.user) {
                    self.annotations
                        .entry((user, document))
                        .or_default()
                        .push(text);
                }
            }
            ServiceMsg::AnnotationsFetch { session, document } => {
                if let Some(sess) = self.sessions.get(&session) {
                    if let Some(user) = sess.user {
                        let notes = self
                            .annotations
                            .get(&(user, document))
                            .cloned()
                            .unwrap_or_default();
                        api.send_reliable(
                            self.node,
                            sess.client,
                            ServiceMsg::Annotations { document, notes },
                        );
                    }
                }
            }
            ServiceMsg::MailSend { mail } => {
                self.mailboxes
                    .entry(mail.to.clone())
                    .or_default()
                    .push(mail);
            }
            ServiceMsg::MailFetch { address } => {
                let messages = self.mailboxes.get(&address).cloned().unwrap_or_default();
                api.send_reliable(self.node, from, ServiceMsg::MailBox { messages });
            }
            ServiceMsg::ControlReport { report, epoch } => {
                let (now, leading) = (api.now(), self.leading());
                self.election
                    .report_heard(from.raw(), epoch, now, leading, &mut self.ha_out);
                self.flush_ha(api);
                if let Some(c) = self.controller.as_mut() {
                    c.ingest(api.now(), from.raw(), report);
                }
            }
            // Not match guards: `ctrl_fenced` counts and traces the drop,
            // so it must run exactly once whether or not the body does.
            #[allow(clippy::collapsible_match)]
            ServiceMsg::ControlRegrade {
                session,
                upgrade,
                epoch,
            } => {
                if !self.ctrl_fenced(api, epoch) {
                    let out = &mut self.grade_out;
                    self.grading.control(&self.sessions, session, upgrade, out);
                    self.flush_grade(api);
                }
            }
            #[allow(clippy::collapsible_match)]
            ServiceMsg::ControlDirective { shed, epoch } => {
                if !self.ctrl_fenced(api, epoch) {
                    self.admission_price = shed;
                }
            }
            ServiceMsg::ControlLease {
                epoch,
                seq: _,
                price,
                standby,
                scaled_out,
            } => {
                let snapshot = ControlSnapshot {
                    epoch,
                    price,
                    standby,
                    scaled_out,
                };
                let (now, leading) = (api.now(), self.leading());
                self.election
                    .lease(from.raw(), snapshot, now, leading, &mut self.ha_out);
                self.flush_ha(api);
            }
            ServiceMsg::ControlVoteReq { epoch } => {
                let (now, leading) = (api.now(), self.leading());
                self.election
                    .vote_req(from.raw(), epoch, now, leading, &mut self.ha_out);
                self.flush_ha(api);
            }
            ServiceMsg::ControlVote { epoch } => {
                self.election
                    .vote(from.raw(), epoch, api.now(), &mut self.ha_out);
                self.flush_ha(api);
            }
            _ => { /* messages addressed to clients are ignored here */ }
        }
        self.drain_breaker_events(api);
    }

    /// Trace the breaker state changes of this dispatch (all but trips,
    /// which the fetch-outcome paths report as they happen).
    fn drain_breaker_events(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        if let Some(tier) = self.media.as_mut() {
            tier.breaker_events(&mut self.fetch.out);
            self.fetch.flush(api, &mut self.slo);
        }
    }

    /// Handle a timer addressed to this server.
    pub fn on_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, key: u64, payload: u64) {
        match key {
            timers::TK_FRAME => self.on_stream_timer(api, payload),
            timers::TK_HEARTBEAT => {
                let session = SessionId::new(payload);
                let life = self.sessions.get_mut(&session).map(|s| &mut s.life);
                let beat = (self.cfg.heartbeat_interval, self.cfg.client_timeout);
                self.life
                    .heartbeat(life, session, api.now(), beat, &mut self.life_out);
                // An expiry ends the dispatch at its teardown, before the breaker drain.
                if self.life_out.contains(&(session, LifeOut::Expired)) {
                    return self.flush_life(api);
                }
                self.flush_life(api);
            }
            timers::TK_GRACE => {
                let session = SessionId::new(payload);
                let life = self.sessions.get_mut(&session).map(|s| &mut s.life);
                self.life
                    .grace(life, session, api.now(), &mut self.life_out);
                self.flush_life(api);
            }
            timers::TK_HEDGE => self.on_hedge_timer(api, payload),
            timers::TK_LADDER => self.on_ladder_tick(api),
            timers::TK_CONTROL => self.on_control_tick(api),
            timers::TK_CONTROL_REPORT => self.on_control_report(api),
            timers::TK_CTRL_LEASE => {
                let leading = self.controller.as_ref().map(|c| c.snapshot());
                self.election
                    .beat_tick(leading, api.now(), &mut self.ha_out);
                self.flush_ha(api);
            }
            timers::TK_CTRL_WATCH => {
                let (now, leading) = (api.now(), self.leading());
                self.election.watch_tick(now, leading, &mut self.ha_out);
                self.flush_ha(api);
            }
            _ => {}
        }
        self.drain_breaker_events(api);
    }

    fn on_connect(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        from: NodeId,
        user: Option<UserId>,
        class: PricingClass,
    ) {
        // The ladder's evaluation chain starts with the first session.
        if let Some(tier) = self.media.as_ref().filter(|t| t.cfg.ladder) {
            if self.grading.arm_ladder(true) {
                api.set_timer(self.node, tier.cfg.ladder_period, timers::TK_LADDER, 0);
            }
        }
        let node = self.node;
        let (session, user) = self.open_session(api, from, user, class, None, |api, id, root| {
            // Originate the session's causal root: every downstream send (the
            // ack, scenario fetches, stream pumps, retries) inherits this
            // context, so a later playout gap can be walked back to it.
            api.cause_root(id.raw(), node);
            let labels = Labels::session(id.raw());
            let admission = api.span_start(node, "admission", labels, root);
            let connect = labels.peer(from.raw());
            api.emit(node, Severity::Info, "session_connect", connect);
            admission
        });
        if let Some(u) = user {
            self.accounts.record_login(u, api.now());
            self.accounts.charge(u, Charge::Connection);
        }
        let must_subscribe = user.is_none();
        let ack = ServiceMsg::ConnectAck {
            session,
            must_subscribe,
        };
        api.send_reliable(node, from, ack);
        if !must_subscribe {
            self.life_out.push((session, LifeOut::Topics));
            self.flush_life(api);
        }
    }

    /// Open a session of `client`, fresh or rebuilding `rebuilds`: its id and
    /// root span, then `trace`'s events and admission span, then the user if
    /// authorized here, its state and first heartbeat. Returns id and user.
    fn open_session(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        client: NodeId,
        user: Option<UserId>,
        class: PricingClass,
        rebuilds: Option<SessionId>,
        trace: impl FnOnce(&mut SimApi<'_, ServiceMsg>, SessionId, SpanId) -> SpanId,
    ) -> (SessionId, Option<UserId>) {
        let session = self.life.open(rebuilds, &mut self.life_out);
        let root = api.session_span(session.raw(), self.node);
        let admission = trace(api, session, root);
        let user = user.filter(|&u| self.accounts.is_authorized(u));
        let s = SessionState {
            client,
            user,
            class,
            streams: VecMap::new(),
            current_doc: None,
            life: SessionLife::new(api.now()),
            obs_root: root,
            obs_admission: admission,
            util_acc: 0.0,
            util_pos: VecMap::new(),
        };
        self.sessions.insert(session, s);
        self.flush_life(api);
        (session, user)
    }

    fn on_subscribe(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        form: Arc<hermes_server::SubscriptionForm>,
    ) {
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let user = self.accounts.subscribe(Arc::clone(&form));
        s.user = Some(user);
        s.class = form.class;
        let client = s.client;
        self.accounts.record_login(user, api.now());
        self.accounts.charge(user, Charge::Connection);
        // The world replicates the form to every other server (§5).
        self.pending_replications.push((user, form));
        let ack = ServiceMsg::SubscribeAck { session, user };
        api.send_reliable(self.node, client, ack);
        self.life_out.push((session, LifeOut::Topics));
        self.flush_life(api);
    }

    fn path_condition(&self, api: &SimApi<'_, ServiceMsg>, client: NodeId) -> PathCondition {
        let now = api.now();
        let net = api.net();
        let links = net.path_links(self.node, client).unwrap_or_default();
        let capacity = links
            .iter()
            .filter_map(|(a, b)| net.link(*a, *b))
            .map(|l| l.spec.bandwidth_bps)
            .min()
            .unwrap_or(0);
        let free = net.path_free_bandwidth(self.node, client, now).unwrap_or(0);
        let prop: i64 = links
            .iter()
            .filter_map(|(a, b)| net.link(*a, *b))
            .map(|l| l.spec.propagation.as_micros())
            .sum();
        PathCondition {
            capacity_bps: capacity,
            committed_bps: capacity.saturating_sub(free),
            rtt: MediaDuration::from_micros(prop * 2 + 2_000),
        }
    }

    fn on_doc_request(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
    ) {
        if !self.sessions.contains_key(&session) {
            return;
        }
        let (node, labels) = (self.node, Labels::session(session.raw()));
        let zero = MediaDuration::ZERO;
        match self.sharing.route(document, api.now()) {
            ShareDecision::Unicast => {
                self.deliver_document(api, session, document, zero, true, zero)
            }
            ShareDecision::OpenGroup { wait } => {
                let value = wait.as_micros();
                api.emit_val(node, Severity::Info, "share_open", labels, value);
                self.open_shared_group(api, session, document, wait)
            }
            ShareDecision::JoinPending => {
                api.emit(node, Severity::Info, "share_join", labels);
                self.join_shared_group(api, session, document, None)
            }
            ShareDecision::JoinWithPatch { offset } => {
                let value = offset.as_micros();
                api.emit_val(node, Severity::Info, "share_join_patch", labels, value);
                self.join_shared_group(api, session, document, Some(offset))
            }
        }
    }

    /// Open a new shared group for `document`, led by `session`: deliver
    /// the document to the leader with the batching wait folded into every
    /// stream's start, then wrap the leader's continuous streams into a
    /// multicast group later joiners attach to.
    fn open_shared_group(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        wait: MediaDuration,
    ) {
        let now = api.now();
        self.deliver_document(api, session, document, MediaDuration::ZERO, true, wait);
        // Only form a group when the leader actually got continuous
        // streams (admission may have failed, or the lesson is discrete).
        let Some(s) = self.sessions.get(&session) else {
            return;
        };
        let continuous = s.streams.values().filter(|tx| tx.plan.kind.is_continuous());
        if s.current_doc != Some(document) || continuous.clone().all(|tx| tx.done) {
            return;
        }
        let objects = continuous.filter_map(|tx| tx.remote.as_ref().map(|r| r.object.to_string()));
        let cache = self.media.as_mut().map(|t| &mut t.cache);
        let (starts_at, out) = (now + wait, &mut self.share_out);
        self.sharing
            .open(session, document, starts_at, objects.collect(), cache, out);
        self.flush_share(api);
    }

    /// Attach `session` to the document's joinable group. `offset` is
    /// `Some` when the shared flow already started (the client must patch
    /// the missed prefix). The joiner gets the scenario, its own discrete
    /// objects and a tail-only admission reservation — the server→backbone
    /// trunk carries one shared copy regardless of the member count.
    fn join_shared_group(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        offset: Option<MediaDuration>,
    ) {
        let Some(gid) = self.sharing.joinable(document) else {
            // Raced with the group ending: fall back to a private flow.
            let zero = MediaDuration::ZERO;
            return self.deliver_document(api, session, document, zero, true, zero);
        };
        let Some((_, flow, _)) = self.admit_document(api, session, document, true, true) else {
            return;
        };
        // Snapshot the leader's pacer positions now: this event also enters
        // the joiner into the multicast group, so every frame multicast
        // after this instant reaches it — the patch must cover exactly the
        // pts before these positions, no more.
        let sessions = &self.sessions;
        let positions = |leader| {
            let streams = sessions.get(&leader)?.streams.iter();
            let live = streams.filter(|(_, tx)| tx.plan.kind.is_continuous());
            Some(live.map(|(c, tx)| (*c, tx.source.next_pts())).collect())
        };
        let cache = self.media.as_mut().map(|t| &mut t.cache);
        let out = &mut self.share_out;
        let starts_at = self
            .sharing
            .join(session, gid, offset, positions, cache, out);
        // Discrete objects (images, text) stay per-session: they are tiny
        // next to the continuous media and every member needs its own copy.
        // Their schedule is shifted onto the *group's* timeline — a pending
        // member receiving its images early would satisfy the client's
        // prefill check and start playout before the shared flow exists.
        let remaining_wait = starts_at.map_or(MediaDuration::ZERO, |t| {
            (t - api.now()).max(MediaDuration::ZERO)
        });
        for plan in flow.plans.iter().filter(|p| !p.kind.is_continuous()) {
            let delay =
                (plan.send_start - MediaTime::ZERO).max(MediaDuration::ZERO) + remaining_wait;
            self.schedule_discrete(api, session, plan, delay);
        }
        self.flush_share(api);
    }

    /// The joiner asked for the missed prefix of its shared flow: start a
    /// unicast patch stream per continuous component, cut off *strictly
    /// before* the leader's current pacer position — the next multicast
    /// frame carries exactly that pts, so patch + shared flow tile the
    /// stream with no duplicate and no gap.
    fn on_patch_request(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId, gid: u64) {
        let Some((document, cutoffs)) = self.sharing.take_cutoffs(session, gid) else {
            return; // not a member, no snapshot, or already patched
        };
        let doc = match self.db.document(document) {
            Ok(d) => d.clone(),
            Err(_) => return,
        };
        let flow = compute_flow_scenario(&doc.scenario, self.cfg.media_time_window);
        for plan in flow.plans.iter().filter(|p| p.kind.is_continuous()) {
            let Some(&(_, cutoff)) = cutoffs.iter().find(|(c, _)| *c == plan.component) else {
                continue;
            };
            if cutoff <= MediaTime::ZERO {
                continue; // nothing missed yet
            }
            let until = Some(cutoff);
            if self.start_stream(api, session, plan, MediaDuration::ZERO, until, |_| {}) {
                self.sharing_stats.patch_streams += 1;
            }
        }
    }

    /// Detach `session` from its shared group, if any; the leader leaving
    /// dissolves the whole group (members keep whatever they buffered).
    fn leave_group(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        let cache = self.media.as_mut().map(|t| &mut t.cache);
        self.sharing.leave(session, cache, &mut self.share_out);
        self.flush_share(api);
    }

    /// Apply what the sharing table asked for, in the order it asked,
    /// counting [`SharingStats`] as it goes.
    fn flush_share(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let node = self.node;
        for o in self.share_out.drain(..) {
            match o {
                ShareOut::Join { group, session } => {
                    if let Some(s) = self.sessions.get(&session) {
                        api.mcast_join(group, s.client);
                    }
                }
                ShareOut::Leave { group, session } => {
                    if let Some(s) = self.sessions.get(&session) {
                        api.mcast_leave(group, s.client);
                    }
                }
                ShareOut::Announce {
                    session,
                    group,
                    epoch,
                    offset_micros,
                } => {
                    let Some(s) = self.sessions.get(&session) else {
                        continue;
                    };
                    let st = &mut self.sharing_stats;
                    if offset_micros >= 0 {
                        st.joins_patched += 1;
                    } else if self.sharing.leads(session) == Some(group) {
                        st.groups_opened += 1;
                    } else {
                        st.joins_pending += 1;
                    }
                    let msg = ServiceMsg::StreamJoin {
                        session,
                        group,
                        epoch,
                        offset_micros,
                    };
                    api.send_reliable(node, s.client, msg);
                }
                ShareOut::Epoch { group, epoch } => {
                    self.sharing_stats.epoch_bumps += 1;
                    let labels = Labels::NONE.stream(group);
                    api.emit_val(node, Severity::Info, "group_epoch", labels, epoch as i64);
                    api.send_mcast(node, group, ServiceMsg::GroupEpoch { group, epoch });
                }
            }
        }
    }

    /// Re-establish a session a client believes lost. If the session is
    /// still alive here (false alarm, or a healed partition), acknowledge in
    /// place. If this server restarted and lost it, rebuild a fresh session
    /// from the client-supplied context and resume delivery past the
    /// client's playout position.
    #[allow(clippy::too_many_arguments)]
    fn on_reconnect(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        from: NodeId,
        session: SessionId,
        user: Option<UserId>,
        class: PricingClass,
        document: Option<DocumentId>,
        position_micros: i64,
    ) {
        let node = self.node;
        let new_session = match self.sessions.get_mut(&session) {
            // In-place resume: the process never died. Streams kept (or
            // keep) transmitting; the client's detector was tripped by the
            // network, not by us.
            Some(s) => {
                s.client = from;
                session
            }
            // Rebuild after a restart. A fresh id keeps the recovered
            // session out of any state the old id might still be attached
            // to elsewhere.
            None => {
                let new = self.open_session(api, from, user, class, Some(session), |api, id, _| {
                    // The payload carries the superseded session id so trace
                    // consumers (and the lifecycle invariant checker) can
                    // link the chain.
                    let labels = Labels::session(id.raw()).peer(from.raw());
                    let value = session.raw() as i64;
                    api.emit_val(node, Severity::Warn, "session_rebuilt", labels, value);
                    SpanId::NONE
                });
                new.0
            }
        };
        self.step(api, session, Input::Reconnect); // a rebuild's old id is gone
        let ack = ServiceMsg::ReconnectAck {
            old_session: session,
            session: new_session,
        };
        api.send_reliable(node, from, ack);
        if let (true, Some(doc)) = (new_session != session, document) {
            // The client already holds the scenario; just restart delivery
            // past the reported playout position.
            let resume_from = MediaDuration::from_micros(position_micros.max(0));
            let zero = MediaDuration::ZERO;
            self.deliver_document(api, new_session, doc, resume_from, false, zero);
        }
    }

    /// Evaluate admission for a flow, shedding grade levels instead of
    /// rejecting while the configuration allows: returns the shed applied,
    /// or an error string when even the deepest shed cannot be admitted.
    ///
    /// `shared_trunk`: the session rides a shared delivery group, so the
    /// first path hop (server → backbone) already carries the group's one
    /// copy — reserve only the tail links toward this client.
    fn admit_with_shedding(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        class: PricingClass,
        client: NodeId,
        flow: &hermes_server::FlowScenario,
        shared_trunk: bool,
    ) -> Result<u8, String> {
        let path = self.path_condition(api, client);
        let mut last_reason = String::new();
        // The controller's admission price floors the search: under fleet
        // pressure new sessions enter pre-degraded instead of competing for
        // nominal-grade reservations.
        let floor = self.admission_price.min(MAX_ADMISSION_SHED);
        for shed in floor..=MAX_ADMISSION_SHED {
            // Aggregate continuous bandwidth with every stream `shed`
            // levels below nominal (clamped to each codec's ladder).
            let bw: u64 = flow
                .plans
                .iter()
                .filter(|p| p.kind.is_continuous())
                .map(|p| {
                    let model = CodecModel::for_encoding(p.encoding);
                    let lvl = GradeLevel(shed).min(model.max_level());
                    model.level(lvl).bandwidth_bps()
                })
                .sum();
            let requirement = hermes_core::QosRequirement::continuous(bw, 300, 0.05);
            let request = ConnectionRequest {
                session,
                class,
                requirement,
            };
            let (decision, conn) = self.admission.evaluate(&request, path);
            match decision {
                AdmissionDecision::Reject { reason } => last_reason = reason,
                AdmissionDecision::Admit { reserved_bps } => {
                    // `evaluate` returns a connection with every `Admit`.
                    let conn = conn.expect("admit without connection id");
                    let reserved = if shared_trunk {
                        let mut links = api.net().path_links(self.node, client).unwrap_or_default();
                        if !links.is_empty() {
                            links.remove(0); // the trunk carries one shared copy
                        }
                        api.net_mut().reserve_links(conn, links, reserved_bps)
                    } else {
                        api.net_mut().reserve(conn, self.node, client, reserved_bps)
                    };
                    if reserved {
                        return Ok(shed);
                    }
                    self.admission.release(session);
                    last_reason = "reservation failed on path".into();
                }
            }
        }
        Err(last_reason)
    }

    /// The admission prelude of every document delivery, private or shared:
    /// leave any group, look the document up (a `DocError` when this server
    /// lacks it), trade the session's old reservation for one that fits the
    /// new flow — shedding grade levels under pressure (evaluated against
    /// the path to the client, weighted by the pricing contract), a
    /// `DocError` and an `admit_reject` event when even that is refused —
    /// then switch the session over, if asked send the scenario, and record
    /// the admission: the `admit` event, the admission span's end and the
    /// join-latency SLO sample. `shared_trunk` reserves only the tail links
    /// (see [`admit_with_shedding`](Self::admit_with_shedding)).
    ///
    /// `None` when the session or the document is gone or admission is
    /// refused, else the shed applied, the flow and the client.
    fn admit_document(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        shared_trunk: bool,
        send_scenario: bool,
    ) -> Option<(u8, FlowScenario, NodeId)> {
        self.leave_group(api, session);
        let s = self.sessions.get(&session)?;
        let (node, client, class) = (self.node, s.client, s.class);
        // An `Arc` handle shared out of the database, not a deep copy.
        let doc = match self.db.document(document) {
            Ok(d) => d.clone(),
            Err(e) => {
                let reason = e.to_string();
                api.send_reliable(node, client, ServiceMsg::DocError { session, reason });
                return None;
            }
        };
        let flow = compute_flow_scenario(&doc.scenario, self.cfg.media_time_window);
        self.release_admission(api, session);
        let shed = match self.admit_with_shedding(api, session, class, client, &flow, shared_trunk)
        {
            Ok(shed) => shed,
            Err(reason) => {
                api.send_reliable(node, client, ServiceMsg::DocError { session, reason });
                let labels = Labels::session(session.raw());
                api.emit(node, Severity::Warn, "admit_reject", labels);
                return None;
            }
        };
        // Switch over: drop the previous document's cache readers (first, so
        // interval-caching admission sees them leave) and grading state,
        // charge the retrieval, and clear the old streams.
        self.release_session_readers(session);
        self.grading.reset(session);
        let s = self.sessions.get_mut(&session)?;
        if let Some(u) = s.user {
            self.accounts.record_retrieval(u, document);
            self.accounts.charge(u, Charge::Retrieval(document));
        }
        s.streams.clear();
        // Streams stay in the session after they finish: size them exactly.
        s.streams.reserve_exact(flow.plans.len());
        s.current_doc = Some(document);
        if send_scenario {
            let (markup, lead_micros) = (doc.markup.clone(), flow.lead.as_micros());
            let msg = ServiceMsg::ScenarioResponse {
                session,
                document,
                markup,
                lead_micros,
            };
            api.send_reliable(node, client, msg);
        }
        let severity = if shed > 0 {
            Severity::Warn
        } else {
            Severity::Info
        };
        let labels = Labels::session(session.raw());
        api.emit_val(node, severity, "admit", labels, shed as i64);
        let span = std::mem::replace(&mut s.obs_admission, SpanId::NONE);
        api.span_end(span);
        // Join-latency SLO sample: connect → first successful admission.
        let now = api.now();
        self.slo
            .record_latency(now, SLO_JOIN, now - s.life.connected_at);
        self.step(api, session, Input::Switch);
        Some((shed, flow, client))
    }

    /// Deliver a document to a session: the admission prelude, then media
    /// activation. `resume_from` shifts all send starts earlier and
    /// fast-forwards the frame sources — recovery resumes mid-presentation
    /// instead of replaying from zero. `extra_delay` shifts every send start
    /// later (the batching wait of a shared group's leader).
    fn deliver_document(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        document: DocumentId,
        resume_from: MediaDuration,
        send_scenario: bool,
        extra_delay: MediaDuration,
    ) {
        let admitted = self.admit_document(api, session, document, false, send_scenario);
        let Some((shed, flow, client)) = admitted else {
            return;
        };

        // Activate the media servers: discrete media ship directly at their
        // send start; continuous media get a transmission loop.
        let resume_point = MediaTime::ZERO + resume_from;
        let lead = flow.lead;
        for plan in &flow.plans {
            // The component starts playing at `send_start + lead` on the
            // presentation timeline. `elapsed` is how much of the stream the
            // client has already played at the resume position: positive →
            // fast-forward and send immediately; negative → the stream is
            // still in the future, keep its (shifted) send start.
            let elapsed = resume_from - ((plan.send_start + lead) - MediaTime::ZERO);
            let delay = if elapsed > MediaDuration::ZERO {
                MediaDuration::ZERO
            } else {
                (plan.send_start - resume_point).max(MediaDuration::ZERO)
            } + extra_delay;
            if plan.kind.is_continuous() {
                let start_level = self.grading.register(session, plan, shed);
                let started = self.start_stream(api, session, plan, delay, None, |source| {
                    source.set_level(start_level);
                    // Fast-forward past the client's playout position: the
                    // stream restarts where the viewer left off. Source pts
                    // are stream-relative, so skip only the elapsed part.
                    let ff_point = MediaTime::ZERO + elapsed;
                    while source.frames_remaining() > 0 && source.next_pts() < ff_point {
                        let _ = source.next_frame();
                    }
                });
                if !started {
                    let reason = format!("media object '{}' missing", plan.source.object);
                    let msg = ServiceMsg::DocError { session, reason };
                    api.send_reliable(self.node, client, msg);
                }
            } else {
                if resume_from > MediaDuration::ZERO && elapsed > MediaDuration::ZERO {
                    // Discrete object already shown before the outage.
                    continue;
                }
                self.schedule_discrete(api, session, plan, delay);
            }
        }
    }

    /// Start `plan`'s continuous stream for `session`: open its frame source
    /// through the store handle (the object's metadata stays in the
    /// database, un-cloned), let `prep` position it, and open the stream
    /// with its first frame `delay` from now. False when the store lacks the
    /// object.
    fn start_stream(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        plan: &FlowPlan,
        delay: MediaDuration,
        patch_until: Option<MediaTime>,
        prep: impl FnOnce(&mut FrameSource),
    ) -> bool {
        let store = self.db.store(plan.kind);
        let Some(mut source) = store.open(&plan.source.object, plan.component, plan.duration)
        else {
            return false;
        };
        prep(&mut source);
        let ssrc = ((session.raw() as u32) << 16) ^ plan.component.raw() as u32;
        let tx = StreamTx::new(plan, source, ssrc, patch_until);
        self.open_stream(api, session, tx, delay)
    }

    /// Schedule one discrete media object (image / text file) for `session`
    /// `delay` from now: a single object over the reliable path. With a
    /// media tier its size comes from the fetched segment. Locally it is the
    /// stored first frame's size, read from the store's own frame source, or
    /// one hashed from the codec's mean frame size when the store lacks the
    /// object.
    fn schedule_discrete(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        plan: &FlowPlan,
        delay: MediaDuration,
    ) {
        let store = self.db.store(plan.kind);
        let duration = plan.duration.max(MediaDuration::from_millis(1));
        let source = store
            .open(&plan.source.object, plan.component, duration)
            .unwrap_or_else(|| {
                let model = CodecModel::for_encoding(plan.encoding);
                let size = model.level(GradeLevel::NOMINAL).mean_frame_bytes;
                FrameSource::new(plan.component, plan.encoding, size as u64, duration)
            });
        let tx = StreamTx::new(plan, source, 0, None);
        self.open_stream(api, session, tx, delay);
    }

    /// The tail of both stream openers: install `tx` as its component's
    /// stream of `session`, with its media-tier fetch state opened at the
    /// source's position, and arm its first timer `delay` from now. False
    /// when the session is gone.
    fn open_stream(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        mut tx: StreamTx,
        delay: MediaDuration,
    ) -> bool {
        let Some(s) = self.sessions.get_mut(&session) else {
            return false;
        };
        let (plan, seq) = (&tx.plan, tx.source.next_seq());
        let tier = self.media.as_mut();
        tx.remote = tier.and_then(|t| t.open(&*api, &plan.source.object, plan.kind, seq));
        let gen = self.life.arm(&mut tx.chain);
        s.streams.insert(tx.plan.component, tx);
        arm_stream(api, self.node, delay, (session, gen));
        true
    }

    /// Return `session`'s admission reservation, and the links it held, to
    /// the pool.
    fn release_admission(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        if let Some(conn) = self.admission.release(session) {
            api.net_mut().release(conn);
        }
    }

    /// Deregister a session's remote streams from the cache's reader counts
    /// (called before the streams are dropped or replaced).
    fn release_session_readers(&mut self, session: SessionId) {
        if let (Some(tier), Some(s)) = (self.media.as_mut(), self.sessions.get(&session)) {
            for r in s.streams.values().filter_map(|tx| tx.remote.as_ref()) {
                tier.cache.reader_finished(&r.object);
            }
        }
    }

    /// Stream `(session, component)` with its session's client.
    fn stream_mut(
        sessions: &mut BTreeMap<SessionId, SessionState>,
        session: SessionId,
        component: ComponentId,
    ) -> Option<(NodeId, &mut StreamTx)> {
        let s = sessions.get_mut(&session)?;
        Some((s.client, s.streams.get_mut(&component)?))
    }

    /// The tier-backed stream `(session, component)` if it is live (neither
    /// done nor stopped), with what its pacer still needs.
    fn live_stream(
        sessions: &mut BTreeMap<SessionId, SessionState>,
        session: SessionId,
        component: ComponentId,
    ) -> Option<(Demand, &mut RemoteStream)> {
        let s = sessions.get_mut(&session)?;
        let class = s.class;
        let tx = s.streams.get_mut(&component)?;
        if tx.done || tx.stopped {
            return None;
        }
        let demand = tx.demand(session, component, class);
        Some((demand, tx.remote.as_mut()?))
    }

    /// Every live tier-backed stream of every session.
    fn live_streams(
        sessions: &mut BTreeMap<SessionId, SessionState>,
    ) -> impl Iterator<Item = (SessionId, ComponentId, &mut RemoteStream)> {
        sessions.iter_mut().flat_map(|(sid, s)| {
            let live = s
                .streams
                .iter_mut()
                .filter(|(_, tx)| !tx.done && !tx.stopped);
            live.filter_map(|(cid, tx)| Some((*sid, *cid, tx.remote.as_mut()?)))
        })
    }

    /// Re-pick a live stream's replica and refill its fetch window (a
    /// waiter woken by a freed credit; every re-point). False when the
    /// stream is gone or no replica of its object is up.
    fn repump_stream(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
    ) -> bool {
        let stream = Self::live_stream(&mut self.sessions, session, component);
        let found = match (self.media.as_mut(), stream) {
            (Some(tier), Some((d, r))) => tier.repump(&*api, api.now(), &d, r, &mut self.fetch.out),
            (Some(tier), None) => {
                // Gone while it waited: it must not keep the head of the set.
                tier.unwait((session, component));
                false
            }
            _ => false,
        };
        self.fetch.flush(api, &mut self.slo);
        found
    }

    /// Apply the fetch client's list, then refill the waiting streams it
    /// woke, most urgent first. A refill gives no credit back, so it wakes
    /// nobody in turn.
    fn flush_woken(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        self.fetch.flush(api, &mut self.slo);
        let mut woken = std::mem::take(&mut self.fetch.woken);
        for (session, component) in woken.drain(..) {
            self.repump_stream(api, session, component);
        }
        self.fetch.woken = woken;
    }

    /// A segment part arrived from a media node.
    fn on_media_chunk(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        fetch: u64,
        frames: Arc<[SegmentFrame]>,
        last: bool,
        credit: u16,
    ) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let owner = tier.owner(fetch);
        let s = owner.and_then(|(s, _)| self.sessions.get_mut(&s));
        let sends = s.as_ref().is_some_and(|s| s.life.phase.sends());
        let tx = owner.zip(s).and_then(|((_, c), s)| s.streams.get_mut(&c));
        let discrete = tx.as_ref().is_some_and(|tx| !tx.plan.kind.is_continuous());
        let r = tx.and_then(|tx| tx.remote.as_mut());
        let out = &mut self.fetch.out;
        let done = tier.on_chunk(api.now(), fetch, frames, last, credit, r, out);
        self.flush_woken(api);
        // Discrete objects ship the moment their bytes arrive while the
        // phase sends; continuous streams stay on the pacer's cadence (the
        // stall poll picks the fetched frames up).
        if let (true, Some(stream)) = (done.appended && discrete && sends, owner) {
            self.send_stream(api, stream);
        }
        // A successful-but-slow completion can still trip the breaker (EWMA
        // latency): eject only after the fetched frames landed.
        for sick in done.tripped.into_iter().flatten() {
            self.eject_replica_streams(api, sick);
        }
    }

    /// A media node refused a fetch (object not replicated there): stop the
    /// stream — retrying cannot succeed, the placement map is wrong.
    fn on_media_error(&mut self, api: &mut SimApi<'_, ServiceMsg>, fetch: u64) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let Some(tag) = tier.on_error(api.now(), fetch, &mut self.fetch.out) else {
            return;
        };
        self.flush_woken(api);
        let (session, component) = (tag.session, tag.component);
        let Some((client, tx)) = Self::stream_mut(&mut self.sessions, session, component) else {
            return;
        };
        let live_epoch = tx.remote.as_ref().map(|r| r.epoch);
        if live_epoch == Some(tag.epoch) && !tx.done && !tx.stopped {
            // Not a grading stop: the session's feedback manager is not
            // told, so a later feedback regrade of the stream restarts it.
            tx.stopped = true;
            let msg = ServiceMsg::StreamStopped { session, component };
            api.send_reliable(self.node, client, msg);
        }
    }

    /// A media node shed a fetch from its overloaded queue.
    fn on_media_busy(&mut self, api: &mut SimApi<'_, ServiceMsg>, fetch: u64, credit: u16) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let owner = tier.owner(fetch);
        let stream = owner.and_then(|(s, c)| Self::live_stream(&mut self.sessions, s, c));
        let out = &mut self.fetch.out;
        tier.on_busy(&*api, api.now(), fetch, credit, stream, out);
        self.flush_woken(api);
    }

    /// The hedge delay of a fetch expired unanswered (timer `TK_HEDGE`,
    /// payload = fetch id).
    fn on_hedge_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, fetch: u64) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let stream = tier.owner(fetch).and_then(|(s, c)| {
            let s = self.sessions.get(&s)?;
            Some((s.streams.get(&c)?.remote.as_ref()?, s.class))
        });
        tier.on_hedge_timer(&*api, api.now(), fetch, stream, &mut self.fetch.out);
        self.fetch.flush(api, &mut self.slo);
    }

    /// Hand each fetch the tier wrote off to the stream that asked for it
    /// (a survivor of its hedge race takes it over, or its segment is
    /// re-asked), so no window keeps a fetch that will never be answered.
    fn forget_lost(sessions: &mut BTreeMap<SessionId, SessionState>, lost: &[LostFetch]) {
        for l in lost {
            let s = sessions.get_mut(&l.tag.session);
            let tx = s.and_then(|s| s.streams.get_mut(&l.tag.component));
            if let Some(r) = tx.and_then(|tx| tx.remote.as_mut()) {
                r.forget(l);
            }
        }
    }

    /// Phase one of a failover: restart the fetch window of every live
    /// stream pulling from `node`. Returns the streams restarted.
    fn restart_streams_on(&mut self, node: NodeId) -> Vec<(SessionId, ComponentId)> {
        let on_node = Self::live_streams(&mut self.sessions).filter(|(_, _, r)| r.replica == node);
        on_node
            .map(|(sid, cid, r)| {
                r.restart(sid, cid, &mut self.fetch.out);
                (sid, cid)
            })
            .collect()
    }

    /// A replica's circuit just tripped Open: re-point every live stream
    /// pulling from it at the best admitted alternative. With no sound
    /// alternative the re-pick lands on the sick node again and the probe
    /// gate in the pump paces recovery traffic instead.
    fn eject_replica_streams(&mut self, api: &mut SimApi<'_, ServiceMsg>, sick: NodeId) {
        MediaTier::report_trip(sick, &mut self.fetch.out);
        let affected = self.restart_streams_on(sick);
        self.fetch.flush(api, &mut self.slo);
        for &(sid, cid) in &affected {
            self.repump_stream(api, sid, cid);
        }
        self.sharing.bump(&affected, &mut self.share_out);
        self.flush_share(api);
    }

    /// Periodic degradation-ladder evaluation (timer `TK_LADDER`).
    fn on_ladder_tick(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let now = api.now();
        let Some(tier) = self.media.as_ref().filter(|t| t.cfg.ladder) else {
            self.grading.arm_ladder(false);
            return;
        };
        let period = tier.cfg.ladder_period;
        let overloaded = tier.pressure.overloaded(now);
        let out = &mut self.grade_out;
        self.grading
            .ladder_tick(&self.sessions, now, overloaded, LADDER_HYSTERESIS, out);
        self.flush_grade(api);
        api.set_timer(self.node, period, timers::TK_LADDER, 0);
    }

    /// Apply what the grading core asked for, in the order it asked: the
    /// one place a regrade switches a stream's level and tells the client.
    /// Each output records its trace event before it sends anything.
    fn flush_grade(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let node = self.node;
        for o in self.grade_out.drain(..) {
            if let Some((severity, name, labels, value)) = o.event() {
                api.emit_val(node, severity, name, labels, value);
            }
            let stream = match o {
                GradeOut::Regrade(s, c, ..) | GradeOut::Stop(s, c) | GradeOut::Restart(s, c) => {
                    Self::stream_mut(&mut self.sessions, s, c)
                }
                _ => None,
            };
            match (o, stream) {
                (GradeOut::Touch(session), _) => {
                    if let Some(s) = self.sessions.get_mut(&session) {
                        s.utility_touch();
                    }
                }
                (GradeOut::Regrade(session, component, level, _), Some((client, tx))) => {
                    self.grading.force_level(session, component, level);
                    tx.set_level(level);
                    let level = level.0;
                    let msg = ServiceMsg::StreamRegraded {
                        session,
                        component,
                        level,
                    };
                    api.send_reliable(node, client, msg);
                }
                (GradeOut::Stop(session, component), Some((client, tx))) => {
                    tx.stopped = true;
                    let msg = ServiceMsg::StreamStopped { session, component };
                    api.send_reliable(node, client, msg);
                }
                (GradeOut::Restart(session, _), Some((_, tx))) => {
                    tx.stopped = false;
                    if let Some(gen) = self.life.rearm(&mut tx.chain) {
                        arm_stream(api, node, MediaDuration::ZERO, (session, gen));
                    }
                }
                (GradeOut::Stale(_), _) => self.ctrl_stats.stale_drops += 1,
                (GradeOut::Ladder(_, restore, _), _) => match self.media.as_mut() {
                    Some(t) if restore => t.stats.ladder_restores += 1,
                    Some(t) => t.stats.ladder_degrades += 1,
                    None => {}
                },
                _ => {} // a stream output whose stream is gone
            }
        }
    }

    // ------------------------------------------------------------------
    // Closed-loop control plane
    // ------------------------------------------------------------------

    /// Host the fleet controller on this server: install the policy with
    /// the standby media-node pool and arm the control tick; with HA enabled
    /// ([`enable_control_ha`](Self::enable_control_ha) first) the lease beat
    /// too.
    pub fn host_controller(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        standby: Vec<u64>,
    ) {
        let mut c = FleetController::new(cfg);
        c.set_standby(standby);
        self.election.host(c.epoch(), api.now(), &mut self.ha_out);
        self.controller = Some(c);
        api.set_timer(self.node, CONTROL_TICK, timers::TK_CONTROL, 0);
        self.flush_ha(api);
    }

    /// Arm controller failover on this server (see [`Election::enable`]).
    pub fn enable_control_ha(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        cfg: ControllerConfig,
        seed: ControlSnapshot,
    ) {
        let peers = self.peers.iter().map(|p| p.raw()).collect();
        self.ha_cfg = Some(cfg);
        self.election
            .enable(seed, peers, api.now(), &mut self.ha_out);
        self.flush_ha(api);
    }

    /// Start shipping periodic control-plane reports to `host`.
    pub fn enable_control_reports(&mut self, api: &mut SimApi<'_, ServiceMsg>, host: NodeId) {
        self.control_peer = Some(host);
        api.set_timer(self.node, REPORT_PERIOD, timers::TK_CONTROL_REPORT, 0);
    }

    /// Re-arm the control-plane timer chains after a restart (the old
    /// incarnation's timers died with the process). Leadership does NOT
    /// survive: `on_crash` demoted this node, which comes back as a
    /// reporting follower.
    pub fn rearm_control(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        if self.control_peer.is_some() {
            api.set_timer(self.node, REPORT_PERIOD, timers::TK_CONTROL_REPORT, 0);
        }
        self.election.restart(api.now(), &mut self.ha_out);
        self.flush_ha(api);
    }

    /// The epoch this server leads the control plane at, if it does.
    fn leading(&self) -> Option<u64> {
        self.controller.as_ref().map(|c| c.epoch())
    }

    /// A control-plane trace event about this server itself.
    fn ctrl_event(
        &self,
        api: &mut SimApi<'_, ServiceMsg>,
        severity: Severity,
        name: &'static str,
        value: i64,
    ) {
        let labels = Labels::for_peer(self.node.raw());
        api.emit_val(self.node, severity, name, labels, value);
    }

    /// Apply what the election asked for, in the order it asked.
    fn flush_ha(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let node = self.node;
        let cfg = self.ha_cfg;
        let mut out = std::mem::take(&mut self.ha_out);
        for o in out.drain(..) {
            match (o, cfg) {
                (HaOut::Send(to, msg), _) => {
                    api.send(node, NodeId::new(to), msg.into());
                }
                (HaOut::Promote(epoch), Some(cfg)) => {
                    let seed = self.election.snapshot();
                    let c = FleetController::from_snapshot(cfg, epoch, seed, api.now());
                    self.controller = Some(c);
                    self.ctrl_stats.elections += 1;
                    api.set_timer(node, CONTROL_TICK, timers::TK_CONTROL, 0);
                }
                (HaOut::Demote, _) => {
                    self.controller = None;
                    self.ctrl_stats.demotions += 1;
                }
                (HaOut::Repoint(holder), _) => self.control_peer = Some(NodeId::new(holder)),
                (HaOut::Price(price), _) => self.admission_price = price,
                (HaOut::ArmWatch, Some(_)) => {
                    api.set_timer(node, LEASE_BEAT, timers::TK_CTRL_WATCH, 0);
                }
                (HaOut::ArmBeat, Some(_)) => {
                    api.set_timer(node, LEASE_BEAT, timers::TK_CTRL_LEASE, 0);
                }
                (HaOut::Event(name, value), _) => {
                    self.ctrl_event(api, Severity::Warn, name, value);
                }
                // Only an enabled election promotes or arms a timer.
                (HaOut::Promote(_) | HaOut::ArmWatch | HaOut::ArmBeat, None) => {}
            }
        }
        self.ha_out = out;
        self.ctrl_stats.lease_beats = self.election.lease_beats;
    }

    /// True iff `epoch` is stale against the highest controller epoch this
    /// node has seen — in which case the command is counted and dropped
    /// (the fence).
    fn ctrl_fenced(&mut self, api: &mut SimApi<'_, ServiceMsg>, epoch: u64) -> bool {
        let fenced = !self.election.admit(epoch);
        if fenced {
            self.ctrl_stats.fence_drops += 1;
            self.ctrl_event(api, Severity::Warn, "ctrl_fence_drop", epoch as i64);
        }
        fenced
    }

    /// Timer `TK_CONTROL_REPORT`: build this server's control-plane
    /// report (pressure verdict, SLO burn, per-session stream grades) once
    /// and ship it to the controller host; every copy shares it. Also
    /// advances every live session's utility integral, bounding the
    /// published integral's tail error by one report period.
    fn on_control_report(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some(peer) = self.control_peer else {
            return;
        };
        let now = api.now();
        for s in self.sessions.values_mut() {
            s.utility_touch();
        }
        let me = self.node.raw();
        let pressured = self
            .media
            .as_ref()
            .is_some_and(|t| t.pressure.overloaded(now));
        // SLO burn-rate: evaluate multi-window alerts and ship the max burn
        // (milli-burn units) as a leading pressure signal — fetch latency
        // crosses its threshold several control ticks before queue depth.
        // A fetch outstanding past the threshold is a bad sample now.
        if let Some(t) = self.media.as_mut() {
            let late = t.newly_late(now, SLO_FETCH_THRESHOLD);
            self.slo.record(now, SLO_FETCH, late, late);
        }
        for alert in self.slo.check(now) {
            let burn = (alert.fast_burn * 100.0) as i64;
            self.ctrl_event(api, Severity::Warn, "slo_alert", burn);
        }
        let burn = self.slo.max_burn(now) * 1000.0;
        let sessions = self.sessions.iter().filter(|(_, s)| !s.life.suspended());
        let rows = sessions.map(|(sid, s)| {
            let streams = s
                .streams()
                .filter(|v| v.kind.is_continuous() && !v.done && !v.stopped)
                .map(|v| hermes_control::StreamView {
                    component: v.component.raw(),
                    kind: v.kind,
                    level: v.level.0,
                    max_level: v.max_level.0,
                });
            (sid.raw(), s.class, streams)
        });
        let pressure = if pressured { 1.0 } else { 0.0 };
        let report = LoadReport::server(me, Some(pressure), Some(burn), rows);
        self.election.report_sent(now);
        let epoch = self.election.fence();
        let msg = || ServiceMsg::ControlReport {
            report: report.clone(),
            epoch,
        };
        if peer == self.node {
            // The hosting server's own report short-circuits the wire.
            if let Some(c) = self.controller.as_mut() {
                c.ingest(now, me, report.clone());
            }
        } else {
            api.send_reliable(self.node, peer, msg());
        }
        // With HA on, every other server gets a best-effort copy too: the
        // broadcast is the failover election's liveness signal ("report-
        // reachable peers") and pre-warms whoever wins with fleet state.
        if self.election.enabled() {
            for &p in self.peers.iter().filter(|&&p| p != peer) {
                api.send(self.node, p, msg());
            }
        }
        api.set_timer(self.node, REPORT_PERIOD, timers::TK_CONTROL_REPORT, 0);
    }

    /// Timer `TK_CONTROL`: evaluate one fleet control tick and actuate the
    /// plan — grade steps to owning servers, the admission price to every
    /// server, scale commands toward the media tier (the world intercepts
    /// them to rebuild placements).
    fn on_control_tick(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let (now, leading) = (api.now(), self.leading());
        self.election.quorum(now, leading, &mut self.ha_out);
        self.flush_ha(api);
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let epoch = c.epoch();
        let plan = c.tick(now);
        if plan.pressured() {
            // Which signal families voted pressure this tick (bit 0 CoDel,
            // bit 1 queue depth, bit 2 SLO burn) — exp_slo measures the
            // burn-rate lead time from these markers.
            let sources = plan.sources as i64;
            self.ctrl_event(api, Severity::Info, "ctrl_pressure_src", sources);
        }
        let pressured = plan.pressured() as i64;
        self.ctrl_event(api, Severity::Info, "ctrl_overload", pressured);
        if !plan.commands.is_empty() {
            // One actuation marker per commanding tick, stamped with the
            // epoch: the chaos invariant proves at most one controller
            // actuates at a time and epochs never move backwards.
            self.ctrl_event(api, Severity::Info, "ctrl_actuate", epoch as i64);
        }
        for cmd in plan.commands {
            match cmd {
                ControlCommand::Degrade { server, session }
                | ControlCommand::Upgrade { server, session } => {
                    let upgrade = matches!(cmd, ControlCommand::Upgrade { .. });
                    let name = ["ctrl_degrade_cmd", "ctrl_upgrade_cmd"][upgrade as usize];
                    let labels = Labels::session(session).peer(server);
                    api.emit(self.node, Severity::Info, name, labels);
                    let session = SessionId::new(session);
                    if server == self.node.raw() {
                        let out = &mut self.grade_out;
                        self.grading.control(&self.sessions, session, upgrade, out);
                        self.flush_grade(api);
                    } else {
                        let msg = ServiceMsg::ControlRegrade {
                            session,
                            upgrade,
                            epoch,
                        };
                        api.send_reliable(self.node, NodeId::new(server), msg);
                    }
                }
                ControlCommand::SetPrice { shed } => {
                    self.ctrl_event(api, Severity::Info, "ctrl_price", shed as i64);
                    self.admission_price = shed;
                    for peer in self.peers.clone() {
                        api.send_reliable(
                            self.node,
                            peer,
                            ServiceMsg::ControlDirective { shed, epoch },
                        );
                    }
                }
                ControlCommand::ScaleOut { node } | ControlCommand::ScaleIn { node } => {
                    let active = matches!(cmd, ControlCommand::ScaleOut { .. });
                    let (severity, name) = if active {
                        (Severity::Warn, "ctrl_scale_out")
                    } else {
                        (Severity::Info, "ctrl_scale_in")
                    };
                    api.emit(self.node, severity, name, Labels::for_peer(node));
                    api.send_reliable(
                        self.node,
                        NodeId::new(node),
                        ServiceMsg::ControlScale { active, epoch },
                    );
                }
            }
        }
        api.set_timer(self.node, CONTROL_TICK, timers::TK_CONTROL, 0);
    }

    /// Controller-driven elastic rebalance: swap the tier's placement map
    /// and re-point exactly the streams whose current replica no longer
    /// hosts their object — under rendezvous hashing that is the minimal
    /// moved key range. `drain` names a node being scaled in.
    pub fn rebalance_media(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        placement: PlacementMap,
        drain: Option<NodeId>,
    ) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let lost = tier.drain(&*api, placement, drain, &mut self.fetch.out);
        Self::forget_lost(&mut self.sessions, &lost);
        let affected: Vec<(SessionId, ComponentId)> = Self::live_streams(&mut self.sessions)
            .filter(|(_, _, r)| !tier.placement.replicas(&r.object).contains(&r.replica))
            .map(|(sid, cid, _)| (sid, cid))
            .collect();
        // One stream at a time, unlike a failover: restart, then refill.
        for &(sid, cid) in &affected {
            if let Some((_, r)) = Self::live_stream(&mut self.sessions, sid, cid) {
                r.restart(sid, cid, &mut self.fetch.out);
            }
            self.repump_stream(api, sid, cid);
        }
        self.fetch.flush(api, &mut self.slo);
        self.sharing.bump(&affected, &mut self.share_out);
        self.flush_share(api);
    }

    /// A media node crashed or restarted: every stream pulling from it
    /// drops its in-flight window and re-points at the best live replica.
    pub fn on_media_node_event(&mut self, api: &mut SimApi<'_, ServiceMsg>, media_node: NodeId) {
        let Some(tier) = self.media.as_mut() else {
            return;
        };
        let up = api.node_is_up(media_node);
        let lost = tier.node_event(up, api.now(), media_node, &mut self.fetch.out);
        Self::forget_lost(&mut self.sessions, &lost);
        let affected = self.restart_streams_on(media_node);
        self.fetch.flush(api, &mut self.slo);
        for &(sid, cid) in &affected {
            // No live replica: parked until a restart event re-points us.
            if self.repump_stream(api, sid, cid) {
                if let Some(tier) = self.media.as_mut() {
                    tier.stats.failovers += 1;
                }
            }
        }
        self.flush_woken(api);
        self.sharing.bump(&affected, &mut self.share_out);
        self.flush_share(api);
        self.drain_breaker_events(api);
    }

    /// A stream timer fired: send on the stream the lifecycle core names.
    fn on_stream_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, payload: u64) {
        let (session, gen) = timers::unpack(payload);
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let chains = s.streams.iter_mut().map(|(c, tx)| (*c, &mut tx.chain));
        if let Some(component) = lifecycle::fire(s.life.phase, gen, chains) {
            self.send_stream(api, (session, component));
        }
    }

    /// Send stream `(session, component)`'s next frame, or its discrete
    /// object whole: a stream timer fired, or the object's bytes just
    /// arrived. With a media tier the fetch window is pumped first; a dry
    /// window re-arms the stream's timer.
    fn send_stream(&mut self, api: &mut SimApi<'_, ServiceMsg>, stream: (SessionId, ComponentId)) {
        let (node, (session, component)) = (self.node, stream);
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        let client = s.client;
        let Some(tx) = s.streams.get_mut(&component) else {
            return;
        };
        if tx.done || tx.stopped {
            return;
        }
        if let Some(limit) = tx.patch_until {
            // Patch complete: the stream's next pts is carried by the
            // shared flow. Strictly exclusive — equal pts stops here.
            if tx.source.next_pts() >= limit {
                tx.done = true;
                return;
            }
        }
        // Media tier: top up the fetch window, then gate the send on fetched
        // content — the pacer only advances once the frame's bytes (or the
        // object's) have actually come off the wire from a replica (or the
        // cache). Until then, poll. A pacer with nothing left to send needs
        // no frame to find that out.
        let demand = tx.demand(session, component, s.class);
        if let (Some(tier), Some(r)) = (self.media.as_mut(), tx.remote.as_mut()) {
            tier.pump(&*api, api.now(), &demand, r, &mut self.fetch.out);
            self.fetch.flush(api, &mut self.slo);
            if r.ready.is_empty() && demand.frames_needed > 0 {
                tier.stats.stalls += 1;
                let gen = self.life.arm(&mut tx.chain);
                return arm_stream(api, node, STALL_POLL, (session, gen));
            }
        }
        let now = api.now();
        if !tx.plan.kind.is_continuous() {
            let fetched = tx.remote.as_ref().and_then(|r| r.ready.front());
            let total = match fetched {
                Some(spec) => spec.size,
                None => {
                    let first = tx.source.clone().next_frame();
                    first.map(|f| f.size).unwrap_or(10_000)
                }
            };
            tx.done = true;
            tx.frames_sent = 1;
            tx.bytes_sent = total as u64;
            s.life.last_media = now;
            // Segment to MTU-sized chunks, as TCP would.
            const SEGMENT: u32 = 1_400;
            let mut remaining = total;
            loop {
                let size = remaining.min(SEGMENT);
                remaining -= size;
                let last = remaining == 0;
                let msg = ServiceMsg::DiscreteData {
                    session,
                    component,
                    size,
                    total,
                    last,
                    sent_at: now,
                };
                api.send_reliable(node, client, msg);
                if last {
                    return;
                }
            }
        }
        // A group leader's streams feed the whole group: one multicast send
        // replaces the per-member unicasts (single copy per egress link).
        let shared = self.sharing.leads(session);
        let fetched = tx.remote.as_mut().and_then(|r| r.ready.pop_front());
        match tx.source.next_frame() {
            Some(frame) => {
                if let Some(spec) = fetched {
                    // The fetched spec and the pacer derive from the same
                    // deterministic codec model — they must agree exactly.
                    debug_assert_eq!((spec.size, spec.key), (frame.size, frame.key));
                }
                tx.frames_sent += 1;
                tx.bytes_sent += frame.size as u64;
                let mut send = |msg| match shared {
                    Some(gid) => {
                        api.send_mcast(node, gid, msg);
                    }
                    None => {
                        api.send(node, client, msg);
                    }
                };
                for packet in tx.sender.packetize(&frame) {
                    send(ServiceMsg::RtpData {
                        session,
                        component,
                        packet,
                        sent_at: now,
                    });
                }
                if shared.is_some() {
                    self.sharing_stats.mcast_frames += 1;
                }
                // Periodic RTCP sender report (RFC 3550): every 64 frames.
                if tx.frames_sent % 64 == 1 {
                    send(ServiceMsg::RtcpSenderReport {
                        session,
                        component,
                        packet: tx.sender.sender_report(now),
                    });
                }
                let period = tx.source.model().level(tx.source.level()).frame_period();
                let gen = self.life.arm(&mut tx.chain);
                arm_stream(api, node, period, (session, gen));
                s.life.last_media = now;
            }
            None => {
                tx.done = true;
                if let Some(r) = tx.remote.as_mut() {
                    r.release();
                }
                // The group ends when the leader's last continuous stream
                // finishes; members keep draining their playout buffers.
                let mut continuous = s.streams.values().filter(|t| t.plan.kind.is_continuous());
                if let Some(gid) = shared.filter(|_| continuous.all(|t| t.done || t.stopped)) {
                    let cache = self.media.as_mut().map(|t| &mut t.cache);
                    self.sharing.end(gid, cache, &mut self.share_out);
                    self.flush_share(api);
                }
            }
        }
    }

    /// Step `session`'s phase on the client's `input`.
    fn step(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId, input: Input) {
        let life = self.sessions.get_mut(&session).map(|s| &mut s.life);
        self.life.input(life, session, input, &mut self.life_out);
        self.flush_life(api);
    }

    /// Apply what the lifecycle core asked for, in the order it asked: the
    /// one place lifecycle timers are armed and topic lists are sent.
    fn flush_life(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let node = self.node;
        let mut out = std::mem::take(&mut self.life_out);
        for (session, o) in out.drain(..) {
            // The core answers only for live sessions.
            let Some(s) = self.sessions.get_mut(&session) else {
                continue;
            };
            let (client, id) = (s.client, session.raw());
            match o {
                LifeOut::ArmHeartbeat => {
                    api.set_timer(node, self.cfg.heartbeat_interval, timers::TK_HEARTBEAT, id)
                }
                LifeOut::ArmGrace(until) => {
                    api.set_timer(node, until - api.now(), timers::TK_GRACE, id);
                }
                LifeOut::Beat(seq) => {
                    api.send(node, client, ServiceMsg::Heartbeat { session, seq });
                }
                // A pending timer (an image's send start) stays as it was.
                LifeOut::Rearm => {
                    let live = s.streams.values_mut().filter(|tx| !tx.done && !tx.stopped);
                    for tx in live {
                        if let Some(gen) = self.life.rearm(&mut tx.chain) {
                            arm_stream(api, node, MediaDuration::ZERO, (session, gen));
                        }
                    }
                }
                LifeOut::Topics => {
                    let topics = Arc::clone(self.db.topics());
                    api.send_reliable(node, client, ServiceMsg::TopicList { session, topics });
                }
                // A client silent for the timeout is dead weight: reaping it
                // returns its admission reservation to the pool.
                LifeOut::Expired => {
                    let labels = Labels::session(id).peer(client.raw());
                    api.emit(node, Severity::Warn, "client_expired", labels);
                    self.teardown_session(api, session);
                }
                LifeOut::GraceExpired => {
                    self.teardown_session(api, session);
                    api.send_reliable(node, client, ServiceMsg::SuspendExpired { session });
                }
            }
        }
        self.life_out = out;
    }

    fn teardown_session(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        self.leave_group(api, session);
        self.release_session_readers(session);
        self.release_admission(api, session);
        if let Some(s) = self.sessions.remove(&session) {
            let labels = Labels::session(session.raw());
            let gone = (Severity::Info, "session_teardown", labels);
            self.retire(api, session, s, gone);
        }
    }

    /// A session is gone (torn down, or lost in a crash): fold its utility
    /// integral into the closed ledger, so `server.utility_acc` keeps
    /// counting what it delivered, drop its grading state, and record its
    /// terminal `event` and span ends.
    fn retire(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        mut s: SessionState,
        (severity, name, labels): (Severity, &'static str, Labels),
    ) {
        s.utility_touch();
        self.util_closed += s.util_acc;
        self.grading.reset(session);
        api.emit(self.node, severity, name, labels);
        api.span_end(s.obs_admission);
        api.span_end(s.obs_root);
    }

    /// Snapshot this server's counters into the unified metrics registry.
    /// Every metric is labelled with the server's node id (`peer`) so a
    /// multi-server world publishes without key collisions.
    pub fn publish_metrics(&self, obs: &mut Obs) {
        let l = Labels::for_peer(self.node.raw());
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut requests = 0u64;
        for cs in self.admission.stats.values() {
            requests += cs.requests;
            admitted += cs.admitted;
            rejected += cs.rejected;
        }
        obs.registry
            .counter_set("server.admit_requests", l, requests);
        obs.registry.counter_set("server.admitted", l, admitted);
        obs.registry
            .counter_set("server.admit_rejected", l, rejected);
        obs.registry
            .gauge_set("server.sessions", l, self.sessions.len() as f64);
        let sh = self.sharing_stats;
        for (name, count) in [
            ("server.share_groups_opened", sh.groups_opened),
            ("server.share_joins_pending", sh.joins_pending),
            ("server.share_joins_patched", sh.joins_patched),
            ("server.share_patch_streams", sh.patch_streams),
            ("server.share_mcast_frames", sh.mcast_frames),
            ("server.share_epoch_bumps", sh.epoch_bumps),
        ] {
            obs.registry.counter_set(name, l, count);
        }
        if let Some(tier) = self.media.as_ref() {
            let (st, c) = (tier.stats, tier.cache.stats);
            for (name, count) in [
                ("server.fetches", st.fetches),
                ("server.chunks", st.chunks),
                ("server.stalls", st.stalls),
                ("server.failovers", st.failovers),
                ("server.fetch_errors", st.fetch_errors),
                ("server.fetch_busy", st.busy),
                ("server.hedges", st.hedges),
                ("server.hedge_wins", st.hedge_wins),
                ("server.breaker_trips", st.breaker_trips),
                ("server.fetches_lost", st.fetches_lost),
                ("server.parts_received", st.parts_received),
                ("server.ladder_degrades", st.ladder_degrades),
                ("server.ladder_restores", st.ladder_restores),
                ("server.cache_hits", c.hits),
                ("server.cache_misses", c.misses),
                ("server.cache_evicted", c.evicted),
            ] {
                obs.registry.counter_set(name, l, count);
            }
            obs.registry
                .hist_set("server.fetch_latency", l, tier.fetch_latency.clone());
        }
        // Aggregate delivered utility: closed sessions' ledger plus every
        // live session's integral (advanced at the report cadence).
        let live: f64 = self.sessions.values().map(|s| s.util_acc).sum();
        obs.registry
            .gauge_set("server.utility_acc", l, self.util_closed + live);
        obs.registry
            .gauge_set("server.admission_price", l, self.admission_price as f64);
        if let Some(st) = self.controller.as_ref().map(|c| c.stats) {
            for (name, count) in [
                ("ctrl.ticks", st.ticks),
                ("ctrl.pressured_ticks", st.pressured_ticks),
                ("ctrl.degrades", st.degrades),
                ("ctrl.upgrades", st.upgrades),
                ("ctrl.price_changes", st.price_changes),
                ("ctrl.scale_outs", st.scale_outs),
                ("ctrl.scale_ins", st.scale_ins),
                ("ctrl.cold_ticks", st.cold_ticks),
            ] {
                obs.registry.counter_set(name, l, count);
            }
        }
        // HA: which controller was in charge (highest epoch this node
        // accepted) and what got fenced — first-class, so exp tables and
        // flight dumps can show the failover story without trace parsing.
        obs.registry
            .gauge_set("control.epoch", l, self.election.fence() as f64);
        let st = self.ctrl_stats;
        for (name, count) in [
            ("control.fence_drops", st.fence_drops),
            ("control.stale_drops", st.stale_drops),
            ("control.elections", st.elections),
            ("control.demotions", st.demotions),
            ("control.lease_beats", st.lease_beats),
        ] {
            obs.registry.counter_set(name, l, count);
        }
    }

    fn on_disconnect(&mut self, api: &mut SimApi<'_, ServiceMsg>, session: SessionId) {
        if let Some((s, u)) = self.sessions.get(&session).and_then(|s| Some((s, s.user?))) {
            let bytes: u64 = s.streams.values().map(|t| t.bytes_sent).sum();
            let dur = api.now() - s.life.connected_at;
            self.accounts.charge(u, Charge::Duration(dur));
            self.accounts.charge(u, Charge::Volume(bytes));
        }
        self.teardown_session(api, session);
    }

    fn local_hits(&self, token: &str) -> Vec<SearchHit> {
        self.db
            .search(token)
            .into_iter()
            .map(|(document, title)| SearchHit {
                server: self.server_id,
                document,
                title,
            })
            .collect()
    }

    fn on_search_request(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        token: String,
        query: u64,
    ) {
        let Some(s) = self.sessions.get(&session) else {
            return;
        };
        let client = s.client;
        let hits = self.local_hits(&token);
        if self.peers.is_empty() {
            api.send_reliable(
                self.node,
                client,
                ServiceMsg::SearchResponse {
                    session,
                    query,
                    hits,
                },
            );
            return;
        }
        self.queries.insert(
            query,
            PendingQuery {
                session,
                client,
                hits,
                awaiting: self.peers.len(),
            },
        );
        // "this particular server sends the query to all other Hermes
        // servers for the same reason" (§6.2.2).
        for peer in self.peers.clone() {
            api.send_reliable(
                self.node,
                peer,
                ServiceMsg::SearchFanout {
                    query,
                    token: token.clone(),
                    origin: self.node,
                },
            );
        }
    }

    fn on_search_partial(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        query: u64,
        hits: Vec<SearchHit>,
    ) {
        let Some(q) = self.queries.get_mut(&query) else {
            return;
        };
        q.hits.extend(hits);
        q.awaiting -= 1;
        if q.awaiting > 0 {
            return;
        }
        if let Some(PendingQuery {
            session,
            client,
            hits,
            ..
        }) = self.queries.remove(&query)
        {
            let msg = ServiceMsg::SearchResponse {
                session,
                query,
                hits,
            };
            api.send_reliable(self.node, client, msg);
        }
    }
}
