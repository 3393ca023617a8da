//! The browser/client actor: drives the Fig. 4 state machine, receives
//! scenarios, manages per-stream RTP receivers, buffers, playout and QoS
//! feedback — the right half of paper Fig. 3, wired to the simulator.

use crate::protocol::{MailMessage, SearchHit, ServiceMsg};
use crate::timers;
use hermes_client::{
    AppEvent, AppStateMachine, BufferConfig, ClientQosManager, PlayoutConfig, PlayoutEngine,
};
use hermes_core::{
    ComponentContent, ComponentId, DocumentId, LinkTarget, MediaDuration, MediaTime, NodeId,
    PlayoutSchedule, PricingClass, QosMeasurement, Scenario, ServerId, SessionId, UserId, VecMap,
};
use hermes_media::MediaFrame;
use hermes_rtp::RtpReceiver;
use hermes_server::{RetryBudget, SubscriptionForm, TopicEntry};
use hermes_simnet::obs::{SloMonitor, SloSpec};
use hermes_simnet::{Labels, Obs, Severity, SimApi, SpanId};
use std::collections::BTreeMap;

/// The presentation currently being received/played.
pub struct Presentation {
    /// The document.
    pub document: DocumentId,
    /// The parsed scenario.
    pub scenario: Scenario,
    /// The derived schedule.
    pub schedule: PlayoutSchedule,
    /// The playout engine.
    pub engine: PlayoutEngine,
    /// RTP receivers per continuous component.
    pub receivers: VecMap<ComponentId, RtpReceiver>,
    /// Separate receivers for unicast patch streams (stream sharing): the
    /// patch sender uses its own RTP sequence space, so reassembly must not
    /// mix its packets with the shared flow's.
    pub patch_receivers: VecMap<ComponentId, RtpReceiver>,
    /// Per-frame reassembly counters (frames delivered per component).
    pub frames_received: VecMap<ComponentId, u64>,
    /// Bytes accumulated for in-flight discrete objects, per component.
    pub discrete_partial: VecMap<ComponentId, u32>,
    /// The flow lead the server applied.
    pub lead: MediaDuration,
    /// When the scenario arrived (prefill delay measured from here).
    pub scenario_at: MediaTime,
    /// When playout started (None until the prefill completes).
    pub started_at: Option<MediaTime>,
    /// When the user paused, if currently paused.
    pub paused_at: Option<MediaTime>,
    /// Ticking is active.
    pub ticking: bool,
    /// The timed (`AT`) auto-link already fired for this presentation.
    pub auto_link_fired: bool,
    /// The open prefill span: scenario arrival → playout start (null when
    /// tracing is off or already closed).
    pub obs_prefill: SpanId,
    /// The playout span: start → completion (null until started).
    pub obs_playout: SpanId,
    /// Glitch total at the last tick (playout-gap delta detection).
    pub obs_glitches: u64,
    /// Tick counter for sampled trace emissions.
    pub obs_ticks: u32,
}

impl Presentation {
    /// The intentional initial delay experienced (start − scenario arrival).
    pub fn startup_delay(&self) -> Option<MediaDuration> {
        self.started_at.map(|t| t - self.scenario_at)
    }
}

/// Playout tick interval.
const TICK_INTERVAL: MediaDuration = MediaDuration::from_millis(20);
/// Give up waiting for prefill after this long and start anyway.
const MAX_START_DELAY: MediaDuration = MediaDuration::from_secs(8);
/// Declare the server dead after this many silent heartbeat intervals.
const MISSED_BEATS: u32 = 3;
/// Base retransmission interval for tracked control requests (doubles per
/// attempt).
const RETRY_INTERVAL: MediaDuration = MediaDuration::from_millis(500);
/// Give up on a tracked request after this many transmissions.
const RETRY_BUDGET: u32 = 10;
/// Retry-budget token bucket capacity shared by all tracked requests: each
/// resend spends a token, each acknowledgement refills one, and an empty
/// bucket suppresses resends (the backoff clock keeps running) so a
/// recovering server sees a bounded wave, not a storm.
const RETRY_TOKENS: u32 = 16;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Pricing contract used at connect time.
    pub class: PricingClass,
    /// Per-stream buffer configuration (media time window).
    pub buffer: BufferConfig,
    /// Playout/recovery configuration.
    pub playout: PlayoutConfig,
    /// Period between QoS feedback reports.
    pub feedback_interval: MediaDuration,
    /// Automatically follow timed (`AT`) links when a presentation ends.
    pub auto_follow_links: bool,
    /// The subscription form used when the server requires enrolment.
    pub form: SubscriptionForm,
    /// Expected server heartbeat cadence (must match the server's
    /// `heartbeat_interval`); also the liveness-check cadence.
    pub heartbeat_interval: MediaDuration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            class: PricingClass::Standard,
            buffer: BufferConfig::default(),
            playout: PlayoutConfig::default(),
            feedback_interval: MediaDuration::from_millis(1_000),
            auto_follow_links: false,
            form: SubscriptionForm {
                name: "Test User".into(),
                address: "1 Simulation Way".into(),
                telephone: "000".into(),
                email: "user@hermes".into(),
                class: PricingClass::Standard,
            },
            heartbeat_interval: MediaDuration::from_millis(400),
        }
    }
}

/// A tracked control request awaiting its acknowledgement.
#[derive(Debug, Clone)]
struct PendingReq {
    server: NodeId,
    msg: ServiceMsg,
    attempts: u32,
}

/// The browser actor.
pub struct ClientActor {
    /// The node this client runs on.
    pub node: NodeId,
    /// Configuration.
    pub cfg: ClientConfig,
    /// Fig. 4 state machine.
    pub machine: AppStateMachine,
    /// Subscribed identity, once known.
    pub user: Option<UserId>,
    /// The active (server node, session).
    pub session: Option<(NodeId, SessionId)>,
    /// A suspended (server node, session) kept during migration.
    pub suspended: Option<(NodeId, SessionId)>,
    /// Topics last received.
    pub topics: Vec<TopicEntry>,
    /// The current presentation.
    pub presentation: Option<Presentation>,
    /// The client QoS manager.
    pub qos: ClientQosManager,
    /// ServerId → NodeId directory (for remote links), set by the world.
    pub directory: BTreeMap<ServerId, NodeId>,
    /// Completed presentations (document, startup delay, max skew µs).
    pub completed: Vec<(DocumentId, MediaDuration, MediaDuration)>,
    /// Browser history: documents viewed, oldest first (§6.2.3: "moving
    /// backward and forward in the list of already viewed lessons").
    pub history: Vec<DocumentId>,
    /// Cursor into `history` for back/forward navigation.
    history_cursor: usize,
    /// Search results by query id.
    pub search_results: BTreeMap<u64, Vec<SearchHit>>,
    /// Fetched mailbox.
    pub mailbox: Vec<MailMessage>,
    /// Fetched annotations by document.
    pub annotations: BTreeMap<DocumentId, Vec<String>>,
    /// Document queued to request once a connection/topic list is ready.
    pub pending_request: Option<DocumentId>,
    /// Human-readable event log.
    pub log: Vec<(MediaTime, String)>,
    /// Errors received (DocError / ConnectReject reasons).
    pub errors: Vec<String>,
    /// The in-flight document request is a history navigation (don't extend
    /// the history when its scenario arrives).
    history_nav: bool,
    next_query: u64,
    /// Tracked requests not yet acknowledged, by request id.
    pending_reqs: VecMap<u64, PendingReq>,
    /// Token bucket gating tracked-request retransmissions (PR 1's backoff
    /// decides *when* to resend; the budget decides *whether*).
    pub retries: RetryBudget,
    next_req: u64,
    /// Last instant anything (heartbeat, stream data, control) arrived from
    /// the session's server.
    last_server_activity: MediaTime,
    /// The liveness-check timer chain is running.
    liveness_armed: bool,
    /// True when the failure detector (not the user) paused the playout.
    liveness_paused: bool,
    /// Recovery in progress since this instant (failure-detector verdict).
    pub recovering: Option<MediaTime>,
    /// Completed recoveries: (failure detected, session recovered).
    pub recoveries: Vec<(MediaTime, MediaTime)>,
    /// The shared delivery group this session rides, with its epoch
    /// (stream sharing; None for a private unicast flow).
    pub shared_group: Option<(u64, u64)>,
    /// SLO burn-rate monitor over playout continuity: each playout tick is
    /// a sample, each tick that surfaced a glitch is a bad one (`slo.gap`,
    /// budget 10 gap-ticks per 1000).
    pub slo: SloMonitor,
    /// Instant of the last SLO sample — `publish_metrics` has no clock, so
    /// burn gauges are evaluated as of the final playout tick.
    slo_now: MediaTime,
}

impl ClientActor {
    /// Create a client on a node.
    pub fn new(node: NodeId, cfg: ClientConfig) -> Self {
        let retries = RetryBudget::new(RETRY_TOKENS);
        ClientActor {
            node,
            cfg,
            machine: AppStateMachine::new(),
            user: None,
            session: None,
            suspended: None,
            topics: Vec::new(),
            presentation: None,
            qos: ClientQosManager::default(),
            directory: BTreeMap::new(),
            completed: Vec::new(),
            history: Vec::new(),
            history_cursor: 0,
            search_results: BTreeMap::new(),
            mailbox: Vec::new(),
            annotations: BTreeMap::new(),
            pending_request: None,
            log: Vec::new(),
            errors: Vec::new(),
            history_nav: false,
            next_query: 1,
            pending_reqs: VecMap::new(),
            retries,
            next_req: 1,
            last_server_activity: MediaTime::ZERO,
            liveness_armed: false,
            liveness_paused: false,
            recovering: None,
            recoveries: Vec::new(),
            shared_group: None,
            slo: SloMonitor::new(vec![SloSpec::event_rate("slo.gap", 10.0)]),
            slo_now: MediaTime::ZERO,
        }
    }

    /// Send a control message wrapped in a tracked envelope: retransmitted
    /// with exponential backoff until the server acknowledges the request id
    /// or the retry budget runs out. Survives server crashes that the
    /// transport-level ARQ cannot see (the packet is "delivered" to a dead
    /// process).
    fn send_tracked(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        server: NodeId,
        msg: ServiceMsg,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        // Requests are acked one at a time, and the map outlives them: grow
        // it by one entry, not to a vector's first four.
        self.pending_reqs.reserve_exact(1);
        self.pending_reqs.insert(
            req,
            PendingReq {
                server,
                msg: msg.clone(),
                attempts: 0,
            },
        );
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::Tracked {
                req,
                inner: Box::new(msg),
            },
        );
        api.set_timer(self.node, RETRY_INTERVAL, timers::TK_RETRY, req);
        req
    }

    fn retry_tracked(&mut self, api: &mut SimApi<'_, ServiceMsg>, req: u64) {
        let Some(p) = self.pending_reqs.get_mut(&req) else {
            return; // acknowledged meanwhile
        };
        p.attempts += 1;
        if p.attempts >= RETRY_BUDGET {
            let attempts = p.attempts;
            let p = self.pending_reqs.remove(&req).unwrap();
            self.errors.push(format!(
                "tracked request {req} abandoned after {attempts} attempts"
            ));
            self.note(api.now(), format!("giving up on request {req}"));
            // Abandoning a session-establishing request must not leave a
            // phantom session behind: tear back down to disconnected.
            match p.msg {
                ServiceMsg::Connect { .. } | ServiceMsg::ReconnectRequest { .. } => {
                    let session = self.session.map(|(_, s)| s.raw()).unwrap_or(0);
                    api.emit_val(
                        self.node,
                        Severity::Error,
                        "session_abandoned",
                        Labels::session(session),
                        attempts as i64,
                    );
                    api.flight_dump(self.node, "session_abandoned", Labels::session(session));
                    self.session = None;
                    self.recovering = None;
                    self.presentation = None;
                    if self.machine.apply(AppEvent::Disconnect).is_err() {
                        let _ = self.machine.apply(AppEvent::AdmissionRejected);
                    }
                }
                ServiceMsg::DocRequest { .. } => {
                    let _ = self.machine.apply(AppEvent::RequestFailed);
                }
                _ => {}
            }
            return;
        }
        let (server, msg, attempts) = (p.server, p.msg.clone(), p.attempts);
        let backoff = RETRY_INTERVAL * (1i64 << attempts.min(5));
        // The backoff clock always runs; the retry budget decides whether
        // this tick actually reaches the wire. An empty bucket means too
        // many unacknowledged resends are already in flight — let the
        // attempt counter advance toward abandonment without amplifying.
        if self.retries.try_spend() {
            api.send_reliable(
                self.node,
                server,
                ServiceMsg::Tracked {
                    req,
                    inner: Box::new(msg),
                },
            );
        }
        api.set_timer(self.node, backoff, timers::TK_RETRY, req);
    }

    /// Tracked requests still awaiting acknowledgement (test/diagnostics).
    pub fn pending_tracked(&self) -> usize {
        self.pending_reqs.len()
    }

    fn arm_liveness(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        self.last_server_activity = api.now();
        if !self.liveness_armed {
            self.liveness_armed = true;
            api.set_timer(
                self.node,
                self.cfg.heartbeat_interval,
                timers::TK_LIVENESS,
                0,
            );
        }
    }

    fn check_liveness(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some((server, session)) = self.session else {
            self.liveness_armed = false;
            return;
        };
        let now = api.now();
        let timeout = self.cfg.heartbeat_interval * MISSED_BEATS as i64;
        if self.recovering.is_none() && now - self.last_server_activity > timeout {
            // K beats missed: declare the server dead and reconnect. The
            // playout clock freezes at the detection instant; a successful
            // recovery shifts it by the outage length, exactly like a
            // user pause/resume.
            self.recovering = Some(now);
            api.emit_val(
                self.node,
                Severity::Warn,
                "server_silent",
                Labels::session(session.raw()).peer(server.raw()),
                MISSED_BEATS as i64,
            );
            self.note(
                now,
                format!("server silent for {} beats — reconnecting", MISSED_BEATS),
            );
            let (document, position_micros) = match &mut self.presentation {
                Some(p) if p.started_at.is_some() => {
                    if p.paused_at.is_none() {
                        p.paused_at = Some(now);
                        self.liveness_paused = true;
                    }
                    let pos = p
                        .engine
                        .presentation_start
                        .map(|t0| (p.paused_at.unwrap() - t0).as_micros())
                        .unwrap_or(0)
                        .max(0);
                    (Some(p.document), pos)
                }
                Some(p) => (Some(p.document), 0),
                None => (self.pending_request, 0),
            };
            self.send_tracked(
                api,
                server,
                ServiceMsg::ReconnectRequest {
                    session,
                    user: self.user,
                    class: self.cfg.class,
                    document,
                    position_micros,
                },
            );
        }
        api.set_timer(
            self.node,
            self.cfg.heartbeat_interval,
            timers::TK_LIVENESS,
            0,
        );
    }

    fn note(&mut self, at: MediaTime, msg: impl Into<String>) {
        self.log.push((at, msg.into()));
    }

    /// User action: connect to a server, optionally queueing a document to
    /// request as soon as the topic list arrives.
    pub fn connect(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        server: NodeId,
        request: Option<DocumentId>,
    ) {
        if self.machine.apply(AppEvent::Connect).is_err() {
            return;
        }
        self.pending_request = request;
        let msg = ServiceMsg::Connect {
            user: self.user,
            class: self.cfg.class,
        };
        self.note(api.now(), format!("connect → node {server}"));
        self.send_tracked(api, server, msg);
        self.session = Some((server, SessionId::new(0))); // placeholder until ack
    }

    /// User action: request a document from the connected server.
    pub fn request_document(&mut self, api: &mut SimApi<'_, ServiceMsg>, doc: DocumentId) {
        let Some((server, session)) = self.session else {
            return;
        };
        if self.machine.apply(AppEvent::RequestDocument).is_err() {
            return;
        }
        self.note(api.now(), format!("request {doc}"));
        self.send_tracked(
            api,
            server,
            ServiceMsg::DocRequest {
                session,
                document: doc,
            },
        );
    }

    /// User action: pause the presentation.
    pub fn pause(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some((server, session)) = self.session else {
            return;
        };
        if self.machine.apply(AppEvent::Pause).is_err() {
            return;
        }
        let now = api.now();
        if let Some(p) = &mut self.presentation {
            p.paused_at = Some(now);
        }
        api.send_reliable(self.node, server, ServiceMsg::Pause { session });
        self.note(now, "pause");
    }

    /// User action: resume a paused presentation.
    pub fn resume(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some((server, session)) = self.session else {
            return;
        };
        if self.machine.apply(AppEvent::Resume).is_err() {
            return;
        }
        let now = api.now();
        if let Some(p) = &mut self.presentation {
            if let Some(paused_at) = p.paused_at.take() {
                // Shift the presentation clock by the pause duration so
                // deadlines resume "from the point it was paused" (§5).
                p.engine.shift_clock(now - paused_at);
            }
        }
        api.send_reliable(self.node, server, ServiceMsg::Resume { session });
        self.note(now, "resume");
    }

    /// User action: go back to the previously viewed document (§6.2.3).
    /// Returns false if there is nothing earlier in the history.
    pub fn back(&mut self, api: &mut SimApi<'_, ServiceMsg>) -> bool {
        if self.history_cursor <= 1 {
            return false;
        }
        let doc = self.history[self.history_cursor - 2];
        if !self.navigate_history(api, doc) {
            return false;
        }
        self.history_cursor -= 1;
        true
    }

    /// User action: go forward again after `back` (§6.2.3). Returns false
    /// at the newest entry.
    pub fn forward(&mut self, api: &mut SimApi<'_, ServiceMsg>) -> bool {
        if self.history_cursor >= self.history.len() {
            return false;
        }
        let doc = self.history[self.history_cursor];
        if !self.navigate_history(api, doc) {
            return false;
        }
        self.history_cursor += 1;
        true
    }

    /// Issue a history navigation without growing the history.
    fn navigate_history(&mut self, api: &mut SimApi<'_, ServiceMsg>, doc: DocumentId) -> bool {
        let Some((server, session)) = self.session else {
            return false;
        };
        // From Browsing, Viewing or Paused; the scenario handler will see
        // the `history_nav` flag and skip the history append.
        let ev = match self.machine.state() {
            hermes_client::AppState::Browsing => AppEvent::RequestDocument,
            hermes_client::AppState::Viewing | hermes_client::AppState::Paused => {
                AppEvent::FollowLocalLink
            }
            _ => return false,
        };
        if self.machine.apply(ev).is_err() {
            return false;
        }
        self.presentation = None;
        self.history_nav = true;
        self.note(api.now(), format!("history → {doc}"));
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::DocRequest {
                session,
                document: doc,
            },
        );
        true
    }

    /// User action: reload the current document ("the user can request to
    /// reload an already selected document", §5).
    pub fn reload(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some((server, session)) = self.session else {
            return;
        };
        let Some(doc) = self.presentation.as_ref().map(|p| p.document) else {
            return;
        };
        if self.machine.apply(AppEvent::Reload).is_err() {
            return;
        }
        self.presentation = None;
        self.note(api.now(), format!("reload {doc}"));
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::DocRequest {
                session,
                document: doc,
            },
        );
    }

    /// User action: follow a link of the current document.
    pub fn follow_link(&mut self, api: &mut SimApi<'_, ServiceMsg>, target: LinkTarget) {
        match target {
            LinkTarget::Local(doc) => {
                if self.machine.apply(AppEvent::FollowLocalLink).is_err() {
                    return;
                }
                let Some((server, session)) = self.session else {
                    return;
                };
                self.presentation = None;
                self.note(api.now(), format!("follow local link → {doc}"));
                api.send_reliable(
                    self.node,
                    server,
                    ServiceMsg::DocRequest {
                        session,
                        document: doc,
                    },
                );
            }
            LinkTarget::Remote(server_id, doc) => {
                let Some(&new_node) = self.directory.get(&server_id) else {
                    self.errors.push(format!("unknown server {server_id}"));
                    return;
                };
                if self.machine.apply(AppEvent::FollowRemoteLink).is_err() {
                    return;
                }
                // "a suspend connection primitive is invoked and a request
                // for a new connection with a new server is performed" (§5).
                if let Some((old_server, old_session)) = self.session.take() {
                    api.send_reliable(
                        self.node,
                        old_server,
                        ServiceMsg::SuspendConnection {
                            session: old_session,
                        },
                    );
                    self.suspended = Some((old_server, old_session));
                }
                self.presentation = None;
                self.pending_request = Some(doc);
                self.note(api.now(), format!("migrate → {server_id} for {doc}"));
                api.send_reliable(
                    self.node,
                    new_node,
                    ServiceMsg::Connect {
                        user: self.user,
                        class: self.cfg.class,
                    },
                );
                self.session = Some((new_node, SessionId::new(0)));
            }
        }
    }

    /// User action: disable one media stream of the current presentation
    /// ("disable the presentation of a particular media involved in the
    /// selected document", §5). Stops local playout and tells the media
    /// server to stop transmitting it.
    pub fn disable_stream(&mut self, api: &mut SimApi<'_, ServiceMsg>, component: ComponentId) {
        let Some((server, session)) = self.session else {
            return;
        };
        if let Some(p) = &mut self.presentation {
            p.engine.disable(component);
        }
        self.note(api.now(), format!("disable {component}"));
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::DisableStream { session, component },
        );
    }

    /// User action: search the service.
    pub fn search(&mut self, api: &mut SimApi<'_, ServiceMsg>, token: impl Into<String>) -> u64 {
        let Some((server, session)) = self.session else {
            return 0;
        };
        let query = self.next_query;
        self.next_query += 1;
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::SearchRequest {
                session,
                token: token.into(),
                query,
            },
        );
        query
    }

    /// User action: annotate the current (or any) document with a remark.
    pub fn annotate(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        document: DocumentId,
        text: impl Into<String>,
    ) {
        let Some((server, session)) = self.session else {
            return;
        };
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::Annotate {
                session,
                document,
                text: text.into(),
            },
        );
    }

    /// User action: fetch this user's annotations on a document.
    pub fn fetch_annotations(&mut self, api: &mut SimApi<'_, ServiceMsg>, document: DocumentId) {
        let Some((server, session)) = self.session else {
            return;
        };
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::AnnotationsFetch { session, document },
        );
    }

    /// User action: send mail to the tutor.
    pub fn send_mail(&mut self, api: &mut SimApi<'_, ServiceMsg>, mail: MailMessage) {
        let Some((server, _)) = self.session else {
            return;
        };
        api.send_reliable(self.node, server, ServiceMsg::MailSend { mail });
    }

    /// User action: fetch a mailbox.
    pub fn fetch_mail(&mut self, api: &mut SimApi<'_, ServiceMsg>, address: impl Into<String>) {
        let Some((server, _)) = self.session else {
            return;
        };
        api.send_reliable(
            self.node,
            server,
            ServiceMsg::MailFetch {
                address: address.into(),
            },
        );
    }

    /// User action: disconnect.
    pub fn disconnect(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        // A connection left suspended by a migration (§5) must be released
        // too: the user is gone for good, and without this the old server
        // holds the admission reservation for the full suspend grace
        // period (found by the chaos harness's shrinker).
        if let Some((server, session)) = self.suspended.take() {
            api.send_reliable(self.node, server, ServiceMsg::Disconnect { session });
        }
        if let Some((server, session)) = self.session.take() {
            let _ = self.machine.apply(AppEvent::Disconnect);
            api.send_reliable(self.node, server, ServiceMsg::Disconnect { session });
            self.presentation = None;
            self.note(api.now(), "disconnect");
        }
        // Drop in-flight tracked requests: retrying a Connect or
        // ReconnectRequest on behalf of a user who just left would rebuild
        // a session nobody is behind.
        self.pending_reqs.clear();
        self.pending_request = None;
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, api: &mut SimApi<'_, ServiceMsg>, from: NodeId, msg: ServiceMsg) {
        // Any traffic from the session's server counts as liveness — the
        // heartbeat is "carried with" stream traffic and only fills gaps.
        if self.session.map(|(s, _)| s) == Some(from) {
            self.last_server_activity = api.now();
        }
        match msg {
            // A first-seen acknowledgement refills the retry budget
            // (duplicate acks of an already-settled id don't).
            ServiceMsg::Ack { req } if self.pending_reqs.remove(&req).is_some() => {
                self.retries.on_success();
            }
            ServiceMsg::Ack { .. } => {}
            ServiceMsg::Heartbeat { session, seq } => {
                // Activity already recorded above. Echo beats for our live
                // session so the server can tell we're still here. Session
                // ids are per-server counters, so the match must be on the
                // (server, session) pair — matching the id alone lets a
                // client that failed over to another server keep acking its
                // orphaned old session forever (found by the chaos
                // harness). A beat from a server we have no business with —
                // not our live session's server, not our suspended one, no
                // request in flight to it — means that server is keeping
                // state for a ghost of us: tell it to let go. The
                // in-flight guard matters: during a reconnect, beats for
                // the rebuilt session can overtake the ReconnectAck, and
                // answering those with Disconnect would kill the recovery.
                if self.session == Some((from, session)) {
                    api.send(self.node, from, ServiceMsg::HeartbeatAck { session, seq });
                } else {
                    let busy_with = self.session.map(|(s, _)| s) == Some(from)
                        || self.suspended.map(|(s, _)| s) == Some(from)
                        || self.pending_reqs.values().any(|p| p.server == from);
                    if !busy_with {
                        api.send_reliable(self.node, from, ServiceMsg::Disconnect { session });
                    }
                }
            }
            ServiceMsg::ReconnectAck {
                old_session,
                session,
            } if self.session.is_none() => {
                // We disconnected (or abandoned) while the reconnect was
                // still in flight: the server just rebuilt a session nobody
                // is behind. Adopting it would keep heartbeat acks flowing
                // and pin the reservation forever (found by the chaos
                // harness's shrinker) — release it instead.
                let _ = old_session;
                api.send_reliable(self.node, from, ServiceMsg::Disconnect { session });
            }
            ServiceMsg::ReconnectAck {
                old_session,
                session,
            } => {
                let now = api.now();
                self.session = Some((from, session));
                self.arm_liveness(api);
                if old_session != session {
                    // The server rebuilt the session from scratch: its media
                    // senders restart their RTP sequence spaces, so reset
                    // the receivers to match. Any shared-group attachment
                    // died with the old session; the server re-announces it.
                    self.shared_group = None;
                    if let Some(p) = &mut self.presentation {
                        p.patch_receivers.clear();
                        for c in &p.scenario.components {
                            if let ComponentContent::Stored { encoding, .. } = &c.content {
                                if c.is_continuous() && p.receivers.contains_key(&c.id) {
                                    p.receivers.insert(c.id, RtpReceiver::new(*encoding));
                                }
                            }
                        }
                    }
                }
                if let Some(detected) = self.recovering.take() {
                    self.recoveries.push((detected, now));
                    if self.liveness_paused {
                        self.liveness_paused = false;
                        if let Some(p) = &mut self.presentation {
                            if let Some(paused_at) = p.paused_at.take() {
                                if old_session != session {
                                    // Rebuilt session: the server resumes
                                    // from our reported position, so account
                                    // the outage like a pause/resume.
                                    p.engine.shift_clock(now - paused_at);
                                }
                                // In-place ack (false alarm): the server
                                // never stopped streaming on the original
                                // timeline — resume without shifting to
                                // stay aligned with it.
                            }
                        }
                    }
                    self.note(now, format!("session recovered as {session}"));
                }
            }
            ServiceMsg::ConnectAck {
                session,
                must_subscribe,
            } if self.session.is_none() => {
                // Same late-ack race as ReconnectAck above: the user left
                // while the Connect was in flight.
                let _ = must_subscribe;
                api.send_reliable(self.node, from, ServiceMsg::Disconnect { session });
            }
            ServiceMsg::ConnectAck {
                session,
                must_subscribe,
            } => {
                self.session = Some((from, session));
                self.arm_liveness(api);
                if must_subscribe {
                    if self.machine.apply(AppEvent::AuthUnknownUser).is_ok() {
                        let form = self.cfg.form.clone();
                        api.send_reliable(self.node, from, ServiceMsg::Subscribe { session, form });
                    }
                } else {
                    // Known subscriber — or a migration completing.
                    let ev = if self.suspended.is_some() {
                        AppEvent::MigrationComplete
                    } else {
                        AppEvent::AuthOk
                    };
                    let _ = self.machine.apply(ev);
                    if ev == AppEvent::MigrationComplete {
                        if let Some(doc) = self.pending_request.take() {
                            api.send_reliable(
                                self.node,
                                from,
                                ServiceMsg::DocRequest {
                                    session,
                                    document: doc,
                                },
                            );
                        }
                    }
                }
            }
            ServiceMsg::ConnectReject { reason } => {
                self.errors.push(reason);
                let _ = self.machine.apply(AppEvent::AdmissionRejected);
                self.session = None;
            }
            ServiceMsg::SubscribeAck { user, .. } => {
                self.user = Some(user);
                let _ = self.machine.apply(AppEvent::SubscriptionAccepted);
            }
            ServiceMsg::TopicList { topics, .. } => {
                self.topics = topics;
                if let Some(doc) = self.pending_request.take() {
                    self.request_document(api, doc);
                }
            }
            ServiceMsg::ScenarioResponse {
                document,
                markup,
                lead_micros,
                ..
            } => self.on_scenario(api, document, &markup, lead_micros),
            ServiceMsg::DocError { reason, .. } => {
                self.errors.push(reason);
                let _ = self.machine.apply(AppEvent::RequestFailed);
            }
            ServiceMsg::RtpData {
                session,
                component,
                packet,
                sent_at,
            } => self.on_rtp(api, session, component, packet, sent_at),
            ServiceMsg::StreamJoin {
                group,
                epoch,
                offset_micros,
                ..
            } => {
                let now = api.now();
                self.shared_group = Some((group, epoch));
                if offset_micros >= 0 {
                    // The shared flow already started: set up dedicated
                    // receivers for the patch streams and ask for the
                    // missed prefix.
                    if let Some(p) = &mut self.presentation {
                        for c in &p.scenario.components {
                            if let ComponentContent::Stored { encoding, .. } = &c.content {
                                if c.is_continuous() {
                                    p.patch_receivers.insert(c.id, RtpReceiver::new(*encoding));
                                }
                            }
                        }
                    }
                    if let Some((server, session)) = self.session {
                        api.send_reliable(
                            self.node,
                            server,
                            ServiceMsg::PatchRequest { session, group },
                        );
                    }
                    self.note(
                        now,
                        format!("joined shared group {group} — patching {offset_micros}µs"),
                    );
                } else {
                    self.note(now, format!("joined shared group {group} before start"));
                }
            }
            ServiceMsg::GroupEpoch { group, epoch } => {
                if let Some((g, e)) = &mut self.shared_group {
                    if *g == group && *e != epoch {
                        *e = epoch;
                        self.note(api.now(), format!("shared group {group} epoch → {epoch}"));
                    }
                }
            }
            ServiceMsg::DiscreteData {
                component,
                size,
                total,
                last,
                sent_at,
                ..
            } => {
                let now = api.now();
                self.qos.stream_mut(component).on_packet(now - sent_at);
                if let Some(p) = &mut self.presentation {
                    // Accumulate segments; deliver the object on the last.
                    let got = p.discrete_partial.entry(component).or_insert(0);
                    *got += size;
                    if last {
                        let assembled = (*got).min(total);
                        p.discrete_partial.remove(&component);
                        let delivered = p.engine.deliver(MediaFrame {
                            component,
                            seq: 0,
                            pts: MediaTime::ZERO,
                            size: assembled,
                            key: true,
                            level: hermes_core::GradeLevel::NOMINAL,
                            last: true,
                        });
                        if delivered {
                            *p.frames_received.entry(component).or_insert(0) += 1;
                        }
                    }
                }
            }
            ServiceMsg::RtcpSenderReport {
                session,
                component,
                packet: hermes_rtp::RtcpPacket::SenderReport { ntp_timestamp, .. },
            } => {
                let now = api.now();
                let mine = self.session.map(|(_, s)| s) == Some(session);
                if let Some(p) = &mut self.presentation {
                    // Reports from our own patch sender sync the patch
                    // receiver; shared-flow reports sync the main one.
                    let rx = if mine && p.patch_receivers.contains_key(&component) {
                        p.patch_receivers.get_mut(&component)
                    } else {
                        p.receivers.get_mut(&component)
                    };
                    if let Some(rx) = rx {
                        rx.on_sender_report(ntp_timestamp, now);
                    }
                }
            }
            ServiceMsg::StreamStopped { component, .. } => {
                let now = api.now();
                if let Some(p) = &mut self.presentation {
                    p.engine.finish_stream(component, now);
                }
                let session = self.session.map(|(_, s)| s.raw()).unwrap_or(0);
                api.emit(
                    self.node,
                    Severity::Warn,
                    "stream_stopped",
                    Labels::session(session).stream(component.raw()),
                );
                self.note(now, format!("server stopped {component}"));
            }
            ServiceMsg::StreamRegraded {
                component, level, ..
            } => {
                let now = api.now();
                // An upgrade may restart a stream the server had stopped.
                if let Some(p) = &mut self.presentation {
                    p.engine.restart_stream(component, now);
                }
                let session = self.session.map(|(_, s)| s.raw()).unwrap_or(0);
                api.emit_val(
                    self.node,
                    Severity::Info,
                    "stream_regraded",
                    Labels::session(session).stream(component.raw()),
                    level as i64,
                );
                self.note(now, format!("{component} regraded to level {level}"));
            }
            ServiceMsg::SuspendExpired { .. } => {
                self.suspended = None;
                self.note(api.now(), "suspended connection expired");
            }
            ServiceMsg::SearchResponse { query, hits, .. } => {
                self.search_results.insert(query, hits);
            }
            ServiceMsg::MailBox { messages } => {
                self.mailbox = messages;
            }
            ServiceMsg::Annotations { document, notes } => {
                self.annotations.insert(document, notes);
            }
            _ => {}
        }
    }

    fn on_scenario(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        document: DocumentId,
        markup: &str,
        lead_micros: i64,
    ) {
        let Some((server, _)) = self.session else {
            return;
        };
        let _ = server;
        if self.machine.apply(AppEvent::ScenarioReceived).is_err() {
            return;
        }
        // The client re-derives the server id from the directory; relative
        // sources were resolved server-side before storage, so any ServerId
        // works for parsing — use the one from the directory reverse map.
        let home = self
            .directory
            .iter()
            .find(|(_, n)| **n == self.session.unwrap().0)
            .map(|(s, _)| *s)
            .unwrap_or(ServerId::new(0));
        let scenario = match hermes_hml::scenario_from_markup(markup, document, home) {
            Ok(s) => s,
            Err(e) => {
                self.errors.push(e.to_string());
                let _ = self.machine.apply(AppEvent::RequestFailed);
                return;
            }
        };
        let schedule = PlayoutSchedule::from_scenario(&scenario);
        // Frame periods per component from the codec models.
        let mut periods = BTreeMap::new();
        let components = &scenario.components;
        let continuous = components.iter().filter(|c| c.is_continuous()).count();
        let mut receivers = VecMap::with_capacity(continuous);
        for c in components {
            if let ComponentContent::Stored { encoding, .. } = &c.content {
                let model = hermes_media::CodecModel::for_encoding(*encoding);
                periods.insert(
                    c.id,
                    model.level(hermes_core::GradeLevel::NOMINAL).frame_period(),
                );
                if c.is_continuous() {
                    receivers.insert(c.id, RtpReceiver::new(*encoding));
                }
                self.qos.track(c.id);
            }
        }
        let engine = PlayoutEngine::new(
            &scenario,
            &schedule,
            self.cfg.buffer,
            &periods,
            self.cfg.playout,
        );
        let now = api.now();
        if self.history_nav {
            self.history_nav = false;
        } else {
            // A fresh navigation truncates any forward entries.
            self.history.truncate(self.history_cursor);
            self.history.push(document);
            self.history_cursor = self.history.len();
        }
        self.shared_group = None;
        let session = self.session.map(|(_, s)| s.raw()).unwrap_or(0);
        let root = api.session_span(session, self.node);
        let obs_prefill = api.span_start(self.node, "prefill", Labels::session(session), root);
        api.emit(
            self.node,
            Severity::Info,
            "scenario_received",
            Labels::session(session),
        );
        self.presentation = Some(Presentation {
            document,
            scenario,
            schedule,
            engine,
            receivers,
            patch_receivers: VecMap::new(),
            frames_received: VecMap::with_capacity(periods.len()),
            discrete_partial: VecMap::new(),
            lead: MediaDuration::from_micros(lead_micros),
            scenario_at: now,
            started_at: None,
            paused_at: None,
            ticking: false,
            auto_link_fired: false,
            obs_prefill,
            obs_playout: SpanId::NONE,
            obs_glitches: 0,
            obs_ticks: 0,
        });
        self.note(now, format!("scenario for {document} received"));
        api.set_timer(
            self.node,
            MediaDuration::from_millis(20),
            timers::TK_PRIME,
            0,
        );
    }

    fn on_rtp(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        session: SessionId,
        component: ComponentId,
        packet: hermes_rtp::RtpPacket,
        sent_at: MediaTime,
    ) {
        let now = api.now();
        self.qos.stream_mut(component).on_packet(now - sent_at);
        // A unicast patch stream is addressed to *this* session while a
        // shared flow carries the group leader's; each sender has its own
        // RTP sequence space, so route to the matching receiver. Delivered
        // frames from both merge into one playout buffer by pts.
        let mine = self.session.map(|(_, s)| s) == Some(session);
        let Some(p) = &mut self.presentation else {
            return;
        };
        let rx = if mine && p.patch_receivers.contains_key(&component) {
            p.patch_receivers.get_mut(&component)
        } else {
            p.receivers.get_mut(&component)
        };
        let Some(rx) = rx else {
            return;
        };
        rx.on_packet(&packet, now);
        for f in rx.drain_frames() {
            let n = p.frames_received.entry(component).or_insert(0);
            p.engine.deliver(MediaFrame {
                component,
                seq: *n,
                pts: f.pts,
                size: f.size,
                key: true,
                level: hermes_core::GradeLevel::NOMINAL,
                last: false,
            });
            *n += 1;
        }
    }

    /// Handle a timer.
    pub fn on_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, key: u64, payload: u64) {
        match key {
            timers::TK_PRIME => self.check_prime(api),
            timers::TK_TICK => self.tick(api),
            timers::TK_FEEDBACK => self.send_feedback(api),
            timers::TK_RETRY => self.retry_tracked(api, payload),
            timers::TK_LIVENESS => self.check_liveness(api),
            _ => {}
        }
    }

    fn check_prime(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let now = api.now();
        let Some(p) = &mut self.presentation else {
            return;
        };
        if p.started_at.is_some() {
            return;
        }
        let waited = now - p.scenario_at;
        // Streams starting within `lead` of the presentation start must be
        // primed; later ones keep filling while earlier media plays.
        let ready = p.engine.buffers_primed_for_start(p.lead) || waited >= MAX_START_DELAY;
        if ready {
            p.started_at = Some(now);
            p.engine.start(now);
            p.ticking = true;
            let session = self.session.map(|(_, s)| s.raw()).unwrap_or(0);
            let prefill = std::mem::replace(&mut p.obs_prefill, SpanId::NONE);
            api.span_end(prefill);
            let root = api.session_span(session, self.node);
            p.obs_playout = api.span_start(self.node, "playout", Labels::session(session), root);
            api.emit_val(
                self.node,
                Severity::Info,
                "presentation_start",
                Labels::session(session),
                waited.as_micros(),
            );
            self.note(now, "presentation started");
            api.set_timer(self.node, TICK_INTERVAL, timers::TK_TICK, 0);
            api.set_timer(
                self.node,
                self.cfg.feedback_interval,
                timers::TK_FEEDBACK,
                0,
            );
        } else {
            api.set_timer(
                self.node,
                MediaDuration::from_millis(20),
                timers::TK_PRIME,
                0,
            );
        }
    }

    fn tick(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let now = api.now();
        let mut finished: Option<(DocumentId, MediaDuration, MediaDuration)> = None;
        {
            let Some(p) = &mut self.presentation else {
                return;
            };
            if !p.ticking {
                return;
            }
            let session = self.session.map(|(_, s)| s.raw()).unwrap_or(0);
            if p.paused_at.is_none() {
                p.engine.tick(now);
                // Mirror buffer occupancy into the QoS trackers (and the
                // flight rings: occupancy history is the context a
                // playout-gap dump needs). The trace emission is sampled —
                // every third tick keeps the enabled-tracing overhead a
                // third of per-tick cost and stretches the bounded ring's
                // history window 3× without losing the starvation shape.
                p.obs_ticks = p.obs_ticks.wrapping_add(1);
                let sample = p.obs_ticks % 3 == 0;
                for s in p.engine.streams() {
                    if let Some(b) = &s.buffer {
                        self.qos.stream_mut(s.component).buffer_occupancy = b.occupancy().min(1.0);
                        if sample {
                            api.emit_val(
                                self.node,
                                Severity::Debug,
                                "buffer_occupancy",
                                Labels::session(session).stream(s.component.raw()),
                                (b.occupancy() * 1000.0) as i64,
                            );
                        }
                    }
                }
                let glitches = p.engine.total_stats().glitches;
                let gapped = glitches > p.obs_glitches;
                // Continuity SLO sample: one per playout tick, bad when the
                // tick surfaced at least one glitch.
                self.slo.record(now, 0, 1, gapped as u64);
                self.slo_now = now;
                if gapped {
                    api.emit_val(
                        self.node,
                        Severity::Warn,
                        "playout_gap",
                        Labels::session(session),
                        (glitches - p.obs_glitches) as i64,
                    );
                    api.flight_dump(self.node, "playout_gap", Labels::session(session));
                    p.obs_glitches = glitches;
                }
            }
            if p.engine.is_complete() {
                p.ticking = false;
                p.engine.release_buffers();
                let playout = std::mem::replace(&mut p.obs_playout, SpanId::NONE);
                api.span_end(playout);
                api.emit(
                    self.node,
                    Severity::Info,
                    "presentation_complete",
                    Labels::session(session),
                );
                finished = Some((
                    p.document,
                    p.startup_delay().unwrap_or(MediaDuration::ZERO),
                    p.engine.max_skew_observed,
                ));
            } else {
                api.set_timer(self.node, TICK_INTERVAL, timers::TK_TICK, 0);
            }
        }
        if finished.is_none() && self.cfg.auto_follow_links {
            // Timed (`AT`) hyperlink on a still-running presentation: "a
            // specific link will be automatically followed after the
            // expiration of a time period ... the activation of a hyperlink
            // ... will interrupt the presentation" (§3). Runs after the
            // engine tick so a link timed exactly at the presentation end
            // counts as completion, not interruption.
            let fire = self.presentation.as_ref().and_then(|p| {
                if p.auto_link_fired || p.paused_at.is_some() || !p.ticking {
                    return None;
                }
                let t0 = p.engine.presentation_start?;
                let elapsed = now - t0;
                let link = p.scenario.next_auto_link()?;
                let at = link.auto_at?;
                if elapsed >= (at - MediaTime::ZERO) && !p.engine.is_complete() {
                    Some(link.target.clone())
                } else {
                    None
                }
            });
            if let Some(target) = fire {
                if let Some(p) = &mut self.presentation {
                    p.auto_link_fired = true;
                    p.ticking = false;
                }
                self.note(now, "timed link fired — interrupting presentation");
                self.follow_link(api, target);
                return;
            }
        }
        if let Some((doc, delay, skew)) = finished {
            self.completed.push((doc, delay, skew));
            self.note(now, format!("presentation of {doc} complete"));
            let _ = self.machine.apply(AppEvent::PresentationEnded);
            if self.cfg.auto_follow_links {
                let link = self
                    .presentation
                    .as_ref()
                    .and_then(|p| p.scenario.next_auto_link().cloned());
                if let Some(l) = link {
                    // Auto-follow preserves "the sequential nature or
                    // 'writer's way' of presentation" (§3).
                    let _ = self.machine.apply(AppEvent::RequestDocument);
                    let target = l.target.clone();
                    // Undo the RequestDocument if follow_link path needs a
                    // different event; local links re-request directly.
                    match target {
                        LinkTarget::Local(doc) => {
                            if let Some((server, session)) = self.session {
                                self.presentation = None;
                                api.send_reliable(
                                    self.node,
                                    server,
                                    ServiceMsg::DocRequest {
                                        session,
                                        document: doc,
                                    },
                                );
                            }
                        }
                        LinkTarget::Remote(_, _) => {
                            // Remote auto-follow uses the interactive path.
                        }
                    }
                }
            }
        }
    }

    /// Snapshot this client's playout/QoS counters into the unified metrics
    /// registry, labelled with the client's node id (`peer`).
    pub fn publish_metrics(&self, obs: &mut Obs) {
        let l = Labels::for_peer(self.node.raw());
        if let Some(p) = &self.presentation {
            let t = p.engine.total_stats();
            obs.registry
                .counter_set("client.frames_played", l, t.frames_played);
            obs.registry
                .counter_set("client.duplicates_played", l, t.duplicates_played);
            obs.registry
                .counter_set("client.duplicates_concealed", l, t.duplicates_concealed);
            obs.registry
                .counter_set("client.stale_frames", l, t.stale_frames);
            obs.registry.counter_set("client.glitches", l, t.glitches);
            obs.registry
                .counter_set("client.frames_dropped", l, t.frames_dropped);
            obs.registry.gauge_set(
                "client.max_skew_us",
                l,
                p.engine.max_skew_observed.as_micros() as f64,
            );
        }
        self.slo.publish(self.slo_now, &mut obs.registry, l);
        obs.registry
            .counter_set("client.completed", l, self.completed.len() as u64);
        obs.registry
            .counter_set("client.recoveries", l, self.recoveries.len() as u64);
        obs.registry
            .counter_set("client.errors", l, self.errors.len() as u64);
    }

    fn send_feedback(&mut self, api: &mut SimApi<'_, ServiceMsg>) {
        let Some((server, session)) = self.session else {
            return;
        };
        let now = api.now();
        let still_active = match &self.presentation {
            Some(p) => p.ticking || p.started_at.is_none(),
            None => false,
        };
        // Build measurements: delays/jitter from the QoS trackers, loss from
        // the RTP receiver statistics.
        let mut measurements: Vec<(ComponentId, QosMeasurement)> = self.qos.make_report(now);
        let mut rtcp = Vec::new();
        if let Some(p) = &mut self.presentation {
            for (id, m) in &mut measurements {
                if let Some(rx) = p.receivers.get_mut(id) {
                    m.loss_fraction = rx.stats.take_interval_loss();
                    rtcp.push(rx.receiver_report(self.node.raw() as u32, now));
                }
            }
        }
        api.send(
            self.node,
            server,
            ServiceMsg::Feedback {
                session,
                measurements,
                rtcp,
            },
        );
        if still_active {
            api.set_timer(
                self.node,
                self.cfg.feedback_interval,
                timers::TK_FEEDBACK,
                0,
            );
        }
    }
}
