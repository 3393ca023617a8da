//! The session-lifecycle core: each session's [`Phase`] (pause and resume,
//! and §5's suspend-on-migration with a grace period) and liveness
//! (heartbeats that fill gaps in the media flow, reaping a silent client),
//! and the server's session-id allocator, tracked-request dedup window and
//! rebuilt sessions. It needs no simulator: it answers in [`LifeOut`] data
//! that the server actor applies in order.

use hermes_core::{MediaDuration, MediaTime, NodeId, SessionId};
use std::collections::{BTreeMap, BTreeSet};

/// Tracked request ids remembered per client. Ids are client-monotone, so
/// the smallest are forgotten first.
const DEDUP_WINDOW: usize = 128;

/// Where a session stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Delivering.
    Active,
    /// Paused by the user.
    Paused,
    /// Suspended pending migration (§5), its grace timer running.
    Suspended {
        /// Still paused: a suspension pauses, and a `Resume` or a new
        /// document clears only that.
        paused: bool,
    },
}

/// What moves a session's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `Pause`.
    Pause,
    /// `Resume`.
    Resume,
    /// `SuspendConnection`: the user followed a link to another server.
    Suspend,
    /// `ResumeSuspended`: the user came back.
    Revisit,
    /// A `ReconnectRequest` that found the session alive (in place).
    Reconnect,
    /// A new document was admitted.
    Switch,
}

/// What a stream's timer does in a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Send now.
    Send,
    /// Look again after this long.
    Poll(MediaDuration),
    /// Let the timer chain die.
    Halt,
}

impl Phase {
    /// The phase after `input`.
    pub fn after(self, input: Input) -> Phase {
        use Phase::{Active, Paused, Suspended};
        match (input, self) {
            (Input::Pause, Suspended { .. }) => Suspended { paused: true },
            (Input::Pause, _) => Paused,
            (Input::Resume | Input::Switch, Suspended { .. }) => Suspended { paused: false },
            (Input::Resume | Input::Switch, _) => Active,
            (Input::Suspend, _) => Suspended { paused: true },
            (Input::Revisit, Suspended { .. }) => Active,
            (Input::Reconnect, Suspended { paused: true }) => Paused,
            (Input::Reconnect, Suspended { paused: false }) => Active,
            (Input::Revisit | Input::Reconnect, p) => p,
        }
    }

    /// A frame timer sends, polls every 100 ms while paused, and halts
    /// while suspended.
    pub fn frame(self) -> Gate {
        match self {
            Phase::Active => Gate::Send,
            Phase::Paused => Gate::Poll(MediaDuration::from_millis(100)),
            Phase::Suspended { .. } => Gate::Halt,
        }
    }

    /// A discrete object's timer sends, or polls every 200 ms.
    pub fn discrete(self) -> Gate {
        match self {
            Phase::Active => Gate::Send,
            _ => Gate::Poll(MediaDuration::from_millis(200)),
        }
    }
}

/// One session's phase and liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLife {
    /// Where the session stands.
    pub phase: Phase,
    /// Connect time (pricing, join latency, the ladder's arrival order).
    pub connected_at: MediaTime,
    /// Last media sent: an active stream is its own liveness signal.
    pub last_media: MediaTime,
    /// Last proof the client is alive: connect, heartbeat ack, feedback.
    pub last_ack: MediaTime,
    /// Liveness beats sent so far.
    pub heartbeat_seq: u64,
}

impl SessionLife {
    /// A session that connected (or was rebuilt) at `now`.
    pub fn new(now: MediaTime) -> Self {
        SessionLife {
            phase: Phase::Active,
            connected_at: now,
            last_media: now,
            last_ack: now,
            heartbeat_seq: 0,
        }
    }

    /// Suspended: no ladder victim or report row, exempt from the client
    /// timeout, and torn down by a grace timer.
    pub fn suspended(&self) -> bool {
        matches!(self.phase, Phase::Suspended { .. })
    }

    /// Media went to the client at `now`.
    pub fn media_sent(&mut self, now: MediaTime) {
        self.last_media = now;
    }

    /// Move the phase on `input`; returns the phase it left.
    pub fn step(&mut self, input: Input) -> Phase {
        let after = self.phase.after(input);
        std::mem::replace(&mut self.phase, after)
    }
}

/// What the core asks the actor to do for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifeOut {
    /// Arm the next heartbeat tick, one interval from now.
    ArmHeartbeat,
    /// Send the client a liveness beat (a datagram) with this sequence.
    Beat(u64),
    /// The client proved nothing for the timeout: trace `client_expired`
    /// and tear the session down. Its heartbeat chain ends.
    Expired,
    /// Arm a grace timer for the suspension just entered.
    ArmGrace,
    /// A grace timer found the session suspended: tear it down, then send
    /// `SuspendExpired`.
    GraceExpired,
    /// Arm every live stream's frame timer now: a `Resume` left a pause.
    Rearm,
    /// Send the client the topic list.
    Topics,
}

/// The core's outputs, in the order it asked.
pub type LifeOuts = Vec<(SessionId, LifeOut)>;

/// The server-wide lifecycle state.
#[derive(Debug, Default)]
pub struct Lifecycle {
    /// The last session id issued. It survives a crash, so a rebuilt
    /// session never reuses an id a client still holds.
    last_session: u64,
    /// Tracked request ids processed, per client (RAM: lost in a crash).
    seen: BTreeMap<NodeId, BTreeSet<u64>>,
    /// Sessions rebuilt from a `ReconnectRequest` after this server lost
    /// them: (old session, new session).
    pub rebuilt_sessions: Vec<(SessionId, SessionId)>,
}

impl Lifecycle {
    /// Open a session, fresh or rebuilding `old`: a new id, whose first
    /// heartbeat is armed.
    pub fn open(&mut self, old: Option<SessionId>, out: &mut LifeOuts) -> SessionId {
        self.last_session += 1;
        let session = SessionId::new(self.last_session);
        self.rebuilt_sessions.extend(old.map(|old| (old, session)));
        out.push((session, LifeOut::ArmHeartbeat));
        session
    }

    /// Is tracked request `req` from `client` new? Only a first sight is
    /// processed.
    pub fn first_sight(&mut self, client: NodeId, req: u64) -> bool {
        let seen = self.seen.entry(client).or_default();
        let first = seen.insert(req);
        if first && seen.len() > DEDUP_WINDOW {
            seen.pop_first();
        }
        first
    }

    /// The process crashed: the dedup windows were RAM.
    pub fn crash(&mut self) {
        self.seen.clear();
    }

    /// The client's `input` to session `s`, whose `life` is `None` once it
    /// is gone. Every suspension arms its own grace timer.
    pub fn input(
        &self,
        life: Option<&mut SessionLife>,
        s: SessionId,
        i: Input,
        out: &mut LifeOuts,
    ) {
        let Some(before) = life.map(|l| l.step(i)) else {
            return;
        };
        let paused = matches!(before, Phase::Paused | Phase::Suspended { paused: true });
        let suspended = matches!(before, Phase::Suspended { .. });
        match i {
            Input::Resume if paused => out.push((s, LifeOut::Rearm)),
            Input::Suspend => out.push((s, LifeOut::ArmGrace)),
            Input::Revisit if suspended => out.push((s, LifeOut::Topics)),
            _ => {}
        }
    }

    /// The client proved it is alive at `now`: a heartbeat ack or feedback.
    pub fn ack(&self, life: Option<&mut SessionLife>, now: MediaTime) {
        if let Some(life) = life {
            life.last_ack = now;
        }
    }

    /// Session `s`'s heartbeat tick at `now`. Expiry is checked first: a
    /// session not suspended whose client proved nothing for `timeout` is
    /// reaped. Otherwise it beats if no media went out for an `interval`,
    /// and re-arms. A gone session's chain dies.
    pub fn heartbeat(
        &self,
        life: Option<&mut SessionLife>,
        s: SessionId,
        now: MediaTime,
        (interval, timeout): (MediaDuration, MediaDuration),
        out: &mut LifeOuts,
    ) {
        let Some(life) = life else {
            return;
        };
        if !life.suspended() && now - life.last_ack >= timeout {
            return out.push((s, LifeOut::Expired));
        }
        if now - life.last_media >= interval {
            life.heartbeat_seq += 1;
            out.push((s, LifeOut::Beat(life.heartbeat_seq)));
        }
        out.push((s, LifeOut::ArmHeartbeat));
    }

    /// A grace timer of session `s` fired: it expires if suspended,
    /// whichever suspension armed the timer.
    pub fn grace(&self, life: Option<&mut SessionLife>, s: SessionId, out: &mut LifeOuts) {
        if life.is_some_and(|l| l.suspended()) {
            out.push((s, LifeOut::GraceExpired));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const INPUTS: [Input; 6] = [
        Input::Pause,
        Input::Resume,
        Input::Suspend,
        Input::Revisit,
        Input::Reconnect,
        Input::Switch,
    ];
    const S: SessionId = SessionId::new(1);

    fn ms(t: i64) -> MediaDuration {
        MediaDuration::from_millis(t)
    }

    fn at(t: i64) -> MediaTime {
        MediaTime::ZERO + ms(t)
    }

    /// The phase as the server actor kept it before this core: two
    /// booleans, each input written the way its handler wrote them.
    #[derive(Debug, Clone, Copy, Default)]
    struct Spec {
        paused: bool,
        suspended: bool,
    }

    impl Spec {
        /// Apply `input`; what it asked for, as the core's outputs.
        fn step(&mut self, input: Input) -> LifeOuts {
            let mut out = Vec::new();
            match input {
                Input::Pause => self.paused = true,
                Input::Resume => {
                    if self.paused {
                        self.paused = false;
                        out.push((S, LifeOut::Rearm));
                    }
                }
                Input::Suspend => {
                    self.suspended = true;
                    self.paused = true;
                    out.push((S, LifeOut::ArmGrace));
                }
                Input::Revisit => {
                    if self.suspended {
                        self.suspended = false;
                        self.paused = false;
                        out.push((S, LifeOut::Topics));
                    }
                }
                Input::Reconnect => self.suspended = false,
                Input::Switch => self.paused = false,
            }
            out
        }

        fn frame(self) -> Gate {
            if self.suspended {
                Gate::Halt
            } else if self.paused {
                Gate::Poll(ms(100))
            } else {
                Gate::Send
            }
        }

        fn discrete(self) -> Gate {
            if self.paused || self.suspended {
                Gate::Poll(ms(200))
            } else {
                Gate::Send
            }
        }
    }

    /// Every observable of one session's phase, read through the core: the
    /// two gates, whether it is a victim / report row (not suspended),
    /// whether a long-silent client is reaped, and whether a grace timer
    /// tears it down.
    fn observe(life: SessionLife) -> (Gate, Gate, bool, bool, bool) {
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        let beat = (ms(400), ms(30_000));
        core.heartbeat(Some(&mut life.clone()), S, at(60_000), beat, &mut out);
        let reaped = out == [(S, LifeOut::Expired)];
        out.clear();
        core.grace(Some(&mut life.clone()), S, &mut out);
        let expires = out == [(S, LifeOut::GraceExpired)];
        let listed = !life.suspended();
        (
            life.phase.frame(),
            life.phase.discrete(),
            listed,
            reaped,
            expires,
        )
    }

    /// The spec's answers to [`observe`].
    fn spec_observe(spec: Spec) -> (Gate, Gate, bool, bool, bool) {
        let listed = !spec.suspended;
        (
            spec.frame(),
            spec.discrete(),
            listed,
            listed,
            spec.suspended,
        )
    }

    fn walk(life: SessionLife, spec: Spec, depth: usize, reached: &mut BTreeSet<(bool, bool)>) {
        reached.insert((spec.paused, spec.suspended));
        assert_eq!(observe(life), spec_observe(spec), "{spec:?}");
        if depth == 0 {
            return;
        }
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        for input in INPUTS {
            let (mut next, mut next_spec) = (life, spec);
            let want = next_spec.step(input);
            core.input(Some(&mut next), S, input, &mut out);
            assert_eq!(out, want, "{input:?} from {spec:?}");
            out.clear();
            walk(next, next_spec, depth - 1, reached);
        }
    }

    /// Small-scope exhaustive check: after every sequence of up to seven
    /// inputs, the phase enum and the two booleans it replaced agree on
    /// every observable — the frame and discrete gates, what each input
    /// asks for (a `Resume`'s re-arm, a suspension's grace timer, a topic
    /// list), victim and report membership, the timeout exemption and
    /// grace expiry. All four boolean pairs are reached.
    #[test]
    fn the_phase_matches_the_two_booleans_it_replaced() {
        let mut reached = BTreeSet::new();
        let life = SessionLife::new(MediaTime::ZERO);
        walk(life, Spec::default(), 7, &mut reached);
        assert_eq!(reached.len(), 4, "{reached:?}");
    }

    #[test]
    fn suspended_but_not_paused_is_its_own_phase() {
        // A resume while suspended clears only the pause: a second resume
        // re-arms nothing, and an in-place reconnect leaves it active.
        let mut life = SessionLife::new(MediaTime::ZERO);
        life.step(Input::Suspend);
        assert_eq!(life.step(Input::Resume), Phase::Suspended { paused: true });
        assert_eq!(life.phase, Phase::Suspended { paused: false });
        assert_eq!(life.phase.frame(), Gate::Halt);
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        core.input(Some(&mut life), S, Input::Resume, &mut out);
        assert!(out.is_empty());
        life.step(Input::Reconnect);
        assert_eq!(life.phase, Phase::Active);
        life.step(Input::Suspend);
        life.step(Input::Reconnect);
        assert_eq!(life.phase, Phase::Paused);
    }

    #[test]
    fn heartbeats_fill_gaps_and_reap_silent_clients() {
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        let mut life = SessionLife::new(MediaTime::ZERO);
        let beat = (ms(400), ms(4_000));
        // Media went out 100 ms ago: no beat, but the chain goes on.
        life.media_sent(at(300));
        core.heartbeat(Some(&mut life), S, at(400), beat, &mut out);
        assert_eq!(std::mem::take(&mut out), [(S, LifeOut::ArmHeartbeat)]);
        core.heartbeat(Some(&mut life), S, at(800), beat, &mut out);
        let want = [(S, LifeOut::Beat(1)), (S, LifeOut::ArmHeartbeat)];
        assert_eq!(std::mem::take(&mut out), want);
        // An ack keeps the client alive; four silent seconds reap it.
        core.ack(Some(&mut life), at(1_000));
        core.heartbeat(Some(&mut life), S, at(4_999), beat, &mut out);
        assert_eq!(std::mem::take(&mut out).len(), 2);
        core.heartbeat(Some(&mut life), S, at(5_000), beat, &mut out);
        assert_eq!(std::mem::take(&mut out), [(S, LifeOut::Expired)]);
        // Suspended: exempt from the timeout, still beating.
        core.input(Some(&mut life), S, Input::Suspend, &mut out);
        assert_eq!(std::mem::take(&mut out), [(S, LifeOut::ArmGrace)]);
        core.heartbeat(Some(&mut life), S, at(9_000), beat, &mut out);
        let want = [(S, LifeOut::Beat(3)), (S, LifeOut::ArmHeartbeat)];
        assert_eq!(std::mem::take(&mut out), want);
        core.grace(Some(&mut life), S, &mut out);
        assert_eq!(out, [(S, LifeOut::GraceExpired)]);
    }

    #[test]
    fn ids_survive_a_crash_and_the_dedup_window_does_not() {
        let (mut core, mut out) = (Lifecycle::default(), Vec::new());
        let client = NodeId::new(9);
        assert_eq!(core.open(None, &mut out), SessionId::new(1));
        assert!(core.first_sight(client, 7) && !core.first_sight(client, 7));
        for req in 100..100 + DEDUP_WINDOW as u64 {
            assert!(core.first_sight(client, req));
        }
        // Request 7 fell out of the window: a copy this late is new again.
        assert!(core.first_sight(client, 7));
        core.crash();
        assert!(core.seen.is_empty());
        let rebuilt = core.open(Some(SessionId::new(1)), &mut out);
        assert_eq!(rebuilt, SessionId::new(2));
        assert_eq!(core.rebuilt_sessions, [(SessionId::new(1), rebuilt)]);
        let arm = |s| (SessionId::new(s), LifeOut::ArmHeartbeat);
        assert_eq!(out, [arm(1), arm(2)]);
    }

    /// One input; session draws index the ids issued so far (live, closed
    /// or lost in a crash) or name one never issued.
    #[derive(Debug, Clone)]
    enum Op {
        Connect,
        /// Session draw.
        Reconnect(usize),
        /// Client, request id.
        Tracked(u64, u64),
        Ack(usize),
        Media(usize),
        Heartbeat(usize),
        Grace(usize),
        /// Session draw, input index.
        Input(usize, usize),
        /// Advance the clock by this many ms.
        Wait(i64),
        Disconnect(usize),
        Crash,
    }

    fn op() -> impl Strategy<Value = Op> {
        let s = 0usize..12;
        prop_oneof![
            Just(Op::Connect),
            s.clone().prop_map(Op::Reconnect),
            (0u64..3, 0u64..400).prop_map(|(c, r)| Op::Tracked(c, r)),
            s.clone().prop_map(Op::Ack),
            s.clone().prop_map(Op::Media),
            s.clone().prop_map(Op::Heartbeat),
            s.clone().prop_map(Op::Grace),
            (s.clone(), 0usize..6).prop_map(|(s, i)| Op::Input(s, i)),
            (0i64..3_000).prop_map(Op::Wait),
            s.prop_map(Op::Disconnect),
            Just(Op::Crash),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No interleaving of connects, reconnects (live, unknown and
        /// post-crash ids), tracked duplicates past the window, acks, media,
        /// heartbeat and grace ticks, phase inputs, disconnects and crashes
        /// panics the core or reissues an id; the dedup window holds at
        /// most 128 ids per client and none after a crash; a removed
        /// session answers nothing; and a live session's heartbeat tick
        /// re-arms exactly once unless it expires.
        #[test]
        fn any_interleaving_keeps_ids_fresh_and_chains_whole(
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let (mut core, mut out) = (Lifecycle::default(), Vec::new());
            let mut sessions: BTreeMap<SessionId, SessionLife> = BTreeMap::new();
            let mut issued: Vec<SessionId> = Vec::new();
            let mut now = MediaTime::ZERO;
            // A drawn id: one issued so far, or one never issued.
            let pick = |issued: &[SessionId], i: usize| {
                issued.get(i).copied().unwrap_or(SessionId::new(1_000 + i as u64))
            };
            for op in &ops {
                let target = match *op {
                    Op::Reconnect(i) | Op::Ack(i) | Op::Media(i) | Op::Heartbeat(i)
                    | Op::Grace(i) | Op::Input(i, _) | Op::Disconnect(i) => {
                        Some(pick(&issued, i))
                    }
                    _ => None,
                };
                let live = target.is_some_and(|s| sessions.contains_key(&s));
                let life = target.and_then(|s| sessions.get_mut(&s));
                match *op {
                    Op::Connect | Op::Reconnect(_) if !live => {
                        let old = target;
                        let s = core.open(old, &mut out);
                        prop_assert!(!issued.contains(&s), "{s:?} reissued");
                        prop_assert_eq!(std::mem::take(&mut out), [(s, LifeOut::ArmHeartbeat)]);
                        if let Some(old) = old {
                            prop_assert_eq!(core.rebuilt_sessions.last(), Some(&(old, s)));
                        }
                        issued.push(s);
                        sessions.insert(s, SessionLife::new(now));
                    }
                    Op::Connect | Op::Reconnect(_) => {
                        core.input(life, target.unwrap(), Input::Reconnect, &mut out);
                    }
                    Op::Tracked(client, req) => {
                        core.first_sight(NodeId::new(client), req);
                    }
                    Op::Ack(_) => core.ack(life, now),
                    Op::Media(_) => life.into_iter().for_each(|l| l.media_sent(now)),
                    Op::Heartbeat(_) => {
                        let s = target.unwrap();
                        core.heartbeat(life, s, now, (ms(400), ms(4_000)), &mut out);
                        if out == [(s, LifeOut::Expired)] {
                            sessions.remove(&s);
                        } else if live {
                            let arms = out.iter().filter(|o| o.1 == LifeOut::ArmHeartbeat);
                            prop_assert_eq!(arms.count(), 1, "{:?}", out);
                            prop_assert_eq!(out.last(), Some(&(s, LifeOut::ArmHeartbeat)));
                        }
                    }
                    Op::Grace(_) => {
                        let s = target.unwrap();
                        core.grace(life, s, &mut out);
                        if out == [(s, LifeOut::GraceExpired)] {
                            sessions.remove(&s);
                        }
                    }
                    Op::Input(_, k) => core.input(life, target.unwrap(), INPUTS[k], &mut out),
                    Op::Wait(dt) => now += ms(dt),
                    Op::Disconnect(_) => {
                        sessions.remove(&target.unwrap());
                    }
                    Op::Crash => {
                        sessions.clear();
                        core.crash();
                        prop_assert!(core.seen.is_empty());
                    }
                }
                if target.is_some() && !live {
                    prop_assert!(out.is_empty(), "{:?} answered {:?}", op, out);
                }
                out.clear();
                for window in core.seen.values() {
                    prop_assert!(window.len() <= DEDUP_WINDOW);
                }
            }
        }
    }
}
