//! The session-lifecycle core: each session's [`Phase`] (pause, resume, §5's
//! suspend-on-migration with a grace deadline), each stream's timer
//! [`Chain`], liveness (heartbeats that fill media gaps, reaping a silent
//! client), session ids, the tracked-request dedup window and rebuilt
//! sessions. Sim-free, it answers in [`LifeOut`]s the actor applies in order.

use hermes_core::{MediaDuration, MediaTime, NodeId, SessionId};
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU32;

/// Tracked request ids remembered per client. Ids are client-monotone, so
/// the smallest are forgotten first.
const DEDUP_WINDOW: usize = 128;

/// Where a session stands. Only `Active` sends: a stream timer that fires
/// in any other phase ends its chain, and leaving that phase re-arms it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Delivering.
    Active,
    /// Paused by the user.
    Paused,
    /// Suspended pending migration (§5) until its grace deadline `until`.
    /// Still `paused`: a `Resume` or a new document clears only that.
    #[allow(missing_docs)]
    Suspended { paused: bool, until: MediaTime },
}

/// What moves a session's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `Pause`.
    Pause,
    /// `Resume`.
    Resume,
    /// `SuspendConnection`, torn down unless revisited by this deadline.
    Suspend(MediaTime),
    /// `ResumeSuspended`: the user came back.
    Revisit,
    /// A `ReconnectRequest` that found the session alive (in place).
    Reconnect,
    /// A new document was admitted.
    Switch,
}

impl Phase {
    /// Do stream timers send?
    pub fn sends(self) -> bool {
        self == Phase::Active
    }
}

/// A stream's timer chain: the generation of its one pending timer, none
/// once the chain has halted. Generations are minted server-wide by
/// [`Lifecycle::arm`], so no timer armed for a replaced stream matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chain(Option<NonZeroU32>);

/// A stream timer of generation `gen` fired in `phase`: the key of the chain
/// among `chains` whose pending timer it was, if the phase sends. A stale
/// timer matches none; the matched chain halts unless the send re-arms it.
pub fn fire<'a, K>(
    phase: Phase,
    gen: u32,
    chains: impl IntoIterator<Item = (K, &'a mut Chain)>,
) -> Option<K> {
    let (stream, chain) = chains
        .into_iter()
        .find(|(_, c)| c.0.is_some_and(|g| g.get() == gen))?;
    chain.0 = None;
    phase.sends().then_some(stream)
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
    /// timeout, and torn down at its grace deadline.
    pub fn suspended(&self) -> bool {
        matches!(self.phase, Phase::Suspended { .. })
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
    /// Arm a grace timer at the deadline of the suspension just entered.
    ArmGrace(MediaTime),
    /// A grace timer found the session suspended past its deadline: tear it
    /// down, then send `SuspendExpired`.
    GraceExpired,
    /// The session left a halting phase: [`rearm`](Lifecycle::rearm) its streams.
    Rearm,
    /// Send the client the topic list.
    Topics,
}

/// The core's outputs, in the order it asked.
pub type LifeOuts = Vec<(SessionId, LifeOut)>;

/// The server-wide lifecycle state.
#[derive(Debug, Default, Clone)]
pub struct Lifecycle {
    /// The last session id issued. It survives a crash, so a rebuilt
    /// session never reuses an id a client still holds.
    last_session: u64,
    /// The last stream-timer generation minted.
    last_timer: u32,
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

    /// Arm `chain`'s next timer: a fresh generation, its one pending timer.
    pub fn arm(&mut self, chain: &mut Chain) -> u32 {
        let gen = NonZeroU32::new(self.last_timer.wrapping_add(1)).unwrap_or(NonZeroU32::MIN);
        (chain.0, self.last_timer) = (Some(gen), gen.get());
        self.last_timer
    }

    /// Re-arm `chain` if it halted; a pending timer is kept.
    pub fn rearm(&mut self, chain: &mut Chain) -> Option<u32> {
        chain.0.is_none().then(|| self.arm(chain))
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
    /// is gone. Every suspension arms its own grace timer, and every exit
    /// from a halting phase to `Active` re-arms the streams.
    pub fn input(
        &self,
        life: Option<&mut SessionLife>,
        s: SessionId,
        i: Input,
        out: &mut LifeOuts,
    ) {
        use Phase::{Active, Paused, Suspended};
        let Some(life) = life else {
            return;
        };
        let before = life.phase;
        let paused = matches!(i, Input::Pause | Input::Suspend(_));
        life.phase = match (i, before) {
            (Input::Suspend(until), _) => Suspended { paused, until },
            (Input::Revisit, Suspended { .. }) => Active,
            (Input::Reconnect, Suspended { paused: true, .. }) => Paused,
            (Input::Reconnect, Suspended { paused: false, .. }) => Active,
            (Input::Revisit | Input::Reconnect, p) => p,
            (_, Suspended { until, .. }) => Suspended { paused, until },
            _ if paused => Paused,
            _ => Active,
        };
        match i {
            Input::Suspend(until) => out.push((s, LifeOut::ArmGrace(until))),
            Input::Revisit if before != life.phase => out.push((s, LifeOut::Topics)),
            _ => {}
        }
        if !before.sends() && life.phase.sends() {
            out.push((s, LifeOut::Rearm));
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

    /// A grace timer of session `s` fired at `now`: the session expires if
    /// it is suspended and its deadline has come, so a timer an earlier
    /// suspension armed expires nothing.
    pub fn grace(
        &self,
        life: Option<&mut SessionLife>,
        s: SessionId,
        now: MediaTime,
        out: &mut LifeOuts,
    ) {
        if life.is_some_and(|l| matches!(l.phase, Phase::Suspended { until, .. } if now >= until)) {
            out.push((s, LifeOut::GraceExpired));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const S: SessionId = SessionId::new(1);
    /// The walk's clip frame period, image send start and grace period, in
    /// ms.
    const PERIOD: i64 = 1;
    const IMAGE_AT: i64 = 2;
    const GRACE: i64 = 3;

    fn ms(t: i64) -> MediaDuration {
        MediaDuration::from_millis(t)
    }

    fn at(t: i64) -> MediaTime {
        MediaTime::ZERO + ms(t)
    }

    /// The six inputs, a suspension's deadline `grace` after `now`.
    fn inputs(now: MediaTime, grace: MediaDuration) -> [Input; 6] {
        [
            Input::Pause,
            Input::Resume,
            Input::Suspend(now + grace),
            Input::Revisit,
            Input::Reconnect,
            Input::Switch,
        ]
    }

    /// The phase as the server actor kept it before this core: two
    /// booleans, each input written the way its handler wrote them, and the
    /// last suspension's deadline. Streams send while neither is set.
    #[derive(Debug, Clone, Copy, Default)]
    struct Spec {
        paused: bool,
        suspended: bool,
        until: MediaTime,
    }

    impl Spec {
        fn halts(self) -> bool {
            self.paused || self.suspended
        }

        /// Apply `input`; what it asked for, as the core's outputs: a
        /// suspension's grace timer, a revisit's topic list, and a re-arm
        /// whenever it leaves a halting phase.
        fn step(&mut self, input: Input) -> LifeOuts {
            let (mut out, halted) = (Vec::new(), self.halts());
            match input {
                Input::Pause => self.paused = true,
                Input::Resume | Input::Switch => self.paused = false,
                Input::Suspend(until) => {
                    (self.suspended, self.paused, self.until) = (true, true, until);
                    out.push((S, LifeOut::ArmGrace(until)));
                }
                Input::Revisit => {
                    if self.suspended {
                        (self.suspended, self.paused) = (false, false);
                        out.push((S, LifeOut::Topics));
                    }
                }
                Input::Reconnect => self.suspended = false,
            }
            if halted && !self.halts() {
                out.push((S, LifeOut::Rearm));
            }
            out
        }
    }

    /// Every observable of one session's phase at `now`, read through the
    /// core: whether its streams send, whether it is a victim / report row
    /// (not suspended), whether a long-silent client is reaped, and whether
    /// a grace timer firing now tears it down.
    fn observe(life: SessionLife, now: MediaTime) -> (bool, bool, bool, bool) {
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        let beat = (ms(400), ms(30_000));
        core.heartbeat(Some(&mut life.clone()), S, at(60_000), beat, &mut out);
        let reaped = out == [(S, LifeOut::Expired)];
        out.clear();
        core.grace(Some(&mut life.clone()), S, now, &mut out);
        let expires = out == [(S, LifeOut::GraceExpired)];
        (life.phase.sends(), !life.suspended(), reaped, expires)
    }

    /// The spec's answers to [`observe`].
    fn spec_observe(spec: Spec, now: MediaTime) -> (bool, bool, bool, bool) {
        let listed = !spec.suspended;
        let expires = spec.suspended && now >= spec.until;
        (!spec.halts(), listed, listed, expires)
    }

    /// A stream of the walk's session: a clip re-arms after every send, an
    /// image ships once.
    #[derive(Debug, Clone, Copy, Default)]
    struct Stream {
        chain: Chain,
        image: bool,
        done: bool,
    }

    /// A timer in flight, tagged with the stream that armed it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Timer {
        Stream { doc: u32, index: usize, gen: u32 },
        Grace,
    }

    /// What a fired timer did.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fired {
        /// A stream timer: it was not its stream's pending one, or it sent.
        Stream {
            stale: bool,
            sent: bool,
        },
        Grace {
            expired: bool,
        },
    }

    /// One session and what the server actor keeps around the core for it,
    /// applied the way the actor applies it: its document's two streams (a
    /// clip and an image) and every stream and grace timer in flight, stale
    /// ones included, with its due time.
    #[derive(Debug, Clone)]
    struct Rig {
        core: Lifecycle,
        life: SessionLife,
        now: MediaTime,
        doc: u32,
        streams: [Stream; 2],
        timers: Vec<(MediaTime, Timer)>,
    }

    impl Rig {
        fn new() -> Rig {
            let mut rig = Rig {
                core: Lifecycle::default(),
                life: SessionLife::new(MediaTime::ZERO),
                now: MediaTime::ZERO,
                doc: 0,
                streams: Default::default(),
                timers: Vec::new(),
            };
            rig.open();
            rig
        }

        /// Open a document, as `open_stream` does: a clip whose first frame
        /// goes a period from now and an image at its send start.
        fn open(&mut self) {
            self.doc += 1;
            for (index, delay) in [(0, PERIOD), (1, IMAGE_AT)] {
                self.streams[index] = Stream {
                    image: index == 1,
                    ..Stream::default()
                };
                let gen = self.core.arm(&mut self.streams[index].chain);
                self.set(index, gen, ms(delay));
            }
        }

        fn set(&mut self, index: usize, gen: u32, delay: MediaDuration) {
            let (doc, due) = (self.doc, self.now + delay);
            self.timers.push((due, Timer::Stream { doc, index, gen }));
        }

        /// The client's `input`, applied as `flush_life` applies it; a new
        /// document replaces the streams, as `admit_document` does.
        fn input(&mut self, input: Input) -> LifeOuts {
            let mut out = Vec::new();
            self.core.input(Some(&mut self.life), S, input, &mut out);
            for (_, o) in &out {
                match *o {
                    LifeOut::ArmGrace(until) => self.timers.push((until, Timer::Grace)),
                    LifeOut::Rearm => {
                        for index in 0..self.streams.len() {
                            let st = &mut self.streams[index];
                            if st.done {
                                continue;
                            }
                            if let Some(gen) = self.core.rearm(&mut st.chain) {
                                self.set(index, gen, MediaDuration::ZERO);
                            }
                        }
                    }
                    _ => {}
                }
            }
            if input == Input::Switch {
                self.open();
            }
            out
        }

        /// Fire the timer in flight that is due first (the first armed of
        /// equals), as `on_stream_timer` and the `TK_GRACE` arm do.
        fn tick(&mut self) -> Option<Fired> {
            let first = (0..self.timers.len()).reduce(|a, b| {
                if self.timers[b].0 < self.timers[a].0 {
                    b
                } else {
                    a
                }
            })?;
            let (due, timer) = self.timers.remove(first);
            self.now = due;
            let Timer::Stream { doc, index, gen } = timer else {
                let mut out = Vec::new();
                self.core.grace(Some(&mut self.life), S, due, &mut out);
                return Some(Fired::Grace {
                    expired: !out.is_empty(),
                });
            };
            let stale =
                doc != self.doc || self.streams[index].chain.0.map(NonZeroU32::get) != Some(gen);
            let chains = self.streams.iter_mut().enumerate();
            let sent = fire(
                self.life.phase,
                gen,
                chains.map(|(i, st)| (i, &mut st.chain)),
            );
            if let Some(i) = sent {
                if self.streams[i].image {
                    self.streams[i].done = true;
                } else {
                    let gen = self.core.arm(&mut self.streams[i].chain);
                    self.set(i, gen, ms(PERIOD));
                }
            }
            let sent = sent.is_some();
            Some(Fired::Stream { stale, sent })
        }

        /// One pending timer per stream: each of this document's streams
        /// has at most one timer in flight, and it is the one its chain
        /// records, so no stream runs two chains and no older document's
        /// timer drives one. A live stream has its chain while the session
        /// sends.
        fn check_chains(&self) {
            for (index, st) in self.streams.iter().enumerate() {
                let mine: Vec<u32> = (self.timers.iter())
                    .filter_map(|t| match t.1 {
                        Timer::Stream { doc, index: i, gen } if (doc, i) == (self.doc, index) => {
                            Some(gen)
                        }
                        _ => None,
                    })
                    .collect();
                assert!(
                    mine.len() <= 1,
                    "stream {index}: {mine:?} in flight: {self:?}"
                );
                assert_eq!(
                    st.chain.0.map(NonZeroU32::get),
                    mine.first().copied(),
                    "{self:?}"
                );
                if self.life.phase.sends() && !st.done {
                    assert!(
                        st.chain.0.map(NonZeroU32::get).is_some(),
                        "stream {index} halted: {self:?}"
                    );
                }
            }
        }
    }

    /// What the walk reached: the four boolean pairs, and how often a stale
    /// stream timer, a halting stream timer, a stale grace timer, a grace
    /// expiry and a re-arm that left a pending timer alone were met.
    #[derive(Debug, Default)]
    struct Reached {
        phases: BTreeSet<(bool, bool)>,
        stale: u64,
        halts: u64,
        stale_grace: u64,
        expiries: u64,
        kept: u64,
    }

    fn walk(rig: Rig, spec: Spec, depth: usize, reached: &mut Reached) {
        reached.phases.insert((spec.paused, spec.suspended));
        assert_eq!(
            observe(rig.life, rig.now),
            spec_observe(spec, rig.now),
            "{spec:?}"
        );
        rig.check_chains();
        if depth == 0 {
            return;
        }
        for input in inputs(rig.now, ms(GRACE)) {
            let (mut next, mut next_spec) = (rig.clone(), spec);
            let want = next_spec.step(input);
            let got = next.input(input);
            assert_eq!(got, want, "{input:?} from {spec:?}");
            if want.contains(&(S, LifeOut::Rearm)) && input != Input::Switch {
                let live = rig.streams.iter().filter(|st| !st.done);
                reached.kept += live
                    .filter(|st| st.chain.0.map(NonZeroU32::get).is_some())
                    .count() as u64;
            }
            walk(next, next_spec, depth - 1, reached);
        }
        let mut next = rig.clone();
        match next.tick() {
            None => {}
            Some(Fired::Grace { expired }) => {
                let due = spec.suspended && next.now >= spec.until;
                assert_eq!(expired, due, "grace at {:?} from {spec:?}", next.now);
                if expired {
                    // Torn down: the session is gone.
                    reached.expiries += 1;
                    return;
                }
                reached.stale_grace += 1;
                walk(next, spec, depth - 1, reached);
            }
            Some(Fired::Stream { stale, sent }) => {
                assert!(!(stale && sent), "a stale timer sent: {next:?}");
                assert_eq!(sent || stale, !spec.halts() || stale, "{spec:?}");
                reached.stale += u64::from(stale);
                reached.halts += u64::from(!stale && !sent);
                walk(next, spec, depth - 1, reached);
            }
        }
    }

    /// Small-scope exhaustive check: after every sequence of up to seven
    /// steps, each a phase input or the next timer firing (a clip frame, an
    /// image, a grace deadline; current or stale), the phase enum and the
    /// two booleans it replaced agree on every observable — whether streams
    /// send, what each input asks for (a grace timer, a topic list, a
    /// re-arm on every exit from a halting phase), victim and report
    /// membership, the timeout exemption and grace expiry — and every
    /// stream keeps at most one live chain, exactly one while the session
    /// sends. All four boolean pairs, stale stream and grace timers, halts,
    /// expiries and a re-arm that keeps a pending timer are reached.
    #[test]
    fn the_phase_matches_the_two_booleans_it_replaced() {
        let mut reached = Reached::default();
        walk(Rig::new(), Spec::default(), 7, &mut reached);
        assert_eq!(reached.phases.len(), 4, "{reached:?}");
        let r = &reached;
        let counts = [r.stale, r.halts, r.stale_grace, r.expiries, r.kept];
        assert!(counts.iter().all(|&n| n > 0), "{reached:?}");
    }

    #[test]
    fn suspended_but_not_paused_is_its_own_phase() {
        // A resume while suspended clears only the pause: the streams stay
        // halted, and an in-place reconnect leaves it active and re-arms.
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        let mut life = SessionLife::new(MediaTime::ZERO);
        let until = at(10_000);
        for i in [Input::Suspend(until), Input::Resume] {
            core.input(Some(&mut life), S, i, &mut out);
        }
        assert_eq!(out, [(S, LifeOut::ArmGrace(until))]);
        assert_eq!(
            life.phase,
            Phase::Suspended {
                paused: false,
                until
            }
        );
        assert!(!life.phase.sends());
        out.clear();
        core.input(Some(&mut life), S, Input::Reconnect, &mut out);
        assert_eq!(
            (life.phase, &out[..]),
            (Phase::Active, &[(S, LifeOut::Rearm)][..])
        );
        for i in [Input::Suspend(until), Input::Reconnect] {
            core.input(Some(&mut life), S, i, &mut out);
        }
        assert_eq!(life.phase, Phase::Paused);
    }

    #[test]
    fn a_chain_takes_only_its_own_timer() {
        let mut core = Lifecycle::default();
        let (mut a, mut b) = (Chain::default(), Chain::default());
        let (ga, gb) = (core.arm(&mut a), core.arm(&mut b));
        assert_ne!(ga, gb, "generations are minted server-wide");
        // A stale generation matches no chain and changes none.
        assert_eq!(
            fire(Phase::Active, gb + 1, [(1, &mut a), (2, &mut b)]),
            None
        );
        assert_eq!(
            (a.0.map(NonZeroU32::get), b.0.map(NonZeroU32::get)),
            (Some(ga), Some(gb))
        );
        // Its own timer sends while active; outside it the chain halts.
        assert_eq!(fire(Phase::Active, gb, [(1, &mut a), (2, &mut b)]), Some(2));
        assert_eq!(fire(Phase::Paused, ga, [(1, &mut a), (2, &mut b)]), None);
        assert_eq!(
            (a.0.map(NonZeroU32::get), b.0.map(NonZeroU32::get)),
            (None, None)
        );
        // A re-arm arms a halted chain and leaves a pending one alone.
        let ga = core.rearm(&mut a).expect("a halted");
        assert_eq!(core.rearm(&mut a), None);
        assert_eq!(a.0.map(NonZeroU32::get), Some(ga));
    }

    #[test]
    fn heartbeats_fill_gaps_and_reap_silent_clients() {
        let (core, mut out) = (Lifecycle::default(), Vec::new());
        let mut life = SessionLife::new(MediaTime::ZERO);
        let beat = (ms(400), ms(4_000));
        // Media went out 100 ms ago: no beat, but the chain goes on.
        life.last_media = at(300);
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
        let until = at(15_000);
        core.input(Some(&mut life), S, Input::Suspend(until), &mut out);
        assert_eq!(std::mem::take(&mut out), [(S, LifeOut::ArmGrace(until))]);
        core.heartbeat(Some(&mut life), S, at(9_000), beat, &mut out);
        let want = [(S, LifeOut::Beat(3)), (S, LifeOut::ArmHeartbeat)];
        assert_eq!(std::mem::take(&mut out), want);
        // Torn down at its deadline, not before.
        core.grace(Some(&mut life), S, at(14_999), &mut out);
        assert!(out.is_empty());
        core.grace(Some(&mut life), S, until, &mut out);
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
    /// or lost in a crash) or name one never issued, and timer draws index
    /// the timers in flight.
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
        /// Timer draw: a grace timer fires at its deadline or, if the clock
        /// has passed it, now.
        Grace(usize),
        /// Timer draw: a stream timer fires.
        Frame(usize),
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
            s.clone().prop_map(Op::Frame),
            s.clone().prop_map(Op::Frame),
            (s.clone(), 0usize..6).prop_map(|(s, i)| Op::Input(s, i)),
            (0i64..3_000).prop_map(Op::Wait),
            s.prop_map(Op::Disconnect),
            Just(Op::Crash),
        ]
    }

    /// A live session in the fuzz: its phase and liveness, its document's
    /// number and two streams' chains, and the deadline of the last
    /// suspension it was sent.
    #[derive(Debug, Clone, Copy)]
    struct Live {
        life: SessionLife,
        doc: u32,
        chains: [Chain; 2],
        until: MediaTime,
    }

    /// The fuzz's grace period.
    const FUZZ_GRACE: i64 = 2_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No interleaving of connects, reconnects (live, unknown and
        /// post-crash ids), tracked duplicates past the window, acks, media,
        /// heartbeat ticks, grace and stream timers (current, stale, and of
        /// closed sessions), phase inputs, disconnects and crashes panics
        /// the core or reissues an id; the dedup window holds at most 128
        /// ids per client and none after a crash; a removed session answers
        /// nothing; a live session's heartbeat tick re-arms exactly once
        /// unless it expires; a grace timer tears a session down exactly
        /// when it is suspended past its last suspension's deadline; and
        /// every live stream has one pending timer in flight while its
        /// session sends, and never more than one.
        #[test]
        fn any_interleaving_keeps_ids_fresh_and_chains_whole(
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let (mut core, mut out) = (Lifecycle::default(), Vec::new());
            let mut sessions: BTreeMap<SessionId, Live> = BTreeMap::new();
            let mut issued: Vec<SessionId> = Vec::new();
            // Timers in flight: (session, document, stream, generation) and
            // (session, deadline).
            let mut frames: Vec<(SessionId, u32, usize, u32)> = Vec::new();
            let mut graces: Vec<(SessionId, MediaTime)> = Vec::new();
            let mut now = MediaTime::ZERO;
            // A drawn id: one issued so far, or one never issued.
            let pick = |issued: &[SessionId], i: usize| {
                issued.get(i).copied().unwrap_or(SessionId::new(1_000 + i as u64))
            };
            // Open a session's document: both streams' chains armed.
            let open = |core: &mut Lifecycle, s, live: &mut Live, frames: &mut Vec<_>| {
                live.doc += 1;
                for (i, chain) in live.chains.iter_mut().enumerate() {
                    *chain = Chain::default();
                    frames.push((s, live.doc, i, core.arm(chain)));
                }
            };
            for op in &ops {
                let target = match *op {
                    Op::Reconnect(i) | Op::Ack(i) | Op::Media(i) | Op::Heartbeat(i)
                    | Op::Input(i, _) | Op::Disconnect(i) => Some(pick(&issued, i)),
                    _ => None,
                };
                let live = target.is_some_and(|s| sessions.contains_key(&s));
                let entry = target.and_then(|s| sessions.get_mut(&s));
                let life = entry.map(|l| &mut l.life);
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
                        let mut fresh = Live {
                            life: SessionLife::new(now),
                            doc: 0,
                            chains: Default::default(),
                            until: MediaTime::MAX,
                        };
                        open(&mut core, s, &mut fresh, &mut frames);
                        sessions.insert(s, fresh);
                    }
                    Op::Connect | Op::Reconnect(_) => {
                        core.input(life, target.unwrap(), Input::Reconnect, &mut out);
                    }
                    Op::Tracked(client, req) => {
                        core.first_sight(NodeId::new(client), req);
                    }
                    Op::Ack(_) => core.ack(life, now),
                    Op::Media(_) => life.into_iter().for_each(|l| l.last_media = now),
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
                    Op::Grace(k) if !graces.is_empty() => {
                        // It fires at its own deadline, which the clock may
                        // have passed.
                        let (s, due) = graces.remove(k % graces.len());
                        now = now.max(due);
                        let entry = sessions.get_mut(&s);
                        let want = entry.as_ref().is_some_and(|l| l.life.suspended() && due >= l.until);
                        core.grace(entry.map(|l| &mut l.life), s, due, &mut out);
                        let expired = out == [(s, LifeOut::GraceExpired)];
                        prop_assert_eq!(expired, want, "{:?} at {:?}", out, due);
                        if expired {
                            sessions.remove(&s);
                        }
                    }
                    Op::Frame(k) if !frames.is_empty() => {
                        let (s, _, _, gen) = frames.remove(k % frames.len());
                        if let Some(l) = sessions.get_mut(&s) {
                            let chains = l.chains.iter_mut().enumerate();
                            if let Some(i) = fire(l.life.phase, gen, chains) {
                                frames.push((s, l.doc, i, core.arm(&mut l.chains[i])));
                            }
                        }
                    }
                    Op::Grace(_) | Op::Frame(_) => {}
                    Op::Input(_, k) => {
                        let s = target.unwrap();
                        let input = inputs(now, ms(FUZZ_GRACE))[k];
                        core.input(life, s, input, &mut out);
                        if let Some(l) = sessions.get_mut(&s) {
                            for o in &out {
                                match o.1 {
                                    LifeOut::ArmGrace(until) => {
                                        l.until = until;
                                        graces.push((s, until));
                                    }
                                    LifeOut::Rearm => {
                                        for (i, chain) in l.chains.iter_mut().enumerate() {
                                            let armed = core.rearm(chain);
                                            frames.extend(armed.map(|g| (s, l.doc, i, g)));
                                        }
                                    }
                                    _ => {}
                                }
                            }
                            if input == Input::Switch {
                                open(&mut core, s, l, &mut frames);
                            }
                        }
                    }
                    Op::Wait(dt) => now += ms(dt),
                    Op::Disconnect(_) => {
                        sessions.remove(&target.unwrap());
                    }
                    Op::Crash => {
                        // The process's timers die with it.
                        sessions.clear();
                        frames.clear();
                        graces.clear();
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
                // Each stream of a live session's document has at most one
                // timer in flight, the one its chain records.
                for (&s, l) in &sessions {
                    for (i, chain) in l.chains.iter().enumerate() {
                        let mine: Vec<u32> = frames
                            .iter()
                            .filter(|f| (f.0, f.1, f.2) == (s, l.doc, i))
                            .map(|f| f.3)
                            .collect();
                        prop_assert!(mine.len() <= 1, "{:?} stream {}: {:?}", s, i, mine);
                        prop_assert_eq!(mine.first().copied(), chain.0.map(NonZeroU32::get));
                        if l.life.phase.sends() {
                            prop_assert!(chain.0.map(NonZeroU32::get).is_some(), "{:?} stream {} halted", s, i);
                        }
                    }
                }
            }
        }
    }
}
