//! The grading core: every regrade of a session's streams, whoever asks —
//! client QoS feedback (each session's [`ServerQosManager`], the paper's
//! long-term recovery of §4), the per-server degradation ladder or the fleet
//! controller. [`Grading`] keeps their state, reads the actor's sessions
//! through [`GradedSession`] and answers in [`GradeOut`] data that the
//! server actor applies in order, so it needs no simulator.

use crate::flow::FlowPlan;
use crate::qos::ServerQosManager;
use hermes_core::{
    ComponentId, GradeDecision, GradeLevel, GradingHysteresis, GradingOrder, MediaDuration,
    MediaKind, MediaTime, PricingClass, QosMeasurement, SessionId,
};
use hermes_media::CodecModel;
use hermes_simnet::{Labels, Severity};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// What the core reads of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamView {
    /// The stream.
    pub component: ComponentId,
    /// Its media kind (only continuous streams are graded).
    pub kind: MediaKind,
    /// The pacer's current level.
    pub level: GradeLevel,
    /// The deepest level of its codec ladder.
    pub max_level: GradeLevel,
    /// Finished transmitting.
    pub done: bool,
    /// Stopped (by grading, the user, or a refused fetch).
    pub stopped: bool,
}

/// A live continuous stream with a level left one step up (`up`) or down.
fn steppable(v: &StreamView, up: bool) -> bool {
    let room = (up && v.level > GradeLevel::NOMINAL) || (!up && v.level < v.max_level);
    v.kind.is_continuous() && !v.done && !v.stopped && room
}

/// What the core reads of one session.
pub trait GradedSession {
    /// Pricing class and connect time (the ladder takes the cheapest class,
    /// then the latest arrival); `None` while suspended pending migration,
    /// when neither the ladder nor the controller touches it.
    fn victim_key(&self) -> Option<(PricingClass, MediaTime)>;
    /// The session's streams in component order.
    fn streams(&self) -> impl Iterator<Item = StreamView> + '_;
}

/// Who asked for a regrade; names its trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Client feedback degraded the stream.
    QosDegrade,
    /// Client feedback upgraded it (or restarted it at its floor).
    QosUpgrade,
    /// A ladder step, down or back up (its [`GradeOut::Ladder`] records it).
    Ladder,
    /// A controller degrade command.
    CtrlDegrade,
    /// A controller upgrade command.
    CtrlUpgrade,
}

/// What the core asks its owner to do, in the order it asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradeOut {
    /// Settle the session's utility integral at its current grades, before
    /// any of them changes.
    Touch(SessionId),
    /// Switch a stream's pacer and manager to a level and tell the client
    /// (`StreamRegraded`): session, stream, level, who asked.
    Regrade(SessionId, ComponentId, GradeLevel, Cause),
    /// Feedback stopped the stream at its floor: stop it and tell the
    /// client (`StreamStopped`).
    Stop(SessionId, ComponentId),
    /// Feedback regrades a stopped stream: clear the stop and arm its frame
    /// timer now (precedes that stream's `Regrade`).
    Restart(SessionId, ComponentId),
    /// A controller command found nothing to step (session gone, suspended,
    /// or at the end of its ladder): count and drop it.
    Stale(SessionId),
    /// One ladder step was taken, after its `Regrade`s: the victim, whether
    /// it was a restore, and the streams it regraded.
    Ladder(SessionId, bool, usize),
}

impl GradeOut {
    /// The trace event this output records, if any: severity, name,
    /// labels and value.
    pub fn event(&self) -> Option<(Severity, &'static str, Labels, i64)> {
        use Severity::{Info, Warn};
        let on = |s: SessionId| Labels::session(s.raw());
        Some(match *self {
            GradeOut::Regrade(s, c, level, cause) => {
                let (severity, name) = match cause {
                    Cause::QosDegrade => (Warn, "qos_degrade"),
                    Cause::QosUpgrade => (Info, "qos_upgrade"),
                    Cause::CtrlDegrade => (Warn, "ctrl_degrade"),
                    Cause::CtrlUpgrade => (Info, "ctrl_upgrade"),
                    Cause::Ladder => return None,
                };
                (severity, name, on(s).stream(c.raw()), level.0 as i64)
            }
            GradeOut::Stop(s, c) => (Warn, "qos_stop", on(s).stream(c.raw()), 0),
            GradeOut::Stale(s) => (Info, "ctrl_stale", on(s), 0),
            GradeOut::Ladder(s, false, n) => (Warn, "ladder_degrade", on(s), n as i64),
            GradeOut::Ladder(s, true, n) => (Info, "ladder_restore", on(s), n as i64),
            GradeOut::Touch(_) | GradeOut::Restart(..) => return None,
        })
    }
}

/// Deepest grade level feedback may take a video stream to before it must
/// stop it instead (§4: "when falling to the lower threshold, the service
/// may choose to stop transmitting"): the full ladder.
const VIDEO_FLOOR: GradeLevel = GradeLevel(4);
/// The same for audio, kept shallow: the paper grades video first because
/// "users can tolerate lower video quality rather than not hear well".
const AUDIO_FLOOR: GradeLevel = GradeLevel(2);

/// The grading state of one server.
#[derive(Debug, Default)]
pub struct Grading {
    order: GradingOrder,
    hysteresis: GradingHysteresis,
    /// Each session's feedback manager, created by its first
    /// [`register`](Self::register); an absent one acts as an empty one.
    qos: BTreeMap<SessionId, ServerQosManager>,
    /// Ladder steps, most recent last: the victim and the levels its
    /// streams held before the step (the exact restore target).
    stack: Vec<(SessionId, Vec<(ComponentId, GradeLevel)>)>,
    /// The ladder's timer chain is running.
    armed: bool,
    /// Last instant the ladder saw pressure (or restored); restores wait
    /// out the hysteresis from here.
    last_pressure: MediaTime,
}

impl Grading {
    /// Grading with the feedback managers' order and hysteresis.
    pub fn new(order: GradingOrder, h: GradingHysteresis) -> Self {
        Grading {
            order,
            hysteresis: h,
            ..Self::default()
        }
    }

    /// The session's feedback manager, once it has a registered stream.
    pub fn qos(&self, session: SessionId) -> Option<&ServerQosManager> {
        self.qos.get(&session)
    }

    /// Put `plan`'s continuous stream under feedback management above its
    /// kind's presentation floor, `shed` levels below nominal (admission-
    /// time shedding, clamped to its codec ladder); returns that level.
    pub fn register(&mut self, session: SessionId, plan: &FlowPlan, shed: u8) -> GradeLevel {
        let model = CodecModel::for_encoding(plan.encoding);
        let start = GradeLevel(shed).min(model.max_level());
        let floor = match plan.kind {
            MediaKind::Audio => AUDIO_FLOOR,
            _ => VIDEO_FLOOR,
        };
        let qos = self.qos.entry(session);
        let qos = qos.or_insert_with(|| ServerQosManager::new(self.order, self.hysteresis));
        qos.register(plan.component, model, floor, plan.requirement);
        qos.force_level(plan.component, start);
        start
    }

    /// Forget the session's managed streams (a new document, or the
    /// session left). Its ladder steps stay; a restore skips them.
    pub fn reset(&mut self, session: SessionId) {
        self.qos.remove(&session);
    }

    /// Keep the session's manager in step with a regrade it did not decide
    /// (a stream it never registered is left alone).
    pub fn force_level(&mut self, session: SessionId, component: ComponentId, level: GradeLevel) {
        if let Some(q) = self.qos.get_mut(&session) {
            q.force_level(component, level);
        }
    }

    /// The process died: managers, ladder steps and the timer chain go.
    pub fn crash(&mut self) {
        self.qos.clear();
        self.stack.clear();
        self.armed = false;
    }

    /// One client feedback report. The utility touch comes first, even
    /// when the manager decides nothing.
    pub fn feedback<S: GradedSession>(
        &mut self,
        sessions: &BTreeMap<SessionId, S>,
        session: SessionId,
        report: impl IntoIterator<Item = (ComponentId, QosMeasurement)>,
        out: &mut Vec<GradeOut>,
    ) {
        let Some(s) = sessions.get(&session) else {
            return;
        };
        out.push(GradeOut::Touch(session));
        let qos = self.qos.get_mut(&session);
        let Some((c, decision, level)) = qos.and_then(|q| q.on_feedback(report)) else {
            return;
        };
        let Some(v) = s.streams().find(|v| v.component == c) else {
            return;
        };
        let cause = match decision {
            GradeDecision::Degrade => Cause::QosDegrade,
            GradeDecision::Upgrade => Cause::QosUpgrade,
            GradeDecision::Stop => return out.push(GradeOut::Stop(session, c)),
            GradeDecision::Hold => return,
        };
        if v.stopped {
            out.push(GradeOut::Restart(session, c));
        }
        out.push(GradeOut::Regrade(session, c, level, cause));
    }

    /// A controller grade command: step the session's first stream in
    /// degrade order (video first under the paper's rule) down, or its
    /// last one up. No step to take makes it [`GradeOut::Stale`].
    pub fn control<S: GradedSession>(
        &self,
        sessions: &BTreeMap<SessionId, S>,
        session: SessionId,
        upgrade: bool,
        out: &mut Vec<GradeOut>,
    ) {
        let rank = |v: &StreamView| (self.order.degrade_rank(v.kind), v.level, v.component);
        let s = sessions.get(&session).filter(|s| s.victim_key().is_some());
        let steps = s.into_iter().flat_map(|s| s.streams());
        let steps = steps.filter(|v| steppable(v, upgrade));
        let (target, cause, by) = if upgrade {
            (steps.max_by_key(rank), Cause::CtrlUpgrade, -1)
        } else {
            (steps.min_by_key(rank), Cause::CtrlDegrade, 1)
        };
        let Some(v) = target else {
            return out.push(GradeOut::Stale(session));
        };
        let level = GradeLevel(v.level.0.saturating_add_signed(by));
        out.push(GradeOut::Touch(session));
        out.push(GradeOut::Regrade(session, v.component, level, cause));
    }

    /// Note that the ladder's timer chain runs (`on`) or has ended: true
    /// when it has just started, so the caller arms the first tick.
    pub fn arm_ladder(&mut self, on: bool) -> bool {
        !std::mem::replace(&mut self.armed, on) && on
    }

    /// One ladder evaluation. Under pressure the victim (the cheapest
    /// pricing class, then the latest connected, then the highest id)
    /// walks each steppable stream one level down. Once pressure has
    /// stayed clear for `hysteresis`, the latest step is undone: its
    /// session's still-live streams go back where they were.
    pub fn ladder_tick<S: GradedSession>(
        &mut self,
        sessions: &BTreeMap<SessionId, S>,
        now: MediaTime,
        overloaded: bool,
        hysteresis: MediaDuration,
        out: &mut Vec<GradeOut>,
    ) {
        let (session, steps, restore) = if overloaded {
            self.last_pressure = now;
            let victim = sessions
                .iter()
                .filter(|(_, s)| s.streams().any(|v| steppable(&v, false)))
                .filter_map(|(&sid, s)| Some((s.victim_key()?, sid, s)))
                .min_by_key(|&((class, at), sid, _)| (class, Reverse(at), Reverse(sid)));
            let Some((_, session, s)) = victim else {
                return; // everyone is already at the bottom of the ladder
            };
            let steps = s.streams().filter(|v| steppable(v, false));
            let prior: Vec<_> = steps.map(|v| (v.component, v.level)).collect();
            self.stack.push((session, prior.clone()));
            (session, prior, false)
        } else if now - self.last_pressure < hysteresis {
            return;
        } else if let Some((session, prior)) = self.stack.pop() {
            // Space successive restores a full hysteresis apart.
            self.last_pressure = now;
            let Some(s) = sessions.get(&session) else {
                return; // the victim left meanwhile
            };
            let live = |&(c, _): &(ComponentId, _)| {
                s.streams()
                    .any(|v| v.component == c && !v.done && !v.stopped)
            };
            (session, prior.into_iter().filter(live).collect(), true)
        } else {
            return;
        };
        out.push(GradeOut::Touch(session));
        // A degrade takes each stream one level below its prior; a restore
        // puts it back there.
        let down = u8::from(!restore);
        for &(c, prior) in &steps {
            let level = GradeLevel(prior.0 + down);
            out.push(GradeOut::Regrade(session, c, level, Cause::Ladder));
        }
        out.push(GradeOut::Ladder(session, restore, steps.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{Encoding, MediaSource, QosRequirement, ServerId};
    use proptest::prelude::*;

    const AUDIO: ComponentId = ComponentId::new(1);
    const VIDEO: ComponentId = ComponentId::new(2);
    const IMAGE: ComponentId = ComponentId::new(3);

    fn ses(n: u64) -> SessionId {
        SessionId::new(n)
    }

    fn ms(t: i64) -> MediaDuration {
        MediaDuration::from_millis(t)
    }

    /// A session as the server actor describes it: its streams' views.
    #[derive(Debug, Clone)]
    struct Ses {
        class: PricingClass,
        at: MediaTime,
        suspended: bool,
        streams: BTreeMap<ComponentId, StreamView>,
    }

    impl GradedSession for Ses {
        fn victim_key(&self) -> Option<(PricingClass, MediaTime)> {
            (!self.suspended).then_some((self.class, self.at))
        }
        fn streams(&self) -> impl Iterator<Item = StreamView> + '_ {
            self.streams.values().copied()
        }
    }

    fn plan(component: ComponentId) -> FlowPlan {
        let (kind, encoding) = match component {
            AUDIO => (MediaKind::Audio, Encoding::Pcm),
            VIDEO => (MediaKind::Video, Encoding::Mpeg),
            _ => (MediaKind::Image, Encoding::Jpeg),
        };
        FlowPlan {
            component,
            kind,
            encoding,
            source: MediaSource::new(ServerId::new(0), "obj"),
            send_start: MediaTime::ZERO,
            frame_period: ms(40),
            duration: MediaDuration::from_secs(10),
            rate_bps: 1_000_000,
            requirement: QosRequirement::continuous(1_000_000, 100, 0.02),
        }
    }

    fn grading() -> Grading {
        let (order, hysteresis) = (GradingOrder::VideoFirst, GradingHysteresis::default());
        Grading::new(order, hysteresis)
    }

    /// Start a document of audio + video + an image for `session`, `shed`
    /// levels down, as the actor's delivery does.
    fn join(g: &mut Grading, class: PricingClass, at: i64, session: SessionId, shed: u8) -> Ses {
        g.reset(session);
        let mut streams = BTreeMap::new();
        for c in [AUDIO, VIDEO, IMAGE] {
            let plan = plan(c);
            let model = CodecModel::for_encoding(plan.encoding);
            let level = if plan.kind.is_continuous() {
                g.register(session, &plan, shed)
            } else {
                GradeLevel::NOMINAL
            };
            let (done, stopped) = (false, false);
            let (kind, max_level) = (plan.kind, model.max_level());
            let v = StreamView {
                component: c,
                kind,
                level,
                max_level,
                done,
                stopped,
            };
            streams.insert(c, v);
        }
        let (at, suspended) = (MediaTime::ZERO + ms(at), false);
        Ses {
            class,
            at,
            suspended,
            streams,
        }
    }

    fn view(
        sessions: &mut BTreeMap<SessionId, Ses>,
        session: SessionId,
        component: ComponentId,
    ) -> Option<&mut StreamView> {
        sessions.get_mut(&session)?.streams.get_mut(&component)
    }

    /// Apply the outputs as the actor's `flush_grade` does; every stream
    /// output must name a stream that exists.
    fn apply(
        g: &mut Grading,
        sessions: &mut BTreeMap<SessionId, Ses>,
        out: &mut Vec<GradeOut>,
    ) -> Result<(), TestCaseError> {
        for o in out.drain(..) {
            let (session, component) = match o {
                GradeOut::Regrade(s, c, ..) | GradeOut::Stop(s, c) | GradeOut::Restart(s, c) => {
                    (s, c)
                }
                _ => continue,
            };
            let Some(v) = view(sessions, session, component) else {
                return Err(TestCaseError::fail(format!("{o:?} names no stream")));
            };
            match o {
                GradeOut::Regrade(_, _, level, _) => {
                    prop_assert!(level <= v.max_level, "{o:?} past {:?}", v.max_level);
                    g.force_level(session, component, level);
                    v.level = level;
                }
                GradeOut::Stop(..) => v.stopped = true,
                _ => v.stopped = false,
            }
        }
        Ok(())
    }

    fn regraded(out: &[GradeOut]) -> Vec<(u64, u64, u8)> {
        let it = out.iter().filter_map(|o| match *o {
            GradeOut::Regrade(s, c, level, _) => Some((s.raw(), c.raw(), level.0)),
            _ => None,
        });
        it.collect()
    }

    /// A report every stream of which measures `delay_ms` against a 100 ms
    /// bound (150 congests, 10 is healthy).
    fn report(delay_ms: i64) -> [(ComponentId, QosMeasurement); 2] {
        let m = QosMeasurement {
            window_end: MediaTime::ZERO,
            mean_delay: ms(delay_ms),
            jitter: MediaDuration::ZERO,
            loss_fraction: 0.0,
            packets_received: 100,
            buffer_occupancy: 0.5,
        };
        [(AUDIO, m), (VIDEO, m)]
    }

    #[test]
    fn ladder_takes_the_cheapest_class_then_the_latest_arrival() {
        let (mut g, mut out) = (grading(), Vec::new());
        let mut sessions = BTreeMap::new();
        for (n, class, at) in [
            (1, PricingClass::Economy, 0),
            (2, PricingClass::Premium, 900),
            (3, PricingClass::Economy, 500),
            (4, PricingClass::Economy, 500),
            (5, PricingClass::Economy, 800),
        ] {
            sessions.insert(ses(n), join(&mut g, class, at, ses(n), 0));
        }
        // Suspended sessions are never a victim.
        sessions.get_mut(&ses(5)).unwrap().suspended = true;
        let mut victims = Vec::new();
        for t in 0..40 {
            let now = MediaTime::ZERO + ms(250 * t);
            g.ladder_tick(&sessions, now, true, ms(2_000), &mut out);
            victims.extend(out.iter().filter_map(|o| match o {
                GradeOut::Ladder(s, ..) => Some(s.raw()),
                _ => None,
            }));
            apply(&mut g, &mut sessions, &mut out).unwrap();
        }
        // Each session walks audio (2 rungs) and video (4) down: four steps,
        // the first two regrading both streams.
        let order: Vec<u64> = [4, 3, 1, 2].iter().flat_map(|&s| [s; 4]).collect();
        assert_eq!(victims, order);
        for s in sessions.values().filter(|s| !s.suspended) {
            assert!(s.streams().all(|v| !steppable(&v, false)));
        }
        assert_eq!(sessions[&ses(5)].streams[&VIDEO].level, GradeLevel::NOMINAL);
    }

    #[test]
    fn restore_is_lifo_and_skips_ended_streams_and_departed_sessions() {
        let (mut g, mut out) = (grading(), Vec::new());
        // Every session starts one rung above the bottom of both ladders,
        // so each ladder step takes a new victim.
        let mut sessions = BTreeMap::new();
        for n in 1..=3 {
            let mut s = join(&mut g, PricingClass::Standard, n as i64, ses(n), 3);
            s.streams.get_mut(&AUDIO).unwrap().level = GradeLevel(1);
            sessions.insert(ses(n), s);
        }
        let at = |t| MediaTime::ZERO + ms(t);
        for t in 0..3 {
            g.ladder_tick(&sessions, at(t), true, ms(1_000), &mut out);
            apply(&mut g, &mut sessions, &mut out).unwrap();
        }
        // Stepped 3, 2, 1 (latest arrival first). Now 1's video ends and 2
        // leaves.
        view(&mut sessions, ses(1), VIDEO).unwrap().done = true;
        sessions.remove(&ses(2));
        g.reset(ses(2));
        // Calm, but not for the hysteresis yet.
        g.ladder_tick(&sessions, at(900), false, ms(1_000), &mut out);
        assert!(out.is_empty());
        g.ladder_tick(&sessions, at(1_002), false, ms(1_000), &mut out);
        let step = GradeOut::Ladder(ses(1), true, 1);
        assert_eq!(regraded(&out), vec![(1, 1, 1)]);
        assert_eq!(out.last(), Some(&step));
        apply(&mut g, &mut sessions, &mut out).unwrap();
        // Restores are spaced a hysteresis apart; the departed session's
        // step pops with no output at all.
        g.ladder_tick(&sessions, at(1_500), false, ms(1_000), &mut out);
        assert!(out.is_empty());
        g.ladder_tick(&sessions, at(2_002), false, ms(1_000), &mut out);
        assert!(out.is_empty());
        g.ladder_tick(&sessions, at(3_002), false, ms(1_000), &mut out);
        assert_eq!(out[0], GradeOut::Touch(ses(3)));
        assert_eq!(regraded(&out), vec![(3, 1, 1), (3, 2, 3)]);
        apply(&mut g, &mut sessions, &mut out).unwrap();
        g.ladder_tick(&sessions, at(9_000), false, ms(1_000), &mut out);
        assert!(out.is_empty() && g.stack.is_empty());
    }

    #[test]
    fn control_steps_video_first_and_drops_what_it_cannot_step() {
        let (mut g, mut out) = (grading(), Vec::new());
        let mut sessions = BTreeMap::new();
        sessions.insert(ses(1), join(&mut g, PricingClass::Standard, 0, ses(1), 0));
        let stale = |session| vec![GradeOut::Stale(session)];
        // Unknown session; nothing to upgrade at nominal.
        g.control(&sessions, ses(9), false, &mut out);
        assert_eq!(std::mem::take(&mut out), stale(ses(9)));
        g.control(&sessions, ses(1), true, &mut out);
        assert_eq!(std::mem::take(&mut out), stale(ses(1)));
        // Degrades take video before audio; a step touches first.
        g.control(&sessions, ses(1), false, &mut out);
        assert_eq!(out[0], GradeOut::Touch(ses(1)));
        assert_eq!(regraded(&out), vec![(1, 2, 1)]);
        apply(&mut g, &mut sessions, &mut out).unwrap();
        assert_eq!(g.qos(ses(1)).unwrap().level_of(VIDEO), Some(GradeLevel(1)));
        for _ in 0..3 {
            g.control(&sessions, ses(1), false, &mut out);
            apply(&mut g, &mut sessions, &mut out).unwrap();
        }
        // Video is at its bottom rung: audio next. Upgrades undo in reverse.
        g.control(&sessions, ses(1), false, &mut out);
        assert_eq!(regraded(&out), vec![(1, 1, 1)]);
        apply(&mut g, &mut sessions, &mut out).unwrap();
        g.control(&sessions, ses(1), true, &mut out);
        assert_eq!(regraded(&out), vec![(1, 1, 0)]);
        apply(&mut g, &mut sessions, &mut out).unwrap();
        // Suspended, or every stream ended: stale.
        sessions.get_mut(&ses(1)).unwrap().suspended = true;
        g.control(&sessions, ses(1), true, &mut out);
        assert_eq!(std::mem::take(&mut out), stale(ses(1)));
        let s = sessions.get_mut(&ses(1)).unwrap();
        s.suspended = false;
        s.streams.values_mut().for_each(|v| v.done = true);
        g.control(&sessions, ses(1), true, &mut out);
        assert_eq!(out, stale(ses(1)));
    }

    #[test]
    fn feedback_stops_at_the_floor_and_restarts_the_stopped_stream() {
        let (mut g, mut out) = (grading(), Vec::new());
        let mut sessions = BTreeMap::new();
        // Unknown session: not even a touch.
        g.feedback(&sessions, ses(1), report(150), &mut out);
        assert!(out.is_empty());
        sessions.insert(ses(1), join(&mut g, PricingClass::Standard, 0, ses(1), 0));
        // Video walks its four rungs (floor 4), then stops.
        for level in 1..=4 {
            g.feedback(&sessions, ses(1), report(150), &mut out);
            assert_eq!(out[0], GradeOut::Touch(ses(1)));
            assert_eq!(regraded(&out), vec![(1, 2, level)]);
            apply(&mut g, &mut sessions, &mut out).unwrap();
        }
        g.feedback(&sessions, ses(1), report(150), &mut out);
        let stop = GradeOut::Stop(ses(1), VIDEO);
        assert_eq!(out, vec![GradeOut::Touch(ses(1)), stop]);
        assert_eq!(stop.event().map(|e| e.1), Some("qos_stop"));
        apply(&mut g, &mut sessions, &mut out).unwrap();
        // Patient health restores audio first (nothing to do), then
        // restarts video at its floor: the restart precedes the regrade.
        let mut seen = Vec::new();
        for _ in 0..3 {
            g.feedback(&sessions, ses(1), report(10), &mut out);
            seen.extend(out.iter().copied());
            apply(&mut g, &mut sessions, &mut out).unwrap();
        }
        let restart = GradeOut::Restart(ses(1), VIDEO);
        let regrade = GradeOut::Regrade(ses(1), VIDEO, GradeLevel(4), Cause::QosUpgrade);
        assert_eq!(seen[seen.len() - 2..], [restart, regrade]);
        assert!(!sessions[&ses(1)].streams[&VIDEO].stopped);
    }

    #[test]
    fn crash_forgets_managers_steps_and_the_timer_chain() {
        let (mut g, mut out) = (grading(), Vec::new());
        let mut sessions = BTreeMap::new();
        sessions.insert(ses(1), join(&mut g, PricingClass::Standard, 0, ses(1), 1));
        assert_eq!(g.qos(ses(1)).unwrap().level_of(VIDEO), Some(GradeLevel(1)));
        assert!(g.arm_ladder(true) && !g.arm_ladder(true));
        g.ladder_tick(&sessions, MediaTime::ZERO, true, ms(1_000), &mut out);
        apply(&mut g, &mut sessions, &mut out).unwrap();
        assert_eq!(g.stack.len(), 1);
        g.crash();
        assert!(g.qos(ses(1)).is_none() && g.stack.is_empty());
        assert!(g.arm_ladder(true), "the restarted process arms a new chain");
        // A tick that finds the ladder switched off ends the chain.
        assert!(!g.arm_ladder(false) && g.arm_ladder(true));
    }

    /// One input; session draws may name sessions that never joined or left.
    #[derive(Debug, Clone)]
    enum Op {
        /// Session, pricing class, connect-time draw, admission shed.
        Join(u64, usize, i64, u8),
        /// Session, report delay in ms.
        Feedback(u64, i64),
        /// Advance the clock by this many ms, then tick the ladder.
        Tick(i64, bool),
        /// Session, upgrade.
        Control(u64, bool),
        /// Session, component: the stream finished.
        End(u64, u64),
        /// Session, component: stopped outside grading (a refused fetch).
        Stop(u64, u64),
        /// Session, suspended.
        Suspend(u64, bool),
        Leave(u64),
        Crash,
    }

    fn op() -> impl Strategy<Value = Op> {
        let (s, c) = (0u64..6, 1u64..4);
        prop_oneof![
            (s.clone(), 0usize..3, 0i64..5_000, 0u8..6)
                .prop_map(|(s, k, at, shed)| Op::Join(s, k, at, shed)),
            (s.clone(), 0usize..4).prop_map(|(s, d)| Op::Feedback(s, [10, 70, 150, 400][d])),
            (0i64..3_000, any::<bool>()).prop_map(|(dt, p)| Op::Tick(dt, p)),
            (s.clone(), any::<bool>()).prop_map(|(s, up)| Op::Control(s, up)),
            (s.clone(), c.clone()).prop_map(|(s, c)| Op::End(s, c)),
            (s.clone(), c).prop_map(|(s, c)| Op::Stop(s, c)),
            (s.clone(), any::<bool>()).prop_map(|(s, b)| Op::Suspend(s, b)),
            s.prop_map(Op::Leave),
            Just(Op::Crash),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// No interleaving of feedback, ladder ticks, controller commands,
        /// stream ends and stops, departures and crashes — unknown and
        /// ended ids included — panics the core, names a stream that is
        /// not there, or takes a level out of `[0, max_level]`; a crash
        /// leaves no ladder step behind.
        #[test]
        fn any_interleaving_keeps_levels_on_the_ladder(
            ops in proptest::collection::vec(op(), 1..150),
        ) {
            let (mut g, mut out) = (grading(), Vec::new());
            let mut sessions: BTreeMap<SessionId, Ses> = BTreeMap::new();
            let mut now = MediaTime::ZERO;
            let classes = [PricingClass::Economy, PricingClass::Standard, PricingClass::Premium];
            for op in &ops {
                match *op {
                    Op::Join(s, k, at, shed) => {
                        let joined = join(&mut g, classes[k], at, ses(s), shed);
                        sessions.insert(ses(s), joined);
                    }
                    Op::Feedback(s, d) => g.feedback(&sessions, ses(s), report(d), &mut out),
                    Op::Tick(dt, overloaded) => {
                        now += ms(dt);
                        g.ladder_tick(&sessions, now, overloaded, ms(2_000), &mut out);
                    }
                    Op::Control(s, up) => g.control(&sessions, ses(s), up, &mut out),
                    Op::End(s, c) => {
                        if let Some(v) = view(&mut sessions, ses(s), ComponentId::new(c)) {
                            v.done = true;
                        }
                    }
                    Op::Stop(s, c) => {
                        if let Some(v) = view(&mut sessions, ses(s), ComponentId::new(c)) {
                            v.stopped = true;
                        }
                    }
                    Op::Suspend(s, b) => {
                        if let Some(x) = sessions.get_mut(&ses(s)) {
                            x.suspended = b;
                        }
                    }
                    Op::Leave(s) => {
                        sessions.remove(&ses(s));
                        g.reset(ses(s));
                    }
                    Op::Crash => {
                        sessions.clear();
                        g.crash();
                        prop_assert!(g.stack.is_empty());
                    }
                }
                apply(&mut g, &mut sessions, &mut out)?;
                for (sid, s) in &sessions {
                    for v in s.streams() {
                        prop_assert!(v.level <= v.max_level);
                        let managed = g.qos(*sid).and_then(|q| q.level_of(v.component));
                        prop_assert!(managed.is_none_or(|l| l <= v.max_level));
                    }
                }
            }
        }
    }
}
