//! Property tests on the fleet controller's decision functions: the utility
//! ordering always degrades video before audio (and recovers audio before
//! video), the anti-flap dwell means no session is graded twice inside one
//! dwell window regardless of the pressure pattern, and per-class fairness
//! budgets are never exceeded no matter how long pressure persists.

use hermes_od::control::{
    fairness_cap, ControlCommand, ControllerConfig, FleetController, LoadReport, SessionView,
    StreamView, CONTROL_TICK,
};
use hermes_od::core::{MediaDuration, MediaKind, MediaTime, PricingClass};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn kind() -> impl Strategy<Value = MediaKind> {
    prop_oneof![Just(MediaKind::Audio), Just(MediaKind::Video)]
}

fn class() -> impl Strategy<Value = PricingClass> {
    prop_oneof![
        Just(PricingClass::Economy),
        Just(PricingClass::Standard),
        Just(PricingClass::Premium),
    ]
}

/// A stream with a consistent `level <= max_level`.
fn stream(component: u64) -> impl Strategy<Value = StreamView> {
    (kind(), 1u8..=4, 0u8..=4).prop_map(move |(kind, max, raw)| StreamView {
        component,
        kind,
        level: raw % (max + 1),
        max_level: max,
    })
}

/// One session of the local fleet model, owning its streams; the
/// controller's [`SessionView`] borrows them.
#[derive(Debug, Clone)]
struct Session {
    session: u64,
    class: PricingClass,
    streams: Vec<StreamView>,
}

impl Session {
    fn view(&self) -> SessionView<'_> {
        SessionView {
            session: self.session,
            server: 1,
            class: self.class,
            streams: &self.streams,
        }
    }
}

fn session_view(session: u64) -> impl Strategy<Value = Session> {
    (class(), proptest::collection::vec(stream(0), 1..4)).prop_map(move |(class, mut streams)| {
        for (i, s) in streams.iter_mut().enumerate() {
            s.component = i as u64 + 1;
        }
        Session {
            session,
            class,
            streams,
        }
    })
}

fn fleet(n: usize) -> impl Strategy<Value = Vec<Session>> {
    proptest::collection::vec(
        (class(), proptest::collection::vec(stream(0), 1..3)),
        1..n + 1,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (class, mut streams))| {
                for (j, s) in streams.iter_mut().enumerate() {
                    s.component = j as u64 + 1;
                    s.level = 0; // fleets start nominal; the controller degrades them
                }
                Session {
                    session: i as u64 + 1,
                    class,
                    streams,
                }
            })
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Report-loop harness: mirror the service layer by re-publishing the fleet
// state after applying each tick's commands.
// ---------------------------------------------------------------------------

fn publish(view: &[Session], pressured: bool) -> LoadReport {
    let pressure = if pressured { 1.0 } else { 0.0 };
    let sessions = view
        .iter()
        .map(|s| (s.session, s.class, s.streams.iter().copied()));
    LoadReport::server(1, Some(pressure), None, sessions)
}

/// Apply a tick's grade commands to the local fleet model the way the
/// owning server would: one step along the shared video-first order.
fn apply(view: &mut [Session], commands: &[ControlCommand]) {
    for cmd in commands {
        match *cmd {
            ControlCommand::Degrade { session, .. } => {
                if let Some(s) = view.iter_mut().find(|s| s.session == session) {
                    if let Some(component) = s.view().next_step_down().map(|st| st.component) {
                        let st = s
                            .streams
                            .iter_mut()
                            .find(|st| st.component == component)
                            .unwrap();
                        st.level += 1;
                    }
                }
            }
            ControlCommand::Upgrade { session, .. } => {
                if let Some(s) = view.iter_mut().find(|s| s.session == session) {
                    if let Some(component) = s.view().next_step_up().map(|st| st.component) {
                        let st = s
                            .streams
                            .iter_mut()
                            .find(|st| st.component == component)
                            .unwrap();
                        st.level -= 1;
                    }
                }
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The paper's rule, pinned on arbitrary session shapes: the chosen
    /// degrade step is never audio while any video stream still has rungs
    /// left, and the chosen upgrade step is never video while any audio
    /// stream is still degraded.
    #[test]
    fn video_degrades_first_audio_recovers_first(s in session_view(1)) {
        let s = s.view();
        if let Some(down) = s.next_step_down() {
            let video_headroom = s
                .streams
                .iter()
                .any(|st| st.kind == MediaKind::Video && st.level < st.max_level);
            if video_headroom {
                prop_assert_eq!(
                    down.kind,
                    MediaKind::Video,
                    "degrade chose {:?} while video had headroom: {:?}",
                    down.kind,
                    s
                );
            }
        }
        if let Some(up) = s.next_step_up() {
            let audio_degraded = s
                .streams
                .iter()
                .any(|st| st.kind == MediaKind::Audio && st.level > 0);
            if audio_degraded {
                prop_assert_eq!(
                    up.kind,
                    MediaKind::Audio,
                    "upgrade chose {:?} while audio was degraded: {:?}",
                    up.kind,
                    s
                );
            }
        }
    }

    /// Hysteresis: driving the controller with an arbitrary pressure
    /// pattern, no session receives two grade actions (in either direction)
    /// closer together than the dwell window — grades cannot flap.
    #[test]
    fn dwell_prevents_grade_flapping(
        view in fleet(6),
        pattern in proptest::collection::vec(any::<bool>(), 5..40),
    ) {
        let mut view = view;
        let cfg = ControllerConfig::default();
        let mut c = FleetController::new(cfg);
        let mut last_action: BTreeMap<u64, MediaTime> = BTreeMap::new();
        let mut now = MediaTime::ZERO;
        for &pressured in &pattern {
            now += CONTROL_TICK;
            c.ingest(now, 1, publish(&view, pressured));
            let plan = c.tick(now);
            for cmd in &plan.commands {
                let session = match *cmd {
                    ControlCommand::Degrade { session, .. }
                    | ControlCommand::Upgrade { session, .. } => session,
                    _ => continue,
                };
                if let Some(prev) = last_action.get(&session) {
                    prop_assert!(
                        now - *prev >= cfg.dwell,
                        "session {session} graded at {prev} and again at {now} \
                         (dwell {:?})",
                        cfg.dwell
                    );
                }
                last_action.insert(session, now);
            }
            apply(&mut view, &plan.commands);
        }
    }

    /// Fairness: under unbroken pressure of arbitrary length, the number of
    /// degraded sessions per pricing class never exceeds the class budget
    /// cap, and the controller never pushes a session below its ladder
    /// floor.
    #[test]
    fn fairness_budgets_never_exceeded(
        view in fleet(8),
        ticks in 5usize..50,
    ) {
        let mut view = view;
        let mut c = FleetController::new(ControllerConfig::default());
        let mut now = MediaTime::ZERO;
        for _ in 0..ticks {
            now += CONTROL_TICK;
            c.ingest(now, 1, publish(&view, true));
            let plan = c.tick(now);
            prop_assert!(plan.pressured());
            apply(&mut view, &plan.commands);
            for class in PricingClass::ALL {
                let total = view.iter().filter(|s| s.class == class).count();
                let degraded = view
                    .iter()
                    .filter(|s| s.class == class && s.view().degraded())
                    .count();
                prop_assert!(
                    degraded <= fairness_cap(class, total),
                    "{class:?}: {degraded} degraded of {total} exceeds cap {}",
                    fairness_cap(class, total)
                );
            }
            for s in &view {
                for st in &s.streams {
                    prop_assert!(st.level <= st.max_level);
                }
            }
        }
    }

    /// The grade solver never invents work: every command names a session
    /// present in the reported fleet view, and degrade targets always have a
    /// step available (the controller cannot command the impossible).
    #[test]
    fn commands_only_target_live_gradable_sessions(
        view in fleet(6),
        pressured in any::<bool>(),
    ) {
        let cfg = ControllerConfig {
            calm: MediaDuration::ZERO,
            ..ControllerConfig::default()
        };
        let mut c = FleetController::new(cfg);
        let now = MediaTime::from_millis(200);
        c.ingest(now, 1, publish(&view, pressured));
        let plan = c.tick(now);
        for cmd in &plan.commands {
            match *cmd {
                ControlCommand::Degrade { session, .. } => {
                    let s = view.iter().find(|s| s.session == session);
                    prop_assert!(s.is_some_and(|s| s.view().next_step_down().is_some()));
                }
                ControlCommand::Upgrade { session, .. } => {
                    let s = view.iter().find(|s| s.session == session);
                    prop_assert!(s.is_some_and(|s| s.view().degraded()));
                }
                _ => {}
            }
        }
    }
}
