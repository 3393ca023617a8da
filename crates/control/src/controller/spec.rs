//! Executable spec for the controller's report reading, and the
//! differential test that holds the typed path to it.
//!
//! The spec is the controller as it read reports before they were typed:
//! each reporter's last [`MetricsRegistry`], scanned gauge by gauge on
//! every call, with sessions and streams gathered in two `BTreeMap`s and
//! every pressure-named gauge voting. Random fleets are built three ways —
//! [`LoadReport::server`] / [`LoadReport::queue`] as the actors build them,
//! the registry adapter, and the registries themselves under the spec — and
//! must give the same fleet view and pressure sources.

use super::*;
use crate::utility::{class_from_priority, decode_kind, encode_kind, StreamView};
use hermes_core::MediaKind;
use hermes_obs::{Labels, MetricsRegistry};
use proptest::prelude::*;

type Reports = BTreeMap<u64, (MediaTime, MetricsRegistry)>;

/// One session of a fleet view, owning its streams: `(server, session,
/// class, streams)`.
type OwnedView = (u64, u64, PricingClass, Vec<StreamView>);

/// A fleet view as owned rows, to compare with the spec's.
fn owned(view: &[SessionView]) -> Vec<OwnedView> {
    let row = |s: &SessionView| (s.server, s.session, s.class, s.streams.to_vec());
    view.iter().map(row).collect()
}

/// The registry-scanning fleet view.
fn fleet_view(reports: &Reports, now: MediaTime) -> Vec<OwnedView> {
    let mut sessions: BTreeMap<(u64, u64), OwnedView> = BTreeMap::new();
    let mut streams: BTreeMap<(u64, u64, u64), StreamView> = BTreeMap::new();
    for (&node, (at, reg)) in reports {
        if now - *at > STALE_AFTER {
            continue;
        }
        for (key, v) in reg.gauges() {
            let (Some(session), peer) = (key.labels.session, key.labels.peer) else {
                continue;
            };
            let server = peer.unwrap_or(node);
            match (key.name, key.labels.stream) {
                (names::SESSION_CLASS, None) => {
                    sessions
                        .entry((server, session))
                        .or_insert_with(|| (server, session, PricingClass::Economy, Vec::new()))
                        .2 = class_from_priority(v as u8);
                }
                (name, Some(stream)) => {
                    let s = streams
                        .entry((server, session, stream))
                        .or_insert(StreamView {
                            component: stream,
                            kind: MediaKind::Video,
                            level: 0,
                            max_level: 0,
                        });
                    match name {
                        names::STREAM_LEVEL => s.level = v as u8,
                        names::STREAM_MAX => s.max_level = v as u8,
                        names::STREAM_KIND => s.kind = decode_kind(v),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    for ((server, session, _), s) in streams {
        if let Some(view) = sessions.get_mut(&(server, session)) {
            view.3.push(s);
        }
    }
    sessions.into_values().collect()
}

/// The registry-scanning pressure sources.
fn pressure_sources(cfg: &ControllerConfig, reports: &Reports, now: MediaTime) -> u8 {
    let mut sources = 0u8;
    for (_, (at, reg)) in reports.iter() {
        if now - *at > STALE_AFTER {
            continue;
        }
        for (key, v) in reg.gauges() {
            if key.name == names::PRESSURE && v >= 0.5 {
                sources |= 1;
            } else if key.name == names::QUEUE_LEN && v >= cfg.queue_target {
                sources |= 2;
            } else if key.name == names::SLO_BURN && v >= cfg.burn_target * 1000.0 {
                sources |= 4;
            }
        }
    }
    sources
}

/// One session as a server reports it: id, class, streams.
type SessionRows = (u64, PricingClass, Vec<StreamView>);

/// What one reporter measures.
#[derive(Debug, Clone)]
enum Load {
    /// A media node: its queue depth.
    Media(usize),
    /// A server.
    Server {
        pressure: Option<f64>,
        /// A second pressure gauge under another label.
        extra_pressure: Option<f64>,
        burn: Option<f64>,
        sessions: Vec<SessionRows>,
        /// `(session, stream)` gauges with no session row.
        orphans: Vec<(u64, u64)>,
    },
}

/// One reporter of a random fleet.
#[derive(Debug, Clone)]
struct Reporter {
    /// The reporting node.
    node: u64,
    /// The `peer` label of its gauges; `None` leaves them unlabelled, so
    /// the reporter owns its sessions.
    peer: Option<u64>,
    /// The report's age at the tick.
    age_ms: i64,
    load: Load,
}

impl Reporter {
    fn labels(&self) -> Labels {
        Labels {
            peer: self.peer,
            ..Labels::NONE
        }
    }

    fn session_labels(&self, session: u64) -> Labels {
        Labels {
            peer: self.peer,
            ..Labels::session(session)
        }
    }

    /// The registry the actors published before reports were typed.
    fn registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        match &self.load {
            Load::Media(queue) => r.gauge_set(names::QUEUE_LEN, self.labels(), *queue as f64),
            Load::Server {
                pressure,
                burn,
                sessions,
                ..
            } => {
                if let Some(v) = *pressure {
                    r.gauge_set(names::PRESSURE, self.labels(), v);
                }
                if let Some(v) = *burn {
                    r.gauge_set(names::SLO_BURN, self.labels(), v);
                }
                for (session, class, streams) in sessions {
                    let l = self.session_labels(*session);
                    r.gauge_set(names::SESSION_CLASS, l, class.priority() as f64);
                    for s in streams {
                        self.stream_gauges(&mut r, *session, s);
                    }
                }
            }
        }
        r
    }

    /// [`Self::registry`] plus the gauges the typed form has no row for:
    /// the second pressure gauge and the orphan streams.
    fn registry_with_noise(&self) -> MetricsRegistry {
        let mut r = self.registry();
        if let Load::Server {
            extra_pressure,
            orphans,
            ..
        } = &self.load
        {
            if let Some(v) = *extra_pressure {
                let other = Labels::for_peer(self.node + 100);
                r.gauge_set(names::PRESSURE, other, v);
            }
            for &(session, component) in orphans {
                let s = StreamView {
                    component,
                    kind: MediaKind::Audio,
                    level: 1,
                    max_level: 2,
                };
                self.stream_gauges(&mut r, session, &s);
            }
        }
        r
    }

    fn stream_gauges(&self, r: &mut MetricsRegistry, session: u64, s: &StreamView) {
        let l = self.session_labels(session).stream(s.component);
        r.gauge_set(names::STREAM_KIND, l, encode_kind(s.kind));
        r.gauge_set(names::STREAM_LEVEL, l, s.level as f64);
        r.gauge_set(names::STREAM_MAX, l, s.max_level as f64);
    }

    /// The typed report as the actors build it; `noise` folds in the
    /// second pressure gauge.
    fn report(&self, noise: bool) -> LoadReport {
        match &self.load {
            Load::Media(queue) => LoadReport::queue(*queue),
            Load::Server {
                pressure,
                extra_pressure,
                burn,
                sessions,
                ..
            } => {
                let pressure = match (*pressure, extra_pressure.filter(|_| noise)) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                let rows = sessions
                    .iter()
                    .map(|(session, class, streams)| (*session, *class, streams.iter().copied()));
                LoadReport::server(self.peer.unwrap_or(self.node), pressure, *burn, rows)
            }
        }
    }
}

fn class() -> impl Strategy<Value = PricingClass> {
    prop_oneof![
        Just(PricingClass::Economy),
        Just(PricingClass::Standard),
        Just(PricingClass::Premium),
    ]
}

/// A continuous stream with `level <= max_level`; its component is set by
/// the session.
fn stream() -> impl Strategy<Value = StreamView> {
    let kind = prop_oneof![Just(MediaKind::Audio), Just(MediaKind::Video)];
    (kind, 0u8..=4, 0u8..=4).prop_map(|(kind, max_level, raw)| StreamView {
        component: 0,
        kind,
        level: raw % (max_level + 1),
        max_level,
    })
}

/// 0–40 sessions of 0–3 streams. Session ids are odd; components run
/// downward so the builder's per-session sort is exercised.
fn sessions() -> impl Strategy<Value = Vec<SessionRows>> {
    let session = (class(), proptest::collection::vec(stream(), 0..4));
    proptest::collection::vec(session, 0..41).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (class, mut streams))| {
                let n = streams.len() as u64;
                for (j, s) in streams.iter_mut().enumerate() {
                    s.component = n - j as u64;
                }
                (2 * i as u64 + 1, class, streams)
            })
            .collect()
    })
}

/// A signal value in tenths, 0–2: straddles the 0.5 pressure threshold.
fn tenths() -> impl Strategy<Value = Option<f64>> {
    proptest::option::of((0u32..=20).prop_map(|v| v as f64 / 10.0))
}

fn load() -> impl Strategy<Value = Load> {
    let burn = proptest::option::of((0u32..=9_000).prop_map(f64::from));
    // Orphan streams sit on even session ids, which no session row uses.
    let orphans = proptest::collection::vec((0u64..=40, 1u64..=3), 0..3)
        .prop_map(|o| o.into_iter().map(|(s, c)| (2 * s, c)).collect());
    let server = (tenths(), tenths(), burn, sessions(), orphans).prop_map(
        |(pressure, extra_pressure, burn, sessions, orphans)| Load::Server {
            pressure,
            extra_pressure,
            burn,
            sessions,
            orphans,
        },
    );
    prop_oneof![(0usize..=12).prop_map(Load::Media), server]
}

/// 1–4 reporters on nodes 1–4. A reporter labels its gauges with its own
/// id, with another node's (`node + 10`: distinct across reporters, so no
/// two report one session), or not at all. Ages run to 1.5 s in 50 ms
/// steps, straddling the 1 s staleness bound.
fn fleet() -> impl Strategy<Value = Vec<Reporter>> {
    proptest::collection::vec((0u8..3, 0i64..=30, load()), 1..5).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (label, age, load))| {
                let node = i as u64 + 1;
                Reporter {
                    node,
                    peer: [Some(node), Some(node + 10), None][label as usize],
                    age_ms: age * 50,
                    load,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The typed path, the registry adapter and the spec agree on every
    /// fleet, and the typed report prices the wire exactly as its registry
    /// form did.
    #[test]
    fn typed_reports_read_like_registries(
        fleet in fleet(),
        targets in (-2i64..=10, -2i64..=8),
    ) {
        let cfg = ControllerConfig {
            queue_target: targets.0 as f64,
            burn_target: targets.1 as f64,
            ..ControllerConfig::default()
        };
        let now = MediaTime::from_secs(10);
        let mut typed = FleetController::new(cfg);
        let mut adapted = FleetController::new(cfg);
        let mut registries = Reports::new();
        for r in &fleet {
            let at = now - MediaDuration::from_millis(r.age_ms);
            let noisy = r.registry_with_noise();
            typed.ingest(at, r.node, r.report(true));
            adapted.ingest(at, r.node, &noisy);
            registries.insert(r.node, (at, noisy));
            let (clean, registry) = (r.report(false), r.registry());
            prop_assert_eq!(clean.entries(), registry.len());
            prop_assert_eq!(LoadReport::from(&registry).entries(), registry.len());
        }
        let view = fleet_view(&registries, now);
        for c in [&typed, &adapted] {
            let fresh = c.fresh_reports(now);
            prop_assert_eq!(&owned(&FleetController::fleet_view(&fresh)), &view);
        }
        let sources = pressure_sources(&cfg, &registries, now);
        prop_assert_eq!(typed.pressure_sources(now), sources);
        prop_assert_eq!(adapted.pressure_sources(now), sources);
    }
}
