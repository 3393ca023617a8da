//! Executable specs for the provenance log, and differential properties
//! holding [`ProvenanceLog`] + [`fill_critical_paths`] to them:
//! - the 64-byte stamp of six hop kinds and the first-N log this crate
//!   shipped before the log kept only deliveries, with the
//!   `fill_critical_paths` that filtered it — kept verbatim;
//! - the keep-everything delivery log that followed it, before the log
//!   kept only the last [`ProvenanceLog::horizon`] and each disruption's
//!   window.
//!
//! The layout pins of the 16-byte record and the retention bounds live
//! here too.

use super::*;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecHopKind {
    Enqueue,
    Deliver,
    Loss,
    Retransmit,
    Abandon,
    McastFanout,
}

const SPEC_KINDS: [SpecHopKind; 6] = [
    SpecHopKind::Enqueue,
    SpecHopKind::Deliver,
    SpecHopKind::Loss,
    SpecHopKind::Retransmit,
    SpecHopKind::Abandon,
    SpecHopKind::McastFanout,
];

#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // `from` and `to` were written and never read
struct SpecHopRecord {
    at: MediaTime,
    kind: SpecHopKind,
    from: u64,
    to: u64,
    cause: CauseCtx,
    msg_kind: &'static str,
    value: i64,
}

struct SpecLog {
    records: Vec<SpecHopRecord>,
    cap: usize,
    dropped: u64,
}

impl SpecLog {
    fn push(&mut self, rec: SpecHopRecord) {
        if self.records.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.records.push(rec);
    }
}

fn spec_fill_critical_paths(
    attrs: &mut [GapAttribution],
    prov: &SpecLog,
    session_root: impl Fn(u64) -> Option<SpanId>,
    cfg: &AttributionConfig,
) {
    for a in attrs.iter_mut() {
        let Some(root) = session_root(a.session) else {
            continue;
        };
        let lo = a.at - cfg.window;
        let recs = &prov.records;
        let w0 = recs.partition_point(|r| r.at < lo);
        let w1 = recs.partition_point(|r| r.at <= a.at);
        let mut hops: Vec<(&'static str, i64)> = recs[w0..w1]
            .iter()
            .filter(|r| r.kind == SpecHopKind::Deliver && r.cause.root == root.0)
            .map(|r| (r.msg_kind, r.value))
            .collect();
        hops.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        hops.truncate(PATH_HOPS);
        a.path = hops;
    }
}

/// The keep-everything delivery log: every delivery up to the cap, in
/// stamp order, with the kind it was stamped with.
struct KeepAllLog {
    records: Vec<(HopRecord, &'static str)>,
    cap: usize,
    dropped: u64,
}

impl Default for KeepAllLog {
    fn default() -> Self {
        KeepAllLog {
            records: Vec::new(),
            cap: DEFAULT_PROV_CAP,
            dropped: 0,
        }
    }
}

impl KeepAllLog {
    fn record(&mut self, at: MediaTime, root: u32, kind: &'static str, wait_us: i64) {
        if self.records.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.records
            .push((HopRecord::new(at, 0, root, wait_us), kind));
    }
}

fn keep_all_fill_critical_paths(
    attrs: &mut [GapAttribution],
    prov: &KeepAllLog,
    session_root: impl Fn(u64) -> Option<SpanId>,
    cfg: &AttributionConfig,
) {
    for a in attrs.iter_mut() {
        let Some(root) = session_root(a.session) else {
            continue;
        };
        let lo = a.at - cfg.window;
        let recs = &prov.records;
        let w0 = recs.partition_point(|(r, _)| r.at() < lo);
        let w1 = recs.partition_point(|(r, _)| r.at() <= a.at);
        let mut hops: Vec<(&'static str, i64)> = recs[w0..w1]
            .iter()
            .filter(|(r, _)| r.root == root.0)
            .map(|&(r, kind)| (kind, r.wait_us as i64))
            .collect();
        hops.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        hops.truncate(PATH_HOPS);
        a.path = hops;
    }
}

const MSG_KINDS: [&str; 12] = [
    "rtp",
    "rtcp",
    "fetch_request",
    "fetch_chunk",
    "fetch_busy",
    "control",
    "heartbeat",
    "session",
    "ctrl_report",
    "ctrl_command",
    "lease",
    "msg",
];

fn gap(at: MediaTime, session: u64) -> GapAttribution {
    GapAttribution {
        at,
        node: 0,
        session,
        kind: "playout_gap",
        class: CauseClass::Unknown,
        score: 0,
        evidence: "",
        evidence_at: MediaTime::ZERO,
        path: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The engine's old stamp stream — all six hop kinds, several causal
    /// roots including none, same-tick ties, zero and tied waits — fed to
    /// the six-kind log whole and to the keep-everything log as the engine
    /// feeds it (deliveries only): every critical path agrees, for
    /// disruptions anywhere in the run and on both edges of a stamp's
    /// window, and both attribution windows in use. The stream is short
    /// enough that the spec truncates nothing; past its cap the two differ
    /// on purpose.
    #[test]
    fn delivery_log_paths_equal_the_six_kind_log(
        shape in (1usize..=8, 3usize..=12),
        stamps in proptest::collection::vec(
            ((0u8..4, 0i64..400_000), 0usize..6, 0usize..8, 0usize..12, (0u8..4, 0i64..5_000)),
            0..300,
        ),
        gaps in proptest::collection::vec((0usize..300, 0u8..4, 0i64..8_000_000, 0u64..10), 1..12),
    ) {
        let (n_roots, n_kinds) = shape;
        // Root 0 of the pool is "no known root".
        let roots: Vec<u32> = (0..n_roots as u32)
            .map(|i| if i == 0 { CauseCtx::NONE.root } else { i * 7 })
            .collect();
        let mut spec = SpecLog { records: Vec::new(), cap: 1 << 20, dropped: 0 };
        let mut log = KeepAllLog::default();
        let mut now = 0i64;
        for &((tie, dt), hop, root, kind, (wsel, w)) in &stamps {
            now += if tie == 0 { 0 } else { dt };
            let at = MediaTime::from_micros(now);
            let hop = SPEC_KINDS[hop];
            let root = roots[root % n_roots];
            let msg_kind = MSG_KINDS[kind % n_kinds];
            let value = match wsel {
                0 => 0,
                1 => w % 4, // dense ties
                _ => w * 37,
            };
            spec.push(SpecHopRecord {
                at,
                kind: hop,
                from: 1,
                to: 2,
                cause: CauseCtx { root },
                msg_kind,
                value,
            });
            if hop == SpecHopKind::Deliver {
                log.record(at, root, msg_kind, value);
            }
        }
        prop_assert_eq!(spec.dropped, 0);
        prop_assert_eq!(log.dropped, 0);
        let deliveries = spec.records.iter().filter(|r| r.kind == SpecHopKind::Deliver).count();
        prop_assert_eq!(log.records.len(), deliveries);

        // Sessions 0..n_roots map onto the root pool; the rest have none.
        let session_root = |s: u64| roots.get(s as usize).map(|&r| SpanId(r));
        for window_s in [2, 6] {
            let cfg = AttributionConfig {
                window: MediaDuration::from_secs(window_s),
            };
            // A disruption sits on a stamp's instant, exactly one window
            // after it (the stamp is the oldest one still inside), 1 µs
            // later (just outside), or anywhere.
            let mut want: Vec<GapAttribution> = gaps
                .iter()
                .map(|&(pick, edge, off, s)| {
                    let base = match spec.records.get(pick % spec.records.len().max(1)) {
                        Some(r) => r.at,
                        None => MediaTime::ZERO,
                    };
                    let at = match edge {
                        0 => base,
                        1 => base + cfg.window,
                        2 => base + cfg.window + MediaDuration::from_micros(1),
                        _ => base + MediaDuration::from_micros(off),
                    };
                    gap(at, s)
                })
                .collect();
            let mut got = want.clone();
            spec_fill_critical_paths(&mut want, &spec, session_root, &cfg);
            keep_all_fill_critical_paths(&mut got, &log, session_root, &cfg);
            prop_assert_eq!(got, want);
        }
    }
}

/// Runs driven through [`crate::Obs`] as the engine drives it: the
/// marks are set and resolved there, so these need the `trace` feature.
#[cfg(feature = "trace")]
mod through_obs {
    use super::*;
    use crate::event::{Labels, Severity};

    /// A run driven through [`crate::Obs`] as the engine drives it, into the
    /// windowed log and, delivery by delivery, the keep-everything log.
    struct Run {
        obs: crate::Obs,
        spec: KeepAllLog,
    }

    impl Run {
        /// A run whose capture keeps the default horizon.
        fn new() -> Run {
            Run {
                obs: crate::Obs::new(),
                spec: KeepAllLog::default(),
            }
        }

        /// A run whose capture declared attribution windows up to `window`.
        fn widened(window: MediaDuration) -> Run {
            let mut run = Run::new();
            run.obs.widen_attribution_window(window);
            run
        }

        fn deliver(&mut self, at: MediaTime, root: u32, kind: &'static str, wait_us: i64) {
            let wait = MediaDuration::from_micros(wait_us);
            self.obs.record_hop(at, CauseCtx { root }, kind, wait);
            self.spec.record(at, root, kind, wait_us);
        }

        /// Every attribution's critical path, from the windowed log and from
        /// the spec.
        fn paths(&self, cfg: &AttributionConfig) -> (Vec<GapAttribution>, Vec<GapAttribution>) {
            let mut got = attribute_events(self.obs.events(), cfg);
            let mut want = got.clone();
            let session_root = |s| self.obs.spans.session_root_of(s);
            fill_critical_paths(&mut got, &self.obs.prov, session_root, cfg);
            keep_all_fill_critical_paths(&mut want, &self.spec, session_root, cfg);
            (got, want)
        }
    }

    /// The disruptions [`attribute_events`] explains, and one it skips.
    const DISRUPTIONS: [(&str, i64); 4] = [
        ("playout_gap", 2),
        ("playout_gap", 0),
        ("server_silent", 0),
        ("session_abandoned", 0),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random delivery streams over several session roots, a foreign root
        /// and none, on a 250 ms grid (so stamps sit exactly one window or
        /// one horizon before a disruption) with same-instant ties and jumps
        /// past the horizon. Disruptions are marked at their instant, some
        /// before their session's root exists, some followed in that instant
        /// by the root's creation and a delivery under it. The capture
        /// declares no window (2 s), 6 s or one from 1 µs to 6 s. Every
        /// critical path equals the keep-everything log's, for windows from
        /// 1 µs up to the declared one.
        #[test]
        fn windowed_log_paths_equal_the_keep_all_log(
            declared in (0u8..4, 1i64..=6_000_000),
            window_us in 1i64..=6_000_000,
            ops in proptest::collection::vec(
                ((0u8..8, 1i64..=24), 0u8..8, 0u64..8, 0usize..12, 0i64..5_000),
                0..400,
            ),
        ) {
            let mut run = match declared {
                (0, _) => Run::new(),
                (1, _) => Run::widened(MediaDuration::from_secs(6)),
                (_, us) => Run::widened(MediaDuration::from_micros(us)),
            };
            let horizon = run.obs.prov.horizon().as_micros();
            let mut now = MediaTime::ZERO;
            for &((step, quarters), op, session, pick, w) in &ops {
                now += MediaDuration::from_millis(match step {
                    0 | 1 => 0,
                    7 => 250 * quarters,
                    _ => 250 * (quarters % 4),
                });
                let root = |run: &Run| run.obs.spans.session_root_of(session).map(|r| r.0);
                match op {
                    0 => {
                        run.obs.session_span(session, 1, now);
                    }
                    1..=4 => {
                        let root = match pick {
                            0 => CauseCtx::NONE.root,
                            1 => 1 << 20, // a root no session maps to
                            _ => root(&run).unwrap_or(CauseCtx::NONE.root),
                        };
                        let wait = if pick % 3 == 0 { w % 4 } else { w * 37 };
                        run.deliver(now, root, MSG_KINDS[pick], wait);
                    }
                    _ => {
                        let (name, value) = DISRUPTIONS[pick % 4];
                        let labels = if pick < 10 { Labels::session(session) } else { Labels::NONE };
                        run.obs.emit_val(now, 1, Severity::Warn, name, labels, value);
                        if op == 7 {
                            let r = run.obs.session_span(session, 1, now);
                            run.deliver(now, r.0, "rtp", w);
                        }
                    }
                }
            }
            prop_assert_eq!(run.obs.prov.offered(), run.spec.records.len() as u64);
            prop_assert!(run.obs.prov.len() <= run.spec.records.len());
            let windows = [window_us % horizon + 1, 2_000_000, 6_000_000, horizon];
            for window in windows.into_iter().filter(|&w| w <= horizon) {
                let cfg = AttributionConfig {
                    window: MediaDuration::from_micros(window),
                };
                let (got, want) = run.paths(&cfg);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// A mark is resolved once the clock has passed its instant: the root its
    /// session gets later in that instant, after another delivery, still keeps
    /// the delivery made under it.
    #[test]
    fn a_mark_sees_a_root_created_later_in_its_instant() {
        let mut run = Run::new();
        let t = MediaTime::from_secs(1);
        let other = run.obs.session_span(1, 1, MediaTime::ZERO).0;
        run.deliver(MediaTime::from_millis(500), other, "rtp", 10);
        run.obs
            .emit_val(t, 1, Severity::Warn, "server_silent", Labels::session(2), 0);
        run.deliver(t, other, "rtp", 20);
        let root = run.obs.session_span(2, 1, t).0;
        run.deliver(t, root, "fetch_chunk", 7_000);
        // Both instants age out of the ring.
        run.deliver(
            t + run.obs.prov.horizon() + MediaDuration::from_micros(1),
            other,
            "rtp",
            30,
        );
        let (got, want) = run.paths(&AttributionConfig::default());
        assert_eq!(got[0].path, vec![("fetch_chunk", 7_000)]);
        assert_eq!(got, want);
        assert_eq!(run.obs.prov.len(), 2);
    }
}

/// A log keeping the default horizon, or one widened to `window`.
fn log_with_horizon(window: Option<MediaDuration>) -> ProvenanceLog {
    let mut log = ProvenanceLog::default();
    if let Some(w) = window {
        log.widen(w);
    }
    log
}

/// Without a disruption the log holds one horizon of deliveries however
/// long the run; one disruption keeps exactly its root's window besides.
/// Both for the default horizon and for one widened to 6 s.
#[test]
fn the_log_holds_one_horizon_plus_each_disruptions_window() {
    let step = MediaDuration::from_millis(10);
    let roots = |s: u64| (s < 3).then_some(SpanId(10 + s as u32));
    let t_d = MediaTime::from_secs(30);
    for declared in [None, Some(MediaDuration::from_secs(6))] {
        for disrupted in [false, true] {
            let mut log = log_with_horizon(declared);
            let horizon = log.horizon();
            assert_eq!(horizon, declared.unwrap_or(DEFAULT_ATTRIBUTION_WINDOW));
            let per_horizon = (horizon.as_micros() / step.as_micros()) as usize + 1;
            let mut now = MediaTime::ZERO;
            for i in 0..6_000u32 {
                now = MediaTime::ZERO + step * i as i64;
                log.resolve_marks(now, roots);
                log.record(now, 10 + i % 3, "rtp", 0);
                if disrupted && now == t_d {
                    log.mark(1, now);
                }
                if !disrupted {
                    assert!(log.len() <= per_horizon, "{} records at {now:?}", log.len());
                }
            }
            let kept: Vec<MediaTime> = log
                .records()
                .map(|r| r.at())
                .filter(|&at| at < now - horizon)
                .collect();
            let want: Vec<MediaTime> = if disrupted {
                (0..6_000u32)
                    .filter(|i| i % 3 == 1)
                    .map(|i| MediaTime::ZERO + step * i as i64)
                    .filter(|&at| t_d - horizon <= at && at <= t_d)
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(kept, want);
            assert_eq!(log.len(), per_horizon + want.len());
            assert_eq!(log.offered(), 6_000);
        }
    }
}

/// A full ring grows by an eighth of its length, not by doubling: its
/// slack stays within one step of what it holds, and once the run is
/// several horizons long it holds one horizon of deliveries and not much
/// more room. The kept records grow by the same rule.
#[test]
fn a_full_ring_grows_in_bounded_steps() {
    let step = MediaDuration::from_micros(50);
    for declared in [None, Some(MediaDuration::from_secs(6))] {
        let mut log = log_with_horizon(declared);
        let per_horizon = (log.horizon().as_micros() / step.as_micros()) as usize + 1;
        // A mark every 50 ms, two horizons ahead: most deliveries leaving
        // the ring are kept.
        let roots = |_| Some(SpanId(7));
        for i in 0..(3 * per_horizon) as i64 {
            let now = MediaTime::ZERO + step * i;
            log.resolve_marks(now, roots);
            log.record(now, 7, "rtp", 0);
            if i % 1_000 == 0 {
                log.mark(0, now + log.horizon() * 2);
            }
            for (len, cap) in [
                (log.ring.len(), log.ring.capacity()),
                (log.kept.len(), log.kept.capacity()),
            ] {
                assert!(
                    cap - len <= (len / 8).max(4096),
                    "{} slack at {len}",
                    cap - len
                );
            }
        }
        assert_eq!(log.ring.len(), per_horizon);
        assert!(log.ring.capacity() <= per_horizon * 9 / 8 + 4096);
        assert!(!log.kept.is_empty());
    }
}

#[test]
fn record_is_sixteen_bytes_and_round_trips() {
    assert_eq!(std::mem::size_of::<HopRecord>(), 16);
    for at_us in [0i64, 1, 1 << 40] {
        for kind in [0u8, 1, 255] {
            let at = MediaTime::from_micros(at_us);
            let r = HopRecord::new(at, kind, 9, 1234);
            assert_eq!(r.at(), at);
            assert_eq!(r.kind_index(), kind);
            assert_eq!((r.root, r.wait_us), (9, 1234));
        }
    }
    // The packed field sorts by time whatever the kinds are.
    let early = HopRecord::new(MediaTime::from_micros(5), 255, 0, 0);
    let late = HopRecord::new(MediaTime::from_micros(6), 0, 0, 0);
    assert!(early.at_kind < late.at_kind);
}

#[test]
fn wait_saturates_and_clamps() {
    let at = MediaTime::from_millis(1);
    let over = u32::MAX as i64 + 1;
    assert_eq!(HopRecord::new(at, 0, 0, over).wait_us, u32::MAX);
    assert_eq!(HopRecord::new(at, 0, 0, i64::MAX).wait_us, u32::MAX);
    assert_eq!(HopRecord::new(at, 0, 0, u32::MAX as i64).wait_us, u32::MAX);
    assert_eq!(HopRecord::new(at, 0, 0, -5).wait_us, 0);
}

fn leaked(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

#[test]
fn kinds_intern_by_content_not_address() {
    let mut log = ProvenanceLog::default();
    let elsewhere = leaked(String::from("rtp"));
    assert!(!std::ptr::eq("rtp", elsewhere));
    log.record(MediaTime::ZERO, 1, "rtp", 0);
    log.record(MediaTime::ZERO, 1, "fetch_chunk", 0);
    log.record(MediaTime::ZERO, 1, elsewhere, 0);
    let ix: Vec<u8> = log.records().map(|r| r.kind_index()).collect();
    assert_eq!(ix, vec![0, 1, 0]);
    assert_eq!(log.kind(log.records().nth(2).unwrap()), "rtp");
    assert_eq!(log.kinds.len(), 2);
}

#[test]
fn kind_table_holds_256_kinds() {
    let mut log = ProvenanceLog::default();
    for i in 0..256 {
        log.record(MediaTime::ZERO, 0, leaked(format!("k{i}")), 0);
    }
    let last = log.records().nth(255).unwrap();
    assert_eq!(last.kind_index(), 255);
    assert_eq!(log.kind(last), "k255");
}

#[test]
#[should_panic(expected = "256 distinct provenance message kinds")]
fn the_257th_kind_panics() {
    let mut log = ProvenanceLog::default();
    for i in 0..257 {
        log.record(MediaTime::ZERO, 0, leaked(format!("k{i}")), 0);
    }
}
