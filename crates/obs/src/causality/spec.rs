//! Executable spec for the provenance log: the 64-byte stamp of six hop
//! kinds and the first-N log this crate shipped before the log kept only
//! what attribution reads, with the `fill_critical_paths` that filtered
//! it — kept verbatim — and a differential property holding
//! [`ProvenanceLog`] + [`fill_critical_paths`] to them. The layout pins of
//! the 16-byte record live here too.

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
        hops.truncate(cfg.path_hops);
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
    /// the old log whole and to the new log as the engine now feeds it
    /// (deliveries only): every critical path agrees, for disruptions
    /// anywhere in the run and on both edges of a stamp's window, both
    /// attribution windows in use and every path length. The stream is
    /// short enough that the spec truncates nothing; past its cap the two
    /// differ on purpose.
    #[test]
    fn delivery_log_paths_equal_the_six_kind_log(
        shape in (1usize..=8, 3usize..=12, 1usize..=8),
        stamps in proptest::collection::vec(
            ((0u8..4, 0i64..400_000), 0usize..6, 0usize..8, 0usize..12, (0u8..4, 0i64..5_000)),
            0..300,
        ),
        gaps in proptest::collection::vec((0usize..300, 0u8..4, 0i64..8_000_000, 0u64..10), 1..12),
    ) {
        let (n_roots, n_kinds, path_hops) = shape;
        // Root 0 of the pool is "no known root".
        let roots: Vec<u32> = (0..n_roots as u32)
            .map(|i| if i == 0 { CauseCtx::NONE.root } else { i * 7 })
            .collect();
        let mut spec = SpecLog { records: Vec::new(), cap: 1 << 20, dropped: 0 };
        let mut log = ProvenanceLog::default();
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
        prop_assert_eq!(log.len(), deliveries);

        // Sessions 0..n_roots map onto the root pool; the rest have none.
        let session_root = |s: u64| roots.get(s as usize).map(|&r| SpanId(r));
        for window_s in [2, 6] {
            let cfg = AttributionConfig {
                window: MediaDuration::from_secs(window_s),
                path_hops,
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
            fill_critical_paths(&mut got, &log, session_root, &cfg);
            prop_assert_eq!(got, want);
        }
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
    let ix: Vec<u8> = log.records().iter().map(|r| r.kind_index()).collect();
    assert_eq!(ix, vec![0, 1, 0]);
    assert_eq!(log.kind(&log.records()[2]), "rtp");
    assert_eq!(log.kinds.len(), 2);
}

#[test]
fn kind_table_holds_256_kinds() {
    let mut log = ProvenanceLog::default();
    for i in 0..256 {
        log.record(MediaTime::ZERO, 0, leaked(format!("k{i}")), 0);
    }
    assert_eq!(log.records()[255].kind_index(), 255);
    assert_eq!(log.kind(&log.records()[255]), "k255");
}

#[test]
#[should_panic(expected = "256 distinct provenance message kinds")]
fn the_257th_kind_panics() {
    let mut log = ProvenanceLog::default();
    for i in 0..257 {
        log.record(MediaTime::ZERO, 0, leaked(format!("k{i}")), 0);
    }
}
