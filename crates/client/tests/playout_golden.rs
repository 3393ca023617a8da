//! Playout golden test: one seeded 20 s audio + video + text presentation
//! with jittered, lossy, bursty deliveries, run under each skew-repair
//! policy, whose every recorded event, per-stream statistic, buffer counter
//! and the maximum observed skew are folded into digests that were computed
//! at the commit *before* `PlayoutEngine::tick` stopped building its
//! per-tick collections (6e80c08) and must never move. Any change to event
//! order, catch-up caps, occupancy repair or skew repair changes a digest.
//!
//! The delivery schedule is built to reach every branch of a tick: a clean
//! prefill, a video outage (underflow duplicates, the audio leader held
//! back or the video backlog dropped, depending on policy), an audio burst
//! three seconds deep (overflow drops), an audio outage, 3 % loss and up to
//! 60 ms of jitter throughout, and an inline text component that starts and
//! finishes mid-presentation.

use hermes_client::{BufferConfig, PlayoutConfig, PlayoutEngine, PlayoutEventKind};
use hermes_core::{
    ComponentContent, ComponentId, DocumentId, Encoding, GradeLevel, MediaComponent, MediaDuration,
    MediaSource, MediaTime, PlayoutSchedule, Scenario, ServerId, SkewPolicy, SyncGroup,
};
use hermes_media::MediaFrame;
use std::collections::BTreeMap;

const AUDIO: u64 = 0;
const VIDEO: u64 = 1;
const TEXT: u64 = 2;
const MEDIA_MS: i64 = 20_000;
/// Wall time the presentation starts; frames nominally arrive `LEAD_MS`
/// ahead of their deadline.
const T0_MS: i64 = 500;
const LEAD_MS: i64 = 400;

fn scenario() -> Scenario {
    let mut s = Scenario::new(DocumentId::new(1), "golden");
    let mut push = |id: u64, content: ComponentContent, start_ms: i64, dur_ms: i64| {
        s.components.push(MediaComponent {
            id: ComponentId::new(id),
            content,
            start: MediaTime::from_millis(start_ms),
            duration: Some(MediaDuration::from_millis(dur_ms)),
            region: None,
            note: None,
        });
    };
    let stored = |id: u64, encoding: Encoding| ComponentContent::Stored {
        source: MediaSource::new(ServerId::new(0), format!("m{id}")),
        encoding,
    };
    push(AUDIO, stored(AUDIO, Encoding::Pcm), 0, MEDIA_MS);
    push(VIDEO, stored(VIDEO, Encoding::Mpeg), 0, MEDIA_MS);
    push(TEXT, ComponentContent::Text(Vec::new()), 2_000, 5_000);
    s.sync_groups.push(SyncGroup {
        members: vec![ComponentId::new(AUDIO), ComponentId::new(VIDEO)],
    });
    s
}

/// splitmix64 — the schedule must not depend on any crate's generator.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Every delivered frame with its wall arrival time (µs), in arrival order.
fn deliveries(seed: u64) -> Vec<(i64, MediaFrame)> {
    let mut draws = Draws(seed);
    let mut out = Vec::new();
    for (id, period_ms) in [(AUDIO, 20i64), (VIDEO, 40)] {
        let frames = MEDIA_MS / period_ms;
        for i in 0..frames {
            let pts_ms = i * period_ms;
            let last = i == frames - 1;
            if !last && draws.below(100) < 3 {
                continue; // lost
            }
            let mut arrival_us = (T0_MS + pts_ms - LEAD_MS) * 1_000 + draws.below(60_000) as i64;
            match id {
                // Video outage: 4–6 s of media arrives 900 ms late.
                VIDEO if (4_000..6_000).contains(&pts_ms) => arrival_us += 900_000,
                // Audio burst: 10–13 s of media arrives together at 10 s.
                AUDIO if (10_000..13_000).contains(&pts_ms) => {
                    arrival_us = (T0_MS + 10_000 - LEAD_MS) * 1_000 + draws.below(5_000) as i64
                }
                // Audio outage: 14–16 s of media arrives 700 ms late.
                AUDIO if (14_000..16_000).contains(&pts_ms) => arrival_us += 700_000,
                _ => {}
            }
            out.push((
                arrival_us,
                MediaFrame {
                    component: ComponentId::new(id),
                    seq: i as u64,
                    pts: MediaTime::from_millis(pts_ms),
                    size: 500 + draws.below(4_000) as u32,
                    key: i % 12 == 0,
                    level: GradeLevel::NOMINAL,
                    last,
                },
            ));
        }
    }
    out.sort_by_key(|&(at, _)| at);
    out
}

fn fnv1a(digest: &mut u64, text: &str) {
    for b in text.bytes() {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

struct Outcome {
    digest: u64,
    overflows: u64,
    duplicates: u64,
    repair_duplicates: u64,
    glitches: u64,
}

fn run(policy: SkewPolicy) -> Outcome {
    let scenario = scenario();
    let schedule = PlayoutSchedule::from_scenario(&scenario);
    let periods: BTreeMap<ComponentId, MediaDuration> = [(AUDIO, 20), (VIDEO, 40)]
        .into_iter()
        .map(|(id, ms)| (ComponentId::new(id), MediaDuration::from_millis(ms)))
        .collect();
    let mut engine = PlayoutEngine::new(
        &scenario,
        &schedule,
        BufferConfig::with_window(MediaDuration::from_millis(300)),
        &periods,
        PlayoutConfig {
            policy,
            record_events: true,
            ..PlayoutConfig::default()
        },
    );
    let mut pending = deliveries(0x17).into_iter().peekable();
    let mut now_us = 0i64;
    while now_us <= (T0_MS + MEDIA_MS + 2_000) * 1_000 {
        while let Some((_, frame)) = pending.next_if(|&(at, _)| at <= now_us) {
            engine.deliver(frame);
        }
        if now_us == T0_MS * 1_000 {
            assert!(engine.buffers_primed_for_start(MediaDuration::from_secs(1)));
            engine.start(MediaTime::from_micros(now_us));
        }
        engine.tick(MediaTime::from_micros(now_us));
        now_us += 20_000;
    }
    assert!(engine.is_complete());

    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for e in &engine.events {
        fnv1a(&mut digest, &format!("{e:?}"));
    }
    let mut overflows = 0;
    let mut repair_duplicates = 0;
    for s in engine.streams() {
        fnv1a(
            &mut digest,
            &format!("{:?} {:?} {:?}", s.component, s.status, s.content_pos),
        );
        // The five counters the digest was pinned over, in their `Debug`
        // form of the time; `duplicates_concealed` is checked below.
        let t = &s.stats;
        fnv1a(
            &mut digest,
            &format!(
                "StreamPlayoutStats {{ frames_played: {}, duplicates_played: {}, \
                 stale_frames: {}, glitches: {}, frames_dropped: {} }}",
                t.frames_played, t.duplicates_played, t.stale_frames, t.glitches, t.frames_dropped
            ),
        );
        if let Some(b) = &s.buffer {
            fnv1a(&mut digest, &format!("{:?}", b.stats));
            overflows += b.stats.overflow_events;
            repair_duplicates += b.stats.frames_duplicated;
        }
    }
    fnv1a(&mut digest, &format!("{:?}", engine.max_skew_observed));
    let total = engine.total_stats();
    assert!(total.frames_dropped > 0);
    assert!(engine
        .events
        .iter()
        .any(|e| matches!(e.kind, PlayoutEventKind::FramesDropped { .. })));
    Outcome {
        digest,
        overflows,
        duplicates: total.duplicates_concealed,
        repair_duplicates,
        glitches: total.glitches,
    }
}

#[test]
fn playout_digests_unchanged() {
    let both = run(SkewPolicy::Both);
    let drop_leader = run(SkewPolicy::DropLeader);
    let duplicate_laggard = run(SkewPolicy::DuplicateLaggard);
    // The scenario reaches what it claims to reach.
    for o in [&both, &drop_leader, &duplicate_laggard] {
        assert!(o.overflows > 0, "no buffer ever overflowed");
        assert!(o.duplicates > 0, "no underflow duplicate was played");
        assert_eq!(o.glitches, 0);
    }
    assert!(both.repair_duplicates > 0);
    assert!(duplicate_laggard.repair_duplicates > 0);
    assert_eq!(drop_leader.repair_duplicates, 0);
    assert_eq!(
        (both.digest, drop_leader.digest, duplicate_laggard.digest),
        (
            4877030780780124613,
            16276281946752517597,
            11182367447188583732
        ),
        "playout digests moved"
    );
}
