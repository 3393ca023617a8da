//! Kernels: for each crate that has no actor lane of its own, a fixed-input
//! loop over one public entry point. Each reports the median over several
//! batches of host nanoseconds per operation. They size the per-operation
//! cost under the owning lane's `ns_per_dispatch`; none is an end-to-end
//! number.

use crate::stats::median;
use hermes_client::{BufferConfig, PlayoutConfig, PlayoutEngine};
use hermes_control::{encode_kind, names, ControllerConfig, FleetController};
use hermes_core::{
    ComponentContent, ComponentId, DocumentId, Encoding, GradeLevel, MediaComponent, MediaDuration,
    MediaKind, MediaSource, MediaTime, NodeId, PlayoutSchedule, PricingClass, Scenario, ServerId,
    SyncGroup,
};
use hermes_media::{FrameSource, MediaFrame, SegmentFrame};
use hermes_rtp::{RtpReceiver, RtpSender};
use hermes_server::segcache::{SegmentCache, SegmentKey};
use hermes_service::{lesson_markup, LessonShape};
use hermes_simnet::obs::{Labels, MetricsRegistry, Obs, Severity};
use hermes_simnet::{App, LinkSpec, Network, Sim, SimApi, SimRng, WireSize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Median over the batches of `batch()`'s (nanoseconds, operations).
fn per_op(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, ops) = batch();
            ns as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_nanos() as u64, r)
}

#[derive(Clone)]
struct Ball;

impl WireSize for Ball {
    fn wire_size(&self) -> usize {
        200
    }
}

/// Two nodes that return every message and re-arm a timer per message.
struct PingPong;

impl App<Ball> for PingPong {
    fn on_message(&mut self, api: &mut SimApi<'_, Ball>, node: NodeId, from: NodeId, msg: Ball) {
        api.send(node, from, msg);
        api.set_timer(node, MediaDuration::from_micros(50), 0, 0);
    }
    fn on_timer(&mut self, _: &mut SimApi<'_, Ball>, _: NodeId, _: u64, _: u64) {}
}

/// Engine cost per event with a trivial application on top: the floor under
/// `simnet.self_ns_per_event`.
pub fn simnet_pingpong_ns_per_event() -> f64 {
    per_op(|| {
        let mut rng = SimRng::seed_from_u64(1);
        let mut net = Network::new();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        net.add_node(a, "a");
        net.add_node(b, "b");
        net.add_duplex(a, b, LinkSpec::lan(100_000_000), &mut rng);
        net.compute_routes();
        let mut sim = Sim::new(net, PingPong, 1);
        sim.with_api(|_, api| {
            for _ in 0..8 {
                api.send(a, b, Ball);
            }
        });
        let (ns, events) = timed(|| sim.run(200_000));
        (ns, events)
    })
}

/// Look-ups and inserts over a working set twice the cache's capacity.
pub fn segcache_ns_per_op() -> f64 {
    let frames = vec![
        SegmentFrame {
            size: 4_000,
            key: true
        };
        32
    ];
    per_op(|| {
        let mut cache = SegmentCache::new(512 * 1024);
        cache.reader_started("clip");
        cache.reader_started("clip");
        const OPS: u64 = 50_000;
        let (ns, hits) = timed(|| {
            let mut hits = 0u64;
            for i in 0..OPS {
                let key = SegmentKey {
                    object: "clip".to_string(),
                    level: GradeLevel::NOMINAL,
                    segment: (i * 7) % 8,
                };
                if cache.get(&key).is_some() {
                    hits += 1;
                } else {
                    cache.insert(key, frames.clone());
                }
            }
            hits
        });
        black_box(hits);
        (ns, OPS)
    })
}

/// One control tick over a synthetic fleet snapshot: three servers with 100
/// two-stream sessions each, one of them reporting pressure.
pub fn control_tick_ns_per_op() -> f64 {
    let report = |server: u64| {
        let mut r = MetricsRegistry::new();
        for session in 0..100u64 {
            let id = server * 1000 + session;
            let class = [
                PricingClass::Premium,
                PricingClass::Standard,
                PricingClass::Economy,
            ][(session % 3) as usize];
            r.gauge_set(
                names::SESSION_CLASS,
                Labels::session(id).peer(server),
                class.priority() as f64,
            );
            for (stream, kind) in [(1, MediaKind::Audio), (2, MediaKind::Video)] {
                let l = Labels::session(id).stream(stream).peer(server);
                r.gauge_set(names::STREAM_KIND, l, encode_kind(kind));
                r.gauge_set(names::STREAM_LEVEL, l, 0.0);
                r.gauge_set(names::STREAM_MAX, l, 3.0);
            }
        }
        if server == 1 {
            r.gauge_set(names::PRESSURE, Labels::for_peer(server), 1.0);
        }
        r
    };
    let reports: Vec<MetricsRegistry> = (1..=3).map(report).collect();
    per_op(|| {
        let mut ctl = FleetController::new(ControllerConfig::default());
        const TICKS: u64 = 40;
        let (ns, commands) = timed(|| {
            let mut commands = 0usize;
            for t in 0..TICKS {
                let now = MediaTime::from_millis(100 * t as i64);
                for (i, r) in reports.iter().enumerate() {
                    ctl.ingest(now, i as u64 + 1, r);
                }
                commands += ctl.tick(now).commands.len();
            }
            commands
        });
        black_box(commands);
        (ns, TICKS)
    })
}

/// Recording one `Info` event (flight ring plus event log).
pub fn obs_emit_ns_per_op() -> f64 {
    per_op(|| {
        let mut obs = Obs::new();
        const OPS: u64 = 200_000;
        let (ns, ()) = timed(|| {
            for i in 0..OPS {
                obs.emit_val(
                    MediaTime::from_micros(i as i64),
                    i % 8,
                    Severity::Info,
                    "fetch_shed",
                    Labels::session(i % 64),
                    i as i64,
                );
            }
        });
        black_box(obs.events().len());
        (ns, OPS)
    })
}

/// Parsing a generated lesson, per KiB of markup.
pub fn hml_parse_ns_per_kb() -> f64 {
    let markup = lesson_markup(
        "Kernel lesson",
        &["parsing", "markup"],
        LessonShape {
            images: 12,
            image_secs: 5,
            narrated_clip_secs: Some(10),
            closing_audio_secs: Some(5),
        },
        Some(DocumentId::new(2)),
    );
    let kib = markup.len() as f64 / 1024.0;
    per_op(|| {
        const PARSES: u64 = 300;
        let (ns, nodes) = timed(|| {
            let mut ok = 0u64;
            for _ in 0..PARSES {
                ok += hermes_hml::parse(black_box(&markup)).is_ok() as u64;
            }
            ok
        });
        assert_eq!(nodes, PARSES, "kernel markup must parse");
        (ns, PARSES)
    }) / kib
}

/// Packetising and receiving one second of MPEG video, per packet.
pub fn rtp_packet_ns_per_op() -> f64 {
    let frames: Vec<MediaFrame> = FrameSource::new(
        ComponentId::new(1),
        Encoding::Mpeg,
        9,
        MediaDuration::from_secs(1),
    )
    .collect_all();
    per_op(|| {
        const ROUNDS: u64 = 100;
        let (ns, packets) = timed(|| {
            let mut packets = 0u64;
            for _ in 0..ROUNDS {
                let mut tx = RtpSender::new(3, Encoding::Mpeg);
                let mut rx = RtpReceiver::new(Encoding::Mpeg);
                let mut t = MediaTime::ZERO;
                for f in &frames {
                    for p in tx.packetize(f) {
                        rx.on_packet(&p, t);
                        t += MediaDuration::from_micros(500);
                        packets += 1;
                    }
                }
                black_box(rx.take_frames().len());
            }
            packets
        });
        (ns, packets)
    })
}

/// One playout tick of an audio + video pair fed just in time.
pub fn client_playout_tick_ns_per_op() -> f64 {
    let mut scenario = Scenario::new(DocumentId::new(1), "kernel");
    let streams = [(0u64, Encoding::Pcm, 20i64), (1, Encoding::Mpeg, 40)];
    for (id, encoding, _) in streams {
        scenario.components.push(MediaComponent {
            id: ComponentId::new(id),
            content: ComponentContent::Stored {
                source: MediaSource::new(ServerId::new(0), format!("m{id}")),
                encoding,
            },
            start: MediaTime::ZERO,
            duration: Some(MediaDuration::from_secs(10)),
            region: None,
            note: None,
        });
    }
    scenario.sync_groups.push(SyncGroup {
        members: vec![ComponentId::new(0), ComponentId::new(1)],
    });
    let schedule = PlayoutSchedule::from_scenario(&scenario);
    let periods: BTreeMap<ComponentId, MediaDuration> = streams
        .iter()
        .map(|&(id, _, ms)| (ComponentId::new(id), MediaDuration::from_millis(ms)))
        .collect();
    per_op(|| {
        let mut engine = PlayoutEngine::new(
            &scenario,
            &schedule,
            BufferConfig::default(),
            &periods,
            PlayoutConfig::default(),
        );
        const TICKS: u64 = 520;
        let (ns, ()) = timed(|| {
            let mut next = [0i64; 2];
            engine.start(MediaTime::ZERO);
            for t in 0..TICKS as i64 {
                let now_ms = t * 20;
                for (i, &(id, _, period)) in streams.iter().enumerate() {
                    while next[i] * period < now_ms + 400 && next[i] * period < 10_000 {
                        engine.deliver(MediaFrame {
                            component: ComponentId::new(id),
                            seq: next[i] as u64,
                            pts: MediaTime::from_millis(next[i] * period),
                            size: 1_000,
                            key: true,
                            level: GradeLevel::NOMINAL,
                            last: false,
                        });
                        next[i] += 1;
                    }
                }
                engine.tick(MediaTime::from_millis(now_ms));
            }
        });
        black_box(engine.total_stats());
        (ns, TICKS)
    })
}
