//! Media-tier fetch-client golden test: one small real world run under the
//! five regimes the fetch client behaves differently in, each pinned by its
//! full [`MediaTierStats`] and an FNV digest of the exported event trace.
//! The literals were printed at cec5907 — the commit *before* the fetch
//! client moved out of `server_actor.rs` into `hermes_server::fetch` — and
//! must never move: a send, timer, emit or RNG draw that changes order or
//! count anywhere on the pump / chunk / busy / hedge / failover / rebalance
//! paths changes a digest.
//!
//! The world: one server, two media nodes with short queues and slow disks
//! (replication 2, so every object lives on both), twelve clients arriving
//! 150 ms apart over three lessons of one image + a 10 s narrated clip — so
//! the tier sheds, rolls cursors back and re-pumps in every scenario, and
//! the discrete path (an image ships the moment its bytes arrive) runs too.

use hermes_core::{DocumentId, MediaDuration, MediaKind, MediaTime, NodeId, ServerId};
use hermes_server::PlacementMap;
use hermes_service::{
    install_course, ClientConfig, LessonShape, MediaNodeConfig, MediaTierConfig, MediaTierStats,
    ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::obs::events_jsonl;
use hermes_simnet::{FaultKind, LinkSpec, Sim, SimRng};

const SEED: u64 = 22;
const CLIENTS: usize = 12;

fn ms(t: i64) -> MediaTime {
    MediaTime::from_millis(t)
}

struct World {
    sim: Sim<ServiceMsg, ServiceWorld>,
    srv: NodeId,
    media: Vec<NodeId>,
}

/// Build the world and connect the twelve clients; returns at t = 2 s with
/// every session admitted and streaming.
fn world(tier: MediaTierConfig) -> World {
    let mut b = WorldBuilder::new(SEED);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(100_000_000),
        ServerConfig::default(),
    );
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let media: Vec<NodeId> = (0..2)
        .map(|_| b.add_media_node(LinkSpec::san(100_000_000)))
        .collect();
    b.media_config(tier);
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(SEED);
    let mut rng = SimRng::seed_from_u64(SEED);
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Golden",
        &["fetch"],
        1,
        3,
        LessonShape {
            images: 1,
            image_secs: 2,
            narrated_clip_secs: Some(10),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    sim.app_mut().distribute_media();
    for &m in &media {
        sim.app_mut().media_mut(m).configure(MediaNodeConfig {
            queue_capacity: 4,
            fixed_service: MediaDuration::from_millis(1),
            per_mbyte: MediaDuration::from_millis(150),
        });
    }
    for (i, &c) in clients.iter().enumerate() {
        sim.run_until(ms(100 + 150 * i as i64));
        let doc: DocumentId = lessons[i % lessons.len()];
        sim.with_api(|w, api| w.client_mut(c).connect(api, srv, Some(doc)));
    }
    sim.run_until(ms(2_000));
    World { sim, srv, media }
}

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drain the run and fold it: the tier's counters, the number of trace
/// events, and the digest of their JSONL export plus the engine counters
/// (a cancel or a request that no event names still moves `delivered`).
fn finish(mut w: World) -> (MediaTierStats, Pin) {
    w.sim.run_until(MediaTime::from_secs(40));
    let tier = w.sim.app().server(w.srv).media.as_ref().expect("tier");
    let mut text = events_jsonl(w.sim.obs());
    let events = text.lines().count();
    text.push_str(&format!("{:?}\n", w.sim.stats()));
    let s = tier.stats;
    let row = [
        s.fetches,
        s.chunks,
        s.stalls,
        s.failovers,
        s.fetch_errors,
        s.parts_received,
        s.busy,
        s.hedges,
        s.hedge_wins,
        s.hedge_cancels,
        s.breaker_trips,
        s.fetches_lost,
        s.ladder_degrades,
        s.ladder_restores,
    ];
    (s, (row, events, fnv1a(&text)))
}

/// Trace events named `name` in the run so far.
fn count(w: &World, name: &str) -> usize {
    let needle = format!("\"name\":\"{name}\"");
    events_jsonl(w.sim.obs()).matches(&needle).count()
}

#[test]
fn defaults_shed_and_repump() {
    let (s, got) = finish(world(MediaTierConfig::default()));
    assert!(s.busy > 0 && s.stalls > 0, "{s:?}");
    assert_eq!(got, DEFAULTS);
}

#[test]
fn naive_immediate_retry_without_breaker() {
    let (s, got) = finish(world(MediaTierConfig {
        breaker: false,
        ..MediaTierConfig::default()
    }));
    assert!(s.busy > 0 && s.breaker_trips == 0, "{s:?}");
    assert_eq!(got, NAIVE);
}

#[test]
fn hedging_around_a_slow_replica() {
    let mut w = world(MediaTierConfig {
        hedging: true,
        hedge_max: MediaDuration::from_millis(40),
        ..MediaTierConfig::default()
    });
    let slow = w.media[0];
    w.sim.inject_fault(
        ms(2_000),
        FaultKind::NodeSlow {
            node: slow,
            factor: 40,
        },
    );
    w.sim
        .inject_fault(ms(6_000), FaultKind::NodeNominal { node: slow });
    let (s, got) = finish(w);
    assert!(
        s.hedges > 0 && s.hedge_wins > 0 && s.hedge_cancels > 0 && s.breaker_trips > 0,
        "{s:?}"
    );
    assert_eq!(got, HEDGING);
}

#[test]
fn media_node_crash_and_restart() {
    let mut w = world(MediaTierConfig::default());
    let victim = w.media[1];
    w.sim
        .inject_fault(ms(2_500), FaultKind::NodeCrash { node: victim });
    w.sim
        .inject_fault(ms(4_500), FaultKind::NodeRestart { node: victim });
    let (s, got) = finish(w);
    assert!(s.failovers > 0 && s.fetches_lost > 0, "{s:?}");
    assert_eq!(got, CRASH);
}

#[test]
fn rebalance_with_drain() {
    let mut w = world(MediaTierConfig::default());
    let (keep, drain) = (w.media[0], w.media[1]);
    let srv = w.srv;
    w.sim.run_until(ms(2_500));
    w.sim.with_api(|world, api| {
        let server = world.server_mut(srv);
        let keys: Vec<String> = MediaKind::ALL
            .iter()
            .flat_map(|&k| server.db.store(k).iter().map(|o| o.key.clone()))
            .collect();
        let placement = PlacementMap::build(keys.iter().map(String::as_str), &[keep], 2);
        server.rebalance_media(api, placement, Some(drain));
    });
    assert_eq!(count(&w, "ctrl_drain"), 1);
    assert!(count(&w, "stream_epoch") > 0, "nothing was re-pointed");
    assert_eq!(finish(w).1, REBALANCE);
}

/// What a scenario is pinned by: every [`MediaTierStats`] field in
/// declaration order, the trace-event count, the digest.
type Pin = ([u64; 14], usize, u64);

// Printed at cec5907 by this file's own `assert_eq!` failure messages.
// Columns: fetches, chunks, stalls, failovers, fetch_errors, parts_received,
// busy, hedges, hedge_wins, hedge_cancels, breaker_trips, fetches_lost,
// ladder_degrades, ladder_restores.
const DEFAULTS: Pin = (
    [3503, 265, 1255, 0, 0, 541, 3238, 0, 0, 0, 1, 0, 0, 0],
    6846,
    17_096_214_184_780_689_724,
);
const NAIVE: Pin = (
    [780, 281, 638, 0, 0, 560, 499, 0, 0, 0, 0, 0, 0, 0],
    1339,
    3_044_348_924_380_930_742,
);
const HEDGING: Pin = (
    [4979, 242, 1316, 0, 0, 501, 4763, 31, 2, 5, 2, 0, 0, 0],
    9812,
    16_521_010_495_117_846_366,
);
const CRASH: Pin = (
    [3622, 234, 21755, 8, 0, 488, 3379, 0, 0, 0, 0, 25, 0, 0],
    9792,
    7_997_666_377_337_118_387,
);
const REBALANCE: Pin = (
    [3513, 230, 21720, 0, 0, 482, 3274, 0, 0, 0, 0, 0, 0, 0],
    9573,
    13_934_932_677_467_769_208,
);
