//! Media-tier fetch-client golden test: one small real world run under the
//! five regimes the fetch client behaves differently in, each pinned by its
//! full [`MediaTierStats`] and an FNV digest of the exported event trace.
//! `NAIVE` was printed at cec5907 — the commit *before* the fetch client
//! moved out of `server_actor.rs` into `hermes_server::fetch` — and has never
//! moved; the other four were re-pinned when the credit window replaced the
//! paced re-poll (PR 24; docs/PERF_LEDGER.md explains each moved counter),
//! and `HEDGING` again when its world lost a 40 ms hedge cap the service no
//! longer offers.
//! None may move again unasked: a send, timer, emit or RNG draw that changes
//! order or count anywhere on the pump / chunk / busy / hedge / failover /
//! rebalance paths changes a digest.
//!
//! The world (`common/mod.rs`): one server, two media nodes with short
//! queues and slow disks (replication 2, so every object lives on both),
//! twelve clients arriving 150 ms apart over three lessons of one image + a
//! 10 s narrated clip — so streams fill the nodes' credit windows and wait
//! in every scenario (and, without overload control, shed and re-ask), and
//! the discrete path (an image ships the moment its bytes arrive) runs too.

mod common;

use common::{build, connect, ms, world, World};
use hermes_core::{MediaKind, MediaTime};
use hermes_server::PlacementMap;
use hermes_service::{MediaTierConfig, MediaTierStats};
use hermes_simnet::obs::events_jsonl;
use hermes_simnet::FaultKind;

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
fn defaults_wait_for_credit() {
    let (s, got) = finish(world(MediaTierConfig::default()));
    // The window holds each node's queue inside its bound: nothing is shed
    // (the paced re-poll shed 3,238 of 3,503 fetches here), every fetch is
    // answered, and streams still run dry waiting their turn.
    assert!(
        s.busy == 0 && s.chunks == s.fetches && s.stalls > 0,
        "{s:?}"
    );
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
    // The replica is slow from before the first client connects: a hedge
    // takes a credit of its alternate or is not sent, and once the crowd is
    // in, both 4-deep windows are full. The races are run — and won by the
    // healthy replica — while the crowd is still arriving.
    let mut w = build(MediaTierConfig {
        hedging: true,
        ..MediaTierConfig::default()
    });
    let slow = w.media[0];
    w.sim.inject_fault(
        ms(0),
        FaultKind::NodeSlow {
            node: slow,
            factor: 40,
        },
    );
    w.sim
        .inject_fault(ms(6_000), FaultKind::NodeNominal { node: slow });
    connect(&mut w);
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

// Printed by this file's own `assert_eq!` failure messages: `NAIVE` at
// cec5907, `HEDGING` at bf53604 with the hedge cap at its 250 ms default
// (the cap it has been fixed at since), the rest at PR 24.
// Columns: fetches, chunks, stalls, failovers, fetch_errors, parts_received,
// busy, hedges, hedge_wins, hedge_cancels, breaker_trips, fetches_lost,
// ladder_degrades, ladder_restores.
const DEFAULTS: Pin = (
    [252, 252, 294, 0, 0, 492, 0, 0, 0, 0, 0, 0, 0, 0],
    338,
    1_854_026_607_145_854_128,
);
const NAIVE: Pin = (
    [780, 281, 638, 0, 0, 560, 499, 0, 0, 0, 0, 0, 0, 0],
    1339,
    3_044_348_924_380_930_742,
);
const HEDGING: Pin = (
    [203, 201, 791, 0, 0, 379, 2, 1, 1, 1, 1, 0, 0, 0],
    310,
    16_738_011_441_258_630_250,
);
const CRASH: Pin = (
    [252, 248, 3912, 13, 0, 476, 0, 0, 0, 0, 0, 4, 0, 0],
    354,
    6_219_896_558_802_267_688,
);
const REBALANCE: Pin = (
    [252, 248, 3912, 0, 0, 481, 0, 0, 0, 0, 0, 0, 0, 0],
    351,
    12_716_029_065_538_257_960,
);
