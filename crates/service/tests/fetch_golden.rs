//! Media-tier fetch-client golden test: one small real world run under the
//! five regimes the fetch client behaves differently in, each pinned by its
//! full [`MediaTierStats`] and an FNV digest of the exported event trace.
//! `NAIVE` was printed at cec5907 — the commit *before* the fetch client
//! moved out of `server_actor.rs` into `hermes_server::fetch` — and has never
//! moved; the other four were re-pinned when the credit window replaced the
//! paced re-poll (PR 24; docs/PERF_LEDGER.md explains each moved counter),
//! and `HEDGING` again when its world lost a 40 ms hedge cap the service no
//! longer offers. All five were re-pinned when a stream's fetch window
//! became 2 s of media (`FETCH_AHEAD`) instead of the whole rest of its
//! object, `NAIVE` for the first time; the comment above the literals says
//! what moved in each.
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
        .inject_fault(ms(2_550), FaultKind::NodeCrash { node: victim });
    w.sim
        .inject_fault(ms(4_550), FaultKind::NodeRestart { node: victim });
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
// (the cap it has been fixed at since), the rest when the credit window
// came in; all five again when the fetch window became 2 s of media. What
// that moved:
// - Fetches rise in four worlds (252 → 298 with the defaults). The 512 KB
//   cache holds about two video segments; a stream that fetched its whole
//   clip in one burst left segments resident for the next viewer of the
//   lesson 450 ms behind (48 hits), while streams that fetch in step with
//   their pacers turn the cache over first (2 hits).
// - Stalls fall (294 → 198): no burst of 2 s-and-further fetches queues
//   ahead of a segment a pacer needs now.
// - `NAIVE` sheds 2 fetches, not 499: fetches go out as pacers drain,
//   not in bursts, so the short queues rarely overflow even without the
//   credit window, and this small world's retry storm is gone.
// - `CRASH` and `REBALANCE` stalled 3,912 times because a written-off
//   fetch stayed in its stream's window and stalled it for good (ROADMAP
//   item 6 (f)). Handing the write-off to its stream alone, with the
//   whole-object window kept, brings both to 289; now 205 and 196.
// - `CRASH`'s crash moved 2.5 s → 2.55 s: with a 2 s window both nodes
//   were idle at 2.5 s and nothing was written off; at 2.55 s three
//   fetches are (without the hand-over, its stalls read 3,938).
// - `HEDGING` runs five hedge races, not one, and the breaker trips
//   twice: more fetches go out while the replica is slow.
// `HEDGING` again when a woken waiter that finds no credit began keeping
// its place in the wait set (it had re-entered under a later key): the
// streams behind the slow replica are served in another order. Fetches
// 277 → 294, chunks 276 → 293, stalls 587 → 637, parts 575 → 571, trace
// events 370 → 381; hedges, wins, cancels, trips and busy are unchanged.
// All five again when a dry stream stopped polling: its pacer halts, and
// the segment that lands for it sends its frame (no 10 ms re-pump). What
// that moved:
// - Stalls count dry halts, one per dry spell, not one per 10 ms poll:
//   198 → 36 with the defaults, 171 → 36, 637 → 36, 205 → 36, 196 → 36.
// - Pumps no longer run on the poll's 10 ms lattice, so streams spread
//   over the two nodes differently: at `CRASH`'s crash twelve streams pull
//   from the victim, not nine (failovers 9 → 12, three more
//   `stream_epoch` events), and `REBALANCE`'s drain re-points three more
//   (`stream_epoch` 10 → 13).
// - `HEDGING`'s waiters are woken when the slow replica's breaker would
//   admit again, when a fetch holding a credit passes its deadline (by a
//   gate timer) and when a segment they wait for lands in the cache,
//   rather than by their own polls: fetches 294 → 295, chunks 293 → 294,
//   parts 571 → 590, trace events 381 → 390; the races, trips and busy
//   are unchanged.
// - Every digest moves with the send times.
// Columns: fetches, chunks, stalls, failovers, fetch_errors, parts_received,
// busy, hedges, hedge_wins, hedge_cancels, breaker_trips, fetches_lost,
// ladder_degrades, ladder_restores.
const DEFAULTS: Pin = (
    [298, 298, 36, 0, 0, 586, 0, 0, 0, 0, 0, 0, 0, 0],
    358,
    11_793_820_120_097_054_451,
);
const NAIVE: Pin = (
    [300, 298, 36, 0, 0, 586, 2, 0, 0, 0, 0, 0, 0, 0],
    362,
    913_876_542_571_297_240,
);
const HEDGING: Pin = (
    [295, 294, 36, 0, 0, 590, 1, 5, 5, 5, 2, 0, 0, 0],
    390,
    1_277_174_655_673_042_652,
);
const CRASH: Pin = (
    [301, 298, 36, 12, 0, 586, 0, 0, 0, 0, 0, 3, 0, 0],
    377,
    15_983_239_517_780_607_713,
);
const REBALANCE: Pin = (
    [298, 298, 36, 0, 0, 586, 0, 0, 0, 0, 0, 0, 0, 0],
    373,
    345_975_133_612_549_786,
);
