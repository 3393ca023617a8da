#![allow(clippy::field_reassign_with_default)]
//! Overload-resilience integration tests: a media node that browns out
//! (slow, not dead) must be detected by the per-replica circuit breaker and
//! covered by hedged fetches, keeping playout smooth where an uncontrolled
//! run visibly stalls — deterministically under fixed seeds.

mod common;

use hermes_core::{DocumentId, MediaDuration, MediaTime, ServerId};
use hermes_service::{
    install_figure2, ClientConfig, MediaTierConfig, ServerConfig, ServiceMsg, ServiceWorld,
    WorldBuilder,
};
use hermes_simnet::{FaultKind, LinkSpec, Sim, SimRng};

const SEED: u64 = 31;

/// Everything one brownout run produces, for cross-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunOutcome {
    completed: usize,
    frames_sent: std::collections::BTreeMap<hermes_core::ComponentId, u64>,
    stalls: u64,
    dry_ticks: u64,
    breaker_trips: u64,
    hedges: u64,
    hedge_wins: u64,
    hedge_cancels: u64,
    busy: u64,
    failovers: u64,
    delivered: u64,
}

/// One server + one client + three media nodes playing Fig. 2; at 4 s the
/// replica serving the live continuous stream browns out (service times
/// ×2000 — slower than real-time playout) for 12 s, then recovers. No
/// process ever crashes.
fn brownout_run(overload_on: bool) -> RunOutcome {
    let mut b = WorldBuilder::new(SEED);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    for _ in 0..3 {
        b.add_media_node(LinkSpec::san(100_000_000));
    }
    // Tight latency threshold so the browned-out node's EWMA trips quickly;
    // everything else at defaults.
    b.media_config(MediaTierConfig {
        breaker: overload_on,
        breaker_latency: MediaDuration::from_millis(20),
        hedging: overload_on,
        ..Default::default()
    });
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(SEED);
    let mut rng = SimRng::seed_from_u64(99);
    install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
    sim.app_mut().distribute_media();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });

    // Run into the continuous playout, then brown out the node actually
    // serving a live stream.
    sim.run_until(MediaTime::from_secs(4));
    let victim = sim
        .app()
        .server(srv)
        .sessions
        .values()
        .flat_map(|s| s.streams.values())
        .filter(|tx| !tx.done && !tx.stopped && tx.plan.kind.is_continuous())
        .filter_map(|tx| tx.remote.as_ref().map(|r| r.replica))
        .next()
        .expect("no active tier-backed stream at 4 s");
    sim.inject_fault(
        MediaTime::from_secs(4),
        FaultKind::NodeSlow {
            node: victim,
            factor: 2000,
        },
    );
    sim.inject_fault(
        MediaTime::from_secs(16),
        FaultKind::NodeNominal { node: victim },
    );
    // Every 10 ms, count the live continuous streams whose pacer has run
    // its fetched frames dry: a run's starvation, in 10 ms ticks.
    let mut dry_ticks = 0;
    let mut t = MediaTime::from_secs(4);
    while t < MediaTime::from_secs(40) {
        t += MediaDuration::from_millis(10);
        sim.run_until(t);
        let streams = sim
            .app()
            .server(srv)
            .sessions
            .values()
            .flat_map(|s| s.streams.values());
        let live = streams.filter(|tx| !tx.done && !tx.stopped && tx.plan.kind.is_continuous());
        let owed = live.filter(|tx| tx.source.frames_before(MediaTime::MAX) > 0);
        let dry = owed.filter(|tx| tx.remote.as_ref().is_some_and(|r| r.ready.is_empty()));
        dry_ticks += dry.count() as u64;
    }

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    let server = sim.app().server(srv);
    let tier = server.media.as_ref().expect("media tier not deployed");
    // Transport-level part conservation holds even with hedges, sheds and
    // cancelled losers in the mix.
    sim.app().audit_media_parts(&sim.stats());

    RunOutcome {
        completed: client.completed.len(),
        frames_sent: server
            .sessions
            .values()
            .flat_map(|s| s.streams.iter().map(|(comp, tx)| (*comp, tx.frames_sent)))
            .collect(),
        stalls: tier.stats.stalls,
        dry_ticks,
        breaker_trips: tier.stats.breaker_trips,
        hedges: tier.stats.hedges,
        hedge_wins: tier.stats.hedge_wins,
        hedge_cancels: tier.stats.hedge_cancels,
        busy: tier.stats.busy,
        failovers: tier.stats.failovers,
        delivered: sim.stats().delivered,
    }
}

/// With the breaker and hedging enabled, a slow-node brownout trips the
/// circuit, hedges cover the latency tail from a healthy replica, and the
/// presentation completes with every frame delivered.
#[test]
fn brownout_trips_breaker_and_hedges_cover_tail() {
    let run = brownout_run(true);
    assert_eq!(run.completed, 1, "presentation did not complete: {run:?}");
    assert!(
        run.breaker_trips >= 1,
        "brownout never tripped the breaker: {run:?}"
    );
    assert!(run.hedges >= 1, "no hedged fetches issued: {run:?}");
    assert!(
        run.hedge_wins >= 1,
        "hedges never beat the slow primary: {run:?}"
    );
    assert!(
        run.frames_sent.values().any(|&f| f > 100),
        "continuous media never streamed: {run:?}"
    );
}

/// Same seed, same brownout, overload control off: the server keeps
/// fetching from the slow replica and playout visibly stalls. The full
/// stack must beat that baseline while sending exactly the same frames.
#[test]
fn brownout_with_overload_control_beats_uncontrolled_baseline() {
    let controlled = brownout_run(true);
    let baseline = brownout_run(false);

    // Both complete (the brownout ends), but the uncontrolled run starves
    // the ready queue while the controlled one routes around the sick node.
    // Starvation is time dry, not the number of dry halts: a stream routed
    // around the sick node can halt more often, each time more briefly.
    assert_eq!(baseline.completed, 1);
    assert_eq!(baseline.breaker_trips, 0);
    assert_eq!(baseline.hedges, 0);
    assert!(
        baseline.dry_ticks > controlled.dry_ticks,
        "overload control did not reduce starvation: controlled {controlled:?} vs baseline {baseline:?}"
    );
    // Routing around the brownout never duplicates or drops frames.
    assert_eq!(
        controlled.frames_sent, baseline.frames_sent,
        "hedging/ejection changed what was sent"
    );
}

/// The whole overload pipeline is deterministic: same seed, same fault,
/// same stats — including hedge races, which are resolved by simulated
/// time, not wall clock.
#[test]
fn brownout_outcome_is_deterministic() {
    assert_eq!(brownout_run(true), brownout_run(true));
    assert_eq!(brownout_run(false), brownout_run(false));
}

/// The `fetch_golden` world to its end, optionally with one of its two
/// replicas slowed ×20 from 2 s to 7 s: (fetches, sheds, engine events,
/// presentations completed).
fn golden_world_run(brownout: bool) -> (u64, u64, u64, usize) {
    let mut w = common::world(MediaTierConfig::default());
    if brownout {
        let node = w.media[0];
        let slow = FaultKind::NodeSlow { node, factor: 20 };
        w.sim.inject_fault(common::ms(2_000), slow);
        w.sim
            .inject_fault(common::ms(7_000), FaultKind::NodeNominal { node });
    }
    let events = w.events + w.sim.run_until(MediaTime::from_secs(60));
    let app = w.sim.app();
    let done = |c| app.client(c).completed.len();
    let stats = app.server(w.srv).media.as_ref().expect("tier").stats;
    let completed = w.clients.iter().map(|&c| done(c)).sum();
    (stats.fetches, stats.busy, events, completed)
}

/// A browned-out replica answers late and sheds what has expired, but the
/// credit window keeps the puller from re-asking faster than the node
/// serves: no shed-and-poll storm, and every presentation still completes.
#[test]
fn brownout_does_not_storm() {
    let (fetches, busy, events, completed) = golden_world_run(true);
    let (_, _, calm_events, calm_completed) = golden_world_run(false);
    assert_eq!((completed, calm_completed), (12, 12));
    assert!(busy * 20 <= fetches, "{busy} of {fetches} fetches shed");
    assert!(
        events * 2 <= calm_events * 3,
        "{events} events against {calm_events} without the brownout"
    );
}
