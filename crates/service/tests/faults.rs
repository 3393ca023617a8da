#![allow(clippy::field_reassign_with_default)]
//! Fault-injection resilience tests: crashed servers, healed partitions,
//! retransmitted control traffic — all deterministic under fixed seeds.

use hermes_core::{DocumentId, MediaTime, ServerId};
use hermes_service::{
    install_figure2, ClientConfig, ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::obs::events_jsonl;
use hermes_simnet::{FaultKind, FaultPlan, LinkSpec, Sim, SimRng};

/// One server with Fig. 2 installed, one client, clean 10 Mbps links.
fn fault_world(
    seed: u64,
) -> (
    Sim<ServiceMsg, ServiceWorld>,
    hermes_core::NodeId,
    hermes_core::NodeId,
) {
    let mut b = WorldBuilder::new(seed);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(99);
    install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
    (sim, srv, cli)
}

/// The server is down when the client's Connect arrives. The transport
/// delivers into a dead process; only the application-level tracked
/// retransmission recovers, and exactly one session is established.
#[test]
fn dropped_connect_is_retransmitted_until_session_establishes() {
    let (mut sim, srv, cli) = fault_world(11);
    let plan = FaultPlan::new().crash_for(
        srv,
        MediaTime::ZERO,
        hermes_core::MediaDuration::from_millis(1500),
    );
    sim.install_faults(&plan);
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(40));

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    assert!(client.session.is_some(), "session never established");
    assert_eq!(client.pending_tracked(), 0, "tracked requests left unacked");
    assert_eq!(client.completed.len(), 1, "presentation did not complete");

    let server = sim.app().server(srv);
    assert_eq!(server.sessions.len(), 1, "expected exactly one session");
    // Some control deliveries were genuinely lost to the dead process.
    assert!(sim.stats().fault_drops > 0);
}

/// Mid-playout server crash + restart: the client's failure detector trips
/// on missed heartbeats, it reconnects with its playout position, and the
/// rebuilt session resumes delivery to completion.
#[test]
fn server_crash_mid_playout_recovers_via_heartbeats() {
    let (mut sim, srv, cli) = fault_world(13);
    let plan = FaultPlan::new().crash_for(
        srv,
        MediaTime::from_secs(8),
        hermes_core::MediaDuration::from_millis(900),
    );
    sim.install_faults(&plan);
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(60));

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    assert_eq!(
        client.recoveries.len(),
        1,
        "expected one detected outage + recovery, got {:?}",
        client.recoveries
    );
    let (detected, recovered) = client.recoveries[0];
    // Detection happens after the crash, within the missed-beat window plus
    // slack; recovery follows detection.
    assert!(detected > MediaTime::from_secs(8));
    assert!(
        detected < MediaTime::from_secs(12),
        "detector too slow: {detected}"
    );
    assert!(recovered > detected);
    assert!(
        recovered - detected < hermes_core::MediaDuration::from_secs(5),
        "reconnect too slow: {}",
        recovered - detected
    );
    assert!(client.recovering.is_none(), "still marked recovering");
    assert_eq!(client.completed.len(), 1, "presentation did not complete");

    let server = sim.app().server(srv);
    assert_eq!(
        server.life.rebuilt_sessions.len(),
        1,
        "server should have rebuilt exactly one session"
    );
    let (old, new) = server.life.rebuilt_sessions[0];
    assert_ne!(old, new, "rebuilt session must get a fresh id");
    assert_eq!(client.session.unwrap().1, new);
    assert_eq!(server.sessions.len(), 1);
}

/// A partitioned access link heals well inside the transport's retry
/// window. Retransmitted tracked requests must not duplicate server-side
/// effects: one session, one retrieval charge, one completion.
#[test]
fn partition_heal_does_not_duplicate_side_effects() {
    let (mut sim, srv, cli) = fault_world(17);
    let backbone = hermes_core::NodeId::new(0);
    // Partition the client's access link before the connect handshake
    // finishes retrying, heal 2 s later.
    let plan = FaultPlan::new().partition(
        cli,
        backbone,
        MediaTime::from_millis(50),
        MediaTime::from_millis(2050),
    );
    sim.install_faults(&plan);
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(60));

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    assert_eq!(client.completed.len(), 1, "presentation did not complete");
    assert_eq!(client.pending_tracked(), 0);

    let server = sim.app().server(srv);
    // Dedup held: retransmissions never created extra sessions or rebuilt
    // anything (the process never died).
    assert_eq!(server.sessions.len(), 1, "duplicate sessions created");
    assert!(server.life.rebuilt_sessions.is_empty());
    // Exactly one retrieval was charged despite control retransmissions.
    let user = client.user.expect("subscription completed");
    let retrievals = server
        .accounts
        .user(user)
        .map(|r| r.retrieved.len())
        .unwrap_or(0);
    assert_eq!(retrievals, 1, "retrieval recorded more than once");
    // The link really did drop traffic while down.
    assert!(sim.net().total_stats().packets_dropped_down > 0);
}

/// The whole fault pipeline is deterministic: same seed, same plan, same
/// outcome — identical Fig. 4 transitions, obs events and recovery
/// timestamps.
#[test]
fn fault_recovery_is_deterministic() {
    let run = || {
        let (mut sim, srv, cli) = fault_world(13);
        let plan = FaultPlan::new().crash_for(
            srv,
            MediaTime::from_secs(8),
            hermes_core::MediaDuration::from_millis(900),
        );
        sim.install_faults(&plan);
        sim.with_api(|w, api| {
            w.client_mut(cli)
                .connect(api, srv, Some(DocumentId::new(1)));
        });
        sim.run_until(MediaTime::from_secs(60));
        let c = sim.app().client(cli);
        let node = format!("\"node\":{},", cli.raw());
        let events = events_jsonl(sim.obs());
        let mine: Vec<String> = events
            .lines()
            .filter(|l| l.contains(&node))
            .map(String::from)
            .collect();
        (
            c.completed.clone(),
            c.machine.log.clone(),
            mine,
            c.recoveries.clone(),
            sim.stats().delivered,
            sim.stats().fault_drops,
        )
    };
    let first = run();
    assert!(!first.1.is_empty() && !first.2.is_empty() && !first.3.is_empty());
    assert_eq!(first, run());
}

/// Mid-playout media-node crash: the multimedia server fails the affected
/// streams over to a surviving replica and the presentation completes with
/// exactly the frame counts of a fault-free run — no duplicates, no holes.
#[test]
fn media_node_crash_mid_playout_fails_over_without_frame_loss() {
    let run = |crash: bool| {
        let mut b = WorldBuilder::new(23);
        let srv = b.add_server(
            ServerId::new(0),
            LinkSpec::lan(10_000_000),
            ServerConfig::default(),
        );
        let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
        for _ in 0..3 {
            b.add_media_node(LinkSpec::san(100_000_000));
        }
        let mut sim = b.build(23);
        let mut rng = SimRng::seed_from_u64(99);
        install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
        sim.app_mut().distribute_media();
        sim.with_api(|w, api| {
            w.client_mut(cli)
                .connect(api, srv, Some(DocumentId::new(1)));
        });
        // Run into the middle of the continuous playout, then kill the
        // media node actually serving a live stream.
        sim.run_until(MediaTime::from_secs(4));
        if crash {
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
                FaultKind::NodeCrash { node: victim },
            );
        }
        sim.run_until(MediaTime::from_secs(40));

        let c = sim.app().client(cli);
        assert!(c.errors.is_empty(), "errors: {:?}", c.errors);
        assert_eq!(c.completed.len(), 1, "presentation did not complete");
        let server = sim.app().server(srv);
        let tier = server.media.as_ref().expect("media tier not deployed");
        assert!(tier.stats.fetches > 0, "tier never fetched");
        let sent: std::collections::BTreeMap<_, _> = server
            .sessions
            .values()
            .flat_map(|s| s.streams.iter().map(|(comp, tx)| (*comp, tx.frames_sent)))
            .collect();
        (sent, tier.stats.failovers)
    };
    let (base_sent, base_failovers) = run(false);
    assert_eq!(base_failovers, 0);
    assert!(
        base_sent.values().any(|&f| f > 100),
        "continuous media never streamed: {base_sent:?}"
    );
    let (sent, failovers) = run(true);
    assert!(failovers >= 1, "media-node crash triggered no failover");
    assert_eq!(
        sent, base_sent,
        "failover duplicated or dropped frames vs the fault-free run"
    );
}

/// Crashing the server after the presentation finished must not wedge the
/// client: liveness detects the outage, reconnect re-establishes a session,
/// and no errors surface.
#[test]
fn crash_after_completion_reconnects_cleanly() {
    let (mut sim, srv, cli) = fault_world(19);
    // Fig. 2 runs 19 s; crash at 25 s, restart 1 s later.
    let plan = FaultPlan::new().crash_for(
        srv,
        MediaTime::from_secs(25),
        hermes_core::MediaDuration::from_secs(1),
    );
    sim.install_faults(&plan);
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(60));

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    assert_eq!(client.completed.len(), 1);
    assert!(client.session.is_some());
    assert!(client.recovering.is_none());
    // FaultKind round-trips through the plan builder.
    assert!(matches!(
        plan.events()[0].kind,
        FaultKind::NodeCrash { node } if node == srv
    ));
}

/// The hardest compound failure the reconnect path must survive: the media
/// replica serving the session's live stream is partitioned from the
/// backbone AND the primary server crashes inside the same window. The
/// client's detector trips on the dead server, reconnect-and-resume
/// rebuilds the session on the restarted process, the media tier fails the
/// stream over off the unreachable replica — and the run must end with a
/// completed presentation and the global invariant catalog green.
#[test]
fn reconnect_resumes_through_replica_partition_plus_server_crash() {
    // Phase 1 — fault-free run to 4 s on the same seed, to learn which
    // replica actually serves the live continuous stream.
    let build = || {
        let mut b = WorldBuilder::new(29);
        let srv = b.add_server(
            ServerId::new(0),
            LinkSpec::lan(10_000_000),
            ServerConfig::default(),
        );
        let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
        for _ in 0..3 {
            b.add_media_node(LinkSpec::san(100_000_000));
        }
        let mut sim = b.build(29);
        let mut rng = SimRng::seed_from_u64(99);
        install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
        sim.app_mut().distribute_media();
        sim.with_api(|w, api| {
            w.client_mut(cli)
                .connect(api, srv, Some(DocumentId::new(1)));
        });
        (sim, srv, cli)
    };
    let serving_replica = {
        let (mut sim, srv, _) = build();
        sim.run_until(MediaTime::from_secs(4));
        sim.app()
            .server(srv)
            .sessions
            .values()
            .flat_map(|s| s.streams.values())
            .filter(|tx| !tx.done && !tx.stopped && tx.plan.kind.is_continuous())
            .filter_map(|tx| tx.remote.as_ref().map(|r| r.replica))
            .next()
            .expect("no active tier-backed stream at 4 s")
    };

    // Phase 2 — same seed, same world, with the compound fault: replica
    // partitioned 4 s → 12 s, server crashed 5 s → 6.5 s (both inside the
    // partition window).
    let (mut sim, srv, cli) = build();
    let hub = hermes_core::NodeId::new(0);
    let plan = FaultPlan::new()
        .partition(
            serving_replica,
            hub,
            MediaTime::from_secs(4),
            MediaTime::from_secs(12),
        )
        .crash_for(
            srv,
            MediaTime::from_secs(5),
            hermes_core::MediaDuration::from_millis(1500),
        );
    sim.install_faults(&plan);
    sim.run_until(MediaTime::from_secs(60));
    // Disconnect and drain so the lifecycle invariant sees terminal states.
    sim.with_api(|w, api| w.client_mut(cli).disconnect(api));
    sim.run_until(MediaTime::from_secs(62));

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    assert_eq!(client.completed.len(), 1, "presentation did not complete");
    assert_eq!(
        client.recoveries.len(),
        1,
        "expected one detected outage + recovery, got {:?}",
        client.recoveries
    );
    let server = sim.app().server(srv);
    assert_eq!(
        server.life.rebuilt_sessions.len(),
        1,
        "server should have rebuilt exactly one session"
    );

    // The whole run must satisfy the global invariant catalog.
    let stats = sim.stats();
    sim.app().audit_media_parts(&stats);
    sim.publish_metrics();
    let mut obs = sim.take_obs();
    sim.app().publish_metrics(&mut obs);
    let cfg = hermes_simnet::obs::invariants::InvariantConfig {
        last_fault_clear: plan.events().last().map(|e| e.at),
        settle: hermes_core::MediaDuration::from_secs(8),
    };
    let violations = hermes_simnet::obs::invariants::check_run(obs.events(), &obs.registry, &cfg);
    assert!(
        violations.is_empty(),
        "invariant violations: {:?}",
        violations.iter().map(|v| v.render()).collect::<Vec<_>>()
    );
}
