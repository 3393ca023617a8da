//! Property tests for the global invariant checkers: each checker must
//! fire on exactly the synthetic stream that encodes its violation and
//! stay quiet on the corresponding clean stream. The checkers judge the
//! chaos harness's runs, so a checker that over- or under-fires silently
//! corrupts every sweep verdict.

use hermes_core::{MediaDuration, MediaTime};
use hermes_obs::invariants::{
    check_bounded_recovery, check_breaker_legality, check_conservation, check_controller_legality,
    check_epoch_monotonicity, check_frame_discipline, check_run, check_session_lifecycle,
    InvariantConfig,
};
use hermes_obs::{Event, Labels, MetricsRegistry, Severity};

/// Synthetic event with deterministic (at, seq) ordering.
fn ev(at_ms: i64, seq: u64, node: u64, name: &'static str, labels: Labels, value: i64) -> Event {
    Event::new(
        MediaTime::from_millis(at_ms),
        seq,
        node,
        Severity::Info,
        name,
        labels,
        value,
    )
}

#[test]
fn epoch_monotonicity_accepts_increasing_rejects_regression() {
    let clean = vec![
        ev(1, 0, 1, "stream_epoch", Labels::session(7).stream(3), 1),
        ev(2, 1, 1, "stream_epoch", Labels::session(7).stream(3), 2),
        // A different stream restarts its own numbering — independent key.
        ev(3, 2, 1, "stream_epoch", Labels::session(7).stream(4), 1),
        // Same (session, stream) on a different server node — independent.
        ev(4, 3, 2, "stream_epoch", Labels::session(7).stream(3), 1),
        ev(5, 4, 1, "group_epoch", Labels::NONE.stream(9), 1),
        ev(6, 5, 1, "group_epoch", Labels::NONE.stream(9), 2),
    ];
    assert!(check_epoch_monotonicity(&clean).is_empty());

    let mut bad = clean.clone();
    bad.push(ev(7, 6, 1, "stream_epoch", Labels::session(7).stream(3), 2));
    let v = check_epoch_monotonicity(&bad);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, "epoch_monotonicity");
    assert_eq!(v[0].at, MediaTime::from_millis(7));

    // An equal (non-increasing) epoch is also a regression.
    let mut stuck = clean.clone();
    stuck.push(ev(8, 7, 1, "group_epoch", Labels::NONE.stream(9), 2));
    assert_eq!(check_epoch_monotonicity(&stuck).len(), 1);
}

#[test]
fn session_lifecycle_requires_exactly_one_terminal_state() {
    let clean = vec![
        ev(1, 0, 1, "session_connect", Labels::session(1).peer(6), 0),
        ev(2, 1, 1, "session_crash_lost", Labels::session(1).peer(6), 0),
        // Rebuild supersedes session 1 (already closed by the crash: fine)
        // and opens session 2.
        ev(3, 2, 1, "session_rebuilt", Labels::session(2).peer(6), 1),
        ev(4, 3, 1, "session_teardown", Labels::session(2).peer(6), 0),
        // Same session id on another server node is a distinct session.
        ev(5, 4, 2, "session_connect", Labels::session(1).peer(7), 0),
        ev(6, 5, 2, "session_teardown", Labels::session(1).peer(7), 0),
    ];
    assert!(check_session_lifecycle(&clean).is_empty());

    // Leak: a session still open when the log ends.
    let mut leak = clean.clone();
    leak.push(ev(
        7,
        6,
        1,
        "session_connect",
        Labels::session(3).peer(6),
        0,
    ));
    let v = check_session_lifecycle(&leak);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("leaked"), "{}", v[0].detail);

    // Double close.
    let mut double = clean.clone();
    double.push(ev(
        7,
        6,
        1,
        "session_teardown",
        Labels::session(2).peer(6),
        0,
    ));
    let v = check_session_lifecycle(&double);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("double close"), "{}", v[0].detail);

    // Close of a session that never existed.
    let mut ghost = clean.clone();
    ghost.push(ev(
        7,
        6,
        1,
        "session_teardown",
        Labels::session(9).peer(6),
        0,
    ));
    let v = check_session_lifecycle(&ghost);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("never opened"), "{}", v[0].detail);

    // Re-open of a live session.
    let mut reopen = clean.clone();
    reopen.push(ev(
        7,
        6,
        2,
        "session_connect",
        Labels::session(2).peer(7),
        0,
    ));
    reopen.push(ev(
        8,
        7,
        2,
        "session_connect",
        Labels::session(2).peer(7),
        0,
    ));
    let v = check_session_lifecycle(&reopen);
    // The re-open fires once; the (still open) session also leaks.
    assert!(v.iter().any(|v| v.detail.contains("re-opened")), "{v:?}");

    // Rebuild superseding a session id nobody ever opened.
    let mut phantom = clean.clone();
    phantom.push(ev(
        7,
        6,
        1,
        "session_rebuilt",
        Labels::session(4).peer(6),
        42,
    ));
    phantom.push(ev(
        8,
        7,
        1,
        "session_teardown",
        Labels::session(4).peer(6),
        0,
    ));
    let v = check_session_lifecycle(&phantom);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].detail.contains("unknown session 42"),
        "{}",
        v[0].detail
    );
}

#[test]
fn session_lifecycle_client_fate_is_coherent() {
    let clean = vec![
        ev(1, 0, 6, "session_abandoned", Labels::session(1), 0),
        // Completing a *different* session afterwards is fine.
        ev(2, 1, 6, "presentation_complete", Labels::session(2), 0),
    ];
    assert!(check_session_lifecycle(&clean).is_empty());

    let conflicted = vec![
        ev(1, 0, 6, "session_abandoned", Labels::session(1), 0),
        ev(2, 1, 6, "presentation_complete", Labels::session(1), 0),
    ];
    let v = check_session_lifecycle(&conflicted);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].detail.contains("abandoned at 1000µs"),
        "{}",
        v[0].detail
    );

    let twice = vec![
        ev(1, 0, 6, "session_abandoned", Labels::session(1), 0),
        ev(2, 1, 6, "session_abandoned", Labels::session(1), 0),
    ];
    let v = check_session_lifecycle(&twice);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("abandoned twice"), "{}", v[0].detail);
}

#[test]
fn frame_discipline_flags_stale_frames_not_concealment() {
    let mut clean = MetricsRegistry::new();
    clean.counter_set("client.frames_played", Labels::for_peer(6), 500);
    // Concealment replays are deliberate degraded-mode behavior.
    clean.counter_set("client.duplicates_played", Labels::for_peer(6), 11);
    clean.counter_set("client.stale_frames", Labels::for_peer(6), 0);
    assert!(check_frame_discipline(&clean).is_empty());

    let mut bad = MetricsRegistry::new();
    bad.counter_set("client.stale_frames", Labels::for_peer(6), 3);
    let v = check_frame_discipline(&bad);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, "frame_discipline");
    assert!(v[0].detail.contains("3 stale frames"), "{}", v[0].detail);
}

#[test]
fn breaker_legality_follows_the_state_machine() {
    let clean = vec![
        ev(1, 0, 1, "breaker_trip", Labels::for_peer(3), 0),
        ev(2, 1, 1, "breaker_probe", Labels::for_peer(3), 0),
        // Failed probe re-trips from HalfOpen.
        ev(3, 2, 1, "breaker_trip", Labels::for_peer(3), 0),
        ev(4, 3, 1, "breaker_probe", Labels::for_peer(3), 0),
        ev(5, 4, 1, "breaker_close", Labels::for_peer(3), 0),
        // Reset is legal from any state.
        ev(6, 5, 1, "breaker_reset", Labels::for_peer(3), 0),
        // Independent circuit for another replica.
        ev(7, 6, 1, "breaker_trip", Labels::for_peer(4), 0),
    ];
    assert!(check_breaker_legality(&clean).is_empty());

    // Double trip without an intervening probe.
    let double_trip = vec![
        ev(1, 0, 1, "breaker_trip", Labels::for_peer(3), 0),
        ev(2, 1, 1, "breaker_trip", Labels::for_peer(3), 0),
    ];
    let v = check_breaker_legality(&double_trip);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].detail.contains("illegal from state Open"),
        "{}",
        v[0].detail
    );

    // Close straight from Open (no probe).
    let skip_probe = vec![
        ev(1, 0, 1, "breaker_trip", Labels::for_peer(3), 0),
        ev(2, 1, 1, "breaker_close", Labels::for_peer(3), 0),
    ];
    assert_eq!(check_breaker_legality(&skip_probe).len(), 1);

    // Probe while Closed.
    let cold_probe = vec![ev(1, 0, 1, "breaker_probe", Labels::for_peer(3), 0)];
    assert_eq!(check_breaker_legality(&cold_probe).len(), 1);

    // A crash of the server node resets its volatile breaker map: a fresh
    // trip right after is legal, and the checker must scope the reset to
    // the crashed node only.
    let crash_reset = vec![
        ev(1, 0, 1, "breaker_trip", Labels::for_peer(3), 0),
        ev(2, 1, 2, "breaker_trip", Labels::for_peer(3), 0),
        ev(3, 2, 1, "node_crash", Labels::NONE, 0),
        ev(4, 3, 1, "breaker_trip", Labels::for_peer(3), 0),
        // Node 2 did not crash — its circuit is still Open.
        ev(5, 4, 2, "breaker_trip", Labels::for_peer(3), 0),
    ];
    let v = check_breaker_legality(&crash_reset);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].at, MediaTime::from_millis(5));
}

#[test]
fn conservation_balances_sent_received_and_the_fault_ledger() {
    let mut clean = MetricsRegistry::new();
    clean.counter_set("media.parts_sent", Labels::for_peer(3), 100);
    clean.counter_set("media.parts_sent", Labels::for_peer(4), 50);
    clean.counter_set("server.parts_received", Labels::for_peer(1), 140);
    clean.counter_set("sim.fault_drops", Labels::NONE, 7);
    clean.counter_set("sim.reliable_failures", Labels::NONE, 3);
    clean.counter_set("server.fetches", Labels::for_peer(1), 20);
    clean.counter_set("server.chunks", Labels::for_peer(1), 20);
    assert!(check_conservation(&clean).is_empty());

    // More parts lost than the ledger explains.
    let mut leak = MetricsRegistry::new();
    leak.counter_set("media.parts_sent", Labels::for_peer(3), 100);
    leak.counter_set("server.parts_received", Labels::for_peer(1), 80);
    leak.counter_set("sim.fault_drops", Labels::NONE, 5);
    let v = check_conservation(&leak);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("leaked"), "{}", v[0].detail);

    // Receiving more than was ever sent (duplication).
    let mut dup = MetricsRegistry::new();
    dup.counter_set("media.parts_sent", Labels::for_peer(3), 10);
    dup.counter_set("server.parts_received", Labels::for_peer(1), 12);
    let v = check_conservation(&dup);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("received 12"), "{}", v[0].detail);

    // More completed fetches than issued.
    let mut fetch = MetricsRegistry::new();
    fetch.counter_set("server.fetches", Labels::for_peer(1), 5);
    fetch.counter_set("server.chunks", Labels::for_peer(1), 6);
    assert_eq!(check_conservation(&fetch).len(), 1);
}

#[test]
fn bounded_recovery_honours_the_settle_window() {
    let clear = MediaTime::from_secs(10);
    let settle = MediaDuration::from_secs(5);
    let clean = vec![
        // Disruption during the fault window and inside the settle window
        // is legitimate fallout.
        ev(9_000, 0, 6, "playout_gap", Labels::session(1), 2),
        ev(14_999, 1, 1, "breaker_trip", Labels::for_peer(3), 0),
        // Benign events after the deadline don't count.
        ev(20_000, 2, 6, "presentation_complete", Labels::session(1), 0),
    ];
    assert!(check_bounded_recovery(&clean, clear, settle).is_empty());

    let mut late = clean.clone();
    late.push(ev(15_001, 3, 6, "server_silent", Labels::session(1), 3));
    let v = check_bounded_recovery(&late, clear, settle);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, "bounded_recovery");
    assert!(v[0].detail.contains("1000µs past"), "{}", v[0].detail);
}

#[test]
fn controller_legality_gates_recovery_actions_targets_and_windows() {
    let clean = vec![
        ev(1, 0, 1, "session_connect", Labels::session(5).peer(6), 0),
        // Pressured tick: degrades are fine.
        ev(2, 1, 1, "ctrl_overload", Labels::for_peer(1), 1),
        ev(2, 2, 1, "ctrl_degrade_cmd", Labels::session(5).peer(1), 0),
        ev(2, 3, 1, "ctrl_degrade", Labels::session(5).stream(2), 1),
        ev(2, 4, 1, "ctrl_scale_out", Labels::for_peer(9), 0),
        // Calm tick: upgrades and scale-in become legal.
        ev(10, 5, 1, "ctrl_overload", Labels::for_peer(1), 0),
        ev(10, 6, 1, "ctrl_upgrade_cmd", Labels::session(5).peer(1), 0),
        ev(10, 7, 1, "ctrl_upgrade", Labels::session(5).stream(2), 0),
        ev(10, 8, 1, "ctrl_scale_in", Labels::for_peer(9), 0),
        ev(11, 9, 1, "session_teardown", Labels::session(5).peer(6), 0),
    ];
    assert!(check_controller_legality(&clean).is_empty());

    // Upgrade command and scale-in while the standing verdict is pressure.
    let hasty = vec![
        ev(1, 0, 1, "ctrl_overload", Labels::for_peer(1), 1),
        ev(1, 1, 1, "ctrl_upgrade_cmd", Labels::session(5).peer(1), 0),
        ev(1, 2, 1, "ctrl_scale_in", Labels::for_peer(9), 0),
    ];
    let v = check_controller_legality(&hasty);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|v| v.invariant == "controller_legality"));

    // Grade step applied outside the session's open window.
    let stale = vec![
        ev(1, 0, 1, "session_connect", Labels::session(5).peer(6), 0),
        ev(2, 1, 1, "session_teardown", Labels::session(5).peer(6), 0),
        ev(3, 2, 1, "ctrl_degrade", Labels::session(5).stream(2), 1),
    ];
    let v = check_controller_legality(&stale);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("not open"), "{}", v[0].detail);

    // Scale command pointed at a crashed media node; legal again after the
    // node restarts.
    let dead_target = vec![
        ev(1, 0, 9, "node_crash", Labels::NONE, 0),
        ev(2, 1, 1, "ctrl_scale_out", Labels::for_peer(9), 0),
        ev(3, 2, 9, "node_restart", Labels::NONE, 0),
        ev(4, 3, 1, "ctrl_scale_out", Labels::for_peer(9), 0),
    ];
    let v = check_controller_legality(&dead_target);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].detail.contains("crashed media node 9"),
        "{}",
        v[0].detail
    );
}

#[test]
fn controller_legality_enforces_fenced_epochs() {
    // Clean failover: node 1 actuates at epoch 1, crashes, node 2 is
    // elected at epoch 2 and takes over actuation.
    let clean = vec![
        ev(1, 0, 1, "ctrl_actuate", Labels::NONE, 1),
        ev(2, 1, 1, "ctrl_actuate", Labels::NONE, 1),
        ev(3, 2, 1, "node_crash", Labels::NONE, 0),
        ev(5, 3, 2, "ctrl_elect", Labels::NONE, 2),
        ev(6, 4, 2, "ctrl_actuate", Labels::NONE, 2),
    ];
    assert!(check_controller_legality(&clean).is_empty());

    // Split-brain: two nodes actuating under the same epoch.
    let split = vec![
        ev(1, 0, 1, "ctrl_actuate", Labels::NONE, 3),
        ev(2, 1, 2, "ctrl_actuate", Labels::NONE, 3),
    ];
    let v = check_controller_legality(&split);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("split-brain"), "{}", v[0].detail);

    // Epoch regression: a zombie leader actuating under an old epoch.
    let zombie = vec![
        ev(1, 0, 2, "ctrl_actuate", Labels::NONE, 4),
        ev(2, 1, 1, "ctrl_actuate", Labels::NONE, 3),
    ];
    let v = check_controller_legality(&zombie);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("regressed"), "{}", v[0].detail);

    // Election that reuses an epoch already in use.
    let reuse = vec![
        ev(1, 0, 1, "ctrl_actuate", Labels::NONE, 5),
        ev(2, 1, 2, "ctrl_elect", Labels::NONE, 5),
    ];
    let v = check_controller_legality(&reuse);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].detail.contains("already in use"), "{}", v[0].detail);
}

#[test]
fn check_run_aggregates_and_gates_bounded_recovery_on_config() {
    let events = vec![
        ev(1, 0, 1, "session_connect", Labels::session(1).peer(6), 0),
        // Leak (never closed) + a late disruption event.
        ev(30_000, 1, 6, "playout_gap", Labels::session(1), 1),
    ];
    let registry = MetricsRegistry::new();

    // Default config: bounded recovery disabled, only the leak fires.
    let v = check_run(&events, &registry, &InvariantConfig::default());
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, "session_lifecycle");

    // With a fault-clear instant, the late playout_gap fires too.
    let cfg = InvariantConfig {
        last_fault_clear: Some(MediaTime::from_secs(10)),
        settle: MediaDuration::from_secs(5),
    };
    let v = check_run(&events, &registry, &cfg);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().any(|v| v.invariant == "bounded_recovery"));
}

/// An id too wide for an event's 32-bit slot is stored saturated, counted
/// once per event however many of its ids overflowed, and turns the run
/// into a reported violation; a capture whose ids all fit publishes the
/// counter as zero and gains nothing.
#[test]
#[cfg(feature = "trace")]
fn label_overflow_is_counted_and_reported_never_wrapped() {
    use hermes_obs::Obs;
    let t = MediaTime::from_millis(1);
    let fits = u32::MAX as u64 - 2;
    let mut clean = Obs::new();
    clean.emit(t, fits, Severity::Info, "tick", Labels::session(fits));
    clean.emit(t, 1, Severity::Debug, "tick", Labels::NONE.segment(0));
    clean.publish_self_metrics();
    assert_eq!(
        clean.registry.counter("obs.label_overflow", Labels::NONE),
        0
    );
    let cfg = InvariantConfig::default();
    assert_eq!(check_run(clean.events(), &clean.registry, &cfg), vec![]);

    let mut obs = Obs::new();
    for wide in [u32::MAX as u64, 1 << 40, u64::MAX] {
        obs.emit(t, 1, Severity::Info, "tick", Labels::for_peer(wide));
        // Two wide labels and a wide node id on one `Debug` event: still
        // one overflow, and the ring-only event counts too.
        let both = Labels::NONE.stream(wide).segment(wide);
        obs.emit(t, wide, Severity::Debug, "tick", both);
    }
    for e in obs.events() {
        // Saturated to the top of the range, not wrapped to 0 / 2⁴⁰ mod 2³².
        assert_eq!(e.labels().peer, Some(u32::MAX as u64 - 1));
        assert!(e.saturated());
    }
    obs.publish_self_metrics();
    assert_eq!(obs.registry.counter("obs.label_overflow", Labels::NONE), 6);
    let v = check_run(obs.events(), &obs.registry, &cfg);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, "label_overflow");
    assert!(v[0].detail.starts_with("6 events"), "{}", v[0].detail);
}
