//! Engine golden test: one seeded scenario whose every delivery, engine
//! counter and link counter is folded into a digest that must never move.
//! The scenario was rebuilt on the two jitter models and the fixed
//! retransmission timeout the engine keeps; the digest was printed by the
//! engine of bf53604, the commit before they became the only ones, and the
//! engine after it prints the same. Any change to routing, hop forwarding, the reliable gate, node
//! liveness or multicast fan-out that shifts one event, timestamp or RNG
//! draw changes the digest. The scenario is in `golden_world/mod.rs`.

use hermes_core::{MediaDuration, MediaTime, NodeId};
use hermes_simnet::{
    App, FaultEvent, FaultKind, FaultPlan, JitterModel, LinkSpec, LossModel, Network, Sim, SimApi,
    SimRng, WireSize,
};

mod golden_world;
use golden_world::{digest, fault_plan, n, world, Driver, Msg};

fn run(seed: u64) -> (u64, u64, Sim<Msg, Driver>) {
    let mut sim = world(seed);
    let events = sim.run(10_000_000);
    (digest(&sim), events, sim)
}

#[test]
fn engine_trace_digest_is_unchanged() {
    let (digest, events, sim) = run(20_260_930);
    let s = sim.stats();
    let net = sim.net().total_stats();
    // The scenario must really reach every path, or the digest pins nothing.
    assert_eq!(sim.app().faults.len(), fault_plan().len());
    assert_eq!(sim.app().refused, 16, "island and unknown sends refused");
    assert!(s.retransmissions > 0, "{s:?}");
    assert!(s.reliable_failures > 0, "{s:?}");
    assert!(s.fault_drops > 0, "{s:?}");
    assert!(s.datagrams_dropped > 0, "{s:?}");
    assert!(
        s.mcast_deliveries > 0 && s.mcast_link_copies > s.mcast_sends,
        "{s:?}"
    );
    assert!(
        net.packets_lost > 0 && net.packets_dropped_queue > 0,
        "{net:?}"
    );
    assert!(net.packets_dropped_down > 0, "{net:?}");
    let ghost = sim.app().trace.iter().filter(|t| t.1 == n(77)).count();
    assert_eq!(
        ghost, 5,
        "timers on an unknown node fire (alive, incarnation 0)"
    );
    assert_eq!(
        (sim.app().trace.len(), digest, events),
        GOLDEN,
        "engine behaviour moved: {s:?} {net:?}"
    );
    // Each accepted send took its first link when it was made: exactly the
    // events the queued first hop cost.
    assert_eq!(EVENTS_WITH_QUEUED_FIRST_HOP - events, sim.app().sends);
}

#[test]
fn digest_depends_on_the_seed() {
    assert_ne!(run(1).0, run(2).0);
}

/// (deliveries, digest) of the scenario at seed 20260930, printed at
/// bf53604, and the events `sim.run` processed.
const GOLDEN: (usize, u64, u64) = (1005, 5_888_902_303_414_029_205, 4_321);

/// The events the same run processed while every send queued its first hop
/// as an event of its own (`sim/spec.rs` runs both engines).
const EVENTS_WITH_QUEUED_FIRST_HOP: u64 = 5_074;
