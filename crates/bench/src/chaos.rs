//! The chaos harness: a fixed multi-server deployment driven under seeded
//! random fault plans, judged by the global invariant checkers, with
//! delta-debugging shrinking of any failing seed.
//!
//! `exp_chaos` sweeps seeds through [`run_chaos_seed`]; a seed whose run
//! breaks an invariant is handed to [`shrink_failing`], which re-runs the
//! *same* deterministic world under smaller and smaller fault plans until
//! no event can be removed without the violation disappearing, then emits
//! the survivor as a ready-to-paste [`FaultPlan`] literal.
//!
//! The world is deliberately modest — two multimedia servers, a
//! three-node media tier, six clients — so one run is cheap enough to
//! re-execute dozens of times during shrinking, while still exercising
//! every recovery path: reconnect-and-resume, replica failover, breaker
//! trips and probes, brownout slowdowns, link flaps and partitions.

use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_service::{
    install_course, ClientConfig, MediaTierConfig, ServerConfig, ServiceMsg, ServiceWorld,
    WorldBuilder,
};
use hermes_simnet::obs::invariants::{check_run, InvariantConfig, Violation};
use hermes_simnet::obs::{flight_report, Event, Labels, Severity};
use hermes_simnet::{
    chaos, ChaosProfile, ChaosTargets, FaultKind, FaultPlan, LinkSpec, Sim, SimRng,
};

/// When injected faults may start.
pub const FAULTS_START: MediaTime = MediaTime::from_secs(2);
/// When the fault *schedule* ends (repairs may trail a little past this).
pub const FAULTS_END: MediaTime = MediaTime::from_secs(16);
/// When every client is told to disconnect.
const DISCONNECT_AT: MediaTime = MediaTime::from_secs(22);
/// End of run: past the disconnect by more than the server's client
/// timeout, so leaked sessions must have been reaped and all in-flight
/// media parts drained before the conservation audit.
const HORIZON: MediaTime = MediaTime::from_secs(34);
/// Grace past the last fault event before disruption events count as a
/// bounded-recovery violation.
const SETTLE: MediaDuration = MediaDuration::from_secs(8);
/// Client-death timeout in the chaos world: low enough to reap leaked
/// sessions inside the drain window, high enough to ride out any injected
/// partition plus reconnect.
const CLIENT_TIMEOUT: MediaDuration = MediaDuration::from_secs(8);

/// Shape of the fixed chaos deployment.
struct WorldIds {
    servers: Vec<NodeId>,
    media: Vec<NodeId>,
    clients: Vec<NodeId>,
    docs: Vec<(NodeId, DocumentId)>,
}

/// Outcome of one seeded chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Invariant violations found (empty = run is green).
    pub violations: Vec<Violation>,
    /// Presentations completed across all clients.
    pub completed: usize,
    /// `session_abandoned` events (clients that gave up reconnecting).
    pub abandoned: usize,
    /// `session_rebuilt` events (reconnect-and-resume after server loss).
    pub rebuilds: usize,
    /// `client_expired` events (server-side reaping of dead clients).
    pub expired: usize,
    /// Trace events captured (0 when the `trace` feature is compiled out).
    pub trace_events: usize,
    /// Flight-recorder report, filled only when violations were found.
    pub flight: String,
}

fn build_world(seed: u64) -> (Sim<ServiceMsg, ServiceWorld>, WorldIds) {
    // Hand-built, not a crowd `Scenario`: media before clients pins its ids.
    let mut b = WorldBuilder::new(seed);
    let scfg = ServerConfig {
        client_timeout: CLIENT_TIMEOUT,
        ..Default::default()
    };
    // Three servers: the fleet controller lives on the first, and with
    // three a crash of the leader still leaves a strict majority (2 of 3)
    // able to elect a successor — so chaos exercises real failover, not
    // just a headless fleet.
    let servers = vec![
        b.add_server(ServerId::new(0), LinkSpec::lan(100_000_000), scfg.clone()),
        b.add_server(ServerId::new(1), LinkSpec::lan(100_000_000), scfg.clone()),
        b.add_server(ServerId::new(2), LinkSpec::lan(100_000_000), scfg),
    ];
    let media: Vec<NodeId> = (0..3)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    b.media_config(MediaTierConfig {
        hedging: true,
        ..Default::default()
    });
    let clients: Vec<NodeId> = (0..6)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x00DD_BA11);
    let shape = crate::harness::clip_lesson(12);
    let mut docs = Vec::new();
    for (i, &srv) in servers.iter().enumerate() {
        let first = 1 + 100 * i as u64;
        let lessons = install_course(
            sim.app_mut().server_mut(srv),
            ["Chaos A", "Chaos B", "Chaos C"][i],
            &["chaos"],
            first,
            2,
            shape,
            &mut rng,
        );
        for d in lessons {
            docs.push((srv, d));
        }
    }
    sim.app_mut().distribute_media();
    // The closed-loop control plane runs under chaos too: the fleet
    // controller (hosted on the first server) grades and prices sessions
    // while faults land on its reporters, its peers and itself — the
    // controller-legality invariant judges every actuation it makes.
    let host = servers[0];
    sim.with_api(|w, api| w.enable_control(api, host, hermes_control::ControllerConfig::default()));
    (
        sim,
        WorldIds {
            servers,
            media,
            clients,
            docs,
        },
    )
}

/// The fault-injection targets of the fixed chaos world (node ids are
/// deterministic: the builder allocates them in construction order).
fn targets(ids: &WorldIds) -> ChaosTargets {
    ChaosTargets {
        servers: ids.servers.clone(),
        media: ids.media.clone(),
        clients: ids.clients.clone(),
        hub: NodeId::new(0),
        // The controller starts on the first server; the ctrl_crash
        // incident family aims at it so every sweep drills failover.
        controller: Some(ids.servers[0]),
    }
}

/// The chaos profile swept by `exp_chaos`, scaled by `--chaos-intensity`.
pub fn profile(intensity: f64) -> ChaosProfile {
    ChaosProfile::moderate(FAULTS_START, FAULTS_END).with_intensity(intensity)
}

/// Generate the fault plan of `seed` against the fixed world's targets.
pub fn plan_for_seed(seed: u64, intensity: f64) -> FaultPlan {
    // Node ids only depend on construction order, so a throwaway build is
    // not needed: reconstruct the target set from the known shape.
    let (_, ids) = build_world(seed);
    chaos::generate(seed, &targets(&ids), &profile(intensity))
}

/// Run the fixed chaos world under `plan` and judge the capture.
///
/// `sabotage` is the harness's own test fixture: when the plan contains
/// both a node crash and a link partition, two fabricated `stream_epoch`
/// events with a regressing value are appended to the captured log before
/// checking — a deliberate, deterministic invariant violation that
/// exercises the catch → shrink → report machinery end to end.
pub fn run_chaos_plan(seed: u64, plan: &FaultPlan, sabotage: bool) -> ChaosReport {
    let (mut sim, ids) = build_world(seed);
    sim.install_faults(plan);
    for (i, &cli) in ids.clients.iter().enumerate() {
        let (srv, doc) = ids.docs[i % ids.docs.len()];
        sim.with_api(|w, api| w.client_mut(cli).connect(api, srv, Some(doc)));
    }
    sim.run_until(DISCONNECT_AT);
    for &cli in &ids.clients {
        sim.with_api(|w, api| w.client_mut(cli).disconnect(api));
    }
    sim.run_until(HORIZON);

    let stats = sim.stats();
    sim.app().audit_media_parts(&stats);
    sim.publish_metrics();
    let mut obs = sim.take_obs();
    sim.app().publish_metrics(&mut obs);

    let completed = ids
        .clients
        .iter()
        .map(|&c| sim.app().client(c).completed.len())
        .sum();

    let mut events: Vec<Event> = obs.events().to_vec();
    if sabotage && has_crash_and_partition(plan) {
        inject_epoch_regression(&mut events, ids.servers[0]);
    }

    let cfg = InvariantConfig {
        last_fault_clear: plan.events().last().map(|e| e.at),
        settle: SETTLE,
    };
    let violations = check_run(&events, &obs.registry, &cfg);

    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    let mut flight = String::new();
    if !violations.is_empty() {
        // Ship context with the failure: dump every implicated node's
        // recent ring into the report.
        let mut nodes: Vec<u64> = events
            .iter()
            .rev()
            .take(64)
            .map(|e| e.node())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        nodes.truncate(4);
        for n in nodes {
            obs.dump_flight(HORIZON, n, "invariant_violation", Labels::NONE);
        }
        flight = flight_report(&obs);
    }

    ChaosReport {
        violations,
        completed,
        abandoned: count("session_abandoned"),
        rebuilds: count("session_rebuilt"),
        expired: count("client_expired"),
        trace_events: events.len(),
        flight,
    }
}

/// Generate + run one seed of the sweep.
pub fn run_chaos_seed(seed: u64, intensity: f64, sabotage: bool) -> (FaultPlan, ChaosReport) {
    let plan = plan_for_seed(seed, intensity);
    let report = run_chaos_plan(seed, &plan, sabotage);
    (plan, report)
}

/// Shrink a failing plan to a minimal reproducer: re-runs the same seeded
/// world under candidate sub-plans, keeping only events whose removal
/// makes the violation disappear. Returns the minimal plan and the
/// violations it still produces.
///
/// The predicate requires the candidate to reproduce a violation of the
/// *same invariant* as the original run, not just any violation: shrinking
/// can otherwise drift onto an artifact of its own making (dropping a
/// `LinkUp` leaves a never-healing partition whose fallout trips
/// `bounded_recovery`), and the "minimal reproducer" would then describe a
/// different failure than the one being debugged.
pub fn shrink_failing(seed: u64, plan: &FaultPlan, sabotage: bool) -> (FaultPlan, Vec<Violation>) {
    let targets: std::collections::BTreeSet<&'static str> = run_chaos_plan(seed, plan, sabotage)
        .violations
        .iter()
        .map(|v| v.invariant)
        .collect();
    let minimal = chaos::shrink(plan, |candidate| {
        run_chaos_plan(seed, candidate, sabotage)
            .violations
            .iter()
            .any(|v| targets.contains(v.invariant))
    });
    let report = run_chaos_plan(seed, &minimal, sabotage);
    (minimal, report.violations)
}

fn has_crash_and_partition(plan: &FaultPlan) -> bool {
    let crash = plan
        .raw_events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::NodeCrash { .. }));
    let cut = plan
        .raw_events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::LinkDown { .. }));
    crash && cut
}

/// Fabricate an epoch regression on `server`: two `stream_epoch` events
/// whose value goes backwards. Deterministic, unmistakable, and impossible
/// for the real service to emit unless fencing breaks.
fn inject_epoch_regression(events: &mut Vec<Event>, server: NodeId) {
    let at = events.last().map(|e| e.at).unwrap_or(MediaTime::ZERO);
    let labels = Labels::session(424_242).stream(7);
    for (i, value) in [(1, 5), (2, 3)] {
        events.push(Event::new(
            at,
            u64::MAX - 2 + i,
            server.raw(),
            Severity::Info,
            "stream_epoch",
            labels,
            value,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance fixture: a deliberately injected checker violation is
    /// caught, shrunk to a minimal plan, and reported with flight context.
    #[test]
    fn sabotaged_run_is_caught_and_shrunk() {
        let seed = 7;
        // Hand-build a plan that trips the sabotage fixture plus noise the
        // shrinker must discard.
        let s0 = NodeId::new(1);
        let m0 = NodeId::new(4);
        let hub = NodeId::new(0);
        let plan = FaultPlan::new()
            .crash_for(s0, MediaTime::from_secs(4), MediaDuration::from_secs(1))
            .partition(
                m0,
                hub,
                MediaTime::from_secs(9),
                MediaTime::from_millis(9_800),
            )
            .brownout(m0, MediaTime::from_secs(12), MediaDuration::from_secs(1), 4);
        let report = run_chaos_plan(seed, &plan, true);
        if !hermes_simnet::obs::TRACE_COMPILED {
            // No event stream to sabotage in a no-trace build.
            assert!(report.violations.is_empty());
            return;
        }
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "epoch_monotonicity"),
            "sabotage not caught: {:?}",
            report.violations
        );
        assert!(report.flight.contains("invariant_violation"));

        let (minimal, still) = shrink_failing(seed, &plan, true);
        assert!(!still.is_empty(), "shrunk plan no longer reproduces");
        // The fixture needs exactly one crash and one partition-open; every
        // repair and the brownout are noise the shrinker must strip.
        assert_eq!(
            minimal.raw_events().len(),
            2,
            "not minimal: {}",
            minimal.to_rust_literal()
        );
        assert!(minimal.to_rust_literal().contains("FaultPlan::new()"));
    }

    /// Same seed, same plan, same world → byte-identical reports.
    #[test]
    fn chaos_runs_are_deterministic() {
        let (plan_a, a) = run_chaos_seed(11, 1.0, false);
        let (plan_b, b) = run_chaos_seed(11, 1.0, false);
        assert_eq!(plan_a.raw_events(), plan_b.raw_events());
        assert_eq!(format!("{:?}", a.violations), format!("{:?}", b.violations));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.trace_events, b.trace_events);
    }

    /// A fault-free plan over the chaos world is green and every client
    /// finishes its lesson.
    #[test]
    fn clean_world_is_green() {
        let report = run_chaos_plan(3, &FaultPlan::new(), false);
        assert!(
            report.violations.is_empty(),
            "clean run violated invariants: {:?}",
            report.violations
        );
        assert_eq!(report.completed, 6);
        assert_eq!(report.abandoned, 0);
    }
}
