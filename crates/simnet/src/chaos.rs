//! Randomized chaos: seeded [`FaultPlan`] generation and failing-plan
//! shrinking — the FoundationDB-style front half of the chaos harness
//! (the invariant checkers in `hermes_obs::invariants` are the back half).
//!
//! [`generate`] composes the fault vocabulary the engine understands —
//! crash storms, rolling restarts, access-link partitions, link flaps and
//! slow-node brownouts — into a schedule drawn from a seeded [`SimRng`].
//! Incidents target nodes *by role* ([`ChaosTargets`]), and a third of
//! them is **correlated**: clustered around a few burst centres so
//! overlapping failures (a crash *during* a partition, a brownout *during*
//! a failover) actually happen instead of being washed out by uniform
//! spacing. Identical `(seed, targets, profile)` triples
//! yield identical plans.
//!
//! [`shrink`] is a greedy delta-debugging minimizer: given a plan whose
//! run violates an invariant and an oracle that re-runs a candidate plan,
//! it drops event chunks, then single events, then narrows fault windows
//! (pulling each repair toward its fault) while the violation still
//! reproduces — ending at a locally minimal repro to paste into a
//! regression test via [`FaultPlan::to_rust_literal`].

use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::rng::SimRng;
use hermes_core::{MediaDuration, MediaTime, NodeId};
use std::collections::BTreeMap;

/// Nodes grouped by service role, plus the hub they attach to. Worlds in
/// this repo are stars: every node hangs off one backbone node, so "the
/// node's access link" is the `(node, hub)` pair — that is what partitions
/// and flaps act on.
#[derive(Debug, Clone, Default)]
pub struct ChaosTargets {
    /// Multimedia-server nodes (crash/restart candidates).
    pub servers: Vec<NodeId>,
    /// Media-tier nodes (crash/restart and brownout candidates).
    pub media: Vec<NodeId>,
    /// Client nodes (access-link partition/flap candidates only: a crashed
    /// client is a set-top box switched off — the service cannot observe
    /// the difference, and its actor would survive as a timerless zombie,
    /// so process faults stay on the server side).
    pub clients: Vec<NodeId>,
    /// The backbone hub every access link attaches to.
    pub hub: NodeId,
    /// The server hosting the fleet controller, if the control plane is
    /// on. The `ctrl_crash` incident family aims squarely at this node so
    /// sweeps reliably exercise controller failover instead of hoping a
    /// uniform server crash happens to land on the host.
    pub controller: Option<NodeId>,
}

impl ChaosTargets {
    /// True when no fault could target anything.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty() && self.media.is_empty() && self.clients.is_empty()
    }
}

/// Relative weights of the six incident families, in the order
/// [`generate`] numbers them: a single node crash + restart; a staggered
/// crash/restart wave across every node of one role; one access link
/// partitioned for a window; one access link flapping down/up for a few
/// cycles; one media node browning out (slow, not dead) for a window; the
/// controller host crashing (weightless unless [`ChaosTargets::controller`]
/// is set).
const FAMILY_WEIGHTS: [u32; 6] = [4, 1, 4, 2, 3, 2];
/// Fraction of incidents pulled onto a burst centre instead of spread
/// uniformly over the window.
const BURSTINESS: f64 = 0.35;
/// Burst centres drawn inside the window.
const BURST_CENTRES: u32 = 2;
/// Temporal spread of one burst: correlated incidents start within
/// `[centre, centre + BURST_SPAN)`.
const BURST_SPAN: MediaDuration = MediaDuration::from_millis(800);
/// Role-targeting weights for crashes and partitions, in order (servers,
/// media, clients). Roles with no nodes get weight 0.
const ROLE_BIAS: (u32, u32, u32) = (3, 4, 2);
/// Crash-window length range `[min, max)`.
const CRASH_DOWN: (MediaDuration, MediaDuration) =
    (MediaDuration::from_millis(400), MediaDuration::from_secs(2));
/// Partition-window length range `[min, max)`.
const PARTITION_LEN: (MediaDuration, MediaDuration) =
    (MediaDuration::from_millis(300), MediaDuration::from_secs(3));
/// Brownout-window length range `[min, max)`.
const BROWNOUT_LEN: (MediaDuration, MediaDuration) =
    (MediaDuration::from_millis(500), MediaDuration::from_secs(3));
/// Brownout slowdown factor range `[min, max)`.
const BROWNOUT_FACTOR: (u64, u64) = (4, 16);
/// Flap cycle period.
const FLAP_PERIOD: MediaDuration = MediaDuration::from_millis(600);
/// Outage per flap cycle.
const FLAP_DOWN: MediaDuration = MediaDuration::from_millis(200);
/// Flap cycle count range `[min, max)`.
const FLAP_CYCLES: (u64, u64) = (2, 5);
/// Stagger between consecutive crashes of a rolling restart.
const ROLLING_STAGGER: MediaDuration = MediaDuration::from_millis(700);

/// Intensity profile for [`generate`]: roughly one incident per second, a
/// third of them correlated into bursts, windows of a few hundred
/// milliseconds to a couple of seconds.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Faults are injected inside `[start, end)`. Repairs may land a
    /// window-length past `end`; the plan's last event is the instant the
    /// system is fault-free again (the recovery checker's clock zero).
    pub start: MediaTime,
    /// End of the injection window.
    pub end: MediaTime,
    /// Expected incidents per simulated second inside the window.
    pub incident_rate: f64,
}

impl ChaosProfile {
    /// The moderate profile over `[start, end)`: one incident per second.
    pub fn moderate(start: MediaTime, end: MediaTime) -> Self {
        ChaosProfile {
            start,
            end,
            incident_rate: 1.0,
        }
    }

    /// Scale the incident rate by `x` (the `--chaos-intensity` knob).
    pub fn with_intensity(mut self, x: f64) -> Self {
        self.incident_rate *= x.max(0.0);
        self
    }
}

/// Which subjects an incident occupies, so overlapping same-subject
/// windows are skipped (a second crash inside a crash window is schedule
/// noise, not extra chaos).
#[derive(Default)]
struct Occupancy {
    nodes: BTreeMap<NodeId, MediaTime>,
    links: BTreeMap<(NodeId, NodeId), MediaTime>,
}

impl Occupancy {
    fn node_free(&self, n: NodeId, at: MediaTime) -> bool {
        self.nodes.get(&n).is_none_or(|&until| at > until)
    }
    fn claim_node(&mut self, n: NodeId, until: MediaTime) {
        self.nodes.insert(n, until);
    }
    fn link_free(&self, a: NodeId, b: NodeId, at: MediaTime) -> bool {
        let key = (a.min(b), a.max(b));
        self.links.get(&key).is_none_or(|&until| at > until)
    }
    fn claim_link(&mut self, a: NodeId, b: NodeId, until: MediaTime) {
        self.links.insert((a.min(b), a.max(b)), until);
    }
}

fn dur_range(rng: &mut SimRng, (lo, hi): (MediaDuration, MediaDuration)) -> MediaDuration {
    MediaDuration::from_micros(rng.range_u64(lo.as_micros() as u64, hi.as_micros() as u64) as i64)
}

/// Pick a role (servers/media/clients) by weight, skipping empty roles.
/// Returns the role's node list, or `None` when every weighted role is
/// empty.
fn pick_role<'a>(
    rng: &mut SimRng,
    targets: &'a ChaosTargets,
    bias: (u32, u32, u32),
) -> Option<&'a [NodeId]> {
    let pools: [(&[NodeId], u32); 3] = [
        (&targets.servers, bias.0),
        (&targets.media, bias.1),
        (&targets.clients, bias.2),
    ];
    let total: u64 = pools
        .iter()
        .map(|(p, w)| if p.is_empty() { 0 } else { *w as u64 })
        .sum();
    if total == 0 {
        return None;
    }
    let mut draw = rng.range_u64(0, total);
    for (pool, w) in pools {
        let w = if pool.is_empty() { 0 } else { w as u64 };
        if draw < w {
            return Some(pool);
        }
        draw -= w;
    }
    None
}

fn pick_node(rng: &mut SimRng, pool: &[NodeId]) -> NodeId {
    pool[rng.range_u64(0, pool.len() as u64) as usize]
}

/// Generate a seeded random fault plan over `targets` with the given
/// profile. The returned plan is normalized (time-sorted, deduplicated)
/// and structurally valid, and every fault carries its repair: the system
/// is nominal again after the plan's last event.
pub fn generate(seed: u64, targets: &ChaosTargets, profile: &ChaosProfile) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
    let window_us = (profile.end - profile.start).as_micros().max(0) as u64;
    if targets.is_empty() || window_us == 0 {
        return FaultPlan::new();
    }
    // Expected incident count, with the fractional part resolved by a
    // Bernoulli draw so low rates still fire sometimes.
    let expected = profile.incident_rate * window_us as f64 / 1e6;
    let mut incidents = expected.floor() as u32;
    if rng.chance(expected.fract()) {
        incidents += 1;
    }
    // Burst centres: the correlation anchors.
    let centres: Vec<MediaTime> = (0..BURST_CENTRES)
        .map(|_| profile.start + MediaDuration::from_micros(rng.range_u64(0, window_us) as i64))
        .collect();
    let span_us = BURST_SPAN.as_micros() as u64;

    let mut weights = FAMILY_WEIGHTS;
    if targets.controller.is_none() {
        weights[5] = 0;
    }
    let wtotal: u64 = weights.iter().map(|&w| w as u64).sum();

    let mut plan = FaultPlan::new();
    let mut busy = Occupancy::default();
    for _ in 0..incidents {
        // Incident start: clustered on a burst centre, or uniform.
        let at = if rng.chance(BURSTINESS) {
            let c = centres[rng.range_u64(0, centres.len() as u64) as usize];
            (c + MediaDuration::from_micros(rng.range_u64(0, span_us) as i64)).min(profile.end)
        } else {
            profile.start + MediaDuration::from_micros(rng.range_u64(0, window_us) as i64)
        };
        let mut draw = rng.range_u64(0, wtotal);
        let mut family = 0;
        for (id, &w) in weights.iter().enumerate() {
            if draw < w as u64 {
                family = id;
                break;
            }
            draw -= w as u64;
        }
        match family {
            // Crash one crashable node (servers and media only).
            0 => {
                let bias = (ROLE_BIAS.0, ROLE_BIAS.1, 0);
                let Some(pool) = pick_role(&mut rng, targets, bias) else {
                    continue;
                };
                let node = pick_node(&mut rng, pool);
                let down = dur_range(&mut rng, CRASH_DOWN);
                if busy.node_free(node, at) {
                    busy.claim_node(node, at + down);
                    plan = plan.crash_for(node, at, down);
                }
            }
            // Rolling restart: staggered crash/restart wave over one role.
            1 => {
                let pool = if !targets.media.is_empty() && rng.chance(0.5) {
                    &targets.media
                } else if !targets.servers.is_empty() {
                    &targets.servers
                } else {
                    continue;
                };
                let down = dur_range(&mut rng, CRASH_DOWN);
                for (i, &node) in pool.iter().enumerate() {
                    let t = at + ROLLING_STAGGER * i as i64;
                    if busy.node_free(node, t) {
                        busy.claim_node(node, t + down);
                        plan = plan.crash_for(node, t, down);
                    }
                }
            }
            // Partition one access link.
            2 => {
                let Some(pool) = pick_role(&mut rng, targets, ROLE_BIAS) else {
                    continue;
                };
                let node = pick_node(&mut rng, pool);
                let len = dur_range(&mut rng, PARTITION_LEN);
                if busy.link_free(node, targets.hub, at) {
                    busy.claim_link(node, targets.hub, at + len);
                    plan = plan.partition(node, targets.hub, at, at + len);
                }
            }
            // Flap one access link.
            3 => {
                let Some(pool) = pick_role(&mut rng, targets, ROLE_BIAS) else {
                    continue;
                };
                let node = pick_node(&mut rng, pool);
                let cycles = rng.range_u64(FLAP_CYCLES.0, FLAP_CYCLES.1) as u32;
                if busy.link_free(node, targets.hub, at) {
                    busy.claim_link(node, targets.hub, at + FLAP_PERIOD * cycles as i64);
                    plan = plan.flap(node, targets.hub, at, FLAP_PERIOD, FLAP_DOWN, cycles);
                }
            }
            // Brownout one media node.
            4 => {
                if targets.media.is_empty() {
                    continue;
                }
                let node = pick_node(&mut rng, &targets.media);
                let len = dur_range(&mut rng, BROWNOUT_LEN);
                let factor = rng.range_u64(BROWNOUT_FACTOR.0, BROWNOUT_FACTOR.1) as u32;
                if busy.node_free(node, at) {
                    busy.claim_node(node, at + len);
                    plan = plan.brownout(node, at, len, factor);
                }
            }
            // Crash the controller host specifically (failover drill).
            _ => {
                let Some(node) = targets.controller else {
                    continue;
                };
                let down = dur_range(&mut rng, CRASH_DOWN);
                if busy.node_free(node, at) {
                    busy.claim_node(node, at + down);
                    plan = plan.crash_for(node, at, down);
                }
            }
        }
    }
    let plan = plan.normalized();
    debug_assert!(plan.validate().is_ok(), "generator produced invalid plan");
    plan
}

/// Shrink a failing fault plan to a locally minimal repro.
///
/// `fails(candidate)` must re-run the simulation under `candidate` and
/// return `true` when the original violation still reproduces. The
/// minimizer first drops event chunks at halving granularity (classic
/// ddmin), then single events to a 1-minimal set, then narrows windows by
/// repeatedly halving each repair's distance to its fault. Every accepted
/// candidate fails, so the returned plan is guaranteed to reproduce the
/// violation; if the input plan itself does not fail, it is returned
/// unchanged.
pub fn shrink<F>(plan: &FaultPlan, mut fails: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut events = plan.events();
    if !fails(&FaultPlan::from_events(events.clone())) {
        return plan.clone();
    }
    // Phase 1+2: chunked removal down to single events (ddmin). At each
    // granularity, try dropping every chunk; restart the pass whenever a
    // drop sticks.
    let mut chunk = (events.len() / 2).max(1);
    while !events.is_empty() {
        let mut shrunk = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            let mut candidate = events.clone();
            candidate.drain(start..end);
            if fails(&FaultPlan::from_events(candidate.clone())) {
                events = candidate;
                shrunk = true;
                // Re-test from the same offset: the next chunk slid left.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        if !shrunk || chunk > events.len() {
            chunk = (chunk / 2).max(1);
        }
    }
    // Phase 3: narrow windows — pull each repair halfway toward the most
    // recent prior fault on the same subject, while the violation holds.
    loop {
        let mut narrowed = false;
        for i in 0..events.len() {
            let FaultEvent { at, kind } = events[i];
            let Some(open_at) = window_open(&events, i) else {
                continue;
            };
            let gap = (at - open_at).as_micros();
            if gap <= 1 {
                continue;
            }
            let mid = open_at + MediaDuration::from_micros(gap / 2);
            let mut candidate = events.clone();
            candidate[i] = FaultEvent { at: mid, kind };
            candidate.sort_by_key(|e| e.at);
            if fails(&FaultPlan::from_events(candidate.clone())) {
                events = candidate;
                narrowed = true;
            }
        }
        if !narrowed {
            break;
        }
    }
    FaultPlan::from_events(events)
}

/// For a repair event at index `i`, the instant of the most recent prior
/// fault on the same subject (the window it closes), if any.
fn window_open(events: &[FaultEvent], i: usize) -> Option<MediaTime> {
    let closer = events[i].kind;
    let matches_open = |k: &FaultKind| match (closer, *k) {
        (FaultKind::NodeRestart { node }, FaultKind::NodeCrash { node: n }) => node == n,
        (FaultKind::LinkUp { a, b }, FaultKind::LinkDown { a: x, b: y }) => {
            (a, b) == (x, y) || (a, b) == (y, x)
        }
        (FaultKind::NodeNominal { node }, FaultKind::NodeSlow { node: n, .. }) => node == n,
        _ => false,
    };
    events[..i]
        .iter()
        .rev()
        .find(|e| matches_open(&e.kind))
        .map(|e| e.at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> ChaosTargets {
        ChaosTargets {
            servers: vec![NodeId::new(1), NodeId::new(2)],
            media: vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)],
            clients: vec![NodeId::new(6), NodeId::new(7)],
            hub: NodeId::new(0),
            controller: Some(NodeId::new(1)),
        }
    }

    fn profile() -> ChaosProfile {
        ChaosProfile::moderate(MediaTime::from_secs(1), MediaTime::from_secs(9))
    }

    #[test]
    fn generation_is_deterministic() {
        let t = targets();
        let p = profile();
        for seed in 0..20 {
            assert_eq!(generate(seed, &t, &p), generate(seed, &t, &p));
        }
    }

    #[test]
    fn generated_plans_are_valid_and_repair_everything() {
        let t = targets();
        let p = profile().with_intensity(3.0);
        let mut non_empty = 0;
        for seed in 0..50 {
            let plan = generate(seed, &t, &p);
            plan.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if !plan.is_empty() {
                non_empty += 1;
            }
            // Every fault family that opens a window also closes it.
            let mut down = std::collections::BTreeSet::new();
            for ev in plan.events() {
                match ev.kind {
                    FaultKind::NodeCrash { node } => {
                        down.insert(format!("p{}", node.raw()));
                    }
                    FaultKind::NodeRestart { node } => {
                        down.remove(&format!("p{}", node.raw()));
                    }
                    FaultKind::LinkDown { a, b } => {
                        down.insert(format!(
                            "l{}-{}",
                            a.raw().min(b.raw()),
                            a.raw().max(b.raw())
                        ));
                    }
                    FaultKind::LinkUp { a, b } => {
                        down.remove(&format!(
                            "l{}-{}",
                            a.raw().min(b.raw()),
                            a.raw().max(b.raw())
                        ));
                    }
                    FaultKind::NodeSlow { node, .. } => {
                        down.insert(format!("s{}", node.raw()));
                    }
                    FaultKind::NodeNominal { node } => {
                        down.remove(&format!("s{}", node.raw()));
                    }
                }
            }
            assert!(down.is_empty(), "seed {seed}: unrepaired faults {down:?}");
        }
        assert!(non_empty >= 45, "only {non_empty}/50 seeds produced faults");
    }

    #[test]
    fn intensity_scales_event_count() {
        let t = targets();
        let lo: usize = (0..30)
            .map(|s| generate(s, &t, &profile().with_intensity(0.5)).len())
            .sum();
        let hi: usize = (0..30)
            .map(|s| generate(s, &t, &profile().with_intensity(4.0)).len())
            .sum();
        assert!(hi > lo * 2, "intensity 4.0 ({hi}) not ≫ 0.5 ({lo})");
    }

    #[test]
    fn clients_never_crash() {
        let t = targets();
        let p = profile().with_intensity(4.0);
        for seed in 0..40 {
            for ev in generate(seed, &t, &p).events() {
                if let FaultKind::NodeCrash { node } | FaultKind::NodeSlow { node, .. } = ev.kind {
                    assert!(
                        !t.clients.contains(&node),
                        "seed {seed}: client process fault {ev:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ctrl_crash_family_aims_at_the_controller_host() {
        // A controller host outside the crashable pools: only the ctrl_crash
        // family can crash it.
        let mut t = targets();
        let ctrl = NodeId::new(9);
        t.controller = Some(ctrl);
        let p = profile().with_intensity(4.0);
        let mut hits = 0;
        for seed in 0..30 {
            for ev in generate(seed, &t, &p).events() {
                if let FaultKind::NodeCrash { node } = ev.kind {
                    assert!(
                        node == ctrl || t.servers.contains(&node) || t.media.contains(&node),
                        "seed {seed}: crash on non-process node {node:?}"
                    );
                    hits += (node == ctrl) as u32;
                }
            }
        }
        assert!(hits > 10, "only {hits} controller crashes across 30 seeds");

        // Without a controller target the family is weightless: only
        // ordinary crashes, none of them on the would-be host.
        t.controller = None;
        for seed in 0..30 {
            for ev in generate(seed, &t, &p).events() {
                if let FaultKind::NodeCrash { node } = ev.kind {
                    assert!(
                        t.servers.contains(&node) || t.media.contains(&node),
                        "seed {seed}: crash on non-process node {node:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shrink_finds_minimal_culprit_set() {
        // Oracle: fails iff the plan still crashes node 3 AND partitions
        // the 4–0 link (order-free overlap condition).
        let n3 = NodeId::new(3);
        let n4 = NodeId::new(4);
        let hub = NodeId::new(0);
        let noisy = generate(11, &targets(), &profile().with_intensity(2.0))
            .crash_for(n3, MediaTime::from_secs(4), MediaDuration::from_secs(2))
            .partition(n4, hub, MediaTime::from_secs(4), MediaTime::from_secs(6));
        let fails = |p: &FaultPlan| {
            let evs = p.events();
            let crash = evs
                .iter()
                .any(|e| matches!(e.kind, FaultKind::NodeCrash { node } if node == n3));
            let cut = evs.iter().any(
                |e| matches!(e.kind, FaultKind::LinkDown { a, b } if (a, b) == (n4, hub) || (a, b) == (hub, n4)),
            );
            crash && cut
        };
        assert!(fails(&noisy), "precondition: the full plan must fail");
        let minimal = shrink(&noisy, fails);
        assert_eq!(
            minimal.len(),
            2,
            "minimal repro: {}",
            minimal.to_rust_literal()
        );
        assert!(fails(&minimal));
    }

    #[test]
    fn shrink_narrows_windows() {
        let n1 = NodeId::new(1);
        // Violation depends only on the crash happening; the 8 s outage
        // window should collapse toward zero.
        let plan =
            FaultPlan::new().crash_for(n1, MediaTime::from_secs(2), MediaDuration::from_secs(8));
        let fails = |p: &FaultPlan| {
            p.events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::NodeCrash { .. }))
        };
        let minimal = shrink(&plan, fails);
        // The restart itself is droppable? No: dropping it leaves the node
        // dead, which still "fails" under this oracle — so the minimal
        // plan is the bare crash.
        assert_eq!(minimal.len(), 1);
        assert!(matches!(
            minimal.events()[0].kind,
            FaultKind::NodeCrash { .. }
        ));
    }

    #[test]
    fn shrink_returns_plan_unchanged_when_not_failing() {
        let plan = FaultPlan::new().crash(NodeId::new(1), MediaTime::from_secs(1));
        let shrunk = shrink(&plan, |_| false);
        assert_eq!(shrunk, plan);
    }
}
