#![allow(clippy::field_reassign_with_default)]
//! Stream-sharing tests: batching windows merge concurrent requests onto
//! one multicast flow, patching tiles a late joiner's missed prefix
//! exactly, and media-tier faults fail a whole group over with a single
//! epoch bump — all deterministic under fixed seeds.

use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, install_figure2, ClientConfig, LessonShape, ServerConfig, ServiceMsg,
    ServiceWorld, WorldBuilder,
};
use hermes_simnet::{FaultKind, LinkSpec, Sim, SimRng};

const DOC: u64 = 1;
const CLIP_DOC: u64 = 10;

/// The tests' sharing policy: a 2 s batching window, 4 s patch bound.
fn policy(mode: SharingMode) -> SharingPolicy {
    SharingPolicy {
        mode,
        window: MediaDuration::from_millis(2_000),
        max_patch: MediaDuration::from_secs(4),
        hot_rank: 4,
    }
}

/// One server (sharing per `policy`), `clients` clients, three media nodes,
/// clean 10 Mbps LAN links. Fig. 2 is installed and distributed over the
/// media tier.
fn sharing_world(
    seed: u64,
    policy: SharingPolicy,
    clients: usize,
) -> (Sim<ServiceMsg, ServiceWorld>, NodeId, Vec<NodeId>) {
    let mut b = WorldBuilder::new(seed);
    let mut cfg = ServerConfig::default();
    cfg.sharing = policy;
    // A fat server trunk: the test's claim is about egress *bytes*, not
    // congestion, and a starved trunk queues control messages behind
    // media-tier segment fetches (skewing patch-window timing).
    let srv = b.add_server(ServerId::new(0), LinkSpec::lan(100_000_000), cfg);
    let clients: Vec<NodeId> = (0..clients)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    for _ in 0..3 {
        b.add_media_node(LinkSpec::san(100_000_000));
    }
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(99);
    install_figure2(
        sim.app_mut().server_mut(srv),
        DocumentId::new(DOC),
        &mut rng,
    );
    // A lesson whose narrated clip starts at scenario time zero: its
    // continuous frames flow from the moment the shared flow opens, so a
    // late joiner genuinely misses a prefix (Fig. 2's media start ~10 s in,
    // which a 4 s patch bound never reaches).
    install_course(
        sim.app_mut().server_mut(srv),
        "Patching",
        &["sharing"],
        CLIP_DOC,
        1,
        LessonShape {
            images: 0,
            image_secs: 0,
            narrated_clip_secs: Some(16),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    sim.app_mut().distribute_media();
    (sim, srv, clients)
}

/// Connect each client `gap` apart, all requesting the same document.
fn staggered_connects(
    sim: &mut Sim<ServiceMsg, ServiceWorld>,
    srv: NodeId,
    clients: &[NodeId],
    doc: u64,
    gap: MediaDuration,
) {
    for (i, &cli) in clients.iter().enumerate() {
        sim.run_until(MediaTime::ZERO + gap * i as i64);
        sim.with_api(|w, api| {
            w.client_mut(cli)
                .connect(api, srv, Some(DocumentId::new(doc)));
        });
    }
}

/// Per-client reassembled frame counts by component, plus playout glitches.
fn client_frames(
    sim: &Sim<ServiceMsg, ServiceWorld>,
    clients: &[NodeId],
) -> Vec<hermes_core::VecMap<hermes_core::ComponentId, u64>> {
    clients
        .iter()
        .map(|&cli| {
            let c = sim.app().client(cli);
            assert!(c.errors.is_empty(), "client {cli} errors: {:?}", c.errors);
            assert_eq!(c.completed.len(), 1, "client {cli} did not complete");
            let p = c.presentation.as_ref().unwrap();
            assert_eq!(p.engine.total_stats().glitches, 0, "client {cli} glitched");
            p.frames_received.clone()
        })
        .collect()
}

/// Bytes the server pushed onto its access trunk (server → backbone).
fn trunk_bytes(sim: &Sim<ServiceMsg, ServiceWorld>, srv: NodeId) -> u64 {
    sim.net()
        .link(srv, NodeId::new(0))
        .expect("server trunk")
        .stats
        .bytes_sent
}

/// Three requests inside one batching window ride a single multicast flow:
/// one group, two pending joins, and a trunk that carries roughly one copy
/// of the continuous media instead of three.
#[test]
fn batching_merges_concurrent_requests_and_cuts_trunk_egress() {
    let run = |mode: SharingMode| {
        let (mut sim, srv, clients) = sharing_world(31, policy(mode), 3);
        staggered_connects(
            &mut sim,
            srv,
            &clients,
            DOC,
            MediaDuration::from_millis(300),
        );
        sim.run_until(MediaTime::from_secs(45));
        let frames = client_frames(&sim, &clients);
        // Every member reassembled the identical stream.
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[0], frames[2]);
        let server = sim.app().server(srv);
        (trunk_bytes(&sim, srv), server.sharing_stats)
    };

    let (off_bytes, off_stats) = run(SharingMode::Off);
    assert_eq!(off_stats.groups_opened, 0);
    assert_eq!(off_stats.mcast_frames, 0);

    let (shared_bytes, stats) = run(SharingMode::Batching);
    assert_eq!(stats.groups_opened, 1, "expected one batch: {stats:?}");
    assert_eq!(stats.joins_pending, 2, "both followers join pending");
    assert_eq!(stats.joins_patched, 0);
    assert!(stats.mcast_frames > 100, "shared flow never streamed");
    // Three unicast copies collapsed to one shared copy on the trunk.
    assert!(
        shared_bytes * 2 < off_bytes,
        "sharing saved too little: {shared_bytes} vs {off_bytes}"
    );
}

/// A viewer arriving after the shared flow started patches the missed
/// prefix over unicast while buffering the multicast tail: the patch and
/// the shared flow tile the stream exactly — the joiner ends with the same
/// per-component frame counts as the leader, no duplicate and no hole.
#[test]
fn late_joiner_patch_tiles_exactly_with_shared_flow() {
    let (mut sim, srv, clients) = sharing_world(37, policy(SharingMode::BatchingPatching), 3);
    // Leader at 0 s ("hot" content starts immediately, clip at scenario
    // zero); the late joiners arrive 1.5 s apart, inside the 4 s patch
    // bound but well after frames started flowing.
    staggered_connects(
        &mut sim,
        srv,
        &clients,
        CLIP_DOC,
        MediaDuration::from_millis(1_500),
    );
    sim.run_until(MediaTime::from_secs(45));

    let frames = client_frames(&sim, &clients);
    assert_eq!(frames[0], frames[1], "joiner 1 diverged from leader");
    assert_eq!(frames[0], frames[2], "joiner 2 diverged from leader");
    let server = sim.app().server(srv);
    let stats = server.sharing_stats;
    assert_eq!(stats.groups_opened, 1, "{stats:?}");
    assert_eq!(stats.joins_patched, 2, "{stats:?}");
    assert!(
        stats.patch_streams >= 2,
        "patch streams never opened: {stats:?}"
    );
    assert!(stats.mcast_frames > 100);
    // Both joiners ride the same group as the leader.
    let leader_group = sim.app().client(clients[0]).shared_group;
    assert!(leader_group.is_some());
    assert_eq!(sim.app().client(clients[1]).shared_group, leader_group);
    assert_eq!(sim.app().client(clients[2]).shared_group, leader_group);
}

/// A media node dies while feeding an active shared group: the tier fails
/// over, the group's epoch bumps exactly once, and every member finishes
/// with frame counts identical to a fault-free run.
#[test]
fn media_node_crash_recovers_whole_group_with_one_epoch_bump() {
    let run = |crash: bool| {
        let (mut sim, srv, clients) = sharing_world(41, policy(SharingMode::Batching), 3);
        staggered_connects(
            &mut sim,
            srv,
            &clients,
            CLIP_DOC,
            MediaDuration::from_millis(300),
        );
        // The batching window closes ~2 s in; by 6 s the shared flow is
        // live. Kill the media node actually feeding it.
        sim.run_until(MediaTime::from_secs(6));
        if crash {
            assert!(
                !sim.app().server(srv).sharing.is_empty(),
                "no active shared group at 6 s"
            );
            let victim = sim
                .app()
                .server(srv)
                .sessions
                .values()
                .flat_map(|s| s.streams.values())
                .filter(|tx| !tx.done && !tx.stopped && tx.plan.kind.is_continuous())
                .filter_map(|tx| tx.remote.as_ref().map(|r| r.replica))
                .next()
                .expect("no active tier-backed stream at 6 s");
            sim.inject_fault(
                MediaTime::from_secs(6),
                FaultKind::NodeCrash { node: victim },
            );
        }
        sim.run_until(MediaTime::from_secs(45));
        let frames = client_frames(&sim, &clients);
        let server = sim.app().server(srv);
        let tier = server.media.as_ref().expect("media tier not deployed");
        (frames, server.sharing_stats, tier.stats.failovers)
    };

    let (base_frames, base_stats, base_failovers) = run(false);
    assert_eq!(base_failovers, 0);
    assert_eq!(base_stats.epoch_bumps, 0);
    assert!(
        base_frames[0].values().sum::<u64>() > 100,
        "continuous media never streamed: {base_frames:?}"
    );

    let (frames, stats, failovers) = run(true);
    assert!(failovers >= 1, "media-node crash triggered no failover");
    assert_eq!(
        stats.epoch_bumps, 1,
        "the group fails over as one unit: {stats:?}"
    );
    assert_eq!(
        frames, base_frames,
        "failover duplicated or dropped frames for some member"
    );
}

fn fnv1a(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Frames a client has reassembled so far, over all components.
fn frames_now(sim: &Sim<ServiceMsg, ServiceWorld>, cli: NodeId) -> u64 {
    let p = sim.app().client(cli).presentation.as_ref();
    p.map_or(0, |p| p.frames_received.values().sum())
}

/// The media nodes feeding `cli`'s session's live continuous streams.
fn feeding_nodes(sim: &Sim<ServiceMsg, ServiceWorld>, srv: NodeId, cli: NodeId) -> Vec<NodeId> {
    let session = sim.app().client(cli).session.map(|(_, s)| s);
    let s = session.and_then(|s| sim.app().server(srv).sessions.get(&s));
    s.into_iter()
        .flat_map(|s| s.streams.values())
        .filter(|tx| !tx.done && !tx.stopped && tx.plan.kind.is_continuous())
        .filter_map(|tx| tx.remote.as_ref().map(|r| r.replica))
        .collect()
}

/// The objects of `cli`'s session's live continuous streams that have no
/// replica up.
fn stranded(sim: &Sim<ServiceMsg, ServiceWorld>, srv: NodeId, cli: NodeId) -> Vec<String> {
    let server = sim.app().server(srv);
    let tier = server.media.as_ref().expect("media tier");
    let session = sim.app().client(cli).session.map(|(_, s)| s);
    let s = session.and_then(|s| server.sessions.get(&s));
    let live = s.into_iter().flat_map(|s| s.streams.values());
    let live = live.filter(|tx| !tx.done && !tx.stopped && tx.plan.kind.is_continuous());
    live.filter_map(|tx| tx.remote.as_ref())
        .filter(|r| {
            tier.placement
                .replicas(&r.object)
                .iter()
                .all(|&n| !sim.node_is_up(n))
        })
        .map(|r| r.object.to_string())
        .collect()
}

/// What the group-lifecycle world is pinned by: the full `SharingStats` in
/// declaration order; the tier cache's hits, misses and evictions; the
/// frames each client had received when it left (or at the end); and an FNV
/// digest over the run's `share_*` / `group_epoch` / `session_*` events
/// (name, node, time, labels, value) followed by the engine's `SimStats`.
type Pin = ([u64; 6], [u64; 3], [u64; 7], u64);

// First printed at e3cbd65 — the commit before the group life-cycle moved
// out of `server_actor.rs` into `hermes_server::sharing::SharedGroups` — by
// this test's own `assert_eq!` failure message. It must never move unasked.
//
// Re-pinned when a stream's fetch window became 2 s of media: group A's
// leader had fetched the whole clip before the 12 s crash, and now holds
// only 2 s. Its narration has no replica up after the crash (`stranded`),
// so its audio parks 200 frames early: A's leader and its two patched
// members receive 1,008 frames (400 video + 608 audio), not 1,200, and
// A multicasts 192 frames fewer (1,620 → 1,428). The parked stream polls
// the cache every 10 ms for the rest of the run (misses 175 → 3,318).
// Hits (20 → 16) and evictions (0 → 5) move with the fetch timing: the
// leaders now fetch in step with their pacers, not all at once.
//
// Re-pinned when cache pins became a count (ROADMAP item 6 (j)): group B
// opens for the same document while A still streams, and A's end no longer
// unpins the object B streams, so B's pinned segments are not evicted
// (evictions 5 → 0). Every other count, frame and the digest stay.
//
// Re-pinned when a dry stream stopped polling: group A's parked audio
// halts once it has sent what its window held and waits for a replica to
// restart, which none does, so it no longer pumps the cache every 10 ms
// (misses 3,318 → 236: what is left is the run's real misses). Every
// stream row, frame count and group count stays; the digest moves with the
// engine's event counts.
const LIFECYCLE: Pin = (
    [2, 2, 3, 6, 1_428, 2],
    [16, 236, 0],
    [1_008, 674, 1_008, 1_008, 420, 420, 420],
    14_758_589_210_386_636_700,
);

/// Every group transition in one `BatchingPatching` world, nothing hot (each
/// group waits out its window). One of the three media nodes is down from
/// the start, so both groups' leaders pull from the two that are up. Clients
/// arrive 1.6 s apart on the clip lesson: 0 opens group A (it streams from
/// ~2 s), 1 joins it pending, 2 and 3 patch; 4 is past `max_patch` and opens
/// group B while A still streams, 5 joins B pending and 6 patches. Then
/// member 1 disconnects (A keeps streaming), a node feeding both leaders
/// crashes (each group's epoch bumps once) and B's leader disconnects, which
/// dissolves B: its members keep what they buffered and receive no more.
#[test]
fn group_lifecycle_golden() {
    let mut cold = policy(SharingMode::BatchingPatching);
    cold.hot_rank = 0;
    let (mut sim, srv, clients) = sharing_world(53, cold, 7);
    let down = sim.app().media_nodes.keys().copied().max().expect("media");
    sim.inject_fault(MediaTime::ZERO, FaultKind::NodeCrash { node: down });
    staggered_connects(
        &mut sim,
        srv,
        &clients,
        CLIP_DOC,
        MediaDuration::from_millis(1_600),
    );
    let mut frames = [0u64; 7];
    let mut leave = |sim: &mut Sim<ServiceMsg, ServiceWorld>, i: usize| {
        frames[i] = frames_now(sim, clients[i]);
        sim.with_api(|w, api| w.client_mut(clients[i]).disconnect(api));
    };
    sim.run_until(MediaTime::from_secs(11));
    leave(&mut sim, 1);
    sim.run_until(MediaTime::from_secs(12));
    let b = feeding_nodes(&sim, srv, clients[4]);
    let victim = feeding_nodes(&sim, srv, clients[0])
        .into_iter()
        .find(|n| b.contains(n))
        .expect("no media node feeds both leaders at 12 s");
    sim.inject_fault(
        MediaTime::from_secs(12),
        FaultKind::NodeCrash { node: victim },
    );
    sim.run_until(MediaTime::from_secs(14));
    // One node was down from the start and the victim held the other
    // replica of the narration: group A's audio is parked from here on,
    // with what its 2 s fetch window held at the crash. A's members get
    // no more audio; video goes on from the third node.
    assert_eq!(
        stranded(&sim, srv, clients[0]),
        ["audio/narration-patching-1.pcm"]
    );
    leave(&mut sim, 4);
    sim.run_until(MediaTime::from_secs(45));
    for (i, &cli) in clients.iter().enumerate() {
        if i != 1 && i != 4 {
            frames[i] = frames_now(&sim, cli);
        }
    }

    let server = sim.app().server(srv);
    let st = server.sharing_stats;
    let cache = server.media.as_ref().expect("media tier").cache.stats;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let pinned =
        |n: &str| n.starts_with("share_") || n == "group_epoch" || n.starts_with("session_");
    for e in sim.obs().events().iter().filter(|e| pinned(e.name)) {
        let (at, labels) = (e.at.as_micros(), e.labels());
        let line = format!("{} {} {at} {labels:?} {}\n", e.name, e.node(), e.value);
        fnv1a(&mut h, &line);
    }
    fnv1a(&mut h, &format!("{:?}\n", sim.stats()));
    let got: Pin = (
        [
            st.groups_opened,
            st.joins_pending,
            st.joins_patched,
            st.patch_streams,
            st.mcast_frames,
            st.epoch_bumps,
        ],
        [cache.hits, cache.misses, cache.evicted],
        frames,
        h,
    );
    assert_eq!(got, LIFECYCLE);
}

/// A shared-group joiner's admission is recorded like the leader's: one
/// place, the admission prelude both share, emits the `admit` event, ends
/// the `admission` span and records the `slo.join` sample. Three sessions
/// batch onto one group here, so three sessions were admitted.
#[test]
fn a_joiners_admission_is_recorded() {
    let (mut sim, srv, clients) = sharing_world(31, policy(SharingMode::Batching), 3);
    staggered_connects(
        &mut sim,
        srv,
        &clients,
        DOC,
        MediaDuration::from_millis(300),
    );
    sim.run_until(MediaTime::from_secs(10));
    assert_eq!(sim.app().server(srv).sharing_stats.joins_pending, 2);
    let admits = sim.obs().events().iter().filter(|e| e.name == "admit");
    assert_eq!(admits.count(), 3, "one `admit` per admitted session");
    for s in sim.app().server(srv).sessions.values() {
        assert!(s.obs_admission.is_none(), "an admission span is still open");
    }
}
