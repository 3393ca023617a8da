#![allow(clippy::field_reassign_with_default)]
//! Controller high-availability integration tests: the fleet controller's
//! host is crashed mid-flash-crowd (a successor must take over within the
//! lease bound), a quorum-isolated leader must self-demote, and commands
//! stamped with a superseded fencing epoch must be dropped everywhere.

use hermes_control::{ControllerConfig, LEASE_BEAT, LEASE_TIMEOUT};
use hermes_core::{MediaDuration, MediaTime, NodeId, ServerId, SessionId};
use hermes_service::{
    install_course, ClientConfig, LessonShape, MediaNodeConfig, MediaTierConfig, ServerConfig,
    ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::obs::invariants::check_controller_legality;
use hermes_simnet::obs::Event;
use hermes_simnet::{App, FaultPlan, LinkSpec, Sim, SimRng};

/// The world under test plus its (servers, media, clients, courses) handles.
type HaWorld = (
    Sim<ServiceMsg, ServiceWorld>,
    Vec<NodeId>,
    Vec<NodeId>,
    Vec<NodeId>,
    Vec<Vec<hermes_core::DocumentId>>,
);

/// Three servers (controller on the first, lessons on the other two), three
/// media nodes (one standby), and a small client pool.
fn ha_world(seed: u64) -> HaWorld {
    let mut b = WorldBuilder::new(seed);
    let servers: Vec<NodeId> = (0..3)
        .map(|i| {
            b.add_server(
                ServerId::new(i),
                LinkSpec::lan(1_000_000_000),
                ServerConfig::default(),
            )
        })
        .collect();
    let clients: Vec<NodeId> = (0..8)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let media: Vec<NodeId> = (0..3)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    b.media_config(MediaTierConfig {
        replication: 2,
        cache_bytes: 0,
        ladder: false,
        ..Default::default()
    });
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    sim.app_mut().standby_media.insert(media[2]);
    for &m in &media {
        sim.app_mut().media_mut(m).configure(MediaNodeConfig {
            queue_capacity: 24,
            fixed_service: MediaDuration::from_millis(1),
            per_mbyte: MediaDuration::from_millis(100),
        });
    }
    let mut rng = SimRng::seed_from_u64(seed ^ 0x4A);
    let mut docs = Vec::new();
    for (i, &srv) in servers[1..].iter().enumerate() {
        docs.push(install_course(
            sim.app_mut().server_mut(srv),
            ["Crowd A", "Crowd B"][i],
            &["ha"],
            1 + 100 * i as u64,
            2,
            LessonShape {
                images: 0,
                image_secs: 0,
                narrated_clip_secs: Some(5),
                closing_audio_secs: None,
            },
            &mut rng,
        ));
    }
    sim.app_mut().distribute_media();
    let host = servers[0];
    sim.with_api(|w, api| w.enable_control(api, host, ControllerConfig::default()));
    (sim, servers, media, clients, docs)
}

/// What an HA run is pinned by: per server, in id order, its `CtrlHaStats`
/// fields in declaration order followed by its fence record, and an FNV
/// digest over the run's `ctrl_*` events (name, node, time, value).
type Pin = ([[u64; 6]; 3], u64);

fn ha_pin(world: &ServiceWorld, servers: &[NodeId], events: &[Event]) -> Pin {
    let mut rows = [[0; 6]; 3];
    for (row, &n) in rows.iter_mut().zip(servers) {
        let s = world.server(n);
        let c = s.ctrl_stats;
        *row = [
            c.fence_drops,
            c.stale_drops,
            c.elections,
            c.demotions,
            c.lease_beats,
            s.election.fence(),
        ];
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in events.iter().filter(|e| e.name.starts_with("ctrl_")) {
        let line = format!("{} {} {} {}\n", e.name, e.node(), e.at.as_micros(), e.value);
        for b in line.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (rows, h)
}

// Printed at 74b5a57 — the commit before the election moved out of
// `server_actor.rs` into `hermes_control::ha::Election` — by this file's own
// `assert_eq!` failure messages; they must never move. One did, asked: PR 24
// re-pinned `CRASH`'s digest, every counter standing — with a credit window
// in place of the shed storm the controller sees 3 pressured ticks of 117
// where it saw 6 and actuates 3 times for 5, so the `ctrl_overload` /
// `ctrl_pressure_src` / `ctrl_actuate` events differ; one `ctrl_elect`, 8
// degrades and 4 upgrades either way. Again, asked, when a stream's fetch
// window became 2 s of media: every counter stands; with no whole-clip
// fetch bursts the controller names a pressure source once, not three
// times, and actuates twice, not three times — 4 degrades, not 8, and 4
// upgrades; one `ctrl_elect` and 117 `ctrl_overload` either way.
// Columns: fence_drops, stale_drops, elections, demotions, lease_beats,
// fence record.
const CRASH: Pin = (
    [[0, 0, 0, 0, 9, 2], [0, 0, 1, 0, 70, 2], [0, 0, 0, 0, 0, 2]],
    13_611_371_308_813_734_470,
);
const ISOLATED: Pin = (
    [[0, 0, 0, 1, 13, 2], [2, 0, 1, 0, 26, 2], [0, 0, 0, 0, 0, 2]],
    4_596_231_637_193_962_331,
);

/// Milliseconds within which a successor must be elected: the lease must
/// expire and the next watch tick must notice.
fn lease_bound() -> MediaDuration {
    LEASE_TIMEOUT + LEASE_BEAT + LEASE_BEAT
}

/// The controller host crashes in the middle of a flash crowd. The lowest
/// surviving server id elects itself within the lease bound, the fleet
/// converges on the bumped epoch, sessions complete, and the restarted
/// ex-leader rejoins as a follower — never as a second controller.
#[test]
fn controller_crash_mid_crowd_elects_successor_within_lease_bound() {
    let (mut sim, servers, _media, clients, docs) = ha_world(41);
    let host = servers[0];
    let crash_at = MediaTime::from_secs(3);
    sim.install_faults(&FaultPlan::new().crash_for(host, crash_at, MediaDuration::from_secs(3)));

    // The crowd: every client connects just before the crash.
    sim.run_until(MediaTime::from_millis(2_500));
    for (i, &c) in clients.iter().enumerate() {
        let (srv, course) = if i % 2 == 0 {
            (servers[1], &docs[0])
        } else {
            (servers[2], &docs[1])
        };
        let doc = course[i / 2 % course.len()];
        sim.with_api(|w, api| w.client_mut(c).connect(api, srv, Some(doc)));
    }
    sim.run_until(MediaTime::from_secs(25));

    // Exactly one election, won by the lowest surviving server id.
    let s1 = sim.app().server(servers[1]);
    assert_eq!(s1.ctrl_stats.elections, 1, "successor must elect once");
    let elected_at = s1.election.last_elected_at.expect("election timestamp");
    assert!(
        elected_at > crash_at && elected_at - crash_at <= lease_bound(),
        "elected {:?} after the crash (bound {:?})",
        elected_at - crash_at,
        lease_bound(),
    );
    let c = s1.controller.as_ref().expect("successor still leads");
    assert_eq!(c.epoch(), 2, "the successor's epoch fences the old leader");
    assert_eq!(sim.app().server(servers[2]).ctrl_stats.elections, 0);

    // The whole fleet — including the restarted ex-leader — converged on
    // the new epoch, and the ex-leader came back as a follower.
    for &s in &servers {
        assert_eq!(sim.app().server(s).election.fence(), 2, "epoch on {s:?}");
    }
    assert!(
        sim.app().server(host).controller.is_none(),
        "the restarted ex-leader must not lead again without an election"
    );

    // The crowd was served through the failover.
    let completed: usize = clients
        .iter()
        .map(|&c| sim.app().client(c).completed.len())
        .sum();
    assert_eq!(completed, clients.len(), "every session must complete");

    // Trace-level proof: no stale-epoch actuation, no split-brain.
    sim.publish_metrics();
    let obs = sim.take_obs();
    let violations = check_controller_legality(obs.events());
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert_eq!(ha_pin(sim.app(), &servers, obs.events()), CRASH);
}

/// A leader cut off from the rest of the fleet (access link down) must
/// self-demote when its report quorum goes stale — and once the majority
/// side elects a successor, any command still stamped with the old epoch is
/// fenced at every receiver: servers and the media-scale path both count
/// and drop it.
#[test]
fn quorum_isolated_leader_demotes_and_zombie_commands_are_fenced() {
    let (mut sim, servers, media, clients, docs) = ha_world(43);
    let host = servers[0];
    let backbone = NodeId::new(0); // WorldBuilder's hub
    sim.install_faults(&FaultPlan::new().partition(
        host,
        backbone,
        MediaTime::from_secs(3),
        MediaTime::from_secs(8),
    ));

    // Light load so both sides have sessions to account for.
    sim.run_until(MediaTime::from_secs(1));
    for &c in &clients[..2] {
        sim.with_api(|w, api| w.client_mut(c).connect(api, servers[1], Some(docs[0][0])));
    }
    sim.run_until(MediaTime::from_secs(12));

    // The isolated leader demoted itself; the majority side elected.
    let old = sim.app().server(host);
    assert!(
        old.ctrl_stats.demotions >= 1,
        "the isolated leader never demoted itself"
    );
    assert!(old.controller.is_none(), "ex-leader still leading");
    let s1 = sim.app().server(servers[1]);
    assert_eq!(s1.ctrl_stats.elections, 1, "majority side must elect once");
    assert_eq!(s1.controller.as_ref().map(|c| c.epoch()), Some(2));
    // After the partition heals, the ex-leader follows the new epoch.
    assert_eq!(old.election.fence(), 2, "healed ex-leader missed the epoch");

    // A zombie's surviving commands are fenced everywhere. Deliver forged
    // epoch-1 commands as if retransmissions from the old leader had been
    // stuck in flight across the partition.
    let fenced_before = sim.app().server(servers[1]).ctrl_stats.fence_drops;
    let world_fenced_before = sim.app().control_fence_drops;
    sim.with_api(|w, api| {
        App::on_message(
            w,
            api,
            servers[1],
            host,
            ServiceMsg::ControlRegrade {
                session: SessionId::new(1),
                upgrade: false,
                epoch: 1,
            },
        );
        App::on_message(
            w,
            api,
            servers[1],
            host,
            ServiceMsg::ControlDirective { shed: 1, epoch: 1 },
        );
        App::on_message(
            w,
            api,
            media[2],
            host,
            ServiceMsg::ControlScale {
                active: true,
                epoch: 1,
            },
        );
    });
    assert_eq!(
        sim.app().server(servers[1]).ctrl_stats.fence_drops,
        fenced_before + 2,
        "stale regrade + directive must both be fenced"
    );
    assert_eq!(
        sim.app().control_fence_drops,
        world_fenced_before + 1,
        "stale scale command must be fenced by the media-scale path"
    );
    assert!(
        !sim.app().standby_media.is_empty(),
        "the fenced scale-out must not have activated the standby node"
    );

    sim.publish_metrics();
    let obs = sim.take_obs();
    let violations = check_controller_legality(obs.events());
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert_eq!(ha_pin(sim.app(), &servers, obs.events()), ISOLATED);
}

/// A stream both of whose replicas are down is parked: once it has sent
/// what it had, its chain halts and no stream timer fires for it until a
/// gate opens — and the restart of either replica opens one, not only the
/// restart of the replica it last pointed at.
#[test]
fn a_parked_stream_costs_nothing_and_either_restart_resumes_it() {
    let mut b = WorldBuilder::new(5);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(1_000_000_000),
        ServerConfig::default(),
    );
    let client = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let media: Vec<NodeId> = (0..2)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    // No cache: a parked stream has nowhere to read from.
    b.media_config(MediaTierConfig {
        cache_bytes: 0,
        ..Default::default()
    });
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(5);
    let mut rng = SimRng::seed_from_u64(5);
    let shape = LessonShape {
        images: 0,
        image_secs: 0,
        narrated_clip_secs: Some(20),
        closing_audio_secs: None,
    };
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Park",
        &["park"],
        1,
        1,
        shape,
        &mut rng,
    );
    sim.app_mut().distribute_media();
    sim.with_api(|w, api| w.client_mut(client).connect(api, srv, Some(lessons[0])));
    // Each stream's (replica, frames sent), and the server's dry halts.
    let look = |sim: &Sim<ServiceMsg, ServiceWorld>| {
        let server = sim.app().server(srv);
        let streams = server.sessions.values().flat_map(|s| s.streams.values());
        let live = streams.filter(|tx| tx.plan.kind.is_continuous() && !tx.done);
        let rows: Vec<(NodeId, u64)> = live
            .map(|tx| (tx.remote.as_ref().unwrap().replica, tx.frames_sent))
            .collect();
        (rows, server.media.as_ref().unwrap().stats.stalls)
    };
    sim.run_until(MediaTime::from_secs(3));
    let (rows, _) = look(&sim);
    assert_eq!(rows.len(), 2, "audio and video stream");
    // Crash the replica the streams pull from, then, once they have moved
    // to the other one, that one too: they are parked pointing at it.
    let first = rows[0].0;
    let last = media.iter().copied().find(|&m| m != first).unwrap();
    let plan = FaultPlan::new()
        .crash(first, MediaTime::from_millis(3_000))
        .crash(last, MediaTime::from_millis(3_200))
        .restart(first, MediaTime::from_secs(9))
        .restart(last, MediaTime::from_secs(12));
    sim.install_faults(&plan);
    sim.run_until(MediaTime::from_millis(3_300));
    assert!(look(&sim).0.iter().all(|&(replica, _)| replica == last));
    // Both run dry within their window (2 s and a segment) and halt: for
    // the 2 s from then on to 9 s no stream timer finds them dry again,
    // and nothing is sent.
    sim.run_until(MediaTime::from_millis(6_900));
    let parked = look(&sim);
    sim.run_until(MediaTime::from_millis(8_990));
    assert_eq!(look(&sim), parked, "a parked stream's timer fired");
    // The replica they did not point at restarts: both resume.
    sim.run_until(MediaTime::from_millis(11_900));
    let (rows, _) = look(&sim);
    for (now, then) in rows.iter().zip(&parked.0) {
        assert!(
            now.1 > then.1 + 50,
            "not resumed by the other restart: {rows:?}"
        );
        assert_eq!(now.0, first);
    }
}
