#![allow(clippy::field_reassign_with_default)]
//! Session-lifecycle tests: one golden world that walks every server-side
//! lifecycle transition, and the two findings of ROADMAP item 6 that one
//! timer chain per stream closed.
//!
//! `lifecycle_golden` is pinned by the count of each lifecycle trace name,
//! the `Heartbeat` and `SuspendExpired` messages the clients received, the
//! sessions each server rebuilt, an FNV digest of all of those, and the
//! servers' utility ledgers to the bit. The literals were printed at
//! 3138be0, while the session phase was two booleans in `server_actor.rs`;
//! none may move unasked: a teardown, heartbeat, timer or emit that changes
//! order or count moves them.
//!
//! They were printed again when leaving `Suspended` began to re-arm the
//! frame chains the suspension halted (finding (o)). C's revisited S1
//! session streams again, so S1 sends it no heartbeat; before, its first
//! beat at 3.8 s reached C, which now belongs to S2 and answered with a
//! `Disconnect`. C acks nothing for that session, so S1 reaps it by the
//! client timeout at 4.2 s instead: `client_expired` 1 → 2 and heartbeats
//! 119 → 118. A's resume at 5 s now re-arms the one chain per stream its
//! pause halted (finding (q)), not a second chain over a 100 ms poll, so
//! A's streams run at their own rate, not twice it, until its disconnect at
//! 9 s. Utility is charged per delivered media second, so S1's closed
//! ledger falls 191.44 → 165.20 net of the 0.4 s C's session streamed. The
//! teardown count and every rebuilt pair stay.
//!
//! The world: two servers (S1 with a 3 s suspend grace and a 4 s client
//! timeout, S2 with the defaults), each with lessons of one image and a
//! 12 s narrated clip, and seven clients on S1.
//! - A subscribes, pauses at 3 s, resumes at 5 s and disconnects at 9 s.
//! - B follows a link to S2 at 2 s; its suspended S1 session expires by
//!   the grace timer at ~5 s, and the client is told.
//! - C follows a link to S2 at 2 s and resumes its S1 session by hand at
//!   3.5 s (as exp_migrate does).
//! - D's node crashes for good at 6 s; S1 reaps the session by the client
//!   timeout.
//! - E is partitioned from 7 s to 9.5 s: its detector trips, and the
//!   healed reconnect finds the session alive (in place).
//! - F's node sends one `Tracked` connect twice by hand: one session.
//! - G subscribes and streams undisturbed.
//! - S2 crashes at 11 s for 900 ms: B and C (authorized connects there)
//!   reconnect and S2 rebuilds both sessions.

use hermes_core::{DocumentId, LinkTarget, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_service::{
    install_course, ClientConfig, LessonShape, ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::{FaultPlan, LinkSpec, Sim, SimRng};

fn ms(t: i64) -> MediaTime {
    MediaTime::from_millis(t)
}

/// One image, then a narrated clip of `clip_secs`.
fn lesson(clip_secs: i64) -> LessonShape {
    LessonShape {
        images: 1,
        image_secs: 1,
        narrated_clip_secs: Some(clip_secs),
        closing_audio_secs: None,
    }
}

/// The lifecycle trace names, counted in this order.
const NAMES: [&str; 5] = [
    "session_connect",
    "session_rebuilt",
    "client_expired",
    "session_teardown",
    "session_crash_lost",
];

/// Provenance kinds that single out the two server-to-client lifecycle
/// notices (every other message keeps its usual kind).
fn kind(m: &ServiceMsg) -> &'static str {
    match m {
        ServiceMsg::Heartbeat { .. } => "heartbeat_to_client",
        ServiceMsg::SuspendExpired { .. } => "suspend_expired",
        _ => m.provenance_kind(),
    }
}

/// The `Heartbeat` and `SuspendExpired` deliveries read out of the
/// provenance log so far, as `(kind, at µs, root)`, and how many
/// deliveries the log had been offered at the last read.
#[derive(Default)]
struct Notices {
    seen: Vec<(&'static str, i64, u32)>,
    offered: u64,
}

/// `sim.run_until(until)`, reading the notices out of the provenance log
/// on the way. The log keeps every delivery only for its horizon, so
/// the run goes in steps no longer than that; the deliveries of a step are
/// the newest of the log, all still inside the horizon.
fn run_until(sim: &mut Sim<ServiceMsg, ServiceWorld>, notices: &mut Notices, until: MediaTime) {
    loop {
        let to = until.min(sim.now() + sim.obs().prov.horizon());
        sim.run_until(to);
        let prov = &sim.obs().prov;
        let fresh = (prov.offered() - notices.offered) as usize;
        for r in prov.records().skip(prov.len() - fresh) {
            let k = prov.kind(r);
            if k == "heartbeat_to_client" || k == "suspend_expired" {
                notices.seen.push((k, r.at().as_micros(), r.root));
            }
        }
        notices.offered = prov.offered();
        if to == until {
            return;
        }
    }
}

fn fnv1a(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per name in [`NAMES`] its event count; heartbeats and suspend-expired
/// notices the clients received; each server's rebuilt (old, new) session
/// pairs (from its `session_rebuilt` events); the digest of all of those; each server's closed-session ledger
/// bits and its live sessions' `util_acc` bits.
type Pin<'a> = (
    [usize; 5],
    usize,
    usize,
    &'a [&'a [(u64, u64)]],
    u64,
    &'a [(u64, &'a [(u64, u64)])],
);

#[test]
fn lifecycle_golden() {
    let seed = 5;
    let mut b = WorldBuilder::new(seed);
    let mut cfg1 = ServerConfig::default();
    cfg1.suspend_grace = MediaDuration::from_secs(3);
    cfg1.client_timeout = MediaDuration::from_secs(4);
    let s1 = b.add_server(ServerId::new(0), LinkSpec::lan(100_000_000), cfg1);
    let s2 = b.add_server(
        ServerId::new(1),
        LinkSpec::lan(100_000_000),
        ServerConfig::default(),
    );
    let c: Vec<NodeId> = (0..7)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let backbone = b.backbone();
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    sim.set_msg_kind(kind);
    let mut notices = Notices::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let home = install_course(
        sim.app_mut().server_mut(s1),
        "Home",
        &["life"],
        1,
        2,
        lesson(12),
        &mut rng,
    );
    let away = install_course(
        sim.app_mut().server_mut(s2),
        "Away",
        &["away"],
        50,
        1,
        lesson(12),
        &mut rng,
    );
    let (a, bb, cc, d, e, f, g) = (c[0], c[1], c[2], c[3], c[4], c[5], c[6]);
    let plan = FaultPlan::new()
        .crash(d, ms(6_000))
        .partition(e, backbone, ms(7_000), ms(9_500))
        .crash_for(s2, ms(11_000), MediaDuration::from_millis(900));
    sim.install_faults(&plan);
    for (i, &cli) in [a, bb, cc, d, e, g].iter().enumerate() {
        let doc = home[i % 2];
        run_until(&mut sim, &mut notices, ms(100 * i as i64));
        sim.with_api(|w, api| w.client_mut(cli).connect(api, s1, Some(doc)));
    }
    // F's node repeats one tracked connect: the second copy is a duplicate.
    run_until(&mut sim, &mut notices, ms(1_000));
    for _ in 0..2 {
        let inner = Box::new(ServiceMsg::Connect {
            user: None,
            class: hermes_core::PricingClass::Standard,
        });
        let msg = ServiceMsg::Tracked {
            req: 1 << 40,
            inner,
        };
        sim.with_api(|_, api| api.send_reliable(f, s1, msg));
    }
    run_until(&mut sim, &mut notices, ms(2_000));
    let remote = LinkTarget::Remote(ServerId::new(1), away[0]);
    for cli in [bb, cc] {
        sim.with_api(|w, api| w.client_mut(cli).follow_link(api, remote.clone()));
    }
    run_until(&mut sim, &mut notices, ms(3_000));
    sim.with_api(|w, api| w.client_mut(a).pause(api));
    run_until(&mut sim, &mut notices, ms(3_500));
    sim.with_api(|w, api| {
        if let Some((old_server, session)) = w.client_mut(cc).suspended.take() {
            api.send_reliable(cc, old_server, ServiceMsg::ResumeSuspended { session });
        }
    });
    run_until(&mut sim, &mut notices, ms(5_000));
    sim.with_api(|w, api| w.client_mut(a).resume(api));
    run_until(&mut sim, &mut notices, ms(9_000));
    sim.with_api(|w, api| w.client_mut(a).disconnect(api));
    run_until(&mut sim, &mut notices, ms(25_000));

    // The world must really reach every path, or the literals pin nothing.
    let app = sim.app();
    let recovered = &app.client(e).recoveries;
    assert_eq!(recovered.len(), 1, "E's detector trips once");
    assert_eq!(
        app.client(cc).recoveries.len(),
        1,
        "C's session recovers once"
    );
    assert_eq!(app.client(bb).suspended, None, "B was told of the expiry");

    let obs = sim.obs();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut counts = [0usize; 5];
    // Each server's rebuilt (old, new) pairs, as `session_rebuilt` records
    // them: the new session's label and the old one's id as the value.
    let mut rebuilt: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 2];
    for e in obs.events() {
        let Some(i) = NAMES.iter().position(|n| *n == e.name) else {
            continue;
        };
        counts[i] += 1;
        let (at, labels) = (e.at.as_micros(), e.labels());
        if e.name == "session_rebuilt" {
            let server = (e.node() == s2.raw()) as usize;
            rebuilt[server].push((e.value as u64, labels.session.unwrap_or(0)));
        }
        fnv1a(
            &mut h,
            &format!("{} {} {at} {labels:?} {}\n", e.name, e.node(), e.value),
        );
    }
    let (mut beats, mut expired) = (0, 0);
    for &(k, at, root) in &notices.seen {
        match k {
            "heartbeat_to_client" => beats += 1,
            "suspend_expired" => expired += 1,
            _ => continue,
        }
        fnv1a(&mut h, &format!("{k} {at} {root}\n"));
    }
    let rebuilt: Vec<&[(u64, u64)]> = rebuilt.iter().map(|v| v.as_slice()).collect();
    let utils: Vec<(u64, Vec<(u64, u64)>)> = [s1, s2]
        .iter()
        .map(|&s| {
            let server = app.server(s);
            let live = server.sessions.iter();
            let live = live.map(|(sid, s)| (sid.raw(), s.util_acc.to_bits()));
            (server.util_closed.to_bits(), live.collect())
        })
        .collect();
    let utils: Vec<(u64, &[(u64, u64)])> = utils.iter().map(|(c, l)| (*c, l.as_slice())).collect();
    let got: Pin = (counts, beats, expired, &rebuilt, h, &utils);
    assert_eq!(got, GOLDEN);
}

const GOLDEN: Pin = (
    [9, 2, 2, 5, 2],
    118,
    1,
    &[&[], &[(2, 3), (1, 4)]],
    8820025582566444992,
    &[
        (
            4640016474833315430,
            &[(5, 4636400647282490343), (6, 4636455816377925632)],
        ),
        (
            4639270566145032192,
            &[(3, 4636455816377925632), (4, 4636455816377925632)],
        ),
    ],
);

/// One server (suspend grace `grace_s`) and one client streaming a 12 s
/// clip lesson from 0 s; returns the world, the server and the session.
fn one_session(grace_s: i64) -> (Sim<ServiceMsg, ServiceWorld>, NodeId, NodeId) {
    let seed = 3;
    let mut b = WorldBuilder::new(seed);
    let mut cfg = ServerConfig::default();
    cfg.suspend_grace = MediaDuration::from_secs(grace_s);
    let srv = b.add_server(ServerId::new(0), LinkSpec::lan(100_000_000), cfg);
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let shape = LessonShape {
        images: 0,
        image_secs: 0,
        narrated_clip_secs: Some(12),
        closing_audio_secs: None,
    };
    let docs = install_course(
        sim.app_mut().server_mut(srv),
        "One",
        &["one"],
        1,
        1,
        shape,
        &mut rng,
    );
    let doc: DocumentId = docs[0];
    sim.with_api(|w, api| w.client_mut(cli).connect(api, srv, Some(doc)));
    (sim, srv, cli)
}

/// Send `msg(session)` from the client to the server at `at`, the way a
/// migrating client would.
fn at_send(
    sim: &mut Sim<ServiceMsg, ServiceWorld>,
    at: MediaTime,
    (srv, cli): (NodeId, NodeId),
    msg: fn(hermes_core::SessionId) -> ServiceMsg,
) {
    sim.run_until(at);
    sim.with_api(|w, api| {
        if let Some((_, session)) = w.client(cli).session {
            api.send_reliable(cli, srv, msg(session));
        }
    });
}

fn suspend(session: hermes_core::SessionId) -> ServiceMsg {
    ServiceMsg::SuspendConnection { session }
}

fn resume_suspended(session: hermes_core::SessionId) -> ServiceMsg {
    ServiceMsg::ResumeSuspended { session }
}

/// Finding (o): leaving `Suspended` must restart the frame chain that the
/// suspension halted. A 12 s clip suspended at 2 s and resumed at 4 s
/// should finish well inside 20 s; today it sits at 2 s of audio and video
/// — neither done nor stopped, still holding its admission reservation.
#[test]
fn leaving_suspended_restarts_the_frame_chain() {
    let (mut sim, srv, cli) = one_session(30);
    at_send(&mut sim, ms(2_000), (srv, cli), suspend);
    at_send(&mut sim, ms(4_000), (srv, cli), resume_suspended);
    sim.run_until(ms(20_000));
    let server = sim.app().server(srv);
    let (_, s) = server.sessions.iter().next().expect("the session is live");
    let continuous = s.streams.values().filter(|tx| tx.plan.kind.is_continuous());
    let stuck: Vec<(u64, u64)> = continuous
        .filter(|tx| !tx.done)
        .map(|tx| (tx.plan.component.raw(), tx.frames_sent))
        .collect();
    assert!(
        stuck.is_empty(),
        "streams stuck at (component, frames): {stuck:?}"
    );
}

/// Finding (p): a grace timer belongs to the suspension that armed it.
/// Suspended at 2 s (10 s grace), resumed at 4 s and suspended again at
/// 8 s, the session must live until its own deadline at 18 s; today the
/// first suspension's timer tears it down at 12 s.
#[test]
fn a_stale_grace_timer_does_not_expire_a_later_suspension() {
    let (mut sim, srv, cli) = one_session(10);
    at_send(&mut sim, ms(2_000), (srv, cli), suspend);
    at_send(&mut sim, ms(4_000), (srv, cli), resume_suspended);
    at_send(&mut sim, ms(8_000), (srv, cli), suspend);
    sim.run_until(ms(13_000));
    let live = sim.app().server(srv).sessions.len();
    assert_eq!(live, 1, "torn down by the first suspension's grace timer");
    sim.run_until(ms(19_000));
    let live = sim.app().server(srv).sessions.len();
    assert_eq!(live, 0, "its own grace expired at 18 s");
}
