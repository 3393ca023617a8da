//! Provenance reaches the end of a run: a fault injected in the last
//! quarter of a fleet world must still get a critical path — the delivery
//! log keeps what attribution reads of the whole run, not its opening
//! seconds. Every critical path of the run is pinned by digest.

use hermes_core::{MediaDuration, MediaTime, NodeId, ServerId};
use hermes_service::{
    install_course, ClientConfig, LessonShape, ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::obs::{AttributionConfig, CauseClass, GapAttribution, Labels};
use hermes_simnet::{FaultPlan, LinkSpec, Sim, SimRng};

/// Every label `ServiceMsg::provenance_kind` can return.
const PROVENANCE_KINDS: [&str; 23] = [
    "ack",
    "heartbeat",
    "reconnect",
    "connect",
    "subscribe",
    "request",
    "session_ctl",
    "regrade",
    "share_join",
    "group_epoch",
    "rtp",
    "discrete",
    "feedback",
    "fetch_req",
    "fetch_chunk",
    "fetch_fail",
    "fetch_cancel",
    "ctrl_report",
    "ctrl_cmd",
    "ctrl_ha",
    "search",
    "annotation",
    "mail",
];

/// FNV-1a digests of every attribution's rendering, critical path
/// included, at the 2 s default window and at 6 s. Printed at 7bebd54,
/// while the log still kept every delivery.
const PATHS: (u64, u64) = (5140248512243482326, 8819337389873313589);

fn digest(attrs: &[GapAttribution]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in attrs {
        for b in a.render().bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One server, eight staggered clients on a long narrated clip. The
/// server's backbone link dies at 19 s of a 25 s run: every client's
/// stream goes silent, and each of those disruptions must be explained
/// with the deliveries that preceded it.
#[test]
fn late_partition_gets_a_critical_path() {
    let seed = 3;
    let mut b = WorldBuilder::new(seed);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(2_000_000_000),
        ServerConfig::default(),
    );
    let clients: Vec<NodeId> = (0..8)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    b.add_media_node(LinkSpec::san(1_000_000_000));
    let backbone = b.backbone();
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    sim.obs_mut()
        .widen_attribution_window(MediaDuration::from_secs(6));
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1A5);
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Late",
        &["prov"],
        1,
        1,
        LessonShape {
            images: 0,
            image_secs: 0,
            narrated_clip_secs: Some(40),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    sim.app_mut().distribute_media();
    // The last quarter of a 25 s run.
    let from = MediaTime::from_secs(19);
    sim.install_faults(&FaultPlan::new().partition(backbone, srv, from, MediaTime::from_secs(24)));
    for (i, &c) in clients.iter().enumerate() {
        sim.run_until(MediaTime::from_millis(500 + 250 * i as i64));
        sim.with_api(|w, api| w.client_mut(c).connect(api, srv, Some(lessons[0])));
    }
    sim.run_until(MediaTime::from_secs(25));

    let delivered = sim.stats().delivered;
    sim.publish_metrics();
    let obs = sim.obs_mut();
    let counter = |name| obs.registry.counter(name, Labels::NONE);
    assert_eq!(counter("sim.prov_dropped"), 0, "a small world fits the log");
    assert_eq!(
        counter("sim.prov_records"),
        delivered,
        "one record a delivery"
    );
    // The capture's own meters ride along: 64-event rings roll over in
    // any run this long.
    assert!(counter("obs.flight_overwritten_debug") > 0);
    assert_eq!(counter("obs.flight_suppressed"), obs.flight.suppressed);
    let attrs = obs.attribute(&AttributionConfig {
        window: MediaDuration::from_secs(6),
    });
    let short = obs.attribute(&AttributionConfig::default());
    assert_eq!((digest(&short), digest(&attrs)), PATHS);
    let late: Vec<_> = attrs
        .iter()
        .filter(|a| a.at > from && a.class == CauseClass::LinkLoss)
        .collect();
    assert_eq!(
        late.len(),
        clients.len(),
        "every client's outage is a link_loss after {from}: {attrs:?}"
    );
    for a in late {
        assert!(!a.path.is_empty(), "late gap has no critical path: {a:?}");
        for (kind, wait_us) in &a.path {
            assert!(PROVENANCE_KINDS.contains(kind), "unknown kind {kind:?}");
            assert!(*wait_us >= 0);
        }
    }
}
