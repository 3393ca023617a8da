//! The small overloaded world `fetch_golden.rs` pins and `overload.rs`
//! browns out: one server, two media nodes with short queues and slow disks
//! (replication 2, so every object lives on both), twelve clients arriving
//! 150 ms apart over three lessons of one image + a 10 s narrated clip.
#![allow(dead_code)] // each test crate uses its own part

use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_service::{
    install_course, ClientConfig, LessonShape, MediaNodeConfig, MediaTierConfig, ServerConfig,
    ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::{LinkSpec, Sim, SimRng};

const SEED: u64 = 22;
const CLIENTS: usize = 12;

pub fn ms(t: i64) -> MediaTime {
    MediaTime::from_millis(t)
}

pub struct World {
    pub sim: Sim<ServiceMsg, ServiceWorld>,
    pub srv: NodeId,
    pub clients: Vec<NodeId>,
    pub media: Vec<NodeId>,
    /// The three lessons the clients take in turn.
    pub lessons: Vec<DocumentId>,
    /// Engine events processed so far.
    pub events: u64,
}

/// Build the world and connect the twelve clients; returns at t = 2 s with
/// every session admitted and streaming.
pub fn world(tier: MediaTierConfig) -> World {
    let mut w = build(tier);
    connect(&mut w);
    w
}

/// The world at t = 0: content distributed, nobody connected yet.
pub fn build(tier: MediaTierConfig) -> World {
    build_with(tier, LinkSpec::lan(10_000_000))
}

/// [`build`] with every client behind `access` instead of a clean 10 Mbps
/// LAN link.
pub fn build_with(tier: MediaTierConfig, access: LinkSpec) -> World {
    let mut b = WorldBuilder::new(SEED);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(100_000_000),
        ServerConfig::default(),
    );
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|_| b.add_client(access.clone(), ClientConfig::default()))
        .collect();
    let media: Vec<NodeId> = (0..2)
        .map(|_| b.add_media_node(LinkSpec::san(100_000_000)))
        .collect();
    b.media_config(tier);
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(SEED);
    let mut rng = SimRng::seed_from_u64(SEED);
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Golden",
        &["fetch"],
        1,
        3,
        LessonShape {
            images: 1,
            image_secs: 2,
            narrated_clip_secs: Some(10),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    sim.app_mut().distribute_media();
    for &m in &media {
        sim.app_mut().media_mut(m).configure(MediaNodeConfig {
            queue_capacity: 4,
            fixed_service: MediaDuration::from_millis(1),
            per_mbyte: MediaDuration::from_millis(150),
        });
    }
    World {
        sim,
        srv,
        clients,
        media,
        lessons,
        events: 0,
    }
}

/// Connect the clients 150 ms apart from t = 100 ms, one lesson each in
/// turn, and run to t = 2 s.
pub fn connect(w: &mut World) {
    let srv = w.srv;
    for (i, &c) in w.clients.iter().enumerate() {
        w.events += w.sim.run_until(ms(100 + 150 * i as i64));
        let doc = w.lessons[i % w.lessons.len()];
        w.sim
            .with_api(|world, api| world.client_mut(c).connect(api, srv, Some(doc)));
    }
    w.events += w.sim.run_until(ms(2_000));
}
