//! The four workloads: their frozen sizes and how each world is set up.
//!
//! Everything here is a call into the program's public API; nothing in
//! `crates/` knows which workload it is running.

use crate::schedule::{ScheduleSpec, Spike};
use hermes_control::ControllerConfig;
use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, LessonShape, MediaNodeConfig, MediaTierConfig, ServerConfig,
    ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::{
    chaos, ChaosProfile, ChaosTargets, FaultKind, FaultPlan, JitterModel, LinkSpec, LossModel, Sim,
    SimRng,
};
use std::time::Instant;

/// Client nodes in every world. Arrival *i* uses client *i* and no client is
/// used twice: re-using one with `disconnect` + `connect` loses sessions as
/// soon as the access link has jitter (README, Findings).
pub const CLIENT_POOL: usize = 1000;

/// The fault plan of `fleet_faults` belongs to the workload like its
/// topology: `--seed` never moves it. Of plan seeds 1-40, eight tip the
/// world into an event storm that does not end and five lack an incident
/// kind; of the rest this one keeps the controller's pressure verdict and
/// the cost counts steadiest from seed to seed (README, Workloads).
const FAULT_PLAN_SEED: u64 = 15;
const FAULTS_START: MediaTime = MediaTime::from_secs(2);
const FAULTS_END: MediaTime = MediaTime::from_secs(20);
/// Access links the plan may partition or flap: those of the clients a
/// full-size run uses.
const FAULT_CLIENTS: usize = 360;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub servers: usize,
    pub media_nodes: usize,
    pub standby_media: usize,
    /// `None` keeps the media nodes' default queue and service times.
    pub node_cfg: Option<MediaNodeConfig>,
    pub tier: MediaTierConfig,
    pub sharing: SharingMode,
    pub schedule: ScheduleSpec,
    pub clip_secs: i64,
    pub client_timeout: MediaDuration,
    /// HA fleet controller plus the fixed fault plan.
    pub fleet: bool,
    /// Independent worlds a rep simulates one after the other, each with its
    /// own schedule and link noise; counts add up and start-up samples pool.
    pub worlds: u64,
}

pub fn all() -> Vec<Workload> {
    let default_timeout = ServerConfig::default().client_timeout;
    let vod = ScheduleSpec {
        rate: 12.0,
        horizon_s: 30.0,
        titles: 16,
        zipf_s: 1.2,
        spike: None,
    };
    vec![
        Workload {
            name: "vod_unicast",
            why: "healthy steady state: cost is simnet dispatch, server frame sending and client playout; the media tier never sheds, so a fetch-path change must not move it",
            servers: 1,
            media_nodes: 4,
            standby_media: 0,
            node_cfg: None,
            tier: MediaTierConfig::default(),
            sharing: SharingMode::Off,
            schedule: vod,
            clip_secs: 10,
            client_timeout: default_timeout,
            fleet: false,
            worlds: 1,
        },
        Workload {
            name: "vod_shared",
            why: "the same schedule and world with batching and patching: multicast trees, group life-cycle and patch streams use the same layers differently, so a unicast fast path that costs multicast shows",
            servers: 1,
            media_nodes: 4,
            standby_media: 0,
            node_cfg: None,
            tier: MediaTierConfig::default(),
            sharing: SharingMode::BatchingPatching,
            schedule: vod,
            clip_secs: 10,
            client_timeout: default_timeout,
            fleet: false,
            worlds: 1,
        },
        Workload {
            name: "flash_overload",
            why: "a 3.5x flash crowd overflows two small media-node queues: the shed-and-poll storm of on_media_busy loads the media actors, the server's fetch client and obs recording",
            servers: 1,
            media_nodes: 2,
            standby_media: 0,
            node_cfg: Some(MediaNodeConfig {
                queue_capacity: 24,
                fixed_service: MediaDuration::from_millis(1),
                per_mbyte: MediaDuration::from_millis(25),
            }),
            tier: MediaTierConfig {
                replication: 2,
                cache_bytes: 0,
                ..MediaTierConfig::default()
            },
            sharing: SharingMode::Off,
            schedule: ScheduleSpec {
                rate: 10.0,
                horizon_s: 22.0,
                titles: 8,
                zipf_s: 1.1,
                spike: Some(Spike {
                    at_s: 8.0,
                    len_s: 6.0,
                    mult: 3.5,
                }),
            },
            clip_secs: 8,
            client_timeout: default_timeout,
            fleet: false,
            worlds: 1,
        },
        Workload {
            name: "fleet_faults",
            why: "three servers under the HA controller and a fixed plan of crashes, partitions and brownouts: retransmission, reconnect and resume, elections and fencing, loss repair, the heaviest post-run analysis",
            servers: 3,
            media_nodes: 4,
            standby_media: 1,
            node_cfg: None,
            tier: MediaTierConfig {
                hedging: true,
                ..MediaTierConfig::default()
            },
            sharing: SharingMode::Off,
            schedule: ScheduleSpec {
                titles: 18,
                ..vod
            },
            clip_secs: 10,
            client_timeout: MediaDuration::from_secs(8),
            fleet: true,
            worlds: 2,
        },
    ]
}

impl Workload {
    /// The same workload at a quarter of its length, for `--check`.
    pub fn reduced(mut self) -> Workload {
        self.schedule.horizon_s /= 4.0;
        if let Some(s) = &mut self.schedule.spike {
            s.at_s /= 4.0;
            s.len_s /= 4.0;
        }
        self
    }

    /// End of the drain: long enough for the last arrival to play out.
    pub fn drain_until(&self) -> MediaTime {
        MediaTime::from_micros((self.schedule.horizon_s * 1e6) as i64)
            + MediaDuration::from_secs(self.clip_secs + 15)
    }

    /// After the drain every client disconnects and the run goes on until
    /// the servers' client timeout has reaped what is left, so the lifecycle
    /// invariants judge a finished run.
    pub fn horizon(&self) -> MediaTime {
        self.drain_until() + self.client_timeout + MediaDuration::from_secs(4)
    }
}

/// Every access link carries jitter, every third also bursty loss: the
/// impairments the paper's time window and skew control exist for. On clean
/// links start-up delay is the prefill constant and every quality metric
/// reads exactly 100 %.
fn access_link(i: usize) -> LinkSpec {
    let mut link = LinkSpec::lan(10_000_000);
    link.jitter = JitterModel::Exponential {
        mean: MediaDuration::from_millis(2),
    };
    if i % 3 == 2 {
        link.loss = LossModel::GilbertElliott {
            p_gb: 0.002,
            p_bg: 0.25,
            loss_good: 0.0,
            loss_bad: 0.3,
        };
    }
    link
}

pub struct World {
    pub sim: Sim<ServiceMsg, ServiceWorld>,
    pub servers: Vec<NodeId>,
    pub media: Vec<NodeId>,
    pub clients: Vec<NodeId>,
    /// The backbone node every trunk and access link ends on.
    pub hub: NodeId,
    /// Title rank → where it lives.
    pub titles: Vec<(NodeId, DocumentId)>,
    /// When the last injected fault clears (`None` without a fault plan).
    pub last_fault_clear: Option<MediaTime>,
}

/// Host milliseconds of the set-up stages that have a metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub world_ms: f64,
    pub catalog_ms: f64,
    pub distribute_ms: f64,
}

/// Builds the world of `w`. `stage` is told the name of each set-up stage as
/// it begins (a traced rep turns them into spans).
pub fn build(
    w: &Workload,
    seed: u64,
    mut stage: impl FnMut(&'static str),
) -> Result<(World, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut began = Instant::now();
    // Ends the current stage, returning its milliseconds, and begins `name`.
    let mut next = |name: &'static str| {
        let ms = began.elapsed().as_secs_f64() * 1e3;
        stage(name);
        began = Instant::now();
        ms
    };

    next("setup.world");
    let mut b = WorldBuilder::new(seed);
    let scfg = ServerConfig {
        client_timeout: w.client_timeout,
        sharing: SharingPolicy {
            mode: w.sharing,
            window: MediaDuration::from_secs(2),
            max_patch: MediaDuration::from_secs(4),
            hot_rank: 4,
        },
        ..ServerConfig::default()
    };
    let servers: Vec<NodeId> = (0..w.servers)
        .map(|i| {
            b.add_server(
                ServerId::new(i as u64),
                LinkSpec::lan(2_000_000_000),
                scfg.clone(),
            )
        })
        .collect();
    let media: Vec<NodeId> = (0..w.media_nodes + w.standby_media)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    b.media_config(w.tier.clone());
    let clients: Vec<NodeId> = (0..CLIENT_POOL)
        .map(|i| b.add_client(access_link(i), ClientConfig::default()))
        .collect();
    let hub = b.backbone();
    let mut sim = b.build(seed);
    for &m in &media[w.media_nodes..] {
        sim.app_mut().standby_media.insert(m);
    }
    if let Some(cfg) = &w.node_cfg {
        for &m in &media {
            sim.app_mut().media_mut(m).configure(cfg.clone());
        }
    }
    times.world_ms = next("setup.catalog");
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0CA7_A106);
    let shape = LessonShape {
        images: 0,
        image_secs: 0,
        narrated_clip_secs: Some(w.clip_secs),
        closing_audio_secs: None,
    };
    // Title rank r lives on server r mod n, so the popular titles are spread
    // over the servers.
    let per_server = w.schedule.titles.div_ceil(w.servers);
    let mut by_server: Vec<Vec<DocumentId>> = Vec::new();
    for (i, &srv) in servers.iter().enumerate() {
        by_server.push(install_course(
            sim.app_mut().server_mut(srv),
            ["Course A", "Course B", "Course C"][i],
            &["benchmark"],
            1 + 100 * i as u64,
            per_server,
            shape,
            &mut rng,
        ));
    }
    let titles: Vec<(NodeId, DocumentId)> = (0..w.schedule.titles)
        .map(|r| {
            (
                servers[r % w.servers],
                by_server[r % w.servers][r / w.servers],
            )
        })
        .collect();
    times.catalog_ms = next("setup.distribute");
    sim.app_mut().distribute_media();
    times.distribute_ms = next("setup.control");
    let mut last_fault_clear = None;
    if w.fleet {
        let host = servers[0];
        sim.with_api(|world, api| world.enable_control(api, host, ControllerConfig::default()));
        let plan = fault_plan(
            &servers,
            &media[..w.media_nodes],
            &clients[..FAULT_CLIENTS],
            hub,
        )?;
        last_fault_clear = plan.events().last().map(|e| e.at);
        sim.install_faults(&plan);
    }

    Ok((
        World {
            sim,
            servers,
            media,
            clients,
            hub,
            titles,
            last_fault_clear,
        },
        times,
    ))
}

/// The fixed plan of `fleet_faults`. An output check: it must still hold a
/// controller-host crash, a link partition and a media brownout, or the
/// workload no longer exercises what it exists for.
fn fault_plan(
    servers: &[NodeId],
    media: &[NodeId],
    clients: &[NodeId],
    hub: NodeId,
) -> Result<FaultPlan, String> {
    let targets = ChaosTargets {
        servers: servers.to_vec(),
        media: media.to_vec(),
        clients: clients.to_vec(),
        hub,
        controller: Some(servers[0]),
    };
    let plan = chaos::generate(
        FAULT_PLAN_SEED,
        &targets,
        &ChaosProfile::moderate(FAULTS_START, FAULTS_END),
    );
    let has = |f: &dyn Fn(&FaultKind) -> bool| plan.raw_events().iter().any(|e| f(&e.kind));
    let host = servers[0];
    let host_crash = has(&|k| matches!(k, FaultKind::NodeCrash { node } if *node == host));
    let partition = has(&|k| matches!(k, FaultKind::LinkDown { .. }));
    let brownout = has(&|k| matches!(k, FaultKind::NodeSlow { node, .. } if media.contains(node)));
    if host_crash && partition && brownout {
        Ok(plan)
    } else {
        Err(format!(
            "fault plan lost an incident kind: controller-host crash {host_crash}, \
             link partition {partition}, media brownout {brownout}"
        ))
    }
}
