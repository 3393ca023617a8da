#![allow(clippy::field_reassign_with_default)]
//! Reusable experiment harness: a parameterized streaming session (one
//! server, one client, a congestible access link) with full metric
//! extraction, plus a parallel sweep runner.

use hermes_client::{BufferConfig, PlayoutConfig};
use hermes_core::{
    GradingHysteresis, GradingOrder, MediaDuration, MediaTime, NodeId, PricingClass, ServerId,
};
use hermes_service::{
    install_course, ClientConfig, LessonShape, ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::{CongestionProfile, JitterModel, LinkSpec, LossModel, Sim, SimRng};

/// Parameters of one streaming-session run.
#[derive(Debug, Clone)]
pub struct StreamingParams {
    /// RNG seed (world + engine).
    pub seed: u64,
    /// Access-link capacity, bits/second.
    pub access_bps: u64,
    /// Access-link queue capacity, bytes.
    pub queue_bytes: u64,
    /// Background congestion on the access link.
    pub congestion: CongestionProfile,
    /// Per-packet jitter on the access link.
    pub jitter: JitterModel,
    /// Per-packet loss on the access link.
    pub loss: LossModel,
    /// Client media time window (buffer prefill target).
    pub time_window: MediaDuration,
    /// Client playout/recovery configuration.
    pub playout: PlayoutConfig,
    /// Server grading enabled?
    pub grading: bool,
    /// Grading order (video-first vs audio-first ablation).
    pub grading_order: GradingOrder,
    /// Feedback report interval.
    pub feedback_interval: MediaDuration,
    /// Narrated-clip length of the lesson, seconds.
    pub clip_secs: i64,
    /// How long to run the simulation.
    pub horizon: MediaTime,
}

impl Default for StreamingParams {
    fn default() -> Self {
        StreamingParams {
            seed: 1,
            access_bps: 4_000_000,
            queue_bytes: 64 << 10,
            congestion: CongestionProfile::idle(),
            jitter: JitterModel::None,
            loss: LossModel::None,
            time_window: MediaDuration::from_millis(1_000),
            playout: PlayoutConfig::default(),
            grading: true,
            grading_order: GradingOrder::VideoFirst,
            feedback_interval: MediaDuration::from_millis(1_000),
            clip_secs: 20,
            horizon: MediaTime::from_secs(45),
        }
    }
}

/// Metrics extracted from one run.
#[derive(Debug, Clone, Default)]
pub struct StreamingMetrics {
    /// The presentation completed within the horizon.
    pub completed: bool,
    /// Startup (prefill) delay.
    pub startup: MediaDuration,
    /// Maximum intermedia skew observed between the A/V pair.
    pub max_skew: MediaDuration,
    /// Real frames presented.
    pub frames_played: u64,
    /// Duplicates presented (underflow smoothing).
    pub duplicates: u64,
    /// Visible glitches.
    pub glitches: u64,
    /// Frames dropped by occupancy/skew repair.
    pub dropped: u64,
    /// Buffer underflow events across streams.
    pub underflows: u64,
    /// Grading degrade actions.
    pub degrades: u64,
    /// Grading upgrade actions.
    pub upgrades: u64,
    /// Grading stop actions.
    pub stops: u64,
    /// Datagrams dropped by the network.
    pub net_dropped: u64,
}

/// The standard one-lesson shape used across experiments: a synchronized
/// audio+video clip (the skew-sensitive workload the paper's mechanisms
/// target).
pub fn standard_lesson(clip_secs: i64) -> LessonShape {
    LessonShape {
        images: 1,
        image_secs: 2,
        narrated_clip_secs: Some(clip_secs),
        closing_audio_secs: None,
    }
}

/// A lesson that is nothing but the narrated clip, starting at scenario
/// zero: the continuous flow begins the moment the session (or a shared
/// group) opens, which is what the load experiments want.
pub fn clip_lesson(clip_secs: i64) -> LessonShape {
    LessonShape {
        images: 0,
        image_secs: 0,
        narrated_clip_secs: Some(clip_secs),
        closing_audio_secs: None,
    }
}

/// Run one streaming session with the given parameters and extract metrics.
pub fn run_streaming_session(p: &StreamingParams) -> StreamingMetrics {
    let (mut sim, server, client) = build_streaming_session(p);
    sim.run_until(p.horizon);
    streaming_metrics(&sim, server, client)
}

/// Build the session's world — one server, one client on the congestible
/// access link, one lesson — and connect the client at time zero. Returns
/// the simulation with the server and client nodes.
pub fn build_streaming_session(
    p: &StreamingParams,
) -> (Sim<ServiceMsg, ServiceWorld>, NodeId, NodeId) {
    let mut b = WorldBuilder::new(p.seed);
    let mut server_cfg = ServerConfig::default();
    server_cfg.media_time_window = p.time_window;
    if !p.grading {
        // Disable the long-term mechanism by an unreachable threshold.
        server_cfg.hysteresis = GradingHysteresis {
            degrade_above: 1e18,
            upgrade_below: 0.5,
            upgrade_patience: 3,
        };
    }
    server_cfg.grading_order = p.grading_order;
    let server = b.add_server(ServerId::new(0), LinkSpec::lan(100_000_000), server_cfg);

    let mut access = LinkSpec::lan(p.access_bps);
    access.queue_capacity_bytes = p.queue_bytes;
    access.congestion = p.congestion.clone();
    access.jitter = p.jitter.clone();
    access.loss = p.loss.clone();
    let mut client_cfg = ClientConfig::default();
    // Premium keeps the admission controller out of the way; EXP-ADMIT
    // studies admission separately.
    client_cfg.class = PricingClass::Premium;
    std::sync::Arc::make_mut(&mut client_cfg.form).class = PricingClass::Premium;
    client_cfg.buffer = BufferConfig::with_window(p.time_window);
    client_cfg.playout = p.playout;
    client_cfg.feedback_interval = p.feedback_interval;
    let client = b.add_client(access, client_cfg);

    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(p.seed);
    sim.obs_mut().set_enabled(true);
    let mut rng = SimRng::seed_from_u64(p.seed.wrapping_mul(0x9E37_79B9));
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Workload",
        &["experiment"],
        1,
        1,
        standard_lesson(p.clip_secs),
        &mut rng,
    );
    sim.with_api(|w, api| {
        w.client_mut(client).connect(api, server, Some(lessons[0]));
    });
    (sim, server, client)
}

/// Read a session's metrics off its world, at whatever time it has run to.
pub fn streaming_metrics(
    sim: &Sim<ServiceMsg, ServiceWorld>,
    server: NodeId,
    client: NodeId,
) -> StreamingMetrics {
    let mut m = StreamingMetrics::default();
    let c = sim.app().client(client);
    m.completed = !c.completed.is_empty();
    if let Some((_, startup, skew)) = c.completed.first() {
        m.startup = *startup;
        m.max_skew = *skew;
    }
    if let Some(pres) = &c.presentation {
        let stats = pres.engine.total_stats();
        m.frames_played = stats.frames_played;
        m.duplicates = stats.duplicates_played;
        m.glitches = stats.glitches;
        m.dropped = stats.frames_dropped;
        m.max_skew = m.max_skew.max(pres.engine.max_skew_observed);
        if !m.completed {
            m.startup = pres.startup_delay().unwrap_or(MediaDuration::ZERO);
        }
        for s in pres.engine.streams() {
            if let Some(b) = &s.buffer {
                m.underflows += b.stats.underflow_events;
            }
        }
    }
    let srv = sim.app().server(server);
    for q in srv.sessions.keys().filter_map(|sid| srv.grading.qos(*sid)) {
        m.degrades += q.degrades_issued;
        m.upgrades += q.upgrades_issued;
        m.stops += q.stops_issued;
    }
    let net = sim.net().total_stats();
    m.net_dropped = net.packets_lost + net.packets_dropped_queue;
    m
}

/// Run the same parameter point over several seeds in parallel (scoped
/// threads; a panicking worker propagates when the scope ends) and return
/// all metrics.
pub fn run_seeds(base: &StreamingParams, seeds: &[u64]) -> Vec<StreamingMetrics> {
    let mut out: Vec<Option<StreamingMetrics>> = vec![None; seeds.len()];
    std::thread::scope(|scope| {
        for (slot, &seed) in out.iter_mut().zip(seeds) {
            let mut p = base.clone();
            p.seed = seed;
            scope.spawn(move || {
                *slot = Some(run_streaming_session(&p));
            });
        }
    });
    out.into_iter().map(|m| m.unwrap()).collect()
}

/// Run one streaming session and hand back the observability capture along
/// with the metrics: the engine + actor counters are published into the
/// capture's registry before it is detached.
pub fn run_streaming_session_traced(p: &StreamingParams) -> (StreamingMetrics, hermes_simnet::Obs) {
    let (mut sim, server, client) = build_streaming_session(p);
    sim.run_until(p.horizon);
    let m = streaming_metrics(&sim, server, client);
    sim.publish_metrics();
    let mut obs = sim.take_obs();
    sim.app().publish_metrics(&mut obs);
    (m, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_completes_without_anomalies() {
        let m = run_streaming_session(&StreamingParams {
            clip_secs: 6,
            horizon: MediaTime::from_secs(20),
            ..Default::default()
        });
        assert!(m.completed);
        assert_eq!(m.glitches, 0);
        assert!(m.frames_played > 200);
        assert!(m.startup > MediaDuration::ZERO);
    }

    #[test]
    fn loss_makes_things_worse() {
        let clean = run_streaming_session(&StreamingParams {
            clip_secs: 6,
            horizon: MediaTime::from_secs(20),
            ..Default::default()
        });
        let lossy = run_streaming_session(&StreamingParams {
            clip_secs: 6,
            horizon: MediaTime::from_secs(20),
            loss: LossModel::Bernoulli { p: 0.08 },
            playout: PlayoutConfig::no_recovery(),
            grading: false,
            ..Default::default()
        });
        assert!(lossy.net_dropped > 0);
        // Loss shows up as skipped content (fewer real frames presented)
        // and larger intermedia skew, not necessarily starvation glitches:
        // a gap in the buffer makes playout jump to the next frame.
        assert!(
            lossy.frames_played < clean.frames_played,
            "lossy {lossy:?} vs clean {clean:?}"
        );
        assert!(lossy.max_skew > clean.max_skew);
    }

    #[test]
    fn parallel_seeds_deterministic() {
        let p = StreamingParams {
            clip_secs: 4,
            horizon: MediaTime::from_secs(15),
            ..Default::default()
        };
        let a = run_seeds(&p, &[1, 2]);
        let b = run_seeds(&p, &[1, 2]);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
