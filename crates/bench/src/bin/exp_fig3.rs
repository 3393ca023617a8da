//! FIG3 — the general architecture, exercised end to end: one session over
//! a loaded WAN path, with every component of the figure reporting what it
//! did — connection establishment & admission, multimedia database
//! retrieval, flow scheduler, media servers, client/server QoS managers,
//! media stream quality converters, buffers and the presentation scheduler.

use hermes_bench::{fmt_dur_ms, ExpOpts, Table};
use hermes_core::MediaDuration;
use hermes_core::{MediaTime, ServerId};
use hermes_server::compute_flow_scenario;
use hermes_service::{install_course, ClientConfig, LessonShape, ServerConfig, WorldBuilder};
use hermes_simnet::{CongestionEpoch, CongestionProfile, JitterModel, LinkSpec, LossModel, SimRng};

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let seed = opts.seed(31);
    let mut b = WorldBuilder::new(seed);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(50_000_000),
        ServerConfig::default(),
    );
    // Loaded WAN access path.
    let mut access = LinkSpec::wan(5_000_000, 12);
    access.queue_capacity_bytes = 96 << 10;
    access.jitter = JitterModel::Exponential {
        mean: MediaDuration::from_millis(3),
    };
    access.loss = LossModel::GilbertElliott {
        p_gb: 0.005,
        p_bg: 0.2,
        loss_good: 0.001,
        loss_bad: 0.15,
    };
    access.congestion = CongestionProfile::new(vec![CongestionEpoch {
        start: MediaTime::from_secs(10),
        end: MediaTime::from_secs(18),
        load: 0.65,
        extra_loss: 0.02,
    }]);
    let client = b.add_client(access, ClientConfig::default());
    let mut sim = b.build(seed);

    let mut rng = SimRng::seed_from_u64(seed.wrapping_add(1));
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Architecture",
        &["components"],
        1,
        1,
        LessonShape {
            images: 2,
            image_secs: 3,
            narrated_clip_secs: Some(20),
            closing_audio_secs: Some(3),
        },
        &mut rng,
    );

    // Show the flow scheduler's output before running (Fig. 3's server half).
    {
        let doc = sim.app().server(server).db.document(lessons[0]).unwrap();
        let flow = compute_flow_scenario(&doc.scenario, ServerConfig::default().media_time_window);
        let mut t = Table::new(vec![
            "component",
            "kind",
            "send start",
            "duration",
            "rate kbps",
            "media server",
        ]);
        for p in &flow.plans {
            t.row(vec![
                p.component.to_string(),
                p.kind.to_string(),
                p.send_start.to_string(),
                p.duration.to_string(),
                (p.rate_bps / 1000).to_string(),
                format!("{}-server", p.kind),
            ]);
        }
        out.table("flow scheduler — computed flow scenario", &t);
        out.line(&format!(
            "aggregate reserved bandwidth: {} kbps (lead {})",
            flow.aggregate_bandwidth_bps() / 1000,
            flow.lead
        ));
    }

    sim.with_api(|w, api| {
        w.client_mut(client).connect(api, server, Some(lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(45));

    // Per-component report.
    let c = sim.app().client(client);
    let srv = sim.app().server(server);
    assert!(c.errors.is_empty(), "{:?}", c.errors);

    let mut t = Table::new(vec!["architecture component", "activity"]);
    t.row(vec![
        "connection establishment".to_string(),
        format!(
            "1 connect, admission: {} admitted / {} rejected",
            srv.admission
                .stats
                .values()
                .map(|s| s.admitted)
                .sum::<u64>(),
            srv.admission
                .stats
                .values()
                .map(|s| s.rejected)
                .sum::<u64>()
        ),
    ]);
    t.row(vec![
        "multimedia database".to_string(),
        format!(
            "{} documents, {} topics",
            srv.db.len(),
            srv.db.topics().len()
        ),
    ]);
    let (sid, sess) = srv.sessions.iter().next().unwrap();
    let qos = srv
        .grading
        .qos(*sid)
        .expect("the session's streams are graded");
    t.row(vec![
        "media servers".to_string(),
        format!(
            "{} streams activated, {} frames / {} KiB transmitted",
            sess.streams.len(),
            sess.streams.values().map(|s| s.frames_sent).sum::<u64>(),
            sess.streams.values().map(|s| s.bytes_sent).sum::<u64>() / 1024
        ),
    ]);
    t.row(vec![
        "client QoS manager".to_string(),
        format!("{} feedback reports sent", c.qos.reports_sent),
    ]);
    t.row(vec![
        "server QoS manager + quality converters".to_string(),
        format!(
            "{} degrades, {} upgrades, {} stops",
            qos.degrades_issued, qos.upgrades_issued, qos.stops_issued
        ),
    ]);
    let p = c.presentation.as_ref().unwrap();
    let mut under = 0;
    let mut over = 0;
    for s in p.engine.streams() {
        if let Some(bf) = &s.buffer {
            under += bf.stats.underflow_events;
            over += bf.stats.overflow_events;
        }
    }
    t.row(vec![
        "media buffers (time windows)".to_string(),
        format!("{} underflow events, {} overflow events", under, over),
    ]);
    let stats = p.engine.total_stats();
    t.row(vec![
        "presentation scheduler".to_string(),
        format!(
            "{} frames played, {} duplicates, {} glitches, {} dropped, max skew {}",
            stats.frames_played,
            stats.duplicates_played,
            stats.glitches,
            stats.frames_dropped,
            fmt_dur_ms(p.engine.max_skew_observed) + " ms"
        ),
    ]);
    let net = sim.net().total_stats();
    t.row(vec![
        "broadband network".to_string(),
        format!(
            "{} packets / {} KiB carried, {} lost, {} queue-dropped",
            net.packets_sent,
            net.bytes_sent / 1024,
            net.packets_lost,
            net.packets_dropped_queue
        ),
    ]);
    out.table(
        "Fig. 3 — per-component activity over one loaded session",
        &t,
    );

    assert!(c.qos.reports_sent > 10, "feedback loop ran");
    assert!(
        qos.degrades_issued > 0,
        "congestion epoch must drive the grading engine"
    );
    out.line("FIG3 reproduction ✓ (all architecture components active)");
}
