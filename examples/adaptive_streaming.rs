//! Adaptive streaming under congestion: the long-term recovery mechanism in
//! action (paper §4).
//!
//! ```sh
//! cargo run --example adaptive_streaming
//! ```
//!
//! A lesson with a synchronized audio+video clip streams across a link that
//! suffers a heavy congestion epoch mid-presentation. The client's feedback
//! reports drive the server's grading engine: watch the video stream walk
//! down its quality ladder (video first — "users can tolerate lower video
//! quality rather than 'not hear well'") and climb back after the epoch.

use hermes_od::core::{MediaTime, ServerId};
use hermes_od::service::{install_course, ClientConfig, LessonShape, ServerConfig, WorldBuilder};
use hermes_od::simnet::{CongestionEpoch, CongestionProfile, LinkSpec, SimRng};

fn main() {
    let mut b = WorldBuilder::new(23);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    // The client's access link: 4 Mbps with a shallow router queue (64 KiB —
    // deep queues turn congestion into unbounded delay) and a congestion
    // epoch from t=8 s to t=20 s taking half the capacity and adding loss.
    let mut access = LinkSpec::lan(4_000_000);
    access.queue_capacity_bytes = 64 << 10;
    access.congestion = CongestionProfile::new(vec![CongestionEpoch {
        start: MediaTime::from_secs(8),
        end: MediaTime::from_secs(20),
        load: 0.5,
        extra_loss: 0.02,
    }]);
    let client = b.add_client(access, ClientConfig::default());
    let mut sim = b.build(23);

    // One long lesson: 30 s narrated clip.
    let mut rng = SimRng::seed_from_u64(2);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Streaming",
        &["adaptation"],
        1,
        1,
        LessonShape {
            images: 0,
            image_secs: 0,
            narrated_clip_secs: Some(30),
            closing_audio_secs: None,
        },
        &mut rng,
    );

    sim.with_api(|w, api| {
        w.client_mut(client).connect(api, server, Some(lessons[0]));
    });

    // Sample the grading state once per second while running.
    println!("time   audio-level  video-level  video-kbps  note");
    let mut last_levels = (255u8, 255u8);
    for t in 1..=40 {
        sim.run_until(MediaTime::from_secs(t));
        let srv = sim.app().server(server);
        if let Some((sid, sess)) = srv.sessions.iter().next() {
            let qos = srv.grading.qos(*sid);
            let mut audio = None;
            let mut video = None;
            let mut vid_bw = 0u64;
            for (c, tx) in &sess.streams {
                match tx.plan.kind {
                    hermes_od::core::MediaKind::Audio => {
                        audio = qos.and_then(|q| q.level_of(*c)).map(|l| l.0)
                    }
                    hermes_od::core::MediaKind::Video => {
                        video = qos.and_then(|q| q.level_of(*c)).map(|l| l.0);
                        vid_bw = qos
                            .and_then(|q| q.stream(*c))
                            .map(|s| s.converter.current_bandwidth_bps())
                            .unwrap_or(0);
                    }
                    _ => {}
                }
            }
            let (a, v) = (audio.unwrap_or(0), video.unwrap_or(0));
            let note = match ((8..20).contains(&t), (a, v) != last_levels) {
                (true, true) => "congestion epoch — degrading",
                (false, true) => "recovering",
                (true, false) => "congestion epoch",
                (false, false) => "",
            };
            println!("{t:>3}s   {a:>11}  {v:>11}  {:>10}  {note}", vid_bw / 1000);
            last_levels = (a, v);
        }
    }

    let c = sim.app().client(client);
    let srv = sim.app().server(server);
    let (sid, _) = srv.sessions.iter().next().unwrap();
    let qos = srv
        .grading
        .qos(*sid)
        .expect("the session's streams are graded");
    println!(
        "\ngrading totals: {} degrades, {} upgrades, {} stops",
        qos.degrades_issued, qos.upgrades_issued, qos.stops_issued
    );
    let p = c.presentation.as_ref().expect("presentation exists");
    let stats = p.engine.total_stats();
    println!(
        "playout: {} frames, {} duplicates, {} glitches, max A/V skew {}",
        stats.frames_played, stats.duplicates_played, stats.glitches, p.engine.max_skew_observed
    );
    assert!(
        qos.degrades_issued > 0,
        "congestion must trigger degradation"
    );
    assert!(qos.upgrades_issued > 0, "recovery must trigger upgrades");
}
