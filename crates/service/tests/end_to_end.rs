#![allow(clippy::field_reassign_with_default)]
//! End-to-end session tests: full service runs over the simulated network.

use hermes_client::{AppEvent, AppState};
use hermes_core::{DocumentId, MediaDuration, MediaTime, ServerId};
use hermes_service::{
    install_course, install_figure2, ClientConfig, LessonShape, ServerConfig, WorldBuilder,
};
use hermes_simnet::obs::events_jsonl;
use hermes_simnet::{LinkSpec, SimRng};

/// One server with Fig. 2 + a short course, one client, clean 10 Mbps links.
fn basic_world() -> (
    hermes_simnet::Sim<hermes_service::ServiceMsg, hermes_service::ServiceWorld>,
    hermes_core::NodeId,
    hermes_core::NodeId,
) {
    let mut b = WorldBuilder::new(7);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(7);
    let mut rng = SimRng::seed_from_u64(99);
    install_figure2(sim.app_mut().server_mut(srv), DocumentId::new(1), &mut rng);
    install_course(
        sim.app_mut().server_mut(srv),
        "Networks",
        &["packets", "routing"],
        10,
        2,
        LessonShape::default(),
        &mut rng,
    );
    (sim, srv, cli)
}

#[test]
fn full_session_plays_figure2() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        let c = w.client_mut(cli);
        c.connect(api, srv, Some(DocumentId::new(1)));
    });
    // Fig. 2 runs 19 s; allow 30 s of simulated time.
    sim.run_until(MediaTime::from_secs(30));

    let client = sim.app().client(cli);
    assert!(client.errors.is_empty(), "errors: {:?}", client.errors);
    // Subscription happened (fresh user) and the session reached Browsing
    // again after the presentation completed.
    assert!(client.user.is_some());
    assert_eq!(client.machine.state(), AppState::Browsing);
    assert_eq!(client.completed.len(), 1);
    let (doc, startup, skew) = client.completed[0];
    assert_eq!(doc, DocumentId::new(1));
    // The intentional prefill delay exists but is modest on a clean LAN.
    assert!(startup > MediaDuration::ZERO);
    assert!(startup < MediaDuration::from_secs(8), "startup {startup}");
    // The synchronized A1/V pair stayed within lip-sync bounds.
    assert!(skew <= MediaDuration::from_millis(100), "skew {skew}");

    // The presentation engine saw all five stored components play.
    let p = client.presentation.as_ref().unwrap();
    let stats = p.engine.total_stats();
    assert!(stats.frames_played > 300, "{stats:?}"); // A1: 400 blocks, V: 200 frames, ...
    assert_eq!(stats.glitches, 0, "{stats:?}");

    // Server side: the session is still connected and the streams are done.
    let server = sim.app().server(srv);
    let (_, sess) = server.sessions.iter().next().unwrap();
    assert!(sess
        .streams
        .values()
        .all(|t| t.done || !t.plan.kind.is_continuous()));
    // Accounting: connect + retrieval charges landed.
    let user = client.user.unwrap();
    assert!(server.accounts.balance(user).unwrap() > 0);
    // The topic list the client holds is the database's own, shared.
    assert_eq!(client.topics.len(), 3);
    assert!(std::sync::Arc::ptr_eq(&client.topics, server.db.topics()));
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (mut sim, srv, cli) = basic_world();
        sim.with_api(|w, api| {
            let c = w.client_mut(cli);
            c.connect(api, srv, Some(DocumentId::new(1)));
        });
        sim.run_until(MediaTime::from_secs(30));
        let c = sim.app().client(cli);
        let node = format!("\"node\":{},", cli.raw());
        let events = events_jsonl(sim.obs());
        let mine: Vec<String> = events
            .lines()
            .filter(|l| l.contains(&node))
            .map(String::from)
            .collect();
        (
            c.completed.clone(),
            c.machine.log.clone(),
            mine,
            sim.stats().delivered,
        )
    };
    let first = run();
    assert!(!first.1.is_empty() && !first.2.is_empty());
    assert_eq!(first, run());
}

#[test]
fn pause_and_resume_mid_presentation() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    // Let it play ~8 s, pause for 5 s, resume.
    sim.run_until(MediaTime::from_secs(8));
    sim.with_api(|w, api| w.client_mut(cli).pause(api));
    sim.run_until(MediaTime::from_secs(13));
    {
        let c = sim.app().client(cli);
        assert_eq!(c.machine.state(), AppState::Paused);
    }
    sim.with_api(|w, api| w.client_mut(cli).resume(api));
    sim.run_until(MediaTime::from_secs(40));
    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    assert_eq!(c.completed.len(), 1, "presentation completed after resume");
    assert_eq!(c.machine.state(), AppState::Browsing);
}

#[test]
fn search_fans_out_across_servers() {
    let mut b = WorldBuilder::new(3);
    let s1 = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let s2 = b.add_server(
        ServerId::new(1),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(3);
    let mut rng = SimRng::seed_from_u64(4);
    install_course(
        sim.app_mut().server_mut(s1),
        "Volcanology",
        &["magma"],
        10,
        2,
        LessonShape::default(),
        &mut rng,
    );
    install_course(
        sim.app_mut().server_mut(s2),
        "Oceanography",
        &["magma", "tides"],
        20,
        1,
        LessonShape::default(),
        &mut rng,
    );
    sim.with_api(|w, api| {
        w.client_mut(cli).connect(api, s1, None);
    });
    sim.run_until(MediaTime::from_secs(2));
    let q = sim.with_api(|w, api| w.client_mut(cli).search(api, "magma"));
    sim.run_until(MediaTime::from_secs(5));
    let c = sim.app().client(cli);
    let hits = c.search_results.get(&q).expect("search response arrived");
    // Lessons on both servers mention "magma"; hits carry server locations.
    let servers: std::collections::BTreeSet<ServerId> = hits.iter().map(|h| h.server).collect();
    assert_eq!(servers.len(), 2, "{hits:?}");
    assert!(hits.len() >= 3);
}

#[test]
fn remote_link_migration_with_suspend() {
    let mut b = WorldBuilder::new(5);
    let s1 = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let s2 = b.add_server(
        ServerId::new(1),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(5);
    let mut rng = SimRng::seed_from_u64(6);
    install_figure2(sim.app_mut().server_mut(s1), DocumentId::new(1), &mut rng);
    install_course(
        sim.app_mut().server_mut(s2),
        "Remote",
        &["faraway"],
        50,
        1,
        LessonShape::default(),
        &mut rng,
    );
    sim.with_api(|w, api| {
        w.client_mut(cli).connect(api, s1, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(5));
    // Mid-presentation, follow a remote (explorational) link to server 2.
    sim.with_api(|w, api| {
        w.client_mut(cli).follow_link(
            api,
            hermes_core::LinkTarget::Remote(ServerId::new(1), DocumentId::new(50)),
        );
    });
    sim.run_until(MediaTime::from_secs(60));
    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    // The remote lesson completed on the new server.
    assert!(
        c.completed
            .iter()
            .any(|(d, _, _)| *d == DocumentId::new(50)),
        "completed: {:?}",
        c.completed
    );
    // The old session was suspended and then expired (grace default 30 s).
    assert!(c.suspended.is_none(), "suspension expired notice received");
    let old = sim.app().server(s1);
    assert_eq!(old.sessions.len(), 0, "old session torn down after grace");
}

#[test]
fn tutor_mail_round_trip() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        w.client_mut(cli).connect(api, srv, None);
    });
    sim.run_until(MediaTime::from_secs(2));
    sim.with_api(|w, api| {
        let mail = hermes_service::MailMessage {
            from: "user@hermes".into(),
            to: "tutor@hermes".into(),
            subject: "question about lesson 1".into(),
            body: "I did not understand the routing part.".into(),
            attachments: vec![],
        };
        w.client_mut(cli).send_mail(api, mail);
    });
    sim.run_until(MediaTime::from_secs(3));
    // The tutor (server-side) reads the mailbox and replies.
    sim.with_api(|w, api| {
        let server = w.server_mut(srv);
        let inbox = server
            .mailboxes
            .get("tutor@hermes")
            .cloned()
            .unwrap_or_default();
        assert_eq!(inbox.len(), 1);
        let reply = hermes_service::tutor_reply("user@hermes", "tutor@hermes", DocumentId::new(10));
        server
            .mailboxes
            .entry("user@hermes".into())
            .or_default()
            .push(reply);
        let _ = api;
    });
    sim.with_api(|w, api| {
        w.client_mut(cli).fetch_mail(api, "user@hermes");
    });
    sim.run_until(MediaTime::from_secs(4));
    let c = sim.app().client(cli);
    assert_eq!(c.mailbox.len(), 1);
    assert!(c.mailbox[0].body.contains("doc10"));
}

#[test]
fn nonexistent_document_reports_error() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(999)));
    });
    sim.run_until(MediaTime::from_secs(3));
    let c = sim.app().client(cli);
    assert!(!c.errors.is_empty());
    assert!(c.errors[0].contains("not found"), "{:?}", c.errors);
    assert_eq!(c.machine.state(), AppState::Browsing); // fell back
}

#[test]
fn timed_link_interrupts_presentation() {
    // Author a document whose AT link fires at 5 s while its clip runs to
    // 12 s: the presentation must be interrupted mid-play (§3).
    let mut b = WorldBuilder::new(21);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let mut cfg = ClientConfig::default();
    cfg.auto_follow_links = true;
    let cli = b.add_client(LinkSpec::lan(10_000_000), cfg);
    let mut sim = b.build(21);
    let mut rng = SimRng::seed_from_u64(22);
    // Target lesson (doc 2).
    install_course(
        sim.app_mut().server_mut(srv),
        "Target",
        &["next"],
        2,
        1,
        LessonShape {
            images: 0,
            image_secs: 0,
            narrated_clip_secs: Some(3),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    // Source document with an early AT link.
    {
        let server = sim.app_mut().server_mut(srv);
        server.db.store_mut(hermes_core::MediaKind::Audio).add(
            "long.pcm",
            hermes_core::Encoding::Pcm,
            MediaDuration::from_secs(12),
            5,
        );
        server
            .db
            .add_document(
                DocumentId::new(1),
                "<TITLE> Interrupted </TITLE>\n\
                 <AU> SOURCE=long.pcm STARTIME=0s DURATION=12s ID=1 </AU>\n\
                 <HLINK> AT=5s TO=doc2 KIND=SEQ </HLINK>",
                "source",
            )
            .unwrap();
    }
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(25));
    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    // Doc 1 never completed (interrupted); doc 2 did.
    assert!(
        !c.completed.iter().any(|(d, _, _)| *d == DocumentId::new(1)),
        "{:?}",
        c.completed
    );
    assert!(c.completed.iter().any(|(d, _, _)| *d == DocumentId::new(2)));
    let fired = c
        .machine
        .log
        .iter()
        .filter(|(_, e, _)| *e == AppEvent::FollowLocalLink);
    assert_eq!(fired.count(), 1, "{:?}", c.machine.log);
    // The interruption happened around t=5s + startup, far before the 12 s
    // clip end: the linked document's scenario arrived before 7 s.
    let scenarios: Vec<MediaTime> = sim
        .obs()
        .events()
        .iter()
        .filter(|e| e.node() == cli.raw() && e.name == "scenario_received")
        .map(|e| e.at)
        .collect();
    assert_eq!(scenarios.len(), 2, "{scenarios:?}");
    assert!(scenarios[1] < MediaTime::from_secs(7), "{scenarios:?}");
}

#[test]
fn reload_restarts_document() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(6));
    sim.with_api(|w, api| w.client_mut(cli).reload(api));
    sim.run_until(MediaTime::from_secs(32));
    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    // The reloaded presentation ran to completion from the start.
    assert_eq!(c.completed.len(), 1);
    assert_eq!(c.completed[0].0, DocumentId::new(1));
    let count = |event| c.machine.log.iter().filter(|(_, e, _)| *e == event).count();
    assert_eq!(count(AppEvent::Reload), 1, "{:?}", c.machine.log);
    // Two full scenario deliveries happened, both of the one document
    // requested.
    assert_eq!(count(AppEvent::ScenarioReceived), 2, "{:?}", c.machine.log);
}

#[test]
fn history_back_and_forward() {
    let (mut sim, srv, cli) = basic_world();
    // View lesson 10, then lesson 11 (both from the installed course).
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(10)));
    });
    sim.run_until(MediaTime::from_secs(25));
    sim.with_api(|w, api| w.client_mut(cli).request_document(api, DocumentId::new(11)));
    sim.run_until(MediaTime::from_secs(50));
    {
        let c = sim.app().client(cli);
        assert_eq!(c.history, vec![DocumentId::new(10), DocumentId::new(11)]);
        assert_eq!(c.completed.len(), 2);
    }
    // Back to lesson 10.
    let went_back = sim.with_api(|w, api| w.client_mut(cli).back(api));
    assert!(went_back);
    sim.run_until(MediaTime::from_secs(75));
    {
        let c = sim.app().client(cli);
        // Lesson 10 presented again; history unchanged.
        assert_eq!(c.completed.len(), 3);
        assert_eq!(c.completed[2].0, DocumentId::new(10));
        assert_eq!(c.history, vec![DocumentId::new(10), DocumentId::new(11)]);
        // At the oldest entry, back is refused.
    }
    let at_oldest = sim.with_api(|w, api| !w.client_mut(cli).back(api));
    assert!(at_oldest);
    // Forward to lesson 11 again.
    let went_forward = sim.with_api(|w, api| w.client_mut(cli).forward(api));
    assert!(went_forward);
    sim.run_until(MediaTime::from_secs(100));
    let c = sim.app().client(cli);
    assert_eq!(c.completed.len(), 4);
    assert_eq!(c.completed[3].0, DocumentId::new(11));
    // At the newest entry, forward is refused (checked via a fresh api call).
    assert!(c.errors.is_empty(), "{:?}", c.errors);
}

#[test]
fn rtcp_sender_reports_reach_receivers() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(30));
    {
        let srv_actor = sim.app().server(srv);
        let (_, sess) = srv_actor.sessions.iter().next().unwrap();
        assert!(
            sess.streams.values().any(|t| t.frames_sent >= 64),
            "at least one stream sent enough frames for an SR"
        );
    }
    // The client's receivers saw the sender reports: a fresh receiver-report
    // block carries a nonzero LSR (last-SR timestamp).
    let now = sim.now();
    let got_lsr = sim.with_api(|w, _| {
        let c = w.client_mut(cli);
        let p = c.presentation.as_mut().unwrap();
        p.receivers
            .values_mut()
            .any(|rx| rx.report_block(0.0, now).lsr != 0)
    });
    assert!(got_lsr, "no receiver recorded a sender report");
}

#[test]
fn n_way_sync_group_streams_together() {
    // The SYNC= extension: two audio streams and a video synchronized as
    // one 3-way group (generalizing AU_VI per the paper's future work).
    let mut b = WorldBuilder::new(41);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let cli = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(41);
    {
        let server = sim.app_mut().server_mut(srv);
        let mut rng = SimRng::seed_from_u64(42);
        for (key, enc) in [
            ("m.pcm", hermes_core::Encoding::Pcm),
            ("n.pcm", hermes_core::Encoding::Pcm),
        ] {
            server.db.store_mut(hermes_core::MediaKind::Audio).add(
                key,
                enc,
                MediaDuration::from_secs(6),
                rng.range_u64(0, 1 << 40),
            );
        }
        server.db.store_mut(hermes_core::MediaKind::Video).add(
            "v.mpg",
            hermes_core::Encoding::Mpeg,
            MediaDuration::from_secs(6),
            rng.range_u64(0, 1 << 40),
        );
        server
            .db
            .add_document(
                DocumentId::new(1),
                "<TITLE> Trio </TITLE>
                 <AU> SOURCE=m.pcm STARTIME=0s DURATION=6s ID=1 SYNC=scene </AU>
                 <AU> SOURCE=n.pcm STARTIME=0s DURATION=6s ID=2 SYNC=scene </AU>
                 <VI> SOURCE=v.mpg STARTIME=0s DURATION=6s ID=3 SYNC=scene </VI>",
                "trio",
            )
            .unwrap();
    }
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(15));
    let c = sim.app().client(cli);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    assert_eq!(c.completed.len(), 1);
    let p = c.presentation.as_ref().unwrap();
    // The scenario carries one 3-member sync group; skew stayed bounded.
    assert_eq!(p.scenario.sync_groups.len(), 1);
    assert_eq!(p.scenario.sync_groups[0].members.len(), 3);
    let (_, _, skew) = c.completed[0];
    assert!(skew <= MediaDuration::from_millis(80), "skew {skew}");
}

#[test]
fn stopped_stream_restarts_after_recovery() {
    use hermes_simnet::{CongestionEpoch, CongestionProfile};
    // A deep congestion epoch walks the video stream down to its floor and
    // stops it; after the epoch the grading engine upgrades and the stream
    // resumes playing on the client.
    let mut b = WorldBuilder::new(83);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(50_000_000),
        ServerConfig::default(),
    );
    let mut access = LinkSpec::lan(3_000_000);
    access.queue_capacity_bytes = 48 << 10;
    access.congestion = CongestionProfile::new(vec![CongestionEpoch {
        start: MediaTime::from_secs(5),
        end: MediaTime::from_secs(12),
        load: 0.85,
        extra_loss: 0.05,
    }]);
    // The restart is read off the playout event log below.
    let mut client_cfg = ClientConfig::default();
    client_cfg.playout.record_events = true;
    let cli = b.add_client(access, client_cfg);
    let mut sim = b.build(83);
    let mut rng = SimRng::seed_from_u64(84);
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Longform",
        &["recovery"],
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
    sim.with_api(|w, api| {
        w.client_mut(cli).connect(api, srv, Some(lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(60));

    let srv_actor = sim.app().server(srv);
    let (sid, sess) = srv_actor.sessions.iter().next().unwrap();
    let qos = srv_actor.grading.qos(*sid).expect("graded");
    assert!(qos.stops_issued >= 1, "epoch must stop the video stream");
    assert!(qos.upgrades_issued >= 1, "recovery must upgrade afterwards");
    // The video stream resumed transmitting after its stop.
    let video_tx = sess
        .streams
        .values()
        .find(|t| t.plan.kind == hermes_core::MediaKind::Video)
        .unwrap();
    assert!(!video_tx.stopped, "video resumed server-side");
    // Client side: the restart event appears in the playout log and video
    // frames were presented after the epoch ended.
    let c = sim.app().client(cli);
    let p = c.presentation.as_ref().unwrap();
    let video_id = video_tx.plan.component;
    let restarts = p
        .engine
        .events
        .iter()
        .filter(|e| e.component == video_id && e.kind == hermes_client::PlayoutEventKind::Started)
        .count();
    assert!(
        restarts >= 2,
        "initial start + at least one restart, got {restarts}"
    );
    let played_after_epoch = p.engine.events.iter().any(|e| {
        e.component == video_id
            && e.at > MediaTime::from_secs(20)
            && matches!(e.kind, hermes_client::PlayoutEventKind::FramePlayed { .. })
    });
    assert!(played_after_epoch, "video frames presented after recovery");
}

#[test]
fn annotations_per_user_round_trip() {
    let (mut sim, srv, cli) = basic_world();
    sim.with_api(|w, api| {
        w.client_mut(cli)
            .connect(api, srv, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(2));
    sim.with_api(|w, api| {
        let c = w.client_mut(cli);
        c.annotate(api, DocumentId::new(1), "check the A/V sync at 6s");
        c.annotate(api, DocumentId::new(1), "nice figure");
        c.annotate(api, DocumentId::new(10), "revisit this lesson");
    });
    sim.run_until(MediaTime::from_secs(3));
    sim.with_api(|w, api| {
        w.client_mut(cli).fetch_annotations(api, DocumentId::new(1));
    });
    sim.run_until(MediaTime::from_secs(4));
    let c = sim.app().client(cli);
    let notes = c.annotations.get(&DocumentId::new(1)).unwrap();
    assert_eq!(
        notes,
        &vec![
            "check the A/V sync at 6s".to_string(),
            "nice figure".to_string()
        ]
    );
    // Annotations are per (user, document): doc 10 has its own.
    let user = c.user.unwrap();
    let srv_actor = sim.app().server(srv);
    assert_eq!(
        srv_actor.annotations[&(user, DocumentId::new(10))],
        vec!["revisit this lesson".to_string()]
    );
    assert!(!srv_actor
        .annotations
        .contains_key(&(hermes_core::UserId::new(999), DocumentId::new(1))));
}
