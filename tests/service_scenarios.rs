#![allow(clippy::field_reassign_with_default)]
//! Cross-crate integration scenarios beyond the basics: multi-client
//! contention, stream disabling, auto-followed lesson chains, and
//! accounting.

use hermes_od::core::{ComponentId, DocumentId, MediaKind, MediaTime, PricingClass, ServerId};
use hermes_od::service::{install_course, ClientConfig, LessonShape, ServerConfig, WorldBuilder};
use hermes_od::simnet::{LinkSpec, SimRng};

fn short_shape() -> LessonShape {
    LessonShape {
        images: 1,
        image_secs: 2,
        narrated_clip_secs: Some(4),
        closing_audio_secs: None,
    }
}

#[test]
fn three_clients_share_one_server() {
    let mut b = WorldBuilder::new(71);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(20_000_000),
        ServerConfig::default(),
    );
    let mut clients = Vec::new();
    for _ in 0..3 {
        let mut cfg = ClientConfig::default();
        cfg.class = PricingClass::Premium;
        std::sync::Arc::make_mut(&mut cfg.form).class = PricingClass::Premium;
        clients.push(b.add_client(LinkSpec::lan(20_000_000), cfg));
    }
    let mut sim = b.build(71);
    let mut rng = SimRng::seed_from_u64(72);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Shared",
        &["contention"],
        1,
        1,
        short_shape(),
        &mut rng,
    );
    for (i, c) in clients.iter().enumerate() {
        let c = *c;
        let doc = lessons[0];
        sim.run_until(MediaTime::from_millis(i as i64 * 300));
        sim.with_api(|w, api| {
            w.client_mut(c).connect(api, server, Some(doc));
        });
    }
    sim.run_until(MediaTime::from_secs(20));
    for c in &clients {
        let cl = sim.app().client(*c);
        assert!(cl.errors.is_empty(), "{:?}", cl.errors);
        assert_eq!(cl.completed.len(), 1, "client {c} did not finish");
        let p = cl.presentation.as_ref().unwrap();
        assert_eq!(p.engine.total_stats().glitches, 0);
    }
    // Each client subscribed independently → three distinct users billed.
    let srv = sim.app().server(server);
    assert_eq!(srv.accounts.len(), 3);
}

#[test]
fn disable_stream_stops_its_transmission() {
    let mut b = WorldBuilder::new(73);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let client = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(73);
    let mut rng = SimRng::seed_from_u64(74);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Mutable",
        &["disable"],
        1,
        1,
        LessonShape {
            images: 0,
            image_secs: 0,
            narrated_clip_secs: Some(10),
            closing_audio_secs: None,
        },
        &mut rng,
    );
    sim.with_api(|w, api| {
        w.client_mut(client).connect(api, server, Some(lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(3));
    // Find the video component and disable it ("disable the presentation of
    // a particular media involved in the selected document", §5).
    let video: ComponentId = {
        let srv = sim.app().server(server);
        let (_, sess) = srv.sessions.iter().next().unwrap();
        *sess
            .streams
            .iter()
            .find(|(_, tx)| tx.plan.kind == MediaKind::Video)
            .unwrap()
            .0
    };
    let frames_at_disable = {
        let srv = sim.app().server(server);
        let (_, sess) = srv.sessions.iter().next().unwrap();
        sess.streams[&video].frames_sent
    };
    sim.with_api(|w, api| {
        w.client_mut(client).disable_stream(api, video);
    });
    sim.run_until(MediaTime::from_secs(12));
    let srv = sim.app().server(server);
    let (_, sess) = srv.sessions.iter().next().unwrap();
    let frames_after = sess.streams[&video].frames_sent;
    // At most a couple of in-flight frames after the disable request landed.
    assert!(
        frames_after <= frames_at_disable + 10,
        "video kept streaming: {frames_at_disable} → {frames_after}"
    );
    // Audio still completed.
    let c = sim.app().client(client);
    assert_eq!(c.completed.len(), 1);
}

#[test]
fn auto_follow_walks_the_lesson_chain() {
    let mut b = WorldBuilder::new(75);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let mut cfg = ClientConfig::default();
    cfg.auto_follow_links = true;
    let client = b.add_client(LinkSpec::lan(10_000_000), cfg);
    let mut sim = b.build(75);
    let mut rng = SimRng::seed_from_u64(76);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Chain",
        &["sequence"],
        1,
        3,
        short_shape(),
        &mut rng,
    );
    sim.with_api(|w, api| {
        w.client_mut(client).connect(api, server, Some(lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(40));
    let c = sim.app().client(client);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    // All three lessons played, in the author's sequence ("preserve the
    // sequential nature or 'writer's way' of presentation", §3).
    let played: Vec<DocumentId> = c.completed.iter().map(|(d, _, _)| *d).collect();
    assert_eq!(played, lessons);
}

#[test]
fn server_catalog_lists_descriptions() {
    let mut b = WorldBuilder::new(80);
    b.add_server_described(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
        "geography lessons",
    );
    b.add_server_described(
        ServerId::new(1),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
        "biology lessons",
    );
    let sim = b.build(80);
    let cat = &sim.app().catalog;
    assert_eq!(cat.len(), 2);
    assert_eq!(cat[0].0, ServerId::new(0));
    assert!(cat.iter().any(|(_, _, d)| d.contains("biology")));
}

#[test]
fn accounting_reflects_usage() {
    let mut b = WorldBuilder::new(77);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let client = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(77);
    let mut rng = SimRng::seed_from_u64(78);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Billing",
        &["money"],
        1,
        2,
        short_shape(),
        &mut rng,
    );
    sim.with_api(|w, api| {
        w.client_mut(client).connect(api, server, Some(lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(10));
    sim.with_api(|w, api| w.client_mut(client).request_document(api, lessons[1]));
    sim.run_until(MediaTime::from_secs(20));
    sim.with_api(|w, api| w.client_mut(client).disconnect(api));
    sim.run_until(MediaTime::from_secs(21));

    let srv = sim.app().server(server);
    let user = sim.app().client(client).user.unwrap();
    let rec = srv.accounts.user(user).unwrap();
    // One login, two retrievals on record.
    assert_eq!(rec.logins.len(), 1);
    assert_eq!(rec.retrieved, lessons);
    // The ledger accrued: connection + 2 retrievals + duration + volume.
    let balance = srv.accounts.balance(user).unwrap();
    let connection = 100 * 15; // Standard class rate
    let retrievals = 2 * 50 * 15;
    assert!(
        balance > connection + retrievals,
        "balance {balance} missing duration/volume charges"
    );
    // Session fully torn down.
    assert!(srv.sessions.is_empty());
    assert_eq!(srv.admission.active_sessions(), 0);
}
