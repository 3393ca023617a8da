//! Distance learning with Hermes (paper §6): a multi-server deployment with
//! courses, distributed search, lesson navigation across servers
//! (suspend/migrate), and asynchronous tutor mail.
//!
//! ```sh
//! cargo run --example distance_learning
//! ```

use hermes_od::core::{DocumentId, LinkTarget, MediaTime, ServerId};
use hermes_od::obs::session_timeline;
use hermes_od::service::{
    install_course, tutor_reply, ClientConfig, LessonShape, MailMessage, ServerConfig, WorldBuilder,
};
use hermes_od::simnet::{LinkSpec, SimRng};

fn main() {
    // Two Hermes servers with different thematic units, one student.
    let mut b = WorldBuilder::new(11);
    let geo = b.add_server(
        ServerId::new(0),
        LinkSpec::wan(8_000_000, 10),
        ServerConfig::default(),
    );
    let bio = b.add_server(
        ServerId::new(1),
        LinkSpec::wan(8_000_000, 18),
        ServerConfig::default(),
    );
    let student = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(11);

    let mut rng = SimRng::seed_from_u64(1);
    let shape = LessonShape {
        images: 1,
        image_secs: 3,
        narrated_clip_secs: Some(5),
        closing_audio_secs: None,
    };
    let geo_lessons = install_course(
        sim.app_mut().server_mut(geo),
        "Geography",
        &["rivers", "mountains", "erosion"],
        10,
        2,
        shape,
        &mut rng,
    );
    let bio_lessons = install_course(
        sim.app_mut().server_mut(bio),
        "Biology",
        &["cells", "erosion", "soil life"],
        30,
        1,
        shape,
        &mut rng,
    );
    println!(
        "installed {} geography lessons on srv-0, {} biology lessons on srv-1",
        geo_lessons.len(),
        bio_lessons.len()
    );

    // Connect to the geography server and view lesson 1.
    sim.with_api(|w, api| {
        w.client_mut(student)
            .connect(api, geo, Some(geo_lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(15));

    // Search the whole service for "erosion" — hits on BOTH servers.
    let query = sim.with_api(|w, api| w.client_mut(student).search(api, "erosion"));
    sim.run_until(MediaTime::from_secs(17));
    {
        let c = sim.app().client(student);
        let hits = c.search_results.get(&query).expect("search results");
        println!("search 'erosion' → {} hits:", hits.len());
        for h in hits {
            println!("  {} on {}: {}", h.document, h.server, h.title);
        }
        assert!(hits.iter().any(|h| h.server == ServerId::new(1)));
    }

    // Follow an explorational link to the biology server (suspend + migrate).
    sim.with_api(|w, api| {
        w.client_mut(student)
            .follow_link(api, LinkTarget::Remote(ServerId::new(1), bio_lessons[0]));
    });
    sim.run_until(MediaTime::from_secs(40));
    {
        let c = sim.app().client(student);
        assert!(
            c.completed.iter().any(|(d, _, _)| *d == bio_lessons[0]),
            "biology lesson completed: {:?}",
            c.completed
        );
        println!("migrated to srv-1 and completed {}", bio_lessons[0]);
    }

    // Ask the tutor a question; the tutor replies pointing at lesson 2.
    sim.with_api(|w, api| {
        w.client_mut(student).send_mail(
            api,
            MailMessage {
                from: "user@hermes".into(),
                to: "tutor@hermes".into(),
                subject: "soil life".into(),
                body: "Which lesson explains soil organisms?".into(),
                attachments: vec![],
            },
        );
    });
    sim.run_until(MediaTime::from_secs(41));
    sim.with_api(|w, _| {
        let server = w.server_mut(bio);
        let inbox = server
            .mailboxes
            .get("tutor@hermes")
            .cloned()
            .unwrap_or_default();
        println!(
            "tutor inbox: {} message(s): '{}'",
            inbox.len(),
            inbox[0].subject
        );
        let reply = tutor_reply("user@hermes", "tutor@hermes", DocumentId::new(30));
        server
            .mailboxes
            .entry("user@hermes".into())
            .or_default()
            .push(reply);
    });
    sim.with_api(|w, api| w.client_mut(student).fetch_mail(api, "user@hermes"));
    sim.run_until(MediaTime::from_secs(42));

    let c = sim.app().client(student);
    println!(
        "student mailbox: {} message(s): '{}'",
        c.mailbox.len(),
        c.mailbox[0].body
    );
    println!("\nFig. 4 transitions (the migration is FollowRemoteLink → MigrationComplete):");
    for (from, event, to) in &c.machine.log {
        println!("  {from} --{event}--> {to}");
    }
    // Session ids count per server, so the srv-0 session the migration
    // suspended shares this id and this timeline.
    let (_, session) = c.session.expect("connected to srv-1");
    print!("{}", session_timeline(sim.obs(), session.raw()));
    assert!(c.errors.is_empty(), "{:?}", c.errors);
}
