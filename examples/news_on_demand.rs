//! A multimedia news service / electronic magazine — one of the paper's
//! motivating applications ("multimedia news services, electronic
//! magazines"). Articles mix text, images and clips; explorational links
//! lead to related stories; the storyboard renderer shows the desktop over
//! time.
//!
//! ```sh
//! cargo run --example news_on_demand
//! ```

use hermes_od::client::storyboard;
use hermes_od::core::{DocumentId, MediaKind, MediaTime, PlayoutSchedule, ServerId};
use hermes_od::obs::session_timeline;
use hermes_od::service::{ClientConfig, ServerConfig, WorldBuilder};
use hermes_od::simnet::{LinkSpec, SimRng};

fn front_page() -> &'static str {
    r#"
<TITLE> The Daily Hypermedia </TITLE>
<H1> Evening Edition </H1>
<TEXT> Tonight: the broadband rollout reaches the city archive, and the
orchestra streams its first on-demand concert. </TEXT>
<PAR>
<IMG> SOURCE=img/rollout.jpg STARTIME=0s DURATION=8s WHERE=20,60 WIDTH=320 HEIGHT=200 ID=1 NOTE="fiber rollout" </IMG>
<IMG> SOURCE=img/concert.jpg STARTIME=8s DURATION=8s WHERE=20,60 WIDTH=320 HEIGHT=200 ID=2 NOTE="concert hall" </IMG>
<AU_VI> STARTIME=16s DURATION=10s SOURCE=au/anchor.pcm SOURCE=vi/anchor.mpg ID=3 ID=4 NOTE="anchor segment" </AU_VI>
<HLINK> TO=doc2 KIND=EXP NOTE="full rollout story" </HLINK>
<HLINK> TO=doc3 KIND=EXP NOTE="concert review" </HLINK>
<HLINK> AT=26s TO=doc2 KIND=SEQ NOTE="continue to the lead story" </HLINK>
"#
}

fn lead_story() -> &'static str {
    r#"
<TITLE> Fiber Reaches the Archive </TITLE>
<H2> Infrastructure </H2>
<TEXT> The city archive connects at 155 Mbps, putting forty years of
newsreels a hyperlink away. <B> On-demand access begins Monday. </B> </TEXT>
<PAR>
<IMG> SOURCE=img/archive.jpg STARTIME=0s DURATION=6s ID=1 </IMG>
<AU> SOURCE=au/interview.pcm STARTIME=6s DURATION=8s ID=2 NOTE="archivist interview" </AU>
"#
}

fn review() -> &'static str {
    r#"
<TITLE> Concert Review </TITLE>
<H2> Culture </H2>
<TEXT> The orchestra's on-demand premiere survived a congested uplink with
one barely-noticeable quality dip. <I> Our critic approves. </I> </TEXT>
<AU> SOURCE=au/excerpt.pcm STARTIME=0s DURATION=6s ID=1 NOTE="excerpt" </AU>
"#
}

fn main() {
    let mut b = WorldBuilder::new(61);
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let reader = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = b.build(61);
    let mut rng = SimRng::seed_from_u64(62);

    // Install the newsroom's media objects + articles.
    {
        use hermes_od::core::{Encoding, MediaDuration};
        let srv = sim.app_mut().server_mut(server);
        let img = srv.db.store_mut(MediaKind::Image);
        for key in ["img/rollout.jpg", "img/concert.jpg", "img/archive.jpg"] {
            img.add(
                key,
                Encoding::Jpeg,
                MediaDuration::from_secs(8),
                rng.range_u64(0, 1 << 60),
            );
        }
        let au = srv.db.store_mut(MediaKind::Audio);
        for (key, secs) in [
            ("au/anchor.pcm", 10),
            ("au/interview.pcm", 8),
            ("au/excerpt.pcm", 6),
        ] {
            au.add(
                key,
                Encoding::Pcm,
                MediaDuration::from_secs(secs),
                rng.range_u64(0, 1 << 60),
            );
        }
        srv.db.store_mut(MediaKind::Video).add(
            "vi/anchor.mpg",
            Encoding::Mpeg,
            MediaDuration::from_secs(10),
            rng.range_u64(0, 1 << 60),
        );
        srv.db
            .add_document(DocumentId::new(1), front_page(), "front page")
            .unwrap();
        srv.db
            .add_document(DocumentId::new(2), lead_story(), "lead story")
            .unwrap();
        srv.db
            .add_document(DocumentId::new(3), review(), "review")
            .unwrap();
    }

    // Print the front page's storyboard (what the reader will see when).
    {
        let doc = sim
            .app()
            .server(server)
            .db
            .document(DocumentId::new(1))
            .unwrap();
        let schedule = PlayoutSchedule::from_scenario(&doc.scenario);
        println!("=== front page storyboard (sampled every 4 s) ===");
        println!("{}", storyboard(&doc.scenario, &schedule, 4_000));
    }

    // Read the front page; mid-anchor-segment, jump to the concert review
    // (an explorational link), then return via the topic list.
    sim.with_api(|w, api| {
        w.client_mut(reader)
            .connect(api, server, Some(DocumentId::new(1)));
    });
    sim.run_until(MediaTime::from_secs(20));
    sim.with_api(|w, api| {
        w.client_mut(reader)
            .follow_link(api, hermes_od::core::LinkTarget::Local(DocumentId::new(3)));
    });
    sim.run_until(MediaTime::from_secs(35));

    let c = sim.app().client(reader);
    assert!(c.errors.is_empty(), "{:?}", c.errors);
    println!("=== reader session ===");
    for (from, event, to) in &c.machine.log {
        println!("  {from} --{event}--> {to}");
    }
    let (_, session) = c.session.expect("still connected");
    print!("{}", session_timeline(sim.obs(), session.raw()));
    assert!(c.completed.iter().any(|(d, _, _)| *d == DocumentId::new(3)));
    println!("\nexplorational link followed mid-presentation; review completed ✓");
}
