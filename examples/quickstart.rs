//! Quickstart: serve and play the paper's Fig. 2 scenario end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds a one-server / one-client deployment on a clean 10 Mbps network,
//! connects, subscribes, requests the document and plays it out, printing
//! the playout timeline, the browser's Fig. 4 transitions, the session's
//! obs timeline and the QoS statistics.

use hermes_od::core::{DocumentId, MediaTime, PlayoutSchedule, ServerId};
use hermes_od::obs::session_timeline;
use hermes_od::service::{install_figure2, ClientConfig, ServerConfig, WorldBuilder};
use hermes_od::simnet::{LinkSpec, SimRng};

fn main() {
    // 1. Build the deployment: one multimedia server, one browser.
    let mut builder = WorldBuilder::new(42);
    let server = builder.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let client = builder.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
    let mut sim = builder.build(42);

    // 2. Install the Fig. 2 document and its media objects.
    let mut rng = SimRng::seed_from_u64(7);
    install_figure2(
        sim.app_mut().server_mut(server),
        DocumentId::new(1),
        &mut rng,
    );

    // Show the authored scenario and its derived playout schedule.
    let scenario = sim
        .app()
        .server(server)
        .db
        .document(DocumentId::new(1))
        .unwrap()
        .scenario
        .clone();
    println!("=== scenario: {} ===", scenario.title);
    let schedule = PlayoutSchedule::from_scenario(&scenario);
    println!("{}", schedule.timeline_table());

    // 3. Connect and request the document; the client subscribes on the fly.
    sim.with_api(|world, api| {
        world
            .client_mut(client)
            .connect(api, server, Some(DocumentId::new(1)));
    });

    // 4. Run the session to completion (Fig. 2 lasts 19 s).
    sim.run_until(MediaTime::from_secs(30));

    // 5. Report.
    let c = sim.app().client(client);
    println!("=== Fig. 4 transitions ===");
    for (from, event, to) in &c.machine.log {
        println!("  {from} --{event}--> {to}");
    }
    let (_, session) = c.session.expect("still connected");
    println!("=== {}", session_timeline(sim.obs(), session.raw()));
    let (doc, startup, skew) = c.completed[0];
    println!("=== result ===");
    println!("  document        : {doc}");
    println!("  startup delay   : {startup} (intentional prefill)");
    println!("  max A/V skew    : {skew}");
    let p = c.presentation.as_ref().unwrap();
    let stats = p.engine.total_stats();
    println!(
        "  frames played   : {} ({} duplicated, {} glitches, {} dropped)",
        stats.frames_played, stats.duplicates_played, stats.glitches, stats.frames_dropped
    );
    let net = sim.net().total_stats();
    println!(
        "  network         : {} packets / {} bytes sent, {} lost",
        net.packets_sent, net.bytes_sent, net.packets_lost
    );
    assert!(c.errors.is_empty(), "session errors: {:?}", c.errors);
}
