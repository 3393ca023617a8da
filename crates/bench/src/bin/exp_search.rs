//! EXP-SEARCH — claim (§6.2.2): a search fans out from the contacted server
//! to every other Hermes server; only matching lessons and their server
//! locations return to the user.
//!
//! Sweep the number of servers; measure result completeness and query
//! latency (request → merged response).

use hermes_bench::{clip_lesson, ExpOpts, Table};
use hermes_core::{MediaTime, ServerId};
use hermes_service::{install_course, ClientConfig, ServerConfig, WorldBuilder};
use hermes_simnet::{LinkSpec, SimRng};

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let base = opts.seed(0);
    let mut t = Table::new(vec![
        "servers",
        "lessons total",
        "matching",
        "hits returned",
        "servers in hits",
        "latency (ms)",
    ]);
    for &n_servers in &[1usize, 2, 4, 8] {
        let mut b = WorldBuilder::new(base + n_servers as u64);
        let mut server_nodes = Vec::new();
        for i in 0..n_servers {
            server_nodes.push(b.add_server(
                ServerId::new(i as u64),
                LinkSpec::wan(10_000_000, 5 + i as i64 * 3),
                ServerConfig::default(),
            ));
        }
        let client = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
        let mut sim = b.build(base + n_servers as u64);
        let mut rng = SimRng::seed_from_u64(base + 99);
        let shape = clip_lesson(4);
        // Each server holds 3 lessons; every second server's course mentions
        // the search token in its topic words.
        let mut total = 0;
        let mut matching = 0;
        for (i, node) in server_nodes.iter().enumerate() {
            let words: &[&str] = if i % 2 == 0 {
                &["glaciers", "ice"]
            } else {
                &["deserts", "sand"]
            };
            install_course(
                sim.app_mut().server_mut(*node),
                &format!("Course{i}"),
                words,
                (100 * (i + 1)) as u64,
                3,
                shape,
                &mut rng,
            );
            total += 3;
            if i % 2 == 0 {
                matching += 3;
            }
        }
        sim.with_api(|w, api| {
            w.client_mut(client).connect(api, server_nodes[0], None);
        });
        sim.run_until(MediaTime::from_secs(2));
        let t0 = sim.now();
        let q = sim.with_api(|w, api| w.client_mut(client).search(api, "glaciers"));
        // Run until the response lands.
        let mut latency_ms = None;
        for step in 1..200 {
            sim.run_until(t0 + hermes_core::MediaDuration::from_millis(step * 5));
            if sim.app().client(client).search_results.contains_key(&q) {
                latency_ms = Some(((sim.now() - t0).as_millis()) as u64);
                break;
            }
        }
        let c = sim.app().client(client);
        let hits = c.search_results.get(&q).cloned().unwrap_or_default();
        let servers_in_hits: std::collections::BTreeSet<ServerId> =
            hits.iter().map(|h| h.server).collect();
        assert_eq!(hits.len(), matching, "all matching lessons found");
        t.row(vec![
            n_servers.to_string(),
            total.to_string(),
            matching.to_string(),
            hits.len().to_string(),
            servers_in_hits.len().to_string(),
            latency_ms
                .map(|l| l.to_string())
                .unwrap_or("timeout".into()),
        ]);
    }
    out.table(
        "EXP-SEARCH — distributed search fan-out (token 'glaciers')",
        &t,
    );
    out.line(
        "expected shape: hits equal the matching lessons exactly at every scale;\n\
         latency grows with the slowest fanned-out server (the merge waits for all\n\
         partial results, §6.2.2).",
    );
}
