#![allow(clippy::field_reassign_with_default)]
//! EXP-ADMIT — claim: admission combines the network condition, the
//! requested QoS and the pricing contract; "a user who pays more should be
//! serviced, even though it affects the other users".
//!
//! Offer Poisson-arriving lesson requests from a mixed population of
//! Economy / Standard / Premium clients over one shared 10 Mbps server
//! uplink, sweeping the offered load, and report per-class admission rates.

use hermes_bench::{clip_lesson, ExpOpts, Table};
use hermes_core::{MediaTime, PricingClass, ServerId};
use hermes_service::{install_course, ClientConfig, ServerConfig, WorldBuilder};
use hermes_simnet::{LinkSpec, SimRng};

/// One sweep point: `n_clients` clients each requesting a ~2.25 Mbps lesson,
/// arrivals spread over the first `spread_s` seconds.
fn run_point(n_clients: usize, seed: u64) -> Vec<(PricingClass, u64, u64)> {
    let mut b = WorldBuilder::new(seed);
    // The server's uplink is the shared bottleneck.
    let server = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(10_000_000),
        ServerConfig::default(),
    );
    let mut clients = Vec::new();
    for i in 0..n_clients {
        let class = match i % 3 {
            0 => PricingClass::Economy,
            1 => PricingClass::Standard,
            _ => PricingClass::Premium,
        };
        let mut cfg = ClientConfig::default();
        cfg.class = class;
        std::sync::Arc::make_mut(&mut cfg.form).class = class;
        clients.push((b.add_client(LinkSpec::lan(100_000_000), cfg), class));
    }
    let mut sim = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
    let lessons = install_course(
        sim.app_mut().server_mut(server),
        "Popular",
        &["demand"],
        1,
        1,
        clip_lesson(25),
        &mut rng,
    );
    // Poisson-ish arrivals over the first 5 seconds.
    let mut at = 0.0f64;
    for (node, _) in &clients {
        at += rng.exponential(5.0 / n_clients as f64);
        let node = *node;
        let doc = lessons[0];
        let when = MediaTime::from_micros((at * 1e6) as i64);
        sim.run_until(when);
        sim.with_api(|w, api| {
            w.client_mut(node).connect(api, server, Some(doc));
        });
    }
    sim.run_until(MediaTime::from_secs(40));
    let srv = sim.app().server(server);
    PricingClass::ALL
        .iter()
        .map(|c| {
            let s = srv.admission.stats.get(c).copied().unwrap_or_default();
            (*c, s.admitted, s.requests)
        })
        .collect()
}

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let seeds = opts.seeds(&[1, 2, 3]);
    out.line(
        "population: equal thirds Economy/Standard/Premium; each request needs\n\
         ~2.25 Mbps of a shared 10 Mbps server uplink (≈4 fit at full quality)",
    );
    let mut t = Table::new(vec![
        "offered sessions",
        "class",
        "admitted/requests",
        "admit rate",
    ]);
    for &n in &[3usize, 6, 9, 12, 18] {
        // Aggregate over three seeds.
        let mut agg: std::collections::BTreeMap<PricingClass, (u64, u64)> = Default::default();
        for &seed in &seeds {
            for (c, a, r) in run_point(n, seed) {
                let e = agg.entry(c).or_default();
                e.0 += a;
                e.1 += r;
            }
        }
        for c in PricingClass::ALL {
            let (a, r) = agg[&c];
            t.row(vec![
                n.to_string(),
                format!("{c:?}"),
                format!("{a}/{r}"),
                if r > 0 {
                    format!("{:.0}%", a as f64 * 100.0 / r as f64)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    out.table(
        "EXP-ADMIT — admission rate per pricing class vs offered load (3 seeds)",
        &t,
    );
    out.line(
        "expected shape: at low load everyone is admitted; as offered load grows the\n\
         Economy class (70% utilization ceiling) is rejected first, Standard (85%)\n\
         second, Premium (97%) last — 'a user who pays more should be serviced'.",
    );
}
