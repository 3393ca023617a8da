#![allow(clippy::field_reassign_with_default)]
//! EXP-SCALE — claim: stream sharing makes server cost sublinear in the
//! audience size.
//!
//! An open-loop Poisson stream of session requests over a Zipf(s, N)
//! lesson catalog drives one server at rates that reach hundreds of
//! concurrent sessions. The sweep crosses arrival rate × Zipf skew ×
//! sharing policy (off / batching / batching+patching) and reports server
//! trunk egress, SAN-link utilization, startup latency, admission
//! rejections and the playout-gap rate. Without sharing, egress grows
//! linearly with the audience; batching merges same-window requests for a
//! title onto one multicast flow, and patching additionally absorbs late
//! arrivals, so egress flattens as skew concentrates requests on hot
//! titles.
//!
//! `--smoke` runs a reduced grid (two low rates, two seeds) for the CI
//! determinism gate; `--seed`/`--out` as in every experiment binary.

use hermes_bench::{clip_lesson, drive_pool, session_arrivals, ExpOpts, Table, ZipfCatalog};
use hermes_core::{MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, ServerConfig, ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::{LinkSpec, Sim, SimRng};

/// Sweep dimensions (full vs `--smoke`).
struct Grid {
    rates: Vec<f64>,
    skews: Vec<f64>,
    seeds: Vec<u64>,
    arrival_horizon: MediaTime,
    pool: usize,
    catalog: usize,
    clip_secs: i64,
}

impl Grid {
    fn new(opts: &ExpOpts) -> Self {
        if opts.smoke {
            Grid {
                rates: vec![3.0, 6.0],
                skews: vec![1.2],
                seeds: opts.seeds(&[1, 2]),
                arrival_horizon: MediaTime::from_secs(20),
                pool: 90,
                catalog: 8,
                clip_secs: 8,
            }
        } else {
            Grid {
                rates: vec![12.0, 50.0],
                skews: vec![0.6, 1.2],
                seeds: opts.seeds(&[1]),
                arrival_horizon: MediaTime::from_secs(45),
                pool: 800,
                catalog: 16,
                clip_secs: 10,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Point {
    arrivals: usize,
    completed: usize,
    rejected: usize,
    unserved: usize,
    peak_concurrent: usize,
    egress_bytes: u64,
    san_util: f64,
    mean_startup_ms: f64,
    gap_per_kframe: f64,
    groups: u64,
    mcast_frames: u64,
}

fn mode_label(mode: SharingMode) -> &'static str {
    match mode {
        SharingMode::Off => "off",
        SharingMode::Batching => "batch",
        SharingMode::BatchingPatching => "batch+patch",
    }
}

fn run_point(seed: u64, rate: f64, skew: f64, mode: SharingMode, g: &Grid) -> Point {
    let mut b = WorldBuilder::new(seed);
    let mut cfg = ServerConfig::default();
    cfg.sharing = SharingPolicy {
        mode,
        window: MediaDuration::from_millis(2_000),
        max_patch: MediaDuration::from_secs(4),
        hot_rank: 4,
    };
    let srv = b.add_server(ServerId::new(0), LinkSpec::lan(2_000_000_000), cfg);
    let nodes: Vec<NodeId> = (0..g.pool)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let media: Vec<NodeId> = (0..4)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC0FFEE);
    // Clip-at-zero lessons: the continuous flow starts the moment a group
    // opens, so sharing covers the whole lesson and patches are meaningful.
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Scale",
        &["load"],
        1,
        g.catalog,
        clip_lesson(g.clip_secs),
        &mut rng,
    );
    sim.app_mut().distribute_media();

    // The same seed gives the same schedule for every sharing mode, so
    // mode columns are directly comparable.
    let catalog = ZipfCatalog::new(g.catalog, skew);
    let arrivals = session_arrivals(seed, rate, g.arrival_horizon, &catalog);

    let mut glitches = 0u64;
    let mut frames = 0u64;
    // Drain: let every in-flight session play out.
    let end = g.arrival_horizon + MediaDuration::from_secs(g.clip_secs + 15);
    let run = drive_pool(
        &mut sim,
        &nodes,
        &arrivals,
        end,
        |a| (srv, lessons[a.rank]),
        |c| {
            if let Some(pres) = &c.presentation {
                let s = pres.engine.total_stats();
                glitches += s.glitches;
                frames += s.frames_played;
            }
        },
    );
    let mut p = Point {
        arrivals: arrivals.len(),
        unserved: run.unserved,
        peak_concurrent: run.peak_concurrent,
        ..Point::default()
    };

    let mut startup_us = 0f64;
    for &node in &nodes {
        let c = sim.app().client(node);
        p.completed += c.completed.len();
        p.rejected += c.errors.len();
        for (_, startup, _) in &c.completed {
            startup_us += startup.as_micros() as f64;
        }
    }
    if p.completed > 0 {
        p.mean_startup_ms = startup_us / p.completed as f64 / 1_000.0;
    }
    if frames > 0 {
        p.gap_per_kframe = glitches as f64 * 1_000.0 / frames as f64;
    }
    p.egress_bytes = sim
        .net()
        .link(srv, NodeId::new(0))
        .expect("server trunk")
        .stats
        .bytes_sent;
    let secs = (end - MediaTime::ZERO).as_micros() as f64 / 1e6;
    p.san_util = media
        .iter()
        .map(|&m| {
            let l = sim.net().link(m, NodeId::new(0)).expect("SAN link");
            l.stats.bytes_sent as f64 * 8.0 / (l.spec.bandwidth_bps as f64 * secs)
        })
        .sum::<f64>()
        / media.len() as f64;
    let stats = sim.app().server(srv).sharing_stats;
    p.groups = stats.groups_opened;
    p.mcast_frames = stats.mcast_frames;
    p
}

fn main() {
    let opts = ExpOpts::parse();
    let g = Grid::new(&opts);
    let mut out = opts.sink();
    out.line(&format!(
        "workload: open-loop Poisson arrivals over a Zipf catalog of {} clip lessons\n\
         ({} s each, clip at scenario zero), client pool {}, 4-node media tier,\n\
         2 Gbps server trunk; arrivals for {} s plus drain; batching window 2 s,\n\
         patch bound 4 s, hot rank 4",
        g.catalog,
        g.clip_secs,
        g.pool,
        (g.arrival_horizon - MediaTime::ZERO).as_micros() / 1_000_000,
    ));
    let modes = [
        SharingMode::Off,
        SharingMode::Batching,
        SharingMode::BatchingPatching,
    ];
    let mut t = Table::new(vec![
        "rate/s",
        "zipf s",
        "policy",
        "seed",
        "arrivals",
        "peak",
        "done",
        "rej",
        "unserved",
        "egress MB",
        "SAN util",
        "startup ms",
        "gaps/kframe",
        "groups",
        "mcast",
    ]);
    // (rate, skew, mode) → egress summed over seeds, gap rate worst-case.
    let mut egress = std::collections::BTreeMap::new();
    let mut gaps = std::collections::BTreeMap::new();
    for &rate in &g.rates {
        for &skew in &g.skews {
            for &mode in &modes {
                for &seed in &g.seeds {
                    let p = run_point(seed, rate, skew, mode, &g);
                    t.row(vec![
                        format!("{rate:.0}"),
                        format!("{skew:.1}"),
                        mode_label(mode).to_string(),
                        seed.to_string(),
                        p.arrivals.to_string(),
                        p.peak_concurrent.to_string(),
                        p.completed.to_string(),
                        p.rejected.to_string(),
                        p.unserved.to_string(),
                        format!("{:.1}", p.egress_bytes as f64 / 1e6),
                        format!("{:.3}", p.san_util),
                        format!("{:.0}", p.mean_startup_ms),
                        format!("{:.2}", p.gap_per_kframe),
                        p.groups.to_string(),
                        p.mcast_frames.to_string(),
                    ]);
                    let key = (rate.to_bits(), skew.to_bits(), mode_label(mode));
                    *egress.entry(key).or_insert(0u64) += p.egress_bytes;
                    let worst: &mut f64 = gaps.entry(key).or_insert(0f64);
                    *worst = worst.max(p.gap_per_kframe);
                }
            }
        }
    }
    out.table(
        "EXP-SCALE — egress & quality vs arrival rate × Zipf skew × sharing policy",
        &t,
    );
    out.line(
        "expected shape: with sharing off, egress grows linearly with the arrival\n\
         rate; batching flattens it on skewed catalogs (hot titles batch well) and\n\
         patching flattens it further by absorbing late joiners; startup and the\n\
         gap rate stay level because members ride the shared flow from a buffer.",
    );

    // The headline claim: at the highest rate on the skewed catalog,
    // batching+patching cuts server egress ≥ 40% versus sharing-off without
    // worsening the playout-gap rate.
    let top_rate = g.rates.iter().cloned().fold(f64::MIN, f64::max);
    for &skew in g.skews.iter().filter(|&&s| s >= 1.0) {
        let k = |m: &'static str| (top_rate.to_bits(), skew.to_bits(), m);
        let off = egress[&k("off")] as f64;
        let patched = egress[&k("batch+patch")] as f64;
        let cut = 1.0 - patched / off;
        out.line(&format!(
            "claim @ rate {top_rate:.0}/s, s={skew:.1}: egress cut {:.0}% \
             (off {:.1} MB → batch+patch {:.1} MB), gap rate {:.2} → {:.2} per kframe",
            cut * 100.0,
            off / 1e6,
            patched / 1e6,
            gaps[&k("off")],
            gaps[&k("batch+patch")],
        ));
        if opts.smoke {
            assert!(
                patched < off,
                "sharing failed to reduce egress: {patched} vs {off}"
            );
        } else {
            assert!(
                cut >= 0.40,
                "egress cut below 40%: off {off} vs batch+patch {patched}"
            );
        }
        assert!(
            gaps[&k("batch+patch")] <= gaps[&k("off")] + 0.5,
            "sharing worsened the gap rate: {} vs {}",
            gaps[&k("batch+patch")],
            gaps[&k("off")],
        );
    }
}
