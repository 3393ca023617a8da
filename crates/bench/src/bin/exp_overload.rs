#![allow(clippy::field_reassign_with_default)]
//! EXP-OVERLOAD — claim: the overload-resilience stack (per-replica circuit
//! breaking, hedged fetches and the mid-session degradation ladder) lets the
//! service ride out a ≥3.5× flash-crowd spike with bounded playout gaps,
//! while the all-off baseline measurably collapses under the same arrivals.
//!
//! An open-loop Poisson stream of session requests over a Zipf catalog
//! drives one server backed by a deliberately tight two-node media tier
//! (small service queues, slow disks, no segment cache, no stream sharing —
//! every session pays full tier cost). Partway through, the arrival rate
//! multiplies by 3.5×, either permanently (`step`) or for a window
//! (`spike`). The sweep crosses arrival pattern × overload mode
//! (off / hedge / ladder / full) and reports goodput, the playout-gap rate
//! and its across-session P99, shed and hedged fetch counts, breaker trips,
//! ladder activity and the P99 tier fetch latency.
//!
//! `--smoke` runs a reduced grid (spike only, off vs full, two seeds) for
//! the CI determinism gate; `--seed`/`--out` as in every experiment binary.

use hermes_bench::{clip_lesson, drive_pool, percentile, tight_tier, ExpOpts, FlashCrowd, Table};
use hermes_core::{MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, MediaTierConfig, ServerConfig, ServiceMsg, ServiceWorld,
    WorldBuilder,
};
use hermes_simnet::{LinkSpec, Sim, SimRng};

/// Which overload-control features are armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Everything off: the PR-1 service with a queueing media tier.
    Off,
    /// Circuit breaker + hedged fetches.
    Hedge,
    /// Circuit breaker + degradation ladder.
    Ladder,
    /// The full stack.
    Full,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Hedge => "hedge",
            Mode::Ladder => "ladder",
            Mode::Full => "full",
        }
    }

    fn tier(self) -> MediaTierConfig {
        let (breaker, hedging, ladder) = match self {
            Mode::Off => (false, false, false),
            Mode::Hedge => (true, true, false),
            Mode::Ladder => (true, false, true),
            Mode::Full => (true, true, true),
        };
        // The breaker's latency trip-wire sits above the full-queue delay
        // (queue 24 × ~70 ms/segment ≈ 1.7 s): under a symmetric flash crowd
        // every replica queues alike, and tripping on shared queueing would
        // only strangle throughput. The error-rate wire still catches shed
        // storms and sick nodes.
        let mut breaker_cfg = hermes_server::BreakerConfig::default();
        breaker_cfg.latency_threshold = MediaDuration::from_millis(3_000);
        MediaTierConfig {
            replication: 2,
            cache_bytes: 0, // every fetch reaches the tier: overload is real
            breaker,
            breaker_cfg,
            hedging,
            ladder,
            // One victim session per tick: 20/s walks a flash crowd down
            // the ladder fast enough to shed demand inside the spike.
            ladder_period: MediaDuration::from_millis(50),
            ..Default::default()
        }
    }
}

/// Arrival-rate shape of the flash crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    /// Rate steps up at `spike_at` and stays up.
    Step,
    /// Rate spikes for the crowd's `spike_len`, then returns to base.
    Spike,
}

impl Pattern {
    fn label(self) -> &'static str {
        match self {
            Pattern::Step => "step",
            Pattern::Spike => "spike",
        }
    }
}

/// Sweep dimensions (full vs `--smoke`).
struct Grid {
    patterns: Vec<Pattern>,
    modes: Vec<Mode>,
    seeds: Vec<u64>,
    /// The `Spike` schedule; `Step` drops its `spike_len`.
    crowd: FlashCrowd,
    pool: usize,
    clip_secs: i64,
}

impl Grid {
    fn new(opts: &ExpOpts) -> Self {
        if opts.smoke {
            Grid {
                patterns: vec![Pattern::Spike],
                modes: vec![Mode::Off, Mode::Full],
                seeds: opts.seeds(&[1, 2]),
                crowd: FlashCrowd {
                    base_rate: 2.0,
                    spike_mult: 3.5,
                    spike_at: MediaTime::from_secs(6),
                    spike_len: Some(MediaDuration::from_secs(8)),
                    horizon: MediaTime::from_secs(20),
                    catalog: 6,
                },
                pool: 60,
                clip_secs: 8,
            }
        } else {
            Grid {
                patterns: vec![Pattern::Step, Pattern::Spike],
                modes: vec![Mode::Off, Mode::Hedge, Mode::Ladder, Mode::Full],
                seeds: opts.seeds(&[1]),
                crowd: FlashCrowd {
                    base_rate: 2.5,
                    spike_mult: 3.5,
                    spike_at: MediaTime::from_secs(8),
                    spike_len: Some(MediaDuration::from_secs(10)),
                    horizon: MediaTime::from_secs(26),
                    catalog: 8,
                },
                pool: 90,
                clip_secs: 8,
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Point {
    arrivals: usize,
    completed: usize,
    rejected: usize,
    unserved: usize,
    gap_per_kframe: f64,
    gap_p99: f64,
    shed: u64,
    hedges: u64,
    hedge_wins: u64,
    trips: u64,
    degrades: u64,
    restores: u64,
    fetch_p99_ms: f64,
}

fn run_point(seed: u64, pattern: Pattern, mode: Mode, g: &Grid) -> Point {
    let mut b = WorldBuilder::new(seed);
    let mut cfg = ServerConfig::default();
    // No stream sharing: every session pays full media-tier cost, so the
    // flash crowd hits the tier head-on (sharing is EXP-SCALE's subject).
    cfg.sharing = SharingPolicy {
        mode: SharingMode::Off,
        ..Default::default()
    };
    let srv = b.add_server(ServerId::new(0), LinkSpec::lan(2_000_000_000), cfg);
    let nodes: Vec<NodeId> = (0..g.pool)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let media: Vec<NodeId> = (0..2)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    b.media_config(mode.tier());
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    tight_tier(&mut sim, &media, 300);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1A5);
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Crowd",
        &["overload"],
        1,
        g.crowd.catalog,
        clip_lesson(g.clip_secs),
        &mut rng,
    );
    sim.app_mut().distribute_media();

    let arrivals = FlashCrowd {
        spike_len: match pattern {
            Pattern::Step => None,
            Pattern::Spike => g.crowd.spike_len,
        },
        ..g.crowd.clone()
    }
    .arrivals(seed);

    let mut glitches = 0u64;
    let mut frames = 0u64;
    let mut session_gaps: Vec<f64> = Vec::new();
    // Drain: let every in-flight session play out.
    let end = g.crowd.horizon + MediaDuration::from_secs(g.clip_secs + 15);
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
                if s.frames_played > 0 {
                    session_gaps.push(s.glitches as f64 * 1_000.0 / s.frames_played as f64);
                }
            }
        },
    );
    let mut p = Point {
        arrivals: arrivals.len(),
        unserved: run.unserved,
        ..Point::default()
    };

    for &node in &nodes {
        let c = sim.app().client(node);
        p.completed += c.completed.len();
        p.rejected += c.errors.len();
    }
    if frames > 0 {
        p.gap_per_kframe = glitches as f64 * 1_000.0 / frames as f64;
    }
    p.gap_p99 = percentile(&session_gaps, 0.99);
    let server = sim.app().server(srv);
    let tier = server.media.as_ref().expect("media tier not deployed");
    p.shed = tier.stats.busy;
    p.hedges = tier.stats.hedges;
    p.hedge_wins = tier.stats.hedge_wins;
    p.trips = tier.stats.breaker_trips;
    p.degrades = tier.stats.ladder_degrades;
    p.restores = tier.stats.ladder_restores;
    p.fetch_p99_ms = tier.fetch_latency.quantile(0.99).as_micros() as f64 / 1_000.0;
    sim.app().audit_media_parts(&sim.stats());
    p
}

fn main() {
    let opts = ExpOpts::parse();
    let g = Grid::new(&opts);
    let mut out = opts.sink();
    out.line(&format!(
        "workload: open-loop Poisson arrivals over a Zipf(1.1) catalog of {} clip\n\
         lessons ({} s each), client pool {}, two-node media tier (queue 24,\n\
         1 ms + 300 ms/MiB service, no cache, no sharing); base rate {}/s with a\n\
         {:.1}× flash crowd from {} s ({}); arrivals for {} s plus drain",
        g.crowd.catalog,
        g.clip_secs,
        g.pool,
        g.crowd.base_rate,
        g.crowd.spike_mult,
        (g.crowd.spike_at - MediaTime::ZERO).as_micros() / 1_000_000,
        if g.patterns.contains(&Pattern::Step) {
            "step and spike"
        } else {
            "spike only"
        },
        (g.crowd.horizon - MediaTime::ZERO).as_micros() / 1_000_000,
    ));
    let mut t = Table::new(vec![
        "pattern",
        "mode",
        "seed",
        "arrivals",
        "done",
        "rej",
        "unserved",
        "gaps/kframe",
        "gap p99",
        "shed",
        "hedges(won)",
        "trips",
        "ladder -/+",
        "fetch p99 ms",
    ]);
    // (pattern, mode) → worst-seed gap stats for the claim checks.
    let mut worst_gap = std::collections::BTreeMap::new();
    let mut worst_p99 = std::collections::BTreeMap::new();
    let mut armed = std::collections::BTreeMap::new();
    for &pattern in &g.patterns {
        for &mode in &g.modes {
            for &seed in &g.seeds {
                let p = run_point(seed, pattern, mode, &g);
                t.row(vec![
                    pattern.label().to_string(),
                    mode.label().to_string(),
                    seed.to_string(),
                    p.arrivals.to_string(),
                    p.completed.to_string(),
                    p.rejected.to_string(),
                    p.unserved.to_string(),
                    format!("{:.2}", p.gap_per_kframe),
                    format!("{:.2}", p.gap_p99),
                    p.shed.to_string(),
                    format!("{}({})", p.hedges, p.hedge_wins),
                    p.trips.to_string(),
                    format!("{}/{}", p.degrades, p.restores),
                    format!("{:.1}", p.fetch_p99_ms),
                ]);
                let key = (pattern.label(), mode.label());
                let wg: &mut f64 = worst_gap.entry(key).or_insert(0f64);
                *wg = wg.max(p.gap_per_kframe);
                let wp: &mut f64 = worst_p99.entry(key).or_insert(0f64);
                *wp = wp.max(p.gap_p99);
                let a: &mut u64 = armed.entry(key).or_insert(0);
                *a += p.trips + p.hedges + p.degrades;
            }
        }
    }
    out.table(
        "EXP-OVERLOAD — flash-crowd resilience vs arrival pattern × overload mode",
        &t,
    );
    out.line(
        "expected shape: with everything off the spike saturates the tier's serving\n\
         queues — fetch latency and sheds climb and playout gaps spread across most\n\
         sessions; hedging reroutes the latency tail to the sibling replica, the\n\
         ladder sheds decode work mid-session, and the full stack keeps the gap\n\
         P99 bounded through the same crowd.",
    );

    // The headline claim per pattern: the full stack keeps worst-seed gap
    // rates strictly below the all-off baseline through a ≥3.5× crowd, and
    // its control loops actually engaged (trips + hedges + ladder steps).
    for &pattern in &g.patterns {
        let k = |m: &'static str| (pattern.label(), m);
        let off = worst_gap[&k("off")];
        let full = worst_gap[&k("full")];
        out.line(&format!(
            "claim @ {} ×{:.1}: gaps/kframe {:.2} → {:.2}, session gap P99 {:.2} → {:.2}",
            pattern.label(),
            g.crowd.spike_mult,
            off,
            full,
            worst_p99[&k("off")],
            worst_p99[&k("full")],
        ));
        assert!(
            armed[&k("full")] > 0,
            "overload stack never engaged under the {} crowd",
            pattern.label()
        );
        assert!(
            full < off,
            "full stack did not beat the baseline gap rate: {full} vs {off}"
        );
        if !opts.smoke {
            assert!(
                off >= 2.0 * full.max(0.5),
                "baseline did not measurably collapse: off {off} vs full {full}"
            );
        }
    }
}
