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

use hermes_bench::{ExpOpts, FlashCrowd, Scenario, Table};
use hermes_core::{MediaDuration, MediaTime};
use hermes_service::MediaTierConfig;

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
        MediaTierConfig {
            replication: 2,
            cache_bytes: 0, // every fetch reaches the tier: overload is real
            breaker,
            breaker_latency: MediaDuration::from_millis(3_000),
            hedging,
            ladder,
            // One victim session per tick: 20/s walks a flash crowd down
            // the ladder fast enough to shed demand inside the spike.
            ladder_period: MediaDuration::from_millis(50),
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

/// Run one grid point and add its row to `table`; returns the claim
/// inputs: gaps/kframe, session gap P99 and the control actions taken.
fn run_point(
    seed: u64,
    pattern: Pattern,
    mode: Mode,
    g: &Grid,
    table: &mut Table,
) -> (f64, f64, u64) {
    // One server on a two-node tight tier, sharing off: every session pays
    // full media-tier cost, so the flash crowd hits the tier head-on
    // (sharing is EXP-SCALE's subject).
    let mut crowd = Scenario {
        pool: g.pool,
        tier: mode.tier(),
        tag: "overload",
        lessons: g.crowd.catalog,
        clip_secs: g.clip_secs,
        ..Scenario::default()
    }
    .build(seed);
    let arrivals = FlashCrowd {
        spike_len: match pattern {
            Pattern::Step => None,
            Pattern::Spike => g.crowd.spike_len,
        },
        ..g.crowd.clone()
    }
    .arrivals(seed);
    let t = crowd.drive(&arrivals, g.crowd.horizon);
    let tier = crowd.sim.app().server(crowd.servers[0]).media.as_ref();
    let tier = tier.expect("media tier not deployed");
    let s = tier.stats;
    let (gap, p99) = (t.gap_per_kframe(), t.gap_p99());
    table.row(vec![
        pattern.label().to_string(),
        mode.label().to_string(),
        seed.to_string(),
        arrivals.len().to_string(),
        t.completed.to_string(),
        t.rejected.to_string(),
        t.pool.unserved.to_string(),
        format!("{gap:.2}"),
        format!("{p99:.2}"),
        s.busy.to_string(),
        format!("{}({})", s.hedges, s.hedge_wins),
        s.breaker_trips.to_string(),
        format!("{}/{}", s.ladder_degrades, s.ladder_restores),
        format!(
            "{:.1}",
            tier.fetch_latency.quantile(0.99).as_micros() as f64 / 1_000.0
        ),
    ]);
    crowd.judge();
    (gap, p99, s.breaker_trips + s.hedges + s.ladder_degrades)
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
    // (pattern, mode) → worst-seed (gap rate, gap P99) and the control
    // actions summed over seeds, for the claim checks.
    let mut worst = std::collections::BTreeMap::new();
    for &pattern in &g.patterns {
        for &mode in &g.modes {
            for &seed in &g.seeds {
                let (gap, p99, armed) = run_point(seed, pattern, mode, &g, &mut t);
                let w = worst
                    .entry((pattern.label(), mode.label()))
                    .or_insert((0f64, 0f64, 0u64));
                *w = (w.0.max(gap), w.1.max(p99), w.2 + armed);
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
        let (off, off_p99, _) = worst[&k("off")];
        let (full, full_p99, armed) = worst[&k("full")];
        out.line(&format!(
            "claim @ {} ×{:.1}: gaps/kframe {off:.2} → {full:.2}, \
             session gap P99 {off_p99:.2} → {full_p99:.2}",
            pattern.label(),
            g.crowd.spike_mult,
        ));
        assert!(
            armed > 0,
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
