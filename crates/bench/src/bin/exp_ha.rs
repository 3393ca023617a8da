#![allow(clippy::field_reassign_with_default)]
//! EXP-HA — claim: the control plane survives the loss of its own host.
//! The fleet controller's server is crashed at the peak of a flash crowd;
//! with failover on, a successor is elected within the lease bound, the
//! controller epoch advances exactly once, no stale-epoch command is ever
//! actuated, and the fleet ends the crowd with strictly higher aggregate
//! utility and a strictly lower session gap P99 than the same sweep with
//! the controller pinned to its host (it dies, and grading, pricing and
//! elastic scale-out silently stop — the controller as a single point of
//! failure).
//!
//! The deployment separates the management tier from the data path so the
//! crash isolates the control function: three multimedia servers, with the
//! controller hosted on the first while all lessons (and hence all
//! sessions) live on the other two. Four media nodes back the fleet, two
//! of them standby — only a live controller can activate them, which is
//! exactly what the crowd needs. The host crashes shortly after the spike
//! begins (before sustained pressure can trigger the scale-out) and
//! restarts a few seconds later: with failover it rejoins as a follower
//! and learns the successor's epoch from the lease beats; pinned, it
//! rejoins as nothing at all.
//!
//! `--smoke` runs two seeds for the CI determinism gate; `--seed`/`--out`/
//! `--json` as in every experiment binary.

use hermes_bench::{percentile, ExpOpts, FlashCrowd, Scenario, Table};
use hermes_control::{ControllerConfig, ControllerStats, LEASE_BEAT, LEASE_TIMEOUT};
use hermes_core::{MediaDuration, MediaTime};
use hermes_service::MediaTierConfig;
use hermes_simnet::FaultPlan;

/// Whether the controller can move when its host dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Failover on: lease beats, K-missed-beats election, fenced epochs.
    Ha,
    /// Controller pinned to its host (the pre-HA single point of failure).
    Pinned,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Ha => "ha",
            Mode::Pinned => "pinned",
        }
    }
}

/// Sweep dimensions (full vs `--smoke`).
struct Grid {
    modes: Vec<Mode>,
    seeds: Vec<u64>,
    crowd: FlashCrowd,
    crash_at: MediaTime,
    crash_down: MediaDuration,
    pool: usize,
    clip_secs: i64,
}

impl Grid {
    fn new(opts: &ExpOpts) -> Self {
        let (seeds, pool, catalog) = if opts.smoke {
            (opts.seeds(&[1, 2]), 150, 6)
        } else {
            (opts.seeds(&[1, 2, 3]), 200, 8)
        };
        // EXP-CONTROL's chronic-overload rig (same base rate, ×9 spike and
        // media-tier knobs — the regime where closed-loop control provably
        // pays now that the media fetch is flow-controlled: at the old ×5 two
        // nodes carry the crowd and a live controller's degrades only cost
        // utility), with the spike moved early so the controller host dies
        // 0.3 s into the crowd, BEFORE its first possible scale-out: every
        // decisive control move is needed after the host is dead, and the
        // two modes genuinely diverge.
        let spike_at = MediaTime::from_secs(2);
        Grid {
            modes: vec![Mode::Ha, Mode::Pinned],
            seeds,
            crowd: FlashCrowd {
                base_rate: if opts.smoke { 2.0 } else { 2.5 },
                spike_mult: 9.0,
                spike_at,
                spike_len: Some(MediaDuration::from_secs(if opts.smoke { 8 } else { 10 })),
                horizon: MediaTime::from_secs(if opts.smoke { 16 } else { 20 }),
                catalog,
            },
            crash_at: spike_at + MediaDuration::from_millis(300),
            crash_down: MediaDuration::from_secs(4),
            pool,
            clip_secs: 8,
        }
    }
}

/// Run one grid point, add its row to `table` and check its failover
/// claims; returns its utility and session gap P99.
fn run_point(seed: u64, mode: Mode, g: &Grid, table: &mut Table) -> (f64, f64) {
    // Management host first, then the two session-bearing servers: the
    // lessons live on those only, so crashing the host takes out the
    // control function and nothing else. EXP-CONTROL's tight tier with
    // disks twice as slow, two of four media nodes on standby.
    let mut crowd = Scenario {
        servers: 3,
        pool: g.pool,
        media: 4,
        standby: 2,
        tier: MediaTierConfig {
            replication: 2,
            cache_bytes: 0,
            breaker: true,
            breaker_latency: MediaDuration::from_millis(3_000),
            hedging: true,
            ladder: false, // the controller is the only grading authority
            ..Default::default()
        },
        tight_ms_per_mib: Some(600),
        titles: &["Crowd A", "Crowd B"],
        tag: "ha",
        lessons: g.crowd.catalog,
        clip_secs: g.clip_secs,
        ..Scenario::default()
    }
    .build(seed);
    let host = crowd.servers[0];
    // Capacity-led tuning as in EXP-CONTROL: the decisive move after a
    // failover is scaling the standby pool out, not mass regrades — a high
    // queue target and a long dwell keep grading surgical while scale-out
    // triggers fast; the defaults' lease/warmup discipline applies.
    let ccfg = ControllerConfig {
        queue_target: 22.0,
        max_steps_per_tick: 1,
        dwell: MediaDuration::from_millis(2_500),
        calm: MediaDuration::from_millis(1_000),
        max_price: 1,
        scale_out_after: MediaDuration::from_millis(400),
        scale_dwell: MediaDuration::from_millis(1_500),
        scale_in_after: MediaDuration::from_secs(10),
        ..ControllerConfig::default()
    };
    let sim = &mut crowd.sim;
    match mode {
        Mode::Ha => sim.with_api(|w, api| w.enable_control(api, host, ccfg)),
        Mode::Pinned => sim.with_api(|w, api| w.enable_control_pinned(api, host, ccfg)),
    }
    // The failover drill: the controller host dies at the crowd's peak and
    // comes back a few seconds later.
    sim.install_faults(&FaultPlan::new().crash_for(host, g.crash_at, g.crash_down));

    let arrivals = g.crowd.arrivals(seed);
    let t = crowd.drive(&arrivals, g.crowd.horizon);
    // P99 over sessions of the starvation share of playout ticks, scaled
    // to glitch ticks per 1000 presented (bounded by 1000 — a ratio over
    // played frames alone degenerates for sessions the crowd starved before
    // they presented anything).
    let session_gaps: Vec<f64> = t
        .sessions
        .iter()
        .filter_map(|s| {
            let ticks = s.glitches + s.frames_played + s.duplicates_played;
            (ticks > 0).then(|| s.glitches as f64 * 1_000.0 / ticks as f64)
        })
        .collect();
    let p99 = percentile(&session_gaps, 0.99);
    // Summed over the fleet; `elect_ms` runs from the host crash to the
    // successor's election, `epoch` is the highest the fleet converged on.
    let (mut elections, mut fenced, mut stale, mut epoch, mut elect_ms) = (0, 0, 0, 0, 0.0);
    let mut c = ControllerStats::default();
    for &srv in &crowd.servers {
        let s = crowd.sim.app().server(srv);
        elections += s.ctrl_stats.elections;
        fenced += s.ctrl_stats.fence_drops;
        stale += s.ctrl_stats.stale_drops;
        epoch = epoch.max(s.election.fence());
        if let Some(at) = s.election.last_elected_at {
            elect_ms = (at - g.crash_at).as_micros() as f64 / 1_000.0;
        }
        if let Some(ctl) = &s.controller {
            c.scale_outs += ctl.stats.scale_outs;
            c.scale_ins += ctl.stats.scale_ins;
            c.degrades += ctl.stats.degrades;
            c.price_changes += ctl.stats.price_changes;
        }
    }
    fenced += crowd.sim.app().control_fence_drops;
    table.row(vec![
        mode.label().to_string(),
        seed.to_string(),
        arrivals.len().to_string(),
        t.completed.to_string(),
        t.rejected.to_string(),
        t.pool.unserved.to_string(),
        format!("{:.1}", t.utility),
        format!("{p99:.2}"),
        elections.to_string(),
        format!("{elect_ms:.0}"),
        epoch.to_string(),
        fenced.to_string(),
        stale.to_string(),
        c.scale_outs.to_string(),
        c.degrades.to_string(),
    ]);
    match mode {
        Mode::Ha => {
            // Detection needs the lease to expire and the next watch tick
            // to notice: the lease timeout plus two beats of scheduling slack.
            let bound = LEASE_TIMEOUT + LEASE_BEAT + LEASE_BEAT;
            let lease_bound_ms = bound.as_micros() as f64 / 1_000.0;
            assert_eq!(
                elections, 1,
                "ha seed {seed}: expected exactly one failover election"
            );
            assert!(
                elect_ms > 0.0 && elect_ms <= lease_bound_ms,
                "ha seed {seed}: successor elected {elect_ms:.0} ms after the crash \
                 (lease bound {lease_bound_ms:.0} ms)",
            );
            assert_eq!(
                epoch, 2,
                "ha seed {seed}: fleet did not converge on the successor's epoch"
            );
            assert!(
                c.scale_outs + c.scale_ins + c.degrades + c.price_changes > 0,
                "ha seed {seed}: the successor never actuated"
            );
        }
        Mode::Pinned => {
            assert_eq!(elections, 0, "pinned seed {seed}: nobody may elect");
        }
    }
    // The judge's catalog includes controller legality: actuation epochs
    // never regress, no two controllers share an epoch, elections claim
    // fresh epochs, no command lands on a torn-down target.
    crowd.judge();
    (t.utility, p99)
}

fn main() {
    let opts = ExpOpts::parse();
    let g = Grid::new(&opts);
    let mut out = opts.sink();
    out.line(&format!(
        "workload: open-loop Poisson arrivals over a Zipf(1.1) catalog of {} clip\n\
         lessons ({} s each) on two session servers, client pool {}, media tier\n\
         of 4 nodes (2 active + 2 standby; queue 24, 1 ms + 600 ms/MiB, no cache,\n\
         no sharing); base rate {}/s with a {:.1}x flash crowd from {} s for {} s.\n\
         The fleet controller runs on a third, session-free server that crashes\n\
         at {} ms (0.3 s into the spike) and restarts {} s later. ha = lease/\n\
         election failover on; pinned = controller dies with its host.",
        g.crowd.catalog,
        g.clip_secs,
        g.pool,
        g.crowd.base_rate,
        g.crowd.spike_mult,
        (g.crowd.spike_at - MediaTime::ZERO).as_micros() / 1_000_000,
        g.crowd.spike_len.expect("a spike").as_micros() / 1_000_000,
        (g.crash_at - MediaTime::ZERO).as_micros() / 1_000,
        g.crash_down.as_micros() / 1_000_000,
    ));
    let mut t = Table::new(vec![
        "mode",
        "seed",
        "arrivals",
        "done",
        "rej",
        "unserved",
        "utility",
        "gap p99",
        "elections",
        "elect ms",
        "epoch",
        "fenced",
        "stale",
        "scale+",
        "grades-",
    ]);
    // mode → worst-seed (utility, gap P99).
    let mut worst = std::collections::BTreeMap::new();
    for &mode in &g.modes {
        for &seed in &g.seeds {
            let (utility, p99) = run_point(seed, mode, &g, &mut t);
            let w = worst.entry(mode.label()).or_insert((f64::MAX, 0f64));
            *w = (w.0.min(utility), w.1.max(p99));
        }
    }
    out.table(
        "EXP-HA — controller host crash at flash-crowd peak: failover vs pinned",
        &t,
    );
    out.line(
        "expected shape: pinned loses its controller 0.3 s into the\n\
         spike — no grading, no pricing, and the standby nodes stay dark, so\n\
         the crowd queues for two media nodes' credits, delivery stretches\n\
         past the drain and the gap tail saturates; in ha the\n\
         lowest live server id wins a majority vote within the lease bound,\n\
         the successor warms up on live reports, re-prices and scales out,\n\
         and every command a zombie could send is fenced by its stale epoch.",
    );
    let (ha_u, ha_p) = worst["ha"];
    let (pin_u, pin_p) = worst["pinned"];
    out.line(&format!(
        "claim @ x{:.1} crowd: aggregate utility (worst seed) {:.1} (pinned) -> {:.1} (ha), \
         session gap P99 (worst seed) {:.2} (pinned) -> {:.2} (ha)",
        g.crowd.spike_mult, pin_u, ha_u, pin_p, ha_p,
    ));
    assert!(
        ha_u > pin_u,
        "failover did not beat the pinned controller on aggregate utility: \
         {ha_u:.1} vs {pin_u:.1}"
    );
    assert!(
        ha_p < pin_p,
        "failover did not beat the pinned controller on gap P99: {ha_p:.2} vs {pin_p:.2}"
    );
    out.finish();
}
