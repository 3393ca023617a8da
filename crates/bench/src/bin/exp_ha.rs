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

use hermes_bench::{clip_lesson, drive_pool, percentile, tight_tier, ExpOpts, FlashCrowd, Table};
use hermes_control::ControllerConfig;
use hermes_core::{MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, MediaTierConfig, ServerConfig, ServiceMsg, ServiceWorld,
    WorldBuilder,
};
use hermes_simnet::obs::invariants::check_controller_legality;
use hermes_simnet::{FaultPlan, LinkSpec, Sim, SimRng};

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

#[derive(Debug, Clone, Default)]
struct Point {
    arrivals: usize,
    completed: usize,
    rejected: usize,
    unserved: usize,
    utility: f64,
    /// P99 over sessions of the starvation share of playout ticks,
    /// scaled to glitch ticks per 1000 presented (bounded by 1000 —
    /// a ratio over played frames alone degenerates for sessions the
    /// crowd starved before they presented anything).
    gap_p99: f64,
    elections: u64,
    /// Milliseconds from the host crash to the successor's election.
    elect_ms: f64,
    /// Highest controller epoch the fleet converged on.
    epoch: u64,
    fenced: u64,
    stale_dropped: u64,
    scale_outs: u64,
    scale_ins: u64,
    degrades: u64,
    price_changes: u64,
    legality_violations: usize,
}

fn controller_cfg() -> ControllerConfig {
    // Capacity-first tuning as in EXP-CONTROL: scale out quickly, keep
    // grade steps scarce; the defaults' lease/warmup discipline applies.
    ControllerConfig {
        // Capacity-led tuning: the decisive move after a failover is
        // scaling the standby pool out, not mass regrades — a high queue
        // target and a long dwell keep grading surgical while scale-out
        // triggers fast.
        queue_target: 22.0,
        max_steps_per_tick: 1,
        dwell: MediaDuration::from_millis(2_500),
        calm: MediaDuration::from_millis(1_000),
        max_price: 1,
        scale_out_after: MediaDuration::from_millis(400),
        scale_dwell: MediaDuration::from_millis(1_500),
        scale_in_after: MediaDuration::from_secs(10),
        ..ControllerConfig::default()
    }
}

fn run_point(seed: u64, mode: Mode, g: &Grid) -> Point {
    let mut b = WorldBuilder::new(seed);
    let mut cfg = ServerConfig::default();
    cfg.sharing = SharingPolicy {
        mode: SharingMode::Off,
        ..Default::default()
    };
    // Management host first, then the two session-bearing servers.
    let servers = vec![
        b.add_server(ServerId::new(0), LinkSpec::lan(2_000_000_000), cfg.clone()),
        b.add_server(ServerId::new(1), LinkSpec::lan(2_000_000_000), cfg.clone()),
        b.add_server(ServerId::new(2), LinkSpec::lan(2_000_000_000), cfg),
    ];
    let host = servers[0];
    let nodes: Vec<NodeId> = (0..g.pool)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    let media: Vec<NodeId> = (0..4)
        .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
        .collect();
    let mut breaker_cfg = hermes_server::BreakerConfig::default();
    breaker_cfg.latency_threshold = MediaDuration::from_millis(3_000);
    b.media_config(MediaTierConfig {
        replication: 2,
        cache_bytes: 0,
        breaker: true,
        breaker_cfg,
        hedging: true,
        ladder: false, // the controller is the only grading authority
        ..Default::default()
    });
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    for &m in &media[2..] {
        sim.app_mut().standby_media.insert(m);
    }
    // EXP-CONTROL's tight tier with disks twice as slow.
    tight_tier(&mut sim, &media, 600);
    // Lessons on the session servers only: crashing the host takes out
    // the control function and nothing else.
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1A5);
    let mut lessons = Vec::new();
    for (i, &srv) in servers[1..].iter().enumerate() {
        let docs = install_course(
            sim.app_mut().server_mut(srv),
            ["Crowd A", "Crowd B"][i],
            &["ha"],
            1 + 100 * i as u64,
            g.crowd.catalog / 2,
            clip_lesson(g.clip_secs),
            &mut rng,
        );
        for d in docs {
            lessons.push((srv, d));
        }
    }
    sim.app_mut().distribute_media();
    let ccfg = controller_cfg();
    match mode {
        Mode::Ha => sim.with_api(|w, api| w.enable_control(api, host, ccfg)),
        Mode::Pinned => sim.with_api(|w, api| w.enable_control_pinned(api, host, ccfg)),
    }
    // The failover drill: the controller host dies at the crowd's peak and
    // comes back a few seconds later.
    sim.install_faults(&FaultPlan::new().crash_for(host, g.crash_at, g.crash_down));

    let arrivals = g.crowd.arrivals(seed);
    let mut session_gaps: Vec<f64> = Vec::new();
    let end = g.crowd.horizon + MediaDuration::from_secs(g.clip_secs + 15);
    let run = drive_pool(
        &mut sim,
        &nodes,
        &arrivals,
        end,
        |a| lessons[a.rank % lessons.len()],
        |c| {
            if let Some(pres) = &c.presentation {
                let s = pres.engine.total_stats();
                let ticks = s.glitches + s.frames_played + s.duplicates_played;
                if ticks > 0 {
                    session_gaps.push(s.glitches as f64 * 1_000.0 / ticks as f64);
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
    p.gap_p99 = percentile(&session_gaps, 0.99);
    for &srv in &servers[1..] {
        let s = sim.app().server(srv);
        let live_tail: f64 = s
            .sessions
            .values()
            .map(|s| s.util_acc + s.utility_pending())
            .sum();
        p.utility += s.util_closed + live_tail;
    }
    for &srv in &servers {
        let s = sim.app().server(srv);
        p.elections += s.ctrl_stats.elections;
        p.fenced += s.ctrl_stats.fence_drops;
        p.stale_dropped += s.ctrl_stats.stale_drops;
        p.epoch = p.epoch.max(s.election.fence());
        if let Some(at) = s.election.last_elected_at {
            p.elect_ms = (at - g.crash_at).as_micros() as f64 / 1_000.0;
        }
        if let Some(c) = &s.controller {
            p.scale_outs += c.stats.scale_outs;
            p.scale_ins += c.stats.scale_ins;
            p.degrades += c.stats.degrades;
            p.price_changes += c.stats.price_changes;
        }
    }
    p.fenced += sim.app().control_fence_drops;

    sim.app().audit_media_parts(&sim.stats());
    // Trace-level proof (vacuous in no-trace builds): actuation epochs
    // never regress, no two controllers share an epoch, elections claim
    // fresh epochs, no command lands on a torn-down target.
    sim.publish_metrics();
    let obs = sim.take_obs();
    p.legality_violations = check_controller_legality(obs.events()).len();
    p
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
    let mut worst_p99 = std::collections::BTreeMap::new();
    let mut least_utility = std::collections::BTreeMap::new();
    let lease_bound_ms = {
        let c = controller_cfg();
        // Detection needs the lease to expire and the next watch tick to
        // notice: lease_timeout plus two beats of scheduling slack.
        (c.lease_timeout().as_micros() + 2 * c.lease_beat.as_micros()) as f64 / 1_000.0
    };
    for &mode in &g.modes {
        for &seed in &g.seeds {
            let p = run_point(seed, mode, &g);
            t.row(vec![
                mode.label().to_string(),
                seed.to_string(),
                p.arrivals.to_string(),
                p.completed.to_string(),
                p.rejected.to_string(),
                p.unserved.to_string(),
                format!("{:.1}", p.utility),
                format!("{:.2}", p.gap_p99),
                p.elections.to_string(),
                format!("{:.0}", p.elect_ms),
                p.epoch.to_string(),
                p.fenced.to_string(),
                p.stale_dropped.to_string(),
                p.scale_outs.to_string(),
                p.degrades.to_string(),
            ]);
            assert_eq!(
                p.legality_violations,
                0,
                "{} seed {seed}: controller-legality violations in trace",
                mode.label()
            );
            match mode {
                Mode::Ha => {
                    assert_eq!(
                        p.elections, 1,
                        "ha seed {seed}: expected exactly one failover election"
                    );
                    assert!(
                        p.elect_ms > 0.0 && p.elect_ms <= lease_bound_ms,
                        "ha seed {seed}: successor elected {:.0} ms after the crash \
                         (lease bound {:.0} ms)",
                        p.elect_ms,
                        lease_bound_ms,
                    );
                    assert_eq!(
                        p.epoch, 2,
                        "ha seed {seed}: fleet did not converge on the successor's epoch"
                    );
                    assert!(
                        p.scale_outs + p.scale_ins + p.degrades + p.price_changes > 0,
                        "ha seed {seed}: the successor never actuated"
                    );
                }
                Mode::Pinned => {
                    assert_eq!(p.elections, 0, "pinned seed {seed}: nobody may elect");
                }
            }
            let wp: &mut f64 = worst_p99.entry(mode.label()).or_insert(0f64);
            *wp = wp.max(p.gap_p99);
            let lu: &mut f64 = least_utility.entry(mode.label()).or_insert(f64::MAX);
            *lu = lu.min(p.utility);
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
    let ha_u = least_utility["ha"];
    let pin_u = least_utility["pinned"];
    let ha_p = worst_p99["ha"];
    let pin_p = worst_p99["pinned"];
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
