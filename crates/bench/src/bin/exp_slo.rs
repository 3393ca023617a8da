#![allow(clippy::field_reassign_with_default)]
//! EXP-SLO — claim: causal gap attribution names the correct dominant cause
//! class for ≥90% of fault-caused playout gaps, and SLO burn-rate alerts
//! fire at least two control ticks before the queue-depth pressure verdict
//! on a flash-crowd spike.
//!
//! Two scenarios per seed over the EXP-OVERLOAD rig (one server, tight
//! two-node media tier, open-loop Poisson arrivals):
//!
//! * **spike** — a 3.5× flash crowd saturates the media-tier serving
//!   queues (overload stack off so saturation is undamped). Playout gaps
//!   inside the spike window must attribute to `media_queue`, and the
//!   controller's per-tick pressure-source markers must show the SLO-burn
//!   bit before the queue-depth bit. The table also prints each bit's
//!   first tick from the spike's onset on, which the assertion does not
//!   judge.
//! * **partition** — a single-replica tier loses its backbone link for a
//!   window mid-stream. Gaps inside the window must attribute to
//!   `link_loss`.
//!
//! The attribution and burn tables are fully deterministic (the CI gate
//! byte-diffs two runs).

use hermes_bench::{clip_lesson, ExpOpts, FlashCrowd, Table};
use hermes_client::PlayoutConfig;
use hermes_control::{ControllerConfig, CONTROL_TICK};
use hermes_core::{MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, MediaNodeConfig, MediaTierConfig, ServerConfig, ServiceMsg,
    ServiceWorld, WorldBuilder,
};
use hermes_simnet::obs::{AttributionConfig, CauseClass, GapAttribution};
use hermes_simnet::{Event, FaultPlan, LinkSpec, Sim, SimRng};

/// Which fault the scenario injects (and the class gaps must attribute to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// 3.5× flash crowd against a tight tier: media-queue saturation.
    Spike,
    /// Backbone↔replica link down mid-stream: link loss.
    Partition,
}

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Spike => "spike",
            Scenario::Partition => "partition",
        }
    }

    fn expected(self) -> CauseClass {
        match self {
            Scenario::Spike => CauseClass::MediaQueue,
            Scenario::Partition => CauseClass::LinkLoss,
        }
    }
}

struct Grid {
    seeds: Vec<u64>,
    crowd: FlashCrowd,
    pool: usize,
    clip_secs: i64,
}

impl Grid {
    /// EXP-OVERLOAD's smoke spike; `--smoke` only drops the second seed.
    fn new(opts: &ExpOpts) -> Self {
        Grid {
            seeds: opts.seeds(if opts.smoke { &[1] } else { &[1, 2] }),
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
    }
}

/// The attribution window, declared to each capture before its run. Wider
/// than the library default: a fault's visible effect lags its cause by
/// the client buffer plus the server's prefetch lead (several seconds
/// here), and the causal window must span that lag to reach the
/// link_down / shed evidence.
const WINDOW: MediaDuration = MediaDuration::from_secs(6);

/// One scenario run's attribution + burn-signal measurements.
#[derive(Debug, Clone, Default)]
struct Point {
    /// Playout-gap attributions inside the fault window.
    window_gaps: usize,
    /// Of those, attributed to the scenario's expected class.
    correct: usize,
    /// All attributions of the run (any kind, any time).
    total_attrs: usize,
    /// Provenance delivery records retained (the `prov hops` column).
    prov_records: usize,
    /// First `slo_alert` event, ms (engine clock).
    alert_ms: Option<i64>,
    /// First control tick whose pressure-source mask has the SLO-burn bit.
    burn_ms: Option<i64>,
    /// First control tick whose mask has the queue-depth bit.
    queue_ms: Option<i64>,
    /// The burn bit's first tick at or after the fault's onset.
    burn_onset_ms: Option<i64>,
    /// The queue bit's first tick at or after the fault's onset.
    queue_onset_ms: Option<i64>,
}

fn first_at(events: &[Event], pred: impl Fn(&Event) -> bool) -> Option<i64> {
    events
        .iter()
        .find(|e| pred(e))
        .map(|e| e.at.as_micros() / 1_000)
}

/// Score a run's attributions: gaps inside `[from, until]` on the wall
/// clock count toward accuracy against `expected`.
fn score(
    attrs: &[GapAttribution],
    expected: CauseClass,
    from: MediaTime,
    until: MediaTime,
) -> (usize, usize) {
    let mut gaps = 0;
    let mut correct = 0;
    for a in attrs {
        if a.kind != "playout_gap" || a.at < from || a.at > until {
            continue;
        }
        gaps += 1;
        if a.class == expected {
            correct += 1;
        }
    }
    (gaps, correct)
}

/// The spike scenario runs twice: once with the fleet controller off so
/// the crowd's saturation reaches playout undamped (that run scores
/// attribution accuracy — a working controller degrades the fleet and
/// absorbs the gaps it would otherwise cause), and once with the
/// controller on to measure how far the SLO-burn pressure bit leads the
/// queue-depth bit.
fn run_spike(seed: u64, g: &Grid, control: bool) -> Point {
    let mut crowd = hermes_bench::Scenario {
        pool: g.pool,
        // Overload stack off: saturation must show up as queueing, not be
        // absorbed by breakers/hedges/the ladder.
        tier: MediaTierConfig {
            replication: 2,
            cache_bytes: 0,
            breaker: false,
            hedging: false,
            ladder: false,
            ..Default::default()
        },
        tag: "slo",
        lessons: g.crowd.catalog,
        clip_secs: g.clip_secs,
        ..Default::default()
    }
    .build(seed);
    crowd.sim.obs_mut().widen_attribution_window(WINDOW);
    let srv = crowd.servers[0];
    if control {
        let cfg = ControllerConfig::default();
        crowd.sim.with_api(|w, api| w.enable_control(api, srv, cfg));
    }
    crowd.drive(&g.crowd.arrivals(seed), g.crowd.horizon);

    // The crowd's queue backlog keeps starving sessions well past the
    // arrival spike itself, so every gap from spike onset to the end of
    // the drain is spike-caused (the run injects nothing else).
    let end = crowd.sim.now();
    let p = finish(&mut crowd.sim, Scenario::Spike, g.crowd.spike_at, end);
    crowd.judge();
    p
}

fn run_partition(seed: u64, _g: &Grid) -> Point {
    // Hand-built: scripted joins on one deep-queued replica, not a crowd.
    let mut b = WorldBuilder::new(seed);
    let mut cfg = ServerConfig::default();
    cfg.sharing = SharingPolicy {
        mode: SharingMode::Off,
        ..Default::default()
    };
    let srv = b.add_server(ServerId::new(0), LinkSpec::lan(2_000_000_000), cfg);
    // Recovery off: a starved stream with recovery on replays its last
    // frame, which hides every mid-stream underrun from the gap count.
    let client = ClientConfig {
        playout: PlayoutConfig::no_recovery(),
        ..Default::default()
    };
    let clients: Vec<NodeId> = (0..8)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), client.clone()))
        .collect();
    let media = b.add_media_node(LinkSpec::san(1_000_000_000));
    let backbone = b.backbone();
    // A single replica and no cache: when its link dies, streams have
    // nowhere to fail over and the loss is the gap's one true cause. The
    // overload stack stays off — a breaker tripping on the dead link would
    // correctly be downstream of the loss, but its evidence would then
    // compete with the link event for the same gaps.
    b.media_config(MediaTierConfig {
        replication: 1,
        cache_bytes: 0,
        breaker: false,
        hedging: false,
        ladder: false,
        ..Default::default()
    });
    let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(seed);
    sim.obs_mut().widen_attribution_window(WINDOW);
    sim.obs_mut().set_enabled(true);
    // Slow the replica's service down so segment fetches are still in
    // flight when the link dies: with the default (fast) service the
    // server's pipelined prefetch drains the whole clip in under a second
    // and a mid-stream partition would go unnoticed. The deep queue keeps
    // the pre-partition phase shed-free so the only loss evidence inside
    // the fault window is the link itself.
    sim.app_mut().media_mut(media).configure(MediaNodeConfig {
        queue_capacity: 256,
        fixed_service: MediaDuration::from_millis(1),
        per_mbyte: MediaDuration::from_millis(300),
    });
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1A5);
    let lessons = install_course(
        sim.app_mut().server_mut(srv),
        "Partition",
        &["slo"],
        1,
        1,
        clip_lesson(16),
        &mut rng,
    );
    sim.app_mut().distribute_media();
    // Early and long: the server's pipelined prefetch builds a fetch
    // frontier ahead of playout, and the outage must outlast that lead
    // (plus the client buffer) for starvation to reach the screen.
    let from = MediaTime::from_secs(3);
    let until = MediaTime::from_secs(8);
    sim.install_faults(&FaultPlan::new().partition(backbone, media, from, until));
    // Staggered joins so everyone is mid-stream when the link dies.
    for (i, &c) in clients.iter().enumerate() {
        sim.run_until(MediaTime::from_millis(500 + 250 * i as i64));
        sim.with_api(|w, api| w.client_mut(c).connect(api, srv, Some(lessons[0])));
    }
    let end = MediaTime::from_secs(25);
    sim.run_until(end);

    // Score every gap from outage onset to the end of the run: the loss
    // starves playout both while the link is down and through the refill
    // backlog after repair, and the run injects no other fault.
    finish(&mut sim, Scenario::Partition, from, end)
}

fn finish(
    sim: &mut Sim<ServiceMsg, ServiceWorld>,
    scenario: Scenario,
    from: MediaTime,
    until: MediaTime,
) -> Point {
    let obs = sim.obs_mut();
    let attrs = obs.attribute(&AttributionConfig { window: WINDOW });
    let mut p = Point::default();
    (p.window_gaps, p.correct) = score(&attrs, scenario.expected(), from, until);
    p.total_attrs = attrs.len();
    p.prov_records = obs.prov.len();
    let events = obs.events();
    p.alert_ms = first_at(events, |e| e.name == "slo_alert");
    p.burn_ms = first_at(events, |e| {
        e.name == "ctrl_pressure_src" && e.value & 4 != 0
    });
    p.queue_ms = first_at(events, |e| {
        e.name == "ctrl_pressure_src" && e.value & 2 != 0
    });
    p.burn_onset_ms = first_at(events, |e| {
        e.at >= from && e.name == "ctrl_pressure_src" && e.value & 4 != 0
    });
    p.queue_onset_ms = first_at(events, |e| {
        e.at >= from && e.name == "ctrl_pressure_src" && e.value & 2 != 0
    });
    p
}

fn opt_ms(v: Option<i64>) -> String {
    match v {
        Some(ms) => format!("{ms}"),
        None => "-".into(),
    }
}

fn main() {
    let opts = ExpOpts::parse();
    let g = Grid::new(&opts);
    let mut out = opts.sink();
    out.line(&format!(
        "workload: EXP-OVERLOAD spike rig (pool {}, Zipf(1.1) catalog {}, {} s\n\
         clips, two-node tier queue 24 / 1 ms + 300 ms/MiB, overload stack off,\n\
         fleet controller on) — {:.1}× crowd from {} s for {} s; plus a\n\
         single-replica partition scenario (backbone↔media link down 3→8 s).\n\
         Gaps inside each fault window must attribute to the injected cause;\n\
         SLO burn must pressure the controller ahead of queue depth.",
        g.pool,
        g.crowd.catalog,
        g.clip_secs,
        g.crowd.spike_mult,
        (g.crowd.spike_at - MediaTime::ZERO).as_micros() / 1_000_000,
        g.crowd.spike_len.expect("a spike").as_micros() / 1_000_000,
    ));

    let mut acc = Table::new(vec![
        "scenario",
        "seed",
        "expected",
        "window gaps",
        "correct",
        "accuracy %",
        "attrs total",
        "prov hops",
    ]);
    let mut burn = Table::new(vec![
        "seed",
        "first slo_alert ms",
        "burn-bit tick ms",
        "queue-bit tick ms",
        "lead ticks",
        "burn-bit from spike ms",
        "queue-bit from spike ms",
    ]);
    let tick_ms = CONTROL_TICK.as_micros() / 1_000;
    let mut agg: std::collections::BTreeMap<&'static str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for &scenario in &[Scenario::Spike, Scenario::Partition] {
        for &seed in &g.seeds {
            let p = match scenario {
                Scenario::Spike => {
                    // Accuracy from the undamped (controller-off) run;
                    // burn-lead signals from the controller-on run.
                    let mut p = run_spike(seed, &g, false);
                    let lead = run_spike(seed, &g, true);
                    p.alert_ms = lead.alert_ms;
                    p.burn_ms = lead.burn_ms;
                    p.queue_ms = lead.queue_ms;
                    p.burn_onset_ms = lead.burn_onset_ms;
                    p.queue_onset_ms = lead.queue_onset_ms;
                    p
                }
                Scenario::Partition => run_partition(seed, &g),
            };
            let pct = if p.window_gaps > 0 {
                100.0 * p.correct as f64 / p.window_gaps as f64
            } else {
                0.0
            };
            acc.row(vec![
                scenario.label().to_string(),
                seed.to_string(),
                scenario.expected().label().to_string(),
                p.window_gaps.to_string(),
                p.correct.to_string(),
                format!("{pct:.1}"),
                p.total_attrs.to_string(),
                p.prov_records.to_string(),
            ]);
            let e = agg.entry(scenario.label()).or_insert((0, 0));
            e.0 += p.window_gaps;
            e.1 += p.correct;
            if scenario == Scenario::Spike {
                let lead = match (p.burn_ms, p.queue_ms) {
                    (Some(b), Some(q)) => format!("{}", (q - b) / tick_ms),
                    _ => "-".into(),
                };
                burn.row(vec![
                    seed.to_string(),
                    opt_ms(p.alert_ms),
                    opt_ms(p.burn_ms),
                    opt_ms(p.queue_ms),
                    lead,
                    opt_ms(p.burn_onset_ms),
                    opt_ms(p.queue_onset_ms),
                ]);
                assert!(
                    p.burn_ms.is_some(),
                    "SLO burn never pressured the controller under the spike"
                );
                if let (Some(b), Some(q)) = (p.burn_ms, p.queue_ms) {
                    assert!(
                        b + 2 * tick_ms <= q,
                        "burn bit at {b} ms did not lead the queue bit at {q} ms \
                         by >= 2 control ticks ({tick_ms} ms each)"
                    );
                }
            }
        }
    }
    out.table(
        "EXP-SLO — gap root-cause attribution accuracy inside the fault window",
        &acc,
    );
    out.table(
        "EXP-SLO — burn-rate lead over queue-depth pressure (spike scenario)",
        &burn,
    );
    for (scenario, (gaps, correct)) in &agg {
        let pct = if *gaps > 0 {
            100.0 * *correct as f64 / *gaps as f64
        } else {
            0.0
        };
        out.line(&format!(
            "claim @ {scenario}: {correct}/{gaps} fault-window gaps named the \
             injected cause ({pct:.1}%)"
        ));
        assert!(*gaps > 0, "{scenario} produced no fault-window gaps");
        assert!(
            pct >= 90.0,
            "{scenario} attribution accuracy {pct:.1}% below the 90% bar"
        );
    }
    out.line(
        "expected shape: spike gaps blame media_queue (shed evidence), partition\n\
         gaps blame link_loss (link_down + retry-exhaustion evidence); the SLO\n\
         burn bit pressures the controller ticks before queue depth crosses its\n\
         target.",
    );
    out.finish();
}
