//! One repetition: set a fresh world up, drive the open-loop schedule through
//! it, drain, analyse, and read every number at the layers' public
//! boundaries.

use crate::heap::{region_cost, RegionCost, LEDGER};
use crate::schedule::{self, Arrival};
use crate::spans::SpanLog;
use crate::workloads::{self, SetupTimes, Workload, World};
use hermes_core::{MediaDuration, MediaTime};
use hermes_service::SubsystemProfile;
use hermes_simnet::obs::invariants::{check_run, InvariantConfig};
use hermes_simnet::obs::{AttributionConfig, CauseClass, HopRecord};
use std::time::Instant;

/// A session meets its objective when it completed, started within this of
/// its due time, ...
const SLO_STARTUP: MediaDuration = MediaDuration::from_secs(2);
/// ... kept intermedia skew within this (the paper's bound), and had something
/// new to present on at least 99 % of its playout ticks (a tick with nothing
/// new is a glitch or, with the engine's default concealment, a repeat of the
/// previous frame).
const SKEW_LIMIT: MediaDuration = MediaDuration::from_millis(80);
/// The drain advances in slices so that playout starts are seen soon after
/// they happen (see `first_start`).
const DRAIN_SLICE: MediaDuration = MediaDuration::from_millis(500);
/// Grace after the last fault clears before a disruption counts against
/// bounded recovery (the chaos harness's value).
const SETTLE: MediaDuration = MediaDuration::from_secs(8);
/// Four times the heaviest workload's events. Other fault plans tip the
/// `fleet_faults` world into an event storm that does not end (README,
/// Findings); a rep that gets there fails instead of running for hours.
const EVENT_BUDGET: u64 = 40_000_000;

/// Everything a rep computes that does not depend on the host: simulated
/// clock readings and program counts. Equal, field for field, in every rep of
/// a run — that is the determinism check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counts {
    // Fates: every arrival has exactly one.
    pub arrivals: u64,
    pub completed: u64,
    pub refused: u64,
    pub unfinished: u64,
    // Viewer quality.
    pub started: u64,
    pub slo_ok: u64,
    pub sync_ok: u64,
    /// Prefill complete − due time of completed sessions, ascending.
    pub startups_us: Vec<i64>,
    pub frames_played: u64,
    pub duplicates_played: u64,
    pub glitches: u64,
    pub frames_dropped: u64,
    pub recoveries: u64,
    pub utility_milli: i64,
    // simnet.
    pub sim_events: u64,
    pub delivered: u64,
    pub timers_fired: u64,
    pub retransmissions: u64,
    pub datagrams_dropped: u64,
    pub reliable_failures: u64,
    pub fault_drops: u64,
    pub mcast_link_copies: u64,
    pub mcast_deliveries: u64,
    pub net_packets: u64,
    pub net_queue_drops: u64,
    pub prov_records: u64,
    pub prov_dropped: u64,
    pub egress_bytes: u64,
    // service.server (media-tier fetch client, admission, sharing).
    pub fetches: u64,
    pub fetch_busy: u64,
    pub fetch_errors: u64,
    pub fetches_lost: u64,
    pub stalls: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub failovers: u64,
    pub breaker_trips: u64,
    pub fetch_p99_us: i64,
    pub parts_received: u64,
    pub admit_rejected: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub groups_opened: u64,
    pub joins_patched: u64,
    pub mcast_frames: u64,
    // service.media.
    pub requests_served: u64,
    pub parts_sent: u64,
    pub busy_sent: u64,
    // control.
    pub ctrl_ticks: u64,
    pub ctrl_pressured_ticks: u64,
    pub ctrl_degrades: u64,
    pub ctrl_elections: u64,
    pub ctrl_fence_drops: u64,
    // obs.
    pub events_recorded: u64,
    pub log_bytes: u64,
    pub attributions: u64,
    pub unattributed: u64,
    pub violations: u64,
    pub first_violation: String,
}

/// What a rep cost the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    pub setup_s: f64,
    pub setup: SetupTimes,
    pub run_s: f64,
    pub run_until_ns: u64,
    pub publish_ms: f64,
    pub attribute_ms: f64,
    pub invariants_ms: f64,
    pub cpu_s: f64,
    pub heap: Option<RegionCost>,
    /// Actor-lane timings; only a traced rep turns them on.
    pub lanes: Option<SubsystemProfile>,
}

pub struct Rep {
    pub counts: Counts,
    pub host: Host,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpu_seconds() declares the timespec layout of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU seconds of this process so far. The standard library has no
/// process-CPU clock; this is the C library's, so that nothing outside the
/// checkout (`/proc`) has to be read.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `timespec` with the layout 64-bit
    // Linux gives it, which is all `clock_gettime` asks of its out-pointer;
    // the call keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc == 0 {
        Ok(t.sec as f64 + t.nsec as f64 / 1e9)
    } else {
        Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into())
    }
}

/// Spans are recorded only in a traced rep.
struct Tracer<'a>(Option<&'a mut SpanLog>);

impl Tracer<'_> {
    fn open(&mut self, name: &'static str) {
        if let Some(log) = &mut self.0 {
            log.open(name);
        }
    }
    fn close(&mut self) {
        if let Some(log) = &mut self.0 {
            log.close();
        }
    }
}

pub fn run(w: &Workload, seed: u64, spans: Option<&mut SpanLog>) -> Result<Rep, String> {
    let mut tr = Tracer(spans);
    let traced = tr.0.is_some();
    let cpu0 = cpu_seconds()?;
    let heap0 = LEDGER.mark();
    tr.open("rep");
    let mut counts = Counts::default();
    let mut host = Host::default();
    // Independent worlds, one after the other: counts add up and start-up
    // samples pool. No two seeds below 2^63 share a world seed.
    for k in 0..w.worlds {
        run_world(
            w,
            seed.wrapping_mul(w.worlds).wrapping_add(k),
            &mut tr,
            &mut counts,
            &mut host,
        )?;
    }
    counts.startups_us.sort_unstable();
    tr.close(); // rep
    host.cpu_s = cpu_seconds()? - cpu0;
    // A traced rep also allocates for its spans: its heap reading is not the
    // program's.
    if !traced {
        host.heap = Some(region_cost(heap0, LEDGER.read()));
    }
    Ok(Rep { counts, host })
}

/// Sets one world up, drives its schedule through it, drains and analyses
/// it, adding what it finds to `counts` and `host`.
fn run_world(
    w: &Workload,
    seed: u64,
    tr: &mut Tracer<'_>,
    counts: &mut Counts,
    host: &mut Host,
) -> Result<(), String> {
    let before = counts.clone();

    // Set-up.
    let t_setup = Instant::now();
    tr.open("setup");
    tr.open("setup.schedule");
    let arrivals = schedule::generate(seed, &w.schedule);
    let (mut world, setup) = workloads::build(w, seed, |name| {
        tr.close();
        tr.open(name);
    })?;
    tr.close(); // the last stage
    tr.close(); // setup
    host.setup_s += t_setup.elapsed().as_secs_f64();
    host.setup.world_ms += setup.world_ms;
    host.setup.catalog_ms += setup.catalog_ms;
    host.setup.distribute_ms += setup.distribute_ms;
    if tr.0.is_some() {
        world.sim.app_mut().enable_profiling();
    }

    // Run.
    let t_run = Instant::now();
    tr.open("run");
    counts.arrivals += arrivals.len() as u64;
    let first_start = drive(w, &mut world, &arrivals, tr, counts, host)?;
    harvest_clients(&world, &arrivals, &first_start, &before, counts)?;

    // Everyone leaves; the servers reap what is left.
    let World { sim, clients, .. } = &mut world;
    sim.with_api(|app, api| {
        for &node in &clients[..arrivals.len()] {
            app.client_mut(node).disconnect(api);
        }
    });
    run_until(&mut world, w.horizon(), tr, counts, host)?;

    analyse(w, &mut world, tr, &before, counts, host)?;
    if let Some(p) = world.sim.app().profile {
        let sum = host.lanes.get_or_insert_with(SubsystemProfile::default);
        sum.server_ns += p.server_ns;
        sum.client_ns += p.client_ns;
        sum.media_ns += p.media_ns;
        sum.server_events += p.server_events;
        sum.client_events += p.client_events;
        sum.media_events += p.media_events;
    }
    tr.open("teardown");
    drop(world);
    tr.close();
    tr.close(); // run
    host.run_s += t_run.elapsed().as_secs_f64();
    Ok(())
}

fn run_until(
    world: &mut World,
    until: MediaTime,
    tr: &mut Tracer<'_>,
    counts: &mut Counts,
    host: &mut Host,
) -> Result<(), String> {
    tr.open("run_until");
    let t = Instant::now();
    counts.sim_events += world.sim.run_until(until);
    host.run_until_ns += t.elapsed().as_nanos() as u64;
    tr.close();
    if counts.sim_events > EVENT_BUDGET {
        return Err(format!(
            "event storm: {} events by {} s of simulated time",
            counts.sim_events,
            until.as_micros() as f64 / 1e6
        ));
    }
    Ok(())
}

/// The open loop: arrival `i` connects client `i` at its due time whatever
/// became of earlier sessions. `run_until(due)` stops the engine exactly at
/// the due time, so the generator is never late. Returns the first playout
/// start seen per arrival.
fn drive(
    w: &Workload,
    world: &mut World,
    arrivals: &[Arrival],
    tr: &mut Tracer<'_>,
    counts: &mut Counts,
    host: &mut Host,
) -> Result<Vec<Option<MediaTime>>, String> {
    // A reconnect after a server crash replaces the client's presentation, so
    // the first start has to be caught while it is there: poll after every
    // slice. The value read is the simulated start time itself, not the time
    // of the poll.
    let mut first_start: Vec<Option<MediaTime>> = vec![None; arrivals.len()];
    let mut waiting: Vec<usize> = Vec::new();
    let mut poll = |world: &World, waiting: &mut Vec<usize>| {
        waiting.retain(|&i| {
            let started = world
                .sim
                .app()
                .client(world.clients[i])
                .presentation
                .as_ref()
                .and_then(|p| p.started_at);
            first_start[i] = started;
            started.is_none()
        });
    };
    for (i, a) in arrivals.iter().enumerate() {
        run_until(world, MediaTime::from_micros(a.due_us), tr, counts, host)?;
        poll(world, &mut waiting);
        let node = world.clients[i];
        let (srv, doc) = world.titles[a.title];
        world
            .sim
            .with_api(|app, api| app.client_mut(node).connect(api, srv, Some(doc)));
        waiting.push(i);
    }
    let end = w.drain_until();
    let mut t = world.sim.now();
    while t < end {
        t = (t + DRAIN_SLICE).min(end);
        run_until(world, t, tr, counts, host)?;
        poll(world, &mut waiting);
    }
    Ok(first_start)
}

/// Read every client at the end of the drain, while its presentation is
/// still there, and give each arrival its one fate.
fn harvest_clients(
    world: &World,
    arrivals: &[Arrival],
    first_start: &[Option<MediaTime>],
    before: &Counts,
    c: &mut Counts,
) -> Result<(), String> {
    let app = world.sim.app();
    let mut completed_lists = 0usize;
    for (i, a) in arrivals.iter().enumerate() {
        let client = app.client(world.clients[i]);
        completed_lists += client.completed.len();
        let done = !client.completed.is_empty();
        if done {
            c.completed += 1;
        } else if !client.errors.is_empty() {
            c.refused += 1;
        } else {
            c.unfinished += 1;
        }
        c.recoveries += client.recoveries.len() as u64;
        let startup = first_start[i].map(|t| t - MediaTime::from_micros(a.due_us));
        if let (true, Some(s)) = (done, startup) {
            c.startups_us.push(s.as_micros());
        }
        let Some(p) = &client.presentation else {
            continue;
        };
        let s = p.engine.total_stats();
        c.frames_played += s.frames_played;
        c.duplicates_played += s.duplicates_played;
        c.glitches += s.glitches;
        c.frames_dropped += s.frames_dropped;
        if p.started_at.is_some() {
            c.started += 1;
            let in_sync = p.engine.max_skew_observed <= SKEW_LIMIT;
            c.sync_ok += in_sync as u64;
            let stalled = s.glitches + s.duplicates_played;
            let smooth = stalled * 100 <= stalled + s.frames_played;
            let prompt = startup.is_some_and(|s| s <= SLO_STARTUP);
            c.slo_ok += (done && prompt && smooth && in_sync) as u64;
        }
    }
    let idle: usize = world.clients[arrivals.len()..]
        .iter()
        .map(|&n| app.client(n).completed.len() + app.client(n).errors.len())
        .sum();
    // This world's share of the running totals.
    let (completed, refused, unfinished) = (
        c.completed - before.completed,
        c.refused - before.refused,
        c.unfinished - before.unfinished,
    );
    if completed + refused + unfinished != arrivals.len() as u64
        || completed_lists as u64 != completed
        || idle != 0
    {
        return Err(format!(
            "fates do not add up: {} arrivals, {completed} completed ({completed_lists} entries \
             in the clients' lists), {refused} refused, {unfinished} unfinished, {idle} outcomes \
             on unused clients",
            arrivals.len()
        ));
    }
    let starts = c.startups_us.len() - before.startups_us.len();
    if starts as u64 != completed {
        return Err(format!(
            "{completed} sessions completed but only {starts} playout starts were seen"
        ));
    }
    Ok(())
}

/// Post-run analysis and extraction of every layer's counters.
fn analyse(
    w: &Workload,
    world: &mut World,
    tr: &mut Tracer<'_>,
    before: &Counts,
    c: &mut Counts,
    host: &mut Host,
) -> Result<(), String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    tr.open("publish_metrics");
    let t = Instant::now();
    world.sim.publish_metrics();
    let mut obs = world.sim.take_obs();
    world.sim.app().publish_metrics(&mut obs);
    host.publish_ms += ms(t);
    tr.close();

    tr.open("attribute");
    let t = Instant::now();
    let attrs = obs.attribute(&AttributionConfig::default());
    host.attribute_ms += ms(t);
    tr.close();

    tr.open("check_run");
    let t = Instant::now();
    let violations = check_run(
        obs.events(),
        &obs.registry,
        &InvariantConfig {
            last_fault_clear: world.last_fault_clear,
            settle: SETTLE,
        },
    );
    host.invariants_ms += ms(t);
    tr.close();

    tr.open("extract");
    let sim = &world.sim;
    let app = sim.app();
    let st = sim.stats();
    c.delivered += st.delivered;
    c.timers_fired += st.timers_fired;
    c.retransmissions += st.retransmissions;
    c.datagrams_dropped += st.datagrams_dropped;
    c.reliable_failures += st.reliable_failures;
    c.fault_drops += st.fault_drops;
    c.mcast_link_copies += st.mcast_link_copies;
    c.mcast_deliveries += st.mcast_deliveries;
    let net = sim.net().total_stats();
    c.net_packets += net.packets_sent;
    c.net_queue_drops += net.packets_dropped_queue;
    c.prov_records += obs.prov.len() as u64;
    c.prov_dropped += obs.prov.dropped;
    let mut utility = 0.0;
    for &srv in &world.servers {
        c.egress_bytes += sim
            .net()
            .link(srv, world.hub)
            .expect("server trunk")
            .stats
            .bytes_sent;
        let s = app.server(srv);
        utility += s.util_closed
            + s.sessions
                .values()
                .map(|x| x.util_acc + x.utility_pending())
                .sum::<f64>();
        c.admit_rejected += s.admission.stats.values().map(|x| x.rejected).sum::<u64>();
        c.groups_opened += s.sharing_stats.groups_opened;
        c.joins_patched += s.sharing_stats.joins_patched;
        c.mcast_frames += s.sharing_stats.mcast_frames;
        c.ctrl_elections += s.ctrl_stats.elections;
        c.ctrl_fence_drops += s.ctrl_stats.fence_drops;
        if let Some(ctl) = &s.controller {
            c.ctrl_ticks += ctl.stats.ticks;
            c.ctrl_pressured_ticks += ctl.stats.pressured_ticks;
            c.ctrl_degrades += ctl.stats.degrades;
        }
        let Some(tier) = &s.media else { continue };
        c.fetches += tier.stats.fetches;
        c.fetch_busy += tier.stats.busy;
        c.fetch_errors += tier.stats.fetch_errors;
        c.fetches_lost += tier.stats.fetches_lost;
        c.stalls += tier.stats.stalls;
        c.hedges += tier.stats.hedges;
        c.hedge_wins += tier.stats.hedge_wins;
        c.failovers += tier.stats.failovers;
        c.breaker_trips += tier.stats.breaker_trips;
        c.parts_received += tier.stats.parts_received;
        c.cache_hits += tier.cache.stats.hits;
        c.cache_misses += tier.cache.stats.misses;
        c.fetch_p99_us = c
            .fetch_p99_us
            .max(tier.fetch_latency.quantile(0.99).as_micros());
    }
    c.utility_milli += (utility * 1e3).round() as i64;
    c.ctrl_fence_drops += app.control_fence_drops;
    for &m in &world.media {
        let s = app.media(m).stats;
        c.requests_served += s.requests_served;
        c.parts_sent += s.parts_sent;
        c.busy_sent += s.busy_sent;
    }
    c.events_recorded += obs.events().len() as u64;
    c.log_bytes += (std::mem::size_of_val(obs.events())
        + obs.prov.len() * std::mem::size_of::<HopRecord>()) as u64;
    c.attributions += attrs.len() as u64;
    c.unattributed += attrs
        .iter()
        .filter(|a| a.class == CauseClass::Unknown)
        .count() as u64;
    c.violations += violations.len() as u64;
    if c.first_violation.is_empty() {
        c.first_violation = violations.first().map(|v| v.render()).unwrap_or_default();
    }
    tr.close();

    // `ServiceWorld::audit_media_parts` only asserts in debug builds: the
    // same ledger, checked here in release.
    // (As in `harvest_clients`, this world's share of the running totals.)
    let (sent, received, droppable) = (
        c.parts_sent - before.parts_sent,
        c.parts_received - before.parts_received,
        (c.fault_drops - before.fault_drops) + (c.reliable_failures - before.reliable_failures),
    );
    if sent < received || sent - received > droppable {
        return Err(format!(
            "media parts leaked: {sent} sent, {received} received, {droppable} fault drops and \
             reliable failures"
        ));
    }
    if !w.fleet && c.violations != 0 {
        return Err(format!(
            "{} invariant violations on a fault-free workload, first: {}",
            c.violations, c.first_violation
        ));
    }
    Ok(())
}
