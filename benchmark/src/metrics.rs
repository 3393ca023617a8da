//! The metric lists — the one place their names, units and bounds are
//! written down; `BENCHMARK.json` is generated from here — and how each value
//! is computed from the reps of a run.

use crate::heap::RegionCost;
use crate::kernels;
use crate::rep::{Counts, Host};
use crate::stats::{max, median, min, nearest_rank, tail_percentile};
use crate::workloads::Workload;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 25;

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share by which an end-to-end metric may worsen; `None` on a per-layer
    /// metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees: what a run costs the host, and the
/// quality the simulated viewers got. Host clock first, then host counts,
/// then the simulated clock. The wall time of a rep is not here but per-layer
/// (`bench.run_s`): on this host identical code runs 1.3-1.9 times slower for
/// minutes at a time, which no bound the contract allows can hold (README,
/// Findings).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.05),
    e2e("allocs_m", "1e6", Lower, 0.08),
    e2e("sim_events_m", "1e6", Lower, 0.08),
    e2e("startup_p50_ms", "ms", Lower, 0.08),
    e2e("startup_tail_ms", "ms", Lower, 0.25),
    e2e("slo_sessions_pct", "%", Higher, 0.15),
    e2e("continuity_pct", "%", Higher, 0.15),
    e2e("av_sync_ok_pct", "%", Higher, 0.15),
    e2e("egress_mb", "MB", Lower, 0.10),
];

/// One entry per number read at a layer's boundary. Layers are crate names.
pub const PER_LAYER: &[Metric] = &[
    layer("simnet.events", "count", Lower),
    layer("simnet.self_ms", "ms", Lower),
    layer("simnet.self_ns_per_event", "ns", Lower),
    layer("simnet.delivered", "count", Lower),
    layer("simnet.timers_fired", "count", Lower),
    layer("simnet.net_packets", "count", Lower),
    layer("simnet.net_queue_drops", "count", Lower),
    layer("simnet.prov_records", "count", Lower),
    layer("simnet.prov_dropped", "count", Lower),
    layer("simnet.retransmissions", "count", Lower),
    layer("simnet.datagrams_dropped", "count", Lower),
    layer("simnet.fault_drops", "count", Lower),
    layer("simnet.mcast_link_copies", "count", Lower),
    layer("simnet.mcast_deliveries", "count", Higher),
    layer("simnet.pingpong_ns_per_event", "ns", Lower),
    layer("service.server.busy_ms", "ms", Lower),
    layer("service.server.dispatches", "count", Lower),
    layer("service.server.ns_per_dispatch", "ns", Lower),
    layer("service.server.fetches", "count", Lower),
    layer("service.server.fetch_busy", "count", Lower),
    layer("service.server.stalls", "count", Lower),
    layer("service.server.fetch_useful_ratio", "ratio", Higher),
    layer("service.server.hedges", "count", Lower),
    layer("service.server.hedge_win_ratio", "ratio", Higher),
    layer("service.server.failovers", "count", Lower),
    layer("service.server.breaker_trips", "count", Lower),
    layer("service.server.fetch_latency_p99_ms", "ms", Lower),
    layer("service.server.share_mcast_frames", "count", Higher),
    layer("service.client.busy_ms", "ms", Lower),
    layer("service.client.dispatches", "count", Lower),
    layer("service.client.ns_per_dispatch", "ns", Lower),
    layer("service.client.frames_played", "count", Higher),
    layer("service.client.duplicates_played", "count", Lower),
    layer("service.client.frames_dropped", "count", Lower),
    layer("service.client.recoveries", "count", Lower),
    layer("service.media.busy_ms", "ms", Lower),
    layer("service.media.dispatches", "count", Lower),
    layer("service.media.ns_per_dispatch", "ns", Lower),
    layer("service.media.requests_served", "count", Lower),
    layer("service.media.parts_sent", "count", Lower),
    layer("service.media.busy_sent", "count", Lower),
    layer("service.media.shed_ratio", "ratio", Lower),
    layer("service.sessions_ok_pct", "%", Higher),
    layer("service.sessions_unfinished", "count", Lower),
    layer("service.utility", "count", Higher),
    layer("server.segcache.hit_ratio", "ratio", Higher),
    layer("server.sharing.groups_opened", "count", Lower),
    layer("server.sharing.joins_patched", "count", Higher),
    layer("server.segcache_ns_per_op", "ns", Lower),
    layer("control.ticks", "count", Lower),
    layer("control.pressured_ticks", "count", Lower),
    layer("control.degrades", "count", Lower),
    layer("control.elections", "count", Lower),
    layer("control.tick_ns_per_op", "ns", Lower),
    layer("obs.events_recorded", "count", Lower),
    layer("obs.events_per_sim_event", "ratio", Lower),
    layer("obs.log_mb", "MB", Lower),
    layer("obs.publish_ms", "ms", Lower),
    layer("obs.attribute_ms", "ms", Lower),
    layer("obs.invariants_ms", "ms", Lower),
    layer("obs.attr_unattributed_pct", "%", Lower),
    layer("obs.invariant_violations", "count", Lower),
    layer("obs.emit_ns_per_op", "ns", Lower),
    layer("hml.parse_ns_per_kb", "ns", Lower),
    layer("rtp.packet_ns_per_op", "ns", Lower),
    layer("client.playout_tick_ns_per_op", "ns", Lower),
    layer("bench.setup.world_ms", "ms", Lower),
    layer("bench.setup.catalog_ms", "ms", Lower),
    layer("bench.setup.distribute_ms", "ms", Lower),
    layer("bench.reps", "count", Higher),
    layer("bench.run_s", "s", Lower),
    layer("bench.run_s_p50", "s", Lower),
    layer("bench.run_s_max", "s", Lower),
    layer("bench.cpu_s", "s", Lower),
    layer("bench.startup_tail_pct", "count", Higher),
    layer("bench.startup_samples", "count", Higher),
    layer("bench.allocs_per_event", "ratio", Lower),
    layer("bench.alloc_bytes_per_event", "ratio", Lower),
    layer("bench.layer_coverage_pct", "%", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn manifest(workloads: &[Workload]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    let list = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(out, "  \"{key}\": [").unwrap();
        writeln!(out, "    {}", rows.join(",\n    ")).unwrap();
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    let better = |b: Better| if b == Lower { "lower" } else { "higher" };
    list(
        &mut out,
        "workloads",
        workloads
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    list(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.better),
                    m.bound.expect("end-to-end metrics have a bound")
                )
            })
            .collect(),
        false,
    );
    list(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m.better)
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// The reps of one run. `counts` is the simulated side, equal in all of them.
pub struct RunData {
    pub counts: Counts,
    pub untraced: Vec<Host>,
    pub traced: Vec<Host>,
}

pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn pct(num: u64, den: u64) -> f64 {
    100.0 * ratio(num, den)
}

fn startups_ms(c: &Counts) -> Vec<f64> {
    c.startups_us.iter().map(|&us| us as f64 / 1e3).collect()
}

fn over<T>(reps: &[Host], f: impl Fn(&Host) -> T) -> Vec<T> {
    reps.iter().map(f).collect()
}

/// Median over the untraced reps of one number of the heap ledger.
fn heap_median(d: &RunData, f: fn(&RegionCost) -> u64) -> f64 {
    median(&over(&d.untraced, |h| {
        f(&h.heap.expect("untraced reps read the heap")) as f64
    }))
}

/// From untraced reps only. `setup_s` is the median over the reps (the
/// contract's rule for set-up).
pub fn end_to_end(d: &RunData) -> Values {
    let c = &d.counts;
    let heap = |f| heap_median(d, f);
    let startups = startups_ms(c);
    let ticks = c.frames_played + c.duplicates_played + c.glitches;
    vec![
        ("setup_s", median(&over(&d.untraced, |h| h.setup_s))),
        ("peak_heap_mb", heap(|r| r.peak_bytes) / 1e6),
        ("allocs_m", heap(|r| r.allocs) / 1e6),
        ("sim_events_m", c.sim_events as f64 / 1e6),
        ("startup_p50_ms", nearest_rank(&startups, 50)),
        (
            "startup_tail_ms",
            nearest_rank(&startups, tail_percentile(startups.len())),
        ),
        ("slo_sessions_pct", pct(c.slo_ok, c.arrivals)),
        ("continuity_pct", pct(c.frames_played, ticks)),
        ("av_sync_ok_pct", pct(c.sync_ok, c.started)),
        ("egress_mb", c.egress_bytes as f64 / 1e6),
    ]
}

/// Counts read at the layer boundaries, timings from the traced reps, and the
/// kernels. Interference from the host's other tenants only ever adds time to
/// the same deterministic computation, so every timing — `bench.run_s` of the
/// untraced reps too — is the minimum over its reps.
pub fn per_layer(d: &RunData) -> Values {
    let c = &d.counts;
    let lanes = |f: fn(&hermes_service::SubsystemProfile) -> u64| {
        min(&over(&d.traced, |h| {
            f(&h.lanes.expect("traced reps profile the lanes")) as f64
        }))
    };
    let traced_min = |f: fn(&Host) -> f64| min(&over(&d.traced, f));
    let (server_ns, client_ns, media_ns) = (
        lanes(|p| p.server_ns),
        lanes(|p| p.client_ns),
        lanes(|p| p.media_ns),
    );
    let (server_n, client_n, media_n) = (
        lanes(|p| p.server_events),
        lanes(|p| p.client_events),
        lanes(|p| p.media_events),
    );
    // Engine self time: what the `run_until` calls took beyond the actors
    // they dispatched into.
    let self_ns = min(&over(&d.traced, |h| {
        let p = h.lanes.expect("traced reps profile the lanes");
        h.run_until_ns
            .saturating_sub(p.server_ns + p.client_ns + p.media_ns) as f64
    }));
    let post_ms = min(&over(&d.traced, |h| {
        h.publish_ms + h.attribute_ms + h.invariants_ms
    }));
    let traced_run_s = traced_min(|h| h.run_s);
    let untraced_run = over(&d.untraced, |h| h.run_s);
    let heap = |f| heap_median(d, f);
    let useless = c.fetch_busy + c.fetch_errors + c.fetches_lost;
    let startups = startups_ms(c);
    let per = |ns: f64, n: f64| if n == 0.0 { 0.0 } else { ns / n };
    vec![
        ("simnet.events", c.sim_events as f64),
        ("simnet.self_ms", self_ns / 1e6),
        ("simnet.self_ns_per_event", self_ns / c.sim_events as f64),
        ("simnet.delivered", c.delivered as f64),
        ("simnet.timers_fired", c.timers_fired as f64),
        ("simnet.net_packets", c.net_packets as f64),
        ("simnet.net_queue_drops", c.net_queue_drops as f64),
        ("simnet.prov_records", c.prov_records as f64),
        ("simnet.prov_dropped", c.prov_dropped as f64),
        ("simnet.retransmissions", c.retransmissions as f64),
        ("simnet.datagrams_dropped", c.datagrams_dropped as f64),
        ("simnet.fault_drops", c.fault_drops as f64),
        ("simnet.mcast_link_copies", c.mcast_link_copies as f64),
        ("simnet.mcast_deliveries", c.mcast_deliveries as f64),
        (
            "simnet.pingpong_ns_per_event",
            kernels::simnet_pingpong_ns_per_event(),
        ),
        ("service.server.busy_ms", server_ns / 1e6),
        ("service.server.dispatches", server_n),
        ("service.server.ns_per_dispatch", per(server_ns, server_n)),
        ("service.server.fetches", c.fetches as f64),
        ("service.server.fetch_busy", c.fetch_busy as f64),
        ("service.server.stalls", c.stalls as f64),
        (
            "service.server.fetch_useful_ratio",
            ratio(c.fetches.saturating_sub(useless), c.fetches),
        ),
        ("service.server.hedges", c.hedges as f64),
        (
            "service.server.hedge_win_ratio",
            ratio(c.hedge_wins, c.hedges),
        ),
        ("service.server.failovers", c.failovers as f64),
        ("service.server.breaker_trips", c.breaker_trips as f64),
        (
            "service.server.fetch_latency_p99_ms",
            c.fetch_p99_us as f64 / 1e3,
        ),
        ("service.server.share_mcast_frames", c.mcast_frames as f64),
        ("service.client.busy_ms", client_ns / 1e6),
        ("service.client.dispatches", client_n),
        ("service.client.ns_per_dispatch", per(client_ns, client_n)),
        ("service.client.frames_played", c.frames_played as f64),
        (
            "service.client.duplicates_played",
            c.duplicates_played as f64,
        ),
        ("service.client.frames_dropped", c.frames_dropped as f64),
        ("service.client.recoveries", c.recoveries as f64),
        ("service.media.busy_ms", media_ns / 1e6),
        ("service.media.dispatches", media_n),
        ("service.media.ns_per_dispatch", per(media_ns, media_n)),
        ("service.media.requests_served", c.requests_served as f64),
        ("service.media.parts_sent", c.parts_sent as f64),
        ("service.media.busy_sent", c.busy_sent as f64),
        (
            "service.media.shed_ratio",
            ratio(c.busy_sent, c.busy_sent + c.requests_served),
        ),
        ("service.sessions_ok_pct", pct(c.completed, c.arrivals)),
        ("service.sessions_unfinished", c.unfinished as f64),
        ("service.utility", c.utility_milli as f64 / 1e3),
        (
            "server.segcache.hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        ),
        ("server.sharing.groups_opened", c.groups_opened as f64),
        ("server.sharing.joins_patched", c.joins_patched as f64),
        ("server.segcache_ns_per_op", kernels::segcache_ns_per_op()),
        ("control.ticks", c.ctrl_ticks as f64),
        ("control.pressured_ticks", c.ctrl_pressured_ticks as f64),
        ("control.degrades", c.ctrl_degrades as f64),
        ("control.elections", c.ctrl_elections as f64),
        ("control.tick_ns_per_op", kernels::control_tick_ns_per_op()),
        ("obs.events_recorded", c.events_recorded as f64),
        (
            "obs.events_per_sim_event",
            ratio(c.events_recorded, c.sim_events),
        ),
        ("obs.log_mb", c.log_bytes as f64 / 1e6),
        ("obs.publish_ms", traced_min(|h| h.publish_ms)),
        ("obs.attribute_ms", traced_min(|h| h.attribute_ms)),
        ("obs.invariants_ms", traced_min(|h| h.invariants_ms)),
        (
            "obs.attr_unattributed_pct",
            pct(c.unattributed, c.attributions),
        ),
        ("obs.invariant_violations", c.violations as f64),
        ("obs.emit_ns_per_op", kernels::obs_emit_ns_per_op()),
        ("hml.parse_ns_per_kb", kernels::hml_parse_ns_per_kb()),
        ("rtp.packet_ns_per_op", kernels::rtp_packet_ns_per_op()),
        (
            "client.playout_tick_ns_per_op",
            kernels::client_playout_tick_ns_per_op(),
        ),
        ("bench.setup.world_ms", traced_min(|h| h.setup.world_ms)),
        ("bench.setup.catalog_ms", traced_min(|h| h.setup.catalog_ms)),
        (
            "bench.setup.distribute_ms",
            traced_min(|h| h.setup.distribute_ms),
        ),
        ("bench.reps", (d.untraced.len() + d.traced.len()) as f64),
        ("bench.run_s", min(&untraced_run)),
        ("bench.run_s_p50", median(&untraced_run)),
        ("bench.run_s_max", max(&untraced_run)),
        ("bench.cpu_s", min(&over(&d.untraced, |h| h.cpu_s))),
        (
            "bench.startup_tail_pct",
            tail_percentile(startups.len()) as f64,
        ),
        ("bench.startup_samples", startups.len() as f64),
        (
            "bench.allocs_per_event",
            heap(|r| r.allocs) / c.sim_events as f64,
        ),
        (
            "bench.alloc_bytes_per_event",
            heap(|r| r.bytes) / c.sim_events as f64,
        ),
        (
            "bench.layer_coverage_pct",
            100.0 * ((self_ns + server_ns + client_ns + media_ns) / 1e9 + post_ms / 1e3)
                / traced_run_s,
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * (traced_run_s / min(&untraced_run) - 1.0),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            let ok = |s: &str, extra: &str| {
                s.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || extra.contains(ch))
            };
            assert!(ok(m.name, "_.-"), "{}", m.name);
            assert!(ok(m.unit, "_/%.-"), "{}", m.unit);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
    }
}
