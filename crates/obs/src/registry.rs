//! The metrics registry: counters, gauges and fixed-bucket histograms keyed
//! by `(name, labels)`, behind one deterministic snapshot/export surface.
//!
//! The registry unifies what four PRs of subsystems grew separately —
//! `SimStats`, link totals, breaker/health state, segment-cache hit
//! accounting, sharing/multicast counters, per-session QoS counters — so an
//! experiment dumps *one* ordered text snapshot instead of fishing in five
//! structs. Keys are `BTreeMap`-ordered, so two identical runs snapshot
//! byte-identically.

use crate::event::Labels;
use crate::stats::DurationHistogram;
use std::collections::BTreeMap;

/// A metric identity: static name plus the fixed label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Static metric name (`snake_case`, dotted namespaces welcome).
    pub name: &'static str,
    /// Label set distinguishing instances of the same metric.
    pub labels: Labels,
}

impl MetricKey {
    fn new(name: &'static str, labels: Labels) -> Self {
        MetricKey { name, labels }
    }
    /// Canonical `name{labels}` rendering.
    pub fn render(&self) -> String {
        format!("{}{}", self.name, self.labels.render())
    }
}

/// Counter / gauge / histogram store with a deterministic snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    hists: BTreeMap<MetricKey, DurationHistogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add to a counter (created at 0).
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, n: u64) {
        *self
            .counters
            .entry(MetricKey::new(name, labels))
            .or_insert(0) += n;
    }

    /// Set a counter to an absolute value — how subsystems that keep their
    /// own cumulative totals (e.g. `SimStats`) publish into the registry.
    pub fn counter_set(&mut self, name: &'static str, labels: Labels, v: u64) {
        self.counters.insert(MetricKey::new(name, labels), v);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: f64) {
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Install an externally-built histogram under a key (replacing any
    /// prior one) — how the media tier publishes its fetch-latency buckets.
    pub fn hist_set(&mut self, name: &'static str, labels: Labels, h: DurationHistogram) {
        self.hists.insert(MetricKey::new(name, labels), h);
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate gauges in key order (the fleet controller reads per-session
    /// and per-node signals out of report registries this way).
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate histograms in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&MetricKey, &DurationHistogram)> {
        self.hists.iter()
    }

    /// Merge another registry into this one: counters and gauges overwrite
    /// per key, histograms replace per key. Used by the fleet controller to
    /// fold per-node report registries into one fleet view — reporters
    /// label their keys with their own node id (`peer`), so keys from
    /// different nodes never collide.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.counters.insert(*k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(*k, *v);
        }
        for (k, h) in &other.hists {
            self.hists.insert(*k, h.clone());
        }
    }

    /// Number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic text snapshot: one line per metric, key-ordered within
    /// each kind; histograms render count plus p50/p99/max-edge and the
    /// overflow fraction.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {} {v}\n", k.render()));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {} {v}\n", k.render()));
        }
        for (k, h) in &self.hists {
            out.push_str(&format!(
                "hist {} count={} p50={}us p99={}us overflow={:.4}\n",
                k.render(),
                h.count(),
                h.quantile(0.5).as_micros(),
                h.quantile(0.99).as_micros(),
                h.overflow_fraction(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::MediaDuration;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("sim.delivered", Labels::NONE, 3);
        r.counter_add("sim.delivered", Labels::NONE, 2);
        r.counter_set("cache.hits", Labels::for_peer(4), 77);
        r.gauge_set("buffer.occupancy", Labels::session(1).stream(2), 0.5);
        assert_eq!(r.counter("sim.delivered", Labels::NONE), 5);
        assert_eq!(r.counter("cache.hits", Labels::for_peer(4)), 77);
        assert_eq!(r.counter("missing", Labels::NONE), 0);
        let key = MetricKey::new("buffer.occupancy", Labels::session(1).stream(2));
        assert_eq!(r.gauges.get(&key), Some(&0.5));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.counter_set("b.metric", Labels::NONE, 2);
            r.counter_set("a.metric", Labels::session(9), 1);
            r.gauge_set("g", Labels::NONE, 1.25);
            let mut h = DurationHistogram::new(MediaDuration::from_millis(1), 10);
            h.record(MediaDuration::from_millis(3));
            r.hist_set("lat", Labels::NONE, h);
            r
        };
        let a = build().snapshot();
        let b = build().snapshot();
        assert_eq!(a, b);
        let a_pos = a.find("a.metric{session=9}").unwrap();
        let b_pos = a.find("b.metric").unwrap();
        assert!(a_pos < b_pos, "snapshot must be key-ordered:\n{a}");
        assert!(a.contains("hist lat count=1"));
    }
}
