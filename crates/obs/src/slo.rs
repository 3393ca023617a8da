//! Declarative SLOs with multi-window burn-rate monitoring.
//!
//! An [`SloSpec`] states an objective as an allowed bad-sample budget
//! (`bad_per_1000`): every concrete SLO reduces to a good/bad sample
//! stream —
//!
//! * **gap-ticks-per-1000**: one sample per playout tick, bad when the
//!   tick glitched;
//! * **join latency P99**: one sample per admission, bad when
//!   connect→admit latency exceeded the spec threshold (a 10/1000 budget
//!   is "P99 under threshold");
//! * **utility floor**: one sample per session, bad when delivered
//!   utility fell below the floor.
//!
//! The [`SloMonitor`] keeps per-spec sliding bucket windows over sim-time
//! and computes **burn rate** — observed bad rate divided by the budget —
//! over a fast and a slow window. An alert fires only when *both* burn,
//! the classic multi-window rule: the slow window proves the burn is
//! sustained, the fast window proves it is still happening. Burn is
//! published through the metrics registry (gauge per spec, in milli-burn
//! so the i64 gauge keeps 3 decimals) where `hermes-control`'s
//! FleetController reads it as a leading pressure signal alongside queue
//! depth.
//!
//! Everything is integer-count arithmetic over sim-time — deterministic
//! across runs and platforms.

use std::collections::VecDeque;

use crate::event::Labels;
use crate::registry::MetricsRegistry;
use hermes_core::{MediaDuration, MediaTime};

/// Fast burn window (is it happening *now*?).
const FAST_WINDOW: MediaDuration = MediaDuration::from_secs(1);
/// Slow burn window (is it *sustained*?).
const SLOW_WINDOW: MediaDuration = MediaDuration::from_secs(5);
/// Fast-window burn rate required to alert.
const FAST_BURN: f64 = 2.0;
/// Slow-window burn rate required to alert.
const SLOW_BURN: f64 = 1.0;
/// Bucket width, µs: a quarter of the fast window — fine enough that
/// window sums track the true rate, coarse enough to stay tiny.
const BUCKET_US: i64 = FAST_WINDOW.as_micros() / 4;

/// One declarative SLO. `name` doubles as the registry gauge name for the
/// published burn, so it must be `&'static` and unique per monitor.
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// Spec + gauge name (e.g. `"slo.join"`).
    pub name: &'static str,
    /// Objective: allowed bad samples per 1000 (the error budget).
    pub bad_per_1000: f64,
    /// Latency threshold for latency-style specs fed via
    /// [`SloMonitor::record_latency`]; `None` for pure event-rate specs.
    pub latency_threshold: Option<MediaDuration>,
}

impl SloSpec {
    /// An event-rate spec (gap ticks, shed fetches, …).
    pub fn event_rate(name: &'static str, bad_per_1000: f64) -> SloSpec {
        SloSpec {
            name,
            bad_per_1000,
            latency_threshold: None,
        }
    }

    /// A latency-percentile spec: bad when the recorded latency exceeds
    /// `threshold`. A 10/1000 budget reads "P99 stays under threshold".
    pub fn latency(name: &'static str, threshold: MediaDuration, bad_per_1000: f64) -> SloSpec {
        SloSpec {
            latency_threshold: Some(threshold),
            ..SloSpec::event_rate(name, bad_per_1000)
        }
    }
}

/// A fired multi-window burn alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAlert {
    /// When the alert condition was first observed (edge-triggered).
    pub at: MediaTime,
    /// The spec that burned.
    pub spec: &'static str,
    /// Fast-window burn at fire time.
    pub fast_burn: f64,
    /// Slow-window burn at fire time.
    pub slow_burn: f64,
}

/// `(bucket start µs, total samples, bad samples)`.
type Bucket = (i64, u64, u64);

#[derive(Debug, Clone)]
struct SpecState {
    spec: SloSpec,
    buckets: VecDeque<Bucket>,
    alerting: bool,
}

impl SpecState {
    fn new(spec: SloSpec) -> SpecState {
        SpecState {
            spec,
            buckets: VecDeque::new(),
            alerting: false,
        }
    }

    fn record(&mut self, now: MediaTime, total: u64, bad: u64) {
        if total == 0 {
            return;
        }
        let start = now.as_micros().div_euclid(BUCKET_US) * BUCKET_US;
        match self.buckets.back_mut() {
            Some(b) if b.0 == start => {
                b.1 += total;
                b.2 += bad;
            }
            _ => self.buckets.push_back((start, total, bad)),
        }
        let horizon = now.as_micros() - SLOW_WINDOW.as_micros();
        while matches!(self.buckets.front(), Some(b) if b.0 + BUCKET_US <= horizon) {
            self.buckets.pop_front();
        }
    }

    /// Burn over a window ending at `now`: bad-rate / budget; 0.0 with no
    /// samples.
    fn burn_over(&self, now: MediaTime, window: MediaDuration) -> f64 {
        let lo = now.as_micros() - window.as_micros();
        let (mut total, mut bad) = (0u64, 0u64);
        for &(start, t, b) in &self.buckets {
            // A bucket counts while any part of it overlaps the window.
            if start + BUCKET_US > lo && start <= now.as_micros() {
                total += t;
                bad += b;
            }
        }
        if total == 0 || self.spec.bad_per_1000 <= 0.0 {
            return 0.0;
        }
        (bad as f64 * 1000.0 / total as f64) / self.spec.bad_per_1000
    }
}

/// Sliding-window burn-rate monitor over a set of SLO specs.
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    states: Vec<SpecState>,
    /// Every alert fired so far, in fire order (edge-triggered: one entry
    /// per burn episode, re-armed when the fast window cools off).
    pub alerts: Vec<SloAlert>,
}

impl SloMonitor {
    /// Monitor over the given specs.
    pub fn new(specs: Vec<SloSpec>) -> SloMonitor {
        SloMonitor {
            states: specs.into_iter().map(SpecState::new).collect(),
            alerts: Vec::new(),
        }
    }

    /// The spec index for a name (specs are few; linear scan).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s.spec.name == name)
    }

    /// Record `bad` bad samples out of `total` for spec `idx` at `now`.
    pub fn record(&mut self, now: MediaTime, idx: usize, total: u64, bad: u64) {
        if let Some(s) = self.states.get_mut(idx) {
            s.record(now, total, bad);
        }
    }

    /// Record one latency sample for a latency-style spec: bad when it
    /// exceeds the spec threshold.
    pub fn record_latency(&mut self, now: MediaTime, idx: usize, latency: MediaDuration) {
        let Some(s) = self.states.get_mut(idx) else {
            return;
        };
        let bad = match s.spec.latency_threshold {
            Some(t) => (latency > t) as u64,
            None => 0,
        };
        s.record(now, 1, bad);
    }

    /// `(fast, slow)` burn for spec `idx` at `now`.
    pub fn burn(&self, now: MediaTime, idx: usize) -> (f64, f64) {
        match self.states.get(idx) {
            Some(s) => (s.burn_over(now, FAST_WINDOW), s.burn_over(now, SLOW_WINDOW)),
            None => (0.0, 0.0),
        }
    }

    /// The leading-signal scalar published to the controller: the maximum
    /// over specs of `min(fast, slow)` burn — the multi-window conjunctive
    /// value, so a transient blip (fast only) or stale history (slow only)
    /// does not register.
    pub fn max_burn(&self, now: MediaTime) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.states.len() {
            let (f, s) = self.burn(now, i);
            best = best.max(f.min(s));
        }
        best
    }

    /// Evaluate the multi-window alert rule, returning newly fired alerts
    /// (edge-triggered per spec; re-arms when the fast burn cools below
    /// its threshold).
    pub fn check(&mut self, now: MediaTime) -> Vec<SloAlert> {
        let mut fired = Vec::new();
        for i in 0..self.states.len() {
            let (fast, slow) = self.burn(now, i);
            let s = &mut self.states[i];
            let hot = fast >= FAST_BURN && slow >= SLOW_BURN;
            if hot && !s.alerting {
                s.alerting = true;
                let a = SloAlert {
                    at: now,
                    spec: s.spec.name,
                    fast_burn: fast,
                    slow_burn: slow,
                };
                fired.push(a);
                self.alerts.push(a);
            } else if !hot && fast < FAST_BURN {
                s.alerting = false;
            }
        }
        fired
    }

    /// Publish per-spec burn gauges (in milli-burn: 1000 = burning the
    /// budget exactly) plus an alert counter, under `labels`.
    pub fn publish(&self, now: MediaTime, registry: &mut MetricsRegistry, labels: Labels) {
        for i in 0..self.states.len() {
            let (f, s) = self.burn(now, i);
            let burn = f.min(s);
            registry.gauge_set(self.states[i].spec.name, labels, burn * 1000.0);
        }
        if !self.alerts.is_empty() {
            registry.counter_set("slo.alerts", labels, self.alerts.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> MediaTime {
        MediaTime::from_millis(ms)
    }

    #[test]
    fn burn_is_rate_over_budget() {
        // Budget 10/1000; feed 5% bad -> burn 50.
        let mut m = SloMonitor::new(vec![SloSpec::event_rate("slo.gap", 10.0)]);
        for i in 0..100 {
            m.record(t(10 * i), 0, 1, (i % 20 == 0) as u64);
        }
        let (fast, _slow) = m.burn(t(1000), 0);
        assert!((fast - 5.0).abs() < 0.8, "fast burn {fast}");
    }

    #[test]
    fn alert_needs_both_windows() {
        // A half-bad spike over a 100/1000 budget: the fast window burns
        // 2.5× within 0.5 s, while 4.5 s of clean history keeps the slow
        // window under 1×.
        let mut m = SloMonitor::new(vec![SloSpec::event_rate("slo.gap", 100.0)]);
        for i in 0..45 {
            m.record(t(100 * i), 0, 10, 0);
        }
        for i in 45..50 {
            m.record(t(100 * i), 0, 10, 5);
        }
        let (fast, slow) = m.burn(t(5000), 0);
        assert!(fast >= FAST_BURN, "fast {fast}");
        assert!(slow < SLOW_BURN, "slow {slow}");
        assert!(m.check(t(5000)).is_empty(), "no alert without slow burn");
        // Keep burning: slow catches up and the alert fires exactly once.
        let mut fired = 0;
        for i in 50..100 {
            m.record(t(100 * i), 0, 10, 5);
            fired += m.check(t(100 * i)).len();
        }
        assert_eq!(fired, 1);
        assert_eq!(m.alerts.len(), 1);
    }

    #[test]
    fn latency_spec_marks_over_threshold_bad() {
        let spec = SloSpec::latency("slo.join", MediaDuration::from_millis(100), 100.0);
        let mut m = SloMonitor::new(vec![spec]);
        for i in 0..10 {
            let d = if i < 5 {
                MediaDuration::from_millis(10)
            } else {
                MediaDuration::from_millis(500)
            };
            m.record_latency(t(50 * i), 0, d);
        }
        let (fast, _) = m.burn(t(500), 0);
        // 50% bad over a 10% budget -> burn 5.
        assert!((fast - 5.0).abs() < 0.01, "burn {fast}");
    }

    #[test]
    fn publish_writes_milli_burn_gauges() {
        let mut m = SloMonitor::new(vec![SloSpec::event_rate("slo.gap", 10.0)]);
        for i in 0..50 {
            m.record(t(20 * i), 0, 1, 1); // 100% bad: burn 100
        }
        let mut reg = MetricsRegistry::new();
        m.publish(t(1000), &mut reg, Labels::for_peer(1));
        let g = reg.gauge("slo.gap", Labels::for_peer(1));
        assert!(g >= 99_000.0, "gauge {g}");
    }

    #[test]
    fn old_buckets_are_evicted() {
        let mut m = SloMonitor::new(vec![SloSpec::event_rate("slo.gap", 10.0)]);
        for i in 0..1000 {
            m.record(t(10 * i), 0, 1, 0);
        }
        assert!(
            m.states[0].buckets.len() <= 24,
            "{}",
            m.states[0].buckets.len()
        );
    }
}
