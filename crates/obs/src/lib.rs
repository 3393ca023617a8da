//! # hermes-obs
//!
//! The observability layer for the Hermes on-demand service: sim-time
//! structured tracing, lifecycle spans, a unified metrics registry and a
//! per-node flight recorder, threaded through the simulator engine and
//! every service actor.
//!
//! * [`event`] — fixed-shape, allocation-free trace records with severity
//!   and a fixed label set, merged deterministically by `(sim-time, seq)`;
//! * [`span`] — parent/child lifecycle intervals (admission → placement →
//!   prefill → playout → recovery → degradation → teardown);
//! * [`registry`] — counters, gauges and fixed-bucket histograms behind one
//!   deterministic snapshot surface;
//! * [`export`] — JSONL event dump, Chrome trace-event (Perfetto-loadable)
//!   span export, per-session timeline text and flight reports;
//! * [`flight`] — bounded per-node rings of recent events, dumped on
//!   anomalies so failures ship their own context;
//! * [`invariants`] — global invariant checkers (epoch monotonicity,
//!   session lifecycle, breaker legality, conservation, bounded recovery)
//!   run over a finished capture by the chaos harness;
//! * [`stats`] — accumulators, histograms and sample-set helpers.
//!
//! ## Cost model
//!
//! Recording is gated twice: the `trace` cargo feature (compile-time; off
//! means every record call is a statically-false branch the optimizer
//! deletes) and a runtime `enabled` flag (one load + branch when compiled
//! in). Hot-path records are 64-byte `Copy` values — `&'static str` names,
//! node id and labels packed into five 32-bit slots, no formatting — so an
//! enabled trace costs the packing, a ring push and, for `Info`-and-above,
//! one `Vec` push: 64 bytes of log per retained event. The `exp_obs`
//! benchmark measures both sides of the toggle.

#![warn(missing_docs)]

pub mod causality;
pub mod event;
pub mod export;
pub mod flight;
pub mod invariants;
pub mod registry;
pub mod slo;
pub mod span;
pub mod stats;

pub use causality::{
    attribute_events, fill_critical_paths, is_disruption, publish_attr_counters, AttributionConfig,
    CauseClass, CauseCtx, GapAttribution, HopRecord, ProvenanceLog, DEFAULT_ATTRIBUTION_WINDOW,
    PATH_HOPS,
};
pub use event::{Event, Labels, Severity};
pub use export::{chrome_trace, events_jsonl, flight_report, session_timeline};
pub use flight::{FlightDump, FlightRecorder};
pub use invariants::{check_run, InvariantConfig, Violation};
pub use registry::{MetricKey, MetricsRegistry};
pub use slo::{SloAlert, SloMonitor, SloSpec};
pub use span::{Span, SpanId, SpanStore};
pub use stats::{max_dur_by, mean_by, percentile, Accumulator, DurationHistogram};

use hermes_core::{MediaDuration, MediaTime};

/// Room to reserve before one more push onto an append-only log: none
/// while it has spare capacity, else an eighth of its length and at least
/// `min_step`. A log that doubles can sit half empty for the rest of the
/// run; one grown in these steps is never more than one step short of
/// full.
#[inline]
pub(crate) fn grow_step(len: usize, capacity: usize, min_step: usize) -> usize {
    if len < capacity {
        0
    } else {
        (len / 8).max(min_step)
    }
}

/// The smallest step the main event log grows by.
const EVENT_LOG_MIN_STEP: usize = 1024;

/// True when the `trace` cargo feature is compiled in. With it off, every
/// recording method starts with a statically-false check and compiles to a
/// no-op.
pub const TRACE_COMPILED: bool = cfg!(feature = "trace");

/// The observability capture for one run: the main event log, the span
/// store, the metrics registry and the flight recorder, plus the global
/// `seq` counter that makes same-tick emissions from different nodes merge
/// in one deterministic order.
#[derive(Debug, Clone)]
pub struct Obs {
    enabled: bool,
    seq: u64,
    events: Vec<Event>,
    /// Events recorded with a node id or label too wide for its 32-bit
    /// slot (stored saturated; published as `obs.label_overflow`).
    label_overflow: u64,
    /// Lifecycle spans.
    pub spans: SpanStore,
    /// The unified metrics registry (always live — publishing happens at
    /// end of run and is not gated by the trace toggle).
    pub registry: MetricsRegistry,
    /// Per-node recent-event rings and anomaly dumps.
    pub flight: FlightRecorder,
    /// Message provenance stamped by the engine: final deliveries keyed by
    /// causal root — the last [`ProvenanceLog::horizon`] of them, and each
    /// disruption's window.
    pub prov: ProvenanceLog,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh capture with tracing enabled (when compiled in).
    pub fn new() -> Self {
        Obs {
            enabled: true,
            seq: 0,
            events: Vec::new(),
            label_overflow: 0,
            spans: SpanStore::default(),
            registry: MetricsRegistry::new(),
            flight: FlightRecorder::default(),
            prov: ProvenanceLog::default(),
        }
    }

    /// True when recording is active (feature compiled in *and* runtime
    /// flag set).
    #[inline]
    pub fn on(&self) -> bool {
        TRACE_COMPILED && self.enabled
    }

    /// Declare, before anything is recorded, that this capture will be
    /// attributed with a window up to `window` wide: the provenance log
    /// then keeps that much of every delivery instead of
    /// [`DEFAULT_ATTRIBUTION_WINDOW`]. Panics once a delivery was recorded.
    pub fn widen_attribution_window(&mut self, window: MediaDuration) {
        self.prov.widen(window);
    }

    /// Flip the runtime toggle (a disabled capture records nothing but
    /// keeps its registry usable).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record an event with a zero payload.
    #[inline]
    pub fn emit(
        &mut self,
        at: MediaTime,
        node: u64,
        severity: Severity,
        name: &'static str,
        labels: Labels,
    ) {
        self.emit_val(at, node, severity, name, labels, 0);
    }

    /// Record an event. `Debug` severity goes to the node's flight ring
    /// only; `Info` and above also append to the main log, and a
    /// disruption there marks its window for the provenance log.
    #[inline]
    pub fn emit_val(
        &mut self,
        at: MediaTime,
        node: u64,
        severity: Severity,
        name: &'static str,
        labels: Labels,
        value: i64,
    ) {
        if !self.on() {
            return;
        }
        let ev = Event::new(at, self.seq, node, severity, name, labels, value);
        self.seq += 1;
        self.label_overflow += u64::from(ev.saturated());
        self.flight.record(ev);
        if severity >= Severity::Info {
            if causality::is_disruption(ev.name, ev.value) {
                self.prov.mark(ev.labels().session.unwrap_or(0), at);
            }
            let log = &mut self.events;
            let step = grow_step(log.len(), log.capacity(), EVENT_LOG_MIN_STEP);
            log.reserve_exact(step);
            log.push(ev);
        }
    }

    /// Open a span (returns [`SpanId::NONE`] when recording is off; the
    /// null handle is accepted everywhere downstream).
    #[inline]
    pub fn span_start(
        &mut self,
        at: MediaTime,
        node: u64,
        name: &'static str,
        labels: Labels,
        parent: SpanId,
    ) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        self.spans.start(at, node, name, labels, parent)
    }

    /// Close a span (no-op for the null handle).
    #[inline]
    pub fn span_end(&mut self, id: SpanId, at: MediaTime) {
        if !self.on() {
            return;
        }
        self.spans.end(id, at);
    }

    /// Get-or-create the root span of `session` — the shared parent under
    /// which client- and server-side actors hang their lifecycle spans.
    #[inline]
    pub fn session_span(&mut self, session: u64, node: u64, at: MediaTime) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        self.spans.session_root(session, node, at)
    }

    /// Dump `node`'s flight ring on an anomaly, headed by the incident's
    /// session-root id and a dominant-cause verdict classified from the
    /// ring window, and deduplicated per `(reason, session, root)`
    /// incident key (one incident observed from several nodes dumps once).
    /// The recorder is asked first: a repeat inside the dedupe window or a
    /// dump past the cap is counted and classifies nothing.
    #[inline]
    pub fn dump_flight(&mut self, at: MediaTime, node: u64, reason: &'static str, labels: Labels) {
        if !self.on() {
            return;
        }
        let root = labels
            .session
            .and_then(|s| self.spans.session_root_of(s))
            .map(|r| r.0)
            .unwrap_or(u32::MAX);
        self.flight
            .dump_incident(at, node, reason, labels, root, |ring| {
                let cfg = AttributionConfig::default();
                let (class, ..) = causality::classify_window(ring, at, labels.session, &cfg);
                class.label()
            });
    }

    /// Record one final delivery in the provenance log: a message of
    /// protocol class `kind` carrying `cause` reached its application at
    /// `at` after `wait` in flight (no-op when tracing is off). The
    /// disruptions marked before `at` are resolved to their roots first.
    #[inline]
    pub fn record_hop(
        &mut self,
        at: MediaTime,
        cause: CauseCtx,
        kind: &'static str,
        wait: MediaDuration,
    ) {
        if !self.on() {
            return;
        }
        let spans = &self.spans;
        self.prov.resolve_marks(at, |s| spans.session_root_of(s));
        self.prov.record(at, cause.root, kind, wait.as_micros());
    }

    /// Publish the capture's own meters into its registry: flight-recorder
    /// dumps refused (`obs.flight_suppressed`, `obs.flight_deduped`), ring
    /// evictions by the evicted event's severity
    /// (`obs.flight_overwritten_debug`, …) and events whose node id or a
    /// label was stored saturated (`obs.label_overflow` — non-zero is an
    /// invariant violation, see [`invariants::check_label_overflow`]).
    pub fn publish_self_metrics(&mut self) {
        let f = &self.flight;
        let r = &mut self.registry;
        r.counter_set("obs.label_overflow", Labels::NONE, self.label_overflow);
        r.counter_set("obs.flight_suppressed", Labels::NONE, f.suppressed);
        r.counter_set("obs.flight_deduped", Labels::NONE, f.deduped);
        const OVERWRITTEN: [&str; 4] = [
            "obs.flight_overwritten_debug",
            "obs.flight_overwritten_info",
            "obs.flight_overwritten_warn",
            "obs.flight_overwritten_error",
        ];
        for (name, n) in OVERWRITTEN.into_iter().zip(f.overwritten) {
            r.counter_set(name, Labels::NONE, n);
        }
    }

    /// Attribute every disruption in the capture: walks the event log,
    /// names a dominant cause per gap/stall/abandon, fills critical-path
    /// hop timings from the provenance log, and feeds the `attr.*`
    /// registry counters. `cfg.window` may be at most the window the
    /// capture declared ([`Self::widen_attribution_window`]).
    pub fn attribute(&mut self, cfg: &AttributionConfig) -> Vec<GapAttribution> {
        let mut attrs = attribute_events(&self.events, cfg);
        let spans = &self.spans;
        fill_critical_paths(&mut attrs, &self.prov, |s| spans.session_root_of(s), cfg);
        publish_attr_counters(&attrs, &mut self.registry);
        attrs
    }

    /// The main event log (`Info` and above), in `(at, seq)` order by
    /// construction.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events the main log can hold before it grows again.
    pub fn events_capacity(&self) -> usize {
        self.events.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "trace")]
    fn same_tick_emissions_merge_deterministically() {
        // Two nodes emit at the same sim-time tick: the global seq counter
        // fixes the merge order, and two identical runs agree byte-for-byte.
        let run = || {
            let mut obs = Obs::new();
            let t = MediaTime::from_millis(100);
            obs.emit(t, 2, Severity::Info, "node_two_first", Labels::NONE);
            obs.emit(t, 1, Severity::Info, "node_one_second", Labels::NONE);
            obs
        };
        let a = run();
        assert_eq!(a.events()[0].name, "node_two_first");
        assert_eq!(a.events()[1].name, "node_one_second");
        assert!(a.events()[0].sort_key() < a.events()[1].sort_key());
        assert_eq!(events_jsonl(&run()), events_jsonl(&a));
    }

    #[test]
    fn runtime_toggle_silences_everything() {
        let mut obs = Obs::new();
        obs.set_enabled(false);
        obs.emit(MediaTime::ZERO, 1, Severity::Error, "boom", Labels::NONE);
        let id = obs.span_start(MediaTime::ZERO, 1, "s", Labels::NONE, SpanId::NONE);
        obs.dump_flight(MediaTime::ZERO, 1, "anomaly", Labels::NONE);
        obs.record_hop(
            MediaTime::ZERO,
            CauseCtx::NONE,
            "msg",
            MediaDuration::from_millis(1),
        );
        assert!(id.is_none());
        assert!(obs.events().is_empty());
        assert!(obs.spans.is_empty());
        assert!(obs.flight.dumps().is_empty());
        assert!(obs.prov.is_empty());
        // A silenced capture meters itself as idle.
        obs.publish_self_metrics();
        for name in [
            "obs.flight_suppressed",
            "obs.flight_deduped",
            "obs.flight_overwritten_debug",
        ] {
            assert_eq!(obs.registry.counter(name, Labels::NONE), 0);
        }
        assert_eq!(obs.registry.counters().count(), 7);
        // The registry stays usable regardless of the toggle.
        obs.registry.counter_add("c", Labels::NONE, 1);
        assert_eq!(obs.registry.counter("c", Labels::NONE), 1);
    }

    /// With the `trace` feature compiled out the delivery log, the flight
    /// rings and the dump path are all no-ops; compiled in, a gap burst on
    /// one session dumps once and the capture's meters say what it cost.
    #[test]
    fn capture_meters_itself_and_follows_the_compile_toggle() {
        let mut obs = Obs::new();
        let t = MediaTime::from_millis(5);
        obs.record_hop(t, CauseCtx::NONE, "msg", MediaDuration::from_millis(1));
        // 70 events into a 64-slot ring: six `Debug` evictions.
        for _ in 0..70 {
            obs.emit(t, 1, Severity::Debug, "tick", Labels::NONE);
        }
        for _ in 0..100 {
            obs.dump_flight(t, 1, "playout_gap", Labels::session(7));
        }
        obs.publish_self_metrics();
        let counter = |name| obs.registry.counter(name, Labels::NONE);
        if TRACE_COMPILED {
            assert_eq!(obs.prov.len(), 1);
            assert_eq!(obs.prov.records().next().unwrap().wait_us, 1000);
            assert_eq!(obs.flight.dumps().len(), 1);
            assert_eq!(counter("obs.flight_deduped"), 99);
            assert_eq!(counter("obs.flight_overwritten_debug"), 6);
        } else {
            assert!(obs.prov.is_empty());
            assert!(obs.flight.dumps().is_empty());
            assert_eq!(counter("obs.flight_deduped"), 0);
            assert_eq!(counter("obs.flight_overwritten_debug"), 0);
        }
        assert_eq!(counter("obs.flight_suppressed"), 0);
    }

    /// A capture is asked for no wider window than it declared: its
    /// provenance log no longer holds what a wider one would read.
    #[test]
    #[should_panic(
        expected = "attribution window 6.000s reaches past the provenance horizon 2.000s"
    )]
    fn attributing_past_the_declared_window_panics() {
        let mut obs = Obs::new();
        obs.attribute(&AttributionConfig {
            window: MediaDuration::from_secs(6),
        });
    }

    #[test]
    fn a_declared_window_widens_the_horizon_and_never_narrows_it() {
        let mut obs = Obs::new();
        assert_eq!(obs.prov.horizon(), DEFAULT_ATTRIBUTION_WINDOW);
        assert_eq!(
            AttributionConfig::default().window,
            DEFAULT_ATTRIBUTION_WINDOW
        );
        obs.widen_attribution_window(MediaDuration::from_secs(6));
        obs.widen_attribution_window(MediaDuration::from_secs(1));
        assert_eq!(obs.prov.horizon(), MediaDuration::from_secs(6));
        let cfg = AttributionConfig {
            window: MediaDuration::from_secs(6),
        };
        assert!(obs.attribute(&cfg).is_empty());
    }

    #[test]
    #[should_panic(expected = "widened to 6.000s after 1 deliveries were recorded")]
    fn widening_after_a_delivery_panics() {
        let mut obs = Obs::new();
        obs.prov.record(MediaTime::ZERO, 0, "msg", 0);
        obs.widen_attribution_window(MediaDuration::from_secs(6));
    }

    #[test]
    fn debug_events_stay_out_of_the_main_log() {
        let mut obs = Obs::new();
        obs.emit(MediaTime::ZERO, 1, Severity::Debug, "tick", Labels::NONE);
        obs.emit(
            MediaTime::ZERO,
            1,
            Severity::Info,
            "lifecycle",
            Labels::NONE,
        );
        assert_eq!(obs.events().len(), if TRACE_COMPILED { 1 } else { 0 });
        if TRACE_COMPILED {
            assert_eq!(obs.events()[0].name, "lifecycle");
            assert_eq!(obs.flight.ring_len(1), 2);
        }
    }
}
