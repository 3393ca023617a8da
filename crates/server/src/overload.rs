//! Overload-control primitives: replica health tracking with a three-state
//! circuit breaker, a bounded request queue with deadline-aware shedding, a
//! CoDel-style queue-delay pressure detector, and a retry-budget token
//! bucket.
//!
//! The paper's QoS managers recover from *congestion*; these mechanisms make
//! the service survive *overload* — the "heavy traffic from millions of
//! users" regime of §1. The design follows the tail-tolerance playbook:
//! eject slow-but-alive replicas instead of waiting on them (circuit
//! breaking), bound queues and shed work whose playout deadline is already
//! unmeetable (staged admission), and meter retries so recovery traffic can
//! never exceed useful throughput (retry budgets). Everything here is pure
//! policy — no simulator types — so the service layer wires it to timers
//! and the bench can sweep it.

use hermes_core::{Ewma, MediaDuration, MediaTime, NodeId, PricingClass};
use std::collections::{BTreeMap, VecDeque};

// The CoDel-style pressure detector lives in hermes-core (shared with the
// client QoS manager and the fleet controller so every path scores pressure
// identically); re-exported here where the rest of the overload toolkit is.
pub use hermes_core::PressureDetector;

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// EWMA weight the breaker gives each new latency / error sample.
const BREAKER_ALPHA: f64 = 0.2;
/// Trip when the EWMA error rate exceeds this fraction.
const ERROR_THRESHOLD: f64 = 0.5;
/// Samples a replica must have before its breaker may trip (cold replicas
/// are not judged on their first fetch).
const MIN_SAMPLES: u32 = 5;
/// How long an Open breaker blocks traffic before letting probes through.
pub const OPEN_TIMEOUT: MediaDuration = MediaDuration::from_millis(500);
/// Concurrent probe fetches admitted while HalfOpen.
pub const HALF_OPEN_PROBES: u32 = 2;
/// Consecutive probe successes that close a HalfOpen breaker.
pub const CLOSE_SUCCESSES: u32 = 3;

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all traffic admitted, health tracked.
    Closed,
    /// Tripped: no traffic until [`OPEN_TIMEOUT`] elapses.
    Open,
    /// Probing: a bounded number of probe fetches decide the verdict.
    HalfOpen,
}

/// Health record of one replica node: EWMA latency and error-rate scores
/// plus the breaker state machine.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// EWMA of observed fetch latencies, in microseconds.
    pub latency: Ewma,
    /// EWMA of the error indicator (1 per failure, 0 per success).
    pub errors: Ewma,
    /// Current breaker state.
    pub state: BreakerState,
    /// When the breaker last tripped to Open.
    opened_at: MediaTime,
    /// Probe fetches currently in flight (HalfOpen only).
    probes_in_flight: u32,
    /// Consecutive probe successes while HalfOpen.
    probe_successes: u32,
    /// When the last probe slot was granted (stale-slot reclamation).
    probed_at: MediaTime,
    /// Times this replica's breaker tripped Closed/HalfOpen → Open.
    pub trips: u64,
}

impl Default for NodeHealth {
    fn default() -> Self {
        NodeHealth::new()
    }
}

impl NodeHealth {
    /// A fresh record: Closed, no samples.
    pub fn new() -> Self {
        NodeHealth {
            latency: Ewma::new(),
            errors: Ewma::new(),
            state: BreakerState::Closed,
            opened_at: MediaTime::ZERO,
            probes_in_flight: 0,
            probe_successes: 0,
            probed_at: MediaTime::ZERO,
            trips: 0,
        }
    }

    fn absorb(&mut self, latency_micros: f64, error: f64) {
        self.latency.observe(BREAKER_ALPHA, latency_micros);
        self.errors.observe(BREAKER_ALPHA, error);
    }

    /// Samples absorbed since the last reset/close.
    pub fn samples(&self) -> u32 {
        self.latency.samples() as u32
    }

    fn trip(&mut self, now: MediaTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.probes_in_flight = 0;
        self.probe_successes = 0;
        self.trips += 1;
    }

    /// A fetch to this replica completed successfully after `latency`;
    /// `threshold` is the EWMA latency that trips the breaker.
    pub fn record_success(
        &mut self,
        threshold: MediaDuration,
        now: MediaTime,
        latency: MediaDuration,
    ) {
        self.absorb(latency.as_micros() as f64, 0.0);
        match self.state {
            BreakerState::Closed => {
                if self.samples() >= MIN_SAMPLES
                    && self.latency.value() > threshold.as_micros() as f64
                {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                // A slow probe is not a recovery: only a probe under the
                // latency threshold counts toward closing.
                if latency <= threshold {
                    self.probe_successes += 1;
                    if self.probe_successes >= CLOSE_SUCCESSES {
                        self.close();
                    }
                } else {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// A fetch to this replica failed (error, shed, or timed out).
    pub fn record_failure(&mut self, threshold: MediaDuration, now: MediaTime) {
        // A failure also counts as a worst-case latency sample so a replica
        // that only ever errors still accumulates a poisoned latency score.
        self.absorb(threshold.as_micros() as f64 * 2.0, 1.0);
        match self.state {
            BreakerState::Closed => {
                if self.samples() >= MIN_SAMPLES
                    && (self.errors.value() > ERROR_THRESHOLD
                        || self.latency.value() > threshold.as_micros() as f64)
                {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                self.trip(now);
            }
            BreakerState::Open => {}
        }
    }

    /// A fetch to this replica was abandoned with no verdict (e.g. a hedge
    /// loser cancelled mid-flight): release any probe slot it held.
    pub fn record_abandon(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
        }
    }

    /// A hedge race resolved against this replica: its fetch was cancelled
    /// after `elapsed` with no reply — a censored, lower-bound latency
    /// observation (the true latency is *at least* `elapsed`). Scores the
    /// latency wire, so a chronically slow replica trips even when hedges
    /// beat it every time and no un-hedged completion ever samples it. It
    /// never counts toward closing a half-open circuit: no verdict arrived.
    pub fn record_slow_loss(
        &mut self,
        threshold: MediaDuration,
        now: MediaTime,
        elapsed: MediaDuration,
    ) {
        self.absorb(elapsed.as_micros() as f64, 0.0);
        match self.state {
            BreakerState::Closed => {
                if self.samples() >= MIN_SAMPLES
                    && self.latency.value() > threshold.as_micros() as f64
                {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                if elapsed > threshold {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn close(&mut self) {
        self.state = BreakerState::Closed;
        // A fresh verdict: forget the poisoned scores so the recovered
        // replica is judged on post-recovery behaviour only.
        self.latency.reset();
        self.errors.reset();
        self.probes_in_flight = 0;
        self.probe_successes = 0;
    }

    /// May a fetch be sent to this replica right now? Open breakers move to
    /// HalfOpen once [`OPEN_TIMEOUT`] has elapsed; HalfOpen admits a bounded
    /// number of concurrent probes. Admission of a probe reserves its slot —
    /// the caller must follow up with `record_success`/`record_failure`/
    /// `record_abandon`. Should every verdict be lost anyway (a probe
    /// written off with a dead incarnation), the stale slots are reclaimed
    /// after a further [`OPEN_TIMEOUT`] so the breaker can never wedge
    /// half-open.
    pub fn admit(&mut self, now: MediaTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now - self.opened_at >= OPEN_TIMEOUT {
                    self.state = BreakerState::HalfOpen;
                    self.probes_in_flight = 1;
                    self.probe_successes = 0;
                    self.probed_at = now;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_in_flight < HALF_OPEN_PROBES {
                    self.probes_in_flight += 1;
                    self.probed_at = now;
                    true
                } else if now - self.probed_at >= OPEN_TIMEOUT {
                    self.probes_in_flight = 1;
                    self.probe_successes = 0;
                    self.probed_at = now;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// What [`admit`](Self::admit) would answer at `now`; reserves nothing.
    pub fn admits(&self, now: MediaTime) -> bool {
        now >= self.admits_from()
    }

    /// From when [`admit`](Self::admit) says yes, if no verdict comes
    /// first: an Open breaker once its timeout has run, a HalfOpen one with
    /// its probe slots taken once they have gone stale.
    pub fn admits_from(&self) -> MediaTime {
        match self.state {
            BreakerState::Open => self.opened_at + OPEN_TIMEOUT,
            BreakerState::HalfOpen if self.probes_in_flight >= HALF_OPEN_PROBES => {
                self.probed_at + OPEN_TIMEOUT
            }
            _ => MediaTime::ZERO,
        }
    }

    /// Selection penalty in microseconds: the EWMA latency, plus a large
    /// constant while the breaker is not Closed so probed replicas rank
    /// behind every healthy one.
    pub fn penalty_micros(&self) -> i64 {
        let base = self.latency.value() as i64;
        match self.state {
            BreakerState::Closed => base,
            _ => base + 10_000_000,
        }
    }
}

/// One observed breaker state change, recorded by [`ReplicaHealthMap`] so
/// the service layer can trace every transition (the chaos harness checks
/// the resulting event stream against the legal state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The replica whose breaker moved.
    pub node: NodeId,
    /// State before the operation.
    pub from: BreakerState,
    /// State after the operation.
    pub to: BreakerState,
    /// Which operation moved it (`success`, `failure`, `slow_loss`,
    /// `probe`, `reset`).
    pub cause: &'static str,
}

/// Per-replica health map fronting [`crate::ReplicaSelector`]: the service
/// layer records fetch outcomes here and filters/penalizes candidates by
/// breaker verdicts before load/RTT selection.
#[derive(Debug, Clone)]
pub struct ReplicaHealthMap {
    /// The EWMA fetch latency that trips a replica's breaker.
    pub threshold: MediaDuration,
    nodes: BTreeMap<NodeId, NodeHealth>,
    /// Trips of replicas whose health was since reset (kept so totals
    /// survive node restarts).
    retired_trips: u64,
    /// State changes since the last [`ReplicaHealthMap::take_transitions`].
    pending: Vec<BreakerTransition>,
}

impl ReplicaHealthMap {
    /// An empty map whose breakers trip above `threshold`.
    pub fn new(threshold: MediaDuration) -> Self {
        ReplicaHealthMap {
            threshold,
            nodes: BTreeMap::new(),
            retired_trips: 0,
            pending: Vec::new(),
        }
    }

    fn entry(&mut self, node: NodeId) -> &mut NodeHealth {
        self.nodes.entry(node).or_default()
    }

    /// Run `op` on `node`'s record and log any state change under `cause`.
    /// True when the change was a trip to Open.
    fn traced(
        &mut self,
        node: NodeId,
        cause: &'static str,
        op: impl FnOnce(&mut NodeHealth, MediaDuration),
    ) -> bool {
        let threshold = self.threshold;
        let h = self.entry(node);
        let from = h.state;
        op(h, threshold);
        let to = h.state;
        if from != to {
            self.pending.push(BreakerTransition {
                node,
                from,
                to,
                cause,
            });
        }
        from != to && to == BreakerState::Open
    }

    /// Drain the breaker state changes observed since the last call. The
    /// service layer calls this after each batch of health updates and
    /// emits a trace event per transition.
    pub fn take_transitions(&mut self) -> Vec<BreakerTransition> {
        std::mem::take(&mut self.pending)
    }

    /// Record a successful fetch to `node` with the observed latency. True
    /// when this observation tripped the circuit Open (a slow success can).
    pub fn record_success(&mut self, node: NodeId, now: MediaTime, latency: MediaDuration) -> bool {
        self.traced(node, "success", |h, threshold| {
            h.record_success(threshold, now, latency);
        })
    }

    /// Record a failed fetch to `node`. True when it tripped the circuit.
    pub fn record_failure(&mut self, node: NodeId, now: MediaTime) -> bool {
        self.traced(node, "failure", |h, threshold| {
            h.record_failure(threshold, now)
        })
    }

    /// Record an abandoned fetch to `node` (no verdict).
    pub fn record_abandon(&mut self, node: NodeId) {
        self.entry(node).record_abandon();
    }

    /// Record a lost hedge race against `node`: a censored latency sample
    /// of at least `elapsed` (see [`NodeHealth::record_slow_loss`]). True
    /// when it tripped the circuit.
    pub fn record_slow_loss(
        &mut self,
        node: NodeId,
        now: MediaTime,
        elapsed: MediaDuration,
    ) -> bool {
        self.traced(node, "slow_loss", |h, threshold| {
            h.record_slow_loss(threshold, now, elapsed);
        })
    }

    /// May a fetch be sent to `node` right now? (May transition the node's
    /// breaker Open → HalfOpen and reserves a probe slot — see
    /// [`NodeHealth::admit`].)
    pub fn admit(&mut self, node: NodeId, now: MediaTime) -> bool {
        let mut admitted = false;
        self.traced(node, "probe", |h, _| {
            admitted = h.admit(now);
        });
        admitted
    }

    /// What [`admit`](Self::admit) would answer; reserves nothing.
    pub fn admits(&self, node: NodeId, now: MediaTime) -> bool {
        now >= self.admits_from(node)
    }

    /// From when `node`'s breaker admits (see [`NodeHealth::admits_from`]).
    pub fn admits_from(&self, node: NodeId) -> MediaTime {
        let known = self.nodes.get(&node);
        known.map_or(MediaTime::ZERO, NodeHealth::admits_from)
    }

    /// Selection penalty for `node` (0 for unknown nodes).
    pub fn penalty_micros(&self, node: NodeId) -> i64 {
        self.nodes.get(&node).map_or(0, NodeHealth::penalty_micros)
    }

    /// Current breaker state of `node` (Closed for unknown nodes).
    pub fn state(&self, node: NodeId) -> BreakerState {
        self.nodes
            .get(&node)
            .map_or(BreakerState::Closed, |h| h.state)
    }

    /// Forget all health state for `node`: called when the node restarts
    /// with a new incarnation, so stale-epoch scores cannot poison it. The
    /// trip count is folded into the running total first.
    pub fn reset(&mut self, node: NodeId) {
        if let Some(h) = self.nodes.remove(&node) {
            self.retired_trips += h.trips;
            if h.state != BreakerState::Closed {
                self.pending.push(BreakerTransition {
                    node,
                    from: h.state,
                    to: BreakerState::Closed,
                    cause: "reset",
                });
            }
        }
    }

    /// Total breaker trips across all replicas, including reset ones.
    pub fn trips(&self) -> u64 {
        self.retired_trips + self.nodes.values().map(|h| h.trips).sum::<u64>()
    }

    /// Health record of `node`, if any fetch outcome has been recorded.
    pub fn health(&self, node: NodeId) -> Option<&NodeHealth> {
        self.nodes.get(&node)
    }
}

// ---------------------------------------------------------------------------
// Bounded request queue with deadline-aware shedding
// ---------------------------------------------------------------------------

/// One queued request with its shedding metadata.
#[derive(Debug, Clone)]
pub struct QueuedRequest<T> {
    /// The request payload.
    pub item: T,
    /// When it entered the queue.
    pub enqueued_at: MediaTime,
    /// The playout deadline after which serving it is pointless.
    pub deadline: MediaTime,
    /// Pricing class of the requesting session (cheapest shed first).
    pub class: PricingClass,
}

/// Statistics of an [`OverloadQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadQueueStats {
    /// Requests accepted into the queue.
    pub enqueued: u64,
    /// Requests dequeued for service.
    pub served: u64,
    /// Requests shed because their deadline was already unmeetable.
    pub shed_deadline: u64,
    /// Requests shed to bound the queue (oldest-first within the cheapest
    /// class present).
    pub shed_capacity: u64,
}

/// A bounded FIFO request queue with deadline-aware shedding: requests whose
/// playout deadline has passed are dropped eagerly, and when the queue is
/// full the oldest request of the cheapest pricing class present is shed to
/// make room.
#[derive(Debug, Clone)]
pub struct OverloadQueue<T> {
    /// Maximum queued requests.
    pub capacity: usize,
    queue: VecDeque<QueuedRequest<T>>,
    /// Counters.
    pub stats: OverloadQueueStats,
}

impl<T> OverloadQueue<T> {
    /// An empty queue bounded to `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        OverloadQueue {
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            stats: OverloadQueueStats::default(),
        }
    }

    /// Queued requests right now.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued requests, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedRequest<T>> {
        self.queue.iter()
    }

    /// Drop every request whose deadline has already passed (unmeetable),
    /// appending them oldest-first to the caller's `shed` so it can answer
    /// each (the media actor reuses one scratch `Vec` across a shed storm).
    pub fn expire(&mut self, now: MediaTime, shed: &mut Vec<QueuedRequest<T>>) {
        let before = shed.len();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline < now {
                shed.push(self.queue.remove(i).unwrap());
            } else {
                i += 1;
            }
        }
        self.stats.shed_deadline += (shed.len() - before) as u64;
    }

    /// Enqueue a request, appending to `shed` every request shed to admit
    /// it: first deadline-expired entries, then — if the queue is still over
    /// capacity — the oldest entry of the cheapest class present (which may
    /// be the new request itself).
    pub fn push(
        &mut self,
        req: QueuedRequest<T>,
        now: MediaTime,
        shed: &mut Vec<QueuedRequest<T>>,
    ) {
        self.expire(now, shed);
        self.queue.push_back(req);
        self.stats.enqueued += 1;
        while self.queue.len() > self.capacity {
            let cheapest = self.queue.iter().map(|r| r.class).min().unwrap();
            let victim = self.queue.iter().position(|r| r.class == cheapest).unwrap();
            shed.push(self.queue.remove(victim).unwrap());
            self.stats.shed_capacity += 1;
        }
    }

    /// Keep only requests whose payload satisfies the predicate (used for
    /// cancellations — removals are not counted as shed).
    pub fn retain(&mut self, f: impl Fn(&T) -> bool) {
        self.queue.retain(|r| f(&r.item));
    }

    /// Dequeue the next request in arrival order.
    pub fn pop(&mut self) -> Option<QueuedRequest<T>> {
        let r = self.queue.pop_front();
        if r.is_some() {
            self.stats.served += 1;
        }
        r
    }
}

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

/// A retry-budget token bucket: each retransmission spends a token, each
/// acknowledged request refills one. An empty bucket suppresses resends so a
/// reconnect wave against a recovering server is bounded to the budget
/// instead of amplifying into a retry storm.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    /// Bucket capacity (also the initial fill).
    pub max_tokens: u32,
    tokens: u32,
    /// Retries granted.
    pub spent: u64,
    /// Retries suppressed because the bucket was empty.
    pub suppressed: u64,
}

impl RetryBudget {
    /// A full bucket holding `max_tokens`.
    pub fn new(max_tokens: u32) -> Self {
        RetryBudget {
            max_tokens,
            tokens: max_tokens,
            spent: 0,
            suppressed: 0,
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> u32 {
        self.tokens
    }

    /// Spend one token for a retry. Returns false (and counts a suppression)
    /// when the bucket is empty — the caller should skip the resend and only
    /// re-arm its timer.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens > 0 {
            self.tokens -= 1;
            self.spent += 1;
            true
        } else {
            self.suppressed += 1;
            false
        }
    }

    /// A request succeeded (was acknowledged): refill one token.
    pub fn on_success(&mut self) {
        self.tokens = (self.tokens + 1).min(self.max_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> MediaDuration {
        MediaDuration::from_millis(v)
    }
    fn at(v: i64) -> MediaTime {
        MediaTime::from_millis(v)
    }
    /// `push`, returning what this one call shed.
    fn push(
        q: &mut OverloadQueue<u32>,
        req: QueuedRequest<u32>,
        now: MediaTime,
    ) -> Vec<QueuedRequest<u32>> {
        let mut shed = Vec::new();
        q.push(req, now, &mut shed);
        shed
    }

    #[test]
    fn breaker_trips_on_sustained_latency_and_recovers_via_probes() {
        let lat = ms(250); // the default trip threshold
        let mut h = NodeHealth::new();
        // Healthy samples keep it closed.
        for i in 0..10 {
            h.record_success(lat, at(i * 10), ms(20));
            assert_eq!(h.state, BreakerState::Closed);
        }
        // Sustained slowness trips it.
        let mut t = 100;
        while h.state == BreakerState::Closed {
            h.record_success(lat, at(t), ms(800));
            t += 10;
        }
        assert_eq!(h.state, BreakerState::Open);
        assert_eq!(h.trips, 1);
        // Blocked while Open, admitted as a probe after the timeout.
        assert!(!h.admit(at(t)));
        let after = at(t) + OPEN_TIMEOUT;
        assert!(h.admit(after));
        assert_eq!(h.state, BreakerState::HalfOpen);
        // Fast probes close it again.
        for i in 0..CLOSE_SUCCESSES {
            if i > 0 {
                assert!(h.admit(after));
            }
            h.record_success(lat, after, ms(10));
        }
        assert_eq!(h.state, BreakerState::Closed);
    }

    #[test]
    fn breaker_trips_on_error_rate() {
        let lat = ms(250); // the default trip threshold
        let mut h = NodeHealth::new();
        let mut t = 0;
        while h.state == BreakerState::Closed && t < 1000 {
            h.record_failure(lat, at(t));
            t += 10;
        }
        assert_eq!(h.state, BreakerState::Open);
    }

    #[test]
    fn half_open_failure_reopens() {
        let lat = ms(250); // the default trip threshold
        let mut h = NodeHealth::new();
        for _ in 0..10 {
            h.record_failure(lat, at(0));
        }
        assert_eq!(h.state, BreakerState::Open);
        let probe_at = at(0) + OPEN_TIMEOUT;
        assert!(h.admit(probe_at));
        h.record_failure(lat, probe_at);
        assert_eq!(h.state, BreakerState::Open);
        assert_eq!(h.trips, 2);
    }

    #[test]
    fn half_open_probes_are_bounded() {
        let lat = ms(250); // the default trip threshold
        let mut h = NodeHealth::new();
        for _ in 0..10 {
            h.record_failure(lat, at(0));
        }
        let probe_at = at(0) + OPEN_TIMEOUT;
        let mut admitted = 0;
        for _ in 0..20 {
            if h.admit(probe_at) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, HALF_OPEN_PROBES);
        // An abandoned probe releases its slot.
        h.record_abandon();
        assert!(h.admit(probe_at));
    }

    #[test]
    fn half_open_stale_probe_slots_are_reclaimed() {
        // If every probe verdict is lost (e.g. the replica's incarnation died
        // with the probes in flight), the breaker must not wedge half-open:
        // after a further OPEN_TIMEOUT the slots are reclaimed.
        let lat = ms(250); // the default trip threshold
        let mut h = NodeHealth::new();
        for _ in 0..10 {
            h.record_failure(lat, at(0));
        }
        let t1 = at(0) + OPEN_TIMEOUT;
        for _ in 0..HALF_OPEN_PROBES {
            assert!(h.admit(t1));
        }
        assert!(!h.admit(t1), "probe slots exhausted");
        // No verdict ever arrives; a full OPEN_TIMEOUT later probing resumes.
        let t2 = t1 + OPEN_TIMEOUT;
        assert!(h.admit(t2), "stale slots must be reclaimed");
        assert!(h.admit(t2));
        assert!(!h.admit(t2), "reclaimed probes are bounded again");
    }

    #[test]
    fn admits_answers_what_admit_would_and_reserves_nothing() {
        // Closed, Open before and after the timeout, HalfOpen with a free
        // slot, with none, and with stale ones.
        let lat = ms(250); // the default trip threshold
        let mut h = NodeHealth::new();
        let agree = |h: &mut NodeHealth, now| {
            let asked = h.admits(now);
            assert_eq!(h.admits(now), asked, "asking changes nothing");
            assert_eq!(h.admit(now), asked, "{:?} at {now:?}", h.state);
            asked
        };
        assert!(agree(&mut h, at(0)));
        for _ in 0..10 {
            h.record_failure(lat, at(0));
        }
        assert!(!agree(&mut h, at(1)));
        let t1 = at(0) + OPEN_TIMEOUT;
        for _ in 0..HALF_OPEN_PROBES {
            assert!(agree(&mut h, t1));
        }
        assert!(!agree(&mut h, t1));
        assert!(agree(&mut h, t1 + OPEN_TIMEOUT));
    }

    #[test]
    fn health_map_reset_forgets_state_but_keeps_trip_total() {
        let n = NodeId::new(9);
        let mut m = ReplicaHealthMap::new(ms(250));
        for _ in 0..10 {
            m.record_failure(n, at(0));
        }
        assert_eq!(m.state(n), BreakerState::Open);
        assert_eq!(m.trips(), 1);
        m.reset(n);
        assert_eq!(m.state(n), BreakerState::Closed);
        assert!(m.admit(n, at(0)));
        assert_eq!(m.trips(), 1, "trip history survives the reset");
        assert_eq!(m.penalty_micros(n), 0);
    }

    #[test]
    fn queue_sheds_expired_deadlines_first() {
        let mut q: OverloadQueue<u32> = OverloadQueue::new(8);
        for i in 0..4 {
            let shed = push(
                &mut q,
                QueuedRequest {
                    item: i,
                    enqueued_at: at(0),
                    deadline: at(100 + i as i64),
                    class: PricingClass::Standard,
                },
                at(0),
            );
            assert!(shed.is_empty());
        }
        // Two deadlines pass; both are shed on the next push.
        let shed = push(
            &mut q,
            QueuedRequest {
                item: 9,
                enqueued_at: at(102),
                deadline: at(500),
                class: PricingClass::Standard,
            },
            at(102),
        );
        assert_eq!(shed.iter().map(|r| r.item).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(q.stats.shed_deadline, 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn queue_capacity_sheds_oldest_of_cheapest_class() {
        let mut q: OverloadQueue<u32> = OverloadQueue::new(3);
        let classes = [
            PricingClass::Premium,
            PricingClass::Economy,
            PricingClass::Economy,
        ];
        for (i, class) in classes.iter().enumerate() {
            push(
                &mut q,
                QueuedRequest {
                    item: i as u32,
                    enqueued_at: at(i as i64),
                    deadline: at(1_000),
                    class: *class,
                },
                at(i as i64),
            );
        }
        // Full: a premium push evicts the oldest economy entry (item 1).
        let shed = push(
            &mut q,
            QueuedRequest {
                item: 3,
                enqueued_at: at(10),
                deadline: at(1_000),
                class: PricingClass::Premium,
            },
            at(10),
        );
        assert_eq!(shed.iter().map(|r| r.item).collect::<Vec<_>>(), [1]);
        assert_eq!(q.stats.shed_capacity, 1);
        // Queue is now [0 Premium, 2 Economy, 3 Premium]: a further economy
        // push evicts the *older* economy entry, not the newcomer...
        let shed = push(
            &mut q,
            QueuedRequest {
                item: 4,
                enqueued_at: at(11),
                deadline: at(1_000),
                class: PricingClass::Economy,
            },
            at(11),
        );
        assert_eq!(shed.iter().map(|r| r.item).collect::<Vec<_>>(), [2]);
        // ...and once it is the only economy entry left, a premium push
        // sheds the newcomer's own class mate — the newcomer survives only
        // if it outranks something.
        let shed = push(
            &mut q,
            QueuedRequest {
                item: 5,
                enqueued_at: at(12),
                deadline: at(1_000),
                class: PricingClass::Premium,
            },
            at(12),
        );
        assert_eq!(shed.iter().map(|r| r.item).collect::<Vec<_>>(), [4]);
    }

    #[test]
    fn retry_budget_bounds_a_storm_and_refills_on_success() {
        let mut b = RetryBudget::new(3);
        let mut granted = 0;
        for _ in 0..10 {
            if b.try_spend() {
                granted += 1;
            }
        }
        assert_eq!(granted, 3);
        assert_eq!(b.suppressed, 7);
        b.on_success();
        assert!(b.try_spend());
        assert!(!b.try_spend());
        for _ in 0..100 {
            b.on_success();
        }
        assert_eq!(b.tokens(), b.max_tokens, "refill saturates at capacity");
    }
    /// The parent's `Vec`-returning `expire` / `push`, kept as the spec the
    /// out-parameter pair is checked against.
    impl<T> OverloadQueue<T> {
        fn expire_spec(&mut self, now: MediaTime) -> Vec<QueuedRequest<T>> {
            let mut shed = Vec::new();
            let mut i = 0;
            while i < self.queue.len() {
                if self.queue[i].deadline < now {
                    shed.push(self.queue.remove(i).unwrap());
                } else {
                    i += 1;
                }
            }
            self.stats.shed_deadline += shed.len() as u64;
            shed
        }

        fn push_spec(&mut self, req: QueuedRequest<T>, now: MediaTime) -> Vec<QueuedRequest<T>> {
            let mut shed = self.expire_spec(now);
            self.queue.push_back(req);
            self.stats.enqueued += 1;
            while self.queue.len() > self.capacity {
                let cheapest = self.queue.iter().map(|r| r.class).min().unwrap();
                let victim = self.queue.iter().position(|r| r.class == cheapest).unwrap();
                shed.push(self.queue.remove(victim).unwrap());
                self.stats.shed_capacity += 1;
            }
            shed
        }
    }

    proptest::proptest! {
        /// Over random push / pop / expire / time sequences the
        /// out-parameter pair sheds the same requests in the same order as
        /// the `Vec`-returning spec, serves the same ones and ends every
        /// step with the same stats — also when the caller's scratch
        /// already holds earlier sheds (`shed_deadline` counts only what
        /// the call appended).
        #[test]
        fn out_parameter_queue_matches_vec_returning_spec(
            cap in 1usize..6,
            drain_scratch in proptest::any::<bool>(),
            ops in proptest::collection::vec((0u8..3, 0i64..40, 0i64..120, 0u8..3), 0..150),
        ) {
            let mut q: OverloadQueue<u32> = OverloadQueue::new(cap);
            let mut spec: OverloadQueue<u32> = OverloadQueue::new(cap);
            let (mut shed, mut shed_spec) = (Vec::new(), Vec::new());
            let mut now = MediaTime::ZERO;
            for (i, &(op, dt, deadline, class)) in ops.iter().enumerate() {
                now += ms(dt);
                match op {
                    0 => {
                        let req = QueuedRequest {
                            item: i as u32,
                            enqueued_at: now,
                            deadline: now + ms(deadline - 20),
                            class: [PricingClass::Economy, PricingClass::Standard, PricingClass::Premium]
                                [class as usize],
                        };
                        q.push(req.clone(), now, &mut shed);
                        shed_spec.extend(spec.push_spec(req, now));
                    }
                    1 => {
                        q.expire(now, &mut shed);
                        shed_spec.extend(spec.expire_spec(now));
                    }
                    _ => proptest::prop_assert_eq!(
                        q.pop().map(|r| r.item),
                        spec.pop().map(|r| r.item)
                    ),
                }
                let items = |v: &[QueuedRequest<u32>]| v.iter().map(|r| r.item).collect::<Vec<_>>();
                proptest::prop_assert_eq!(items(&shed), items(&shed_spec));
                proptest::prop_assert_eq!(q.stats, spec.stats);
                proptest::prop_assert_eq!(q.len(), spec.len());
                if drain_scratch {
                    shed.clear();
                    shed_spec.clear();
                }
            }
        }
    }
}
