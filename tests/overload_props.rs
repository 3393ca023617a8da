//! Property tests on the overload-control primitives: the circuit breaker
//! can never get stuck Open (recovery is always reachable through probes),
//! half-open probe traffic is strictly bounded, the retry budget matches a
//! token-bucket reference model exactly (storms are bounded, tokens never
//! exceed capacity), and the bounded request queue conserves every request
//! it accepts.

use hermes_od::core::{MediaDuration, MediaTime, PricingClass};
use hermes_od::server::overload::{CLOSE_SUCCESSES, HALF_OPEN_PROBES, OPEN_TIMEOUT};
use hermes_od::server::{
    BreakerState, MediaTierConfig, NodeHealth, OverloadQueue, QueuedRequest, RetryBudget,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// One randomly chosen interaction with a node's health record.
#[derive(Debug, Clone)]
enum BreakerOp {
    /// Advance time by this many microseconds, then try to admit a fetch.
    Admit(i64),
    /// Advance time, then record a success with the given latency (µs).
    Success(i64, i64),
    /// Advance time, then record a failure.
    Failure(i64),
    /// Abandon one outstanding fetch with no verdict.
    Abandon,
}

fn breaker_op() -> impl Strategy<Value = BreakerOp> {
    // Latencies straddle the default 250 ms threshold; time steps straddle
    // the 500 ms open timeout so sequences hit every state transition.
    prop_oneof![
        (0i64..700_000).prop_map(BreakerOp::Admit),
        ((0i64..700_000), (0i64..600_000)).prop_map(|(dt, l)| BreakerOp::Success(dt, l)),
        (0i64..700_000).prop_map(BreakerOp::Failure),
        Just(BreakerOp::Abandon),
    ]
}

/// The breaker's default trip threshold.
fn threshold() -> MediaDuration {
    MediaTierConfig::default().breaker_latency
}

fn drive(ops: &[BreakerOp]) -> (NodeHealth, MediaTime) {
    let mut h = NodeHealth::default();
    let mut now = MediaTime::ZERO;
    for op in ops {
        match *op {
            BreakerOp::Admit(dt) => {
                now += MediaDuration::from_micros(dt);
                let _ = h.admit(now);
            }
            BreakerOp::Success(dt, lat) => {
                now += MediaDuration::from_micros(dt);
                h.record_success(threshold(), now, MediaDuration::from_micros(lat));
            }
            BreakerOp::Failure(dt) => {
                now += MediaDuration::from_micros(dt);
                h.record_failure(threshold(), now);
            }
            BreakerOp::Abandon => h.record_abandon(),
        }
    }
    (h, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// From any reachable breaker state, a healthy replica always recovers:
    /// waiting out the open timeout admits probes, and enough fast probe
    /// successes close the circuit. No sequence of outcomes can wedge the
    /// breaker Open forever.
    #[test]
    fn breaker_never_stuck_open(ops in proptest::collection::vec(breaker_op(), 0..80)) {
        let (mut h, mut now) = drive(&ops);
        // Recovery drive: resolve every admission instantly and favourably.
        let budget = CLOSE_SUCCESSES + HALF_OPEN_PROBES + 2;
        for _ in 0..budget {
            if h.state == BreakerState::Closed {
                break;
            }
            now += OPEN_TIMEOUT;
            prop_assert!(
                h.admit(now),
                "breaker refused a probe a full OPEN_TIMEOUT after {:?}",
                h.state
            );
            h.record_success(threshold(), now, MediaDuration::ZERO);
        }
        prop_assert_eq!(h.state, BreakerState::Closed);
    }

    /// From any reachable state, a burst of admission attempts at one
    /// instant grants at most `HALF_OPEN_PROBES` fetches unless the circuit
    /// is fully Closed — probe traffic to a sick replica is strictly
    /// bounded no matter what history preceded it.
    #[test]
    fn half_open_probe_burst_is_bounded(ops in proptest::collection::vec(breaker_op(), 0..80)) {
        let (h, now) = drive(&ops);
        if h.state == BreakerState::Closed {
            return Ok(()); // closed circuits meter nothing, by design
        }
        let mut probe = h.clone();
        let burst = now + OPEN_TIMEOUT; // enough for Open → HalfOpen
        let mut granted = 0u32;
        for _ in 0..(HALF_OPEN_PROBES + 5) {
            if probe.admit(burst) {
                granted += 1;
            }
        }
        prop_assert!(
            granted <= HALF_OPEN_PROBES,
            "{granted} probes admitted in one burst (cap {})",
            HALF_OPEN_PROBES
        );
    }
}

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The budget tracks a saturating token-bucket reference exactly: tokens
    /// never exceed capacity or go negative, every grant is backed by a
    /// token, and a pure retry storm is bounded by the initial fill.
    #[test]
    fn retry_budget_matches_reference(
        cap in 1u32..20,
        ops in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut b = RetryBudget::new(cap);
        let mut model = cap; // reference token count
        let mut granted = 0u64;
        let mut refills = 0u64;
        for &spend in &ops {
            if spend {
                let got = b.try_spend();
                prop_assert_eq!(got, model > 0, "grant must mirror token availability");
                if got {
                    model -= 1;
                    granted += 1;
                }
            } else {
                b.on_success();
                model = (model + 1).min(cap);
                refills += 1;
            }
            prop_assert_eq!(b.tokens(), model);
            prop_assert!(b.tokens() <= cap, "bucket overfilled");
            // A storm can never spend more than capacity plus refills.
            prop_assert!(granted <= cap as u64 + refills);
        }
        prop_assert_eq!(b.spent, granted);
        prop_assert_eq!(b.suppressed, ops.iter().filter(|&&s| s).count() as u64 - granted);
    }
}

// ---------------------------------------------------------------------------
// Bounded request queue
// ---------------------------------------------------------------------------

/// One randomly chosen interaction with the request queue.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Advance time, then push a request with this deadline offset/class.
    Push(i64, i64, u8),
    /// Advance time, then expire + pop one request.
    Pop(i64),
    /// Advance time, then shed everything past its deadline.
    Expire(i64),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    let class = 0u8..3;
    prop_oneof![
        ((0i64..5_000), (-2_000i64..20_000), class.clone())
            .prop_map(|(dt, dl, c)| QueueOp::Push(dt, dl, c)),
        (0i64..5_000).prop_map(QueueOp::Pop),
        (0i64..5_000).prop_map(QueueOp::Expire),
    ]
}

fn class_of(c: u8) -> PricingClass {
    match c {
        0 => PricingClass::Economy,
        1 => PricingClass::Standard,
        _ => PricingClass::Premium,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any interleaving of pushes, pops and expiries: the queue never
    /// exceeds its capacity, never serves a request whose deadline already
    /// passed at dispatch, and conserves every accepted request — enqueued
    /// equals served plus shed plus still-queued, always.
    #[test]
    fn queue_conserves_and_never_serves_dead_work(
        cap in 1usize..6,
        ops in proptest::collection::vec(queue_op(), 0..120),
    ) {
        let mut q: OverloadQueue<u64> = OverloadQueue::new(cap);
        let mut now = MediaTime::ZERO;
        let mut id = 0u64;
        let mut shed = Vec::new();
        for op in &ops {
            shed.clear();
            match *op {
                QueueOp::Push(dt, dl, c) => {
                    now += MediaDuration::from_micros(dt);
                    id += 1;
                    let req = QueuedRequest {
                        item: id,
                        enqueued_at: now,
                        deadline: now + MediaDuration::from_micros(dl),
                        class: class_of(c),
                    };
                    q.push(req, now, &mut shed);
                }
                QueueOp::Pop(dt) => {
                    now += MediaDuration::from_micros(dt);
                    q.expire(now, &mut shed);
                    if let Some(r) = q.pop() {
                        prop_assert!(
                            r.deadline >= now,
                            "served request {} was already dead at dispatch",
                            r.item
                        );
                    }
                }
                QueueOp::Expire(dt) => {
                    now += MediaDuration::from_micros(dt);
                    q.expire(now, &mut shed);
                    for shed in &shed {
                        prop_assert!(shed.deadline < now, "live request shed as expired");
                    }
                }
            }
            prop_assert!(q.len() <= cap, "queue over capacity");
            let s = q.stats;
            prop_assert_eq!(
                s.enqueued,
                s.served + s.shed_deadline + s.shed_capacity + q.len() as u64,
                "request conservation violated"
            );
        }
    }
}
