//! Connection admission control (§4).
//!
//! "This mechanism evaluates a set of parameters concerning the network and
//! the connection's request options, to decide on connection admission or
//! rejection. Such parameters are the network's condition the specific time
//! the request is sent (e.g. network load, available bandwidth) and the
//! potential load that will be caused due to the new connection. ... The
//! above parameters are evaluated in conjunction with the pricing contract
//! of the specific user (a user who pays more should be serviced, even
//! though it affects the other users)."

use hermes_core::{ConnectionId, MediaDuration, PricingClass, QosRequirement, SessionId};
use std::collections::BTreeMap;

/// A connection request as evaluated by the admission controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionRequest {
    /// The session asking for admission.
    pub session: SessionId,
    /// The requester's pricing contract.
    pub class: PricingClass,
    /// Aggregate QoS requirement of the streams the connection will carry.
    pub requirement: QosRequirement,
}

/// The admission verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// Admitted; the stated bandwidth was reserved.
    Admit {
        /// Bandwidth reserved along the path, bits/second.
        reserved_bps: u64,
    },
    /// Rejected, with the reason given to the client.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
}

/// A snapshot of the network path's condition, supplied by the caller (the
/// service layer measures it on the simulated network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCondition {
    /// Bottleneck capacity of the path, bits/second.
    pub capacity_bps: u64,
    /// Bandwidth already reserved plus background load, bits/second.
    pub committed_bps: u64,
    /// Current measured round-trip delay estimate.
    pub rtt: MediaDuration,
}

impl PathCondition {
    /// Utilization after admitting `extra_bps` more.
    pub fn utilization_with(&self, extra_bps: u64) -> f64 {
        (self.committed_bps + extra_bps) as f64 / self.capacity_bps.max(1) as f64
    }
}

/// Statistics kept by the controller (per pricing class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests received.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
}

/// The connection admission controller of one multimedia server.
#[derive(Debug, Default)]
pub struct AdmissionController {
    active: BTreeMap<SessionId, (ConnectionId, u64)>,
    next_conn: u64,
    /// Per-class accounting for the EXP-ADMIT experiment.
    pub stats: BTreeMap<PricingClass, ClassStats>,
}

impl AdmissionController {
    /// A fresh controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently admitted sessions.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// Evaluate a request against the path condition. On admission the
    /// caller must perform the actual reservation with the returned
    /// connection id; on failure call [`AdmissionController::release`].
    pub fn evaluate(
        &mut self,
        req: &ConnectionRequest,
        path: PathCondition,
    ) -> (AdmissionDecision, Option<ConnectionId>) {
        let stats = self.stats.entry(req.class).or_default();
        stats.requests += 1;
        // The requirement's mean bandwidth is what we reserve; the peak is
        // checked against instantaneous headroom.
        let want = req.requirement.bandwidth_bps;
        let util_after = path.utilization_with(want);
        let ceiling = req.class.admission_ceiling();
        if util_after > ceiling {
            stats.rejected += 1;
            return (
                AdmissionDecision::Reject {
                    reason: format!(
                        "network load {:.0}% would exceed the {:.0}% ceiling of the {:?} contract",
                        util_after * 100.0,
                        ceiling * 100.0,
                        req.class
                    ),
                },
                None,
            );
        }
        // Delay feasibility: a path whose RTT already exceeds the stream's
        // delay budget cannot possibly meet it.
        if path.rtt / 2 > req.requirement.max_delay {
            stats.rejected += 1;
            return (
                AdmissionDecision::Reject {
                    reason: format!(
                        "one-way delay {} exceeds the requested bound {}",
                        path.rtt / 2,
                        req.requirement.max_delay
                    ),
                },
                None,
            );
        }
        stats.admitted += 1;
        let conn = ConnectionId::new(self.next_conn);
        self.next_conn += 1;
        self.active.insert(req.session, (conn, want));
        (AdmissionDecision::Admit { reserved_bps: want }, Some(conn))
    }

    /// Release a session's admission (disconnect / migration away).
    /// Returns the connection id to un-reserve, if one was active.
    pub fn release(&mut self, session: SessionId) -> Option<ConnectionId> {
        self.active.remove(&session).map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(class: PricingClass, bw: u64) -> ConnectionRequest {
        ConnectionRequest {
            session: SessionId::new(bw), // unique per bw in these tests
            class,
            requirement: QosRequirement::continuous(bw, 200, 0.02),
        }
    }

    fn path(capacity: u64, committed: u64) -> PathCondition {
        PathCondition {
            capacity_bps: capacity,
            committed_bps: committed,
            rtt: MediaDuration::from_millis(40),
        }
    }

    #[test]
    fn admits_when_headroom() {
        let mut ac = AdmissionController::new();
        let (d, conn) = ac.evaluate(
            &request(PricingClass::Standard, 1_000_000),
            path(10_000_000, 0),
        );
        assert!(matches!(
            d,
            AdmissionDecision::Admit {
                reserved_bps: 1_000_000
            }
        ));
        assert!(conn.is_some());
        assert_eq!(ac.active_sessions(), 1);
    }

    #[test]
    fn rejects_beyond_class_ceiling() {
        let mut ac = AdmissionController::new();
        // Economy ceiling is 70%: 6M committed of 10M + 2M request = 80%.
        let (d, conn) = ac.evaluate(
            &request(PricingClass::Economy, 2_000_000),
            path(10_000_000, 6_000_000),
        );
        assert!(matches!(d, AdmissionDecision::Reject { .. }));
        assert!(conn.is_none());
        // Premium (97% ceiling) is admitted on the same path.
        let (d, _) = ac.evaluate(
            &request(PricingClass::Premium, 2_000_000),
            path(10_000_000, 6_000_000),
        );
        assert!(matches!(d, AdmissionDecision::Admit { .. }), "{d:?}");
    }

    #[test]
    fn paying_more_wins_under_load() {
        // The paper's rule verbatim: at 84% committed, Standard (85%) fails
        // for any real request but Premium succeeds.
        let mut ac = AdmissionController::new();
        let p = path(10_000_000, 8_400_000);
        let (d_std, _) = ac.evaluate(&request(PricingClass::Standard, 500_000), p);
        let (d_prm, _) = ac.evaluate(&request(PricingClass::Premium, 500_000), p);
        assert!(matches!(d_std, AdmissionDecision::Reject { .. }));
        assert!(matches!(d_prm, AdmissionDecision::Admit { .. }));
    }

    #[test]
    fn rejects_infeasible_delay() {
        let mut ac = AdmissionController::new();
        let mut p = path(10_000_000, 0);
        p.rtt = MediaDuration::from_millis(900); // one-way 450 > 200 budget
        let (d, _) = ac.evaluate(&request(PricingClass::Premium, 100_000), p);
        match d {
            AdmissionDecision::Reject { reason } => assert!(reason.contains("delay")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn release_frees_session() {
        let mut ac = AdmissionController::new();
        let req = request(PricingClass::Standard, 1_000_000);
        let (_, conn) = ac.evaluate(&req, path(10_000_000, 0));
        let conn = conn.unwrap();
        assert_eq!(ac.release(req.session), Some(conn));
        assert_eq!(ac.release(req.session), None);
        assert_eq!(ac.active_sessions(), 0);
    }

    #[test]
    fn per_class_stats_and_rates() {
        let mut ac = AdmissionController::new();
        let p = path(10_000_000, 8_400_000);
        for i in 0..4 {
            let mut r = request(PricingClass::Economy, 100_000);
            r.session = SessionId::new(i);
            ac.evaluate(&r, p);
        }
        let mut r = request(PricingClass::Premium, 100_000);
        r.session = SessionId::new(99);
        ac.evaluate(&r, p);
        let eco = ac.stats[&PricingClass::Economy];
        assert_eq!(eco.requests, 4);
        assert_eq!(eco.rejected, 4);
        let premium = ac.stats[&PricingClass::Premium];
        assert_eq!((premium.requests, premium.admitted), (1, 1));
        assert!(!ac.stats.contains_key(&PricingClass::Standard)); // no requests
    }
}
