//! Quality-of-Service parameter types.
//!
//! §4 of the paper: a new connection's load is "a combination of the resource
//! requirements the data that should be transmitted holds (e.g. bandwidth,
//! interarrival delay, delay jitter, packet loss probability), and the lower
//! thresholds in QoS and Quality of Presentation the user is willing to
//! accept". Client and server QoS managers exchange these measurements in
//! feedback reports (RTCP receiver reports in the implementation).

use crate::time::{MediaDuration, MediaTime};
use serde::{Deserialize, Serialize};

/// Static QoS requirements a stream declares when its connection is set up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosRequirement {
    /// Mean bandwidth the stream needs at nominal quality, bits/second.
    pub bandwidth_bps: u64,
    /// Peak bandwidth, bits/second (burst allowance).
    pub peak_bandwidth_bps: u64,
    /// Maximum tolerable one-way transfer delay.
    pub max_delay: MediaDuration,
    /// Maximum tolerable delay jitter.
    pub max_jitter: MediaDuration,
    /// Maximum tolerable packet-loss probability, in [0, 1].
    pub max_loss: f64,
}

impl QosRequirement {
    /// A lenient requirement for discrete media (text/images over TCP):
    /// reliability is provided by retransmission, so loss/jitter bounds are moot.
    pub fn discrete(bandwidth_bps: u64) -> Self {
        QosRequirement {
            bandwidth_bps,
            peak_bandwidth_bps: bandwidth_bps * 2,
            max_delay: MediaDuration::from_secs(5),
            max_jitter: MediaDuration::from_secs(5),
            max_loss: 0.0,
        }
    }
    /// A strict requirement template for continuous media.
    pub fn continuous(bandwidth_bps: u64, max_delay_ms: i64, max_loss: f64) -> Self {
        QosRequirement {
            bandwidth_bps,
            peak_bandwidth_bps: bandwidth_bps + bandwidth_bps / 2,
            max_delay: MediaDuration::from_millis(max_delay_ms),
            max_jitter: MediaDuration::from_millis(max_delay_ms / 2),
            max_loss,
        }
    }
}

/// A windowed measurement of a connection's observed condition, computed by
/// the client QoS manager from packet timestamps and sequence numbers, and
/// shipped to the server QoS manager as a feedback report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosMeasurement {
    /// Stream this measurement describes.
    pub window_end: MediaTime,
    /// Mean one-way packet delay over the window.
    pub mean_delay: MediaDuration,
    /// Estimated interarrival jitter (RFC 3550 style smoothed estimate).
    pub jitter: MediaDuration,
    /// Fraction of packets lost in the window, in [0, 1].
    pub loss_fraction: f64,
    /// Packets received in the window.
    pub packets_received: u64,
    /// Receiver buffer occupancy as a fraction of capacity, in [0, 1].
    pub buffer_occupancy: f64,
}

impl QosMeasurement {
    /// An "all quiet" measurement (no traffic observed yet).
    pub fn idle(now: MediaTime) -> Self {
        QosMeasurement {
            window_end: now,
            mean_delay: MediaDuration::ZERO,
            jitter: MediaDuration::ZERO,
            loss_fraction: 0.0,
            packets_received: 0,
            buffer_occupancy: 0.0,
        }
    }

    /// Does this measurement violate the given requirement?
    pub fn violates(&self, req: &QosRequirement) -> bool {
        self.mean_delay > req.max_delay
            || self.jitter > req.max_jitter
            || self.loss_fraction > req.max_loss + f64::EPSILON
    }

    /// A scalar congestion score in [0, ∞): 0 = perfectly within requirement,
    /// 1 = exactly at the limit on the worst dimension, >1 = violating.
    /// The flow scheduler uses this to rank streams for degradation.
    pub fn congestion_score(&self, req: &QosRequirement) -> f64 {
        let d = if req.max_delay.as_micros() > 0 {
            self.mean_delay.as_micros() as f64 / req.max_delay.as_micros() as f64
        } else {
            0.0
        };
        let j = if req.max_jitter.as_micros() > 0 {
            self.jitter.as_micros() as f64 / req.max_jitter.as_micros() as f64
        } else {
            0.0
        };
        let l = if req.max_loss > 0.0 {
            self.loss_fraction / req.max_loss
        } else if self.loss_fraction > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        d.max(j).max(l)
    }
}

/// Pricing classes used by the admission controller (§4: "a user who pays
/// more should be serviced, even though it affects the other users").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PricingClass {
    /// Best-effort subscribers; first to be rejected under load.
    Economy,
    /// Standard subscribers.
    Standard,
    /// Premium subscribers; admitted even when the network is strained.
    Premium,
}

impl PricingClass {
    /// Relative admission priority weight (higher = more likely admitted).
    pub fn priority(self) -> u8 {
        match self {
            PricingClass::Economy => 0,
            PricingClass::Standard => 1,
            PricingClass::Premium => 2,
        }
    }
    /// Utilization headroom this class is allowed to push the network to,
    /// as a fraction of capacity.
    pub fn admission_ceiling(self) -> f64 {
        match self {
            PricingClass::Economy => 0.70,
            PricingClass::Standard => 0.85,
            PricingClass::Premium => 0.97,
        }
    }
    /// All classes, lowest priority first.
    pub const ALL: [PricingClass; 3] = [
        PricingClass::Economy,
        PricingClass::Standard,
        PricingClass::Premium,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> QosRequirement {
        QosRequirement::continuous(1_000_000, 200, 0.02)
    }

    #[test]
    fn continuous_template_fields() {
        let r = req();
        assert_eq!(r.bandwidth_bps, 1_000_000);
        assert_eq!(r.max_delay, MediaDuration::from_millis(200));
        assert_eq!(r.max_jitter, MediaDuration::from_millis(100));
    }

    #[test]
    fn idle_measurement_never_violates() {
        let m = QosMeasurement::idle(MediaTime::ZERO);
        assert!(!m.violates(&req()));
        assert_eq!(m.congestion_score(&req()), 0.0);
    }

    #[test]
    fn violation_detection() {
        let mut m = QosMeasurement::idle(MediaTime::ZERO);
        m.mean_delay = MediaDuration::from_millis(250);
        assert!(m.violates(&req()));
        m.mean_delay = MediaDuration::from_millis(10);
        m.loss_fraction = 0.05;
        assert!(m.violates(&req()));
        m.loss_fraction = 0.01;
        assert!(!m.violates(&req()));
    }

    #[test]
    fn congestion_score_is_max_dimension() {
        let mut m = QosMeasurement::idle(MediaTime::ZERO);
        m.mean_delay = MediaDuration::from_millis(100); // 0.5 of limit
        m.jitter = MediaDuration::from_millis(90); // 0.9 of limit
        m.loss_fraction = 0.002; // 0.1 of limit
        let s = m.congestion_score(&req());
        assert!((s - 0.9).abs() < 1e-9, "score {s}");
    }

    #[test]
    fn zero_loss_budget_with_loss_is_infinite() {
        let mut m = QosMeasurement::idle(MediaTime::ZERO);
        m.loss_fraction = 0.001;
        let r = QosRequirement::discrete(64_000);
        assert!(m.congestion_score(&r).is_infinite());
    }

    #[test]
    fn pricing_priorities_ordered() {
        assert!(PricingClass::Premium.priority() > PricingClass::Standard.priority());
        assert!(PricingClass::Standard.priority() > PricingClass::Economy.priority());
        assert!(
            PricingClass::Premium.admission_ceiling() > PricingClass::Economy.admission_ceiling()
        );
    }
}
