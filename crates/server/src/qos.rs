//! The Server QoS Manager and the media-grading engine — the paper's
//! *long-term* synchronization recovery (§4).
//!
//! "Using such feedback reports, the service's server possesses knowledge of
//! the overall network performance parameters, and accordingly takes
//! corrective actions ... \[the\] flow scheduler identifies the specific media
//! streams that are not transmitted as desired, and in cooperation with the
//! corresponding Media Stream Quality Converter gracefully degrades
//! (upgrades) the stream's quality ... the service first applies the grading
//! technique to the video stream, since audio or voice is considered to be
//! more important to users."

use hermes_core::{
    ComponentId, GradeDecision, GradeLevel, GradingHysteresis, GradingOrder, QosMeasurement,
    QosRequirement, VecMap,
};
use hermes_media::{CodecModel, QualityConverter};
use std::cmp::Reverse;

/// One stream under grading management.
#[derive(Debug)]
pub struct ManagedStream {
    /// The quality converter owned by the stream's media server.
    pub converter: QualityConverter,
    /// The stream's declared QoS requirement (congestion scores are
    /// normalized against it).
    pub requirement: QosRequirement,
    /// Consecutive healthy reports seen (for upgrade patience).
    healthy_streak: u32,
    /// The latest congestion score.
    pub last_score: f64,
}

/// The server-side QoS manager: ingests client feedback, ranks streams and
/// walks their quality converters.
#[derive(Debug, Default)]
pub struct ServerQosManager {
    streams: VecMap<ComponentId, ManagedStream>,
    /// Degrade ordering policy (video-first per the paper; ablations flip it).
    pub order: GradingOrder,
    /// Hysteresis thresholds.
    pub hysteresis: GradingHysteresis,
    /// Total degrade actions issued.
    pub degrades_issued: u64,
    /// Total upgrade actions issued.
    pub upgrades_issued: u64,
    /// Total stop actions issued.
    pub stops_issued: u64,
}

impl ServerQosManager {
    /// Manager with a policy and hysteresis.
    pub fn new(order: GradingOrder, hysteresis: GradingHysteresis) -> Self {
        assert!(hysteresis.is_valid(), "invalid hysteresis dead-band");
        ServerQosManager {
            order,
            hysteresis,
            ..Self::default()
        }
    }

    /// Register a stream with its codec model, floor and requirement.
    pub fn register(
        &mut self,
        component: ComponentId,
        model: CodecModel,
        floor: GradeLevel,
        requirement: QosRequirement,
    ) {
        self.streams.insert(
            component,
            ManagedStream {
                converter: QualityConverter::new(model, floor),
                requirement,
                healthy_streak: 0,
                last_score: 0.0,
            },
        );
    }

    /// Force a stream's converter to a level, clamped to its codec ladder:
    /// admission-time shedding, or a regrade another source decided.
    pub fn force_level(&mut self, component: ComponentId, level: GradeLevel) {
        if let Some(s) = self.streams.get_mut(&component) {
            s.converter.level = level.min(s.converter.model.max_level());
        }
    }

    /// The managed stream, if registered.
    pub fn stream(&self, component: ComponentId) -> Option<&ManagedStream> {
        self.streams.get(&component)
    }

    /// Current level of a stream.
    pub fn level_of(&self, component: ComponentId) -> Option<GradeLevel> {
        self.streams.get(&component).map(|s| s.converter.level)
    }

    /// Ingest one feedback report (a set of per-stream measurements taken by
    /// the client QoS manager) and decide the grading action: at most one
    /// step per report — graceful, stepwise adaptation. Returns the stream,
    /// the decision applied to its converter and its level after it.
    pub fn on_feedback(
        &mut self,
        report: impl IntoIterator<Item = (ComponentId, QosMeasurement)>,
    ) -> Option<(ComponentId, GradeDecision, GradeLevel)> {
        let (order, h) = (self.order, self.hysteresis);
        for (id, m) in report {
            if let Some(s) = self.streams.get_mut(&id) {
                s.last_score = m.congestion_score(&s.requirement);
                let healthy = s.last_score < h.upgrade_below;
                s.healthy_streak = if healthy { s.healthy_streak + 1 } else { 0 };
            }
        }
        let rank = |s: &ManagedStream| order.degrade_rank(s.converter.model.kind());
        let all = || self.streams.values();
        let congested = all().any(|s| s.last_score > h.degrade_above);
        let patient = all().all(|s| s.healthy_streak >= h.upgrade_patience);
        let (&component, s) = if congested {
            // The degrade victim: lowest degrade-rank first (video before
            // audio under the paper's rule), tie-broken by largest bandwidth
            // saving, skipping streams that cannot yield any.
            self.streams
                .iter_mut()
                .filter(|(_, s)| !s.converter.stopped && s.converter.next_step_saving() > 0)
                .min_by_key(|(_, s)| (rank(s), Reverse(s.converter.next_step_saving())))?
        } else if patient && !self.streams.is_empty() {
            // Every stream has been healthy long enough: restore in reverse
            // degrade order (audio back first under the video-first rule),
            // most-degraded first within a rank.
            self.streams
                .iter_mut()
                .filter(|(_, s)| s.converter.stopped || s.converter.level > GradeLevel::NOMINAL)
                .max_by_key(|(_, s)| (rank(s), s.converter.level))?
        } else {
            return None;
        };
        use GradeDecision::{Degrade, Hold, Stop, Upgrade};
        let decision = s.converter.apply(if congested { Degrade } else { Upgrade });
        match decision {
            Degrade => self.degrades_issued += 1,
            Stop => self.stops_issued += 1,
            Upgrade => {
                self.upgrades_issued += 1;
                s.healthy_streak = 0;
            }
            Hold => return None,
        }
        Some((component, decision, s.converter.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{Encoding, MediaDuration, MediaTime};

    fn measurement(score_delay_ms: i64) -> QosMeasurement {
        QosMeasurement {
            window_end: MediaTime::ZERO,
            mean_delay: MediaDuration::from_millis(score_delay_ms),
            jitter: MediaDuration::ZERO,
            loss_fraction: 0.0,
            packets_received: 100,
            buffer_occupancy: 0.5,
        }
    }

    /// Requirement with max_delay 100 ms → delay 150 ms = score 1.5.
    fn req() -> QosRequirement {
        QosRequirement::continuous(1_000_000, 100, 0.02)
    }

    fn manager_with_av() -> ServerQosManager {
        let mut m = ServerQosManager::new(GradingOrder::default(), GradingHysteresis::default());
        m.register(
            ComponentId::new(1),
            CodecModel::for_encoding(Encoding::Pcm),
            GradeLevel(2),
            req(),
        );
        m.register(
            ComponentId::new(2),
            CodecModel::for_encoding(Encoding::Mpeg),
            GradeLevel(4),
            req(),
        );
        m
    }

    #[test]
    fn video_degraded_before_audio() {
        let mut m = manager_with_av();
        let congested = [
            (ComponentId::new(1), measurement(150)),
            (ComponentId::new(2), measurement(150)),
        ];
        let (c, decision, _) = m.on_feedback(congested).unwrap();
        assert_eq!(c, ComponentId::new(2)); // the video stream
        assert_eq!(decision, GradeDecision::Degrade);
        assert_eq!(m.level_of(ComponentId::new(1)), Some(GradeLevel(0)));
        assert_eq!(m.level_of(ComponentId::new(2)), Some(GradeLevel(1)));
    }

    #[test]
    fn audio_first_ablation_flips_order() {
        let mut m = ServerQosManager::new(GradingOrder::AudioFirst, GradingHysteresis::default());
        m.register(
            ComponentId::new(1),
            CodecModel::for_encoding(Encoding::Pcm),
            GradeLevel(2),
            req(),
        );
        m.register(
            ComponentId::new(2),
            CodecModel::for_encoding(Encoding::Mpeg),
            GradeLevel(4),
            req(),
        );
        let congested = [
            (ComponentId::new(1), measurement(150)),
            (ComponentId::new(2), measurement(150)),
        ];
        let (c, ..) = m.on_feedback(congested).unwrap();
        assert_eq!(c, ComponentId::new(1)); // audio degraded first
    }

    #[test]
    fn sustained_congestion_walks_video_to_stop_then_audio() {
        let mut m = manager_with_av();
        let congested = [
            (ComponentId::new(1), measurement(150)),
            (ComponentId::new(2), measurement(150)),
        ];
        let mut stops = 0;
        for _ in 0..12 {
            if let Some((_, decision, _)) = m.on_feedback(congested) {
                if decision == GradeDecision::Stop {
                    stops += 1;
                }
            }
        }
        // Video: 4 degrades + stop; audio: 2 degrades + stop.
        assert_eq!(stops, 2);
        assert!(m.stream(ComponentId::new(2)).unwrap().converter.stopped);
        assert!(m.stream(ComponentId::new(1)).unwrap().converter.stopped);
        assert_eq!(m.degrades_issued, 6);
    }

    #[test]
    fn upgrade_requires_patience() {
        let mut m = manager_with_av();
        let congested = [
            (ComponentId::new(1), measurement(150)),
            (ComponentId::new(2), measurement(150)),
        ];
        m.on_feedback(congested); // video → level 1
        let healthy = [
            (ComponentId::new(1), measurement(10)),
            (ComponentId::new(2), measurement(10)),
        ];
        // Default patience is 3 healthy reports.
        assert!(m.on_feedback(healthy).is_none());
        assert!(m.on_feedback(healthy).is_none());
        let (_, decision, _) = m.on_feedback(healthy).unwrap();
        assert_eq!(decision, GradeDecision::Upgrade);
        assert_eq!(m.level_of(ComponentId::new(2)), Some(GradeLevel(0)));
    }

    #[test]
    fn upgrade_restores_audio_before_video() {
        let mut m = manager_with_av();
        let congested = [
            (ComponentId::new(1), measurement(150)),
            (ComponentId::new(2), measurement(150)),
        ];
        // Degrade video fully (4 + stop) then audio once: 6 rounds.
        for _ in 0..6 {
            m.on_feedback(congested);
        }
        assert_eq!(m.level_of(ComponentId::new(1)), Some(GradeLevel(1)));
        let healthy = [
            (ComponentId::new(1), measurement(10)),
            (ComponentId::new(2), measurement(10)),
        ];
        let mut first_upgrade = None;
        for _ in 0..10 {
            if let Some((c, ..)) = m.on_feedback(healthy) {
                first_upgrade = Some(c);
                break;
            }
        }
        assert_eq!(
            first_upgrade,
            Some(ComponentId::new(1)),
            "audio restored first"
        );
    }

    #[test]
    fn healthy_network_never_degrades() {
        let mut m = manager_with_av();
        let healthy = [
            (ComponentId::new(1), measurement(10)),
            (ComponentId::new(2), measurement(10)),
        ];
        for _ in 0..10 {
            let act = m.on_feedback(healthy);
            assert!(act.is_none(), "{act:?}");
        }
        assert_eq!(m.degrades_issued, 0);
    }

    #[test]
    fn mid_band_scores_hold() {
        // Score between upgrade_below (0.5) and degrade_above (1.0): no
        // action ever (the hysteresis dead-band).
        let mut m = manager_with_av();
        let mid = [
            (ComponentId::new(1), measurement(70)),
            (ComponentId::new(2), measurement(70)),
        ];
        m.on_feedback([
            (ComponentId::new(1), measurement(150)),
            (ComponentId::new(2), measurement(150)),
        ]); // degrade once
        for _ in 0..10 {
            assert!(m.on_feedback(mid).is_none());
        }
        assert_eq!(m.level_of(ComponentId::new(2)), Some(GradeLevel(1)));
    }

    #[test]
    #[should_panic(expected = "invalid hysteresis")]
    fn invalid_hysteresis_rejected() {
        let _ = ServerQosManager::new(
            GradingOrder::VideoFirst,
            GradingHysteresis {
                degrade_above: 0.4,
                upgrade_below: 0.9,
                upgrade_patience: 1,
            },
        );
    }
}
