//! The flow scheduler (paper §4, Fig. 3).
//!
//! "At the server's site, the *flow scheduler* uses the retrieved from the
//! *multimedia database* presentation scenario to compute a *flow scenario*
//! for each participating media stream. This flow scenario specifies the
//! sending start time instances of the corresponding media streams, as well
//! as other transmission properties (e.g. transmission rates). Furthermore,
//! it activates the appropriate media servers."

use hermes_core::{
    ComponentContent, ComponentId, Encoding, MediaDuration, MediaKind, MediaSource, MediaTime,
    QosRequirement, Scenario,
};
use hermes_media::CodecModel;
use serde::{Deserialize, Serialize};

/// The transmission plan for one media stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowPlan {
    /// The component the plan transmits.
    pub component: ComponentId,
    /// Media kind (selects the media server).
    pub kind: MediaKind,
    /// Encoding of the stored object.
    pub encoding: Encoding,
    /// Where the data lives.
    pub source: MediaSource,
    /// When the media server must start sending, relative to the flow
    /// scenario start: the playout deadline minus the delivery lead.
    pub send_start: MediaTime,
    /// Frame/block sending period at nominal quality.
    pub frame_period: MediaDuration,
    /// Playout duration to transmit.
    pub duration: MediaDuration,
    /// Nominal mean transmission rate, bits/second.
    pub rate_bps: u64,
    /// The QoS requirement for the stream's connection setup.
    pub requirement: QosRequirement,
}

/// The complete flow scenario for a document request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowScenario {
    /// One plan per stored media component, in send-start order.
    pub plans: Vec<FlowPlan>,
    /// The delivery lead applied (media time window + transfer estimate).
    pub lead: MediaDuration,
}

impl FlowScenario {
    /// Aggregate nominal bandwidth of all continuous streams, bits/second
    /// (the quantity the admission controller reserves). Discrete media are
    /// charged at their transfer rate only momentarily, so the aggregate
    /// uses the *peak concurrent* continuous demand plus a 10% discrete
    /// allowance.
    pub fn aggregate_bandwidth_bps(&self) -> u64 {
        // Sweep the timeline of continuous plans for the peak concurrent sum.
        let mut edges: Vec<(MediaTime, i64)> = Vec::new();
        let mut discrete_max = 0u64;
        for p in &self.plans {
            if p.kind.is_continuous() {
                edges.push((p.send_start, p.rate_bps as i64));
                edges.push((p.send_start + p.duration, -(p.rate_bps as i64)));
            } else {
                discrete_max = discrete_max.max(p.rate_bps / 10);
            }
        }
        edges.sort();
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in edges {
            cur += d;
            peak = peak.max(cur);
        }
        peak as u64 + discrete_max
    }

    /// The plan for a component.
    pub fn plan(&self, id: ComponentId) -> Option<&FlowPlan> {
        self.plans.iter().find(|p| p.component == id)
    }
}

/// Extra lead beyond the media time window, covering transfer and
/// processing delay estimates.
const TRANSFER_MARGIN: MediaDuration = MediaDuration::from_millis(250);

/// Compute the flow scenario for a presentation scenario.
///
/// Sending for each stream starts one *lead* (the client's media time
/// `window` + a transfer margin) before its playout deadline `t_i`, clamped
/// at zero — the intentional initial delay of §4 appears on the client side
/// as the gap between requesting the document and the presentation start.
pub fn compute_flow_scenario(scenario: &Scenario, window: MediaDuration) -> FlowScenario {
    let lead = window + TRANSFER_MARGIN;
    let end = scenario.presentation_end();
    let mut plans = Vec::new();
    for c in &scenario.components {
        let ComponentContent::Stored { source, encoding } = &c.content else {
            continue; // inline text travels with the scenario itself
        };
        let model = CodecModel::for_encoding(*encoding);
        let level = model.level(hermes_core::GradeLevel::NOMINAL);
        let duration = match c.duration {
            Some(d) => d,
            None => (end - c.start).max(MediaDuration::ZERO),
        };
        let send_start = (c.start - lead).max(MediaTime::ZERO);
        let rate_bps = level.bandwidth_bps();
        let requirement = if c.kind().is_continuous() {
            QosRequirement::continuous(rate_bps, 300, 0.05)
        } else {
            QosRequirement::discrete(rate_bps)
        };
        plans.push(FlowPlan {
            component: c.id,
            kind: c.kind(),
            encoding: *encoding,
            source: source.clone(),
            send_start,
            frame_period: level.frame_period(),
            duration,
            rate_bps,
            requirement,
        });
    }
    plans.sort_by_key(|p| (p.send_start, p.component));
    FlowScenario { plans, lead }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{DocumentId, ServerId};
    use hermes_hml::{scenario_from_markup, FIGURE2_MARKUP};

    fn fig2_flow() -> FlowScenario {
        let s = scenario_from_markup(FIGURE2_MARKUP, DocumentId::new(1), ServerId::new(0)).unwrap();
        compute_flow_scenario(&s, MediaDuration::from_secs(1))
    }

    #[test]
    fn plans_for_stored_components_only() {
        let f = fig2_flow();
        // Fig. 2 has 5 stored components (I1, I2, A1, V, A2); the text is
        // inline and needs no flow.
        assert_eq!(f.plans.len(), 5);
        assert!(f.plans.iter().all(|p| p.kind != MediaKind::Text));
    }

    #[test]
    fn send_start_leads_playout_deadline() {
        let f = fig2_flow();
        let a1 = f.plan(ComponentId::new(3)).unwrap(); // starts at t=6s
        assert_eq!(a1.send_start, MediaTime::from_millis(6_000 - 1_250));
        // Streams whose deadline is inside the lead clamp to zero.
        let i1 = f.plan(ComponentId::new(1)).unwrap(); // t=0
        assert_eq!(i1.send_start, MediaTime::ZERO);
    }

    #[test]
    fn plans_sorted_by_send_start() {
        let f = fig2_flow();
        for w in f.plans.windows(2) {
            assert!(w[0].send_start <= w[1].send_start);
        }
    }

    #[test]
    fn rates_come_from_codec_models() {
        let f = fig2_flow();
        let v = f.plan(ComponentId::new(4)).unwrap();
        assert_eq!(v.encoding, Encoding::Mpeg);
        assert_eq!(v.rate_bps, 1_500_000);
        assert_eq!(v.frame_period, MediaDuration::from_millis(40));
        let a = f.plan(ComponentId::new(3)).unwrap();
        assert_eq!(a.rate_bps, 705_600);
        assert_eq!(a.frame_period, MediaDuration::from_millis(20));
    }

    #[test]
    fn aggregate_bandwidth_uses_peak_concurrency() {
        let f = fig2_flow();
        // A1 (705.6k) and V (1.5M) overlap; A2 does not overlap them.
        let agg = f.aggregate_bandwidth_bps();
        assert!(agg >= 705_600 + 1_500_000, "agg {agg}");
        assert!(agg < 705_600 + 1_500_000 + 705_600, "agg {agg}");
    }

    #[test]
    fn continuous_vs_discrete_requirements() {
        let f = fig2_flow();
        let v = f.plan(ComponentId::new(4)).unwrap();
        assert!(v.requirement.max_loss > 0.0); // continuous tolerates loss
        let i1 = f.plan(ComponentId::new(1)).unwrap();
        assert_eq!(i1.requirement.max_loss, 0.0); // discrete goes reliable
    }

    #[test]
    fn open_ended_components_clamped_to_presentation_end() {
        let s = scenario_from_markup(
            "<TITLE>t</TITLE>
             <IMG> SOURCE=a.jpg STARTIME=0s ID=1 </IMG>
             <AU> SOURCE=b.pcm STARTIME=0s DURATION=30s ID=2 </AU>",
            DocumentId::new(1),
            ServerId::new(0),
        )
        .unwrap();
        let f = compute_flow_scenario(&s, MediaDuration::from_secs(1));
        let img = f.plan(ComponentId::new(1)).unwrap();
        assert_eq!(img.duration, MediaDuration::from_secs(30));
    }
}
