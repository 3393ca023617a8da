//! The Client QoS Manager (paper §4, Fig. 3).
//!
//! "Incoming data packets of a specific stream, besides other information,
//! carry a timestamping indication which is used by the Client QoS Manager
//! to carry out conclusions about the connection's condition, e.g. the
//! packet delay, the delay jitter. Based on this information, the client QoS
//! manager, periodically or in specifically calculated intervals, sends
//! feedback reports to the sending side."

use hermes_core::{smooth_jitter, ComponentId, MediaDuration, MediaTime, QosMeasurement, VecMap};
use hermes_rtp::{ReportBlock, RtpReceiver};
use hermes_simnet::Accumulator;

/// One stream's row of a feedback report: the QoS manager's measurement
/// and, for a stream with an RTP receiver, its RTCP receiver-report block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackRow {
    /// The stream.
    pub component: ComponentId,
    /// The stream's measurement over the report window.
    pub measurement: QosMeasurement,
    /// The stream's receiver-report block, when it has a receiver.
    pub rr: Option<ReportBlock>,
}

/// One stream's reception-condition tracker inside the client QoS manager.
#[derive(Debug, Clone, Default)]
pub struct StreamCondition {
    delay: Accumulator,
    jitter_estimate: MediaDuration,
    packets: u64,
    /// Buffer occupancy snapshot supplied by the buffer layer.
    pub buffer_occupancy: f64,
}

impl StreamCondition {
    /// Record one packet's one-way delay (send timestamp is carried in the
    /// RTP header; the simulator's clocks are synchronized).
    pub fn on_packet(&mut self, delay: MediaDuration) {
        // RFC-style smoothed jitter over the one-way delays (the shared
        // integer-exact estimator from hermes-core).
        let prev_mean = MediaDuration::from_micros(self.delay.mean() as i64);
        if self.packets > 0 {
            let d = (delay - prev_mean).abs();
            self.jitter_estimate = smooth_jitter(self.jitter_estimate, d);
        }
        self.delay.push_duration(delay);
        self.packets += 1;
    }

    /// Snapshot the current window into a [`QosMeasurement`] and reset the
    /// window counters. Loss is left at 0: [`ClientQosManager::make_report`]
    /// fills it in from the stream's RTP receiver.
    pub fn take_measurement(&mut self, now: MediaTime) -> QosMeasurement {
        let m = QosMeasurement {
            window_end: now,
            mean_delay: MediaDuration::from_micros(self.delay.mean() as i64),
            jitter: self.jitter_estimate,
            loss_fraction: 0.0,
            packets_received: self.packets,
            buffer_occupancy: self.buffer_occupancy,
        };
        self.delay = Accumulator::default();
        self.packets = 0;
        m
    }
}

/// The client QoS manager: per-stream condition tracking. The client
/// actor's feedback timer sets the report cadence.
#[derive(Debug, Default)]
pub struct ClientQosManager {
    streams: VecMap<ComponentId, StreamCondition>,
    /// Reports emitted so far.
    pub reports_sent: u64,
}

impl ClientQosManager {
    /// Register a stream (idempotent).
    pub fn track(&mut self, id: ComponentId) {
        self.streams.entry(id).or_default();
    }

    /// The tracker for a stream.
    pub fn stream_mut(&mut self, id: ComponentId) -> &mut StreamCondition {
        self.streams.entry(id).or_default()
    }

    /// Produce the rows of a feedback report, one per tracked stream, and
    /// roll the windows. Delay and jitter come from the trackers; a stream
    /// with a receiver in `receivers` takes its interval loss and its
    /// receiver-report block from it. Taking the interval loss resets it,
    /// so it is taken once for both. The rows are one allocation, whatever
    /// their number.
    pub fn make_report(
        &mut self,
        now: MediaTime,
        mut receivers: Option<&mut VecMap<ComponentId, RtpReceiver>>,
    ) -> Vec<FeedbackRow> {
        self.reports_sent += 1;
        let mut rows = Vec::with_capacity(self.streams.len());
        rows.extend(self.streams.iter_mut().map(|(&component, c)| {
            let mut measurement = c.take_measurement(now);
            let rx = receivers.as_deref_mut().and_then(|r| r.get_mut(&component));
            let rr = rx.map(|rx| {
                measurement.loss_fraction = rx.stats.take_interval_loss();
                rx.report_block(measurement.loss_fraction, now)
            });
            FeedbackRow {
                component,
                measurement,
                rr,
            }
        }));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_measured() {
        let mut c = StreamCondition::default();
        for i in 0..10 {
            c.on_packet(MediaDuration::from_millis(10 + i % 2)); // 10 or 11 ms
        }
        let m = c.take_measurement(MediaTime::from_secs(1));
        assert!(m.mean_delay >= MediaDuration::from_millis(10));
        assert!(m.mean_delay <= MediaDuration::from_millis(11));
        assert_eq!(m.packets_received, 10);
        // Window reset.
        let m2 = c.take_measurement(MediaTime::from_secs(2));
        assert_eq!(m2.packets_received, 0);
    }

    #[test]
    fn jitter_reflects_delay_variation() {
        let mut steady = StreamCondition::default();
        let mut vary = StreamCondition::default();
        for i in 0..100 {
            steady.on_packet(MediaDuration::from_millis(20));
            vary.on_packet(MediaDuration::from_millis(if i % 2 == 0 { 5 } else { 35 }));
        }
        let ms = steady.take_measurement(MediaTime::ZERO);
        let mv = vary.take_measurement(MediaTime::ZERO);
        assert_eq!(ms.jitter, MediaDuration::ZERO);
        assert!(mv.jitter > MediaDuration::from_millis(10), "{}", mv.jitter);
    }

    #[test]
    fn report_covers_tracked_streams() {
        let mut m = ClientQosManager::default();
        m.track(ComponentId::new(1));
        let r = m.make_report(MediaTime::ZERO, None);
        assert_eq!(r.len(), 1);
        assert_eq!(m.reports_sent, 1);
    }

    #[test]
    fn a_lossy_stream_row_carries_one_loss_in_both_forms() {
        use hermes_core::Encoding;
        use hermes_rtp::{PayloadType, RtpPacket};
        let (audio, video) = (ComponentId::new(1), ComponentId::new(2));
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        // Ten single-packet frames, every other one lost.
        for seq in (0..10u16).step_by(2) {
            let p = RtpPacket::synthetic(PayloadType::Mpeg, true, seq, seq as u32 * 3_600, 9, 500);
            rx.on_packet(&p, MediaTime::from_millis(seq as i64 * 40));
        }
        let mut receivers = VecMap::new();
        receivers.insert(video, rx);
        let mut m = ClientQosManager::default();
        m.track(audio);
        m.track(video);
        let rows = m.make_report(MediaTime::from_secs(1), Some(&mut receivers));
        assert_eq!((rows[0].component, rows[0].rr), (audio, None));
        let (row, block) = (rows[1], rows[1].rr.unwrap());
        // 9 expected up to the highest sequence number, 5 received.
        assert_eq!(row.measurement.loss_fraction, 4.0 / 9.0);
        assert_eq!(
            block.fraction_lost,
            ReportBlock::fraction_from_f64(4.0 / 9.0)
        );
        assert_eq!(block.cumulative_lost, 4);
        // The interval was taken once: the next report sees no new loss.
        let rows = m.make_report(MediaTime::from_secs(2), Some(&mut receivers));
        assert_eq!(rows[1].measurement.loss_fraction, 0.0);
        assert_eq!(rows[1].rr.unwrap().fraction_lost, 0);
    }

    #[test]
    fn buffer_occupancy_carried_into_measurement() {
        let mut m = ClientQosManager::default();
        m.stream_mut(ComponentId::new(3)).buffer_occupancy = 0.7;
        let r = m.make_report(MediaTime::ZERO, None);
        assert_eq!(r[0].measurement.buffer_occupancy, 0.7);
    }
}
