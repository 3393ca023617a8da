//! Receiver-side RTP statistics: sequence tracking, loss accounting and the
//! RFC 3550 interarrival-jitter estimator — the raw material of the RTCP
//! receiver reports the client QoS manager sends back to the server
//! ("we use this packet's header information to derive statistical
//! measurements concerning network's parameters like packet's transmission
//! delay, delay jitter and packet loss", §6.3).

use crate::packet::{clock_to_micros, RtpPacket};
use hermes_core::{MediaDuration, MediaTime};
use serde::{Deserialize, Serialize};

/// Per-source reception statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiverStats {
    clock_rate: u32,
    /// Highest sequence number seen (16-bit).
    max_seq: u16,
    /// Count of sequence-number wraparounds.
    cycles: u32,
    /// First sequence number seen.
    base_seq: u16,
    /// Whether any packet has arrived.
    started: bool,
    /// Packets received in total.
    pub received: u64,
    /// Packets received at the previous report boundary.
    received_prior: u64,
    /// Expected count at the previous report boundary.
    expected_prior: u64,
    /// RFC 3550 jitter estimate, in clock units (scaled by 16 internally is
    /// not needed — f64 keeps the estimator exact enough for reporting).
    jitter_clock: f64,
    /// Previous packet's transit (arrival − timestamp) in clock units.
    last_transit: Option<i64>,
    /// Duplicate packets observed.
    pub duplicates: u64,
    /// Out-of-order (late but not duplicate) packets observed.
    pub reordered: u64,
    /// Partial frames given up by the receiver: their remaining fragments
    /// never came, or came after the frame was already completed short.
    pub frames_abandoned: u64,
}

impl ReceiverStats {
    /// New tracker for a stream with the given RTP clock rate.
    pub fn new(clock_rate: u32) -> Self {
        ReceiverStats {
            clock_rate,
            max_seq: 0,
            cycles: 0,
            base_seq: 0,
            started: false,
            received: 0,
            received_prior: 0,
            expected_prior: 0,
            jitter_clock: 0.0,
            last_transit: None,
            duplicates: 0,
            reordered: 0,
            frames_abandoned: 0,
        }
    }

    /// Record a received packet at local time `arrival`.
    pub fn on_packet(&mut self, pkt: &RtpPacket, arrival: MediaTime) {
        if !self.started {
            self.started = true;
            self.base_seq = pkt.seq;
            self.max_seq = pkt.seq;
            self.received = 1;
        } else {
            let delta = pkt.seq.wrapping_sub(self.max_seq);
            if delta == 0 {
                self.duplicates += 1;
                return;
            } else if delta < 0x8000 {
                // Forward movement (possibly skipping lost packets).
                if pkt.seq < self.max_seq {
                    self.cycles += 1; // wrapped
                }
                self.max_seq = pkt.seq;
            } else {
                // Late/out-of-order packet.
                self.reordered += 1;
            }
            self.received += 1;
        }
        // Jitter (RFC 3550 §6.4.1): transit = arrival − timestamp, both in
        // clock units; J += (|D| − J) / 16.
        let arrival_clock =
            (arrival.as_micros() as i128 * self.clock_rate as i128 / 1_000_000) as i64;
        let transit = arrival_clock - pkt.timestamp as i64;
        if let Some(prev) = self.last_transit {
            let d = (transit - prev).abs() as f64;
            self.jitter_clock += (d - self.jitter_clock) / 16.0;
        }
        self.last_transit = Some(transit);
    }

    /// Extended highest sequence number (cycles ≪ 16 | max_seq).
    pub fn extended_highest_seq(&self) -> u32 {
        (self.cycles << 16) | self.max_seq as u32
    }

    /// Total packets expected so far.
    pub fn expected(&self) -> u64 {
        if !self.started {
            return 0;
        }
        let ext_max = ((self.cycles as u64) << 16) | self.max_seq as u64;
        ext_max.wrapping_sub(self.base_seq as u64) + 1
    }

    /// Cumulative packets lost (never negative; duplicates can make the
    /// naive count negative, clamp per RFC).
    pub fn cumulative_lost(&self) -> u64 {
        self.expected().saturating_sub(self.received)
    }

    /// Current jitter estimate as a duration.
    pub fn jitter(&self) -> MediaDuration {
        MediaDuration::from_micros(clock_to_micros(self.jitter_clock as u32, self.clock_rate))
    }

    /// Loss fraction since the previous call (RFC 3550 report-interval loss),
    /// in [0, 1], and roll the report window forward.
    pub fn take_interval_loss(&mut self) -> f64 {
        let expected = self.expected();
        let expected_interval = expected.saturating_sub(self.expected_prior);
        let received_interval = self.received.saturating_sub(self.received_prior);
        self.expected_prior = expected;
        self.received_prior = self.received;
        if expected_interval == 0 {
            return 0.0;
        }
        let lost = expected_interval.saturating_sub(received_interval);
        lost as f64 / expected_interval as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{micros_to_clock, PayloadType};

    fn pkt(seq: u16, ts_us: i64) -> RtpPacket {
        RtpPacket::synthetic(
            PayloadType::Mpeg,
            false,
            seq,
            micros_to_clock(ts_us, 90_000),
            7,
            100,
        )
    }

    #[test]
    fn clean_stream_no_loss_no_jitter() {
        let mut st = ReceiverStats::new(90_000);
        for i in 0..100u16 {
            // Perfect pacing: constant transit of 10 ms.
            st.on_packet(
                &pkt(i, i as i64 * 40_000),
                MediaTime::from_micros(i as i64 * 40_000 + 10_000),
            );
        }
        assert_eq!(st.received, 100);
        assert_eq!(st.expected(), 100);
        assert_eq!(st.cumulative_lost(), 0);
        assert_eq!(st.jitter(), MediaDuration::ZERO);
        assert_eq!(st.take_interval_loss(), 0.0);
    }

    #[test]
    fn gaps_count_as_loss() {
        let mut st = ReceiverStats::new(90_000);
        for i in [0u16, 1, 2, 5, 6, 9] {
            st.on_packet(
                &pkt(i, i as i64 * 40_000),
                MediaTime::from_micros(i as i64 * 40_000),
            );
        }
        assert_eq!(st.expected(), 10);
        assert_eq!(st.received, 6);
        assert_eq!(st.cumulative_lost(), 4);
        let f = st.take_interval_loss();
        assert!((f - 0.4).abs() < 1e-9, "{f}");
        // The next interval starts clean.
        st.on_packet(&pkt(10, 400_000), MediaTime::from_micros(400_000));
        let f = st.take_interval_loss();
        assert_eq!(f, 0.0);
    }

    #[test]
    fn wraparound_extends_sequence() {
        let mut st = ReceiverStats::new(90_000);
        st.on_packet(&pkt(65_534, 0), MediaTime::from_micros(0));
        st.on_packet(&pkt(65_535, 40_000), MediaTime::from_micros(40_000));
        st.on_packet(&pkt(0, 80_000), MediaTime::from_micros(80_000));
        st.on_packet(&pkt(1, 120_000), MediaTime::from_micros(120_000));
        assert_eq!(st.extended_highest_seq(), (1 << 16) | 1);
        assert_eq!(st.expected(), 4);
        assert_eq!(st.cumulative_lost(), 0);
    }

    #[test]
    fn duplicates_and_reorders_tracked() {
        let mut st = ReceiverStats::new(90_000);
        st.on_packet(&pkt(0, 0), MediaTime::from_micros(0));
        st.on_packet(&pkt(2, 80_000), MediaTime::from_micros(80_000));
        st.on_packet(&pkt(1, 40_000), MediaTime::from_micros(90_000)); // late
        st.on_packet(&pkt(2, 80_000), MediaTime::from_micros(95_000)); // dup
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.reordered, 1);
        assert_eq!(st.received, 3);
        assert_eq!(st.cumulative_lost(), 0);
    }

    #[test]
    fn jitter_grows_with_variable_transit() {
        let mut st = ReceiverStats::new(90_000);
        // Alternate transit between 10 ms and 30 ms → |D| = 20 ms each step.
        for i in 0..64u16 {
            let ts = i as i64 * 40_000;
            let transit = if i % 2 == 0 { 10_000 } else { 30_000 };
            st.on_packet(&pkt(i, ts), MediaTime::from_micros(ts + transit));
        }
        // The estimator converges towards |D| = 20 ms.
        let j = st.jitter();
        assert!(
            j > MediaDuration::from_millis(15) && j <= MediaDuration::from_millis(20),
            "jitter {j}"
        );
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let mut st = ReceiverStats::new(8_000);
        assert_eq!(st.expected(), 0);
        assert_eq!(st.cumulative_lost(), 0);
        assert_eq!(st.take_interval_loss(), 0.0);
    }
}
