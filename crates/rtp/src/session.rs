//! RTP sessions: sender-side packetization of media frames and
//! receiver-side frame reassembly with reception statistics.
//!
//! Each media stream of a presentation gets its own RTP session over its own
//! parallel connection, as in the paper's architecture ("each media server
//! ... is responsible for transmitting a certain media type through a
//! parallel connection which is established between the browser and the
//! corresponding media server", §6.1).

use crate::packet::{clock_to_micros, micros_to_clock, PayloadType, RtpPacket};
use crate::rtcp::{ReportBlock, RtcpPacket};
use crate::stats::ReceiverStats;
use hermes_core::{Encoding, MediaTime};
use hermes_media::MediaFrame;

#[cfg(test)]
mod spec;

/// Map an encoding to its RTP payload type.
pub fn payload_type_for(encoding: Encoding) -> PayloadType {
    match encoding {
        Encoding::Pcm => PayloadType::Pcm,
        Encoding::Adpcm => PayloadType::Adpcm,
        Encoding::Vadpcm => PayloadType::Vadpcm,
        Encoding::Mpeg => PayloadType::Mpeg,
        Encoding::Avi => PayloadType::Avi,
        _ => PayloadType::Document,
    }
}

/// Default MTU-limited payload size per RTP packet.
pub const DEFAULT_MAX_PAYLOAD: usize = 1400;

/// Sender half of an RTP session for one media stream.
#[derive(Debug, Clone)]
pub struct RtpSender {
    /// This stream's SSRC.
    pub ssrc: u32,
    payload_type: PayloadType,
    next_seq: u16,
    max_payload: usize,
    /// Packets sent.
    pub packet_count: u32,
    /// Payload octets sent.
    pub octet_count: u32,
}

impl RtpSender {
    /// Create a sender for a stream of the given encoding.
    pub fn new(ssrc: u32, encoding: Encoding) -> Self {
        RtpSender {
            ssrc,
            payload_type: payload_type_for(encoding),
            next_seq: (ssrc & 0xFFFF) as u16, // quasi-random initial seq
            max_payload: DEFAULT_MAX_PAYLOAD,
            packet_count: 0,
            octet_count: 0,
        }
    }

    /// Override the per-packet payload budget (tests).
    pub fn with_max_payload(mut self, max_payload: usize) -> Self {
        assert!(max_payload > 0);
        self.max_payload = max_payload;
        self
    }

    /// The payload type in use.
    pub fn payload_type(&self) -> PayloadType {
        self.payload_type
    }

    /// Packetize one media frame into RTP packets. The frame's `pts` (stream
    /// relative) becomes the RTP timestamp; the marker bit is set on the
    /// final fragment of the frame (a 0-byte frame is one marker packet).
    /// The sender's sequence and counters advance for the whole frame here,
    /// whether or not the returned iterator is drained.
    pub fn packetize(&mut self, frame: &MediaFrame) -> Packets {
        let size = frame.size as usize;
        let fragments = size.div_ceil(self.max_payload).max(1);
        let packets = Packets {
            payload_type: self.payload_type,
            ssrc: self.ssrc,
            timestamp: micros_to_clock(frame.pts.as_micros(), self.payload_type.clock_rate()),
            seq: self.next_seq,
            remaining: size,
            max_payload: self.max_payload,
            done: false,
        };
        self.next_seq = self.next_seq.wrapping_add(fragments as u16);
        self.packet_count += fragments as u32;
        self.octet_count = self.octet_count.wrapping_add(frame.size);
        packets
    }

    /// Produce a sender report at local time `now`.
    pub fn sender_report(&self, now: MediaTime) -> RtcpPacket {
        RtcpPacket::SenderReport {
            ssrc: self.ssrc,
            ntp_timestamp: now.as_micros() as u64,
            rtp_timestamp: micros_to_clock(now.as_micros(), self.payload_type.clock_rate()),
            packet_count: self.packet_count,
            octet_count: self.octet_count,
            reports: Vec::new(),
        }
    }
}

/// The RTP packets of one frame, in sequence order (see
/// [`RtpSender::packetize`]). Owns no memory and borrows nothing.
#[derive(Debug, Clone)]
pub struct Packets {
    payload_type: PayloadType,
    ssrc: u32,
    timestamp: u32,
    seq: u16,
    remaining: usize,
    max_payload: usize,
    done: bool,
}

impl Iterator for Packets {
    type Item = RtpPacket;

    fn next(&mut self) -> Option<RtpPacket> {
        if self.done {
            return None;
        }
        let chunk = self.remaining.min(self.max_payload);
        self.remaining -= chunk;
        self.done = self.remaining == 0;
        let packet = RtpPacket::synthetic(
            self.payload_type,
            self.done,
            self.seq,
            self.timestamp,
            self.ssrc,
            chunk,
        );
        self.seq = self.seq.wrapping_add(1);
        Some(packet)
    }
}

/// A frame reassembled by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedFrame {
    /// RTP timestamp (clock units) identifying the frame.
    pub timestamp: u32,
    /// Media time of the frame within the stream.
    pub pts: MediaTime,
    /// Total payload bytes reassembled.
    pub size: u32,
    /// Local arrival time of the frame's last fragment.
    pub arrival: MediaTime,
    /// True if some fragments were missing (delivered incomplete).
    pub incomplete: bool,
}

/// Fragments of one frame received so far.
#[derive(Debug, Clone, Copy)]
struct PartialFrame {
    timestamp: u32,
    bytes: u32,
    last_arrival: MediaTime,
}

/// Receiver half of an RTP session for one media stream.
#[derive(Debug)]
pub struct RtpReceiver {
    /// Peer SSRC (locked to the first packet's SSRC).
    pub ssrc: Option<u32>,
    clock_rate: u32,
    /// Reception statistics for RTCP reporting.
    pub stats: ReceiverStats,
    /// Partial frames sorted by RTP timestamp. A frame lives here from its
    /// first fragment to its marker, so this is almost always empty or one
    /// entry at the tail.
    partial: Vec<PartialFrame>,
    /// Completed frames ready for the buffer layer.
    ready: Vec<ReceivedFrame>,
    /// Timestamp of the last SR received (for LSR/DLSR).
    last_sr: Option<(u64, MediaTime)>,
}

impl RtpReceiver {
    /// Create a receiver expecting the given encoding.
    pub fn new(encoding: Encoding) -> Self {
        let clock_rate = payload_type_for(encoding).clock_rate();
        RtpReceiver {
            ssrc: None,
            clock_rate,
            stats: ReceiverStats::new(clock_rate),
            partial: Vec::new(),
            ready: Vec::new(),
            last_sr: None,
        }
    }

    /// Ingest one RTP packet arriving at local time `arrival`.
    pub fn on_packet(&mut self, pkt: &RtpPacket, arrival: MediaTime) {
        if self.ssrc.is_none() {
            self.ssrc = Some(pkt.ssrc);
        } else if self.ssrc != Some(pkt.ssrc) {
            return; // foreign SSRC — not our stream
        }
        self.stats.on_packet(pkt, arrival);
        let at = match self
            .partial
            .binary_search_by_key(&pkt.timestamp, |p| p.timestamp)
        {
            Ok(at) => at,
            Err(at) => {
                self.partial.insert(
                    at,
                    PartialFrame {
                        timestamp: pkt.timestamp,
                        bytes: 0,
                        last_arrival: arrival,
                    },
                );
                at
            }
        };
        let entry = &mut self.partial[at];
        entry.bytes += pkt.payload_len as u32;
        entry.last_arrival = entry.last_arrival.max(arrival);
        if pkt.marker {
            // Frame complete (fragments of one frame arrive in order on our
            // simulated links; a lost fragment means the marker may carry a
            // short frame — flagged incomplete by the caller via size checks).
            let done = self.partial.remove(at);
            self.ready.push(ReceivedFrame {
                timestamp: pkt.timestamp,
                pts: MediaTime::from_micros(clock_to_micros(pkt.timestamp, self.clock_rate)),
                size: done.bytes,
                arrival: done.last_arrival,
                incomplete: false,
            });
            // A fragment that arrives after its frame's marker re-creates an
            // entry no second marker will ever complete; bound those to one
            // second of media clock behind the newest completed frame.
            self.stats.frames_abandoned +=
                self.expire_partials(pkt.timestamp, self.clock_rate) as u64;
        }
    }

    /// Record a sender report (for LSR/DLSR bookkeeping).
    pub fn on_sender_report(&mut self, ntp_timestamp: u64, arrival: MediaTime) {
        self.last_sr = Some((ntp_timestamp, arrival));
    }

    /// Take the frames completed since the last call (the buffer goes with
    /// them; [`RtpReceiver::drain_frames`] keeps it).
    pub fn take_frames(&mut self) -> Vec<ReceivedFrame> {
        std::mem::take(&mut self.ready)
    }

    /// Drain the frames completed since the last call, in completion order.
    pub fn drain_frames(&mut self) -> std::vec::Drain<'_, ReceivedFrame> {
        self.ready.drain(..)
    }

    /// Expire partial frames more than `horizon_clock` clock units behind
    /// `newest_ts` (wrap-aware) — their missing fragments were lost. Returns
    /// how many frames were abandoned.
    pub fn expire_partials(&mut self, newest_ts: u32, horizon_clock: u32) -> usize {
        let before = self.partial.len();
        self.partial
            .retain(|p| newest_ts.wrapping_sub(p.timestamp) as i32 <= horizon_clock as i32);
        before - self.partial.len()
    }

    /// The RTCP receiver-report block for this stream at local time `now`.
    /// `loss_fraction` is the interval loss the caller took from
    /// [`ReceiverStats::take_interval_loss`]: taking it resets the
    /// interval, so it is taken once and passed in.
    pub fn report_block(&self, loss_fraction: f64, now: MediaTime) -> ReportBlock {
        let (lsr, dlsr) = match self.last_sr {
            Some((ntp, at)) => {
                let mid = ((ntp >> 16) & 0xFFFF_FFFF) as u32;
                let delay = ((now - at).as_micros().max(0) as u128 * 65_536 / 1_000_000) as u32;
                (mid, delay)
            }
            None => (0, 0),
        };
        ReportBlock {
            ssrc: self.ssrc.unwrap_or(0),
            fraction_lost: ReportBlock::fraction_from_f64(loss_fraction),
            cumulative_lost: self.stats.cumulative_lost().min(u32::MAX as u64) as u32,
            ext_highest_seq: self.stats.extended_highest_seq(),
            jitter: micros_to_clock(self.stats.jitter().as_micros(), self.clock_rate),
            lsr,
            dlsr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{ComponentId, GradeLevel};

    fn frame(seq: u64, pts_ms: i64, size: u32) -> MediaFrame {
        MediaFrame {
            component: ComponentId::new(1),
            seq,
            pts: MediaTime::from_millis(pts_ms),
            size,
            key: true,
            level: GradeLevel::NOMINAL,
            last: false,
        }
    }

    #[test]
    fn small_frame_single_packet_with_marker() {
        let mut tx = RtpSender::new(7, Encoding::Pcm);
        let pkts: Vec<_> = tx.packetize(&frame(0, 0, 882)).collect();
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].marker);
        assert_eq!(pkts[0].payload_len, 882);
    }

    #[test]
    fn large_frame_fragments_and_reassembles() {
        let mut tx = RtpSender::new(7, Encoding::Mpeg);
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        let f = frame(0, 40, 7_500);
        let pkts: Vec<_> = tx.packetize(&f).collect();
        assert_eq!(pkts.len(), 6); // ceil(7500/1400)
        assert!(pkts.last().unwrap().marker);
        assert!(pkts[..5].iter().all(|p| !p.marker));
        for (i, p) in pkts.iter().enumerate() {
            rx.on_packet(p, MediaTime::from_millis(50 + i as i64));
        }
        let frames = rx.take_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].size, 7_500);
        assert_eq!(frames[0].pts, MediaTime::from_millis(40));
        assert_eq!(frames[0].arrival, MediaTime::from_millis(55));
    }

    #[test]
    fn sequence_numbers_contiguous_across_frames() {
        let mut tx = RtpSender::new(1, Encoding::Mpeg);
        let p1: Vec<_> = tx.packetize(&frame(0, 0, 3_000)).collect();
        let p2: Vec<_> = tx.packetize(&frame(1, 40, 3_000)).collect();
        let first = p1[0].seq;
        let all: Vec<u16> = p1.iter().chain(p2.iter()).map(|p| p.seq).collect();
        let expect: Vec<u16> = (0..all.len() as u16)
            .map(|i| first.wrapping_add(i))
            .collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn foreign_ssrc_ignored() {
        let mut tx_a = RtpSender::new(1, Encoding::Pcm);
        let mut tx_b = RtpSender::new(2, Encoding::Pcm);
        let mut rx = RtpReceiver::new(Encoding::Pcm);
        for p in tx_a.packetize(&frame(0, 0, 100)) {
            rx.on_packet(&p, MediaTime::from_millis(1));
        }
        for p in tx_b.packetize(&frame(0, 0, 100)) {
            rx.on_packet(&p, MediaTime::from_millis(2));
        }
        assert_eq!(rx.take_frames().len(), 1);
        assert_eq!(rx.ssrc, Some(1));
    }

    #[test]
    fn report_block_reflects_loss() {
        let mut tx = RtpSender::new(9, Encoding::Mpeg);
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        // 10 single-packet frames; drop every other packet.
        for i in 0..10 {
            let pkts: Vec<_> = tx.packetize(&frame(i, i as i64 * 40, 1_000)).collect();
            if i % 2 == 0 {
                rx.on_packet(&pkts[0], MediaTime::from_millis(i as i64 * 40 + 10));
            }
        }
        let loss = rx.stats.take_interval_loss();
        let b = rx.report_block(loss, MediaTime::from_millis(500));
        assert_eq!(b.ssrc, 9);
        // 9 expected (up to highest seq), 5 received → 4 lost.
        assert_eq!(b.cumulative_lost, 4);
        assert!(b.loss_fraction() > 0.3);
        assert_eq!(b.fraction_lost, ReportBlock::fraction_from_f64(loss));
    }

    #[test]
    fn sender_report_counts() {
        let mut tx = RtpSender::new(3, Encoding::Pcm);
        tx.packetize(&frame(0, 0, 882));
        tx.packetize(&frame(1, 20, 882));
        match tx.sender_report(MediaTime::from_secs(1)) {
            RtcpPacket::SenderReport {
                packet_count,
                octet_count,
                ..
            } => {
                assert_eq!(packet_count, 2);
                assert_eq!(octet_count, 1764);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lsr_dlsr_bookkeeping() {
        let mut rx = RtpReceiver::new(Encoding::Pcm);
        let mut tx = RtpSender::new(5, Encoding::Pcm);
        for p in tx.packetize(&frame(0, 0, 100)) {
            rx.on_packet(&p, MediaTime::from_millis(5));
        }
        rx.on_sender_report(0x0001_2345_6789_ABCD, MediaTime::from_secs(1));
        let b = rx.report_block(0.0, MediaTime::from_secs(2));
        assert_eq!(b.lsr, 0x2345_6789);
        assert_eq!(b.dlsr, 65_536); // exactly 1 s
    }

    #[test]
    fn partial_expiry_abandons_stale_frames() {
        let mut tx = RtpSender::new(4, Encoding::Mpeg).with_max_payload(500);
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        // Deliver only the first two of three fragments (marker lost).
        for (i, p) in tx.packetize(&frame(0, 0, 1_500)).take(2).enumerate() {
            rx.on_packet(&p, MediaTime::from_millis(1 + i as i64));
        }
        assert!(rx.take_frames().is_empty());
        let newest = micros_to_clock(2_000_000, 90_000);
        assert_eq!(rx.expire_partials(newest, 90_000 / 2), 1);
    }

    #[test]
    fn partial_expiry_is_wrap_aware() {
        let fragment = |rx: &mut RtpReceiver, ts: u32| {
            let p = RtpPacket::synthetic(PayloadType::Mpeg, false, ts as u16, ts, 4, 100);
            rx.on_packet(&p, MediaTime::ZERO);
        };
        // Early in a stream (newest < horizon) nothing live is erased.
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        fragment(&mut rx, 0);
        fragment(&mut rx, 3_600);
        assert_eq!(rx.expire_partials(7_200, 90_000), 0);
        assert_eq!(rx.expire_partials(90_000, 90_000), 0);
        assert_eq!(rx.expire_partials(90_001, 90_000), 1);
        // Across the u32 wrap: one entry 2 s behind, one 0.5 s behind, one
        // just past the wrap.
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        let newest = 45_000u32;
        fragment(&mut rx, newest.wrapping_sub(180_000));
        fragment(&mut rx, newest.wrapping_sub(45_001));
        fragment(&mut rx, 10);
        assert_eq!(rx.expire_partials(newest, 90_000), 1);
        assert_eq!(rx.partial.len(), 2);
    }

    #[test]
    fn late_fragments_are_bounded_not_leaked() {
        // Every frame's first fragment arrives after its marker: each
        // re-creates an entry that can never complete. One second of media
        // clock later they are dropped and counted.
        let mut tx = RtpSender::new(4, Encoding::Mpeg).with_max_payload(500);
        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        for i in 0..100 {
            let at = MediaTime::from_millis(i * 40);
            let mut pkts = tx.packetize(&frame(i as u64, i * 40, 1_000));
            let (first, marker) = (pkts.next().unwrap(), pkts.next().unwrap());
            rx.on_packet(&marker, at);
            rx.on_packet(&first, at);
        }
        assert_eq!(rx.drain_frames().len(), 100);
        // 25 frames per second: the newest 26 late fragments are within 1 s.
        assert_eq!(rx.partial.len(), 26);
        assert_eq!(rx.stats.frames_abandoned, 74);
    }
}
