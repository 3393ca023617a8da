//! RTCP control packets: sender reports, receiver reports and BYE.
//!
//! "RTP is followed by a control protocol (RTCP) ... The primary function of
//! RTCP is to provide feedback information ... RTCP feedback packets
//! containing this kind of information/measurements are sent back to the
//! sender, as receiver's reports" (§6.3). The server QoS manager feeds these
//! reports to the flow scheduler, which drives the quality converters.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// One report block of a receiver report (RFC 3550 §6.4.1 fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportBlock {
    /// The source this block describes.
    pub ssrc: u32,
    /// Fraction of packets lost since the previous report, as a fixed-point
    /// 8-bit value (fraction × 256).
    pub fraction_lost: u8,
    /// Cumulative packets lost (24-bit on the wire; clamped).
    pub cumulative_lost: u32,
    /// Extended highest sequence number received.
    pub ext_highest_seq: u32,
    /// Interarrival jitter in payload clock units.
    pub jitter: u32,
    /// Last SR timestamp (middle 32 bits of NTP); 0 if none.
    pub lsr: u32,
    /// Delay since last SR, in 1/65536 s units.
    pub dlsr: u32,
}

impl ReportBlock {
    /// Loss fraction as f64 in [0, 1].
    pub fn loss_fraction(&self) -> f64 {
        self.fraction_lost as f64 / 256.0
    }
    /// Build the 8-bit fixed-point loss field from a fraction.
    pub fn fraction_from_f64(f: f64) -> u8 {
        (f.clamp(0.0, 1.0) * 256.0).min(255.0) as u8
    }
}

/// RTCP packet variants used by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtcpPacket {
    /// Sender report: sending stats + report blocks.
    SenderReport {
        /// Sender's SSRC.
        ssrc: u32,
        /// NTP-style timestamp (we carry simulation µs).
        ntp_timestamp: u64,
        /// RTP timestamp corresponding to the NTP instant.
        rtp_timestamp: u32,
        /// Total packets sent.
        packet_count: u32,
        /// Total payload bytes sent.
        octet_count: u32,
        /// Reception blocks (empty for a pure sender).
        reports: Vec<ReportBlock>,
    },
    /// Receiver report.
    ReceiverReport {
        /// Reporter's SSRC.
        ssrc: u32,
        /// Reception blocks.
        reports: Vec<ReportBlock>,
    },
    /// Goodbye — a source leaves the session.
    Bye {
        /// The departing SSRC.
        ssrc: u32,
    },
}

/// RTCP decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtcpDecodeError {
    /// Not enough bytes.
    Truncated,
    /// Unknown packet type code.
    UnknownType(u8),
    /// Version field is not 2.
    BadVersion(u8),
}

const PT_SR: u8 = 200;
const PT_RR: u8 = 201;
const PT_BYE: u8 = 203;
/// Encoded size of one report block.
const BLOCK_LEN: usize = 24;

fn put_block(b: &mut BytesMut, r: &ReportBlock) {
    b.put_u32(r.ssrc);
    b.put_u8(r.fraction_lost);
    let lost = r.cumulative_lost.min(0x00FF_FFFF);
    b.put_u8((lost >> 16) as u8);
    b.put_u16((lost & 0xFFFF) as u16);
    b.put_u32(r.ext_highest_seq);
    b.put_u32(r.jitter);
    b.put_u32(r.lsr);
    b.put_u32(r.dlsr);
}

fn get_block(b: &mut Bytes) -> Result<ReportBlock, RtcpDecodeError> {
    if b.len() < BLOCK_LEN {
        return Err(RtcpDecodeError::Truncated);
    }
    let ssrc = b.get_u32();
    let fraction_lost = b.get_u8();
    let hi = b.get_u8() as u32;
    let lo = b.get_u16() as u32;
    Ok(ReportBlock {
        ssrc,
        fraction_lost,
        cumulative_lost: (hi << 16) | lo,
        ext_highest_seq: b.get_u32(),
        jitter: b.get_u32(),
        lsr: b.get_u32(),
        dlsr: b.get_u32(),
    })
}

impl RtcpPacket {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            RtcpPacket::SenderReport {
                ssrc,
                ntp_timestamp,
                rtp_timestamp,
                packet_count,
                octet_count,
                reports,
            } => {
                b.put_u8((2 << 6) | (reports.len() as u8 & 0x1F));
                b.put_u8(PT_SR);
                b.put_u16(0); // length placeholder (filled below)
                b.put_u32(*ssrc);
                b.put_u64(*ntp_timestamp);
                b.put_u32(*rtp_timestamp);
                b.put_u32(*packet_count);
                b.put_u32(*octet_count);
                for r in reports {
                    put_block(&mut b, r);
                }
            }
            RtcpPacket::ReceiverReport { ssrc, reports } => {
                b.put_u8((2 << 6) | (reports.len() as u8 & 0x1F));
                b.put_u8(PT_RR);
                b.put_u16(0);
                b.put_u32(*ssrc);
                for r in reports {
                    put_block(&mut b, r);
                }
            }
            RtcpPacket::Bye { ssrc } => {
                b.put_u8((2 << 6) | 1);
                b.put_u8(PT_BYE);
                b.put_u16(0);
                b.put_u32(*ssrc);
            }
        }
        // Length in 32-bit words minus one (RFC 3550 §6.4).
        let words = (b.len() / 4 - 1) as u16;
        b[2..4].copy_from_slice(&words.to_be_bytes());
        b.freeze()
    }

    /// Decode from wire bytes.
    pub fn decode(mut data: Bytes) -> Result<RtcpPacket, RtcpDecodeError> {
        if data.len() < 8 {
            return Err(RtcpDecodeError::Truncated);
        }
        let b0 = data.get_u8();
        let version = b0 >> 6;
        if version != 2 {
            return Err(RtcpDecodeError::BadVersion(version));
        }
        let count = (b0 & 0x1F) as usize;
        let pt = data.get_u8();
        let _len = data.get_u16();
        match pt {
            PT_SR => {
                if data.len() < 24 {
                    return Err(RtcpDecodeError::Truncated);
                }
                let ssrc = data.get_u32();
                let ntp_timestamp = data.get_u64();
                let rtp_timestamp = data.get_u32();
                let packet_count = data.get_u32();
                let octet_count = data.get_u32();
                let mut reports = Vec::with_capacity(count);
                for _ in 0..count {
                    reports.push(get_block(&mut data)?);
                }
                Ok(RtcpPacket::SenderReport {
                    ssrc,
                    ntp_timestamp,
                    rtp_timestamp,
                    packet_count,
                    octet_count,
                    reports,
                })
            }
            PT_RR => {
                let ssrc = data.get_u32();
                let mut reports = Vec::with_capacity(count);
                for _ in 0..count {
                    reports.push(get_block(&mut data)?);
                }
                Ok(RtcpPacket::ReceiverReport { ssrc, reports })
            }
            PT_BYE => {
                let ssrc = data.get_u32();
                Ok(RtcpPacket::Bye { ssrc })
            }
            other => Err(RtcpDecodeError::UnknownType(other)),
        }
    }

    /// On-wire size including UDP/IP overhead: the length [`encode`] would
    /// produce, without encoding.
    ///
    /// [`encode`]: RtcpPacket::encode
    pub fn wire_size(&self) -> usize {
        let rtcp = match self {
            RtcpPacket::SenderReport { reports, .. } => 28 + BLOCK_LEN * reports.len(),
            RtcpPacket::ReceiverReport { reports, .. } => 8 + BLOCK_LEN * reports.len(),
            RtcpPacket::Bye { .. } => 8,
        };
        rtcp + crate::packet::UDP_IP_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(ssrc: u32) -> ReportBlock {
        ReportBlock {
            ssrc,
            fraction_lost: ReportBlock::fraction_from_f64(0.125),
            cumulative_lost: 321,
            ext_highest_seq: 0x0001_0042,
            jitter: 1234,
            lsr: 0xAABBCCDD,
            dlsr: 65536,
        }
    }

    #[test]
    fn receiver_report_round_trip() {
        let p = RtcpPacket::ReceiverReport {
            ssrc: 99,
            reports: vec![block(1), block(2)],
        };
        let q = RtcpPacket::decode(p.encode()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn sender_report_round_trip() {
        let p = RtcpPacket::SenderReport {
            ssrc: 7,
            ntp_timestamp: 123_456_789_012,
            rtp_timestamp: 90_000,
            packet_count: 1000,
            octet_count: 5_000_000,
            reports: vec![block(3)],
        };
        assert_eq!(RtcpPacket::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn bye_round_trip() {
        let p = RtcpPacket::Bye { ssrc: 42 };
        assert_eq!(RtcpPacket::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn length_field_correct() {
        let p = RtcpPacket::ReceiverReport {
            ssrc: 1,
            reports: vec![block(1)],
        };
        let wire = p.encode();
        // 8-byte header + 24-byte block = 32 bytes = 8 words → length 7.
        assert_eq!(wire.len(), 32);
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]), 7);
    }

    #[test]
    fn wire_size_is_encoded_length_plus_overhead() {
        for n in 0..32u32 {
            let reports: Vec<ReportBlock> = (0..n).map(block).collect();
            let packets = [
                RtcpPacket::SenderReport {
                    ssrc: 7,
                    ntp_timestamp: 1,
                    rtp_timestamp: 2,
                    packet_count: 3,
                    octet_count: 4,
                    reports: reports.clone(),
                },
                RtcpPacket::ReceiverReport { ssrc: 7, reports },
                RtcpPacket::Bye { ssrc: 7 },
            ];
            for p in packets {
                assert_eq!(
                    p.wire_size(),
                    p.encode().len() + crate::packet::UDP_IP_OVERHEAD,
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn loss_fraction_fixed_point() {
        assert_eq!(ReportBlock::fraction_from_f64(0.0), 0);
        assert_eq!(ReportBlock::fraction_from_f64(0.5), 128);
        assert_eq!(ReportBlock::fraction_from_f64(1.0), 255);
        assert_eq!(ReportBlock::fraction_from_f64(2.0), 255);
        let b = block(1);
        assert!((b.loss_fraction() - 0.125).abs() < 1.0 / 256.0);
    }

    #[test]
    fn cumulative_lost_clamped_to_24_bits() {
        let mut b = block(1);
        b.cumulative_lost = 0x0F00_0000;
        let p = RtcpPacket::ReceiverReport {
            ssrc: 1,
            reports: vec![b],
        };
        match RtcpPacket::decode(p.encode()).unwrap() {
            RtcpPacket::ReceiverReport { reports, .. } => {
                assert_eq!(reports[0].cumulative_lost, 0x00FF_FFFF);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_and_unknown_rejected() {
        assert_eq!(
            RtcpPacket::decode(Bytes::from_static(&[0x80, 200])),
            Err(RtcpDecodeError::Truncated)
        );
        let mut wire = RtcpPacket::Bye { ssrc: 1 }.encode().to_vec();
        wire[1] = 222;
        assert_eq!(
            RtcpPacket::decode(Bytes::from(wire)),
            Err(RtcpDecodeError::UnknownType(222))
        );
    }
}
