//! RTP packet format (after Schulzrinne et al., the Internet-Draft the paper
//! cites [SCH 95], later RFC 1889/3550).
//!
//! "RTP data packets contain, besides pure data, auxiliary information such
//! as: a timestamp ..., packet sequencing information, the packet's data
//! payload type" (§6.3). The 12-byte header is encoded/decoded exactly;
//! payloads in the simulator are synthetic bytes of the right length, so a
//! packet records only how long its payload is and owns no memory.

use bytes::{Buf, Bytes};

/// RTP protocol version (always 2).
pub const RTP_VERSION: u8 = 2;
/// Size of the fixed RTP header in bytes.
pub const RTP_HEADER_LEN: usize = 12;
/// UDP + IP header overhead added on the wire.
pub const UDP_IP_OVERHEAD: usize = 28;

/// Payload types used by the service (per-kind static assignment, as the
/// audio/video profile did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadType {
    /// PCM audio (PT 11 in the AV profile: L16 mono).
    Pcm,
    /// ADPCM audio (PT 5: DVI4).
    Adpcm,
    /// Variable-rate ADPCM (dynamic PT 96).
    Vadpcm,
    /// MPEG video (PT 32: MPV).
    Mpeg,
    /// Motion-JPEG / AVI video (PT 26: JPEG).
    Avi,
    /// Scenario / discrete media carried over RTP (dynamic PT 97).
    Document,
}

impl PayloadType {
    /// The 7-bit payload-type code carried in the header.
    pub fn code(self) -> u8 {
        match self {
            PayloadType::Adpcm => 5,
            PayloadType::Pcm => 11,
            PayloadType::Avi => 26,
            PayloadType::Mpeg => 32,
            PayloadType::Vadpcm => 96,
            PayloadType::Document => 97,
        }
    }
    /// Decode a payload-type code.
    pub fn from_code(c: u8) -> Option<PayloadType> {
        Some(match c {
            5 => PayloadType::Adpcm,
            11 => PayloadType::Pcm,
            26 => PayloadType::Avi,
            32 => PayloadType::Mpeg,
            96 => PayloadType::Vadpcm,
            97 => PayloadType::Document,
            _ => return None,
        })
    }
    /// RTP media clock rate for this payload type, Hz.
    pub fn clock_rate(self) -> u32 {
        match self {
            PayloadType::Pcm | PayloadType::Adpcm | PayloadType::Vadpcm => 8_000,
            PayloadType::Mpeg | PayloadType::Avi => 90_000,
            PayloadType::Document => 1_000,
        }
    }
}

/// A decoded RTP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpPacket {
    /// Payload type.
    pub payload_type: PayloadType,
    /// Marker bit — set on the last packet of a frame.
    pub marker: bool,
    /// 16-bit sequence number (wraps).
    pub seq: u16,
    /// Media timestamp in payload-type clock units.
    pub timestamp: u32,
    /// Synchronization source (one per media stream/connection).
    pub ssrc: u32,
    /// Payload length in bytes (the content is synthetic: zeros on the wire).
    pub payload_len: usize,
}

/// Errors decoding an RTP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtpDecodeError {
    /// Shorter than the fixed header.
    Truncated,
    /// Version field is not 2.
    BadVersion(u8),
    /// Unknown payload-type code.
    UnknownPayloadType(u8),
}

impl std::fmt::Display for RtpDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtpDecodeError::Truncated => write!(f, "rtp packet truncated"),
            RtpDecodeError::BadVersion(v) => write!(f, "bad rtp version {v}"),
            RtpDecodeError::UnknownPayloadType(c) => write!(f, "unknown payload type {c}"),
        }
    }
}

impl std::error::Error for RtpDecodeError {}

impl RtpPacket {
    /// Encode to wire bytes (header + zero payload).
    pub fn encode(&self) -> Bytes {
        let mut b = vec![0u8; RTP_HEADER_LEN + self.payload_len];
        // V=2, P=0, X=0, CC=0
        b[0] = RTP_VERSION << 6;
        let m = if self.marker { 0x80 } else { 0 };
        b[1] = m | (self.payload_type.code() & 0x7F);
        b[2..4].copy_from_slice(&self.seq.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        Bytes::from(b)
    }

    /// Decode from wire bytes: the header is validated, the payload is
    /// measured and dropped.
    pub fn decode(mut data: Bytes) -> Result<RtpPacket, RtpDecodeError> {
        if data.len() < RTP_HEADER_LEN {
            return Err(RtpDecodeError::Truncated);
        }
        let b0 = data.get_u8();
        let version = b0 >> 6;
        if version != RTP_VERSION {
            return Err(RtpDecodeError::BadVersion(version));
        }
        let b1 = data.get_u8();
        let marker = b1 & 0x80 != 0;
        let pt_code = b1 & 0x7F;
        let payload_type =
            PayloadType::from_code(pt_code).ok_or(RtpDecodeError::UnknownPayloadType(pt_code))?;
        let seq = data.get_u16();
        let timestamp = data.get_u32();
        let ssrc = data.get_u32();
        Ok(RtpPacket {
            payload_type,
            marker,
            seq,
            timestamp,
            ssrc,
            payload_len: data.len(),
        })
    }

    /// Total on-wire size including UDP/IP overhead (what the simulator
    /// charges the link for).
    pub fn wire_size(&self) -> usize {
        RTP_HEADER_LEN + self.payload_len + UDP_IP_OVERHEAD
    }

    /// A packet with a synthetic zero payload of `len` bytes (allocates
    /// nothing).
    pub fn synthetic(
        payload_type: PayloadType,
        marker: bool,
        seq: u16,
        timestamp: u32,
        ssrc: u32,
        len: usize,
    ) -> RtpPacket {
        RtpPacket {
            payload_type,
            marker,
            seq,
            timestamp,
            ssrc,
            payload_len: len,
        }
    }
}

/// Convert a microsecond media time into payload-clock units (wrapping u32,
/// as on the wire).
pub fn micros_to_clock(us: i64, clock_rate: u32) -> u32 {
    ((us as i128 * clock_rate as i128 / 1_000_000) & 0xFFFF_FFFF) as u32
}

/// Convert payload-clock units back to microseconds (no unwrapping — callers
/// compare nearby timestamps only).
pub fn clock_to_micros(ts: u32, clock_rate: u32) -> i64 {
    (ts as i64) * 1_000_000 / clock_rate as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let p = RtpPacket::synthetic(PayloadType::Mpeg, true, 1234, 567890, 0xDEADBEEF, 100);
        let wire = p.encode();
        assert_eq!(wire.len(), RTP_HEADER_LEN + 100);
        let q = RtpPacket::decode(wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn all_payload_types_round_trip() {
        for pt in [
            PayloadType::Pcm,
            PayloadType::Adpcm,
            PayloadType::Vadpcm,
            PayloadType::Mpeg,
            PayloadType::Avi,
            PayloadType::Document,
        ] {
            assert_eq!(PayloadType::from_code(pt.code()), Some(pt));
            let p = RtpPacket::synthetic(pt, false, 1, 2, 3, 10);
            assert_eq!(RtpPacket::decode(p.encode()).unwrap().payload_type, pt);
        }
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            RtpPacket::decode(Bytes::from_static(&[0x80, 0, 0, 1])),
            Err(RtpDecodeError::Truncated)
        );
    }

    #[test]
    fn bad_version_rejected() {
        let p = RtpPacket::synthetic(PayloadType::Pcm, false, 1, 2, 3, 0);
        let mut wire = p.encode().to_vec();
        wire[0] = 0x40; // version 1
        assert_eq!(
            RtpPacket::decode(Bytes::from(wire)),
            Err(RtpDecodeError::BadVersion(1))
        );
    }

    #[test]
    fn unknown_payload_type_rejected() {
        let p = RtpPacket::synthetic(PayloadType::Pcm, false, 1, 2, 3, 0);
        let mut wire = p.encode().to_vec();
        wire[1] = 99; // unassigned
        assert!(matches!(
            RtpPacket::decode(Bytes::from(wire)),
            Err(RtpDecodeError::UnknownPayloadType(99))
        ));
    }

    #[test]
    fn marker_bit_independent_of_pt() {
        let p = RtpPacket::synthetic(PayloadType::Mpeg, true, 1, 2, 3, 0);
        let q = RtpPacket::decode(p.encode()).unwrap();
        assert!(q.marker);
        assert_eq!(q.payload_type, PayloadType::Mpeg);
    }

    #[test]
    fn clock_conversions() {
        // 1 second of 90 kHz video clock.
        assert_eq!(micros_to_clock(1_000_000, 90_000), 90_000);
        assert_eq!(clock_to_micros(90_000, 90_000), 1_000_000);
        // 20 ms audio block at 8 kHz = 160 units.
        assert_eq!(micros_to_clock(20_000, 8_000), 160);
        // Wrapping is masked, not panicking.
        let big = i64::MAX / 2_000_000;
        let _ = micros_to_clock(big, 90_000);
    }

    #[test]
    fn packet_owns_no_memory() {
        fn is_copy<T: Copy>() {}
        is_copy::<RtpPacket>();
        // It rides inside every queued `RtpData` message; 32 B is what it
        // measured while it still owned its payload.
        assert!(std::mem::size_of::<RtpPacket>() <= 32);
    }

    #[test]
    fn wire_size_includes_overhead() {
        let p = RtpPacket::synthetic(PayloadType::Pcm, false, 1, 2, 3, 160);
        assert_eq!(p.wire_size(), 12 + 160 + 28);
        for len in [0, 1, 1_400, 65_000] {
            let p = RtpPacket::synthetic(PayloadType::Mpeg, true, 1, 2, 3, len);
            assert_eq!(p.wire_size(), p.encode().len() + UDP_IP_OVERHEAD);
        }
    }
}
