//! # hermes-rtp
//!
//! The Real-time Transport Protocol substrate (paper §6.3, after the
//! Schulzrinne et al. Internet-Draft [SCH 95]): RTP data packets with exact
//! header encode/decode, RTCP sender/receiver reports, the RFC 3550
//! interarrival-jitter estimator, and per-stream sessions that packetize
//! media frames (MTU fragmentation, marker bits) and reassemble them with
//! full reception statistics.

#![warn(missing_docs)]

pub mod packet;
pub mod rtcp;
pub mod session;
pub mod stats;

pub use packet::{
    clock_to_micros, micros_to_clock, PayloadType, RtpDecodeError, RtpPacket, RTP_HEADER_LEN,
    UDP_IP_OVERHEAD,
};
pub use rtcp::{ReportBlock, RtcpDecodeError, RtcpPacket};
pub use session::{payload_type_for, ReceivedFrame, RtpReceiver, RtpSender, DEFAULT_MAX_PAYLOAD};
pub use stats::ReceiverStats;
