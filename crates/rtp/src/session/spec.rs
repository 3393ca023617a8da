//! Executable specs for the session fast paths: the `Vec`-building
//! packetizer and the `BTreeMap` receiver this crate shipped before the
//! frame path went allocation-free, kept verbatim, and differential
//! properties holding [`RtpSender::packetize`] and [`RtpReceiver`] to them.

use super::*;
use hermes_core::{ComponentId, GradeLevel};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn packetize_spec(tx: &mut RtpSender, frame: &MediaFrame) -> Vec<RtpPacket> {
    let ts = micros_to_clock(frame.pts.as_micros(), tx.payload_type.clock_rate());
    let mut remaining = frame.size as usize;
    let mut out = Vec::new();
    loop {
        let chunk = remaining.min(tx.max_payload);
        remaining -= chunk;
        let marker = remaining == 0;
        out.push(RtpPacket::synthetic(
            tx.payload_type,
            marker,
            tx.next_seq,
            ts,
            tx.ssrc,
            chunk,
        ));
        tx.next_seq = tx.next_seq.wrapping_add(1);
        tx.packet_count += 1;
        tx.octet_count = tx.octet_count.wrapping_add(chunk as u32);
        if marker {
            break;
        }
    }
    out
}

/// The receiver with one map node per partial frame and no bound on them.
struct SpecReceiver {
    ssrc: Option<u32>,
    clock_rate: u32,
    stats: ReceiverStats,
    partial: BTreeMap<u32, (u32, MediaTime)>, // (bytes, last_arrival)
    ready: Vec<ReceivedFrame>,
}

impl SpecReceiver {
    fn new(encoding: Encoding) -> Self {
        let clock_rate = payload_type_for(encoding).clock_rate();
        SpecReceiver {
            ssrc: None,
            clock_rate,
            stats: ReceiverStats::new(clock_rate),
            partial: BTreeMap::new(),
            ready: Vec::new(),
        }
    }

    fn on_packet(&mut self, pkt: &RtpPacket, arrival: MediaTime) {
        if self.ssrc.is_none() {
            self.ssrc = Some(pkt.ssrc);
        } else if self.ssrc != Some(pkt.ssrc) {
            return;
        }
        self.stats.on_packet(pkt, arrival);
        let entry = self.partial.entry(pkt.timestamp).or_insert((0, arrival));
        entry.0 += pkt.payload_len as u32;
        entry.1 = entry.1.max(arrival);
        if pkt.marker {
            let (size, last_arrival) = self.partial.remove(&pkt.timestamp).unwrap();
            self.ready.push(ReceivedFrame {
                timestamp: pkt.timestamp,
                pts: MediaTime::from_micros(clock_to_micros(pkt.timestamp, self.clock_rate)),
                size,
                arrival: last_arrival,
                incomplete: false,
            });
        }
    }
}

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

fn sender_state(tx: &RtpSender) -> (u16, u32, u32) {
    (tx.next_seq, tx.packet_count, tx.octet_count)
}

/// xorshift64: the interleavings below need many cheap draws per case.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The iterator yields the spec's packets and leaves the sender in the
    /// spec's state — also when it is dropped before the last packet.
    #[test]
    fn packetize_matches_vec_building_spec(
        ssrc in any::<u32>(),
        max_payload in 1usize..2_000,
        random_size in 0u32..40_000,
        taken in 0usize..6,
    ) {
        let m = max_payload as u32;
        let sizes = [0, 1, m.saturating_sub(1), m, m + 1, 2 * m, 3 * m, 7 * m + 3, random_size];
        let mut spec_tx = RtpSender::new(ssrc, Encoding::Mpeg).with_max_payload(max_payload);
        let mut drained_tx = spec_tx.clone();
        let mut dropped_tx = spec_tx.clone();
        for (i, size) in sizes.into_iter().enumerate() {
            let f = frame(i as u64, i as i64 * 40, size);
            let want = packetize_spec(&mut spec_tx, &f);
            let got: Vec<RtpPacket> = drained_tx.packetize(&f).collect();
            prop_assert_eq!(&got, &want, "size {}", size);
            prop_assert_eq!(sender_state(&drained_tx), sender_state(&spec_tx));
            let head: Vec<RtpPacket> = dropped_tx.packetize(&f).take(taken).collect();
            prop_assert_eq!(&head[..], &want[..taken.min(want.len())]);
            prop_assert_eq!(sender_state(&dropped_tx), sender_state(&spec_tx));
        }
    }

    /// Loss, duplication, reordering within and across frames and a foreign
    /// SSRC: the in-place receiver delivers the spec's frames after every
    /// packet and ends with the spec's statistics. Displacement stays under
    /// the receiver's one-second bound on dead partials, which is the only
    /// thing the spec does not have.
    #[test]
    fn receiver_matches_btreemap_spec(
        seed in any::<u64>(),
        max_payload in 200usize..1_500,
        loss_pct in 0u64..30,
        window in 1u64..10,
    ) {
        let mut draws = Draws(seed | 1);
        let mut ours = RtpSender::new(9, Encoding::Mpeg).with_max_payload(max_payload);
        let mut foreign = RtpSender::new(10, Encoding::Mpeg).with_max_payload(max_payload);
        // (sort key, packet): a packet moves at most `window` places late.
        let mut schedule: Vec<(u64, RtpPacket)> = Vec::new();
        for i in 0..120u64 {
            let f = frame(i, i as i64 * 40, draws.below(6_000) as u32);
            let tx = if i > 0 && draws.below(10) == 0 { &mut foreign } else { &mut ours };
            for p in tx.packetize(&f) {
                if draws.below(100) < loss_pct {
                    continue;
                }
                let copies = 1 + (draws.below(20) == 0) as u64;
                for _ in 0..copies {
                    let at = schedule.len() as u64;
                    schedule.push((at + draws.below(window), p));
                }
            }
        }
        schedule.sort_by_key(|&(key, _)| key);

        let mut rx = RtpReceiver::new(Encoding::Mpeg);
        let mut spec = SpecReceiver::new(Encoding::Mpeg);
        for (i, (_, p)) in schedule.iter().enumerate() {
            let arrival = MediaTime::from_micros(i as i64 * 700);
            rx.on_packet(p, arrival);
            spec.on_packet(p, arrival);
            let got: Vec<ReceivedFrame> = rx.drain_frames().collect();
            prop_assert_eq!(got, std::mem::take(&mut spec.ready), "after packet {}", i);
        }
        prop_assert_eq!(rx.ssrc, spec.ssrc);
        let mut stats = rx.stats.clone();
        stats.frames_abandoned = 0;
        prop_assert_eq!(stats, spec.stats);
        prop_assert_eq!(
            rx.partial.len() as u64 + rx.stats.frames_abandoned,
            spec.partial.len() as u64
        );
    }
}
