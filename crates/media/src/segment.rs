//! Segment addressing over deterministic frame sequences.
//!
//! The distributed media tier moves frames between nodes in *segments*:
//! fixed-length runs of consecutive frames of one object at one quality
//! level. Because a [`MediaObject`]'s frame
//! sequence is fully determined by `(seed, seq, level)`, a media-server
//! node can compute any segment on demand with no per-stream state — the
//! fetch protocol is stateless and a segment is a natural cache unit.

use crate::codec::CodecModel;
use crate::store::MediaObject;
use hermes_core::GradeLevel;
use std::sync::Arc;

/// The content spec of one frame inside a fetched segment: everything the
/// pulling multimedia server cannot regenerate locally without the object's
/// content seed. Timing (pts/period) stays with the puller's own pacer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFrame {
    /// Payload size in bytes.
    pub size: u32,
    /// Key frame (independently decodable)?
    pub key: bool,
}

/// Compute segment `segment` of `object` at `level`, with
/// `frames_per_segment` frames per segment. Global frame index `i` of the
/// `k`-th frame in the segment is `segment * frames_per_segment + k`.
///
/// A segment is fixed content, so it is built once, in one allocation, and
/// every later holder (the fetch reply, the puller's segment cache, each
/// stream's fetch window) shares it.
///
/// Serving is deliberately *unbounded*: the object's duration does not clip
/// the segment. The pulling multimedia server's pacer owns the stream's
/// timeline and stops it at the presentation duration; a mid-stream level
/// switch can legitimately move the pacer's frame index past the object's
/// intrinsic frame count at the new level (slower levels have fewer frames
/// per wall-clock second), and a clipped — empty — reply there would stall
/// the stream forever.
pub fn segment_frames(
    object: &MediaObject,
    level: GradeLevel,
    segment: u64,
    frames_per_segment: u32,
) -> Arc<[SegmentFrame]> {
    let model = CodecModel::for_encoding(object.encoding);
    let level = GradeLevel(level.0.min(model.max_level().0));
    let first = segment.saturating_mul(frames_per_segment as u64);
    (first..first.saturating_add(frames_per_segment as u64))
        .map(|seq| SegmentFrame {
            size: model.frame_size(object.seed, seq, level),
            key: model.is_key_frame(seq),
        })
        .collect()
}

/// Sum of payload bytes in a segment (cache accounting).
pub fn segment_bytes(frames: &[SegmentFrame]) -> u64 {
    frames.iter().map(|f| f.size as u64).sum()
}

/// The segment holding global frame index `seq`, and the offset of that
/// frame within the segment.
pub fn segment_of_frame(seq: u64, frames_per_segment: u32) -> (u64, u32) {
    let fps = frames_per_segment.max(1) as u64;
    (seq / fps, (seq % fps) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{ComponentId, Encoding, MediaDuration};

    fn obj() -> MediaObject {
        MediaObject {
            key: "v.mpg".into(),
            encoding: Encoding::Mpeg,
            duration: MediaDuration::from_secs(8),
            seed: 42,
        }
    }

    #[test]
    fn segments_tile_the_stream_exactly() {
        let o = obj();
        // Segment contents match what a local FrameSource generates.
        let local =
            crate::frames::FrameSource::new(ComponentId::new(1), o.encoding, o.seed, o.duration)
                .collect_all();
        assert_eq!(local.len(), 200); // 25 fps × 8 s
        let mut stitched = Vec::new();
        let mut seg = 0;
        while stitched.len() < local.len() {
            stitched.extend_from_slice(&segment_frames(&o, GradeLevel::NOMINAL, seg, 32));
            seg += 1;
        }
        stitched.truncate(local.len());
        for (spec, frame) in stitched.iter().zip(local.iter()) {
            assert_eq!(spec.size, frame.size);
            assert_eq!(spec.key, frame.key);
        }
    }

    #[test]
    fn serving_is_unbounded_past_the_object_duration() {
        let o = obj();
        // 200 frames at nominal, but segments past the end still serve:
        // after a mid-stream switch to a slower level the pacer's index can
        // exceed the object's frame count at that level, and the puller's
        // pacer — not the media node — bounds the stream.
        assert_eq!(segment_frames(&o, GradeLevel::NOMINAL, 3, 64).len(), 64);
        assert_eq!(segment_frames(&o, GradeLevel::NOMINAL, 10, 64).len(), 64);
        // Statelessness: recomputation yields the identical segment.
        assert_eq!(
            segment_frames(&o, GradeLevel::NOMINAL, 10, 64),
            segment_frames(&o, GradeLevel::NOMINAL, 10, 64)
        );
    }

    #[test]
    fn level_is_clamped_to_the_ladder() {
        let o = obj();
        let deep = segment_frames(&o, GradeLevel(99), 0, 16);
        let model = CodecModel::for_encoding(o.encoding);
        let floor = segment_frames(&o, model.max_level(), 0, 16);
        assert_eq!(deep, floor);
    }

    #[test]
    fn segment_of_frame_round_trips() {
        assert_eq!(segment_of_frame(0, 32), (0, 0));
        assert_eq!(segment_of_frame(31, 32), (0, 31));
        assert_eq!(segment_of_frame(32, 32), (1, 0));
        assert_eq!(segment_of_frame(100, 32), (3, 4));
        // Degenerate fps guards against division by zero.
        assert_eq!(segment_of_frame(5, 0), (5, 0));
    }

    #[test]
    fn images_are_one_single_frame_segment() {
        let o = MediaObject {
            key: "i.jpg".into(),
            encoding: Encoding::Jpeg,
            duration: MediaDuration::from_secs(1),
            seed: 7,
        };
        let s0 = segment_frames(&o, GradeLevel::NOMINAL, 0, 1);
        assert_eq!(s0.len(), 1);
        assert!(s0[0].key);
    }

    #[test]
    fn segment_bytes_sums_payloads() {
        let o = obj();
        let frames = segment_frames(&o, GradeLevel::NOMINAL, 0, 8);
        assert_eq!(
            segment_bytes(&frames),
            frames.iter().map(|f| f.size as u64).sum::<u64>()
        );
        assert!(segment_bytes(&frames) > 0);
    }
}
