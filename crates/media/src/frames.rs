//! Media frames and frame sources.
//!
//! A [`MediaFrame`] is the unit everything downstream operates on: the media
//! servers emit frames according to the flow scenario, RTP packetizes them,
//! the client buffers stage them and the playout engine presents them before
//! their deadline.

use crate::codec::CodecModel;
use hermes_core::{ComponentId, Encoding, GradeLevel, MediaDuration, MediaTime};

/// One frame / audio block / image slice of a media stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaFrame {
    /// The component this frame belongs to (demultiplexing key).
    pub component: ComponentId,
    /// Frame sequence number within the stream, from 0.
    pub seq: u64,
    /// Presentation timestamp relative to the *stream's own start* (the
    /// client adds the component's `t_i` to get the absolute deadline).
    pub pts: MediaTime,
    /// Payload size in bytes (headers not included).
    pub size: u32,
    /// Key frame (independently decodable)?
    pub key: bool,
    /// The quality level this frame was encoded at.
    pub level: GradeLevel,
    /// True for the final frame of the stream.
    pub last: bool,
}

/// A deterministic generator of the frame sequence for one stored media
/// object at one quality level. Seeking and level switches are supported
/// mid-stream (the quality converter re-targets the generator).
#[derive(Debug, Clone)]
pub struct FrameSource {
    component: ComponentId,
    model: CodecModel,
    seed: u64,
    duration: MediaDuration,
    level: GradeLevel,
    next_seq: u64,
    /// Presentation time of the next frame. Tracked incrementally so that a
    /// mid-stream level switch (which may change the frame period) keeps the
    /// timeline continuous instead of rescaling history.
    next_pts: MediaTime,
}

impl FrameSource {
    /// Create a source for `component`, encoding `encoding`, with content
    /// seed `seed`, producing `duration` worth of frames.
    pub fn new(
        component: ComponentId,
        encoding: Encoding,
        seed: u64,
        duration: MediaDuration,
    ) -> Self {
        FrameSource {
            component,
            model: CodecModel::for_encoding(encoding),
            seed,
            duration,
            level: GradeLevel::NOMINAL,
            next_seq: 0,
            next_pts: MediaTime::ZERO,
        }
    }

    /// The codec model in use.
    pub fn model(&self) -> &CodecModel {
        &self.model
    }
    /// Current quality level.
    pub fn level(&self) -> GradeLevel {
        self.level
    }
    /// Switch quality level; takes effect from the next frame ("the Media
    /// Stream Quality Converter gracefully degrades (upgrades) the stream").
    pub fn set_level(&mut self, level: GradeLevel) {
        self.level = GradeLevel(level.0.min(self.model.max_level().0));
    }

    /// Remaining frames at the *current* level's rate (level switches change
    /// the rate, so this is an estimate until the stream ends).
    pub fn frames_remaining(&self) -> u64 {
        let period = self.model.level(self.level).frame_period();
        let left = self.duration - (self.next_pts - MediaTime::ZERO);
        (left.as_micros().max(0) / period.as_micros()) as u64
    }

    /// Frames still to come whose pts lies before `end`, at the current
    /// level's rate: every frame [`next_frame`](Self::next_frame) will
    /// still produce when `end` is at or past the stream's end.
    pub fn frames_before(&self, end: MediaTime) -> u64 {
        let period = self.model.level(self.level).frame_period().as_micros();
        let stop = end.min(MediaTime::ZERO + self.duration);
        let left = (stop - self.next_pts).as_micros().max(0);
        (left as u64).div_ceil(period as u64)
    }

    /// Presentation timestamp of the next frame.
    pub fn next_pts(&self) -> MediaTime {
        self.next_pts
    }

    /// Global sequence number of the next frame (segment addressing: the
    /// media tier fetches the segment holding this index).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Produce the next frame, or `None` when the stream is exhausted.
    pub fn next_frame(&mut self) -> Option<MediaFrame> {
        let pts = self.next_pts;
        if (pts - MediaTime::ZERO) >= self.duration {
            return None;
        }
        let period = self.model.level(self.level).frame_period();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.next_pts = pts + period;
        let size = self.model.frame_size(self.seed, seq, self.level);
        let last = ((pts + period) - MediaTime::ZERO) >= self.duration;
        Some(MediaFrame {
            component: self.component,
            seq,
            pts,
            size,
            key: self.model.is_key_frame(seq),
            level: self.level,
            last,
        })
    }

    /// Collect the entire remaining stream (tests/workloads).
    pub fn collect_all(mut self) -> Vec<MediaFrame> {
        let mut v = Vec::new();
        while let Some(f) = self.next_frame() {
            v.push(f);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(enc: Encoding, secs: i64) -> FrameSource {
        FrameSource::new(ComponentId::new(1), enc, 42, MediaDuration::from_secs(secs))
    }

    #[test]
    fn frame_count_matches_rate_and_duration() {
        let frames = src(Encoding::Mpeg, 8).collect_all();
        assert_eq!(frames.len(), 200); // 25 fps × 8 s
        assert!(frames.last().unwrap().last);
        assert!(!frames[0].last);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[199].seq, 199);
    }

    #[test]
    fn pts_monotone_and_periodic() {
        let frames = src(Encoding::Pcm, 2).collect_all();
        assert_eq!(frames.len(), 100); // 50 blocks/s × 2 s
        for w in frames.windows(2) {
            assert_eq!(w[1].pts - w[0].pts, MediaDuration::from_millis(20));
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = src(Encoding::Mpeg, 4).collect_all();
        let b = src(Encoding::Mpeg, 4).collect_all();
        assert_eq!(a, b);
    }

    #[test]
    fn level_switch_mid_stream() {
        let mut s = src(Encoding::Mpeg, 8);
        let mut sizes_hi = Vec::new();
        for _ in 0..50 {
            sizes_hi.push(s.next_frame().unwrap().size);
        }
        s.set_level(GradeLevel(2));
        let mut sizes_lo = Vec::new();
        for _ in 0..50 {
            let f = s.next_frame().unwrap();
            assert_eq!(f.level, GradeLevel(2));
            sizes_lo.push(f.size);
        }
        let hi: u64 = sizes_hi.iter().map(|&x| x as u64).sum();
        let lo: u64 = sizes_lo.iter().map(|&x| x as u64).sum();
        assert!(hi > lo * 2, "hi {hi} lo {lo}");
    }

    #[test]
    fn level_switch_keeps_pts_continuous() {
        let mut s = src(Encoding::Mpeg, 8);
        for _ in 0..100 {
            s.next_frame().unwrap(); // 4 s at 25 fps
        }
        assert_eq!(s.next_pts(), MediaTime::from_secs(4));
        s.set_level(GradeLevel(4)); // 10 fps
        let f = s.next_frame().unwrap();
        assert_eq!(f.pts, MediaTime::from_secs(4)); // no jump
        let g = s.next_frame().unwrap();
        assert_eq!(g.pts - f.pts, MediaDuration::from_millis(100)); // new period
    }

    #[test]
    fn frames_before_counts_what_next_frame_will_produce() {
        let mut s = src(Encoding::Mpeg, 8);
        assert_eq!(s.frames_before(MediaTime::MAX), 200);
        assert_eq!(s.frames_before(MediaTime::from_millis(1_000)), 25);
        assert_eq!(s.frames_before(MediaTime::from_millis(1_001)), 26);
        assert_eq!(s.frames_before(MediaTime::ZERO), 0);
        for _ in 0..190 {
            s.next_frame().unwrap();
        }
        s.set_level(GradeLevel(4)); // 10 fps for the last 0.4 s
        assert_eq!(s.frames_before(MediaTime::MAX), 4);
        assert_eq!(s.frames_before(MediaTime::from_secs(1)), 0, "already past");
        assert_eq!(std::iter::from_fn(|| s.next_frame()).count(), 4);
        assert_eq!(s.frames_before(MediaTime::MAX), 0);
    }

    #[test]
    fn set_level_clamps_to_ladder() {
        let mut s = src(Encoding::Gif, 1);
        s.set_level(GradeLevel(9));
        assert_eq!(s.level(), GradeLevel(1));
    }

    #[test]
    fn image_stream_is_single_frame() {
        let frames = src(Encoding::Jpeg, 1).collect_all();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].last && frames[0].key);
    }

    #[test]
    fn key_frame_cadence_in_output() {
        let frames = src(Encoding::Mpeg, 2).collect_all();
        let keys: Vec<u64> = frames.iter().filter(|f| f.key).map(|f| f.seq).collect();
        assert_eq!(keys, vec![0, 12, 24, 36, 48]);
    }
}
