//! Client-side media buffers — "a multiple thread queue; each thread is
//! initialized after the establishment of its corresponding media
//! connection" (§4).
//!
//! Each buffer stages one stream's frames ahead of playout. Its length
//! corresponds to a playback time, the **media time window**: "this initial
//! delay is inserted on purpose in order to feed each involved media buffer
//! with a quantity of data ... The media time window is primarily used to
//! smooth delays inserted by the network, the operating system, the
//! transmission/receiving mechanisms."
//!
//! The buffer exposes the occupancy signals the short-term synchronization
//! mechanism monitors: watermark state (underflow / normal / overflow) and
//! the staged playback time.

use hermes_core::{ComponentId, MediaDuration, MediaTime};
use hermes_media::MediaFrame;
use std::collections::VecDeque;

/// What [`MediaBuffer::pop`] hands to playout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Popped {
    /// A real staged frame.
    Frame(MediaFrame),
    /// A pending duplicate: replay the previously presented frame
    /// (inserted by the skew repair to hold a leading stream back).
    Duplicate,
}

/// Watermark classification of a buffer's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferState {
    /// Below the low watermark — playout is at risk (underflow).
    Underflow,
    /// Between the watermarks — healthy.
    Normal,
    /// Above the high watermark — data is piling up (overflow).
    Overflow,
}

/// Occupancy, as a fraction of the time window, below which a buffer is in
/// underflow.
const LOW_WATERMARK: f64 = 0.25;
/// Occupancy above which a buffer is in overflow (above 1: the buffer may
/// hold more than the nominal window before overflowing).
const HIGH_WATERMARK: f64 = 1.75;

/// Hard capacity of a buffer in frames, queued duplicates included
/// (drop-newest beyond this).
pub const CAPACITY_FRAMES: usize = 4_096;

/// Configuration of one media buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferConfig {
    /// Target media time window (prefill depth before playout may start).
    pub time_window: MediaDuration,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig::with_window(MediaDuration::from_millis(1_000))
    }
}

impl BufferConfig {
    /// A config with the given window.
    pub fn with_window(time_window: MediaDuration) -> Self {
        BufferConfig { time_window }
    }
}

/// Counters for one buffer's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Frames accepted.
    pub frames_in: u64,
    /// Frames handed to playout.
    pub frames_out: u64,
    /// Frames dropped by overflow control (the skew/occupancy mechanism).
    pub frames_dropped: u64,
    /// Frames synthesized by duplication (underflow/skew repair).
    pub frames_duplicated: u64,
    /// Frames rejected because the hard capacity was hit.
    pub frames_rejected: u64,
    /// Frames rejected because they arrived after playout already presented
    /// a later pts (stale on arrival — presenting them would run the
    /// timeline backwards).
    pub frames_late: u64,
    /// Transitions into the underflow state.
    pub underflow_events: u64,
    /// Transitions into the overflow state.
    pub overflow_events: u64,
}

/// One stream's staging buffer. Frames are kept in presentation (pts)
/// order regardless of arrival order — network jitter reorders datagrams,
/// and playout must consume the stream in timeline order.
#[derive(Debug, Clone)]
pub struct MediaBuffer {
    /// The component this buffer serves.
    pub component: ComponentId,
    cfg: BufferConfig,
    queue: VecDeque<MediaFrame>,
    /// Duplicates queued ahead of the real frames (skew repair).
    pending_dups: u32,
    /// Nominal frame period of the stream (for occupancy-time conversion
    /// and duplication).
    frame_period: MediaDuration,
    /// Whether the initial prefill has completed (playout may start).
    primed: bool,
    /// The stream's final frame has been staged — nothing more is coming,
    /// so prefill is as complete as it can get.
    complete: bool,
    /// The pts of the last real frame handed to playout. Arrivals earlier
    /// than this are late: the timeline has already moved past them.
    last_popped_pts: Option<MediaTime>,
    /// Last watermark state (for edge-triggered event counting).
    last_state: BufferState,
    /// Counters.
    pub stats: BufferStats,
}

impl MediaBuffer {
    /// Create a buffer for a stream with the given frame period.
    pub fn new(component: ComponentId, cfg: BufferConfig, frame_period: MediaDuration) -> Self {
        assert!(
            frame_period.as_micros() > 0,
            "frame period must be positive"
        );
        MediaBuffer {
            component,
            cfg,
            queue: VecDeque::new(),
            pending_dups: 0,
            frame_period,
            primed: false,
            complete: false,
            last_popped_pts: None,
            last_state: BufferState::Underflow,
            stats: BufferStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BufferConfig {
        &self.cfg
    }

    /// Frames currently staged (pending duplicates included).
    pub fn len(&self) -> usize {
        self.queue.len() + self.pending_dups as usize
    }
    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.pending_dups == 0
    }

    /// Staged playback time: staged units × frame period.
    pub fn staged_time(&self) -> MediaDuration {
        self.frame_period * self.len() as i64
    }

    /// Occupancy as a fraction of the nominal time window.
    pub fn occupancy(&self) -> f64 {
        self.staged_time().as_micros() as f64 / self.cfg.time_window.as_micros().max(1) as f64
    }

    /// Current watermark state.
    pub fn state(&self) -> BufferState {
        let occ = self.occupancy();
        if occ < LOW_WATERMARK {
            BufferState::Underflow
        } else if occ > HIGH_WATERMARK {
            BufferState::Overflow
        } else {
            BufferState::Normal
        }
    }

    /// Has the initial media-time-window prefill completed? A stream whose
    /// final frame is staged is primed regardless of depth — no more data
    /// is coming (a single still image can never fill a 2 s window).
    pub fn is_primed(&self) -> bool {
        self.primed || self.complete
    }

    /// Accept an arriving frame, inserting it in pts order (jitter reorders
    /// arrivals). Returns false if the frame was rejected (hard capacity).
    pub fn push(&mut self, frame: MediaFrame) -> bool {
        if self.len() >= CAPACITY_FRAMES {
            self.stats.frames_rejected += 1;
            return false;
        }
        if frame.last {
            self.complete = true;
        }
        // A frame whose pts playout has already passed can never be
        // presented in order; staging it would hand playout a timeline
        // running backwards. Drop it (the `last` latch above still fires so
        // a late final frame cannot wedge prefill).
        if let Some(lp) = self.last_popped_pts {
            if frame.pts < lp {
                self.stats.frames_late += 1;
                return false;
            }
        }
        // Insert position: scan from the back (arrivals are mostly in
        // order, so this is O(1) amortized).
        let mut idx = self.queue.len();
        while idx > 0 && self.queue[idx - 1].pts > frame.pts {
            idx -= 1;
        }
        self.queue.insert(idx, frame);
        self.stats.frames_in += 1;
        if !self.primed && self.staged_time() >= self.cfg.time_window {
            self.primed = true;
        }
        self.note_state();
        true
    }

    /// Pop the next playout unit: pending duplicates first, then the
    /// earliest staged frame.
    pub fn pop(&mut self) -> Option<Popped> {
        if self.pending_dups > 0 {
            self.pending_dups -= 1;
            self.note_state();
            return Some(Popped::Duplicate);
        }
        let f = self.queue.pop_front();
        if let Some(frame) = &f {
            self.stats.frames_out += 1;
            self.last_popped_pts = Some(frame.pts);
            self.note_state();
        }
        f.map(Popped::Frame)
    }

    /// Give back the queue's unused storage (its stream has finished, so
    /// the queue is normally empty). Staged frames, if any, are kept.
    pub fn release(&mut self) {
        self.queue.shrink_to_fit();
    }

    /// Peek at the next frame without removing it.
    pub fn peek(&self) -> Option<&MediaFrame> {
        self.queue.front()
    }

    /// The pts of the newest staged frame, if any.
    pub fn newest_pts(&self) -> Option<MediaTime> {
        self.queue.back().map(|f| f.pts)
    }

    /// Drop up to `max_n` staged units from the front whose content is
    /// *stale* — entirely before `before_pts` on the stream's own timeline.
    /// Pending duplicates (always stale by construction) go first. Used by
    /// the overflow and skew repairs: stale frames can never be presented
    /// usefully, while fresh frames above the watermark are left alone.
    /// Never drops the final frame marker. Returns the number dropped.
    pub fn drop_stale(&mut self, before_pts: MediaTime, max_n: u32) -> u32 {
        let mut dropped = 0;
        while dropped < max_n && self.pending_dups > 0 {
            self.pending_dups -= 1;
            dropped += 1;
        }
        while dropped < max_n && self.queue.len() > 1 {
            match self.queue.front() {
                Some(f) if f.pts + self.frame_period <= before_pts && !f.last => {
                    self.queue.pop_front();
                    dropped += 1;
                }
                _ => break,
            }
        }
        self.stats.frames_dropped += dropped as u64;
        self.note_state();
        dropped
    }

    /// Queue `n` duplicates ahead of the staged frames (the skew repair on
    /// a leading stream: replay the last presented data to pause the
    /// stream's media position while its partner catches up). Returns how
    /// many duplicates were queued.
    pub fn duplicate_front(&mut self, n: u32) -> u32 {
        if self.queue.is_empty() && self.pending_dups == 0 {
            return 0; // nothing has been or will be presented to replay
        }
        let room = CAPACITY_FRAMES.saturating_sub(self.len());
        let inserted = (n as usize).min(room) as u32;
        self.pending_dups += inserted;
        self.stats.frames_duplicated += inserted as u64;
        self.note_state();
        inserted
    }

    fn note_state(&mut self) {
        let s = self.state();
        if s != self.last_state {
            match s {
                BufferState::Underflow => self.stats.underflow_events += 1,
                BufferState::Overflow => self.stats.overflow_events += 1,
                BufferState::Normal => {}
            }
            self.last_state = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::GradeLevel;

    fn frame(seq: u64, pts_ms: i64) -> MediaFrame {
        MediaFrame {
            component: ComponentId::new(1),
            seq,
            pts: MediaTime::from_millis(pts_ms),
            size: 1000,
            key: true,
            level: GradeLevel::NOMINAL,
            last: false,
        }
    }

    fn buf(window_ms: i64) -> MediaBuffer {
        MediaBuffer::new(
            ComponentId::new(1),
            BufferConfig::with_window(MediaDuration::from_millis(window_ms)),
            MediaDuration::from_millis(40), // 25 fps
        )
    }

    #[test]
    fn priming_requires_full_window() {
        let mut b = buf(200); // 200 ms window = 5 frames at 40 ms
        for i in 0..4 {
            b.push(frame(i, i as i64 * 40));
            assert!(!b.is_primed(), "primed too early at {i}");
        }
        b.push(frame(4, 160));
        assert!(b.is_primed());
        // Priming is latched: draining doesn't un-prime.
        while b.pop().is_some() {}
        assert!(b.is_primed());
    }

    #[test]
    fn final_frame_primes_shallow_streams() {
        // A single still image can never fill the window; staging its final
        // frame completes the prefill.
        let mut b = buf(2_000);
        let mut f = frame(0, 0);
        f.last = true;
        b.push(f);
        assert!(b.is_primed());
    }

    #[test]
    fn out_of_order_arrivals_sorted_by_pts() {
        let mut b = buf(400);
        b.push(frame(0, 0));
        b.push(frame(2, 80));
        b.push(frame(1, 40)); // late arrival
        let order: Vec<u64> = std::iter::from_fn(|| match b.pop() {
            Some(Popped::Frame(f)) => Some(f.seq),
            _ => None,
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn occupancy_and_states() {
        let mut b = buf(400); // 10 frames nominal
        assert_eq!(b.state(), BufferState::Underflow);
        for i in 0..5 {
            b.push(frame(i, i as i64 * 40));
        }
        assert!((b.occupancy() - 0.5).abs() < 1e-9);
        assert_eq!(b.state(), BufferState::Normal);
        for i in 5..20 {
            b.push(frame(i, i as i64 * 40));
        }
        assert_eq!(b.state(), BufferState::Overflow);
        assert_eq!(b.stats.overflow_events, 1);
    }

    #[test]
    fn underflow_event_counted_on_reentry() {
        let mut b = buf(200);
        for i in 0..5 {
            b.push(frame(i, i as i64 * 40));
        }
        assert_eq!(b.stats.underflow_events, 0); // started in underflow, no transition yet
        for _ in 0..5 {
            b.pop();
        }
        assert_eq!(b.state(), BufferState::Underflow);
        assert_eq!(b.stats.underflow_events, 1);
    }

    #[test]
    fn drop_stale_consumes_dups_first() {
        let mut b = buf(200);
        b.push(frame(0, 0));
        b.push(frame(1, 40));
        b.duplicate_front(2);
        let dropped = b.drop_stale(MediaTime::from_millis(40), 10);
        // 2 dups + frame 0 (pts 0 + 40 <= 40); frame 1 is fresh & last-one-kept.
        assert_eq!(dropped, 3);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn duplicate_front_queues_replays() {
        let mut b = buf(200);
        b.push(frame(7, 280));
        let inserted = b.duplicate_front(3);
        assert_eq!(inserted, 3);
        assert_eq!(b.len(), 4);
        // Duplicates come out first, then the real frame.
        for _ in 0..3 {
            assert_eq!(b.pop(), Some(Popped::Duplicate));
        }
        match b.pop() {
            Some(Popped::Frame(f)) => assert_eq!(f.seq, 7),
            other => panic!("{other:?}"),
        }
        assert_eq!(b.stats.frames_duplicated, 3);
    }

    #[test]
    fn late_arrivals_dropped_after_later_pop() {
        // Regression: a frame whose pts precedes an already-presented frame
        // must not be staged — playout would otherwise run backwards.
        let mut b = buf(200);
        b.push(frame(1, 1_093));
        assert!(
            matches!(b.pop(), Some(Popped::Frame(f)) if f.pts == MediaTime::from_millis(1_093))
        );
        assert!(!b.push(frame(2, 0)), "late frame must be refused");
        assert_eq!(b.stats.frames_late, 1);
        assert_eq!(b.pop(), None);
        // Equal pts is not late (a simulcast duplicate of the current frame).
        assert!(b.push(frame(3, 1_093)));
    }

    #[test]
    fn late_final_frame_still_completes_stream() {
        let mut b = buf(2_000);
        b.push(frame(0, 400));
        b.pop();
        let mut f = frame(1, 0);
        f.last = true;
        assert!(!b.push(f), "late frame dropped");
        assert!(b.is_primed(), "final-frame latch must survive the drop");
    }

    #[test]
    fn duplicate_on_empty_is_noop() {
        let mut b = buf(200);
        assert_eq!(b.duplicate_front(5), 0);
    }

    #[test]
    fn capacity_rejects() {
        let mut b = buf(100);
        let n = CAPACITY_FRAMES as u64;
        for i in 0..n {
            assert!(b.push(frame(i, i as i64 * 40)));
        }
        assert!(!b.push(frame(n, n as i64 * 40)));
        assert_eq!(b.stats.frames_rejected, 1);
        assert_eq!(b.len(), CAPACITY_FRAMES);
    }

    #[test]
    fn staged_time_scales_with_period() {
        let mut b = MediaBuffer::new(
            ComponentId::new(2),
            BufferConfig::with_window(MediaDuration::from_millis(100)),
            MediaDuration::from_millis(20),
        );
        for i in 0..5 {
            b.push(frame(i, i as i64 * 20));
        }
        assert_eq!(b.staged_time(), MediaDuration::from_millis(100));
        assert!(b.is_primed());
    }
}
