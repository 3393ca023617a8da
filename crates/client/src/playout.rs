//! The playout engine: deadline-driven presentation of buffered streams,
//! with the paper's two buffer-level repairs (frame duplication on
//! underflow, frame dropping on overflow) and intermedia skew enforcement
//! between synchronized streams.
//!
//! Playout follows §3.1's algorithm: each stream `S_i` has a playout process
//! that waits until its relative start time `t_i`, then plays frames at the
//! nominal rate for duration `d_i`. In the simulator the "concurrent playout
//! processes" are per-stream state machines advanced by [`PlayoutEngine::tick`].
//!
//! **Skew terminology.** The paper defines intermedia skew via *arrival*
//! times and repairs it with buffer actions: "the scheduler may drop frames
//! from the stream that leads in time or duplicate frames of the lagging
//! stream". In a deadline-driven player, the stream whose data arrives late
//! accumulates a backlog of stale frames (its *presentation* lags while its
//! *buffer* is data-rich); dropping those stale frames skips its content
//! forward — this is the "drop" repair. The stream whose partner lags can be
//! held back by replaying (duplicating) its head frame — the "duplicate"
//! repair. Both are implemented on [`MediaBuffer`] and applied here.

use crate::buffers::{BufferConfig, BufferState, MediaBuffer, Popped};
use hermes_core::{
    ComponentId, MediaDuration, MediaTime, PlayoutSchedule, Scenario, SkewPolicy, VecMap,
};
use hermes_media::MediaFrame;
use std::collections::BTreeMap;

/// How many frames of `period` a skew repair corrects for `excess`, the
/// skew beyond tolerance: rounded up so the repair covers the excess, and
/// at least one.
pub fn repair_frames(excess: MediaDuration, period: MediaDuration) -> u32 {
    ((excess.as_micros() + period.as_micros() - 1) / period.as_micros()).max(1) as u32
}

/// Lifecycle of one stream's playout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// Start deadline not reached yet.
    Pending,
    /// Playing.
    Active,
    /// All content presented (or stream stopped server-side).
    Finished,
    /// Disabled by the user ("disable the presentation of a particular
    /// media involved in the selected document", §5).
    Disabled,
}

/// A presentation event, recorded for tests, experiments and the headless
/// "browser" renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayoutEventKind {
    /// Stream playout began.
    Started,
    /// A real frame was presented.
    FramePlayed {
        /// The frame's sequence number.
        seq: u64,
    },
    /// The buffer was empty at a deadline and the previous frame was
    /// replayed (underflow duplication — presentation stays smooth).
    DuplicatePlayed,
    /// The buffer was empty at a deadline and nothing could be shown — a
    /// visible glitch (gap in audio, frozen/blank video).
    Glitch,
    /// Frames were dropped to repair occupancy/skew.
    FramesDropped {
        /// How many frames.
        count: u32,
    },
    /// Stream finished.
    Finished,
}

/// A timestamped playout event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayoutEvent {
    /// Wall (simulation) time of the event.
    pub at: MediaTime,
    /// The stream involved.
    pub component: ComponentId,
    /// What happened.
    pub kind: PlayoutEventKind,
}

/// Per-stream playout statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamPlayoutStats {
    /// Real frames presented.
    pub frames_played: u64,
    /// Duplicates presented: skew repair's replays plus underflow
    /// concealment's.
    pub duplicates_played: u64,
    /// The part of `duplicates_played` that concealed an underflow (no
    /// frame at the deadline, so the previous one was replayed), as
    /// opposed to skew repair's queued replays. Each is a stall the viewer
    /// sees.
    pub duplicates_concealed: u64,
    /// Re-delivered frames presented whose content position had already
    /// been played. Unlike `duplicates_played` (deliberate concealment
    /// replays of the *previous* frame), a stale frame means an upstream
    /// layer delivered the same content twice — this must never happen.
    pub stale_frames: u64,
    /// Visible glitches (nothing to present).
    pub glitches: u64,
    /// Frames dropped by occupancy/skew control.
    pub frames_dropped: u64,
}

/// One stream's playout state.
#[derive(Debug)]
pub struct StreamPlayout {
    /// The component being played.
    pub component: ComponentId,
    /// Scenario-relative start time `t_i`.
    pub start: MediaTime,
    /// Playout duration `d_i`.
    pub duration: MediaDuration,
    /// Frame period at nominal rate.
    pub frame_period: MediaDuration,
    /// The staging buffer (None for inline text, which needs none).
    pub buffer: Option<MediaBuffer>,
    /// Sync partners.
    pub sync_partners: Vec<ComponentId>,
    /// Lifecycle status.
    pub status: StreamStatus,
    /// Next wall-clock presentation deadline.
    next_deadline: MediaTime,
    /// Content actually presented (advances only on real frames).
    pub content_pos: MediaDuration,
    /// Statistics.
    pub stats: StreamPlayoutStats,
}

impl StreamPlayout {
    /// Expected content position at wall time `now` if playout were perfect.
    pub fn expected_pos(&self, presentation_start: MediaTime, now: MediaTime) -> MediaDuration {
        let elapsed = now - (presentation_start + (self.start - MediaTime::ZERO));
        elapsed.max(MediaDuration::ZERO).min(self.duration)
    }

    /// The position this stream could itself reach right now: its content,
    /// or the newest data in its buffer, bounded by schedule.
    fn frontier(&self, presentation_start: MediaTime, now: MediaTime) -> MediaDuration {
        let expected = self.expected_pos(presentation_start, now);
        let reachable = match &self.buffer {
            Some(b) => match b.newest_pts() {
                Some(pts) => (pts - MediaTime::ZERO) + self.frame_period,
                None => self.content_pos,
            },
            None => expected,
        };
        self.content_pos.max(reachable).min(expected)
    }

    /// Advance this stream to wall time `now`: apply the occupancy repair,
    /// then present every due frame, reporting each event through `emit` in
    /// the order it happens.
    fn tick(
        &mut self,
        cfg: &PlayoutConfig,
        t0: MediaTime,
        now: MediaTime,
        catch_up_cap: Option<MediaDuration>,
        mut emit: impl FnMut(MediaTime, PlayoutEventKind),
    ) {
        match self.status {
            StreamStatus::Disabled | StreamStatus::Finished => return,
            StreamStatus::Pending => {
                if self.next_deadline <= now {
                    self.status = StreamStatus::Active;
                    emit(self.next_deadline, PlayoutEventKind::Started);
                } else {
                    return;
                }
            }
            StreamStatus::Active => {}
        }
        // Occupancy repair: overflow → drop stale frames down to the
        // nominal window.
        if cfg.recovery {
            let mut expected = self.expected_pos(t0, now);
            if let Some(cap) = catch_up_cap {
                expected = expected.min(cap);
            }
            if let Some(b) = &mut self.buffer {
                if b.state() == BufferState::Overflow {
                    let excess = b.staged_time() - b.config().time_window;
                    let n = (excess.as_micros() / self.frame_period.as_micros()).max(1) as u32;
                    let dropped = b.drop_stale(MediaTime::ZERO + expected, n);
                    if dropped > 0 {
                        self.stats.frames_dropped += dropped as u64;
                        // Content skips forward implicitly: the next
                        // played frame carries a later pts, and playout
                        // sets content_pos from the frame's pts.
                        emit(now, PlayoutEventKind::FramesDropped { count: dropped });
                    }
                }
            }
        }
        // Present every due frame.
        while self.next_deadline <= now && self.status == StreamStatus::Active {
            let deadline = self.next_deadline;
            if self.content_pos >= self.duration {
                self.status = StreamStatus::Finished;
                emit(deadline, PlayoutEventKind::Finished);
                break;
            }
            match &mut self.buffer {
                Some(b) => {
                    // Skip frames whose presentation window is entirely
                    // in the past (they arrived too late to matter) —
                    // except the final frame, which must terminate the
                    // stream.
                    let popped = loop {
                        match b.pop() {
                            Some(Popped::Frame(f))
                                if !f.last
                                    && (f.pts - MediaTime::ZERO) + self.frame_period
                                        <= self.content_pos =>
                            {
                                self.stats.frames_dropped += 1;
                                continue;
                            }
                            other => break other,
                        }
                    };
                    match popped {
                        Some(Popped::Frame(frame)) => {
                            let advances = (frame.pts - MediaTime::ZERO) >= self.content_pos;
                            if advances {
                                self.content_pos =
                                    (frame.pts - MediaTime::ZERO) + self.frame_period;
                                self.stats.frames_played += 1;
                                emit(deadline, PlayoutEventKind::FramePlayed { seq: frame.seq });
                            } else {
                                self.stats.stale_frames += 1;
                                emit(deadline, PlayoutEventKind::DuplicatePlayed);
                            }
                            if frame.last {
                                self.status = StreamStatus::Finished;
                                emit(deadline, PlayoutEventKind::Finished);
                            }
                        }
                        Some(Popped::Duplicate) => {
                            // Skew repair: replay the previous frame,
                            // content stalls.
                            self.stats.duplicates_played += 1;
                            emit(deadline, PlayoutEventKind::DuplicatePlayed);
                        }
                        None => {
                            if cfg.recovery && self.stats.frames_played > 0 {
                                // Replay the previous frame: smooth
                                // presentation, content stalls.
                                self.stats.duplicates_played += 1;
                                self.stats.duplicates_concealed += 1;
                                emit(deadline, PlayoutEventKind::DuplicatePlayed);
                            } else {
                                self.stats.glitches += 1;
                                emit(deadline, PlayoutEventKind::Glitch);
                            }
                        }
                    }
                }
                None => {
                    // Inline media (text): present instantly, whole
                    // duration in one step.
                    self.content_pos = self.duration;
                    self.stats.frames_played += 1;
                    emit(deadline, PlayoutEventKind::FramePlayed { seq: 0 });
                    self.status = StreamStatus::Finished;
                    emit(deadline, PlayoutEventKind::Finished);
                }
            }
            self.next_deadline = deadline + self.frame_period;
        }
    }
}

/// The intermedia skew a sync group may reach before it is repaired:
/// Steinmetz's lip-sync tolerance, audio ↔ video ±80 ms ([STE 90], cited in
/// the paper's related work), applied to every sync pair whatever its kinds.
const LIP_SYNC: MediaDuration = MediaDuration::from_millis(80);

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayoutConfig {
    /// The paper's three recovery mechanisms, on or off together: replay
    /// the last frame when a buffer underruns (short-term duplication)
    /// instead of glitching, drop stale frames when a buffer goes above its
    /// high watermark, and enforce intermedia skew bounds between sync
    /// partners.
    pub recovery: bool,
    /// Which side of a skewed pair to repair.
    pub policy: SkewPolicy,
    /// Append every [`PlayoutEvent`] — one per presented frame per stream
    /// — to [`PlayoutEngine::events`], or keep only the counters. Off by
    /// default: a fleet of clients otherwise holds 32 bytes per frame for
    /// the whole session. `exp_fig2`, the restart test in
    /// `crates/service/tests/end_to_end.rs`, the playout golden test and
    /// `events_recorded_in_order` read the log and switch it on.
    pub record_events: bool,
}

impl Default for PlayoutConfig {
    fn default() -> Self {
        PlayoutConfig {
            recovery: true,
            policy: SkewPolicy::Both,
            record_events: false,
        }
    }
}

impl PlayoutConfig {
    /// A configuration with every recovery mechanism off — the baseline the
    /// EXP-SKEW experiment compares against.
    pub fn no_recovery() -> Self {
        PlayoutConfig {
            recovery: false,
            ..Default::default()
        }
    }
}

/// The presentation engine for one document playout.
#[derive(Debug)]
pub struct PlayoutEngine {
    cfg: PlayoutConfig,
    /// Wall time the presentation started (set by `start`).
    pub presentation_start: Option<MediaTime>,
    streams: VecMap<ComponentId, StreamPlayout>,
    sync_groups: Vec<Vec<ComponentId>>,
    /// Recorded events (if `record_events`).
    pub events: Vec<PlayoutEvent>,
    /// Max absolute intermedia skew ever observed between sync partners.
    pub max_skew_observed: MediaDuration,
    /// Last repair instant per (a, b) pair — corrections are rate-limited to
    /// one per frame period so duplicates don't pile up faster than playout
    /// consumes them.
    repair_cooldown: VecMap<(ComponentId, ComponentId), MediaTime>,
    /// Scratch of the tick in progress: each stream's catch-up cap, in
    /// `streams` order. Kept so a tick allocates nothing.
    caps: Vec<Option<MediaDuration>>,
}

impl PlayoutEngine {
    /// Build an engine from a schedule: one stream per entry, with a buffer
    /// per stored component. `frame_periods` supplies each component's frame
    /// period (from its codec model); components absent from the map are
    /// treated as single-frame discrete media.
    pub fn new(
        scenario: &Scenario,
        schedule: &PlayoutSchedule,
        buffer_cfg: BufferConfig,
        frame_periods: &BTreeMap<ComponentId, MediaDuration>,
        cfg: PlayoutConfig,
    ) -> Self {
        let mut streams = VecMap::with_capacity(schedule.entries.len());
        for e in &schedule.entries {
            let period = frame_periods
                .get(&e.component)
                .copied()
                .unwrap_or(e.duration.max(MediaDuration::from_millis(1)));
            let buffer = e
                .buffer_slot
                .map(|_| MediaBuffer::new(e.component, buffer_cfg, period));
            streams.insert(
                e.component,
                StreamPlayout {
                    component: e.component,
                    start: e.start,
                    duration: e.duration,
                    frame_period: period,
                    buffer,
                    sync_partners: e.sync_partners.clone(),
                    status: StreamStatus::Pending,
                    next_deadline: MediaTime::MAX,
                    content_pos: MediaDuration::ZERO,
                    stats: StreamPlayoutStats::default(),
                },
            );
        }
        let sync_groups = scenario
            .sync_groups
            .iter()
            .map(|g| g.members.clone())
            .collect();
        PlayoutEngine {
            cfg,
            presentation_start: None,
            streams,
            sync_groups,
            events: Vec::new(),
            max_skew_observed: MediaDuration::ZERO,
            repair_cooldown: VecMap::new(),
            caps: Vec::new(),
        }
    }

    /// Mark the presentation as started at wall time `t0` (after the
    /// intentional prefill delay).
    pub fn start(&mut self, t0: MediaTime) {
        self.presentation_start = Some(t0);
        for s in self.streams.values_mut() {
            s.next_deadline = t0 + (s.start - MediaTime::ZERO);
        }
    }

    /// Shift the presentation clock forward by `delta` (pause/resume):
    /// every pending deadline moves later by the same amount; stream
    /// content positions are untouched.
    pub fn shift_clock(&mut self, delta: MediaDuration) {
        if let Some(t0) = self.presentation_start {
            self.presentation_start = Some(t0 + delta);
        }
        for s in self.streams.values_mut() {
            if s.next_deadline != MediaTime::MAX {
                s.next_deadline += delta;
            }
        }
    }

    /// Are all buffers primed (initial media time window filled)?
    /// Streams whose playout starts later than `horizon` after the
    /// presentation start are not required yet.
    pub fn buffers_primed_for_start(&self, horizon: MediaDuration) -> bool {
        self.streams.values().all(|s| {
            if (s.start - MediaTime::ZERO) > horizon {
                return true;
            }
            match &s.buffer {
                Some(b) => b.is_primed(),
                None => true,
            }
        })
    }

    /// Deliver an arriving frame into its stream's buffer.
    pub fn deliver(&mut self, frame: MediaFrame) -> bool {
        match self.streams.get_mut(&frame.component) {
            Some(s) => match &mut s.buffer {
                Some(b) => b.push(frame),
                None => false,
            },
            None => false,
        }
    }

    /// Access a stream's playout state.
    pub fn stream(&self, id: ComponentId) -> Option<&StreamPlayout> {
        self.streams.get(&id)
    }

    /// Iterate all streams.
    pub fn streams(&self) -> impl Iterator<Item = &StreamPlayout> {
        self.streams.values()
    }

    /// Disable a stream (user action); its deadlines stop being serviced.
    pub fn disable(&mut self, id: ComponentId) {
        if let Some(s) = self.streams.get_mut(&id) {
            s.status = StreamStatus::Disabled;
        }
    }

    /// Restart a stream that was stopped server-side (the grading engine
    /// upgraded it back after the network recovered). Playout resumes at
    /// the next frame period; content continues from wherever the server's
    /// frame source left off (arriving frames carry later pts, so content
    /// skips over the stopped gap).
    pub fn restart_stream(&mut self, id: ComponentId, now: MediaTime) {
        if let Some(s) = self.streams.get_mut(&id) {
            if s.status == StreamStatus::Finished && s.content_pos < s.duration {
                s.status = StreamStatus::Active;
                s.next_deadline = now + s.frame_period;
                self.push_event(now, id, PlayoutEventKind::Started);
            }
        }
    }

    /// Mark a stream finished early (server stopped transmitting it).
    pub fn finish_stream(&mut self, id: ComponentId, now: MediaTime) {
        if let Some(s) = self.streams.get_mut(&id) {
            if s.status != StreamStatus::Finished {
                s.status = StreamStatus::Finished;
                self.push_event(now, id, PlayoutEventKind::Finished);
            }
        }
    }

    fn push_event(&mut self, at: MediaTime, component: ComponentId, kind: PlayoutEventKind) {
        if self.cfg.record_events {
            self.events.push(PlayoutEvent {
                at,
                component,
                kind,
            });
        }
    }

    /// Advance playout to wall time `now`, presenting every due frame,
    /// applying occupancy repairs and (optionally) skew enforcement.
    pub fn tick(&mut self, now: MediaTime) {
        let Some(t0) = self.presentation_start else {
            return;
        };
        // A stream in a sync group must never skip ahead of its slowest
        // partner by more than the tolerance. The partner's *frontier* is
        // the position it could itself reach right now — using the frontier
        // rather than raw content lets partners with backlog skip forward
        // together. Every cap is taken before any stream moves.
        let streams = &self.streams;
        self.caps.clear();
        self.caps.extend(streams.values().map(|s| {
            s.sync_partners
                .iter()
                .filter_map(|p| streams.get(p))
                .filter(|ps| matches!(ps.status, StreamStatus::Active | StreamStatus::Pending))
                .map(|ps| ps.frontier(t0, now))
                .min()
                .map(|min_partner| min_partner + LIP_SYNC)
        }));
        let (cfg, events) = (&self.cfg, &mut self.events);
        for (s, &cap) in self.streams.values_mut().zip(&self.caps) {
            let component = s.component;
            s.tick(cfg, t0, now, cap, |at, kind| {
                if cfg.record_events {
                    events.push(PlayoutEvent {
                        at,
                        component,
                        kind,
                    });
                }
            });
        }
        if self.cfg.recovery {
            self.enforce_sync(now);
        }
        self.observe_skew(t0, now);
    }

    /// Enforce skew bounds within each sync group.
    fn enforce_sync(&mut self, now: MediaTime) {
        for g in 0..self.sync_groups.len() {
            let members = self.sync_groups[g].len();
            for i in 0..members {
                for j in (i + 1)..members {
                    let group = &self.sync_groups[g];
                    self.repair_pair(group[i], group[j], now);
                }
            }
        }
    }

    fn repair_pair(&mut self, a: ComponentId, b: ComponentId, now: MediaTime) {
        let (skew, period_lag, active) = {
            let (Some(sa), Some(sb)) = (self.streams.get(&a), self.streams.get(&b)) else {
                return;
            };
            let active = sa.status == StreamStatus::Active && sb.status == StreamStatus::Active;
            let skew = sa.content_pos - sb.content_pos;
            // Frame quantization uses the laggard's period.
            let laggard = if skew.is_negative() { sa } else { sb };
            (skew, laggard.frame_period, active)
        };
        if !active {
            return;
        }
        if skew.abs() <= LIP_SYNC {
            return;
        }
        // Rate-limit corrections to one per frame period so leader-side
        // duplicates never accumulate faster than playout consumes them.
        if let Some(&last) = self.repair_cooldown.get(&(a, b)) {
            if now - last < period_lag {
                return;
            }
        }
        self.repair_cooldown.insert((a, b), now);
        let (laggard_id, leader_id) = if skew.is_negative() { (a, b) } else { (b, a) };
        let frames = repair_frames(skew.abs() - LIP_SYNC, period_lag);
        match self.cfg.policy {
            SkewPolicy::DropLeader | SkewPolicy::Both => {
                // Drop the laggard's stale backlog so its content skips
                // forward (the backlogged buffer is the arrival-leading one —
                // see module docs for the terminology mapping).
                let mut corrected = 0u32;
                let t0 = self.presentation_start.expect("repair before start");
                let leader_content = self
                    .streams
                    .get(&leader_id)
                    .map(|l| l.content_pos)
                    .unwrap_or(MediaDuration::ZERO);
                if let Some(s) = self.streams.get_mut(&laggard_id) {
                    // Catch up to the leader, never past it — skipping to
                    // full schedule would overshoot by the leader's own lag.
                    let target = s.expected_pos(t0, now).min(leader_content);
                    if let Some(buf) = &mut s.buffer {
                        let dropped = buf.drop_stale(MediaTime::ZERO + target, frames);
                        if dropped > 0 {
                            s.stats.frames_dropped += dropped as u64;
                            corrected = dropped;
                        }
                    }
                }
                if corrected > 0 {
                    self.push_event(
                        now,
                        laggard_id,
                        PlayoutEventKind::FramesDropped { count: corrected },
                    );
                }
                // If nothing could be dropped (laggard starving) and policy
                // is Both, hold the leader back by replaying its head frame.
                if corrected == 0 && self.cfg.policy == SkewPolicy::Both {
                    if let Some(s) = self.streams.get_mut(&leader_id) {
                        if let Some(buf) = &mut s.buffer {
                            buf.duplicate_front(frames.min(2));
                        }
                    }
                }
            }
            SkewPolicy::DuplicateLaggard => {
                // Hold the leader back only.
                if let Some(s) = self.streams.get_mut(&leader_id) {
                    if let Some(buf) = &mut s.buffer {
                        buf.duplicate_front(frames.min(2));
                    }
                }
            }
        }
    }

    fn observe_skew(&mut self, _t0: MediaTime, _now: MediaTime) {
        for group in &self.sync_groups {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    if let (Some(sa), Some(sb)) =
                        (self.streams.get(&group[i]), self.streams.get(&group[j]))
                    {
                        if sa.status == StreamStatus::Active && sb.status == StreamStatus::Active {
                            let skew = (sa.content_pos - sb.content_pos).abs();
                            self.max_skew_observed = self.max_skew_observed.max(skew);
                        }
                    }
                }
            }
        }
    }

    /// All streams finished (or disabled)?
    pub fn is_complete(&self) -> bool {
        self.streams
            .values()
            .all(|s| matches!(s.status, StreamStatus::Finished | StreamStatus::Disabled))
    }

    /// The presentation is over: every stream's buffer gives back its
    /// unused storage. Statistics are untouched.
    pub fn release_buffers(&mut self) {
        for b in self.streams.values_mut().filter_map(|s| s.buffer.as_mut()) {
            b.release();
        }
    }

    /// Aggregate stats over all streams.
    pub fn total_stats(&self) -> StreamPlayoutStats {
        let mut t = StreamPlayoutStats::default();
        for s in self.streams.values() {
            t.frames_played += s.stats.frames_played;
            t.duplicates_played += s.stats.duplicates_played;
            t.duplicates_concealed += s.stats.duplicates_concealed;
            t.stale_frames += s.stats.stale_frames;
            t.glitches += s.stats.glitches;
            t.frames_dropped += s.stats.frames_dropped;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::schedule::PlayoutSchedule;
    use hermes_core::{
        ComponentContent, DocumentId, Encoding, GradeLevel, MediaComponent, MediaSource, Scenario,
        ServerId, SyncGroup,
    };

    /// Scenario: audio+video sync pair, both 2 s at t=0 (40 ms period).
    fn av_scenario() -> Scenario {
        let mut s = Scenario::new(DocumentId::new(1), "av");
        let stored = |id: u64, enc: Encoding| MediaComponent {
            id: ComponentId::new(id),
            content: ComponentContent::Stored {
                source: MediaSource::new(ServerId::new(0), format!("m{id}")),
                encoding: enc,
            },
            start: MediaTime::ZERO,
            duration: Some(MediaDuration::from_secs(2)),
            region: None,
            note: None,
        };
        s.components.push(stored(0, Encoding::Pcm));
        s.components.push(stored(1, Encoding::Mpeg));
        s.sync_groups.push(SyncGroup {
            members: vec![ComponentId::new(0), ComponentId::new(1)],
        });
        s
    }

    fn engine(cfg: PlayoutConfig, window_ms: i64) -> PlayoutEngine {
        let scenario = av_scenario();
        let schedule = PlayoutSchedule::from_scenario(&scenario);
        let mut periods = BTreeMap::new();
        periods.insert(ComponentId::new(0), MediaDuration::from_millis(40));
        periods.insert(ComponentId::new(1), MediaDuration::from_millis(40));
        PlayoutEngine::new(
            &scenario,
            &schedule,
            BufferConfig::with_window(MediaDuration::from_millis(window_ms)),
            &periods,
            cfg,
        )
    }

    fn frame(c: u64, seq: u64, pts_ms: i64, last: bool) -> MediaFrame {
        MediaFrame {
            component: ComponentId::new(c),
            seq,
            pts: MediaTime::from_millis(pts_ms),
            size: 1000,
            key: true,
            level: GradeLevel::NOMINAL,
            last,
        }
    }

    /// Feed both streams with paced delivery (one media time window of
    /// lead) and drive playout to completion.
    #[test]
    fn perfect_delivery_no_glitches() {
        let mut e = engine(PlayoutConfig::default(), 200);
        // Prefill exactly the media time window (5 frames at 40 ms).
        for i in 0..5 {
            e.deliver(frame(0, i, i as i64 * 40, false));
            e.deliver(frame(1, i, i as i64 * 40, false));
        }
        assert!(e.buffers_primed_for_start(MediaDuration::from_secs(1)));
        e.start(MediaTime::from_millis(500));
        // Paced: frame i arrives one window ahead of its deadline.
        let mut next = 5u64;
        for t in 0..120 {
            let now = MediaTime::from_millis(500 + t * 20);
            while next < 50 && MediaTime::from_millis(500 + next as i64 * 40 - 200) <= now {
                e.deliver(frame(0, next, next as i64 * 40, next == 49));
                e.deliver(frame(1, next, next as i64 * 40, next == 49));
                next += 1;
            }
            e.tick(now);
        }
        assert!(e.is_complete());
        let t = e.total_stats();
        assert_eq!(t.frames_played, 100);
        assert_eq!(t.glitches, 0);
        assert_eq!(t.duplicates_played, 0);
        assert_eq!(e.max_skew_observed, MediaDuration::ZERO);
    }

    #[test]
    fn starvation_duplicates_when_enabled() {
        let mut e = engine(PlayoutConfig::default(), 80);
        // Only the first 10 frames arrive before playout; the rest arrive
        // very late.
        for i in 0..10 {
            e.deliver(frame(0, i, i as i64 * 40, false));
            e.deliver(frame(1, i, i as i64 * 40, false));
        }
        e.start(MediaTime::ZERO);
        for t in 0..20 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        let a = e.stream(ComponentId::new(0)).unwrap();
        assert!(a.stats.duplicates_played > 0, "{:?}", a.stats);
        assert_eq!(a.stats.glitches, 0);
    }

    /// Underflow concealment and skew repair both replay a frame; only the
    /// replay with no frame to show counts as concealed.
    #[test]
    fn only_underflow_replays_count_as_concealed() {
        let fill = |e: &mut PlayoutEngine| {
            for i in 0..10 {
                e.deliver(frame(0, i, i as i64 * 40, false));
                e.deliver(frame(1, i, i as i64 * 40, false));
            }
            e.start(MediaTime::ZERO);
        };
        // Starved: ten frames, then nothing.
        let mut e = engine(PlayoutConfig::default(), 80);
        fill(&mut e);
        for t in 0..20 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        let t = e.total_stats();
        assert!(t.duplicates_concealed > 0, "{t:?}");
        assert_eq!(t.duplicates_concealed, t.duplicates_played);
        // Fed, with two skew-repair replays queued ahead of the frames.
        let mut e = engine(PlayoutConfig::no_recovery(), 80);
        fill(&mut e);
        let audio = e.streams.get_mut(&ComponentId::new(0));
        let buffer = audio.and_then(|s| s.buffer.as_mut()).unwrap();
        assert_eq!(buffer.duplicate_front(2), 2);
        for t in 0..5 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        let a = e.stream(ComponentId::new(0)).unwrap().stats;
        assert_eq!((a.frames_played, a.duplicates_played), (3, 2));
        assert_eq!(e.total_stats().duplicates_concealed, 0);
    }

    #[test]
    fn starvation_glitches_when_duplication_off() {
        let mut e = engine(PlayoutConfig::no_recovery(), 80);
        for i in 0..10 {
            e.deliver(frame(0, i, i as i64 * 40, false));
            e.deliver(frame(1, i, i as i64 * 40, false));
        }
        e.start(MediaTime::ZERO);
        for t in 0..20 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        let a = e.stream(ComponentId::new(0)).unwrap();
        assert!(a.stats.glitches > 0);
        assert_eq!(a.stats.duplicates_played, 0);
    }

    #[test]
    fn late_stream_creates_skew_and_sync_repairs_it() {
        // Audio arrives one window ahead of deadline; video arrives 400 ms
        // late from frame 5 onwards. Monotone tick loop every 10 ms.
        let run = |enforce: bool| {
            let cfg = PlayoutConfig {
                recovery: enforce,
                ..Default::default()
            };
            let mut e = engine(cfg, 120);
            for i in 0..5 {
                e.deliver(frame(0, i, i as i64 * 40, false));
                e.deliver(frame(1, i, i as i64 * 40, false));
            }
            e.start(MediaTime::ZERO);
            let (mut next_a, mut next_v) = (5u64, 5u64);
            for t in 0..400 {
                let now = MediaTime::from_millis(t * 10);
                while next_a < 50 && MediaTime::from_millis(next_a as i64 * 40 - 120) <= now {
                    e.deliver(frame(0, next_a, next_a as i64 * 40, next_a == 49));
                    next_a += 1;
                }
                while next_v < 50 && MediaTime::from_millis(next_v as i64 * 40 - 120 + 400) <= now {
                    e.deliver(frame(1, next_v, next_v as i64 * 40, next_v == 49));
                    next_v += 1;
                }
                e.tick(now);
            }
            e.max_skew_observed
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "sync enforcement should bound skew: with {with} without {without}"
        );
        assert!(
            without >= MediaDuration::from_millis(250),
            "without {without}"
        );
        assert!(
            with + MediaDuration::from_millis(40) <= without,
            "with {with} not meaningfully better than without {without}"
        );
    }

    #[test]
    fn overflow_dropping_clears_stale_backlog() {
        // A 1 s outage ends with the whole backlog arriving at once: the
        // stale frames (content already behind schedule) are dropped and
        // playout skips forward instead of replaying old content.
        let mut e = engine(PlayoutConfig::default(), 120);
        for i in 0..3 {
            e.deliver(frame(0, i, i as i64 * 40, false));
            e.deliver(frame(1, i, i as i64 * 40, false));
        }
        e.start(MediaTime::ZERO);
        for t in 0..25 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        // Backlog of frames whose pts are all in the past arrives at t=1 s.
        for i in 3..25 {
            e.deliver(frame(0, i, i as i64 * 40, false));
            e.deliver(frame(1, i, i as i64 * 40, false));
        }
        e.tick(MediaTime::from_millis(1_000));
        e.tick(MediaTime::from_millis(1_040));
        let a = e.stream(ComponentId::new(0)).unwrap();
        assert!(a.stats.frames_dropped > 0, "{:?}", a.stats);
        let staged = a.buffer.as_ref().unwrap().staged_time();
        assert!(
            staged <= MediaDuration::from_millis(240),
            "staged {staged} should be near the window"
        );
        // Content skipped forward: the next frames played are fresh.
        assert!(
            a.content_pos >= MediaDuration::from_millis(800),
            "{}",
            a.content_pos
        );
    }

    #[test]
    fn disabled_stream_not_played() {
        let mut e = engine(PlayoutConfig::default(), 80);
        for i in 0..50 {
            e.deliver(frame(0, i, i as i64 * 40, i == 49));
            e.deliver(frame(1, i, i as i64 * 40, i == 49));
        }
        e.disable(ComponentId::new(1));
        e.start(MediaTime::ZERO);
        for t in 0..60 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        assert_eq!(
            e.stream(ComponentId::new(1)).unwrap().stats.frames_played,
            0
        );
        assert!(e.stream(ComponentId::new(0)).unwrap().stats.frames_played > 0);
        assert!(e.is_complete());
    }

    #[test]
    fn inline_text_plays_without_buffer() {
        let mut scenario = av_scenario();
        scenario.components.push(MediaComponent {
            id: ComponentId::new(9),
            content: ComponentContent::Text(vec![]),
            start: MediaTime::ZERO,
            duration: Some(MediaDuration::from_secs(2)),
            region: None,
            note: None,
        });
        let schedule = PlayoutSchedule::from_scenario(&scenario);
        let mut periods = BTreeMap::new();
        periods.insert(ComponentId::new(0), MediaDuration::from_millis(40));
        periods.insert(ComponentId::new(1), MediaDuration::from_millis(40));
        let mut e = PlayoutEngine::new(
            &scenario,
            &schedule,
            BufferConfig::default(),
            &periods,
            PlayoutConfig::default(),
        );
        e.start(MediaTime::ZERO);
        e.tick(MediaTime::from_millis(1));
        let t = e.stream(ComponentId::new(9)).unwrap();
        assert_eq!(t.status, StreamStatus::Finished);
        assert_eq!(t.stats.frames_played, 1);
    }

    #[test]
    fn shift_clock_moves_deadlines_not_content() {
        let mut e = engine(PlayoutConfig::default(), 80);
        for i in 0..50 {
            e.deliver(frame(0, i, i as i64 * 40, i == 49));
            e.deliver(frame(1, i, i as i64 * 40, i == 49));
        }
        e.start(MediaTime::ZERO);
        for t in 0..10 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        let before = e.stream(ComponentId::new(0)).unwrap().content_pos;
        e.shift_clock(MediaDuration::from_secs(1));
        // A tick right after the shift is before every deadline: nothing
        // plays, nothing duplicates.
        let played_before = e.total_stats().frames_played;
        e.tick(MediaTime::from_millis(400));
        assert_eq!(e.total_stats().frames_played, played_before);
        assert_eq!(e.stream(ComponentId::new(0)).unwrap().content_pos, before);
        // Resuming from the shifted clock plays cleanly to the end.
        for t in 0..70 {
            e.tick(MediaTime::from_millis(1_400 + t * 40));
        }
        assert!(e.is_complete());
        assert_eq!(e.total_stats().duplicates_played, 0);
    }

    #[test]
    fn restart_stream_semantics() {
        let mut e = engine(PlayoutConfig::default(), 80);
        for i in 0..25 {
            e.deliver(frame(0, i, i as i64 * 40, false));
            e.deliver(frame(1, i, i as i64 * 40, false));
        }
        e.start(MediaTime::ZERO);
        for t in 0..10 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        // Server stops stream 1 mid-presentation.
        e.finish_stream(ComponentId::new(1), MediaTime::from_millis(400));
        assert_eq!(
            e.stream(ComponentId::new(1)).unwrap().status,
            StreamStatus::Finished
        );
        // Restart resumes it; deadlines continue from the restart instant.
        e.restart_stream(ComponentId::new(1), MediaTime::from_millis(800));
        assert_eq!(
            e.stream(ComponentId::new(1)).unwrap().status,
            StreamStatus::Active
        );
        let played_before = e.stream(ComponentId::new(1)).unwrap().stats.frames_played;
        for t in 0..30 {
            e.tick(MediaTime::from_millis(840 + t * 40));
        }
        assert!(
            e.stream(ComponentId::new(1)).unwrap().stats.frames_played > played_before,
            "restarted stream plays again"
        );
        // Restarting a Pending stream is a no-op.
        let mut e2 = engine(PlayoutConfig::default(), 80);
        e2.start(MediaTime::ZERO);
        e2.restart_stream(ComponentId::new(0), MediaTime::from_millis(100));
        assert_eq!(
            e2.stream(ComponentId::new(0)).unwrap().status,
            StreamStatus::Pending
        );
        // Restarting a naturally-completed stream is a no-op (content done).
        let mut e3 = engine(PlayoutConfig::default(), 80);
        for i in 0..50 {
            e3.deliver(frame(0, i, i as i64 * 40, i == 49));
            e3.deliver(frame(1, i, i as i64 * 40, i == 49));
        }
        e3.start(MediaTime::ZERO);
        for t in 0..60 {
            e3.tick(MediaTime::from_millis(t * 40));
        }
        assert!(e3.is_complete());
        e3.restart_stream(ComponentId::new(0), MediaTime::from_secs(3));
        assert_eq!(
            e3.stream(ComponentId::new(0)).unwrap().status,
            StreamStatus::Finished
        );
    }

    #[test]
    fn events_recorded_in_order() {
        let cfg = PlayoutConfig {
            record_events: true,
            ..PlayoutConfig::default()
        };
        let mut e = engine(cfg, 80);
        for i in 0..50 {
            e.deliver(frame(0, i, i as i64 * 40, i == 49));
            e.deliver(frame(1, i, i as i64 * 40, i == 49));
        }
        e.start(MediaTime::ZERO);
        for t in 0..60 {
            e.tick(MediaTime::from_millis(t * 40));
        }
        assert!(!e.events.is_empty());
        for w in e.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // First event is a stream start.
        assert_eq!(e.events[0].kind, PlayoutEventKind::Started);
    }

    #[test]
    fn pending_before_start_time() {
        let mut scenario = av_scenario();
        // Shift video to start at 1 s.
        scenario.components[1].start = MediaTime::from_secs(1);
        scenario.sync_groups.clear(); // timings now differ
        let schedule = PlayoutSchedule::from_scenario(&scenario);
        let mut periods = BTreeMap::new();
        periods.insert(ComponentId::new(0), MediaDuration::from_millis(40));
        periods.insert(ComponentId::new(1), MediaDuration::from_millis(40));
        let mut e = PlayoutEngine::new(
            &scenario,
            &schedule,
            BufferConfig::with_window(MediaDuration::from_millis(80)),
            &periods,
            PlayoutConfig::default(),
        );
        for i in 0..50 {
            e.deliver(frame(1, i, i as i64 * 40, i == 49));
        }
        e.start(MediaTime::ZERO);
        e.tick(MediaTime::from_millis(500));
        assert_eq!(
            e.stream(ComponentId::new(1)).unwrap().status,
            StreamStatus::Pending
        );
        e.tick(MediaTime::from_millis(1_000));
        assert_eq!(
            e.stream(ComponentId::new(1)).unwrap().status,
            StreamStatus::Active
        );
    }
}
