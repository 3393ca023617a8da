//! The Media Stream Quality Converter (paper §4, Fig. 3).
//!
//! The converter sits between a media server's frame source and its
//! transmitter. On instruction from the flow scheduler it regrades the
//! stream — stepping the encoder down the quality ladder under congestion,
//! back up when the network recovers — while respecting the user's
//! presentation floor ("degrading media quality may be done down to several
//! thresholds, taking into account the user's desired levels of presentation
//! quality").

use crate::codec::CodecModel;
use hermes_core::{GradeDecision, GradeLevel, MediaDuration};

/// One stream's grading state inside the converter.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConverter {
    /// The codec being converted.
    pub model: CodecModel,
    /// Current output level.
    pub level: GradeLevel,
    /// The user's floor for this stream: the deepest level allowed before
    /// the stream must stop instead.
    pub floor: GradeLevel,
    /// Whether the stream has been stopped (floor reached and congestion
    /// persisted).
    pub stopped: bool,
    /// Count of degrade steps applied over the stream's life.
    pub degrades: u32,
    /// Count of upgrade steps applied.
    pub upgrades: u32,
}

impl QualityConverter {
    /// New converter at nominal quality.
    pub fn new(model: CodecModel, floor: GradeLevel) -> Self {
        let floor = GradeLevel(floor.0.min(model.max_level().0));
        QualityConverter {
            model,
            level: GradeLevel::NOMINAL,
            floor,
            stopped: false,
            degrades: 0,
            upgrades: 0,
        }
    }

    /// Bandwidth the stream needs at its current level (0 if stopped).
    pub fn current_bandwidth_bps(&self) -> u64 {
        if self.stopped {
            0
        } else {
            self.model.level(self.level).bandwidth_bps()
        }
    }

    /// Bandwidth that one more degrade step would save.
    pub fn next_step_saving(&self) -> u64 {
        if self.stopped {
            return 0;
        }
        if self.level >= self.floor {
            // Next step is stopping the stream entirely.
            return self.current_bandwidth_bps();
        }
        let next = GradeLevel(self.level.0 + 1);
        self.current_bandwidth_bps()
            .saturating_sub(self.model.level(next).bandwidth_bps())
    }

    /// Apply a grading decision; returns the change actually made.
    pub fn apply(&mut self, decision: GradeDecision) -> GradeDecision {
        match decision {
            GradeDecision::Hold => GradeDecision::Hold,
            GradeDecision::Degrade => {
                if self.stopped {
                    GradeDecision::Hold
                } else if self.level >= self.floor {
                    // §4: "when falling to the lower threshold, the service
                    // may choose to stop transmitting the specific stream."
                    self.stopped = true;
                    GradeDecision::Stop
                } else {
                    self.level = GradeLevel(self.level.0 + 1);
                    self.degrades += 1;
                    GradeDecision::Degrade
                }
            }
            GradeDecision::Upgrade => {
                if self.stopped {
                    // Restart at the floor and climb from there.
                    self.stopped = false;
                    self.level = self.floor;
                    self.upgrades += 1;
                    GradeDecision::Upgrade
                } else if self.level > GradeLevel::NOMINAL {
                    self.level = self.level.upgraded();
                    self.upgrades += 1;
                    GradeDecision::Upgrade
                } else {
                    GradeDecision::Hold
                }
            }
            GradeDecision::Stop => {
                self.stopped = true;
                GradeDecision::Stop
            }
        }
    }

    /// The frame period at the current level (used by skew repair).
    pub fn frame_period(&self) -> MediaDuration {
        self.model.level(self.level).frame_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::Encoding;

    fn conv() -> QualityConverter {
        QualityConverter::new(CodecModel::for_encoding(Encoding::Mpeg), GradeLevel(3))
    }

    #[test]
    fn degrade_walks_ladder_then_stops() {
        let mut c = conv();
        assert_eq!(c.level, GradeLevel(0));
        assert_eq!(c.apply(GradeDecision::Degrade), GradeDecision::Degrade);
        assert_eq!(c.apply(GradeDecision::Degrade), GradeDecision::Degrade);
        assert_eq!(c.apply(GradeDecision::Degrade), GradeDecision::Degrade);
        assert_eq!(c.level, GradeLevel(3)); // at the floor
        assert_eq!(c.apply(GradeDecision::Degrade), GradeDecision::Stop);
        assert!(c.stopped);
        assert_eq!(c.current_bandwidth_bps(), 0);
        // Further degrades are no-ops.
        assert_eq!(c.apply(GradeDecision::Degrade), GradeDecision::Hold);
        assert_eq!(c.degrades, 3);
    }

    #[test]
    fn upgrade_restarts_stopped_stream_at_floor() {
        let mut c = conv();
        for _ in 0..4 {
            c.apply(GradeDecision::Degrade);
        }
        assert!(c.stopped);
        assert_eq!(c.apply(GradeDecision::Upgrade), GradeDecision::Upgrade);
        assert!(!c.stopped);
        assert_eq!(c.level, GradeLevel(3));
        // Climb back to nominal.
        for _ in 0..3 {
            assert_eq!(c.apply(GradeDecision::Upgrade), GradeDecision::Upgrade);
        }
        assert_eq!(c.level, GradeLevel::NOMINAL);
        // At nominal, upgrade holds.
        assert_eq!(c.apply(GradeDecision::Upgrade), GradeDecision::Hold);
    }

    #[test]
    fn bandwidth_tracks_level() {
        let mut c = conv();
        let b0 = c.current_bandwidth_bps();
        c.apply(GradeDecision::Degrade);
        let b1 = c.current_bandwidth_bps();
        assert!(b1 < b0);
        assert_eq!(b0 - b1, 500_000);
    }

    #[test]
    fn step_saving_accounts_for_stop() {
        let mut c = conv();
        assert_eq!(c.next_step_saving(), 500_000);
        for _ in 0..3 {
            c.apply(GradeDecision::Degrade);
        }
        // At the floor: the "next step" is a full stop.
        assert_eq!(c.next_step_saving(), c.current_bandwidth_bps());
        c.apply(GradeDecision::Degrade);
        assert_eq!(c.next_step_saving(), 0);
    }

    #[test]
    fn floor_clamped_to_ladder_depth() {
        let c = QualityConverter::new(CodecModel::for_encoding(Encoding::Pcm), GradeLevel(9));
        assert_eq!(c.floor, GradeLevel(2)); // PCM ladder has 3 rungs
    }

    #[test]
    fn explicit_stop() {
        let mut c = conv();
        assert_eq!(c.apply(GradeDecision::Stop), GradeDecision::Stop);
        assert!(c.stopped);
    }
}
