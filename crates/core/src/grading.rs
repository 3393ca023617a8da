//! Media-quality grading — the long-term synchronization recovery mechanism.
//!
//! §4: the flow scheduler "in cooperation with the corresponding Media Stream
//! Quality Converter gracefully degrades (upgrades) the stream's quality,
//! e.g. by increasing (decreasing) video compression factor or decreasing
//! (increasing) audio sampling frequency. ... the service first applies the
//! grading technique to the video stream, since audio or voice is considered
//! to be more important to users."
//!
//! This module defines the *policy* types (levels, ordering, hysteresis);
//! the codec-specific ladders live in `hermes-media` (`CodecModel::level`),
//! and the control loop that applies them lives in `hermes-server`.

use crate::media_kind::MediaKind;

/// A quality level on a grading ladder. Level 0 is nominal (best); higher
/// levels are progressively degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GradeLevel(pub u8);

impl GradeLevel {
    /// Nominal (authored) quality.
    pub const NOMINAL: GradeLevel = GradeLevel(0);

    /// One step worse, saturating at `max`.
    pub fn degraded(self, max: GradeLevel) -> GradeLevel {
        if self >= max {
            max
        } else {
            GradeLevel(self.0 + 1)
        }
    }
    /// One step better, saturating at nominal.
    pub fn upgraded(self) -> GradeLevel {
        GradeLevel(self.0.saturating_sub(1))
    }
}

/// Which kind of stream the grading engine degrades first — the paper's rule
/// is video-first ("users can tolerate lower video quality rather than 'not
/// hear well'"); the EXP-ABLATE experiment flips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradingOrder {
    /// Degrade video streams before audio streams (paper's rule).
    #[default]
    VideoFirst,
    /// Degrade audio streams before video streams (ablation).
    AudioFirst,
    /// Degrade whichever stream yields the largest bandwidth saving.
    LargestSaving,
}

impl GradingOrder {
    /// Rank a media kind for degradation: lower rank degrades first.
    pub fn degrade_rank(self, kind: MediaKind) -> u8 {
        match self {
            GradingOrder::VideoFirst => match kind {
                MediaKind::Video => 0,
                MediaKind::Audio => 1,
                _ => 2,
            },
            GradingOrder::AudioFirst => match kind {
                MediaKind::Audio => 0,
                MediaKind::Video => 1,
                _ => 2,
            },
            // Rank is resolved by the caller using step savings; kinds tie.
            GradingOrder::LargestSaving => 0,
        }
    }
}

/// Hysteresis configuration for the grading control loop: degrade promptly,
/// upgrade cautiously ("gracefully upgrade the media quality when the
/// network's condition permits it").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradingHysteresis {
    /// Congestion score above which a degradation step is taken.
    pub degrade_above: f64,
    /// Congestion score below which an upgrade step may be taken.
    pub upgrade_below: f64,
    /// Consecutive healthy reports required before upgrading.
    pub upgrade_patience: u32,
}

impl Default for GradingHysteresis {
    fn default() -> Self {
        GradingHysteresis {
            degrade_above: 1.0,
            upgrade_below: 0.5,
            upgrade_patience: 3,
        }
    }
}

impl GradingHysteresis {
    /// Validate the dead-band: upgrade threshold must sit below degrade
    /// threshold or the loop oscillates.
    pub fn is_valid(&self) -> bool {
        self.upgrade_below < self.degrade_above && self.upgrade_patience >= 1
    }
}

/// The decision the grading engine reaches for one stream on one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradeDecision {
    /// Leave the stream at its current level.
    Hold,
    /// Move one rung down (degrade).
    Degrade,
    /// Move one rung up (upgrade).
    Upgrade,
    /// The stream is already at the user's floor and the network is still
    /// congested: stop transmitting it (§4: "when falling to the lower
    /// threshold, the service may choose to stop transmitting").
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_stepping_saturates() {
        let max = GradeLevel(3);
        let mut l = GradeLevel::NOMINAL;
        for _ in 0..10 {
            l = l.degraded(max);
        }
        assert_eq!(l, GradeLevel(3));
        for _ in 0..10 {
            l = l.upgraded();
        }
        assert_eq!(l, GradeLevel::NOMINAL);
    }

    #[test]
    fn video_first_ordering() {
        let o = GradingOrder::VideoFirst;
        assert!(o.degrade_rank(MediaKind::Video) < o.degrade_rank(MediaKind::Audio));
        let o = GradingOrder::AudioFirst;
        assert!(o.degrade_rank(MediaKind::Audio) < o.degrade_rank(MediaKind::Video));
    }

    #[test]
    fn hysteresis_validity() {
        assert!(GradingHysteresis::default().is_valid());
        let bad = GradingHysteresis {
            degrade_above: 0.5,
            upgrade_below: 0.9,
            upgrade_patience: 1,
        };
        assert!(!bad.is_valid());
    }
}
