//! Intermedia-skew algebra and repair planning.
//!
//! §4: "*Intermedia skew* refers to the difference of the arrival times among
//! media objects that should be synchronized." The short-term recovery
//! mechanism measures skew between synchronized streams and repairs it by
//! dropping frames from the stream that leads, or duplicating frames of the
//! stream that lags (after Little & Kao [LIT 92]).

use crate::time::MediaDuration;
use serde::{Deserialize, Serialize};

/// A signed skew between two streams: positive means the *subject* stream is
/// ahead of (leads) the reference stream in presented media time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Skew(pub MediaDuration);

impl Skew {
    /// Zero skew — perfect synchronization.
    pub const ZERO: Skew = Skew(MediaDuration::ZERO);

    /// Build from a signed duration (subject minus reference media position).
    pub fn new(d: MediaDuration) -> Self {
        Skew(d)
    }
    /// Magnitude of the skew.
    pub fn magnitude(self) -> MediaDuration {
        self.0.abs()
    }
    /// True iff the subject stream leads (is ahead).
    pub fn leads(self) -> bool {
        self.0 .0 > 0
    }
    /// True iff the subject stream lags (is behind).
    pub fn lags(self) -> bool {
        self.0 .0 < 0
    }
    /// Is the skew within a symmetric tolerance?
    pub fn within(self, tolerance: MediaDuration) -> bool {
        self.magnitude() <= tolerance
    }
}

/// The repair a skew controller should apply to restore synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkewRepair {
    /// Skew within tolerance — leave both streams alone.
    None,
    /// Drop `frames` from the leading stream ("drop frames from the stream
    /// that leads in time").
    DropFromLeader {
        /// How many frame periods of lead to remove.
        frames: u32,
    },
    /// Duplicate `frames` in the lagging stream ("duplicate frames of the
    /// lagging stream").
    DuplicateInLaggard {
        /// How many frame periods of lag to fill.
        frames: u32,
    },
}

/// Which side of a synchronized pair a repair should be applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairSide {
    /// Apply to the subject stream.
    Subject,
    /// Apply to the reference stream.
    Reference,
}

/// Policy choice for the EXP-ABLATE ablation: when skew exceeds tolerance,
/// either slow the leader down by dropping its queued frames, or speed the
/// laggard up by duplicating (the paper uses both together; the ablation
/// isolates each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SkewPolicy {
    /// Drop from whichever stream leads (paper's primary action).
    DropLeader,
    /// Duplicate in whichever stream lags.
    DuplicateLaggard,
    /// Split the correction between both streams (default, per [LIT 92]).
    #[default]
    Both,
}

/// Decide the repair for an observed skew.
///
/// `frame_period` is the presentation period of one frame of the stream the
/// repair is applied to; corrections are quantized to whole frames, rounding
/// up so a repair is always effective.
pub fn plan_repair(
    skew: Skew,
    tolerance: MediaDuration,
    frame_period: MediaDuration,
    policy: SkewPolicy,
) -> (SkewRepair, RepairSide) {
    assert!(
        frame_period.as_micros() > 0,
        "frame period must be positive"
    );
    if skew.within(tolerance) {
        return (SkewRepair::None, RepairSide::Subject);
    }
    let excess = skew.magnitude() - tolerance;
    let frames = ((excess.as_micros() + frame_period.as_micros() - 1) / frame_period.as_micros())
        .max(1) as u32;
    match policy {
        SkewPolicy::DropLeader => {
            if skew.leads() {
                (SkewRepair::DropFromLeader { frames }, RepairSide::Subject)
            } else {
                (SkewRepair::DropFromLeader { frames }, RepairSide::Reference)
            }
        }
        SkewPolicy::DuplicateLaggard => {
            if skew.lags() {
                (
                    SkewRepair::DuplicateInLaggard { frames },
                    RepairSide::Subject,
                )
            } else {
                (
                    SkewRepair::DuplicateInLaggard { frames },
                    RepairSide::Reference,
                )
            }
        }
        SkewPolicy::Both => {
            // Drop from leader first (cheaper: discards stale data); only
            // half the excess, the laggard duplication covers the rest when
            // the controller next runs on the partner stream.
            let half = (frames / 2).max(1);
            if skew.leads() {
                (
                    SkewRepair::DropFromLeader { frames: half },
                    RepairSide::Subject,
                )
            } else {
                (
                    SkewRepair::DuplicateInLaggard { frames: half },
                    RepairSide::Subject,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> MediaDuration {
        MediaDuration::from_millis(v)
    }

    #[test]
    fn skew_sign_semantics() {
        let ahead = Skew::new(ms(50));
        let behind = Skew::new(ms(-50));
        assert!(ahead.leads() && !ahead.lags());
        assert!(behind.lags() && !behind.leads());
        assert_eq!(ahead.magnitude(), ms(50));
        assert_eq!(behind.magnitude(), ms(50));
        assert!(ahead.within(ms(50)));
        assert!(!ahead.within(ms(49)));
    }

    #[test]
    fn no_repair_within_tolerance() {
        let (r, _) = plan_repair(Skew::new(ms(60)), ms(80), ms(40), SkewPolicy::Both);
        assert_eq!(r, SkewRepair::None);
    }

    #[test]
    fn drop_leader_targets_leading_stream() {
        // Subject leads by 200ms, tolerance 80ms, frame period 40ms → excess
        // 120ms → 3 frames.
        let (r, side) = plan_repair(Skew::new(ms(200)), ms(80), ms(40), SkewPolicy::DropLeader);
        assert_eq!(r, SkewRepair::DropFromLeader { frames: 3 });
        assert_eq!(side, RepairSide::Subject);
        // Subject lags → the *reference* is the leader.
        let (r, side) = plan_repair(Skew::new(ms(-200)), ms(80), ms(40), SkewPolicy::DropLeader);
        assert_eq!(r, SkewRepair::DropFromLeader { frames: 3 });
        assert_eq!(side, RepairSide::Reference);
    }

    #[test]
    fn duplicate_laggard_targets_lagging_stream() {
        let (r, side) = plan_repair(
            Skew::new(ms(-200)),
            ms(80),
            ms(40),
            SkewPolicy::DuplicateLaggard,
        );
        assert_eq!(r, SkewRepair::DuplicateInLaggard { frames: 3 });
        assert_eq!(side, RepairSide::Subject);
    }

    #[test]
    fn frames_round_up_and_are_at_least_one() {
        // Excess 1µs over tolerance still yields one frame of repair.
        let (r, _) = plan_repair(
            Skew::new(MediaDuration::from_micros(80_001)),
            ms(80),
            ms(40),
            SkewPolicy::DropLeader,
        );
        assert_eq!(r, SkewRepair::DropFromLeader { frames: 1 });
        // Excess 81ms with 40ms frames → ceil(81/40) = 3.
        let (r, _) = plan_repair(Skew::new(ms(161)), ms(80), ms(40), SkewPolicy::DropLeader);
        assert_eq!(r, SkewRepair::DropFromLeader { frames: 3 });
    }

    #[test]
    fn both_policy_halves_correction() {
        let (r, side) = plan_repair(Skew::new(ms(240)), ms(80), ms(40), SkewPolicy::Both);
        // excess 160ms → 4 frames → half = 2 dropped from the leader.
        assert_eq!(r, SkewRepair::DropFromLeader { frames: 2 });
        assert_eq!(side, RepairSide::Subject);
        let (r, _) = plan_repair(Skew::new(ms(-240)), ms(80), ms(40), SkewPolicy::Both);
        assert_eq!(r, SkewRepair::DuplicateInLaggard { frames: 2 });
    }

    #[test]
    #[should_panic(expected = "frame period must be positive")]
    fn zero_frame_period_rejected() {
        let _ = plan_repair(Skew::new(ms(100)), ms(80), ms(0), SkewPolicy::Both);
    }
}
