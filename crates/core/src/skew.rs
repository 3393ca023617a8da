//! The short-term skew-repair policy.
//!
//! §4: "*Intermedia skew* refers to the difference of the arrival times among
//! media objects that should be synchronized." The short-term recovery
//! mechanism measures skew between synchronized streams and repairs it by
//! dropping frames from the stream that leads, or duplicating frames of the
//! stream that lags (after Little & Kao [LIT 92]). The rule itself runs in the
//! client's playout engine (`hermes_client::playout`); this module names the
//! policy it applies.

/// Policy choice for the EXP-ABLATE ablation: when skew exceeds tolerance,
/// either slow the leader down by dropping its queued frames, or speed the
/// laggard up by duplicating (the paper uses both together; the ablation
/// isolates each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkewPolicy {
    /// Drop from whichever stream leads (paper's primary action).
    DropLeader,
    /// Duplicate in whichever stream lags.
    DuplicateLaggard,
    /// Split the correction between both streams (default, per [LIT 92]).
    #[default]
    Both,
}
