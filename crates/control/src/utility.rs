//! The aggregate-utility model and the pure grade-step decision functions.
//!
//! The paper's grading rule — degrade video before audio, "since audio or
//! voice is considered to be more important to users" — is expressed here as
//! a utility ordering: audio carries a higher per-rung utility weight than
//! video, so the step that loses the least aggregate utility is always a
//! video step while one exists. The fleet controller maximizes aggregate
//! utility by degrading the cheapest steps fleet-wide and upgrading the most
//! valuable ones, and the property tests pin the ordering to the paper's
//! rule independent of the solver.

use hermes_core::{GradingOrder, MediaKind, PricingClass};

/// Per-rung utility weight of a media kind. Audio outweighs video so that
/// degrading video always costs less utility than degrading audio — the
/// paper's video-first rule as an economic statement. Discrete kinds are
/// never graded; they carry a token weight for completeness.
pub fn kind_weight(kind: MediaKind) -> f64 {
    match kind {
        MediaKind::Audio => 3.0,
        MediaKind::Video => 1.0,
        MediaKind::Text | MediaKind::Image => 0.25,
    }
}

/// Pricing-class utility multiplier: a premium session's quality is worth
/// more aggregate utility than an economy session's, so the solver sheds
/// economy quality first when steps otherwise tie.
pub fn class_multiplier(class: PricingClass) -> f64 {
    match class {
        PricingClass::Premium => 3.0,
        PricingClass::Standard => 2.0,
        PricingClass::Economy => 1.0,
    }
}

/// Utility contributed by one stream of a session: the class multiplier
/// times the kind weight times the fraction of quality rungs retained
/// (1 at nominal, approaching 0 at the ladder floor).
pub fn stream_utility(class: PricingClass, kind: MediaKind, level: u8, max_level: u8) -> f64 {
    let rungs = max_level as f64 + 1.0;
    let retained = (rungs - level.min(max_level) as f64) / rungs;
    class_multiplier(class) * kind_weight(kind) * retained
}

/// Encode a media kind into a report gauge value (audio 0, video 1,
/// discrete 2).
pub fn encode_kind(kind: MediaKind) -> f64 {
    match kind {
        MediaKind::Audio => 0.0,
        MediaKind::Video => 1.0,
        MediaKind::Text | MediaKind::Image => 2.0,
    }
}

/// Decode a report gauge value back into a media kind (inverse of
/// [`encode_kind`]; unknown values decode as discrete).
pub fn decode_kind(v: f64) -> MediaKind {
    if v < 0.5 {
        MediaKind::Audio
    } else if v < 1.5 {
        MediaKind::Video
    } else {
        MediaKind::Text
    }
}

/// Decode a pricing class from its [`PricingClass::priority`] value (gauge
/// round-trip; out-of-range values decode as economy).
pub fn class_from_priority(p: u8) -> PricingClass {
    match p {
        2 => PricingClass::Premium,
        1 => PricingClass::Standard,
        _ => PricingClass::Economy,
    }
}

/// One gradable stream of a session as the controller sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamView {
    /// The component id within the session.
    pub component: u64,
    /// The stream's media kind.
    pub kind: MediaKind,
    /// Current grade level (0 = nominal).
    pub level: u8,
    /// Deepest level the stream's ladder supports.
    pub max_level: u8,
}

/// One live session as the controller sees it, assembled from a server's
/// report registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionView {
    /// The session id.
    pub session: u64,
    /// The raw node id of the server owning the session.
    pub server: u64,
    /// The session's pricing class.
    pub class: PricingClass,
    /// The session's continuous streams.
    pub streams: Vec<StreamView>,
}

impl SessionView {
    /// The session's current utility.
    pub fn utility(&self) -> f64 {
        self.streams
            .iter()
            .map(|s| stream_utility(self.class, s.kind, s.level, s.max_level))
            .sum()
    }

    /// True when any stream sits below nominal quality.
    pub fn degraded(&self) -> bool {
        self.streams.iter().any(|s| s.level > 0)
    }

    /// Total grade levels below nominal across all streams.
    pub fn depth(&self) -> u32 {
        self.streams.iter().map(|s| s.level as u32).sum()
    }

    /// The stream the next degradation step must take, per the paper's
    /// order: video before audio (rank), then the least-degraded stream of
    /// that rank, then the lowest component id. `None` when every stream is
    /// already at its floor.
    pub fn next_step_down(&self) -> Option<&StreamView> {
        self.streams
            .iter()
            .filter(|s| s.level < s.max_level)
            .min_by_key(|s| {
                (
                    GradingOrder::VideoFirst.degrade_rank(s.kind),
                    s.level,
                    s.component,
                )
            })
    }

    /// The stream the next upgrade step must restore — the exact reverse of
    /// [`SessionView::next_step_down`]: audio recovers before video, the
    /// deepest-degraded stream of that rank first. `None` when nothing is
    /// degraded.
    pub fn next_step_up(&self) -> Option<&StreamView> {
        self.streams.iter().filter(|s| s.level > 0).max_by_key(|s| {
            (
                GradingOrder::VideoFirst.degrade_rank(s.kind),
                s.level,
                s.component,
            )
        })
    }

    /// Utility lost by taking the next degradation step (`None` when no
    /// step remains).
    pub fn step_down_loss(&self) -> Option<f64> {
        self.next_step_down().map(|s| {
            class_multiplier(self.class) * kind_weight(s.kind) / (s.max_level as f64 + 1.0)
        })
    }

    /// Utility regained by taking the next upgrade step (`None` when
    /// nothing is degraded).
    pub fn step_up_gain(&self) -> Option<f64> {
        self.next_step_up().map(|s| {
            class_multiplier(self.class) * kind_weight(s.kind) / (s.max_level as f64 + 1.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(levels: &[(MediaKind, u8, u8)]) -> SessionView {
        SessionView {
            session: 1,
            server: 1,
            class: PricingClass::Standard,
            streams: levels
                .iter()
                .enumerate()
                .map(|(i, &(kind, level, max))| StreamView {
                    component: i as u64,
                    kind,
                    level,
                    max_level: max,
                })
                .collect(),
        }
    }

    #[test]
    fn video_steps_before_audio_and_audio_recovers_first() {
        let s = session(&[(MediaKind::Audio, 0, 3), (MediaKind::Video, 0, 3)]);
        assert_eq!(s.next_step_down().unwrap().kind, MediaKind::Video);
        // Even a deeply degraded video stream outranks a pristine audio one.
        let s = session(&[(MediaKind::Audio, 0, 3), (MediaKind::Video, 2, 3)]);
        assert_eq!(s.next_step_down().unwrap().kind, MediaKind::Video);
        // Only a floored video ladder lets audio degrade.
        let s = session(&[(MediaKind::Audio, 0, 3), (MediaKind::Video, 3, 3)]);
        assert_eq!(s.next_step_down().unwrap().kind, MediaKind::Audio);
        // Recovery mirrors: audio first, video last.
        let s = session(&[(MediaKind::Audio, 1, 3), (MediaKind::Video, 3, 3)]);
        assert_eq!(s.next_step_up().unwrap().kind, MediaKind::Audio);
        let s = session(&[(MediaKind::Audio, 0, 3), (MediaKind::Video, 3, 3)]);
        assert_eq!(s.next_step_up().unwrap().kind, MediaKind::Video);
    }

    #[test]
    fn utility_monotone_in_level_and_class() {
        let nominal = stream_utility(PricingClass::Standard, MediaKind::Video, 0, 3);
        let worse = stream_utility(PricingClass::Standard, MediaKind::Video, 2, 3);
        assert!(nominal > worse);
        let premium = stream_utility(PricingClass::Premium, MediaKind::Video, 0, 3);
        assert!(premium > nominal);
        // An audio step always costs more utility than a video step on the
        // same ladder depth — the economic form of video-first.
        let audio_step = kind_weight(MediaKind::Audio) / 4.0;
        let video_step = kind_weight(MediaKind::Video) / 4.0;
        assert!(audio_step > video_step);
    }

    #[test]
    fn kind_and_class_codecs_round_trip() {
        for kind in [MediaKind::Audio, MediaKind::Video] {
            assert_eq!(decode_kind(encode_kind(kind)), kind);
        }
        for class in PricingClass::ALL {
            assert_eq!(class_from_priority(class.priority()), class);
        }
    }
}
