//! Temporal intervals and Allen's interval algebra.
//!
//! The paper builds on interval-based conceptual models for time-dependent
//! multimedia ([LIT 93]); playout components are half-open intervals
//! `[start, start + duration)` on the presentation timeline. Allen relations
//! let the scheduler and the tests reason about overlap, meeting and
//! containment exactly.

use crate::time::{MediaDuration, MediaTime};
use std::fmt;

/// A half-open interval `[start, end)` on the media timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive start instant.
    pub start: MediaTime,
    /// Exclusive end instant. Invariant: `end >= start`.
    pub end: MediaTime,
}

/// The 13 Allen interval relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllenRelation {
    /// `a` ends before `b` starts.
    Before,
    /// `a` starts after `b` ends.
    After,
    /// `a` ends exactly where `b` starts.
    Meets,
    /// `a` starts exactly where `b` ends.
    MetBy,
    /// `a` overlaps the beginning of `b`.
    Overlaps,
    /// `b` overlaps the beginning of `a`.
    OverlappedBy,
    /// `a` starts with `b` but ends earlier.
    Starts,
    /// `b` starts with `a` but ends earlier.
    StartedBy,
    /// `a` lies strictly inside `b`.
    During,
    /// `b` lies strictly inside `a`.
    Contains,
    /// `a` ends with `b` but starts later.
    Finishes,
    /// `b` ends with `a` but starts later.
    FinishedBy,
    /// identical intervals.
    Equals,
}

impl Interval {
    /// Construct from start and end. Panics if `end < start`.
    pub fn new(start: MediaTime, end: MediaTime) -> Self {
        assert!(end >= start, "interval end before start");
        Interval { start, end }
    }
    /// Construct from start and non-negative duration.
    pub fn from_start_duration(start: MediaTime, duration: MediaDuration) -> Self {
        assert!(!duration.is_negative(), "negative interval duration");
        Interval {
            start,
            end: start + duration,
        }
    }
    /// Length of the interval.
    pub fn duration(&self) -> MediaDuration {
        self.end - self.start
    }
    /// True iff the interval has zero length.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
    /// Does the instant fall inside `[start, end)`?
    pub fn contains_instant(&self, t: MediaTime) -> bool {
        t >= self.start && t < self.end
    }
    /// Do the (non-empty parts of the) intervals share any instant?
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
    /// Intersection, if any instant is shared.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Interval {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        })
    }
    /// Classify the Allen relation of `self` with respect to `other`.
    ///
    /// Empty intervals are treated as points; the classification remains a
    /// total function (exactly one relation holds for any pair).
    pub fn allen(&self, other: &Interval) -> AllenRelation {
        use AllenRelation::*;
        let (a1, a2, b1, b2) = (self.start, self.end, other.start, other.end);
        if a1 == b1 && a2 == b2 {
            Equals
        } else if a2 < b1 {
            Before
        } else if b2 < a1 {
            After
        } else if a2 == b1 {
            Meets
        } else if b2 == a1 {
            MetBy
        } else if a1 == b1 {
            if a2 < b2 {
                Starts
            } else {
                StartedBy
            }
        } else if a2 == b2 {
            if a1 > b1 {
                Finishes
            } else {
                FinishedBy
            }
        } else if a1 > b1 && a2 < b2 {
            During
        } else if a1 < b1 && a2 > b2 {
            Contains
        } else if a1 < b1 {
            Overlaps
        } else {
            OverlappedBy
        }
    }
}

impl AllenRelation {
    /// The inverse relation: `a.allen(b) == r` iff `b.allen(a) == r.inverse()`.
    pub fn inverse(self) -> AllenRelation {
        use AllenRelation::*;
        match self {
            Before => After,
            After => Before,
            Meets => MetBy,
            MetBy => Meets,
            Overlaps => OverlappedBy,
            OverlappedBy => Overlaps,
            Starts => StartedBy,
            StartedBy => Starts,
            During => Contains,
            Contains => During,
            Finishes => FinishedBy,
            FinishedBy => Finishes,
            Equals => Equals,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(MediaTime::from_millis(a), MediaTime::from_millis(b))
    }

    #[test]
    fn duration_and_contains() {
        let i = iv(100, 400);
        assert_eq!(i.duration(), MediaDuration::from_millis(300));
        assert!(i.contains_instant(MediaTime::from_millis(100)));
        assert!(i.contains_instant(MediaTime::from_millis(399)));
        assert!(!i.contains_instant(MediaTime::from_millis(400)));
        assert!(!i.contains_instant(MediaTime::from_millis(99)));
    }

    #[test]
    fn overlap_and_intersection() {
        assert!(iv(0, 10).overlaps(&iv(5, 15)));
        assert!(!iv(0, 10).overlaps(&iv(10, 20))); // meets, no shared instant
        assert_eq!(iv(0, 10).intersect(&iv(5, 15)), Some(iv(5, 10)));
        assert_eq!(iv(0, 10).intersect(&iv(20, 30)), None);
    }

    #[test]
    fn allen_all_thirteen() {
        use AllenRelation::*;
        assert_eq!(iv(0, 5).allen(&iv(10, 20)), Before);
        assert_eq!(iv(10, 20).allen(&iv(0, 5)), After);
        assert_eq!(iv(0, 10).allen(&iv(10, 20)), Meets);
        assert_eq!(iv(10, 20).allen(&iv(0, 10)), MetBy);
        assert_eq!(iv(0, 15).allen(&iv(10, 20)), Overlaps);
        assert_eq!(iv(10, 20).allen(&iv(0, 15)), OverlappedBy);
        assert_eq!(iv(0, 5).allen(&iv(0, 20)), Starts);
        assert_eq!(iv(0, 20).allen(&iv(0, 5)), StartedBy);
        assert_eq!(iv(5, 10).allen(&iv(0, 20)), During);
        assert_eq!(iv(0, 20).allen(&iv(5, 10)), Contains);
        assert_eq!(iv(10, 20).allen(&iv(0, 20)), Finishes);
        assert_eq!(iv(0, 20).allen(&iv(10, 20)), FinishedBy);
        assert_eq!(iv(3, 9).allen(&iv(3, 9)), Equals);
    }

    #[test]
    fn allen_inverse_property() {
        let samples = [
            iv(0, 5),
            iv(0, 10),
            iv(5, 10),
            iv(5, 15),
            iv(10, 20),
            iv(0, 20),
            iv(7, 7),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    a.allen(b).inverse(),
                    b.allen(a),
                    "inverse failed for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "interval end before start")]
    fn reversed_interval_panics() {
        let _ = iv(10, 5);
    }
}
