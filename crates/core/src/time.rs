//! Time primitives for presentation scheduling and simulation.
//!
//! All schedule arithmetic uses integer **microseconds** so that playout
//! deadlines, buffer windows and skew measurements are exact — the paper's
//! synchronization mechanisms compare deadlines and arrival times directly,
//! and floating point drift would make property tests flaky.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in time, measured in microseconds from an epoch.
///
/// Two epochs are used in the system and both are represented by this type:
/// * *media time*: microseconds since the start of a presentation scenario
///   (the "relative start time" of the paper's markup language);
/// * *simulation time*: microseconds since the start of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MediaTime(pub i64);

/// A span of time in microseconds. May be negative when it represents a skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MediaDuration(pub i64);

impl MediaTime {
    /// The zero point (presentation start / simulation start).
    pub const ZERO: MediaTime = MediaTime(0);
    /// The greatest representable instant; used as an "infinite" deadline.
    pub const MAX: MediaTime = MediaTime(i64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        MediaTime(s * 1_000_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        MediaTime(ms * 1_000)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: i64) -> Self {
        MediaTime(us)
    }
    /// Value in microseconds.
    pub const fn as_micros(self) -> i64 {
        self.0
    }
    /// Value in (truncated) milliseconds.
    pub const fn as_millis(self) -> i64 {
        self.0 / 1_000
    }
    /// Value in seconds as f64 (for reporting only, never for scheduling).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: MediaDuration) -> MediaTime {
        MediaTime(self.0.saturating_add(d.0))
    }
    /// The earlier of two instants.
    pub fn min(self, other: MediaTime) -> MediaTime {
        if self <= other {
            self
        } else {
            other
        }
    }
    /// The later of two instants.
    pub fn max(self, other: MediaTime) -> MediaTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl MediaDuration {
    /// Zero-length duration.
    pub const ZERO: MediaDuration = MediaDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        MediaDuration(s * 1_000_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        MediaDuration(ms * 1_000)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: i64) -> Self {
        MediaDuration(us)
    }
    /// Value in microseconds.
    pub const fn as_micros(self) -> i64 {
        self.0
    }
    /// Value in (truncated) milliseconds.
    pub const fn as_millis(self) -> i64 {
        self.0 / 1_000
    }
    /// Value in seconds as f64 (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Absolute value (used when a skew's sign is irrelevant).
    pub const fn abs(self) -> MediaDuration {
        MediaDuration(self.0.abs())
    }
    /// True iff the duration is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }
    /// The smaller of two durations.
    pub fn min(self, other: MediaDuration) -> MediaDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
    /// The larger of two durations.
    pub fn max(self, other: MediaDuration) -> MediaDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<MediaDuration> for MediaTime {
    type Output = MediaTime;
    fn add(self, rhs: MediaDuration) -> MediaTime {
        MediaTime(self.0 + rhs.0)
    }
}
impl AddAssign<MediaDuration> for MediaTime {
    fn add_assign(&mut self, rhs: MediaDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<MediaDuration> for MediaTime {
    type Output = MediaTime;
    fn sub(self, rhs: MediaDuration) -> MediaTime {
        MediaTime(self.0 - rhs.0)
    }
}
impl SubAssign<MediaDuration> for MediaTime {
    fn sub_assign(&mut self, rhs: MediaDuration) {
        self.0 -= rhs.0;
    }
}
impl Sub<MediaTime> for MediaTime {
    type Output = MediaDuration;
    fn sub(self, rhs: MediaTime) -> MediaDuration {
        MediaDuration(self.0 - rhs.0)
    }
}
impl Add for MediaDuration {
    type Output = MediaDuration;
    fn add(self, rhs: MediaDuration) -> MediaDuration {
        MediaDuration(self.0 + rhs.0)
    }
}
impl AddAssign for MediaDuration {
    fn add_assign(&mut self, rhs: MediaDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for MediaDuration {
    type Output = MediaDuration;
    fn sub(self, rhs: MediaDuration) -> MediaDuration {
        MediaDuration(self.0 - rhs.0)
    }
}
impl SubAssign for MediaDuration {
    fn sub_assign(&mut self, rhs: MediaDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<i64> for MediaDuration {
    type Output = MediaDuration;
    fn mul(self, rhs: i64) -> MediaDuration {
        MediaDuration(self.0 * rhs)
    }
}
impl Div<i64> for MediaDuration {
    type Output = MediaDuration;
    fn div(self, rhs: i64) -> MediaDuration {
        MediaDuration(self.0 / rhs)
    }
}

impl fmt::Display for MediaTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}
impl fmt::Display for MediaDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(MediaTime::from_secs(2), MediaTime::from_millis(2000));
        assert_eq!(MediaTime::from_millis(3), MediaTime::from_micros(3000));
        assert_eq!(MediaDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn time_minus_time_is_duration() {
        let a = MediaTime::from_millis(1500);
        let b = MediaTime::from_millis(1000);
        assert_eq!(a - b, MediaDuration::from_millis(500));
        assert_eq!(b - a, MediaDuration::from_millis(-500));
        assert!((b - a).is_negative());
        assert_eq!((b - a).abs(), MediaDuration::from_millis(500));
    }

    #[test]
    fn time_plus_duration() {
        let t = MediaTime::from_secs(1) + MediaDuration::from_millis(250);
        assert_eq!(t.as_millis(), 1250);
        let t2 = t - MediaDuration::from_millis(250);
        assert_eq!(t2, MediaTime::from_secs(1));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = MediaTime::from_millis(10);
        let b = MediaTime::from_millis(20);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(
            MediaDuration::from_millis(5).max(MediaDuration::from_millis(-7)),
            MediaDuration::from_millis(5)
        );
    }

    #[test]
    fn duration_scaling() {
        let d = MediaDuration::from_millis(40);
        assert_eq!(d * 25, MediaDuration::from_secs(1));
        assert_eq!(MediaDuration::from_secs(1) / 25, d);
    }

    #[test]
    fn saturating_add_never_overflows() {
        let t = MediaTime::MAX.saturating_add(MediaDuration::from_secs(10));
        assert_eq!(t, MediaTime::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", MediaTime::from_millis(1250)), "1.250s");
        assert_eq!(format!("{}", MediaDuration::from_millis(-80)), "-0.080s");
    }
}
