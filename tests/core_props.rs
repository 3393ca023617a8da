//! Property tests on the core temporal algebra (intervals/Allen relations,
//! time arithmetic) and on the two recovery rules that step over it: the
//! skew repair's frame count and the codecs' grading ladders.

use hermes_od::client::playout::repair_frames;
use hermes_od::core::{AllenRelation, Encoding, GradeLevel, Interval, MediaDuration, MediaTime};
use hermes_od::media::CodecModel;
use proptest::prelude::*;

fn time() -> impl Strategy<Value = MediaTime> {
    (-1_000_000i64..1_000_000).prop_map(MediaTime::from_micros)
}

fn interval() -> impl Strategy<Value = Interval> {
    (time(), 0i64..1_000_000)
        .prop_map(|(s, len)| Interval::new(s, s + MediaDuration::from_micros(len)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exactly one Allen relation holds and inversion is involutive.
    #[test]
    fn allen_total_and_inverse(a in interval(), b in interval()) {
        let r = a.allen(&b);
        prop_assert_eq!(b.allen(&a), r.inverse());
        prop_assert_eq!(r.inverse().inverse(), r);
        // Equals is self-inverse and symmetric.
        if r == AllenRelation::Equals {
            prop_assert_eq!(a, b);
        }
    }

    /// Intersection is commutative, contained in both, and implies overlap.
    #[test]
    fn intersection_properties(a in interval(), b in interval()) {
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab, ba);
        if let Some(i) = ab {
            prop_assert!(a.overlaps(&b));
            prop_assert!(i.start >= a.start && i.end <= a.end);
            prop_assert!(i.start >= b.start && i.end <= b.end);
            prop_assert!(i.duration() <= a.duration());
            prop_assert!(i.duration() <= b.duration());
        }
    }

    /// Time arithmetic: (a + d) - d == a, and subtraction inverts addition.
    #[test]
    fn time_arithmetic(a in time(), d in -1_000_000i64..1_000_000) {
        let d = MediaDuration::from_micros(d);
        prop_assert_eq!((a + d) - d, a);
        prop_assert_eq!((a + d) - a, d);
    }

    /// The skew repair's frame count (the live rule in the client's
    /// playout engine) is at least one whenever skew is out of tolerance,
    /// and covers the excess with less than one frame to spare.
    #[test]
    fn repair_planning_sound(
        period_ms in 1i64..100,
        whole in 1i64..50,
        short_us in prop_oneof![Just(0i64), 0i64..100_000],
    ) {
        let period = MediaDuration::from_millis(period_ms);
        // The skew beyond tolerance lies in ((whole − 1) periods, whole
        // periods], and is an exact multiple half the time: where a
        // rounding slip shows.
        let excess = period * whole - MediaDuration::from_micros(short_us % period.as_micros());
        let frames = repair_frames(excess, period);
        prop_assert!(frames >= 1);
        prop_assert!(period * frames as i64 >= excess,
            "undercorrection: {frames} × {period} for excess {excess}");
        prop_assert!(period * (frames as i64 - 1) < excess,
            "overcorrection: {frames} × {period} for excess {excess}");
    }

    /// Every codec's grading ladder: stepping a level down never costs more
    /// bandwidth, the step saturates at the deepest level, and stepping
    /// back up returns to nominal.
    #[test]
    fn ladder_monotone(e in 0..Encoding::ALL.len(), steps in 1usize..10) {
        let model = CodecModel::for_encoding(Encoding::ALL[e]);
        let max = model.max_level();
        let mut level = GradeLevel::NOMINAL;
        let mut last_bw = model.level(level).bandwidth_bps();
        for _ in 0..steps {
            level = level.degraded(max);
            let bw = model.level(level).bandwidth_bps();
            prop_assert!(bw <= last_bw);
            prop_assert!(level <= max);
            last_bw = bw;
        }
        for _ in 0..steps {
            level = level.upgraded();
        }
        prop_assert_eq!(level, GradeLevel::NOMINAL);
    }
}
