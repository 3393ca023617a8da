//! Property tests on the media buffer: pts ordering, accounting invariants
//! and repair-operation safety under arbitrary operation sequences.
//!
//! The shrunk cases under `buffer_props.proptest-regressions` are kept alive
//! as explicit fixed tests below (the hermetic proptest shim cannot replay
//! upstream `cc` seed hashes).

use hermes_od::client::buffers::Popped;
use hermes_od::client::{BufferConfig, MediaBuffer};
use hermes_od::core::{ComponentId, GradeLevel, MediaDuration, MediaTime};
use hermes_od::media::MediaFrame;
use proptest::prelude::*;

fn frame(seq: u64, pts_ms: i64, last: bool) -> MediaFrame {
    MediaFrame {
        component: ComponentId::new(1),
        seq,
        pts: MediaTime::from_millis(pts_ms),
        size: 500,
        key: true,
        level: GradeLevel::NOMINAL,
        last,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(i64),
    Pop,
    DropStale(i64, u8),
    Duplicate(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..10_000).prop_map(Op::Push),
        Just(Op::Pop),
        ((0i64..10_000), (0u8..10)).prop_map(|(p, n)| Op::DropStale(p, n)),
        (0u8..6).prop_map(Op::Duplicate),
    ]
}

/// Drive one operation sequence through a 32-frame buffer, checking every
/// invariant after each step. Returns `Err` with a description on the first
/// violation. Shared by the property below and the fixed regression tests.
fn check_ops(ops: &[Op]) -> Result<(), String> {
    macro_rules! ensure {
        ($cond:expr, $($fmt:tt)+) => {
            if !($cond) {
                return Err(format!($($fmt)+));
            }
        };
    }
    let cfg = BufferConfig {
        time_window: MediaDuration::from_millis(400),
        capacity_frames: 32,
    };
    let mut b = MediaBuffer::new(ComponentId::new(1), cfg, MediaDuration::from_millis(40));
    let mut seq = 0u64;
    let mut popped_real = 0u64;
    let mut popped_dups = 0u64;
    let mut last_popped: Option<MediaTime> = None;
    for o in ops {
        match o {
            Op::Push(pts) => {
                b.push(frame(seq, *pts, false));
                seq += 1;
            }
            Op::Pop => match b.pop() {
                Some(Popped::Frame(f)) => {
                    // Global presentation order: a popped frame is never
                    // earlier than anything already presented, nor later
                    // than anything still staged.
                    if let Some(lp) = last_popped {
                        ensure!(
                            f.pts >= lp,
                            "pts order violated: popped {} after {}",
                            f.pts,
                            lp
                        );
                    }
                    if let Some(head) = b.peek() {
                        ensure!(
                            f.pts <= head.pts,
                            "pts order violated: popped {} ahead of staged {}",
                            f.pts,
                            head.pts
                        );
                    }
                    last_popped = Some(f.pts);
                    popped_real += 1;
                }
                Some(Popped::Duplicate) => popped_dups += 1,
                None => ensure!(b.is_empty(), "pop returned None on non-empty buffer"),
            },
            Op::DropStale(pts, n) => {
                b.drop_stale(MediaTime::from_millis(*pts), *n as u32);
            }
            Op::Duplicate(n) => {
                b.duplicate_front(*n as u32);
            }
        }
        ensure!(b.len() <= 32, "capacity exceeded: {}", b.len());
        ensure!(
            b.staged_time() == MediaDuration::from_millis(40) * b.len() as i64,
            "staged_time {} != period * len {}",
            b.staged_time(),
            b.len()
        );
    }
    let s = b.stats;
    // Unit conservation over real frames AND duplicates: everything that
    // entered (pushes + queued duplicates) is either popped (real or
    // dup), dropped (drop_stale, which may consume dups),
    // or still staged. Late/capacity-rejected frames never enter.
    ensure!(
        s.frames_in + s.frames_duplicated
            == s.frames_out + popped_dups + s.frames_dropped + b.len() as u64,
        "accounting: in={} duplicated={} out={} dups_played={} dropped={} len={}",
        s.frames_in,
        s.frames_duplicated,
        s.frames_out,
        popped_dups,
        s.frames_dropped,
        b.len()
    );
    ensure!(s.frames_out == popped_real, "frames_out miscounted");
    ensure!(
        s.frames_duplicated >= popped_dups,
        "more dups played than queued"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any operation sequence the buffer's accounting balances:
    /// in == out + dropped + still-staged (for real frames), length never
    /// exceeds capacity, and real frames pop in pts order — globally, not
    /// just against the staged head.
    #[test]
    fn accounting_balances(ops in proptest::collection::vec(op(), 0..120)) {
        if let Err(e) = check_ops(&ops) {
            prop_assert!(false, "{}", e);
        }
    }
}

// --- pinned shrunk cases from buffer_props.proptest-regressions ----------

/// `cc b6a37980…` (less its no-op `Drop(0)`, an operation the buffer no
/// longer has): drop_stale must consume queued duplicates (and count them
/// as drops) without touching the lone staged frame.
#[test]
fn regression_drop_stale_consumes_duplicate() {
    check_ops(&[Op::Push(0), Op::Duplicate(1), Op::DropStale(0, 1)]).unwrap();
}

/// `cc 8eb52a04…`: a frame arriving with a pts earlier than one already
/// presented must not be staged — popping it would run the presentation
/// timeline backwards.
#[test]
fn regression_late_arrival_not_presented() {
    check_ops(&[Op::Push(1_093), Op::Pop, Op::Push(0), Op::Pop]).unwrap();
}

/// `cc 6c13be6e…`: duplicate floods respect the hard frame capacity and the
/// accounting stays balanced when a push is then capacity-rejected.
#[test]
fn regression_duplicate_flood_respects_capacity() {
    check_ops(&[
        Op::Push(0),
        Op::Duplicate(3),
        Op::Duplicate(3),
        Op::Duplicate(4),
        Op::Duplicate(4),
        Op::Duplicate(1),
        Op::Duplicate(1),
        Op::Push(0),
        Op::Duplicate(3),
        Op::Duplicate(3),
        Op::Duplicate(3),
        Op::Duplicate(5),
        Op::Push(0),
    ])
    .unwrap();
}

#[test]
fn priming_is_monotone_in_window() {
    // A stricter window never primes earlier than a looser one.
    for frames_needed in 1..20usize {
        let window = MediaDuration::from_millis(40 * frames_needed as i64);
        let mut b = MediaBuffer::new(
            ComponentId::new(1),
            BufferConfig::with_window(window),
            MediaDuration::from_millis(40),
        );
        for i in 0..frames_needed {
            assert!(
                !b.is_primed() || i == frames_needed,
                "primed after {i} of {frames_needed}"
            );
            b.push(frame(i as u64, i as i64 * 40, false));
        }
        assert!(b.is_primed());
    }
}
