//! Property tests on the media buffer: pts ordering, accounting invariants
//! and repair-operation safety under arbitrary operation sequences.
//!
//! The shrunk cases under `buffer_props.proptest-regressions` are kept alive
//! as explicit fixed tests below (the hermetic proptest shim cannot replay
//! upstream `cc` seed hashes).

use hermes_od::client::buffers::{Popped, CAPACITY_FRAMES};
use hermes_od::client::{BufferConfig, BufferStats, MediaBuffer};
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
    /// Push `n` real frames at consecutive pts from `start` ms.
    PushRun(i64, u16),
    Pop,
    /// `n` pops, each checked like `Pop`.
    PopMany(u16),
    DropStale(i64, u8),
    Duplicate(u16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..10_000).prop_map(Op::Push),
        // A run that fills the buffer to its capacity or close to it.
        ((0i64..10_000), (4_000u16..4_200)).prop_map(|(p, n)| Op::PushRun(p, n)),
        Just(Op::Pop),
        // Enough pops to drain a full buffer.
        (4_000u16..4_200).prop_map(Op::PopMany),
        ((0i64..10_000), (0u8..10)).prop_map(|(p, n)| Op::DropStale(p, n)),
        (0u16..6).prop_map(Op::Duplicate),
        // A duplicate flood that fills the buffer or close to it.
        (4_000u16..4_200).prop_map(Op::Duplicate),
    ]
}

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// What the checked pops have taken out so far.
#[derive(Default)]
struct Played {
    real: u64,
    dups: u64,
    last_pts: Option<MediaTime>,
}

/// Pop one unit. A real frame must come out in global presentation order:
/// never earlier than anything already presented, nor later than anything
/// still staged.
fn pop_checked(b: &mut MediaBuffer, played: &mut Played) -> Result<(), String> {
    match b.pop() {
        Some(Popped::Frame(f)) => {
            if let Some(lp) = played.last_pts {
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
            played.last_pts = Some(f.pts);
            played.real += 1;
        }
        Some(Popped::Duplicate) => played.dups += 1,
        None => ensure!(b.is_empty(), "pop returned None on non-empty buffer"),
    }
    Ok(())
}

/// Drive one operation sequence through a buffer, checking every
/// invariant after each step. Returns `Err` with a description on the first
/// violation, else the buffer's final counters. Shared by the property
/// below and the fixed regression tests.
fn check_ops(ops: &[Op]) -> Result<BufferStats, String> {
    let cfg = BufferConfig::with_window(MediaDuration::from_millis(400));
    let mut b = MediaBuffer::new(ComponentId::new(1), cfg, MediaDuration::from_millis(40));
    let mut seq = 0u64;
    let mut played = Played::default();
    for o in ops {
        match o {
            Op::Push(pts) => {
                b.push(frame(seq, *pts, false));
                seq += 1;
            }
            Op::PushRun(start, n) => {
                for i in 0..*n as i64 {
                    b.push(frame(seq, start + i, false));
                    seq += 1;
                }
            }
            Op::Pop => pop_checked(&mut b, &mut played)?,
            Op::PopMany(n) => {
                for _ in 0..*n {
                    pop_checked(&mut b, &mut played)?;
                }
            }
            Op::DropStale(pts, n) => {
                b.drop_stale(MediaTime::from_millis(*pts), *n as u32);
            }
            Op::Duplicate(n) => {
                b.duplicate_front(*n as u32);
            }
        }
        ensure!(b.len() <= CAPACITY_FRAMES, "capacity exceeded: {}", b.len());
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
            == s.frames_out + played.dups + s.frames_dropped + b.len() as u64,
        "accounting: in={} duplicated={} out={} dups_played={} dropped={} len={}",
        s.frames_in,
        s.frames_duplicated,
        s.frames_out,
        played.dups,
        s.frames_dropped,
        b.len()
    );
    ensure!(s.frames_out == played.real, "frames_out miscounted");
    ensure!(
        s.frames_duplicated >= played.dups,
        "more dups played than queued"
    );
    Ok(s)
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

/// `cc 6c13be6e…`, its floods scaled from the 32-frame buffer it shrank on
/// to the fixed capacity: duplicate floods respect the hard frame capacity
/// (the last one only partly fits) and the accounting stays balanced when
/// a push is then capacity-rejected.
#[test]
fn regression_duplicate_flood_respects_capacity() {
    check_ops(&[
        Op::Push(0),
        Op::Duplicate(2_000),
        Op::Duplicate(2_000),
        Op::Push(0),
        Op::Duplicate(200),
        Op::Push(0),
    ])
    .unwrap();
}

/// The buffer fills to capacity with real frames, out of pts order; the
/// pushes past capacity are rejected; then every staged frame drains in pts
/// order.
#[test]
fn regression_capacity_reject_then_drain_in_order() {
    let s = check_ops(&[
        Op::PushRun(5_000, 4_000),
        Op::Push(0),
        Op::PushRun(2_000, 200),
        Op::Push(1_000),
        Op::PopMany(4_100),
    ])
    .unwrap();
    let capacity = CAPACITY_FRAMES as u64;
    assert_eq!((s.frames_in, s.frames_out), (capacity, capacity));
    assert_eq!(s.frames_rejected, 4_000 + 1 + 200 + 1 - capacity);
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
