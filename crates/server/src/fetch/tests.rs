//! The fetch client driven with no simulator: a fake network view, streams
//! held in a `Vec`, and the output list read back as data.

use super::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

const HOME: NodeId = NodeId::new(1);
const NODES: [NodeId; 3] = [NodeId::new(10), NodeId::new(11), NodeId::new(12)];
const OBJECTS: [&str; 2] = ["clips/a.mpg", "clips/b.mpg"];
const SESSION: SessionId = SessionId::new(7);

#[derive(Default)]
struct Net {
    down: BTreeSet<NodeId>,
}

impl TierNet for Net {
    fn node_is_up(&self, node: NodeId) -> bool {
        !self.down.contains(&node)
    }
    fn propagation_micros(&self, from: NodeId, to: NodeId) -> i64 {
        assert_eq!(from, HOME, "propagation is measured from the server");
        100 + to.raw() as i64
    }
}

fn ms(t: i64) -> MediaTime {
    MediaTime::from_millis(t)
}

fn tier(breaker: bool, hedging: bool) -> MediaTier {
    let cfg = MediaTierConfig {
        breaker,
        hedging,
        ..MediaTierConfig::default()
    };
    MediaTier::new(cfg, PlacementMap::build(OBJECTS, &NODES, 2), HOME)
}

/// A demand at 100 frames a second: its [`FETCH_AHEAD`] window is 200
/// frames, so the three-deep pipeline binds before the window does.
fn demand(component: u64) -> Demand {
    Demand {
        session: SESSION,
        component: ComponentId::new(component),
        class: PricingClass::Standard,
        level: GradeLevel::NOMINAL,
        frame_period: MediaDuration::from_millis(10),
        frames_needed: 10_000,
    }
}

/// A demand at a video's 25 frames a second: a 50-frame window, which
/// two 32-frame segments cover.
fn video(component: u64) -> Demand {
    Demand {
        frame_period: MediaDuration::from_millis(40),
        ..demand(component)
    }
}

fn segment(r: &RemoteStream) -> Arc<[SegmentFrame]> {
    let frame = SegmentFrame {
        size: 900,
        key: false,
    };
    vec![frame; r.frames_per_segment as usize].into()
}

/// `(fetch id, replica, segment)` of every request in `out`.
fn requests(out: &[FetchOut]) -> Vec<(u64, NodeId, u64)> {
    let req = |o: &FetchOut| match o {
        FetchOut::Request { fetch, tag, .. } => Some((*fetch, tag.replica, tag.segment)),
        _ => None,
    };
    out.iter().filter_map(req).collect()
}

/// A tier with two streams over the first object (two readers, so the
/// cache admits its segments), the first one pumped: fetches 1, 2, 3 for
/// segments 0, 1, 2 are outstanding.
fn pumped(breaker: bool, hedging: bool) -> (MediaTier, Net, RemoteStream, RemoteStream) {
    let (mut t, net) = (tier(breaker, hedging), Net::default());
    let mut a = t.open(&net, OBJECTS[0], MediaKind::Video, 0).unwrap();
    let b = t.open(&net, OBJECTS[0], MediaKind::Video, 0).unwrap();
    let mut out = Vec::new();
    t.pump(&net, ms(0), &demand(0), &mut a, &mut out);
    let replica = a.replica;
    assert_eq!(
        requests(&out),
        [(1, replica, 0), (2, replica, 1), (3, replica, 2)],
        "the window is the configured pipeline"
    );
    assert_eq!(out[0], FetchOut::Adopt(SESSION));
    (t, net, a, b)
}

/// Frames are read in place, in order across segments, and a skip that
/// runs past a whole segment carries into the next one.
#[test]
fn ready_frames_are_read_in_place_across_segments() {
    let (mut t, net) = (tier(true, false), Net::default());
    let mut r = t.open(&net, OBJECTS[0], MediaKind::Video, 40).unwrap();
    r.skip = 40; // past all of segment 0 and 8 frames into segment 1
    let segs: Vec<Arc<[SegmentFrame]>> = (0..3u32)
        .map(|i| {
            let frames: Vec<SegmentFrame> = (0..32)
                .map(|k| SegmentFrame {
                    size: i * 100 + k,
                    key: k == 0,
                })
                .collect();
            frames.into()
        })
        .collect();
    for (i, seg) in segs.iter().enumerate() {
        r.pending.insert(i as u64, seg.clone());
    }
    r.next_append = 0;
    r.drain_ready();
    assert_eq!((r.ready.len(), r.skip), (56, 0));
    assert!(std::ptr::eq(r.ready.front().unwrap(), &segs[1][8]));
    let sizes: Vec<u32> = std::iter::from_fn(|| r.ready.pop_front())
        .map(|f| f.size)
        .collect();
    let want: Vec<u32> = (108..132).chain(200..232).collect();
    assert_eq!(sizes, want);
    assert!(r.ready.is_empty() && r.ready.front().is_none());
    r.ready.push_segment(segs[2].clone(), 32);
    assert!(
        r.ready.is_empty(),
        "a segment read to its end queues nothing"
    );
    r.ready.push_segment(segs[2].clone(), 31);
    assert_eq!(r.ready.len(), 1);
    r.ready.clear();
    assert!(r.ready.is_empty() && r.ready.pop_front().is_none());
}

#[test]
fn undistributed_content_and_dead_tiers_park_streams() {
    let (mut t, mut net) = (tier(true, false), Net::default());
    assert!(t.open(&net, "never/placed", MediaKind::Video, 0).is_none());
    net.down.extend(NODES);
    let mut r = t.open(&net, OBJECTS[0], MediaKind::Video, 70).unwrap();
    assert_eq!(r.replica, HOME, "parked on the server's own node");
    assert_eq!((r.next_request, r.skip), (2, 6), "frame 70 = segment 2 + 6");
    // Its pump asks nothing of the server's own node: the stream waits,
    // and the restart of either replica wakes it.
    let mut out = Vec::new();
    assert!(!t.repump(&net, ms(0), &demand(0), &mut r, &mut out));
    assert!(requests(&out).is_empty() && t.waits((SESSION, ComponentId::new(0))));
    let back = t.placement.replicas(OBJECTS[0])[1];
    net.down.remove(&back);
    out.clear();
    t.node_event(true, back, &mut out);
    assert_eq!(wakes(&out), [back]);
    let key = t.next_woken(&net, back, ms(0), None, &mut out);
    assert_eq!(key.map(|k| k.1), Some((SESSION, ComponentId::new(0))));
    net.down.clear();
    out.clear();
    assert!(t.repump(&net, ms(0), &demand(0), &mut r, &mut out));
    assert_eq!(requests(&out).len(), 3);
    let image = t.open(&net, OBJECTS[1], MediaKind::Image, 0).unwrap();
    assert_eq!(
        image.frames_per_segment, 1,
        "a discrete object is one frame"
    );
}

#[test]
fn a_shed_rolls_the_cursor_back_to_its_segment_only() {
    let (mut t, net, mut a, _b) = pumped(true, false);
    let mut out = Vec::new();
    let frames = segment(&a);
    let done = t.on_chunk(ms(5), 1, frames, true, 64, Some(&mut a), &mut out);
    assert!(done.appended && done.tripped == [None, None]);
    assert_eq!(out, [FetchOut::Latency(MediaDuration::from_millis(5))]);
    out.clear();
    t.pump(&net, ms(6), &demand(0), &mut a, &mut out);
    assert_eq!(requests(&out), [(4, a.replica, 3)]);
    out.clear();

    // Fetch 2 (segment 1) is shed: the stream waits, and the credit the
    // shed gave back wakes it — nothing else moves. It keeps its place in
    // the wait set until its refill asks.
    t.on_busy(&net, ms(7), 2, 64, Some((demand(0), &mut a)), &mut out);
    let stream = (SESSION, ComponentId::new(0));
    assert_eq!(out, [FetchOut::Wake(a.replica)]);
    assert_eq!(t.wait_index.keys().collect::<Vec<_>>(), [&stream]);
    let key = t.next_woken(&net, a.replica, ms(7), None, &mut out);
    assert_eq!(key.map(|k| k.1), Some(stream));
    assert_eq!(a.next_request, 1, "rolled back to the shed segment");
    assert_eq!(a.inflight.keys().copied().collect::<Vec<_>>(), [2, 3]);
    assert_eq!(a.ready.len(), 32, "fetched frames survive");
    assert_eq!((a.epoch, t.stats.busy, t.stats.breaker_trips), (0, 1, 0));
    out.clear();

    // The repump re-asks exactly that segment, then the frontier.
    assert!(t.repump(&net, ms(17), &demand(0), &mut a, &mut out));
    assert_eq!(requests(&out), [(5, a.replica, 1)]);
    assert!(t.waiting.is_empty() && t.wait_index.is_empty());
    out.clear();
    let frames = segment(&a);
    t.on_chunk(ms(18), 3, frames, true, 64, Some(&mut a), &mut out);
    assert_eq!(a.ready.len(), 32, "segment 2 waits behind segment 1");
    out.clear();
    t.pump(&net, ms(18), &demand(0), &mut a, &mut out);
    assert_eq!(requests(&out), [(6, a.replica, 4)], "2 and 3 are covered");

    // The same shed answered twice, or for an unknown id, only counts.
    out.clear();
    t.on_busy(&net, ms(18), 2, 64, Some((demand(0), &mut a)), &mut out);
    t.on_busy(&net, ms(18), 99, 64, None, &mut out);
    assert!(out.is_empty());
    assert_eq!(t.stats.busy, 3);
}

#[test]
fn without_the_breaker_a_shed_is_re_asked_at_once() {
    let (mut t, net, mut a, _b) = pumped(false, false);
    let mut out = Vec::new();
    t.on_busy(&net, ms(1), 3, 64, Some((demand(0), &mut a)), &mut out);
    assert_eq!(out[0], FetchOut::Adopt(SESSION));
    assert_eq!(requests(&out), [(4, a.replica, 2)]);
    // A stream that is no longer live gets no retry.
    out.clear();
    t.on_busy(&net, ms(2), 4, 64, None, &mut out);
    assert!(out.is_empty() && t.owner(4).is_none());
}

#[test]
fn a_stale_epoch_chunk_is_cached_but_not_appended() {
    let (mut t, net, mut a, mut b) = pumped(true, false);
    let mut out = Vec::new();
    a.restart(SESSION, ComponentId::new(0), &mut out);
    assert!(matches!(
        out[..],
        [FetchOut::Event {
            name: "stream_epoch",
            value: 1,
            ..
        }]
    ));
    assert!(a.inflight.is_empty() && a.next_request == 0);
    let frames = segment(&a);
    let done = t.on_chunk(ms(3), 1, frames, true, 64, Some(&mut a), &mut out);
    assert!(!done.appended);
    assert!(a.ready.is_empty() && a.pending.is_empty());
    // The sibling stream finds segment 0 resident and asks for 1.. only.
    out.clear();
    t.pump(&net, ms(4), &demand(1), &mut b, &mut out);
    assert_eq!(b.ready.len(), 32);
    assert_eq!(requests(&out).iter().map(|r| r.2).min(), Some(1));
    assert_eq!(t.cache.stats.hits, 1);
    // A part that is not the last one is counted and nothing else.
    let before = t.stats;
    let done = t.on_chunk(ms(5), 2, Arc::default(), false, 64, Some(&mut a), &mut out);
    assert_eq!(done, ChunkDone::default());
    assert_eq!(t.stats.parts_received, before.parts_received + 1);
    assert!(t.owner(2).is_some());
}

/// Pump, then let fetch 1's hedge delay expire: returns the duplicate.
fn hedged() -> (MediaTier, Net, RemoteStream, (u64, NodeId)) {
    let (mut t, net, a, _b) = pumped(true, true);
    let mut out = Vec::new();
    let class = PricingClass::Standard;
    t.on_hedge_timer(&net, ms(250), 1, Some((&a, class)), &mut out);
    let [(hedge, alt, 0)] = requests(&out)[..] else {
        panic!("no hedge issued: {out:?}");
    };
    assert!(alt != a.replica && t.placement.replicas(&a.object).contains(&alt));
    // Never twice, never a hedge of a hedge, never for a stream that moved.
    out.clear();
    t.on_hedge_timer(&net, ms(251), 1, Some((&a, class)), &mut out);
    t.on_hedge_timer(&net, ms(251), hedge, Some((&a, class)), &mut out);
    t.on_hedge_timer(&net, ms(251), 2, None, &mut out);
    assert!(out.is_empty() && t.stats.hedges == 1);
    (t, net, a, (hedge, alt))
}

#[test]
fn a_hedge_that_wins_cancels_the_primary() {
    let (mut t, _net, mut a, (hedge, _)) = hedged();
    let (primary_node, mut out) = (a.replica, Vec::new());
    let frames = segment(&a);
    let done = t.on_chunk(ms(260), hedge, frames, true, 64, Some(&mut a), &mut out);
    assert!(done.appended && a.ready.len() == 32);
    let cancel = FetchOut::Cancel {
        fetch: 1,
        replica: primary_node,
    };
    assert_eq!(
        out,
        [FetchOut::Latency(MediaDuration::from_millis(10)), cancel]
    );
    assert_eq!((t.stats.hedge_wins, t.stats.hedge_cancels), (1, 1));
    assert!(t.owner(1).is_none() && t.hedge_pairs.is_empty());
    // The loser's late answer is a chunk for an unknown fetch.
    out.clear();
    let done = t.on_chunk(ms(270), 1, segment(&a), true, 64, Some(&mut a), &mut out);
    assert!(!done.appended && out.is_empty() && a.ready.len() == 32);
}

#[test]
fn a_hedge_that_loses_is_cancelled_and_not_a_win() {
    let (mut t, _net, mut a, (hedge, alt)) = hedged();
    let mut out = Vec::new();
    let frames = segment(&a);
    let done = t.on_chunk(ms(255), 1, frames, true, 64, Some(&mut a), &mut out);
    assert!(done.appended);
    assert_eq!(
        out[1],
        FetchOut::Cancel {
            fetch: hedge,
            replica: alt
        }
    );
    assert_eq!((t.stats.hedge_wins, t.stats.hedge_cancels), (0, 1));
}

#[test]
fn a_shed_half_of_a_race_leaves_the_other_half_carrying_the_segment() {
    let (mut t, net, mut a, (hedge, _)) = hedged();
    let mut out = Vec::new();
    t.on_busy(&net, ms(252), 1, 64, Some((demand(0), &mut a)), &mut out);
    assert!(out.is_empty(), "no retry while the partner races on");
    assert_eq!(a.next_request, 3, "no roll-back either");
    assert!(t.hedge_pairs.is_empty() && t.owner(hedge).is_some());
    let frames = segment(&a);
    let done = t.on_chunk(ms(260), hedge, frames, true, 64, Some(&mut a), &mut out);
    assert!(done.appended && !a.inflight.contains_key(&0));
    assert_eq!(t.stats.hedge_wins, 0, "the race was already off");
}

#[test]
fn a_refused_fetch_is_scored_and_returned_to_be_stopped() {
    let (mut t, _net, a, _b) = pumped(true, false);
    let mut out = Vec::new();
    let tag = t.on_error(ms(1), 2, &mut out).expect("outstanding");
    assert_eq!((tag.segment, tag.epoch, tag.replica), (1, 0, a.replica));
    assert!(matches!(
        out[..],
        [FetchOut::Event {
            name: "fetch_error",
            severity: Severity::Warn,
            dump: false,
            ..
        }]
    ));
    assert!(t.on_error(ms(2), 2, &mut out).is_none());
    assert_eq!((t.stats.fetch_errors, out.len()), (1, 1));
}

#[test]
fn failures_trip_the_breaker_once_and_the_trip_is_an_alarm() {
    let (mut t, net, mut a, _b) = pumped(true, false);
    let (node, mut out) = (a.replica, Vec::new());
    let mut trips = 0;
    for round in 0..20 {
        let fetches: Vec<u64> = a.inflight.values().copied().collect();
        for f in fetches {
            out.clear();
            t.on_error(ms(round), f, &mut out);
            trips += out
                .iter()
                .filter(|o| {
                    matches!(
                        o,
                        FetchOut::Event {
                            name: "breaker_trip",
                            dump: true,
                            ..
                        }
                    )
                })
                .count();
        }
        a.restart(SESSION, ComponentId::new(0), &mut out);
        t.pump(&net, ms(round), &demand(0), &mut a, &mut out);
    }
    assert_eq!((trips, t.stats.breaker_trips), (1, 1));
    assert!(a.inflight.is_empty(), "an open circuit holds the window");
    let timer = |o: &FetchOut| matches!(o, FetchOut::GateTimer { node: n, .. } if *n == node);
    assert!(
        t.waits((SESSION, ComponentId::new(0))) && out.iter().any(timer),
        "until its gate timer wakes it"
    );
    // The transition record skips the trip and reports the rest.
    out.clear();
    t.node_event(true, node, &mut out);
    t.breaker_events(&mut out);
    let names: Vec<&str> = out
        .iter()
        .filter_map(|o| match o {
            FetchOut::Event { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    assert_eq!(names, ["media_failover", "breaker_reset"]);
}

#[test]
fn a_node_event_writes_off_that_nodes_fetches_only() {
    let (mut t, net, a, mut b) = pumped(true, true);
    let mut out = Vec::new();
    // Point the sibling at the other replica and hedge fetch 1 there too.
    let other = *t
        .placement
        .replicas(&a.object)
        .iter()
        .find(|&&n| n != a.replica)
        .unwrap();
    b.replica = other;
    t.pump(&net, ms(0), &demand(1), &mut b, &mut out);
    let class = PricingClass::Standard;
    t.on_hedge_timer(&net, ms(250), 1, Some((&a, class)), &mut out);
    assert_eq!(t.selector.outstanding(other), 4);
    out.clear();

    t.node_event(true, a.replica, &mut out);
    assert!(matches!(
        out[..],
        [FetchOut::Event {
            name: "media_failover",
            dump: true,
            ..
        }]
    ));
    assert_eq!(t.stats.fetches_lost, 3);
    assert_eq!(t.selector.outstanding(a.replica), 0);
    assert!(t.hedge_pairs.is_empty(), "the survivor races nobody");
    assert!(t.inflight.values().all(|tag| tag.replica == other));
    assert_eq!(t.inflight.len(), 4);

    // A graceful drain of the other node cancels what it still holds.
    out.clear();
    let placement = t.placement.clone();
    t.drain(&net, placement, Some(other), &mut out);
    let cancels = out
        .iter()
        .filter(|o| matches!(o, FetchOut::Cancel { replica, .. } if *replica == other))
        .count();
    assert_eq!((cancels, out.len()), (4, 5));
    assert!(t.inflight.is_empty() && t.stats.fetches_lost == 3);
}

#[test]
fn a_crash_forgets_everything_but_the_totals() {
    let (mut t, net, mut a, _b) = pumped(true, true);
    let mut out = Vec::new();
    let frames = segment(&a);
    t.on_chunk(ms(9), 1, frames, true, 64, Some(&mut a), &mut out);
    let (stats, cache) = (t.stats, t.cache.stats);
    t.crash();
    assert!(t.inflight.is_empty() && t.hedge_pairs.is_empty() && t.cache.is_empty());
    assert_eq!((t.stats, t.cache.stats), (stats, cache));
    assert_eq!(t.selector.outstanding(a.replica), 0);
    // Fetch ids keep counting, so a late answer cannot alias a new fetch.
    let mut fresh = t.open(&net, OBJECTS[0], MediaKind::Video, 0).unwrap();
    out.clear();
    t.pump(&net, ms(10), &demand(2), &mut fresh, &mut out);
    assert_eq!(requests(&out)[0].0, 4);
}

#[test]
fn the_pump_stops_at_the_window_and_refills_as_the_pacer_drains_it() {
    let (mut t, net) = (tier(true, false), Net::default());
    let mut r = t.open(&net, OBJECTS[0], MediaKind::Video, 0).unwrap();
    let (x, mut out) = (r.replica, Vec::new());
    t.pump(&net, ms(0), &video(0), &mut r, &mut out);
    assert_eq!(
        requests(&out),
        [(1, x, 0), (2, x, 1)],
        "two segments cover 2 s of video"
    );
    for fetch in [1, 2] {
        t.on_chunk(ms(5), fetch, segment(&r), true, 64, Some(&mut r), &mut out);
    }
    out.clear();
    t.pump(&net, ms(6), &video(0), &mut r, &mut out);
    assert!(requests(&out).is_empty() && r.ready.len() == 64);
    // The pacer plays 14 frames: 50 left is still the window.
    for _ in 0..14 {
        r.ready.pop_front();
    }
    t.pump(&net, ms(566), &video(0), &mut r, &mut out);
    assert!(requests(&out).is_empty());
    // One more and the window has room: the next segment is asked.
    r.ready.pop_front();
    t.pump(&net, ms(606), &video(0), &mut r, &mut out);
    assert_eq!(requests(&out), [(3, x, 2)]);
    // What the pacer will still send bounds the window too: a patch
    // stream 20 frames short of its end asks one segment, one at its end
    // asks none.
    let mut patch = t.open(&net, OBJECTS[1], MediaKind::Video, 0).unwrap();
    out.clear();
    t.pump(&net, ms(606), &needing(1, 20), &mut patch, &mut out);
    assert_eq!(requests(&out).len(), 1);
    out.clear();
    t.pump(&net, ms(606), &needing(1, 0), &mut patch, &mut out);
    assert!(requests(&out).is_empty());
}

#[test]
fn a_fetch_is_counted_late_once_when_overdue_and_gives_no_sample_on_landing() {
    let (mut t, net) = (tier(true, false), Net::default());
    let mut r = t.open(&net, OBJECTS[0], MediaKind::Video, 0).unwrap();
    let mut out = Vec::new();
    t.pump(&net, ms(0), &video(0), &mut r, &mut out);
    assert_eq!(requests(&out).len(), 2);
    let late = MediaDuration::from_millis(150);
    assert_eq!(
        t.newly_late(ms(150), late),
        0,
        "at the threshold is on time"
    );
    // Fetch 1 lands on time and gives its sample.
    out.clear();
    t.on_chunk(ms(100), 1, segment(&r), true, 64, Some(&mut r), &mut out);
    let samples = |out: &[FetchOut]| {
        out.iter()
            .filter(|o| matches!(o, FetchOut::Latency(_)))
            .count()
    };
    assert_eq!(samples(&out), 1);
    // Fetch 2 is still out at 151 ms: late now, and only once.
    assert_eq!(t.newly_late(ms(151), late), 1);
    assert_eq!(t.newly_late(ms(400), late), 0);
    // A fetch issued after the scan is judged on its own issue time.
    out.clear();
    r.ready.clear();
    t.pump(&net, ms(400), &video(0), &mut r, &mut out);
    let third = requests(&out)[0].0;
    assert_eq!(t.newly_late(ms(500), late), 0);
    // Fetch 2 lands: counted already, so no second sample.
    out.clear();
    t.on_chunk(ms(600), 2, segment(&r), true, 64, Some(&mut r), &mut out);
    assert_eq!(samples(&out), 0);
    assert_eq!(t.newly_late(ms(600), late), 1, "fetch {third} is now late");
    out.clear();
    t.on_chunk(
        ms(650),
        third,
        segment(&r),
        true,
        64,
        Some(&mut r),
        &mut out,
    );
    assert_eq!(samples(&out), 0);
}

#[test]
fn a_written_off_fetch_leaves_its_window_or_passes_to_its_hedge() {
    let (mut t, net, mut a, (hedge, alt)) = hedged();
    let x = a.replica;
    // The stream has moved on to the alternate (its credit at x ran out)
    // when x crashes: nothing re-points it, so the write-off must reach it.
    a.replica = alt;
    let mut out = Vec::new();
    let lost = t.node_event(false, x, &mut out);
    let ids: Vec<(u64, Option<u64>)> = lost.iter().map(|l| (l.fetch, l.survivor)).collect();
    assert_eq!(ids, [(1, Some(hedge)), (2, None), (3, None)]);
    for l in &lost {
        a.forget(l);
    }
    assert_eq!(a.inflight.iter().collect::<Vec<_>>(), [(&0, &hedge)]);
    assert_eq!(a.next_request, 1, "segments 1 and 2 are re-asked");
    out.clear();
    t.pump(&net, ms(300), &demand(0), &mut a, &mut out);
    assert_eq!(requests(&out), [(5, alt, 1), (6, alt, 2)]);
    // The hedge lands and carries segment 0.
    let frames = segment(&a);
    let done = t.on_chunk(ms(310), hedge, frames, true, 64, Some(&mut a), &mut out);
    assert!(done.appended && a.ready.len() == 32 && !a.inflight.contains_key(&0));
    // A fetch the window no longer names, or of an older epoch, changes
    // nothing.
    let window = a.inflight.clone();
    a.forget(&lost[0]);
    a.forget(&lost[1]);
    assert_eq!((a.inflight.clone(), a.next_request), (window, 3));
    a.retarget(32);
    a.forget(&LostFetch {
        fetch: 5,
        ..lost[1]
    });
    assert_eq!(a.next_request, 1);
}

// ---------------------------------------------------------------------------
// The credit window
// ---------------------------------------------------------------------------

/// The replica of `r`'s object that `r` is not pulling from.
fn other(t: &MediaTier, r: &RemoteStream) -> NodeId {
    let replicas = t.placement.replicas(&r.object);
    *replicas.iter().find(|&&n| n != r.replica).unwrap()
}

/// The nodes `out` says to run a wake round at.
fn wakes(out: &[FetchOut]) -> Vec<NodeId> {
    let wake = |o: &FetchOut| match o {
        FetchOut::Wake(node) => Some(*node),
        _ => None,
    };
    out.iter().filter_map(wake).collect()
}

/// Run the wake rounds `out` names, as the actor does: `refill` each
/// waiter the tier names (by component), until the node's room or its
/// waiters run out. Returns the components woken, in order.
fn rounds(
    t: &mut MediaTier,
    net: &Net,
    now: MediaTime,
    out: &mut Vec<FetchOut>,
    mut refill: impl FnMut(&mut MediaTier, u64, &mut Vec<FetchOut>),
) -> Vec<u64> {
    let mut woken = Vec::new();
    for node in wakes(out) {
        let mut after = None;
        while let Some(key) = t.next_woken(net, node, now, after, out) {
            after = Some(key);
            woken.push(key.1 .1.raw());
            refill(t, key.1 .1.raw(), out);
        }
    }
    woken
}

fn events(out: &[FetchOut], wanted: &str) -> usize {
    let named = |o: &&FetchOut| matches!(o, FetchOut::Event { name, .. } if *name == wanted);
    out.iter().filter(named).count()
}

/// A demand for exactly `frames` more frames.
fn needing(component: u64, frames: u64) -> Demand {
    Demand {
        frames_needed: frames,
        ..demand(component)
    }
}

#[test]
fn a_grant_is_learned_from_a_chunk_and_a_busy_and_the_gate_holds_at_it() {
    let (mut t, mut net, mut a, mut b) = pumped(true, false);
    let (x, y, mut out) = (a.replica, other(&t, &a), Vec::new());
    assert_eq!(
        t.room(x, ms(0)),
        u64::MAX,
        "a node that has not said is open"
    );
    // The chunk grants 3: fetches 2 and 3 are still out, so one more fits.
    t.on_chunk(ms(5), 1, segment(&a), true, 3, Some(&mut a), &mut out);
    assert_eq!((t.grants[&x], t.room(x, ms(5))), (3, 1));
    out.clear();
    t.pump(&net, ms(6), &demand(0), &mut a, &mut out);
    assert_eq!((requests(&out), t.room(x, ms(6))), (vec![(4, x, 3)], 0));

    // The sibling finds x full and its other replica down: it waits, dry.
    net.down.insert(y);
    b.replica = x;
    b.retarget(320); // past the segment the chunk left in the cache
    out.clear();
    t.pump(&net, ms(7), &demand(1), &mut b, &mut out);
    assert!(requests(&out).is_empty() && events(&out, "fetch_wait") == 0);
    let waiter = (SESSION, ComponentId::new(1));
    assert_eq!(t.wait_index.get(&waiter), Some(&ms(7)));
    // Its pacer halts it dry there, and that leaves the evidence.
    t.halted_dry(&net, &demand(1), &b, &mut out);
    assert_eq!(events(&out, "fetch_wait"), 1);
    // Pumping again moves nothing.
    out.clear();
    t.pump(&net, ms(47), &demand(1), &mut b, &mut out);
    assert_eq!(out, [FetchOut::Adopt(SESSION)]);
    assert_eq!(t.waiting.keys().collect::<Vec<_>>(), [&(ms(7), waiter)]);

    // A busy narrows the grant to 1: its own credit comes back, but two
    // fetches are still out, so the round it asks for wakes nobody, and
    // the shed stream waits behind the dry one (it still has a segment
    // buffered).
    out.clear();
    t.on_busy(&net, ms(50), 2, 1, Some((demand(0), &mut a)), &mut out);
    assert_eq!(out, [FetchOut::Wake(x)]);
    assert_eq!(t.next_woken(&net, x, ms(50), None, &mut out), None);
    assert_eq!((t.grants[&x], t.room(x, ms(50))), (1, 0));
    let order: Vec<u64> = t.waiting.keys().map(|(_, s)| s.1.raw()).collect();
    assert_eq!(order, [1, 0]);

    // With the other replica back the sibling re-picks it and stops waiting.
    net.down.clear();
    t.pump(&net, ms(51), &demand(1), &mut b, &mut out);
    assert_eq!(requests(&out).len(), 3);
    assert!(requests(&out).iter().all(|r| r.1 == y) && b.replica == y);
    assert!(!t.wait_index.contains_key(&waiter));
}

#[test]
fn a_tripped_replica_has_room_nobody_may_use() {
    let (mut t, net, a, mut b) = pumped(true, false);
    let (x, y, mut out) = (a.replica, other(&t, &a), Vec::new());
    t.grants.insert(x, 3);
    while t.health.state(y) == BreakerState::Closed {
        t.health.record_failure(y, ms(0));
    }
    // x is full and y is open: the sibling waits where it is rather than
    // move to the one replica with room. Each replica's gate timer is set
    // for the moment the clock opens it: y's when its open timeout runs
    // out, x's when the first fetch holding a credit there passes its
    // deadline. Until then a round at y wakes nobody, and arms no second
    // timer.
    b.replica = x;
    b.retarget(320);
    t.pump(&net, ms(1), &demand(1), &mut b, &mut out);
    assert!(requests(&out).is_empty() && b.replica == x && t.waiting.len() == 1);
    let timers = [(y, 499_000), (x, 819_001)].map(|(node, us)| FetchOut::GateTimer {
        node,
        delay: MediaDuration::from_micros(us),
    });
    assert_eq!(out[1..], timers);
    out.clear();
    assert_eq!(t.next_woken(&net, y, ms(2), None, &mut out), None);
    assert!(out.is_empty());
    t.on_gate_timer(y, &mut out);
    assert_eq!(out, [FetchOut::Wake(y)]);
    let key = t.next_woken(&net, y, ms(500), None, &mut out);
    assert_eq!(key.map(|k| k.1 .1.raw()), Some(1));
    out.clear();
    t.pump(&net, ms(500), &demand(1), &mut b, &mut out);
    assert!(
        b.replica == y && requests(&out).len() == 2,
        "two probe slots"
    );
    // Both taken, the stream waits again, on a new timer for when the
    // slots go stale.
    let timer = FetchOut::GateTimer {
        node: y,
        delay: MediaDuration::from_millis(500),
    };
    assert!(t.waiting.len() == 1 && out.ends_with(&[timer]));
}

#[test]
fn a_fetch_past_its_deadline_holds_no_credit() {
    let (mut t, _net, a, _b) = pumped(true, false);
    t.grants.insert(a.replica, 3);
    let deadlines = || t.inflight.values().map(|tag| tag.deadline);
    assert_eq!(t.room(a.replica, deadlines().min().unwrap()), 0);
    let later = deadlines().max().unwrap() + MediaDuration::from_micros(1);
    assert_eq!(
        t.room(a.replica, later),
        3,
        "never answered: lost or in service"
    );
    // The gate agrees at the grant, below it and with no grant at all.
    let early = deadlines().min().unwrap();
    assert!(!t.has_room(a.replica, early) && t.has_room(a.replica, later));
    t.grants.insert(a.replica, 4);
    assert!(t.has_room(a.replica, early) && t.room(a.replica, early) == 1);
    t.grants.clear();
    assert!(t.has_room(a.replica, early));
}

/// Both replicas of the first object grant one fetch and a hog holds both;
/// streams 1, 2, 3 then wait with 10, 0 and 5 frames buffered.
fn three_waiters() -> (MediaTier, Net, Vec<RemoteStream>) {
    let (mut t, net) = (tier(true, false), Net::default());
    let mut streams: Vec<RemoteStream> = (0..4)
        .map(|_| t.open(&net, OBJECTS[0], MediaKind::Video, 0).unwrap())
        .collect();
    for &n in t.placement.replicas(OBJECTS[0]) {
        t.grants.insert(n, 1);
    }
    let mut out = Vec::new();
    t.pump(&net, ms(0), &needing(0, 64), &mut streams[0], &mut out);
    assert_eq!(requests(&out).len(), 2, "one fetch at each replica");
    assert!(t.waiting.is_empty(), "the hog is covered");
    out.clear();
    for (i, buffered) in [(1, 10), (2, 0), (3, 5)] {
        let frame = segment(&streams[i])[0];
        streams[i]
            .ready
            .push_segment(vec![frame; buffered].into(), 0);
        t.pump(&net, ms(100), &demand(i as u64), &mut streams[i], &mut out);
    }
    assert!(requests(&out).is_empty());
    assert_eq!(events(&out, "fetch_wait"), 0, "a pump leaves no evidence");
    (t, net, streams)
}

#[test]
fn a_credit_a_deadline_frees_wakes_the_most_urgent_waiter() {
    let (mut t, net, mut s) = three_waiters();
    // No settle is coming soon enough: each replica's gate timer is set for
    // the moment the hog's fetch there passes its deadline and stops
    // holding the node's one credit.
    let mut replicas = t.placement.replicas(OBJECTS[0]).to_vec();
    replicas.sort();
    assert!(t.gate_timers.iter().eq(&replicas));
    let (&fetch, tag) = t.inflight.iter().next().unwrap();
    let (x, expired) = (tag.replica, tag.deadline + MediaDuration::from_micros(1));
    assert!(!t.has_room(x, tag.deadline) && t.has_room(x, expired));
    let mut out = Vec::new();
    t.on_gate_timer(x, &mut out);
    assert_eq!(out, [FetchOut::Wake(x)]);
    let woken = rounds(&mut t, &net, expired, &mut out, |t, c, out| {
        assert!(t.repump(&net, expired, &demand(c), &mut s[c as usize], out));
    });
    assert_eq!(woken, [2], "the dry one");
    assert_eq!(requests(&out).iter().map(|r| r.1).collect::<Vec<_>>(), [x]);
    // The hog's fetch, answered late, gives nothing back: x is full again.
    out.clear();
    t.on_chunk(
        expired,
        fetch,
        segment(&s[0]),
        true,
        1,
        Some(&mut s[0]),
        &mut out,
    );
    assert!(!t.has_room(x, expired));
}

#[test]
fn a_waiter_finds_a_segment_another_stream_brought_into_the_cache() {
    let (mut t, net, mut s) = three_waiters();
    // The hog's segment 0 lands: the cache holds it, and the dry stream,
    // one of the three waiting on the object, finds its frames there.
    let mut out = Vec::new();
    let frames = segment(&s[0]);
    t.on_chunk(ms(110), 1, frames, true, 1, Some(&mut s[0]), &mut out);
    let mut waiters = Vec::new();
    while let Some(key) = t.next_waiter(waiters.last().copied(), Some(OBJECTS[0])) {
        waiters.push(key);
    }
    assert_eq!(waiters.len(), 3);
    out.clear();
    assert!(t.repump(&net, ms(110), &demand(2), &mut s[2], &mut out));
    assert_eq!(s[2].ready.len(), 32, "segment 0 from the cache");
    let asked: Vec<u64> = requests(&out).iter().map(|r| r.2).collect();
    assert_eq!(asked, [1], "the credit the hog gave back asks the next");
}

#[test]
fn waiters_are_ordered_by_when_they_run_dry_and_woken_in_that_order() {
    let (mut t, net, mut s) = three_waiters();
    let keys: Vec<(MediaTime, u64)> = t.waiting.keys().map(|(at, s)| (*at, s.1.raw())).collect();
    assert_eq!(keys, [(ms(100), 2), (ms(150), 3), (ms(200), 1)]);
    // One credit back, one waiter woken: the most urgent. The actor
    // refills it: one fetch fits, and it waits again for the rest — now
    // behind the others, with a segment on its way — and the node is full.
    let (mut out, frames) = (Vec::new(), segment(&s[0]));
    let x = t.inflight[&1].replica;
    t.on_chunk(
        ms(110),
        1,
        frames.clone(),
        true,
        1,
        Some(&mut s[0]),
        &mut out,
    );
    assert_eq!(wakes(&out), [x]);
    let woken = rounds(&mut t, &net, ms(110), &mut out, |t, c, out| {
        assert!(t.repump(&net, ms(110), &demand(c), &mut s[c as usize], out));
    });
    assert_eq!(woken, [2]);
    assert_eq!(requests(&out).len(), 1);
    let order: Vec<u64> = t.waiting.keys().map(|(_, s)| s.1.raw()).collect();
    assert_eq!(order, [3, 1, 2]);
    // A torn-down waiter (the actor finds no stream and takes it out of the
    // wait set) is woken like any other and costs nothing: the round goes
    // on to the next, retargeted one, and the credit is not lost.
    out.clear();
    s[1].retarget(70);
    t.on_chunk(ms(120), 2, frames, true, 1, Some(&mut s[0]), &mut out);
    let woken = rounds(&mut t, &net, ms(120), &mut out, |t, c, out| match c {
        3 => t.unwait((SESSION, ComponentId::new(3))),
        _ => assert!(t.repump(&net, ms(120), &demand(c), &mut s[c as usize], out)),
    });
    assert_eq!(woken, [3, 1], "stream 3 is gone: nobody refills");
    assert_eq!(requests(&out).iter().map(|r| r.2).collect::<Vec<_>>(), [2]);
    // The wait set and its index still tell one story.
    assert_eq!(t.waiting.len(), t.wait_index.len());
}

#[test]
fn a_woken_waiter_whose_credit_was_taken_keeps_its_place() {
    let (mut t, net, mut s) = three_waiters();
    let (mut out, frames) = (Vec::new(), segment(&s[0]));
    let x = t.inflight[&1].replica;
    t.on_chunk(ms(110), 1, frames, true, 1, Some(&mut s[0]), &mut out);
    assert_eq!(wakes(&out), [x]);
    // Before the round, stream 1 — not dry: it has frames to send — pumps
    // before its next frame and takes the credit (segment 0 is a cache
    // hit, segment 1 a fetch), then waits again for the rest of its
    // window: 10 + 64 frames from now.
    out.clear();
    t.pump(&net, ms(110), &demand(1), &mut s[1], &mut out);
    assert_eq!(requests(&out).len(), 1);
    // The round then wakes nobody, and a refill of stream 2 finds no
    // credit: it keeps its place.
    assert_eq!(t.next_woken(&net, x, ms(110), None, &mut out), None);
    out.clear();
    assert!(t.repump(&net, ms(110), &demand(2), &mut s[2], &mut out));
    assert!(requests(&out).is_empty());
    let keys: Vec<(MediaTime, u64)> = t.waiting.keys().map(|(at, s)| (*at, s.1.raw())).collect();
    assert_eq!(keys, [(ms(100), 2), (ms(150), 3), (ms(850), 1)]);
    // A waiter with nothing left to ask for leaves the set when it pumps,
    // so it cannot hold the head for a credit it would not use.
    t.pump(&net, ms(120), &needing(3, 5), &mut s[3], &mut out);
    assert!(requests(&out).is_empty());
    let order: Vec<u64> = t.waiting.keys().map(|(_, s)| s.1.raw()).collect();
    assert_eq!(order, [2, 1]);
    assert_eq!(t.waiting.len(), t.wait_index.len());
}

#[test]
fn a_freed_credit_goes_to_the_most_urgent_waiter_that_node_can_serve() {
    // Two objects and a node that holds the first but not the second.
    let names: Vec<String> = (0..32).map(|i| format!("clips/{i}.mpg")).collect();
    let placement = PlacementMap::build(names.iter().map(String::as_str), &NODES, 2);
    let find = |holds: bool| {
        let on_x = |n: &&String| placement.replicas(n).contains(&NODES[0]) == holds;
        names.iter().find(on_x).unwrap().clone()
    };
    let (here, elsewhere) = (find(true), find(false));
    let mut t = MediaTier::new(MediaTierConfig::default(), placement, HOME);
    let net = Net::default();
    for n in NODES {
        t.grants.insert(n, 1);
    }
    // A hog over each object fills all three windows.
    let mut out = Vec::new();
    let mut hogs = [&here, &elsewhere].map(|o| t.open(&net, o, MediaKind::Video, 0).unwrap());
    for (i, hog) in hogs.iter_mut().enumerate() {
        t.pump(&net, ms(0), &needing(i as u64, 64), hog, &mut out);
    }
    assert!(NODES.iter().all(|&n| t.room(n, ms(0)) == 0));
    // The dry waiter cannot use the node; the one with frames in hand can.
    let mut dry = t.open(&net, &elsewhere, MediaKind::Video, 0).unwrap();
    let mut buffered = t.open(&net, &here, MediaKind::Video, 0).unwrap();
    buffered.ready.push_segment(segment(&buffered), 0);
    t.pump(&net, ms(10), &demand(2), &mut dry, &mut out);
    t.pump(&net, ms(10), &demand(3), &mut buffered, &mut out);
    assert_eq!(t.waiting.keys().next().unwrap().1 .1.raw(), 2);
    let at_x = t.inflight.iter().find(|(_, tag)| tag.replica == NODES[0]);
    let (&fetch, _) = at_x.expect("a hog holds the node's one credit");
    out.clear();
    t.on_error(ms(20), fetch, &mut out);
    let mut streams = [dry, buffered];
    let woken = rounds(&mut t, &net, ms(20), &mut out, |t, c, out| {
        assert!(t.repump(&net, ms(20), &demand(c), &mut streams[c as usize - 2], out));
    });
    assert_eq!(woken, [3]);
    let dry = (SESSION, ComponentId::new(2));
    assert!(
        t.wait_index.contains_key(&dry),
        "the more urgent one waits on"
    );
}

#[test]
fn a_credit_a_woken_waiter_leaves_goes_to_the_next() {
    // Object A on z and x, object B on x and y: x serves both.
    let names: Vec<String> = (0..32).map(|i| format!("clips/{i}.mpg")).collect();
    let placement = PlacementMap::build(names.iter().map(String::as_str), &NODES, 2);
    let on = |pair: [NodeId; 2]| {
        let exact = |n: &&String| pair.iter().all(|p| placement.replicas(n).contains(p));
        names.iter().find(exact).unwrap().clone()
    };
    let [z, x, y] = NODES;
    let (a, b) = (on([z, x]), on([x, y]));
    let mut t = MediaTier::new(MediaTierConfig::default(), placement, HOME);
    let net = Net::default();
    t.grants.extend([(z, 1), (x, 2), (y, 1)]);
    // Hogs fill every window: one fetch at z issued at 0 ms, due by
    // 820 ms; two at x and one at y issued at 500 ms.
    let mut out = Vec::new();
    for (i, (object, node, at)) in [(&a, z, 0), (&a, x, 500), (&b, x, 500), (&b, y, 500)]
        .into_iter()
        .enumerate()
    {
        let mut hog = t.open(&net, object, MediaKind::Video, 0).unwrap();
        hog.replica = node;
        t.pump(
            &net,
            ms(at),
            &needing(10 + i as u64, 32),
            &mut hog,
            &mut out,
        );
    }
    assert!(NODES.iter().all(|&n| !t.has_room(n, ms(500))));
    // The dry waiter over A wants one segment; the one over B has frames.
    let mut streams = [a, b].map(|o| t.open(&net, &o, MediaKind::Video, 0).unwrap());
    streams[1].ready.push_segment(segment(&streams[1]), 0);
    t.pump(&net, ms(510), &needing(0, 32), &mut streams[0], &mut out);
    t.pump(&net, ms(510), &demand(1), &mut streams[1], &mut out);
    assert_eq!(t.waiting.len(), 2);
    // By 900 ms the fetch at z is past its deadline and holds no credit.
    // A fetch at x lands: the round there wakes the dry waiter first, which
    // takes the credit z has had since, and the round goes on to the next.
    let at_x = t.inflight.iter().find(|(_, tag)| tag.replica == x);
    let (&fetch, _) = at_x.unwrap();
    out.clear();
    t.on_chunk(
        ms(900),
        fetch,
        segment(&streams[0]),
        true,
        2,
        None,
        &mut out,
    );
    let woken = rounds(&mut t, &net, ms(900), &mut out, |t, c, out| {
        let d = [needing(0, 32), demand(1)][c as usize];
        t.repump(&net, ms(900), &d, &mut streams[c as usize], out);
    });
    assert_eq!(woken, [0, 1]);
    let asked: Vec<(NodeId, u64)> = requests(&out).iter().map(|r| (r.1, r.2)).collect();
    assert_eq!(asked, [(z, 0), (x, 0)], "the credit at x is not left idle");
}

#[test]
fn a_hedge_takes_a_credit_of_its_alternate_or_is_not_sent() {
    let (mut t, net, a, mut b) = pumped(true, true);
    let (alt, mut out) = (other(&t, &a), Vec::new());
    b.replica = alt;
    t.pump(&net, ms(0), &demand(1), &mut b, &mut out);
    t.grants.insert(alt, 3);
    out.clear();
    let class = PricingClass::Standard;
    t.on_hedge_timer(&net, ms(250), 1, Some((&a, class)), &mut out);
    assert!(
        out.is_empty() && t.stats.hedges == 0,
        "the alternate is full"
    );
    t.grants.insert(alt, 4);
    t.on_hedge_timer(&net, ms(251), 1, Some((&a, class)), &mut out);
    assert_eq!(requests(&out), [(7, alt, 0)]);
    assert_eq!(t.room(alt, ms(251)), 0);
}

#[test]
fn without_the_breaker_grants_are_ignored() {
    let (mut t, net, mut a, mut b) = pumped(false, false);
    let mut out = Vec::new();
    t.on_chunk(ms(5), 1, segment(&a), true, 1, Some(&mut a), &mut out);
    t.on_busy(&net, ms(6), 2, 1, Some((demand(0), &mut a)), &mut out);
    assert!(t.grants.is_empty() && wakes(&out).is_empty());
    assert_eq!(requests(&out).len(), 2, "the shed segment and the frontier");
    b.replica = a.replica;
    out.clear();
    t.pump(&net, ms(7), &demand(1), &mut b, &mut out);
    assert_eq!(requests(&out).len(), 3);
    assert!(t.waiting.is_empty() && t.room(a.replica, ms(7)) == u64::MAX);
}

// ---------------------------------------------------------------------------
// Fuzz: arbitrary inputs in arbitrary order
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Tick(i64),
    Pump(usize),
    Chunk(u64, bool, u16),
    Busy(u64, u16),
    Error(u64),
    Hedge(u64),
    Repump(usize),
    Retarget(usize, u64),
    Play(usize, usize),
    NodeEvent(usize),
    Drain(usize),
    Crash,
}

fn op() -> impl Strategy<Value = Op> {
    // A fetch "id" is a draw that [`Rig::fetch_id`] resolves when the op
    // runs: mostly an outstanding fetch, one time in four any small number
    // — an id never issued, already answered, or answered twice.
    let fetch = 0u64..4096;
    // Grants from a node that refuses everything to one wider than any
    // window here; 0 is a malformed grant and must read as 1.
    let credit = 0u16..8;
    prop_oneof![
        (0i64..400).prop_map(Op::Tick),
        Just(Op::Tick(4_000)), // long enough for every deadline to pass
        (0usize..4).prop_map(Op::Pump), // listed twice: twice as likely
        (0usize..4).prop_map(Op::Pump),
        (fetch.clone(), any::<bool>(), credit.clone())
            .prop_map(|(f, last, c)| Op::Chunk(f, last, c)),
        (fetch.clone(), credit.clone()).prop_map(|(f, c)| Op::Chunk(f, true, c)),
        (fetch.clone(), credit).prop_map(|(f, c)| Op::Busy(f, c)),
        fetch.clone().prop_map(Op::Error),
        fetch.prop_map(Op::Hedge),
        (0usize..4).prop_map(Op::Repump),
        ((0usize..4), (0u64..500)).prop_map(|(i, seq)| Op::Retarget(i, seq)),
        ((0usize..4), (0usize..64)).prop_map(|(i, n)| Op::Play(i, n)),
        (0usize..3).prop_map(Op::NodeEvent),
        (0usize..3).prop_map(Op::Drain),
        Just(Op::Crash),
    ]
}

/// The caller's side of the contract, as the server actor keeps it: four
/// video-paced streams found by `(session, component)`, a stream stopped
/// by a fetch error is never handed in as live, the fetches a node event
/// or a drain writes off are handed to their streams (and those that lost
/// a segment repumped), a node event re-points the streams pulling from
/// that node, a drain repumps the waiters, a landed segment the waiters of
/// its object, every wake round is run, every
/// gate timer fires when due, and the pacers play frames out of the
/// ready queues. A pump that leaves a stream dry halts its pacer, as a
/// stream timer's does; a frame in its queue resumes it, as does a
/// retarget.
struct Rig {
    tier: MediaTier,
    net: Net,
    streams: Vec<RemoteStream>,
    stopped: [bool; 4],
    /// Pacers halted dry.
    halted: [bool; 4],
    /// Pending gate timers: when each fires, and for which node.
    timers: Vec<(MediaTime, NodeId)>,
    now: MediaTime,
    out: Vec<FetchOut>,
    /// The stream the last op pumped explicitly.
    pumped: Option<usize>,
}

impl Rig {
    fn new(breaker: bool, hedging: bool) -> Rig {
        let mut rig = Rig {
            tier: tier(breaker, hedging),
            net: Net::default(),
            streams: Vec::new(),
            stopped: [false; 4],
            halted: [false; 4],
            timers: Vec::new(),
            now: MediaTime::ZERO,
            out: Vec::new(),
            pumped: None,
        };
        rig.open_streams();
        rig
    }

    /// Three clips and an image over the two objects, mid-segment starts.
    fn open_streams(&mut self) {
        let open = |i: usize| {
            let kind = [MediaKind::Video, MediaKind::Image][i / 3];
            let seq = 40 * i as u64;
            self.tier
                .open(&self.net, OBJECTS[i % 2], kind, seq)
                .unwrap()
        };
        self.streams = (0..4).map(open).collect();
        self.stopped = [false; 4];
        self.halted = [false; 4];
    }

    fn fetch_id(&self, draw: u64) -> u64 {
        let outstanding: Vec<u64> = self.tier.inflight.keys().copied().collect();
        if draw.is_multiple_of(4) || outstanding.is_empty() {
            return (draw / 4) % (self.tier.next_fetch + 2);
        }
        outstanding[(draw / 4) as usize % outstanding.len()]
    }

    fn index_of(&self, fetch: u64) -> Option<usize> {
        self.tier.owner(fetch).map(|(_, c)| c.raw() as usize)
    }

    fn apply(&mut self, op: &Op) {
        let now = self.now;
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        let (tier, net) = (&mut self.tier, &self.net);
        self.pumped = None;
        match *op {
            Op::Tick(dt) => {
                self.now += MediaDuration::from_millis(dt);
                self.timers.sort();
                let due = self.timers.partition_point(|&(at, _)| at <= self.now);
                for (_, node) in self.timers.drain(..due) {
                    self.tier.on_gate_timer(node, &mut out);
                }
            }
            Op::Pump(i) | Op::Repump(i) if self.stopped[i] => {}
            Op::Pump(i) => {
                let (d, r) = (video(i as u64), &mut self.streams[i]);
                tier.pump(net, now, &d, r, &mut out);
                self.pumped = Some(i);
                self.halted[i] = r.ready.is_empty();
                if self.halted[i] {
                    tier.halted_dry(net, &d, r, &mut out);
                }
            }
            Op::Repump(i) => {
                tier.repump(net, now, &video(i as u64), &mut self.streams[i], &mut out);
            }
            Op::Chunk(draw, last, credit) => {
                let fetch = self.fetch_id(draw);
                let i = self.index_of(fetch);
                let frames = i.map_or(Arc::default(), |i| segment(&self.streams[i]));
                let r = i.map(|i| &mut self.streams[i]);
                let tier = &mut self.tier;
                let done = tier.on_chunk(now, fetch, frames, last, credit, r, &mut out);
                if let Some(i) = i.filter(|_| last) {
                    let object = Arc::clone(&self.streams[i].object);
                    let waiters = self.tier.waiting.iter().filter(|(_, o)| **o == object);
                    let waiters = waiters.map(|(s, _)| s.1 .1.raw() as usize).collect();
                    self.refill(waiters, &mut out);
                }
                for sick in done.tripped.into_iter().flatten() {
                    MediaTier::report_trip(sick, &mut out);
                    self.repoint(sick, &mut out);
                }
            }
            Op::Busy(draw, credit) => {
                let fetch = self.fetch_id(draw);
                let i = self.index_of(fetch).filter(|&i| !self.stopped[i]);
                let live = i.map(|i| (video(i as u64), &mut self.streams[i]));
                let (tier, net) = (&mut self.tier, &self.net);
                tier.on_busy(net, now, fetch, credit, live, &mut out);
            }
            Op::Error(draw) => {
                let fetch = self.fetch_id(draw);
                if let Some(tag) = self.tier.on_error(now, fetch, &mut out) {
                    let i = tag.component.raw() as usize;
                    self.stopped[i] |= self.streams[i].epoch == tag.epoch;
                }
            }
            Op::Hedge(draw) => {
                let fetch = self.fetch_id(draw);
                let r = self.index_of(fetch).map(|i| &self.streams[i]);
                let stream = r.map(|r| (r, PricingClass::Premium));
                self.tier
                    .on_hedge_timer(&self.net, now, fetch, stream, &mut out);
            }
            Op::Retarget(i, seq) => {
                self.streams[i].retarget(seq);
                self.halted[i] = false;
            }
            Op::Play(i, n) => {
                let ready = &mut self.streams[i].ready;
                for _ in 0..n.min(ready.len()) {
                    ready.pop_front();
                }
            }
            Op::NodeEvent(n) => {
                // Crash and restart alternate, as the engine reports them.
                if !self.net.down.remove(&NODES[n]) {
                    self.net.down.insert(NODES[n]);
                }
                let up = self.net.node_is_up(NODES[n]);
                let lost = self.tier.node_event(up, NODES[n], &mut out);
                let bereft = self.forget(&lost);
                self.repoint(NODES[n], &mut out);
                self.refill(bereft, &mut out);
            }
            Op::Drain(n) => {
                let placement = tier.placement.clone();
                let lost = tier.drain(net, placement, Some(NODES[n]), &mut out);
                let mut bereft = self.forget(&lost);
                bereft.extend(self.tier.waiting.keys().map(|s| s.1 .1.raw() as usize));
                self.refill(bereft, &mut out);
            }
            Op::Crash => {
                // The actor's sessions and timers die with the process.
                tier.crash();
                self.open_streams();
                self.timers.clear();
            }
        }
        // Every wake round is run, as the actor runs it: a stopped stream
        // is taken out of the wait set, any other refilled.
        let (now, net) = (self.now, &self.net);
        let (streams, stopped) = (&mut self.streams, self.stopped);
        rounds(&mut self.tier, net, now, &mut out, |t, i, out| {
            if stopped[i as usize] {
                t.unwait((SESSION, ComponentId::new(i)));
            } else {
                t.repump(net, now, &video(i), &mut streams[i as usize], out);
            }
        });
        for o in &out {
            if let FetchOut::GateTimer { node, delay } = *o {
                self.timers.push((self.now + delay, node));
            }
        }
        // A halted pacer with a frame in its queue sends again.
        for (halted, r) in self.halted.iter_mut().zip(&self.streams) {
            *halted &= r.ready.is_empty();
        }
        self.tier.breaker_events(&mut out);
        self.out = out;
    }

    /// Hand written-off fetches to their streams, as `server_actor.rs`
    /// does; returns the streams that lost a segment.
    fn forget(&mut self, lost: &[LostFetch]) -> Vec<usize> {
        let mut bereft = Vec::new();
        for l in lost {
            let i = l.tag.component.raw() as usize;
            if self.streams[i].forget(l) {
                bereft.push(i);
            }
        }
        bereft
    }

    /// Repump each of `streams` that is live, as `server_actor.rs` does.
    fn refill(&mut self, streams: Vec<usize>, out: &mut Vec<FetchOut>) {
        for i in streams.into_iter().filter(|&i| !self.stopped[i]) {
            let r = &mut self.streams[i];
            self.tier
                .repump(&self.net, self.now, &video(i as u64), r, out);
        }
    }

    /// Phase one and two of a failover, as `server_actor.rs` runs them.
    fn repoint(&mut self, node: NodeId, out: &mut Vec<FetchOut>) {
        let moved: Vec<usize> = (0..4)
            .filter(|&i| !self.stopped[i] && self.streams[i].replica == node)
            .collect();
        for &i in &moved {
            self.streams[i].restart(SESSION, ComponentId::new(i as u64), out);
        }
        for i in moved {
            let r = &mut self.streams[i];
            self.tier
                .repump(&self.net, self.now, &video(i as u64), r, out);
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let t = &self.tier;
        // The stream windows and the fetch table tell one story: every
        // entry of a live stream's window is a fetch the tier still holds
        // for that segment and epoch (answered, shed and written-off ones
        // leave the window), and a current-epoch fetch the tier holds is in
        // its stream's window — a primary always, a hedge once its primary
        // is gone and it carries the segment alone. Only a stopped stream
        // may name a refused fetch: it is never pumped again.
        for (i, r) in self.streams.iter().enumerate() {
            for (&seg, id) in &r.inflight {
                let Some(tag) = t.inflight.get(id) else {
                    prop_assert!(self.stopped[i], "stream {i} names lost fetch {id}");
                    continue;
                };
                let same = tag.component.raw() as usize == i && tag.segment == seg;
                prop_assert!(same && tag.epoch == r.epoch);
            }
        }
        for (id, tag) in &t.inflight {
            let i = tag.component.raw() as usize;
            let r = &self.streams[i];
            let alone = !t.hedge_pairs.contains_key(id) && !self.stopped[i];
            if tag.epoch == r.epoch && (!tag.hedged || alone) {
                prop_assert_eq!(r.inflight.get(&tag.segment), Some(id));
            }
            prop_assert!(*id < t.next_fetch);
        }
        // The window runs at most one segment past FETCH_AHEAD of media,
        // and a pump stops short of it only at the pipeline or in the wait
        // set.
        let window = window_frames(video(0).frame_period);
        for r in &self.streams {
            prop_assert!(r.frames_covered() <= window + FRAMES_PER_SEGMENT as u64);
        }
        if let Some(i) = self.pumped {
            let r = &self.streams[i];
            let stream = (SESSION, ComponentId::new(i as u64));
            let stopped_short = r.frames_covered() < window && r.inflight.len() < PIPELINE as usize;
            prop_assert!(
                !stopped_short || t.waits(stream),
                "stream {i} stopped at {} frames with room to fetch",
                r.frames_covered()
            );
        }
        // No stream is stranded: a halted pacer has a fetch out or a place
        // in the wait set, and every waiter has an opener coming — a fetch
        // out at a live node that holds its object (its settle runs a wake
        // round there), that node's gate timer, or, with every such
        // node down, a restart.
        for (i, r) in self.streams.iter().enumerate() {
            let stream = (SESSION, ComponentId::new(i as u64));
            prop_assert!(
                !self.halted[i] || self.stopped[i] || !r.inflight.is_empty() || t.waits(stream),
                "stream {i} halted dry with nothing to resume it"
            );
        }
        for (_, stream) in t.waiting.keys() {
            let i = stream.1.raw() as usize;
            let replicas = t.placement.replicas(&self.streams[i].object);
            let up = |n: &&NodeId| self.net.node_is_up(**n);
            let fetching = |n: &NodeId| t.inflight.values().any(|tag| tag.replica == *n);
            let timed = |n: &NodeId| self.timers.iter().any(|(_, m)| m == n);
            prop_assert!(
                self.stopped[i]
                    || replicas.iter().filter(up).any(|n| fetching(n) || timed(n))
                    || !replicas.iter().any(|n| up(&n)),
                "waiter {i} has no opener coming"
            );
        }
        // Hedge races are symmetric pairs of outstanding fetches.
        for (a, b) in &t.hedge_pairs {
            prop_assert!(a != b && t.hedge_pairs.get(b) == Some(a));
            prop_assert!(t.inflight.contains_key(a) && t.inflight.contains_key(b));
            prop_assert!(t.inflight[a].hedged != t.inflight[b].hedged);
        }
        // The selector's load estimate is the fetch table, per node — in
        // particular it never goes below zero and then sticks there.
        for n in NODES.into_iter().chain([HOME]) {
            let held = t.inflight.values().filter(|tag| tag.replica == n).count();
            prop_assert_eq!(t.selector.outstanding(n), held as u64);
        }
        // Every request in the output is booked under its own id, and was
        // issued inside its node's window: the live fetches there are no
        // more than the last grant.
        let live = |n: NodeId| {
            let at = |tag: &&FetchTag| tag.replica == n && tag.deadline >= self.now;
            t.inflight.values().filter(at).count() as u64
        };
        for (fetch, replica, _) in requests(&self.out) {
            prop_assert_eq!(t.inflight.get(&fetch).map(|tag| tag.replica), Some(replica));
            let grant = t.grants.get(&replica).map_or(u64::MAX, |&g| g as u64);
            prop_assert!(
                live(replica) <= grant,
                "{} > {grant} at {replica:?}",
                live(replica)
            );
        }
        // The wait set and its index agree and name no stream twice.
        prop_assert_eq!(t.waiting.len(), t.wait_index.len());
        for (&(dry_at, stream), object) in &t.waiting {
            prop_assert_eq!(t.wait_index.get(&stream), Some(&dry_at));
            prop_assert_eq!(object, &self.streams[stream.1.raw() as usize].object);
        }
        // No credit leaks: once every outstanding fetch's deadline has
        // passed, each node's window is as wide as its grant again. And the
        // gate, which searches the table only when the selector's count
        // has reached the grant, says what the exact window says.
        for (&n, &grant) in &t.grants {
            prop_assert!(grant >= 1 && t.cfg.breaker);
            let room = t.room(n, self.now);
            prop_assert_eq!(room, grant as u64 - live(n).min(grant as u64));
            prop_assert_eq!(t.has_room(n, self.now), room > 0);
            if t.inflight.values().all(|tag| tag.deadline < self.now) {
                prop_assert_eq!(room, grant as u64);
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// No input in any order — unknown, duplicated or already-answered
    /// fetch ids included — panics the fetch client or leaves its tables
    /// telling different stories.
    #[test]
    fn any_input_in_any_order_keeps_the_tables_consistent(
        breaker in any::<bool>(),
        hedging in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let mut rig = Rig::new(breaker, hedging);
        for op in &ops {
            rig.apply(op);
            rig.check()?;
        }
    }
}
