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

fn demand(component: u64) -> Demand {
    Demand {
        session: SESSION,
        component: ComponentId::new(component),
        class: PricingClass::Standard,
        level: GradeLevel::NOMINAL,
        frame_period: MediaDuration::from_millis(40),
        frames_needed: 10_000,
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
    let mut out = Vec::new();
    assert!(!t.repump(&net, ms(0), &demand(0), &mut r, &mut out));
    assert!(out.is_empty());
    net.down.clear();
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
    // shed gave back wakes it — nothing else moves.
    t.on_busy(&net, ms(7), 2, 64, Some((demand(0), &mut a)), &mut out);
    let stream = (SESSION, ComponentId::new(0));
    assert_eq!(out, [FetchOut::Wake(stream)]);
    assert!(t.waiting.is_empty() && t.wait_index.is_empty());
    assert_eq!(a.next_request, 1, "rolled back to the shed segment");
    assert_eq!(a.inflight.keys().copied().collect::<Vec<_>>(), [2, 3]);
    assert_eq!(a.ready.len(), 32, "fetched frames survive");
    assert_eq!((a.epoch, t.stats.busy, t.stats.breaker_trips), (0, 1, 0));
    out.clear();

    // The repump re-asks exactly that segment, then the frontier.
    assert!(t.repump(&net, ms(17), &demand(0), &mut a, &mut out));
    assert_eq!(requests(&out), [(5, a.replica, 1)]);
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
    // The transition record skips the trip and reports the rest.
    out.clear();
    t.node_event(true, ms(20), node, &mut out);
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

    t.node_event(true, ms(250), a.replica, &mut out);
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

// ---------------------------------------------------------------------------
// The credit window
// ---------------------------------------------------------------------------

/// The replica of `r`'s object that `r` is not pulling from.
fn other(t: &MediaTier, r: &RemoteStream) -> NodeId {
    let replicas = t.placement.replicas(&r.object);
    *replicas.iter().find(|&&n| n != r.replica).unwrap()
}

fn woken(out: &[FetchOut]) -> Vec<u64> {
    let wake = |o: &FetchOut| match o {
        FetchOut::Wake((_, c)) => Some(c.raw()),
        _ => None,
    };
    out.iter().filter_map(wake).collect()
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
    assert!(requests(&out).is_empty() && events(&out, "fetch_wait") == 1);
    let waiter = (SESSION, ComponentId::new(1));
    assert_eq!(t.wait_index.get(&waiter), Some(&ms(7)));
    // Ticking again neither moves its place nor repeats the event.
    out.clear();
    t.pump(&net, ms(47), &demand(1), &mut b, &mut out);
    assert_eq!(out, [FetchOut::Adopt(SESSION)]);
    assert_eq!(t.waiting.keys().collect::<Vec<_>>(), [&(ms(7), waiter)]);

    // A busy narrows the grant to 1: its own credit comes back, but two
    // fetches are still out, so nobody is woken and the shed stream waits
    // behind the dry one (it still has a segment buffered).
    out.clear();
    t.on_busy(&net, ms(50), 2, 1, Some((demand(0), &mut a)), &mut out);
    assert!(out.is_empty(), "{out:?}");
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
    // move to the one replica with room, and y's credits wake nobody —
    // until y's open timeout has passed and it is owed a probe.
    b.replica = x;
    b.retarget(320);
    t.pump(&net, ms(1), &demand(1), &mut b, &mut out);
    assert!(requests(&out).is_empty() && b.replica == x && t.waiting.len() == 1);
    out.clear();
    t.wake(y, ms(2), &mut out);
    assert!(out.is_empty());
    t.wake(y, ms(600), &mut out);
    assert_eq!(woken(&out), [1]);
    out.clear();
    t.pump(&net, ms(600), &demand(1), &mut b, &mut out);
    assert!(
        b.replica == y && requests(&out).len() == 2,
        "two probe slots"
    );
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
    assert_eq!(events(&out, "fetch_wait"), 1, "only the dry one says so");
    (t, net, streams)
}

#[test]
fn waiters_are_ordered_by_when_they_run_dry_and_woken_in_that_order() {
    let (mut t, net, mut s) = three_waiters();
    let keys: Vec<(MediaTime, u64)> = t.waiting.keys().map(|(at, s)| (*at, s.1.raw())).collect();
    assert_eq!(keys, [(ms(100), 2), (ms(300), 3), (ms(500), 1)]);
    // One credit back, one waiter woken: the most urgent.
    let (mut out, frames) = (Vec::new(), segment(&s[0]));
    t.on_chunk(
        ms(110),
        1,
        frames.clone(),
        true,
        1,
        Some(&mut s[0]),
        &mut out,
    );
    assert_eq!(woken(&out), [2]);
    // The actor refills it: one fetch fits, and it waits again for the
    // rest — now behind the others, with a segment on its way.
    out.clear();
    assert!(t.repump(&net, ms(110), &demand(2), &mut s[2], &mut out));
    assert_eq!(requests(&out).len(), 1);
    let order: Vec<u64> = t.waiting.keys().map(|(_, s)| s.1.raw()).collect();
    assert_eq!(order, [3, 1, 2]);
    // A torn-down waiter (the actor finds no stream and does nothing) and a
    // retargeted one are woken like any other and cost nothing.
    out.clear();
    t.on_chunk(
        ms(120),
        2,
        frames.clone(),
        true,
        1,
        Some(&mut s[0]),
        &mut out,
    );
    assert_eq!(woken(&out), [3], "stream 3 is gone: nobody refills");
    out.clear();
    s[1].retarget(70);
    t.on_chunk(ms(130), 3, frames, true, 1, Some(&mut s[2]), &mut out);
    assert_eq!(woken(&out), [1], "the credit stream 3 left is not lost");
    out.clear();
    assert!(t.repump(&net, ms(130), &demand(1), &mut s[1], &mut out));
    assert_eq!(
        requests(&out).iter().map(|r| r.2).collect::<Vec<_>>(),
        [2, 3]
    );
    // The wait set and its index still tell one story.
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
    assert_eq!(woken(&out), [3]);
    let dry = (SESSION, ComponentId::new(2));
    assert!(
        t.wait_index.contains_key(&dry),
        "the more urgent one waits on"
    );
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
    assert!(t.grants.is_empty() && woken(&out).is_empty());
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
        (0usize..3).prop_map(Op::NodeEvent),
        (0usize..3).prop_map(Op::Drain),
        Just(Op::Crash),
    ]
}

/// The caller's side of the contract, as the server actor keeps it: four
/// streams found by `(session, component)`, a stream stopped by a fetch
/// error is never handed in as live, and a node event re-points the
/// streams pulling from that node.
struct Rig {
    tier: MediaTier,
    net: Net,
    streams: Vec<RemoteStream>,
    stopped: [bool; 4],
    now: MediaTime,
    out: Vec<FetchOut>,
}

impl Rig {
    fn new(breaker: bool, hedging: bool) -> Rig {
        let mut rig = Rig {
            tier: tier(breaker, hedging),
            net: Net::default(),
            streams: Vec::new(),
            stopped: [false; 4],
            now: MediaTime::ZERO,
            out: Vec::new(),
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
        match *op {
            Op::Tick(dt) => self.now += MediaDuration::from_millis(dt),
            Op::Pump(i) | Op::Repump(i) if self.stopped[i] => {}
            Op::Pump(i) => tier.pump(net, now, &demand(i as u64), &mut self.streams[i], &mut out),
            Op::Repump(i) => {
                tier.repump(net, now, &demand(i as u64), &mut self.streams[i], &mut out);
            }
            Op::Chunk(draw, last, credit) => {
                let fetch = self.fetch_id(draw);
                let i = self.index_of(fetch);
                let frames = i.map_or(Arc::default(), |i| segment(&self.streams[i]));
                let r = i.map(|i| &mut self.streams[i]);
                let tier = &mut self.tier;
                let done = tier.on_chunk(now, fetch, frames, last, credit, r, &mut out);
                for sick in done.tripped.into_iter().flatten() {
                    MediaTier::report_trip(sick, &mut out);
                    self.repoint(sick, &mut out);
                }
            }
            Op::Busy(draw, credit) => {
                let fetch = self.fetch_id(draw);
                let i = self.index_of(fetch).filter(|&i| !self.stopped[i]);
                let live = i.map(|i| (demand(i as u64), &mut self.streams[i]));
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
            Op::Retarget(i, seq) => self.streams[i].retarget(seq),
            Op::NodeEvent(n) => {
                // Crash and restart alternate, as the engine reports them.
                if !self.net.down.remove(&NODES[n]) {
                    self.net.down.insert(NODES[n]);
                }
                let up = self.net.node_is_up(NODES[n]);
                self.tier.node_event(up, now, NODES[n], &mut out);
                self.repoint(NODES[n], &mut out);
            }
            Op::Drain(n) => {
                let placement = tier.placement.clone();
                tier.drain(net, placement, Some(NODES[n]), &mut out);
            }
            Op::Crash => {
                // The actor's sessions die with the process.
                tier.crash();
                self.open_streams();
            }
        }
        // Woken waiters are refilled, as the actor does — unless stopped.
        for i in woken(&out) {
            if !self.stopped[i as usize] {
                let r = &mut self.streams[i as usize];
                self.tier
                    .repump(&self.net, self.now, &demand(i), r, &mut out);
            }
        }
        self.tier.breaker_events(&mut out);
        self.out = out;
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
                .repump(&self.net, self.now, &demand(i as u64), r, out);
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let t = &self.tier;
        // The stream windows and the fetch table tell one story: a fetch
        // both know is the same fetch, and a current-epoch primary the tier
        // holds is in its stream's window.
        for (i, r) in self.streams.iter().enumerate() {
            for (&seg, id) in &r.inflight {
                let Some(tag) = t.inflight.get(id) else {
                    continue; // answered or written off: not live
                };
                let same = tag.component.raw() as usize == i && tag.segment == seg;
                prop_assert!(same && tag.epoch == r.epoch && !tag.hedged);
            }
        }
        for (id, tag) in &t.inflight {
            let r = &self.streams[tag.component.raw() as usize];
            if !tag.hedged && tag.epoch == r.epoch {
                prop_assert_eq!(r.inflight.get(&tag.segment), Some(id));
            }
            prop_assert!(*id < t.next_fetch);
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
