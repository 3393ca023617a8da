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

fn segment(r: &RemoteStream) -> Vec<SegmentFrame> {
    let frame = SegmentFrame {
        size: 900,
        key: false,
    };
    vec![frame; r.frames_per_segment as usize]
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
    let done = t.on_chunk(ms(5), 1, frames, true, Some(&mut a), &mut out);
    assert!(done.appended && done.tripped == [None, None]);
    assert_eq!(out, [FetchOut::Latency(MediaDuration::from_millis(5))]);
    out.clear();
    t.pump(&net, ms(6), &demand(0), &mut a, &mut out);
    assert_eq!(requests(&out), [(4, a.replica, 3)]);
    out.clear();

    // Fetch 2 (segment 1) is shed: paced retry, nothing else moves.
    t.on_busy(&net, ms(7), 2, Some((demand(0), &mut a)), &mut out);
    let stream = (SESSION, ComponentId::new(0));
    let delay = t.cfg.stall_poll;
    assert_eq!(out, [FetchOut::RepumpTimer { stream, delay }]);
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
    t.on_chunk(ms(18), 3, frames, true, Some(&mut a), &mut out);
    assert_eq!(a.ready.len(), 32, "segment 2 waits behind segment 1");
    out.clear();
    t.pump(&net, ms(18), &demand(0), &mut a, &mut out);
    assert_eq!(requests(&out), [(6, a.replica, 4)], "2 and 3 are covered");

    // The same shed answered twice, or for an unknown id, only counts.
    out.clear();
    t.on_busy(&net, ms(18), 2, Some((demand(0), &mut a)), &mut out);
    t.on_busy(&net, ms(18), 99, None, &mut out);
    assert!(out.is_empty());
    assert_eq!(t.stats.busy, 3);
}

#[test]
fn without_the_breaker_a_shed_is_re_asked_at_once() {
    let (mut t, net, mut a, _b) = pumped(false, false);
    let mut out = Vec::new();
    t.on_busy(&net, ms(1), 3, Some((demand(0), &mut a)), &mut out);
    assert_eq!(out[0], FetchOut::Adopt(SESSION));
    assert_eq!(requests(&out), [(4, a.replica, 2)]);
    // A stream that is no longer live gets no retry.
    out.clear();
    t.on_busy(&net, ms(2), 4, None, &mut out);
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
    let done = t.on_chunk(ms(3), 1, frames, true, Some(&mut a), &mut out);
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
    let done = t.on_chunk(ms(5), 2, Vec::new(), false, Some(&mut a), &mut out);
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
    let done = t.on_chunk(ms(260), hedge, frames, true, Some(&mut a), &mut out);
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
    let done = t.on_chunk(ms(270), 1, segment(&a), true, Some(&mut a), &mut out);
    assert!(!done.appended && out.is_empty() && a.ready.len() == 32);
}

#[test]
fn a_hedge_that_loses_is_cancelled_and_not_a_win() {
    let (mut t, _net, mut a, (hedge, alt)) = hedged();
    let mut out = Vec::new();
    let frames = segment(&a);
    let done = t.on_chunk(ms(255), 1, frames, true, Some(&mut a), &mut out);
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
    t.on_busy(&net, ms(252), 1, Some((demand(0), &mut a)), &mut out);
    assert!(out.is_empty(), "no retry while the partner races on");
    assert_eq!(a.next_request, 3, "no roll-back either");
    assert!(t.hedge_pairs.is_empty() && t.owner(hedge).is_some());
    let frames = segment(&a);
    let done = t.on_chunk(ms(260), hedge, frames, true, Some(&mut a), &mut out);
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
    t.node_event(node, &mut out);
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

    t.node_event(a.replica, &mut out);
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
    t.on_chunk(ms(9), 1, frames, true, Some(&mut a), &mut out);
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
// Fuzz: arbitrary inputs in arbitrary order
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Tick(i64),
    Pump(usize),
    Chunk(u64, bool),
    Busy(u64),
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
    prop_oneof![
        (0i64..400).prop_map(Op::Tick),
        (0usize..4).prop_map(Op::Pump), // listed twice: twice as likely
        (0usize..4).prop_map(Op::Pump),
        (fetch.clone(), any::<bool>()).prop_map(|(f, last)| Op::Chunk(f, last)),
        (fetch.clone(), Just(true)).prop_map(|(f, last)| Op::Chunk(f, last)),
        fetch.clone().prop_map(Op::Busy),
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
            Op::Chunk(draw, last) => {
                let fetch = self.fetch_id(draw);
                let i = self.index_of(fetch);
                let frames = i.map_or(Vec::new(), |i| segment(&self.streams[i]));
                let r = i.map(|i| &mut self.streams[i]);
                let done = self.tier.on_chunk(now, fetch, frames, last, r, &mut out);
                for sick in done.tripped.into_iter().flatten() {
                    MediaTier::report_trip(sick, &mut out);
                    self.repoint(sick, &mut out);
                }
            }
            Op::Busy(draw) => {
                let fetch = self.fetch_id(draw);
                let i = self.index_of(fetch).filter(|&i| !self.stopped[i]);
                let live = i.map(|i| (demand(i as u64), &mut self.streams[i]));
                self.tier.on_busy(&self.net, now, fetch, live, &mut out);
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
                self.tier.node_event(NODES[n], &mut out);
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
        // Every request in the output is booked under its own id.
        for (fetch, replica, _) in requests(&self.out) {
            prop_assert_eq!(t.inflight.get(&fetch).map(|tag| tag.replica), Some(replica));
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
