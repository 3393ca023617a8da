//! A payload is allocated once, where it is made, and every later holder
//! shares it: once warm, a segment costs exactly the one allocation of the
//! media node's frame list from fetch through landing, cache admission and
//! a second stream's cache hit, and a non-final transport part's empty
//! frame list costs none; a multicast send to more than three members over
//! a hub allocates nothing; and parsing a lesson stays within a pinned
//! allocation bound.
//!
//! The count is per thread (the test harness allocates on others), taken by
//! a global allocator that wraps the system one.

use hermes_od::core::{
    ComponentId, Encoding, GradeLevel, MediaDuration, MediaKind, MediaTime, NodeId, PricingClass,
    SessionId,
};
use hermes_od::media::{segment_frames, MediaObject, SegmentFrame};
use hermes_od::server::{
    Demand, FetchOut, MediaTier, MediaTierConfig, PlacementMap, RemoteStream, TierNet,
};
use hermes_od::service::{lesson_markup, LessonShape};
use hermes_od::simnet::{App, LinkSpec, Network, Sim, SimApi, SimRng, WireSize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const HOME: NodeId = NodeId::new(1);
const NODES: [NodeId; 2] = [NodeId::new(10), NodeId::new(11)];
const CLIP: &str = "video/clip.mpg";

/// Every node up, every route 1 ms.
struct Net;

impl TierNet for Net {
    fn node_is_up(&self, _: NodeId) -> bool {
        true
    }
    fn propagation_micros(&self, _: NodeId, _: NodeId) -> i64 {
        1_000
    }
}

/// What the pacer of stream `component` asks for: one frame more than it
/// holds, so a pump with an empty window fetches (or hits) one segment.
fn demand(component: u64) -> Demand {
    Demand {
        session: SessionId::new(component),
        component: ComponentId::new(component),
        class: PricingClass::Standard,
        level: GradeLevel::NOMINAL,
        frame_period: MediaDuration::from_millis(40),
        frames_needed: 1,
    }
}

/// One segment through the tier: stream `a` fetches it, the media node
/// computes it, it lands in `a`'s window and the cache, stream `b` finds it
/// there, and both pacers take every frame.
fn cycle(
    tier: &mut MediaTier,
    clip: &MediaObject,
    now: MediaTime,
    streams: &mut [RemoteStream; 2],
    out: &mut Vec<FetchOut>,
) {
    let [a, b] = streams;
    tier.pump(&Net, now, &demand(0), a, out);
    let mut asked = out.iter().filter_map(|o| match o {
        FetchOut::Request {
            fetch,
            tag,
            frames_per_segment,
            ..
        } => Some((*fetch, *tag, *frames_per_segment)),
        _ => None,
    });
    let (fetch, tag, fps) = asked.next().expect("a pump with an empty window fetches");
    assert!(asked.next().is_none(), "one segment per cycle");
    out.clear();
    // The media node's side: the segment's one allocation.
    let frames = segment_frames(clip, tag.level, tag.segment, fps);
    let later = now + MediaDuration::from_millis(5);
    let done = tier.on_chunk(later, fetch, frames, true, 64, Some(a), out);
    assert!(done.appended);
    tier.pump(&Net, later, &demand(1), b, out);
    assert!(
        !out.iter().any(|o| matches!(o, FetchOut::Request { .. })),
        "the second stream hits the cache"
    );
    out.clear();
    for r in [a, b] {
        assert_eq!(r.ready.len(), fps as usize);
        r.ready.clear();
    }
}

#[test]
fn a_fetched_segment_costs_one_allocation_end_to_end() {
    let placement = PlacementMap::build([CLIP], &NODES, 2);
    let mut tier = MediaTier::new(MediaTierConfig::default(), placement, HOME);
    let clip = MediaObject {
        key: CLIP.into(),
        encoding: Encoding::Mpeg,
        duration: MediaDuration::from_secs(600),
        seed: 5,
    };
    // Two readers of the clip: interval caching admits its segments.
    let mut streams = [0, 1].map(|_| tier.open(&Net, CLIP, MediaKind::Video, 0).unwrap());
    let mut out = Vec::new();
    const WARM: u64 = 20;
    const SEGMENTS: u64 = 200;
    for k in 0..WARM {
        let now = MediaTime::from_millis(10 * k as i64);
        cycle(&mut tier, &clip, now, &mut streams, &mut out);
    }
    let before = allocations();
    assert!(before > 0, "the counting allocator is not installed");
    for k in WARM..WARM + SEGMENTS {
        let now = MediaTime::from_millis(10 * k as i64);
        cycle(&mut tier, &clip, now, &mut streams, &mut out);
    }
    let during = allocations() - before;
    let cache = tier.cache.stats;
    assert_eq!(
        (cache.admitted, cache.hits),
        (WARM + SEGMENTS, WARM + SEGMENTS)
    );
    assert_eq!(
        during, SEGMENTS,
        "allocations for {SEGMENTS} segments: one each, the media node's frame list"
    );
}

#[test]
fn a_non_final_part_carries_frames_without_allocating() {
    let before = allocations();
    let empty: Arc<[SegmentFrame]> = Arc::default();
    let during = allocations() - before;
    assert!(empty.is_empty());
    assert_eq!(during, 0, "an empty frame list allocates");
}

/// A datagram with no heap payload.
#[derive(Debug, Clone, Copy)]
struct Tick;

impl WireSize for Tick {
    fn wire_size(&self) -> usize {
        500
    }
}

/// Counts deliveries.
#[derive(Default)]
struct Members {
    delivered: u64,
}

impl App<Tick> for Members {
    fn on_message(&mut self, _: &mut SimApi<'_, Tick>, _: NodeId, _: NodeId, _: Tick) {
        self.delivered += 1;
    }
    fn on_timer(&mut self, _: &mut SimApi<'_, Tick>, _: NodeId, _: u64, _: u64) {}
}

#[test]
fn a_multicast_send_over_a_hub_allocates_nothing() {
    // Sender n(1) — hub n(0) — six members: the send's copy to the hub
    // carries all six targets, more than fit inline.
    const MEMBERS: u64 = 6;
    let n = NodeId::new;
    let mut rng = SimRng::seed_from_u64(3);
    let mut net = Network::new();
    net.add_node(n(0), "hub");
    net.add_node(n(1), "sender");
    net.add_duplex(n(1), n(0), LinkSpec::lan(100_000_000), &mut rng);
    for i in 0..MEMBERS {
        net.add_node(n(10 + i), format!("member-{i}"));
        net.add_duplex(n(0), n(10 + i), LinkSpec::lan(100_000_000), &mut rng);
    }
    net.compute_routes();
    let mut sim = Sim::new(net, Members::default(), 3);
    sim.with_api(|_, api| (0..MEMBERS).for_each(|i| api.mcast_join(7, n(10 + i))));
    let send = |sim: &mut Sim<Tick, Members>, sends: u64| {
        for _ in 0..sends {
            sim.with_api(|_, api| assert_eq!(api.send_mcast(n(1), 7, Tick), MEMBERS as usize));
            sim.run(1_000);
        }
    };
    send(&mut sim, 20);
    let before = allocations();
    send(&mut sim, 200);
    let during = allocations() - before;
    assert_eq!(sim.app().delivered, 220 * MEMBERS);
    assert_eq!(sim.stats().mcast_link_copies, 220 * (1 + MEMBERS));
    assert_eq!(during, 0, "heap allocations for 200 multicast sends");
}

/// Allocations of one parse of the lesson below: 213 once keyword lookups,
/// tag and attribute names and tokens stopped being copied, plus 5 %. A
/// token cloned per step, an upper-cased copy per keyword lookup or a name
/// buffer per tag pushes it over.
const LESSON_PARSE_BOUND: u64 = 224;

#[test]
fn parsing_a_lesson_stays_within_its_allocation_bound() {
    let markup = lesson_markup(
        "Allocation lesson",
        &["parsing", "markup"],
        LessonShape {
            images: 12,
            image_secs: 5,
            narrated_clip_secs: Some(10),
            closing_audio_secs: Some(5),
        },
        None,
    );
    assert!(hermes_od::hml::parse(&markup).is_ok(), "warm-up parse");
    let before = allocations();
    let doc = hermes_od::hml::parse(&markup).expect("generated lesson parses");
    let during = allocations() - before;
    drop(doc);
    assert!(
        during <= LESSON_PARSE_BOUND,
        "parse made {during} allocations (bound {LESSON_PARSE_BOUND})"
    );
}
