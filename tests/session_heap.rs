//! A finished session keeps only what it still needs. Sessions stay open
//! for as long as their viewers stay connected, so what each one holds
//! after its presentation ends is paid for every session a server has
//! admitted, not only for those streaming.
//!
//! One small media-tier world is run twice to completion, with a few and
//! with many of its clients connected; every session plays a two-stream
//! (audio + video) lesson and stays connected. The difference in live heap
//! bytes, per extra session, is what a finished session retains: the
//! server's session, the client's presentation and obs's share. The count
//! is per thread, taken by a global allocator that wraps the system one.

use hermes_od::core::{MediaTime, ServerId};
use hermes_od::service::{
    install_course, ClientConfig, LessonShape, MediaTierConfig, ServerConfig, WorldBuilder,
};
use hermes_od::simnet::{LinkSpec, SimRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct LiveBytes;

fn add(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is passed to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

const SEED: u64 = 5;
const CLIENTS: usize = 32;

/// Live bytes of a world whose first `sessions` clients each watched the
/// ten-second lesson to its end and stayed connected, 40 s in.
fn retained(sessions: usize) -> i64 {
    let before = live();
    let mut b = WorldBuilder::new(SEED);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(100_000_000),
        ServerConfig::default(),
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    for _ in 0..2 {
        b.add_media_node(LinkSpec::san(100_000_000));
    }
    b.media_config(MediaTierConfig::default());
    let mut sim = b.build(SEED);
    let shape = LessonShape {
        images: 0,
        image_secs: 0,
        narrated_clip_secs: Some(10),
        closing_audio_secs: None,
    };
    let mut rng = SimRng::seed_from_u64(SEED);
    let server = sim.app_mut().server_mut(srv);
    let doc = install_course(server, "Heap", &["heap"], 1, 1, shape, &mut rng)[0];
    sim.app_mut().distribute_media();
    for (i, &c) in clients[..sessions].iter().enumerate() {
        sim.run_until(MediaTime::from_millis(100 + 250 * i as i64));
        sim.with_api(|w, api| w.client_mut(c).connect(api, srv, Some(doc)));
    }
    sim.run_until(MediaTime::from_secs(40));
    let app = sim.app();
    for &c in &clients[..sessions] {
        let client = app.client(c);
        assert_eq!(client.completed.len(), 1, "client {c} did not finish");
        let p = client.presentation.as_ref().expect("still connected");
        assert_eq!(p.receivers.len(), 2, "an audio and a video stream");
    }
    assert_eq!(app.server(srv).sessions.len(), sessions);
    live() - before
}

#[test]
fn a_finished_session_retains_little() {
    let (few, many) = (8, 24);
    let per_session = (retained(many) - retained(few)) / (many - few) as i64;
    println!("retained per finished session: {per_session} B");
    assert!(per_session > 0, "{per_session}");
    assert!(
        per_session <= RETAINED_BOUND,
        "a finished session retains {per_session} B (bound {RETAINED_BOUND})"
    );
}

/// Bytes a finished two-stream session may retain: 88,561 B were measured
/// while per-session maps were `BTreeMap`s, done streams kept their queues
/// and the provenance ring doubled; 42,737 B after. The bound sits between,
/// close enough above the second that keeping either side's stream queues,
/// or a session's streams at a vector's default growth, breaks it.
const RETAINED_BOUND: i64 = 44 * 1024;
