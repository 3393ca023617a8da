#![allow(clippy::field_reassign_with_default)]
//! Document-delivery tests: one golden over the server's delivery paths
//! that no other golden pins exactly, and the four frame-chain findings of
//! ROADMAP item 6 that one timer chain per stream closed.
//!
//! `delivery_golden`'s cases are pinned by every stream's `(session,
//! component, kind, frames_sent, bytes_sent, done)` at fixed instants, the
//! counts of the `admit`, `admit_reject` and `share_*` events, and an FNV
//! digest of the exported event log plus the engine's `SimStats`. The
//! literals were printed at cdc25bd, before the delivery half of
//! `server_actor.rs` was folded; none may move unasked. They pin today's
//! behaviour, the four findings below included. `SHARED` was printed again
//! when the two joiners' admissions began to be recorded: its log gained
//! their two `admit` events, which shift the sequence numbers after them;
//! every instant, stream row and `SimStats` count stayed. `REBUILD` and
//! `SHARED` were printed again when a stream's fetch window became 2 s of
//! media: every stream row and event count stayed, and only the digest
//! moved, with the fetches. The rebuilt session asks one segment fewer
//! (26 `cache_miss` events → 25), and the shared world 14 fewer (38 →
//! 24): patch streams stop fetching at their patch's end.
//!
//! `LOCAL`, `LINK` and `PAUSED_IMAGE` were printed again when each stream
//! got one timer chain (findings (q)–(t) closed). The local path now ships
//! each image's stored size, as the tier path in `REBUILD` and `SHARED`
//! always did (s): 62,292 → 67,476 B and 56,454 → 65,454 B, and lesson 2's
//! image 55,074 → 56,730 B. After `LINK`'s local link at 3 s, lesson 1's
//! pending frame timer no longer drives lesson 2's clip (r), so the clip
//! runs at its own rate: 150 audio / 75 video frames by 6 s, not 300 / 150,
//! and not yet done at 12 s. In `PAUSED_IMAGE` the resume at 0.8 s re-arms
//! nothing, since no chain halted in the 0.5 s pause: the clip keeps its
//! 6 s send start (it had started at the resume, 60 audio frames by 2 s)
//! and the pending image ships its own object (t). Its rows now equal
//! `LOCAL`'s; only the digest differs, by the pause and resume events.
//!
//! `REBUILD` and `SHARED` were printed again when a dry stream stopped
//! polling: the segment that lands for a halted stream sends its frame at
//! once, not at the next 10 ms poll, so a stream that ran dry gets a frame
//! further by the same instant. The rebuilt session's video has sent 70
//! frames by 12 s, not 69 (520,106 → 526,735 B), and the shared group
//! leader's audio 150 / 350 by 5 s / 9 s, not 149 / 349 (261,348 →
//! 263,069 B, 615,433 → 617,220 B). Event counts stay; the digests move
//! with the send times.
//!
//! Cases other tests already pin are left out:
//! - a private flow and an image with the media tier: `fetch_golden`'s
//!   worlds ship both (tier counters, event log and `SimStats`);
//! - a plain pause / resume: `lifecycle_golden` (client A, 3 s to 5 s)
//!   and the exp_fig4 grid in `BENCH_baseline.json`.
//!
//! The shared case stays although `group_lifecycle_golden` covers the
//! group transitions: that golden digests only `share_*` / `session_*`
//! events, so it cannot see which admissions are recorded.

use hermes_core::{DocumentId, LinkTarget, MediaDuration, MediaKind, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientConfig, LessonShape, ServerConfig, ServiceMsg, ServiceWorld, StreamTx,
    WorldBuilder,
};
use hermes_simnet::obs::events_jsonl;
use hermes_simnet::{FaultPlan, LinkSpec, Sim, SimRng};

fn ms(t: i64) -> MediaTime {
    MediaTime::from_millis(t)
}

/// Two 3 s images, then a 6 s narrated clip.
const IMAGES: LessonShape = LessonShape {
    images: 2,
    image_secs: 3,
    narrated_clip_secs: Some(6),
    closing_audio_secs: None,
};

/// One 1 s image, then a narrated clip of `secs`.
fn clip(secs: i64) -> LessonShape {
    LessonShape {
        images: 1,
        image_secs: 1,
        narrated_clip_secs: Some(secs),
        closing_audio_secs: None,
    }
}

struct World {
    sim: Sim<ServiceMsg, ServiceWorld>,
    srv: NodeId,
    clients: Vec<NodeId>,
    docs: Vec<DocumentId>,
}

/// One server (sharing per `sharing`), `clients` clients on 20 Mbps LAN
/// links and a course of `lessons` lessons of `shape`; with `tier`, two
/// media nodes hold the course's media.
fn world(
    clients: usize,
    lessons: usize,
    shape: LessonShape,
    tier: bool,
    sharing: SharingMode,
) -> World {
    let mut b = WorldBuilder::new(3);
    let mut cfg = ServerConfig::default();
    cfg.sharing = SharingPolicy {
        mode: sharing,
        window: MediaDuration::from_secs(2),
        max_patch: MediaDuration::from_secs(4),
        hot_rank: 0,
    };
    let srv = b.add_server(ServerId::new(0), LinkSpec::lan(100_000_000), cfg);
    let clients = (0..clients)
        .map(|_| b.add_client(LinkSpec::lan(20_000_000), ClientConfig::default()))
        .collect();
    if tier {
        for _ in 0..2 {
            b.add_media_node(LinkSpec::san(100_000_000));
        }
    }
    let mut sim = b.build(3);
    let mut rng = SimRng::seed_from_u64(9);
    let server = sim.app_mut().server_mut(srv);
    let docs = install_course(
        server,
        "Delivery",
        &["delivery"],
        1,
        lessons,
        shape,
        &mut rng,
    );
    if tier {
        sim.app_mut().distribute_media();
    }
    World {
        sim,
        srv,
        clients,
        docs,
    }
}

/// The private-flow world the findings run in: one client, no tier.
fn private(lessons: usize, shape: LessonShape) -> World {
    world(1, lessons, shape, false, SharingMode::Off)
}

impl World {
    /// Client `i` connects to the server asking for lesson `doc`.
    fn connect(&mut self, i: usize, doc: usize) {
        let (srv, cli, doc) = (self.srv, self.clients[i], self.docs[doc]);
        self.sim
            .with_api(|w, api| w.client_mut(cli).connect(api, srv, Some(doc)));
    }

    fn pause(&mut self, i: usize) {
        let cli = self.clients[i];
        self.sim.with_api(|w, api| w.client_mut(cli).pause(api));
    }

    fn resume(&mut self, i: usize) {
        let cli = self.clients[i];
        self.sim.with_api(|w, api| w.client_mut(cli).resume(api));
    }

    fn follow_local(&mut self, i: usize, doc: usize) {
        let (cli, target) = (self.clients[i], LinkTarget::Local(self.docs[doc]));
        self.sim
            .with_api(|w, api| w.client_mut(cli).follow_link(api, target));
    }

    fn run_until(&mut self, at: i64) {
        self.sim.run_until(ms(at));
    }

    /// Every stream of every session, in session and component order.
    fn rows(&self) -> Vec<Row> {
        let sessions = self.sim.app().server(self.srv).sessions.iter();
        let rows = sessions.flat_map(|(sid, s)| {
            let row = |tx: &StreamTx| (sid.raw(), tx.plan.component.raw(), tx.plan.kind);
            let row = move |tx: &StreamTx| (row(tx), tx.frames_sent, tx.bytes_sent, tx.done);
            s.streams.values().map(row)
        });
        rows.map(|((s, c, k), f, b, d)| (s, c, k, f, b, d))
            .collect()
    }

    /// Frames sent so far by the only session's stream of `kind`.
    fn sent(&self, kind: MediaKind) -> u64 {
        self.rows()
            .iter()
            .filter(|r| r.2 == kind)
            .map(|r| r.3)
            .sum()
    }

    /// Trace events whose name `pick` accepts.
    fn count(&self, pick: impl Fn(&str) -> bool) -> usize {
        let events = self.sim.obs().events().iter();
        events.filter(|e| pick(e.name)).count()
    }
}

/// `(session, component, kind, frames_sent, bytes_sent, done)`.
type Row = (u64, u64, MediaKind, u64, u64, bool);

/// The stream rows at each sample instant; the `admit`, `admit_reject`
/// and `share_*` event counts; the digest of the event log and `SimStats`.
type Pin<'a> = (&'a [&'a [Row]], [usize; 3], u64);

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `w` to `end` and check it against `golden`, given the rows sampled
/// on the way.
fn check(mut w: World, samples: Vec<Vec<Row>>, end: i64, golden: Pin) {
    w.run_until(end);
    let mut text = events_jsonl(w.sim.obs());
    text.push_str(&format!("{:?}\n", w.sim.stats()));
    let counts = [
        w.count(|n| n == "admit"),
        w.count(|n| n == "admit_reject"),
        w.count(|n| n.starts_with("share_")),
    ];
    let samples: Vec<&[Row]> = samples.iter().map(|s| s.as_slice()).collect();
    let got: Pin = (&samples, counts, fnv1a(&text));
    assert_eq!(got, golden);
}

/// A private flow and two images off the local store (no media tier).
#[test]
fn delivery_golden_local_flow_and_images() {
    let mut w = private(1, IMAGES);
    w.connect(0, 0);
    let mut samples = Vec::new();
    for at in [2_000, 8_000] {
        w.run_until(at);
        samples.push(w.rows());
    }
    check(w, samples, 20_000, LOCAL);
}

/// The server crashes mid-clip and rebuilds the session from the
/// client's playout position: both images were shown and are skipped,
/// the clip is fast-forwarded (media tier on).
#[test]
fn delivery_golden_rebuild_mid_clip() {
    let mut w = world(1, 1, IMAGES, true, SharingMode::Off);
    let plan = FaultPlan::new().crash_for(w.srv, ms(8_000), MediaDuration::from_millis(500));
    w.sim.install_faults(&plan);
    w.connect(0, 0);
    let mut samples = Vec::new();
    for at in [7_000, 12_000] {
        w.run_until(at);
        samples.push(w.rows());
    }
    w.run_until(25_000);
    assert_eq!(
        w.count(|n| n == "session_rebuilt"),
        1,
        "the session is rebuilt"
    );
    check(w, samples, 25_000, REBUILD);
}

/// A shared group: client 0 opens it, client 1 joins while it is pending
/// and client 2 joins after the flow started, with patch streams.
#[test]
fn delivery_golden_shared_open_pending_patched() {
    let mut w = world(3, 1, clip(8), true, SharingMode::BatchingPatching);
    let mut samples = Vec::new();
    for (i, at) in [0, 1_000, 4_000].into_iter().enumerate() {
        w.run_until(at);
        w.connect(i, 0);
    }
    for at in [5_000, 9_000] {
        w.run_until(at);
        samples.push(w.rows());
    }
    let stats = w.sim.app().server(w.srv).sharing_stats;
    let joins = (
        stats.groups_opened,
        stats.joins_pending,
        stats.joins_patched,
    );
    assert_eq!(joins, (1, 1, 1), "open, pending join, patched join");
    assert!(
        stats.patch_streams > 0,
        "the patched joiner gets patch streams"
    );
    check(w, samples, 25_000, SHARED);
}

/// Mid-clip, the client follows a local link to the next lesson.
#[test]
fn delivery_golden_local_link_mid_clip() {
    let mut w = private(2, clip(12));
    w.connect(0, 0);
    let mut samples = Vec::new();
    w.run_until(3_000);
    samples.push(w.rows());
    w.follow_local(0, 1);
    for at in [6_000, 12_000] {
        w.run_until(at);
        samples.push(w.rows());
    }
    check(w, samples, 25_000, LINK);
}

/// A pause and resume while the second image is still to ship.
#[test]
fn delivery_golden_pause_while_image_pending() {
    let mut w = private(1, IMAGES);
    w.connect(0, 0);
    w.run_until(300);
    w.pause(0);
    let mut samples = vec![w.rows()];
    w.run_until(800);
    w.resume(0);
    for at in [2_000, 8_000] {
        w.run_until(at);
        samples.push(w.rows());
    }
    check(w, samples, 20_000, PAUSED_IMAGE);
}

const LOCAL: Pin = (
    &[
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Image, 1, 65454, true),
            (1, 3, MediaKind::Audio, 0, 0, false),
            (1, 4, MediaKind::Video, 0, 0, false),
        ],
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Image, 1, 65454, true),
            (1, 3, MediaKind::Audio, 163, 289740, false),
            (1, 4, MediaKind::Video, 82, 619151, false),
        ],
    ],
    [1, 0, 0],
    7428606141471582442,
);
const REBUILD: Pin = (
    &[
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Image, 1, 65454, true),
            (1, 3, MediaKind::Audio, 112, 198555, false),
            (1, 4, MediaKind::Video, 56, 424786, false),
        ],
        &[
            (2, 3, MediaKind::Audio, 140, 246745, false),
            (2, 4, MediaKind::Video, 70, 526735, false),
        ],
    ],
    [2, 0, 0],
    12191465301075547600,
);
const SHARED: Pin = (
    &[
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Audio, 150, 263069, false),
            (1, 3, MediaKind::Video, 74, 573651, false),
            (2, 1, MediaKind::Image, 1, 67476, true),
            (3, 1, MediaKind::Image, 1, 67476, true),
            (3, 2, MediaKind::Audio, 50, 87419, false),
            (3, 3, MediaKind::Video, 25, 205716, false),
        ],
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Audio, 350, 617220, false),
            (1, 3, MediaKind::Video, 174, 1326076, false),
            (2, 1, MediaKind::Image, 1, 67476, true),
            (3, 1, MediaKind::Image, 1, 67476, true),
            (3, 2, MediaKind::Audio, 100, 175245, true),
            (3, 3, MediaKind::Video, 49, 388645, true),
        ],
    ],
    [3, 0, 3],
    10062665984468403980,
);
const LINK: Pin = (
    &[
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Audio, 150, 263069, false),
            (1, 3, MediaKind::Video, 75, 579713, false),
        ],
        &[
            (1, 1, MediaKind::Image, 1, 56730, true),
            (1, 2, MediaKind::Audio, 150, 265630, false),
            (1, 3, MediaKind::Video, 75, 577158, false),
        ],
        &[
            (1, 1, MediaKind::Image, 1, 56730, true),
            (1, 2, MediaKind::Audio, 450, 794728, false),
            (1, 3, MediaKind::Video, 225, 1697537, false),
        ],
    ],
    [2, 0, 0],
    17056370576535930381,
);
const PAUSED_IMAGE: Pin = (
    &[
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Image, 0, 0, false),
            (1, 3, MediaKind::Audio, 0, 0, false),
            (1, 4, MediaKind::Video, 0, 0, false),
        ],
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Image, 1, 65454, true),
            (1, 3, MediaKind::Audio, 0, 0, false),
            (1, 4, MediaKind::Video, 0, 0, false),
        ],
        &[
            (1, 1, MediaKind::Image, 1, 67476, true),
            (1, 2, MediaKind::Image, 1, 65454, true),
            (1, 3, MediaKind::Audio, 163, 289740, false),
            (1, 4, MediaKind::Video, 82, 619151, false),
        ],
    ],
    [1, 0, 0],
    2987197562855344788,
);

/// Frames the only session's `kind` stream sends from `from` to `to`.
fn rate(w: &mut World, kind: MediaKind, (from, to): (i64, i64)) -> u64 {
    w.run_until(from);
    let before = w.sent(kind);
    w.run_until(to);
    w.sent(kind) - before
}

/// Finding (q): a stream keeps its rate across a pause. A 12 s clip paused
/// at 3 s and resumed at 5 s should send as many frames a second as the
/// same clip unpaused; today the resume arms a second frame chain on top
/// of the pause's poll, and every stream goes out at twice its rate.
#[test]
fn a_resume_keeps_one_frame_chain_per_stream() {
    let mut plain = private(1, clip(12));
    plain.connect(0, 0);
    let mut paused = private(1, clip(12));
    paused.connect(0, 0);
    paused.run_until(3_000);
    paused.pause(0);
    paused.run_until(5_000);
    paused.resume(0);
    for kind in [MediaKind::Audio, MediaKind::Video] {
        let want = rate(&mut plain, kind, (6_000, 8_000));
        let got = rate(&mut paused, kind, (6_000, 8_000));
        assert!(
            got <= want + 1,
            "{kind:?}: {got} frames in 2 s, unpaused {want}"
        );
    }
}

/// Finding (r): a frame chain belongs to the document that armed it. After
/// a local link at 3 s, lesson 2's clip should send at its own rate; today
/// lesson 1's pending frame timer finds lesson 2's stream under the same
/// component id and drives it as a second chain.
#[test]
fn a_local_link_does_not_inherit_the_old_frame_chain() {
    let mut plain = private(1, clip(12));
    plain.connect(0, 0);
    let mut linked = private(2, clip(12));
    linked.connect(0, 0);
    linked.run_until(3_000);
    linked.follow_local(0, 1);
    for kind in [MediaKind::Audio, MediaKind::Video] {
        let want = rate(&mut plain, kind, (6_000, 8_000));
        let got = rate(&mut linked, kind, (6_000, 8_000));
        assert!(
            got <= want + 1,
            "{kind:?}: {got} frames in 2 s, one chain {want}"
        );
    }
}

/// The image streams' `(component, bytes_sent)` at 20 s.
fn images_shipped(w: &mut World) -> Vec<(u64, u64)> {
    w.run_until(20_000);
    let rows = w.rows().into_iter().filter(|r| r.2 == MediaKind::Image);
    rows.map(|r| (r.1, r.4)).collect()
}

/// Finding (s): the local path ships an image's stored size, as the tier
/// path does. Today `schedule_discrete` passes the size as a frame-source
/// seed, and the discrete send ships the size of a frame hashed from it.
#[test]
fn the_local_path_ships_the_stored_image_size() {
    let mut w = private(1, IMAGES);
    w.connect(0, 0);
    let shipped = images_shipped(&mut w);
    let server = w.sim.app().server(w.srv);
    let (_, s) = server.sessions.iter().next().expect("the session is live");
    let store = server.db.store(MediaKind::Image);
    let stored: Vec<(u64, u64)> = s
        .streams
        .values()
        .filter(|tx| tx.plan.kind == MediaKind::Image)
        .map(|tx| {
            let plan = &tx.plan;
            let source = store.open(&plan.source.object, plan.component, plan.duration);
            let first = source.and_then(|mut src| src.next_frame()).expect("stored");
            (plan.component.raw(), first.size as u64)
        })
        .collect();
    assert_eq!(shipped, stored, "(component, bytes) shipped vs stored");
}

/// Finding (t): a resume while an image is pending leaves the image to
/// its own timer. Paused at 0.3 s and resumed at 0.8 s, the session should
/// ship the bytes it ships unpaused; today the resume arms the RTP frame
/// timer for the image too, which advances its source, so the later
/// discrete timer ships another frame's size.
#[test]
fn a_resume_leaves_a_pending_image_alone() {
    let mut plain = private(1, IMAGES);
    plain.connect(0, 0);
    let mut paused = private(1, IMAGES);
    paused.connect(0, 0);
    paused.run_until(300);
    paused.pause(0);
    paused.run_until(800);
    paused.resume(0);
    let (want, got) = (images_shipped(&mut plain), images_shipped(&mut paused));
    assert_eq!(
        got, want,
        "(component, bytes) shipped after a pause vs unpaused"
    );
}
