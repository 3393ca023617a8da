//! The media frame path allocates nothing in steady state: packetising a
//! frame, receiving its packets, handing completed frames to the playout
//! engine and ticking it perform **zero** heap allocations per packet and
//! per tick once buffers have reached their working size.
//!
//! The count is per thread (the test harness allocates on others), taken by
//! a global allocator that wraps the system one. Event recording is off:
//! with it on, `PlayoutEngine::events` grows by design.

use hermes_od::client::{BufferConfig, PlayoutConfig, PlayoutEngine};
use hermes_od::core::{
    ComponentContent, ComponentId, DocumentId, Encoding, GradeLevel, MediaComponent, MediaDuration,
    MediaSource, MediaTime, PlayoutSchedule, Scenario, ServerId, SyncGroup,
};
use hermes_od::media::{CodecModel, FrameSource, MediaFrame};
use hermes_od::rtp::{RtcpPacket, RtpReceiver, RtpSender};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

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

const WARM_UP_MS: i64 = 1_000;
const MEASURED_MS: i64 = 10_000;
/// Frames reach the client this far ahead of their deadline.
const LEAD_MS: i64 = 400;

/// One stream end to end: paced source → sender → receiver.
struct Stream {
    id: ComponentId,
    frames: std::vec::IntoIter<MediaFrame>,
    next: Option<MediaFrame>,
    tx: RtpSender,
    rx: RtpReceiver,
    delivered: u64,
}

impl Stream {
    fn new(id: u64, encoding: Encoding) -> Stream {
        let id = ComponentId::new(id);
        let media = MediaDuration::from_millis(WARM_UP_MS + MEASURED_MS);
        let mut frames = FrameSource::new(id, encoding, 11, media)
            .collect_all()
            .into_iter();
        Stream {
            id,
            next: frames.next(),
            frames,
            tx: RtpSender::new(id.raw() as u32 + 1, encoding),
            rx: RtpReceiver::new(encoding),
            delivered: 0,
        }
    }

    /// Send, receive and deliver every frame due by media time `until`.
    /// Every other multi-packet frame has its last two packets swapped, the
    /// marker race the simulator's per-packet jitter produces.
    fn pump(&mut self, until: MediaTime, now: MediaTime, engine: &mut PlayoutEngine) {
        while let Some(frame) = self.next.take_if(|f| f.pts <= until) {
            self.next = self.frames.next();
            let mut held = None;
            let mut packets = self.tx.packetize(&frame).peekable();
            while let Some(p) = packets.next() {
                let second_to_last = packets.peek().is_some_and(|q| q.marker);
                if second_to_last && frame.seq % 2 == 0 {
                    held = Some(p);
                    continue;
                }
                self.rx.on_packet(&p, now);
            }
            if let Some(p) = held {
                self.rx.on_packet(&p, now);
            }
            for f in self.rx.drain_frames() {
                engine.deliver(MediaFrame {
                    component: self.id,
                    seq: self.delivered,
                    pts: f.pts,
                    size: f.size,
                    key: true,
                    level: GradeLevel::NOMINAL,
                    last: false,
                });
                self.delivered += 1;
            }
        }
    }
}

#[test]
fn frame_path_allocates_nothing_in_steady_state() {
    let encodings = [(0u64, Encoding::Pcm), (1, Encoding::Mpeg)];
    let mut scenario = Scenario::new(DocumentId::new(1), "allocs");
    let mut periods = BTreeMap::new();
    for (id, encoding) in encodings {
        scenario.components.push(MediaComponent {
            id: ComponentId::new(id),
            content: ComponentContent::Stored {
                source: MediaSource::new(ServerId::new(0), format!("m{id}")),
                encoding,
            },
            start: MediaTime::ZERO,
            duration: Some(MediaDuration::from_millis(WARM_UP_MS + MEASURED_MS)),
            region: None,
            note: None,
        });
        let model = CodecModel::for_encoding(encoding);
        periods.insert(
            ComponentId::new(id),
            model.level(GradeLevel::NOMINAL).frame_period(),
        );
    }
    scenario.sync_groups.push(SyncGroup {
        members: encodings.map(|(id, _)| ComponentId::new(id)).to_vec(),
    });
    let schedule = PlayoutSchedule::from_scenario(&scenario);
    let mut engine = PlayoutEngine::new(
        &scenario,
        &schedule,
        BufferConfig::with_window(MediaDuration::from_millis(LEAD_MS)),
        &periods,
        PlayoutConfig {
            record_events: false,
            ..PlayoutConfig::default()
        },
    );
    let mut streams = encodings.map(|(id, encoding)| Stream::new(id, encoding));

    // Prefill, then 20 ms ticks with media arriving `LEAD_MS` ahead.
    let mut run = |engine: &mut PlayoutEngine, from_ms: i64, to_ms: i64| {
        for now_ms in (from_ms..to_ms).step_by(20) {
            let now = MediaTime::from_millis(now_ms);
            for s in &mut streams {
                s.pump(MediaTime::from_millis(now_ms + LEAD_MS), now, engine);
            }
            engine.tick(now);
        }
    };
    engine.start(MediaTime::ZERO);
    run(&mut engine, 0, WARM_UP_MS);

    let before = allocations();
    assert!(before > 0, "the counting allocator is not installed");
    run(&mut engine, WARM_UP_MS, WARM_UP_MS + MEASURED_MS);
    let during = allocations() - before;

    let played = engine.total_stats();
    assert!(played.frames_played > 700, "{played:?}");
    assert_eq!(played.glitches, 0, "{played:?}");
    let video = &streams[1];
    assert!(
        video.rx.stats.frames_abandoned > 0,
        "no marker race happened"
    );
    assert_eq!(during, 0, "heap allocations on the steady-state frame path");
}

#[test]
fn rtcp_wire_size_allocates_nothing() {
    let tx = RtpSender::new(3, Encoding::Mpeg);
    let sr = tx.sender_report(MediaTime::from_secs(1));
    let bye = RtcpPacket::Bye { ssrc: 3 };
    let before = allocations();
    let bytes = sr.wire_size() + bye.wire_size();
    assert_eq!(allocations() - before, 0);
    assert_eq!(bytes, 28 + 28 + 8 + 28);
}
