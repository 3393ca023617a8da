//! What a run holds at its heap peak is what can still be read. A small
//! streaming world is run with tracing on for several provenance horizons;
//! at every half second from 4 s on:
//! - the provenance ring holds one attribution window of deliveries, and
//!   its room is at most an eighth more, plus one growth step;
//! - the main event log's room is at most an eighth more than it holds,
//!   plus one growth step;
//! - a stream's queue of fetched frames holds at most its fetch window
//!   (`FETCH_AHEAD` of media) plus one segment, and reads them in place:
//!   its next frame is the segment cache's own copy, not a copy of it.
//!
//! A window of 2 s, not the whole rest of the clip, also keeps the first
//! viewer from racing ahead of the others: by 2 s the cache has refused 6
//! segments, where a whole-object fetch had it refuse 30.

use hermes_od::core::{MediaDuration, MediaTime, ServerId};
use hermes_od::obs::{AttributionConfig, HopRecord, Labels, Obs, Severity};
use hermes_od::server::FETCH_AHEAD;
use hermes_od::service::{
    install_course, ClientConfig, LessonShape, MediaTierConfig, ServerConfig, WorldBuilder,
};
use hermes_od::simnet::{LinkSpec, SimRng};

const SEED: u64 = 11;
const CLIENTS: usize = 16;
/// The smallest step the provenance ring grows by.
const RING_MIN_STEP: usize = 4096;
/// The smallest step the main event log grows by.
const EVENT_LOG_MIN_STEP: usize = 1024;

#[test]
fn the_capture_and_the_fetch_queues_hold_what_is_read() {
    let mut b = WorldBuilder::new(SEED);
    let srv = b.add_server(
        ServerId::new(0),
        LinkSpec::lan(1_000_000_000),
        ServerConfig::default(),
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
        .collect();
    for _ in 0..2 {
        b.add_media_node(LinkSpec::san(1_000_000_000));
    }
    // A cache large enough that no segment a stream still reads is evicted.
    b.media_config(MediaTierConfig {
        cache_bytes: 256 << 20,
        ..MediaTierConfig::default()
    });
    let mut sim = b.build(SEED);
    let shape = LessonShape {
        images: 0,
        image_secs: 0,
        narrated_clip_secs: Some(30),
        closing_audio_secs: None,
    };
    let mut rng = SimRng::seed_from_u64(SEED);
    let server = sim.app_mut().server_mut(srv);
    let doc = install_course(server, "Peak", &["peak"], 1, 1, shape, &mut rng)[0];
    sim.app_mut().distribute_media();
    for (i, &c) in clients.iter().enumerate() {
        sim.run_until(MediaTime::from_millis(100 + 100 * i as i64));
        sim.with_api(|w, api| w.client_mut(c).connect(api, srv, Some(doc)));
    }

    sim.run_until(MediaTime::from_secs(2));
    let refused = sim.app().server(srv).media.as_ref().expect("media tier");
    assert_eq!(refused.cache.stats.rejected, 6, "segments refused by 2 s");

    let window = AttributionConfig::default().window;
    let (mut in_place, mut queues, mut ring_checks) = (0, 0, 0);
    // By 4 s every client has joined.
    let mut t = MediaTime::from_secs(4);
    while t <= MediaTime::from_secs(12) {
        sim.run_until(t);
        t += MediaDuration::from_millis(500);

        let obs = sim.obs();
        assert_event_log_in_steps(obs);

        let prov = &obs.prov;
        let newest = prov.records().last().expect("deliveries").at();
        let last_window = prov.records().filter(|r| r.at() >= newest - window).count();
        let bytes = |records: usize| records * std::mem::size_of::<HopRecord>();
        // Past the opening prefill the delivery rate is steady, so the ring
        // peaked at about one window's worth.
        if sim.now() >= MediaTime::from_secs(6) {
            assert!(
                bytes(prov.ring_capacity()) <= bytes(last_window * 9 / 8 + RING_MIN_STEP),
                "provenance ring: {} B for {last_window} deliveries in the last {window}",
                bytes(prov.ring_capacity())
            );
            ring_checks += 1;
        }

        let server = sim.app().server(srv);
        // A clone shares the resident segments; reading it leaves the
        // run's own cache untouched.
        let mut cache = server.media.as_ref().expect("media tier").cache.clone();
        let resident: Vec<_> = cache
            .lru_order()
            .iter()
            .map(|key| cache.get(key).expect("resident").clone())
            .collect();
        // Every viewer's segments are resident, the first one's too: its
        // window is still ahead of the others when a second viewer makes
        // the lesson worth caching.
        for session in server.sessions.values() {
            for stream in session.streams.values() {
                let Some(r) = stream.remote.as_ref() else {
                    continue;
                };
                let source = &stream.source;
                let period = source.model().level(source.level()).frame_period();
                let ahead = (FETCH_AHEAD.as_micros() as u64).div_ceil(period.as_micros() as u64);
                let bound = ahead as usize + r.frames_per_segment as usize;
                assert!(
                    r.ready.len() <= bound,
                    "{} frames queued: more than {bound}",
                    r.ready.len()
                );
                queues += 1;
                let Some(front) = r.ready.front() else {
                    continue;
                };
                let frame = front as *const _;
                assert!(
                    resident
                        .iter()
                        .any(|seg| seg.as_ptr_range().contains(&frame)),
                    "a fetched frame was copied out of its segment"
                );
                in_place += 1;
            }
        }
    }
    assert!(ring_checks >= 12, "{ring_checks} ring checks");
    assert_eq!(queues, CLIENTS * 2 * 17, "two streams a viewer, 17 steps");
    assert!(
        in_place > 100,
        "only {in_place} queued frames were looked at"
    );

    // The world logs a few hundred events; more, emitted into its capture,
    // take the log through many growth steps.
    let obs = sim.obs_mut();
    let now = obs.events().last().expect("events").at;
    for _ in 0..40_000 {
        obs.emit(now, 1, Severity::Info, "filler", Labels::NONE);
        assert_event_log_in_steps(obs);
    }
}

/// The main event log has room for at most an eighth more events than it
/// holds, plus one growth step.
fn assert_event_log_in_steps(obs: &Obs) {
    let events = obs.events().len();
    assert!(
        obs.events_capacity() <= events * 9 / 8 + EVENT_LOG_MIN_STEP,
        "event log: room for {} events holding {events}",
        obs.events_capacity()
    );
}
