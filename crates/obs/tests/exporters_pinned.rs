//! The exporters' text, pinned from outside the crate: the literals below
//! were printed by this file's `capture()` at the commit before `Event`
//! became a packed 64-byte record, so they hold whatever an event stores.
#![cfg(feature = "trace")]

use hermes_core::MediaTime;
use hermes_obs::{events_jsonl, flight_report, session_timeline, Labels, Obs, Severity};

/// Twelve events on three nodes: every label mix from none to all four,
/// all four severities (`Debug` reaches the rings and dumps only), the
/// largest ids a label slot holds, and same-tick ties that only `seq`
/// orders.
fn capture() -> Obs {
    let ms = MediaTime::from_millis;
    let mut obs = Obs::new();
    obs.session_span(7, 1, ms(1));
    let big = u32::MAX as u64 - 2;
    #[rustfmt::skip]
    let log: [(i64, u64, Severity, &'static str, Labels, i64); 12] = [
        (5, 1, Severity::Info, "session_connect", Labels::session(7), 0),
        (5, 2, Severity::Debug, "buffer_occupancy", Labels::session(7).stream(0), 250_000),
        (5, 1, Severity::Info, "stream_epoch", Labels::session(7).stream(3), 1),
        (9, 3, Severity::Warn, "fetch_shed", Labels::for_peer(1).segment(0), 64),
        (9, 3, Severity::Warn, "fetch_shed", Labels::for_peer(1).segment(41), 64),
        (9, 1, Severity::Error, "breaker_trip", Labels::for_peer(3), -1),
        (12, 2, Severity::Debug, "media_queue_wait", Labels::NONE.segment(big), 1_500),
        (12, 2, Severity::Warn, "playout_gap", Labels::session(7), 2),
        (12, 1, Severity::Info, "media_failover", Labels::session(7).stream(3).peer(4).segment(42), 9),
        (12, 1, Severity::Info, "node_restart", Labels::NONE, i64::MIN),
        (20, 2, Severity::Error, "session_abandoned", Labels::session(big).stream(big).peer(big).segment(big), i64::MAX),
        (20, big, Severity::Info, "session_teardown", Labels::session(0).stream(0).peer(0).segment(0), 0),
    ];
    for (i, &(at, node, severity, name, labels, value)) in log.iter().enumerate() {
        if i == 10 {
            obs.dump_flight(ms(13), 2, "playout_gap", Labels::session(7));
        }
        obs.emit_val(ms(at), node, severity, name, labels, value);
    }
    obs.dump_flight(ms(21), 3, "breaker_trip", Labels::for_peer(3));
    obs.dump_flight(
        ms(21),
        2,
        "session_drop",
        Labels::session(u32::MAX as u64 - 2),
    );
    obs
}

#[test]
fn events_jsonl_text_is_pinned() {
    assert_eq!(events_jsonl(&capture()), JSONL);
}

#[test]
fn session_timeline_text_is_pinned() {
    let obs = capture();
    assert_eq!(session_timeline(&obs, 7), TIMELINE_7);
    assert_eq!(session_timeline(&obs, 0), TIMELINE_0);
}

#[test]
fn flight_report_text_is_pinned() {
    assert_eq!(flight_report(&capture()), FLIGHT_REPORT);
}

#[rustfmt::skip]
const JSONL: &str = concat!(
    "{\"at\":5000,\"seq\":0,\"node\":1,\"sev\":\"info\",\"name\":\"session_connect\",\"session\":7,\"value\":0}\n",
    "{\"at\":5000,\"seq\":2,\"node\":1,\"sev\":\"info\",\"name\":\"stream_epoch\",\"session\":7,\"stream\":3,\"value\":1}\n",
    "{\"at\":9000,\"seq\":3,\"node\":3,\"sev\":\"warn\",\"name\":\"fetch_shed\",\"peer\":1,\"segment\":0,\"value\":64}\n",
    "{\"at\":9000,\"seq\":4,\"node\":3,\"sev\":\"warn\",\"name\":\"fetch_shed\",\"peer\":1,\"segment\":41,\"value\":64}\n",
    "{\"at\":9000,\"seq\":5,\"node\":1,\"sev\":\"error\",\"name\":\"breaker_trip\",\"peer\":3,\"value\":-1}\n",
    "{\"at\":12000,\"seq\":7,\"node\":2,\"sev\":\"warn\",\"name\":\"playout_gap\",\"session\":7,\"value\":2}\n",
    "{\"at\":12000,\"seq\":8,\"node\":1,\"sev\":\"info\",\"name\":\"media_failover\",\"session\":7,\"stream\":3,\"peer\":4,\"segment\":42,\"value\":9}\n",
    "{\"at\":12000,\"seq\":9,\"node\":1,\"sev\":\"info\",\"name\":\"node_restart\",\"value\":-9223372036854775808}\n",
    "{\"at\":20000,\"seq\":10,\"node\":2,\"sev\":\"error\",\"name\":\"session_abandoned\",\"session\":4294967293,\"stream\":4294967293,\"peer\":4294967293,\"segment\":4294967293,\"value\":9223372036854775807}\n",
    "{\"at\":20000,\"seq\":11,\"node\":4294967293,\"sev\":\"info\",\"name\":\"session_teardown\",\"session\":0,\"stream\":0,\"peer\":0,\"segment\":0,\"value\":0}\n",
);

#[rustfmt::skip]
const TIMELINE_7: &str = concat!(
    "timeline for session 7\n",
    "[     1.000ms →       (open)] session\n",
    "  @     5.000ms  info   session_connect{session=7}  value=0\n",
    "  @     5.000ms  info   stream_epoch{session=7,stream=3}  value=1\n",
    "  @    12.000ms  warn   playout_gap{session=7}  value=2\n",
    "  @    12.000ms  info   media_failover{session=7,stream=3,peer=4,segment=42}  value=9\n",
);

#[rustfmt::skip]
const TIMELINE_0: &str = concat!(
    "timeline for session 0\n",
    "  @    20.000ms  info   session_teardown{session=0,stream=0,peer=0,segment=0}  value=0\n",
);

#[rustfmt::skip]
const FLIGHT_REPORT: &str = concat!(
    "flight dump @    13.000ms node=2 reason=playout_gap{session=7} root=0 cause=unknown (3 events)\n",
    "    @     5.000ms  debug  buffer_occupancy{session=7,stream=0}  value=250000\n",
    "    @    12.000ms  debug  media_queue_wait{segment=4294967293}  value=1500\n",
    "    @    12.000ms  warn   playout_gap{session=7}  value=2\n",
    "flight dump @    21.000ms node=3 reason=breaker_trip{peer=3} cause=media_queue (2 events)\n",
    "    @     9.000ms  warn   fetch_shed{peer=1,segment=0}  value=64\n",
    "    @     9.000ms  warn   fetch_shed{peer=1,segment=41}  value=64\n",
    "flight dump @    21.000ms node=2 reason=session_drop{session=4294967293} cause=unknown (4 events)\n",
    "    @     5.000ms  debug  buffer_occupancy{session=7,stream=0}  value=250000\n",
    "    @    12.000ms  debug  media_queue_wait{segment=4294967293}  value=1500\n",
    "    @    12.000ms  warn   playout_gap{session=7}  value=2\n",
    "    @    20.000ms  error  session_abandoned{session=4294967293,stream=4294967293,peer=4294967293,segment=4294967293}  value=9223372036854775807\n",
);
