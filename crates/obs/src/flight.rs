//! The flight recorder: a bounded ring of recent events per node, dumped
//! automatically when an anomaly fires (playout gap, breaker trip,
//! media-node failover, session drop) so failures ship their own context.
//!
//! Every emitted event — including `Debug`-severity records that never
//! reach the main trace log — lands in its node's ring. A dump snapshots
//! the ring at that instant; the ring itself keeps rolling, so back-to-back
//! anomalies each carry the window that preceded *them*.

use crate::event::{Event, Labels};
use hermes_core::{MediaDuration, MediaTime};
use std::collections::{BTreeMap, VecDeque};

/// Default events retained per node.
pub const DEFAULT_RING_CAP: usize = 64;
/// Default cap on retained dumps (later anomalies stop dumping — by then
/// the first few windows have told the story, and memory stays bounded).
pub const DEFAULT_MAX_DUMPS: usize = 32;
/// Default incident-dedupe window: repeat dumps for the same
/// `(reason, session, root span)` incident key inside this window are
/// folded into the first one.
pub const DEFAULT_DEDUPE_WINDOW: MediaDuration = MediaDuration::from_secs(1);

/// One anomaly dump: the triggering context plus the preceding window of
/// the node's events, oldest first.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// When the anomaly fired.
    pub at: MediaTime,
    /// The node whose ring was dumped.
    pub node: u64,
    /// Static anomaly name (`playout_gap`, `breaker_trip`, …).
    pub reason: &'static str,
    /// Labels of the triggering condition.
    pub labels: Labels,
    /// Raw id of the incident's session root span (`u32::MAX` when the
    /// anomaly has no session root).
    pub root: u32,
    /// Dominant-cause label attributed from the ring window at dump time
    /// (`""` when attribution was not run).
    pub cause: &'static str,
    /// The ring contents at dump time, oldest first.
    pub events: Vec<Event>,
}

/// Per-node bounded rings plus the dumps collected so far.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    max_dumps: usize,
    dedupe_window: MediaDuration,
    rings: BTreeMap<u64, VecDeque<Event>>,
    dumps: Vec<FlightDump>,
    /// Last dump time per `(reason, incident id, root)` key.
    recent: BTreeMap<(&'static str, u64, u32), MediaTime>,
    /// Anomalies seen after the dump cap was reached (still counted).
    pub suppressed: u64,
    /// Anomalies folded into an earlier dump of the same incident.
    pub deduped: u64,
    /// Events evicted from a full ring, by the evicted event's
    /// [`crate::event::Severity`] (`Debug` first).
    pub overwritten: [u64; 4],
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RING_CAP, DEFAULT_MAX_DUMPS)
    }
}

impl FlightRecorder {
    /// Recorder with explicit ring capacity and dump cap.
    pub fn new(cap: usize, max_dumps: usize) -> Self {
        assert!(cap > 0);
        FlightRecorder {
            cap,
            max_dumps,
            dedupe_window: DEFAULT_DEDUPE_WINDOW,
            rings: BTreeMap::new(),
            dumps: Vec::new(),
            recent: BTreeMap::new(),
            suppressed: 0,
            deduped: 0,
            overwritten: [0; 4],
        }
    }

    /// Append an event to its node's ring, evicting the oldest past `cap`.
    pub fn record(&mut self, ev: Event) {
        let ring = self.rings.entry(ev.node()).or_default();
        if ring.len() == self.cap {
            if let Some(old) = ring.pop_front() {
                self.overwritten[old.severity as usize] += 1;
            }
        }
        ring.push_back(ev);
    }

    /// Snapshot `node`'s ring as an anomaly dump (no attribution header,
    /// no session root — incident dedupe falls back to a per-node key).
    pub fn dump(&mut self, at: MediaTime, node: u64, reason: &'static str, labels: Labels) {
        self.dump_incident(at, node, reason, labels, u32::MAX, |_| "");
    }

    /// Snapshot `node`'s ring as an anomaly dump, keyed by its
    /// `(session, root span)` incident identity and attributed to whatever
    /// `cause` reads out of the ring.
    ///
    /// Anomaly events fire per raw occurrence, so one incident — a gap
    /// burst on a session, the same breaker trip observed from two nodes —
    /// used to dump multiple near-identical windows and burn the dump cap.
    /// The first dump inside the dedupe window
    /// ([`Self::set_dedupe_window`]) per `(reason, session, root)` key
    /// wins; repeats are counted in [`Self::deduped`]. Anomalies with no
    /// session label keep a per-node key (distinct unlabelled incidents on
    /// different nodes never fold).
    ///
    /// `cause` runs only for a dump that is kept: a repeat or a dump past
    /// the cap costs a map lookup, not a classification and a ring copy.
    pub fn dump_incident(
        &mut self,
        at: MediaTime,
        node: u64,
        reason: &'static str,
        labels: Labels,
        root: u32,
        cause: impl FnOnce(&VecDeque<Event>) -> &'static str,
    ) {
        let ident = match labels.session {
            Some(s) => s,
            None => (1 << 63) | node,
        };
        let key = (reason, ident, root);
        if let Some(&last) = self.recent.get(&key) {
            if at - last <= self.dedupe_window {
                self.deduped += 1;
                return;
            }
        }
        self.recent.insert(key, at);
        if self.dumps.len() >= self.max_dumps {
            self.suppressed += 1;
            return;
        }
        let quiet = VecDeque::new();
        let ring = self.rings.get(&node).unwrap_or(&quiet);
        self.dumps.push(FlightDump {
            at,
            node,
            reason,
            labels,
            root,
            cause: cause(ring),
            events: ring.iter().copied().collect(),
        });
    }

    /// Override the incident-dedupe window.
    pub fn set_dedupe_window(&mut self, w: MediaDuration) {
        self.dedupe_window = w;
    }

    /// Dumps collected so far, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Current ring length of a node (test/diagnostic hook).
    pub fn ring_len(&self, node: u64) -> usize {
        self.rings.get(&node).map(|r| r.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Severity;

    fn ev(at: i64, node: u64, seq: u64, name: &'static str) -> Event {
        Event::new(
            MediaTime::from_millis(at),
            seq,
            node,
            Severity::Debug,
            name,
            Labels::NONE,
            0,
        )
    }

    #[test]
    fn ring_is_bounded_and_dump_snapshots_it() {
        let mut f = FlightRecorder::new(3, 8);
        for i in 0..5 {
            f.record(ev(i, 1, i as u64, "tick"));
        }
        assert_eq!(f.ring_len(1), 3);
        f.dump(
            MediaTime::from_millis(9),
            1,
            "playout_gap",
            Labels::session(7),
        );
        let d = &f.dumps()[0];
        assert_eq!(d.reason, "playout_gap");
        // Oldest two were evicted; the window holds ticks 2..5.
        let ats: Vec<i64> = d.events.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(ats, vec![2, 3, 4]);
        // The ring keeps rolling after a dump.
        f.record(ev(10, 1, 9, "tick"));
        assert_eq!(f.ring_len(1), 3);
        // Three `Debug` ticks were pushed out so far; the `Warn` that
        // evicts nothing is not counted until it is itself evicted.
        assert_eq!(f.overwritten, [3, 0, 0, 0]);
        let mut warn = ev(11, 1, 10, "late");
        warn.severity = Severity::Warn;
        f.record(warn);
        for i in 0..3 {
            f.record(ev(12 + i, 1, 11 + i as u64, "tick"));
        }
        assert_eq!(f.overwritten, [6, 0, 1, 0]);
    }

    /// Whatever an event carries — any severity, any label mix, the widest
    /// ids a slot holds — the dump is the ring, event for event, and an
    /// eviction is booked under the severity of the event that left.
    #[test]
    fn dump_equals_ring_contents_and_evictions_count_by_severity() {
        const SEVERITIES: [Severity; 4] = [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ];
        let big = u32::MAX as u64 - 2;
        let all: Vec<Event> = (0..11u64)
            .map(|i| {
                let labels = match i % 4 {
                    0 => Labels::NONE,
                    1 => Labels::session(i).stream(0),
                    2 => Labels::for_peer(big).segment(i),
                    _ => Labels::session(big).stream(big).peer(big).segment(big),
                };
                let severity = SEVERITIES[(i % 3 + i % 2) as usize];
                let at = MediaTime::from_millis(i as i64 / 2);
                Event::new(at, i, 5, severity, "tick", labels, -(i as i64))
            })
            .collect();
        let mut f = FlightRecorder::new(4, all.len());
        f.set_dedupe_window(MediaDuration::ZERO);
        let mut evicted = [0u64; 4];
        for (i, &e) in all.iter().enumerate() {
            f.record(e);
            if i >= 4 {
                evicted[all[i - 4].severity as usize] += 1;
            }
            assert_eq!(f.overwritten, evicted);
            f.dump(
                MediaTime::from_millis(100 + i as i64),
                5,
                "probe",
                Labels::NONE,
            );
            let dump = f.dumps().last().unwrap();
            assert_eq!(dump.events, all[(i + 1).saturating_sub(4)..=i]);
        }
        assert_eq!(evicted.iter().sum::<u64>(), 7);
        assert!(
            evicted.iter().filter(|&&n| n > 0).count() >= 3,
            "{evicted:?}"
        );
    }

    /// A gap burst raises the same incident over and over: the recorder
    /// answers from its dedupe map, and only the dump that is kept pays
    /// for a classification and a copy of the ring.
    #[test]
    fn burst_on_one_incident_classifies_once() {
        let mut f = FlightRecorder::new(64, 2);
        for i in 0..64 {
            f.record(ev(i, 1, i as u64, "tick"));
        }
        let mut classified = 0;
        for i in 0..100 {
            f.dump_incident(
                MediaTime::from_millis(100 + i),
                1,
                "playout_gap",
                Labels::session(7),
                4,
                |ring| {
                    classified += 1;
                    assert_eq!(ring.len(), 64);
                    "link_loss"
                },
            );
        }
        assert_eq!(classified, 1);
        assert_eq!((f.dumps().len(), f.deduped, f.suppressed), (1, 99, 0));
        assert_eq!(f.dumps()[0].cause, "link_loss");
        assert_eq!(f.dumps()[0].events.len(), 64);
        // Past the dump cap a fresh incident is counted, not classified.
        for session in 8..12 {
            f.dump_incident(
                MediaTime::from_millis(300),
                1,
                "playout_gap",
                Labels::session(session),
                4,
                |_| {
                    classified += 1;
                    "link_loss"
                },
            );
        }
        assert_eq!(classified, 2);
        assert_eq!((f.dumps().len(), f.deduped, f.suppressed), (2, 99, 3));
    }

    #[test]
    fn rings_are_per_node_and_dump_cap_holds() {
        let mut f = FlightRecorder::new(4, 1);
        f.record(ev(1, 1, 0, "a"));
        f.record(ev(2, 2, 1, "b"));
        f.dump(MediaTime::from_millis(3), 2, "breaker_trip", Labels::NONE);
        assert_eq!(f.dumps()[0].events.len(), 1);
        assert_eq!(f.dumps()[0].events[0].name, "b");
        f.dump(MediaTime::from_millis(4), 1, "breaker_trip", Labels::NONE);
        assert_eq!(f.dumps().len(), 1);
        assert_eq!(f.suppressed, 1);
    }

    #[test]
    fn dump_of_quiet_node_is_empty() {
        let mut f = FlightRecorder::default();
        f.dump(MediaTime::ZERO, 42, "session_drop", Labels::NONE);
        assert!(f.dumps()[0].events.is_empty());
    }

    #[test]
    fn one_incident_dumps_once_across_nodes() {
        let mut f = FlightRecorder::default();
        f.record(ev(1, 1, 0, "a"));
        f.record(ev(1, 2, 1, "b"));
        // The same (session, root) incident observed from two nodes inside
        // the dedupe window folds into one dump.
        f.dump_incident(
            MediaTime::from_millis(2),
            1,
            "playout_gap",
            Labels::session(7),
            4,
            |_| "link_loss",
        );
        f.dump_incident(
            MediaTime::from_millis(3),
            2,
            "playout_gap",
            Labels::session(7),
            4,
            |_| "link_loss",
        );
        assert_eq!(f.dumps().len(), 1);
        assert_eq!(f.deduped, 1);
        assert_eq!(f.dumps()[0].cause, "link_loss");
        assert_eq!(f.dumps()[0].root, 4);
        // A different session is a different incident.
        f.dump_incident(
            MediaTime::from_millis(3),
            2,
            "playout_gap",
            Labels::session(8),
            9,
            |_| "media_queue",
        );
        assert_eq!(f.dumps().len(), 2);
        // The same incident recurs after the window: a fresh dump.
        f.dump_incident(
            MediaTime::from_millis(2000),
            1,
            "playout_gap",
            Labels::session(7),
            4,
            |_| "link_loss",
        );
        assert_eq!(f.dumps().len(), 3);
    }

    #[test]
    fn unlabelled_incidents_keep_per_node_identity() {
        let mut f = FlightRecorder::default();
        f.dump(MediaTime::from_millis(1), 1, "breaker_trip", Labels::NONE);
        f.dump(MediaTime::from_millis(1), 2, "breaker_trip", Labels::NONE);
        assert_eq!(f.dumps().len(), 2);
        // Same node, same reason, inside the window: folded.
        f.dump(MediaTime::from_millis(2), 1, "breaker_trip", Labels::NONE);
        assert_eq!(f.dumps().len(), 2);
        assert_eq!(f.deduped, 1);
    }
}
