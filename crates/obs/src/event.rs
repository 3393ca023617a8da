//! Structured trace events: fixed-shape, allocation-free records stamped
//! with sim-time.
//!
//! An [`Event`] is a 64-byte `Copy` record: the name is a `&'static str`,
//! the payload is a single `i64`, and the emitting node and the four
//! [`Labels`] ids are stored as 32-bit slots (an id that does not fit is
//! stored saturated and counted — see [`Event::saturated`]). Emitting one on
//! the hot path costs a few field writes and a `Vec` push — nothing is
//! formatted or heap-allocated until an exporter runs.

use hermes_core::MediaTime;

/// Event severity. `Debug` events are retained only in the per-node flight
/// ring (they are the high-frequency context a crash dump wants); `Info` and
/// above also land in the main trace log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-frequency context (per-tick buffer occupancy, per-segment
    /// progress). Flight-ring only.
    Debug,
    /// Lifecycle progress (session connect, playout start, regrades).
    Info,
    /// Degraded-but-recoverable conditions (playout gap, ladder step).
    Warn,
    /// Failures (breaker trip, session abandonment, media failover).
    Error,
}

impl Severity {
    /// Lower-case label used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// The fixed label set every event and metric key carries. All fields are
/// optional raw ids; absent labels are omitted by the exporters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Labels {
    /// Session the event belongs to.
    pub session: Option<u64>,
    /// Stream / component within the session.
    pub stream: Option<u64>,
    /// The *other* node involved (media replica, client, peer).
    pub peer: Option<u64>,
    /// Media segment index.
    pub segment: Option<u64>,
}

impl Labels {
    /// The empty label set.
    pub const NONE: Labels = Labels {
        session: None,
        stream: None,
        peer: None,
        segment: None,
    };

    /// Label set with just a session id.
    pub fn session(id: u64) -> Labels {
        Labels {
            session: Some(id),
            ..Labels::NONE
        }
    }
    /// Add a stream/component id.
    pub fn stream(mut self, id: u64) -> Labels {
        self.stream = Some(id);
        self
    }
    /// Add a peer-node id.
    pub fn peer(mut self, id: u64) -> Labels {
        self.peer = Some(id);
        self
    }
    /// Add a segment index.
    pub fn segment(mut self, id: u64) -> Labels {
        self.segment = Some(id);
        self
    }
    /// Label set with just a peer-node id.
    pub fn for_peer(id: u64) -> Labels {
        Labels {
            peer: Some(id),
            ..Labels::NONE
        }
    }

    /// Render as `{k=v,...}` (empty string when no label is set) — the
    /// canonical deterministic form shared by every exporter.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(v) = self.session {
            parts.push(format!("session={v}"));
        }
        if let Some(v) = self.stream {
            parts.push(format!("stream={v}"));
        }
        if let Some(v) = self.peer {
            parts.push(format!("peer={v}"));
        }
        if let Some(v) = self.segment {
            parts.push(format!("segment={v}"));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// A label slot (or the node slot) holding this value was narrowed from an
/// id that did not fit.
const SATURATED: u32 = u32::MAX;

/// `0` for an absent label, `id + 1` otherwise, [`SATURATED`] for every id
/// above `u32::MAX - 2` — so slots order exactly as the `Option<u64>`s do.
fn pack(id: Option<u64>) -> u32 {
    match id {
        None => 0,
        Some(id) => u32::try_from(id.saturating_add(1)).unwrap_or(SATURATED),
    }
}

fn unpack(slot: u32) -> Option<u64> {
    slot.checked_sub(1).map(u64::from)
}

/// One trace record, 64 bytes. `seq` is a global monotone counter assigned
/// at emit time, so events from different nodes at the same sim-time tick
/// always merge in one deterministic order: `(at, seq)`.
///
/// The node id and the label set are stored narrowed to 32 bits each and
/// read back through [`Event::node`] / [`Event::labels`]. Every id the
/// service emits fits (session and component ids share one `u64` timer
/// payload as 32 + 32 bits, node ids are small dense integers, segment
/// indices are per-object counts); one that does not is stored saturated,
/// never wrapped, and [`Event::saturated`] says so.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Sim-time stamp.
    pub at: MediaTime,
    /// Global emit order (tie-break within a tick).
    pub seq: u64,
    /// Free payload (occupancy micros, grade level, gap count, …).
    pub value: i64,
    /// Static event name (`snake_case`).
    pub name: &'static str,
    /// Session, stream, peer, segment — see [`pack`].
    labels: [u32; 4],
    /// Raw id of the emitting node, saturating.
    node: u32,
    /// Severity class.
    pub severity: Severity,
}

impl Event {
    /// Build a record, narrowing `node` and `labels` to their 32-bit slots.
    pub fn new(
        at: MediaTime,
        seq: u64,
        node: u64,
        severity: Severity,
        name: &'static str,
        labels: Labels,
        value: i64,
    ) -> Event {
        Event {
            at,
            seq,
            value,
            name,
            labels: [
                pack(labels.session),
                pack(labels.stream),
                pack(labels.peer),
                pack(labels.segment),
            ],
            node: u32::try_from(node).unwrap_or(SATURATED),
            severity,
        }
    }

    /// Raw id of the emitting node.
    pub fn node(&self) -> u64 {
        u64::from(self.node)
    }

    /// The label set.
    pub fn labels(&self) -> Labels {
        let [session, stream, peer, segment] = self.labels.map(unpack);
        Labels {
            session,
            stream,
            peer,
            segment,
        }
    }

    /// True when the node id or a label did not fit its slot and reads back
    /// as the largest value the slot holds. [`crate::Obs`] counts these in
    /// `obs.label_overflow`, which [`crate::check_run`] reports.
    pub fn saturated(&self) -> bool {
        self.node == SATURATED || self.labels.contains(&SATURATED)
    }

    /// The deterministic merge key.
    pub fn sort_key(&self) -> (MediaTime, u64) {
        (self.at, self.seq)
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .field("node", &self.node())
            .field("severity", &self.severity)
            .field("name", &self.name)
            .field("labels", &self.labels())
            .field("value", &self.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn labels_render_deterministically() {
        assert_eq!(Labels::NONE.render(), "");
        let l = Labels::session(3).stream(1).peer(9).segment(42);
        assert_eq!(l.render(), "{session=3,stream=1,peer=9,segment=42}");
        assert_eq!(Labels::for_peer(7).render(), "{peer=7}");
    }

    fn event(node: u64, labels: Labels) -> Event {
        Event::new(MediaTime::ZERO, 0, node, Severity::Info, "probe", labels, 0)
    }

    #[test]
    fn event_is_64_bytes_and_no_label_is_the_zero_slot() {
        assert_eq!(std::mem::size_of::<Event>(), 64);
        let e = event(0, Labels::NONE);
        assert_eq!((e.labels, e.node), ([0; 4], 0));
        assert_eq!(e.labels(), Labels::NONE);
        assert!(!e.saturated());
    }

    #[test]
    fn oversize_ids_saturate_instead_of_wrapping() {
        /// The largest id a slot holds exactly.
        const MAX_ID: u64 = u32::MAX as u64 - 2;
        let fits = event(MAX_ID, Labels::session(MAX_ID).segment(MAX_ID));
        assert!(!fits.saturated());
        assert_eq!(fits.node(), MAX_ID);
        for wide in [u32::MAX as u64 - 1, u32::MAX as u64, 1 << 40, u64::MAX] {
            for e in [
                event(1, Labels::session(wide)),
                event(1, Labels::NONE.stream(wide)),
                event(1, Labels::for_peer(wide)),
                event(1, Labels::session(3).segment(wide)),
            ] {
                assert!(e.saturated(), "{wide} in {e:?}");
                // Reads back as the top of the range, above every id that
                // fits — never as a small id some other key already uses.
                let l = e.labels();
                let read = [l.session, l.stream, l.peer, l.segment];
                assert!(read.contains(&Some(MAX_ID + 1)), "{wide} in {e:?}");
                assert_eq!(e.node(), 1);
            }
        }
        for wide in [u32::MAX as u64, 1 << 40, u64::MAX] {
            let e = event(wide, Labels::session(3));
            assert!(e.saturated());
            assert_eq!(
                (e.node(), e.labels()),
                (u32::MAX as u64, Labels::session(3))
            );
        }
    }

    fn id() -> impl proptest::prelude::Strategy<Value = Option<u64>> {
        use proptest::prelude::*;
        prop_oneof![
            Just(None),
            Just(Some(0)),
            Just(Some(u32::MAX as u64 - 2)),
            (0..u32::MAX as u64 - 1).prop_map(Some),
        ]
    }

    proptest::proptest! {
        /// Every id that fits comes back as it went in, in every mix of
        /// absent and present labels, and the packed slots order as the
        /// `Option`s do.
        #[test]
        fn labels_and_node_round_trip(
            node in 0..u32::MAX as u64,
            a in (id(), id(), id(), id()),
            b in (id(), id(), id(), id()),
        ) {
            let labels = |(session, stream, peer, segment)| Labels { session, stream, peer, segment };
            let (la, lb) = (labels(a), labels(b));
            let (ea, eb) = (event(node, la), event(node, lb));
            proptest::prop_assert_eq!(ea.labels(), la);
            proptest::prop_assert_eq!(ea.node(), node);
            proptest::prop_assert!(!ea.saturated());
            proptest::prop_assert_eq!(ea.labels.cmp(&eb.labels), la.cmp(&lb));
        }
    }
}
