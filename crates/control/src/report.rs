//! The control-plane report: one reporter's signals and its session rows,
//! built once per report period and shared by every copy.
//!
//! A [`LoadReport`] holds its three signals inline and its session rows
//! behind one `Arc`: the reliable send to the controller host, the HA
//! broadcast copies and the host's own ingest all hold the same rows, and
//! the controller stores the report as received. A media node's
//! queue-only report has no rows and allocates nothing. The controller
//! reads the rows in place: each [`SessionView`] of its fleet view borrows
//! its streams from the report. The gauge names of [`names`] survive only
//! in the [`MetricsRegistry`] adapter, which accepts the older registry
//! form of a report.

use crate::controller::names;
use crate::utility::{class_from_priority, decode_kind, SessionView, StreamView};
use hermes_core::{MediaKind, PricingClass};
use hermes_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One reporter's control-plane signals: its pressure verdict, SLO burn and
/// queue depth, each absent unless the reporter measures it, and one row
/// per live session holding the session's gradable streams. Cloning shares
/// the rows.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// CoDel pressure verdict (1 pressured, 0 calm).
    pressure: Option<f64>,
    /// Worst SLO burn rate, in milli-burn.
    burn: Option<f64>,
    /// Media-node fetch-queue depth.
    queue: Option<f64>,
    /// The session rows; `None` for a report that carries none.
    rows: Option<Arc<Rows>>,
}

#[derive(Debug, Default)]
struct Rows {
    /// Session rows, each indexing its streams in `streams`.
    sessions: Vec<SessionRow>,
    /// Every session's streams, in session-row order, each session's in
    /// component order.
    streams: Vec<StreamView>,
}

#[derive(Debug)]
struct SessionRow {
    /// The owning server; `None` is the reporting node.
    server: Option<u64>,
    session: u64,
    class: PricingClass,
    streams: Range<usize>,
}

impl LoadReport {
    /// A server's report: pressure verdict and worst SLO burn (milli-burn),
    /// then one `(session, class, streams)` row per live session, all owned
    /// by server `peer`. `sessions` is walked twice, once to size the rows
    /// and once to fill them, so a report costs the same three allocations
    /// for any number of sessions.
    pub fn server<I, S>(peer: u64, pressure: Option<f64>, burn: Option<f64>, sessions: I) -> Self
    where
        I: Iterator<Item = (u64, PricingClass, S)> + Clone,
        S: Iterator<Item = StreamView>,
    {
        let (mut n_sessions, mut n_streams) = (0, 0);
        for (_, _, streams) in sessions.clone() {
            n_sessions += 1;
            n_streams += streams.count();
        }
        let mut rows = Rows {
            sessions: Vec::with_capacity(n_sessions),
            streams: Vec::with_capacity(n_streams),
        };
        for (session, class, streams) in sessions {
            let start = rows.streams.len();
            rows.streams.extend(streams);
            rows.streams[start..].sort_unstable_by_key(|s| s.component);
            rows.sessions.push(SessionRow {
                server: Some(peer),
                session,
                class,
                streams: start..rows.streams.len(),
            });
        }
        LoadReport {
            pressure,
            burn,
            queue: None,
            rows: Some(Arc::new(rows)),
        }
    }

    /// A media node's report: its fetch-queue depth. It allocates nothing.
    pub fn queue(len: usize) -> Self {
        LoadReport {
            queue: Some(len as f64),
            ..LoadReport::default()
        }
    }

    /// The session rows, empty when the report carries none.
    fn rows(&self) -> (&[SessionRow], &[StreamView]) {
        match self.rows.as_deref() {
            Some(r) => (&r.sessions, &r.streams),
            None => (&[], &[]),
        }
    }

    /// The number of gauges the registry form of this report holds: one
    /// per signal present, one per session, three per stream. A report's
    /// wire size is priced from it.
    pub fn entries(&self) -> usize {
        let signals = [self.pressure, self.burn, self.queue]
            .iter()
            .flatten()
            .count();
        let (sessions, streams) = self.rows();
        signals + sessions.len() + 3 * streams.len()
    }

    /// Which signal families vote pressure against the given targets:
    /// bit 0 CoDel pressure, bit 1 queue depth, bit 2 SLO burn
    /// (`burn_target` is a plain multiple; the report carries milli-burn).
    pub(crate) fn pressure_sources(&self, queue_target: f64, burn_target: f64) -> u8 {
        let votes = |v: Option<f64>, target: f64| v.is_some_and(|v| v >= target) as u8;
        votes(self.pressure, 0.5)
            | votes(self.queue, queue_target) << 1
            | votes(self.burn, burn_target * 1000.0) << 2
    }

    /// The report's sessions as the controller views them, each borrowing
    /// its streams from the report; a row without an owning server belongs
    /// to `node`, the reporter.
    pub(crate) fn sessions(&self, node: u64) -> impl ExactSizeIterator<Item = SessionView<'_>> {
        let (sessions, streams) = self.rows();
        sessions.iter().map(move |row| SessionView {
            session: row.session,
            server: row.server.unwrap_or(node),
            class: row.class,
            streams: &streams[row.streams.clone()],
        })
    }
}

/// The registry form of a report, read the way the controller read it
/// before reports were typed. Every gauge named [`names::PRESSURE`],
/// [`names::QUEUE_LEN`] or [`names::SLO_BURN`] votes, whatever its labels,
/// so duplicates keep their maximum. A session comes from a
/// [`names::SESSION_CLASS`] gauge labelled with a session and no stream,
/// owned by its `peer` label (the reporter when unlabelled); a stream from
/// any gauge labelled with a session and a stream, its fields from the
/// kind, level and max gauges (video, 0, 0 where absent). Streams without a
/// session row are dropped.
impl From<&MetricsRegistry> for LoadReport {
    fn from(registry: &MetricsRegistry) -> Self {
        let mut report = LoadReport::default();
        let mut rows = Rows::default();
        let mut sessions: BTreeMap<(Option<u64>, u64), PricingClass> = BTreeMap::new();
        let mut streams: BTreeMap<(Option<u64>, u64, u64), StreamView> = BTreeMap::new();
        for (key, v) in registry.gauges() {
            let signal = match key.name {
                names::PRESSURE => Some(&mut report.pressure),
                names::QUEUE_LEN => Some(&mut report.queue),
                names::SLO_BURN => Some(&mut report.burn),
                _ => None,
            };
            if let Some(slot) = signal {
                *slot = Some(slot.map_or(v, |max| max.max(v)));
            }
            let (Some(session), peer) = (key.labels.session, key.labels.peer) else {
                continue;
            };
            match (key.name, key.labels.stream) {
                (names::SESSION_CLASS, None) => {
                    sessions.insert((peer, session), class_from_priority(v as u8));
                }
                (name, Some(stream)) => {
                    let s = streams
                        .entry((peer, session, stream))
                        .or_insert(StreamView {
                            component: stream,
                            kind: MediaKind::Video,
                            level: 0,
                            max_level: 0,
                        });
                    match name {
                        names::STREAM_LEVEL => s.level = v as u8,
                        names::STREAM_MAX => s.max_level = v as u8,
                        names::STREAM_KIND => s.kind = decode_kind(v),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        for ((server, session), class) in sessions {
            let start = rows.streams.len();
            let own = streams.range((server, session, 0)..=(server, session, u64::MAX));
            rows.streams.extend(own.map(|(_, s)| *s));
            rows.sessions.push(SessionRow {
                server,
                session,
                class,
                streams: start..rows.streams.len(),
            });
        }
        report.rows = Some(Arc::new(rows));
        report
    }
}
