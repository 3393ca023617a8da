//! Global invariant checkers over a finished run's observability capture —
//! the back half of the chaos harness (`hermes_simnet::chaos` generates
//! the fault schedules whose runs these checkers judge).
//!
//! Each checker consumes the deterministic main event log (`Info` and
//! above, `(at, seq)`-ordered) and/or the final [`MetricsRegistry`]
//! snapshot, and returns [`Violation`]s — statements that a *system-wide*
//! property was broken, not that a component misbehaved locally. The
//! catalog:
//!
//! * **Epoch monotonicity** — `stream_epoch` / `group_epoch` announcements
//!   never regress for a given stream or shared group.
//! * **Session lifecycle** — every session a server opens is closed
//!   exactly once (teardown, crash loss, or supersession by a rebuild),
//!   never re-opened, never leaked past the end of the run; a client that
//!   abandoned a session never reports progress on it afterwards.
//! * **Frame discipline** — no client ever played a duplicate frame.
//! * **Breaker legality** — per-replica breaker transitions follow the
//!   Closed → Open → HalfOpen → {Open, Closed} machine.
//! * **Controller legality** — the fleet controller never issues recovery
//!   actions (upgrades, scale-in) while its own pressure verdict stands,
//!   never actuates sessions outside their open window, and never points
//!   scale commands at crashed media nodes.
//! * **Conservation** — every media transport part sent was received or
//!   died with an accounted fault (engine fault ledger).
//! * **Attribution soundness** — every qualifying disruption gets exactly
//!   one root-cause attribution, and a non-`unknown` verdict's evidence
//!   event is actually present in the claimed causal window.
//! * **Bounded recovery** — after the last injected fault clears, the
//!   system returns to quiet: no disruption events past a settle window.
//! * **Label width** — no event was recorded with a node id or label too
//!   wide for its 32-bit slot (`obs.label_overflow` is zero): a saturated
//!   id would merge distinct keys in every checker above.
//!
//! Checkers are individually public so property tests can feed each one
//! synthetic streams with known violations.

use crate::event::{Event, Labels};
use crate::registry::MetricsRegistry;
use hermes_core::{MediaDuration, MediaTime};
use std::collections::{BTreeMap, BTreeSet};

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which checker fired (`epoch_monotonicity`, `session_lifecycle`, …).
    pub invariant: &'static str,
    /// Sim-time of the offending observation ([`MediaTime::ZERO`] for
    /// registry-level checks, which see only the final snapshot).
    pub at: MediaTime,
    /// Human-readable statement of the breakage.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, at: MediaTime, detail: String) -> Self {
        Violation {
            invariant,
            at,
            detail,
        }
    }

    /// Canonical one-line rendering.
    pub fn render(&self) -> String {
        format!(
            "[{}] t={}µs {}",
            self.invariant,
            self.at.as_micros(),
            self.detail
        )
    }
}

/// Configuration for [`check_run`].
#[derive(Debug, Clone)]
pub struct InvariantConfig {
    /// The instant the last injected fault cleared (the fault plan's final
    /// event). `None` disables the bounded-recovery check.
    pub last_fault_clear: Option<MediaTime>,
    /// Grace window after `last_fault_clear` within which disruption
    /// events are still legitimate fallout.
    pub settle: MediaDuration,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            last_fault_clear: None,
            settle: MediaDuration::from_secs(5),
        }
    }
}

/// Run the full invariant catalog over a finished run.
pub fn check_run(
    events: &[Event],
    registry: &MetricsRegistry,
    cfg: &InvariantConfig,
) -> Vec<Violation> {
    let mut v = Vec::new();
    v.extend(check_epoch_monotonicity(events));
    v.extend(check_session_lifecycle(events));
    v.extend(check_frame_discipline(registry));
    v.extend(check_breaker_legality(events));
    v.extend(check_controller_legality(events));
    v.extend(check_conservation(registry));
    v.extend(check_attribution_soundness(events));
    v.extend(check_label_overflow(registry));
    if let Some(clear) = cfg.last_fault_clear {
        v.extend(check_bounded_recovery(events, clear, cfg.settle));
    }
    v
}

/// **Label width** — an [`Event`] stores its node id and labels in 32-bit
/// slots; an id that did not fit was stored saturated and counted by the
/// capture (`obs.label_overflow`, published by
/// [`crate::Obs::publish_self_metrics`]). Any such event makes the other
/// checkers' keys unreliable, so the run is reported, not trusted.
pub fn check_label_overflow(registry: &MetricsRegistry) -> Vec<Violation> {
    match registry.counter("obs.label_overflow", Labels::NONE) {
        0 => Vec::new(),
        n => vec![Violation::new(
            "label_overflow",
            MediaTime::ZERO,
            format!("{n} events carried a node id or label above the 32-bit slot range"),
        )],
    }
}

/// **Attribution soundness** — every playout gap above the attribution
/// threshold (plus every stall and session abandon) gets *exactly one*
/// [`crate::GapAttribution`], and whenever the verdict names a concrete
/// cause class, an evidence event of that class is actually present inside
/// the causal window the attribution claims to have read. A verdict whose
/// evidence is missing would mean the attributor invented a cause.
pub fn check_attribution_soundness(events: &[Event]) -> Vec<Violation> {
    use crate::causality::{attribute_events, is_disruption, AttributionConfig, CauseClass};
    let mut v = Vec::new();
    let cfg = AttributionConfig::default();
    let attrs = attribute_events(events, &cfg);
    // One attribution per qualifying disruption, in log order.
    let disruptions = events
        .iter()
        .filter(|e| is_disruption(e.name, e.value))
        .count();
    if attrs.len() != disruptions {
        v.push(Violation::new(
            "attribution_soundness",
            MediaTime::ZERO,
            format!(
                "{} qualifying disruptions but {} attributions (must be 1:1)",
                disruptions,
                attrs.len()
            ),
        ));
    }
    for a in &attrs {
        if a.class == CauseClass::Unknown {
            continue;
        }
        // The named evidence event must exist in the claimed window.
        if !evidence_in_window(events, a, a.at - cfg.window) {
            v.push(Violation::new(
                "attribution_soundness",
                a.at,
                format!(
                    "session {} {} attributed to {} but evidence event {}@{}µs is not in the capture window",
                    a.session,
                    a.kind,
                    a.class.label(),
                    a.evidence,
                    a.evidence_at.as_micros(),
                ),
            ));
        }
    }
    v
}

/// Is `a`'s evidence event in the log at the instant the verdict names,
/// and is that instant inside `[lo, a.at]`? The log is in `(at, seq)`
/// order, so the instant is a binary search away and only the events that
/// share it are compared by name.
fn evidence_in_window(events: &[Event], a: &crate::GapAttribution, lo: MediaTime) -> bool {
    if a.evidence_at < lo || a.evidence_at > a.at {
        return false;
    }
    let first = events.partition_point(|e| e.at < a.evidence_at);
    events[first..]
        .iter()
        .take_while(|e| e.at == a.evidence_at)
        .any(|e| e.name == a.evidence)
}

/// The whole-log scan [`evidence_in_window`] replaced, kept as its spec.
#[cfg(test)]
fn evidence_in_window_scan(events: &[Event], a: &crate::GapAttribution, lo: MediaTime) -> bool {
    events
        .iter()
        .any(|e| e.name == a.evidence && e.at == a.evidence_at && e.at >= lo && e.at <= a.at)
}

/// `stream_epoch` (per server node + session + stream) and `group_epoch`
/// (per server node + group, carried in the `stream` label) values must be
/// strictly increasing: an epoch regression means stale-fetch fencing is
/// broken and frames from a superseded window could be delivered.
pub fn check_epoch_monotonicity(events: &[Event]) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut last: BTreeMap<(u64, u64, u64, u64), i64> = BTreeMap::new();
    for e in events {
        let labels = e.labels();
        let stream = labels.stream.unwrap_or(0);
        let key = match e.name {
            "stream_epoch" => (e.node(), 0, labels.session.unwrap_or(0), stream),
            "group_epoch" => (e.node(), 1, 0, stream),
            _ => continue,
        };
        if let Some(&prev) = last.get(&key) {
            if e.value <= prev {
                v.push(Violation::new(
                    "epoch_monotonicity",
                    e.at,
                    format!(
                        "{}{} on node {} regressed {} → {}",
                        e.name,
                        labels.render(),
                        e.node(),
                        prev,
                        e.value
                    ),
                ));
            }
        }
        last.insert(key, e.value);
    }
    v
}

/// Server-side session open/close discipline plus client-fate coherence.
///
/// Opens: `session_connect`, `session_rebuilt` (which also closes the old
/// session carried in its `value`). Closes: `session_teardown`,
/// `session_crash_lost`. Every open session must be closed exactly once
/// and never re-opened; a session still open when the log ends is leaked.
/// Client side: `session_abandoned` is absorbing — a later
/// `presentation_complete` or second abandonment on the same (client,
/// session) is a conflicting fate.
pub fn check_session_lifecycle(events: &[Event]) -> Vec<Violation> {
    let mut v = Vec::new();
    // (server node, session) -> still open?
    let mut open: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Sessions that ever existed, to distinguish "close of unknown" from
    // "double close".
    let mut known: BTreeSet<(u64, u64)> = BTreeSet::new();
    // (client node, session) -> abandoned at.
    let mut abandoned: BTreeMap<(u64, u64), MediaTime> = BTreeMap::new();
    for e in events {
        let sid = e.labels().session.unwrap_or(0);
        match e.name {
            "session_connect" | "session_rebuilt" => {
                let key = (e.node(), sid);
                if e.name == "session_rebuilt" {
                    let old = (e.node(), e.value as u64);
                    // The rebuild supersedes the old incarnation's session:
                    // that id must have existed and may or may not still be
                    // open (a crash loss already closed it).
                    open.remove(&old);
                    if !known.contains(&old) {
                        v.push(Violation::new(
                            "session_lifecycle",
                            e.at,
                            format!(
                                "session_rebuilt{} supersedes unknown session {} on node {}",
                                e.labels().render(),
                                e.value,
                                e.node()
                            ),
                        ));
                    }
                }
                if !open.insert(key) {
                    v.push(Violation::new(
                        "session_lifecycle",
                        e.at,
                        format!(
                            "{}{} re-opened live session on node {}",
                            e.name,
                            e.labels().render(),
                            e.node()
                        ),
                    ));
                }
                known.insert(key);
            }
            "session_teardown" | "session_crash_lost" => {
                let key = (e.node(), sid);
                if !open.remove(&key) {
                    v.push(Violation::new(
                        "session_lifecycle",
                        e.at,
                        format!(
                            "{}{} closed a session not open on node {} ({})",
                            e.name,
                            e.labels().render(),
                            e.node(),
                            if known.contains(&key) {
                                "double close"
                            } else {
                                "never opened"
                            }
                        ),
                    ));
                }
            }
            "session_abandoned" => {
                let key = (e.node(), sid);
                if abandoned.insert(key, e.at).is_some() {
                    v.push(Violation::new(
                        "session_lifecycle",
                        e.at,
                        format!("session {sid} abandoned twice by client node {}", e.node()),
                    ));
                }
            }
            "presentation_complete" => {
                if let Some(&when) = abandoned.get(&(e.node(), sid)) {
                    v.push(Violation::new(
                        "session_lifecycle",
                        e.at,
                        format!(
                            "client node {} completed a presentation on session {sid} \
                             abandoned at {}µs",
                            e.node(),
                            when.as_micros()
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    for (node, sid) in open {
        v.push(Violation::new(
            "session_lifecycle",
            events.last().map(|e| e.at).unwrap_or(MediaTime::ZERO),
            format!("session {sid} on node {node} leaked: never reached a terminal state"),
        ));
    }
    v
}

/// No client may ever present the same *content* twice: a stale frame
/// reaching the renderer means epoch fencing or receiver reset logic let
/// an upstream layer re-deliver played material. Concealment replays
/// (`client.duplicates_played` — the previous frame re-presented to
/// smooth an underflow or skew repair) are deliberate degraded-mode
/// behavior under faults and are *not* violations.
pub fn check_frame_discipline(registry: &MetricsRegistry) -> Vec<Violation> {
    let mut v = Vec::new();
    for (key, value) in registry.counters() {
        if key.name == "client.stale_frames" && value > 0 {
            v.push(Violation::new(
                "frame_discipline",
                MediaTime::ZERO,
                format!("{} stale frames presented ({})", value, key.render()),
            ));
        }
    }
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    Open,
    HalfOpen,
}

/// Breaker state-machine legality per (server node, replica): trips only
/// from Closed/HalfOpen, probes only from Open, closes only from HalfOpen.
/// `breaker_reset` (replica incarnation change) and a crash of the server
/// node itself (whose health map is RAM) return circuits to Closed.
pub fn check_breaker_legality(events: &[Event]) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut state: BTreeMap<(u64, u64), Breaker> = BTreeMap::new();
    for e in events {
        match e.name {
            "node_crash" => {
                // The crashed node's own breaker map is volatile state.
                state.retain(|(srv, _), _| *srv != e.node());
                continue;
            }
            "breaker_trip" | "breaker_probe" | "breaker_close" | "breaker_reset" => {}
            _ => continue,
        }
        let key = (e.node(), e.labels().peer.unwrap_or(0));
        let cur = *state.get(&key).unwrap_or(&Breaker::Closed);
        let next = match (e.name, cur) {
            ("breaker_trip", Breaker::Closed | Breaker::HalfOpen) => Breaker::Open,
            ("breaker_probe", Breaker::Open) => Breaker::HalfOpen,
            ("breaker_close", Breaker::HalfOpen) => Breaker::Closed,
            ("breaker_reset", _) => Breaker::Closed,
            _ => {
                v.push(Violation::new(
                    "breaker_legality",
                    e.at,
                    format!(
                        "{}{} on node {} illegal from state {:?}",
                        e.name,
                        e.labels().render(),
                        e.node(),
                        cur
                    ),
                ));
                continue;
            }
        };
        state.insert(key, next);
    }
    v
}

/// Legality of fleet-controller actuation, judged from the trace alone:
///
/// * A controller node whose most recent `ctrl_overload` verdict was
///   *pressured* must not issue recovery actions (`ctrl_upgrade_cmd`,
///   `ctrl_scale_in`) — upgrading or shrinking the media tier while the
///   fleet is overloaded would re-trigger the very overload being managed.
/// * An *applied* grade step (`ctrl_degrade` / `ctrl_upgrade`) must land
///   inside the target session's open window on that server — actuating a
///   torn-down or crashed-away session means the stale-command guard
///   failed.
/// * Scale commands (`ctrl_scale_out` / `ctrl_scale_in`) must not target a
///   media node currently crashed: the controller's standby ledger only
///   tracks administrative state, and pointing placement at a dead node
///   would stall every stream in its key range.
/// * Fenced epochs (`ctrl_actuate`, value = epoch): actuation epochs must
///   never decrease across the trace, and whenever the actuating *node*
///   changes the epoch must strictly increase — two controllers actuating
///   under the same epoch is split-brain, exactly what the fence exists to
///   prevent.
/// * Elections (`ctrl_elect`, value = epoch) must claim an epoch strictly
///   above every epoch already actuated or elected: a successor that
///   reuses a live epoch could not be told apart from the leader it
///   replaced.
pub fn check_controller_legality(events: &[Event]) -> Vec<Violation> {
    let mut v = Vec::new();
    // Most recent pressure verdict per controller node (ticks emit the
    // verdict before any command of the same tick).
    let mut pressured: BTreeMap<u64, bool> = BTreeMap::new();
    // (server node, session) currently open.
    let mut open: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Nodes currently crashed.
    let mut down: BTreeSet<u64> = BTreeSet::new();
    // Last actuating controller and its epoch, plus the high-water epoch
    // over all actuations and elections.
    let mut last_actuate: Option<(u64, i64)> = None;
    let mut max_epoch: i64 = 0;
    for e in events {
        let sid = e.labels().session.unwrap_or(0);
        match e.name {
            "node_crash" => {
                down.insert(e.node());
            }
            "node_restart" => {
                down.remove(&e.node());
            }
            "session_connect" | "session_rebuilt" => {
                if e.name == "session_rebuilt" {
                    open.remove(&(e.node(), e.value as u64));
                }
                open.insert((e.node(), sid));
            }
            "session_teardown" | "session_crash_lost" => {
                open.remove(&(e.node(), sid));
            }
            "ctrl_overload" => {
                pressured.insert(e.node(), e.value != 0);
            }
            "ctrl_actuate" => {
                if let Some((node, epoch)) = last_actuate {
                    if e.value < epoch {
                        v.push(Violation::new(
                            "controller_legality",
                            e.at,
                            format!(
                                "ctrl_actuate on node {} at epoch {} after epoch {epoch} — \
                                 actuation epoch regressed",
                                e.node(),
                                e.value
                            ),
                        ));
                    } else if node != e.node() && e.value == epoch {
                        v.push(Violation::new(
                            "controller_legality",
                            e.at,
                            format!(
                                "ctrl_actuate on node {} at epoch {} also actuated by node \
                                 {node} — split-brain under one epoch",
                                e.node(),
                                e.value
                            ),
                        ));
                    }
                }
                last_actuate = Some((e.node(), e.value));
                max_epoch = max_epoch.max(e.value);
            }
            "ctrl_elect" => {
                if e.value <= max_epoch {
                    v.push(Violation::new(
                        "controller_legality",
                        e.at,
                        format!(
                            "ctrl_elect on node {} claims epoch {} but epoch {max_epoch} was \
                             already in use",
                            e.node(),
                            e.value
                        ),
                    ));
                }
                max_epoch = max_epoch.max(e.value);
            }
            "ctrl_upgrade_cmd" if pressured.get(&e.node()).copied().unwrap_or(false) => {
                v.push(Violation::new(
                    "controller_legality",
                    e.at,
                    format!(
                        "ctrl_upgrade_cmd{} issued by node {} while pressured",
                        e.labels().render(),
                        e.node()
                    ),
                ));
            }
            "ctrl_degrade" | "ctrl_upgrade" if !open.contains(&(e.node(), sid)) => {
                v.push(Violation::new(
                    "controller_legality",
                    e.at,
                    format!(
                        "{}{} applied on node {} to a session not open there",
                        e.name,
                        e.labels().render(),
                        e.node()
                    ),
                ));
            }
            "ctrl_scale_out" | "ctrl_scale_in" => {
                if e.name == "ctrl_scale_in" && pressured.get(&e.node()).copied().unwrap_or(false) {
                    v.push(Violation::new(
                        "controller_legality",
                        e.at,
                        format!(
                            "ctrl_scale_in{} issued by node {} while pressured",
                            e.labels().render(),
                            e.node()
                        ),
                    ));
                }
                let target = e.labels().peer.unwrap_or(0);
                if down.contains(&target) {
                    v.push(Violation::new(
                        "controller_legality",
                        e.at,
                        format!(
                            "{}{} issued by node {} targets crashed media node {target}",
                            e.name,
                            e.labels().render(),
                            e.node()
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    v
}

/// Conservation of media transport accounting: every part a media node put
/// on the wire was received by a server or died with an accounted fault
/// (engine `fault_drops` — stale-incarnation deliveries, torn-down
/// reliable holds — or exhausted retransmission budgets). Valid only after
/// the run has drained; parts still in flight would read as leaks.
pub fn check_conservation(registry: &MetricsRegistry) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut fetches = 0u64;
    let mut chunks = 0u64;
    for (key, value) in registry.counters() {
        match key.name {
            "media.parts_sent" => sent += value,
            "server.parts_received" => received += value,
            "server.fetches" => fetches += value,
            "server.chunks" => chunks += value,
            _ => {}
        }
    }
    let ledger = registry.counter("sim.fault_drops", Labels::NONE)
        + registry.counter("sim.reliable_failures", Labels::NONE);
    if received > sent {
        v.push(Violation::new(
            "conservation",
            MediaTime::ZERO,
            format!("servers received {received} media parts but only {sent} were sent"),
        ));
    } else if sent - received > ledger {
        v.push(Violation::new(
            "conservation",
            MediaTime::ZERO,
            format!(
                "media parts leaked: sent {sent}, received {received}, \
                 fault ledger explains only {ledger}"
            ),
        ));
    }
    if chunks > fetches {
        v.push(Violation::new(
            "conservation",
            MediaTime::ZERO,
            format!("{chunks} completed fetches exceed {fetches} issued"),
        ));
    }
    v
}

/// Event names that signal live disruption. Any of these firing after the
/// last fault cleared plus the settle window means the system failed to
/// return to steady state.
const DISRUPTION: &[&str] = &[
    "playout_gap",
    "server_silent",
    "session_abandoned",
    "session_crash_lost",
    "reliable_abandon",
    "breaker_trip",
    "media_failover",
    "fetch_error",
];

/// Bounded recovery: after `clear + settle`, no disruption events.
pub fn check_bounded_recovery(
    events: &[Event],
    clear: MediaTime,
    settle: MediaDuration,
) -> Vec<Violation> {
    let deadline = clear + settle;
    events
        .iter()
        .filter(|e| e.at > deadline && DISRUPTION.contains(&e.name))
        .map(|e| {
            Violation::new(
                "bounded_recovery",
                e.at,
                format!(
                    "{}{} on node {} at {}µs — {}µs past the recovery deadline",
                    e.name,
                    e.labels().render(),
                    e.node(),
                    e.at.as_micros(),
                    (e.at - deadline).as_micros()
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causality::tests::{lcg, random_log};
    use crate::causality::{attribute_events, AttributionConfig};

    /// The binary-searched evidence lookup answers exactly as the
    /// whole-log scan does, so both report the same violations: present
    /// for every honest named verdict on randomized logs, absent for
    /// verdicts forged to point outside the window, past the disruption,
    /// at an instant nothing happened, or at a name that did not fire then.
    #[test]
    fn evidence_lookup_matches_reference_scan() {
        let mut next = lcg(0xD1B54A32D192ED03);
        let cfg = AttributionConfig::default();
        let (mut named, mut forged) = (0, 0);
        for _trial in 0..50 {
            let events = random_log(&mut next);
            let agree = |a: &crate::GapAttribution| {
                let lo = a.at - cfg.window;
                let found = evidence_in_window(&events, a, lo);
                assert_eq!(
                    found,
                    evidence_in_window_scan(&events, a, lo),
                    "indexed / scan divergence on {a:?}"
                );
                found
            };
            for a in attribute_events(&events, &cfg) {
                if a.class == crate::CauseClass::Unknown {
                    continue;
                }
                named += 1;
                assert!(agree(&a), "honest verdict lost its evidence: {a:?}");
                let us = MediaDuration::from_micros(1);
                let forgeries: [fn(&mut crate::GapAttribution, MediaDuration, MediaDuration); 5] = [
                    // 1 µs older than the window reaches.
                    |b, w, us| b.evidence_at = b.at - w - us,
                    // After the disruption it claims to explain.
                    |b, _, us| b.evidence_at = b.at + us,
                    // An instant between events.
                    |b, _, us| b.evidence_at += us,
                    // A name that did not fire at that instant.
                    |b, _, _| b.evidence = "no_such_event",
                    // A disruption moved so its honest evidence falls out.
                    |b, _, us| b.at = b.evidence_at - us,
                ];
                for forge in forgeries {
                    let mut b = a.clone();
                    forge(&mut b, cfg.window, us);
                    assert!(!agree(&b), "forgery accepted: {b:?}");
                    forged += 1;
                }
            }
        }
        assert!(named > 50, "the logs must produce named verdicts: {named}");
        assert_eq!(forged, 5 * named);
    }
}
