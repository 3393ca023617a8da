//! Deterministic fault injection: node crashes/restarts, link partitions and
//! link flapping, scheduled as ordinary events on the simulator's timer
//! wheel.
//!
//! A [`FaultPlan`] is a declarative schedule built with the combinators
//! below and installed with [`crate::Sim::install_faults`]. Every fault is
//! applied at a deterministic simulation instant, so a run with a given
//! (topology seed, sim seed, fault plan) triple is exactly reproducible —
//! including runs that also use jitter/loss/congestion models, which keep
//! drawing from their own per-link RNG streams.
//!
//! Semantics:
//!
//! * **Node crash** — the node's "process" dies: queued deliveries and
//!   timers addressed to it are discarded when they fire, and reliable
//!   channels touching the node are torn down (outstanding segments are
//!   abandoned rather than wedging the in-order release gate).
//! * **Node restart** — the node comes back with a fresh incarnation:
//!   timers and retransmission chains belonging to the crashed incarnation
//!   stay dead; the application is told so it can rebuild volatile state.
//! * **Link partition** — both directions of a link go down; packets
//!   offered to a down link are dropped (the reliable transport keeps
//!   retrying with backoff, so short partitions heal transparently).
//! * **Link flap** — a periodic down/up cycle, expanded at install time
//!   into plain partition/heal events.

use hermes_core::{MediaDuration, MediaTime, NodeId};
use std::fmt;

/// A structural defect found by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An event is scheduled before simulation time zero.
    NegativeTime(FaultEvent),
    /// A crash and its restart (or a `LinkDown`/`LinkUp`, or a
    /// `NodeSlow`/`NodeNominal`) share the same instant for the same
    /// subject: the fault window has zero length and the pair is pure
    /// schedule noise.
    ZeroLengthWindow(FaultEvent),
    /// A `NodeSlow` with `factor < 2`: factor 1 is nominal speed and
    /// factor 0 would *speed the node up* at apply time (the engine clamps
    /// to 1) — either way the event does nothing.
    UselessSlowdown(FaultEvent),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NegativeTime(e) => write!(f, "fault scheduled before t=0: {e:?}"),
            PlanError::ZeroLengthWindow(e) => {
                write!(f, "zero-length fault window closed by {e:?}")
            }
            PlanError::UselessSlowdown(e) => write!(f, "slowdown factor < 2 does nothing: {e:?}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node's process dies; volatile state and in-flight work are lost.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// The node's process comes back (a fresh incarnation).
    NodeRestart {
        /// The restarting node.
        node: NodeId,
    },
    /// Both directions of the `a`–`b` link go down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Both directions of the `a`–`b` link come back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The node stays alive but serves `factor`× slower (a brownout:
    /// overloaded CPU, thrashing disk). The engine itself delivers and fires
    /// timers normally; the *application* is told and inflates its service
    /// times, so breakers and hedging — not the transport — must cover it.
    NodeSlow {
        /// The slowed node.
        node: NodeId,
        /// Service-time multiplier (≥ 1).
        factor: u32,
    },
    /// The node returns to nominal service speed (ends a `NodeSlow`).
    NodeNominal {
        /// The recovering node.
        node: NodeId,
    },
}

/// A fault scheduled at an absolute simulation instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault is applied.
    pub at: MediaTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The *subject* a fault acts on: a node's process, a node's service speed,
/// or a link. Window validation pairs an opening fault with the closing
/// fault of the same subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Subject {
    Process(NodeId),
    Speed(NodeId),
    Link(NodeId, NodeId),
}

impl FaultKind {
    fn subject(&self) -> Subject {
        match *self {
            FaultKind::NodeCrash { node } | FaultKind::NodeRestart { node } => {
                Subject::Process(node)
            }
            FaultKind::NodeSlow { node, .. } | FaultKind::NodeNominal { node } => {
                Subject::Speed(node)
            }
            FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                Subject::Link(a.min(b), a.max(b))
            }
        }
    }

    /// True for the faults that *close* a window opened by their
    /// counterpart (restart closes crash, up closes down, nominal closes
    /// slow).
    fn is_repair(&self) -> bool {
        matches!(
            self,
            FaultKind::NodeRestart { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::NodeNominal { .. }
        )
    }

    /// Render as a ready-to-paste Rust expression.
    fn rust_literal(&self) -> String {
        fn n(id: NodeId) -> String {
            format!("NodeId::new({})", id.raw())
        }
        match *self {
            FaultKind::NodeCrash { node } => {
                format!("FaultKind::NodeCrash {{ node: {} }}", n(node))
            }
            FaultKind::NodeRestart { node } => {
                format!("FaultKind::NodeRestart {{ node: {} }}", n(node))
            }
            FaultKind::LinkDown { a, b } => {
                format!("FaultKind::LinkDown {{ a: {}, b: {} }}", n(a), n(b))
            }
            FaultKind::LinkUp { a, b } => {
                format!("FaultKind::LinkUp {{ a: {}, b: {} }}", n(a), n(b))
            }
            FaultKind::NodeSlow { node, factor } => format!(
                "FaultKind::NodeSlow {{ node: {}, factor: {factor} }}",
                n(node)
            ),
            FaultKind::NodeNominal { node } => {
                format!("FaultKind::NodeNominal {{ node: {} }}", n(node))
            }
        }
    }
}

/// A declarative, deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule a raw fault.
    pub fn at(mut self, at: MediaTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Crash `node` at `at` (no restart).
    pub fn crash(self, node: NodeId, at: MediaTime) -> Self {
        self.at(at, FaultKind::NodeCrash { node })
    }

    /// Restart `node` at `at`.
    pub fn restart(self, node: NodeId, at: MediaTime) -> Self {
        self.at(at, FaultKind::NodeRestart { node })
    }

    /// Crash `node` at `at` and restart it `down_for` later.
    pub fn crash_for(self, node: NodeId, at: MediaTime, down_for: MediaDuration) -> Self {
        self.crash(node, at).restart(node, at + down_for)
    }

    /// Partition the `a`–`b` link during `[from, until)`.
    pub fn partition(self, a: NodeId, b: NodeId, from: MediaTime, until: MediaTime) -> Self {
        self.at(from, FaultKind::LinkDown { a, b })
            .at(until, FaultKind::LinkUp { a, b })
    }

    /// Slow `node` down by `factor`× starting at `at` (no recovery).
    pub fn slow(self, node: NodeId, at: MediaTime, factor: u32) -> Self {
        self.at(at, FaultKind::NodeSlow { node, factor })
    }

    /// Brownout: slow `node` by `factor`× during `[at, at + lasting)`, then
    /// return it to nominal speed — alive throughout, never crashed.
    pub fn brownout(
        self,
        node: NodeId,
        at: MediaTime,
        lasting: MediaDuration,
        factor: u32,
    ) -> Self {
        self.slow(node, at, factor)
            .at(at + lasting, FaultKind::NodeNominal { node })
    }

    /// Flap the `a`–`b` link: starting at `start`, `cycles` periods of
    /// `period` each beginning with `down_for` of outage.
    pub fn flap(
        mut self,
        a: NodeId,
        b: NodeId,
        start: MediaTime,
        period: MediaDuration,
        down_for: MediaDuration,
        cycles: u32,
    ) -> Self {
        let down_for = down_for.min(period);
        for i in 0..cycles {
            let t = start + period * i as i64;
            self = self.partition(a, b, t, t + down_for);
        }
        self
    }

    /// The scheduled events, sorted by time.
    ///
    /// **Same-tick ordering guarantee:** the sort is stable, so events at
    /// the same instant apply in *plan order* (the order the builder calls
    /// appended them). A `crash` followed by a `restart` at the same
    /// instant crashes first; [`crate::Sim::install_faults`] preserves this
    /// order on the timer wheel via the engine's FIFO sequence numbers.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// Borrow the raw events in plan (builder) order, unsorted.
    pub fn raw_events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Rebuild a plan from an explicit event list (plan order = list
    /// order). The shrinker uses this to re-assemble candidate subsets.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Structural validation: rejects events scheduled before t=0,
    /// zero-length fault windows (a repair at the same instant as the fault
    /// it closes), and useless slowdown factors. Returns the first defect
    /// found in time order.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut open: Vec<(Subject, MediaTime)> = Vec::new();
        for ev in self.events() {
            if ev.at < MediaTime::ZERO {
                return Err(PlanError::NegativeTime(ev));
            }
            if let FaultKind::NodeSlow { factor, .. } = ev.kind {
                if factor < 2 {
                    return Err(PlanError::UselessSlowdown(ev));
                }
            }
            let subject = ev.kind.subject();
            if ev.kind.is_repair() {
                if let Some(pos) = open.iter().position(|(s, _)| *s == subject) {
                    let (_, opened_at) = open.remove(pos);
                    if opened_at == ev.at {
                        return Err(PlanError::ZeroLengthWindow(ev));
                    }
                }
            } else {
                match open.iter_mut().find(|(s, _)| *s == subject) {
                    Some((_, t)) => *t = ev.at,
                    None => open.push((subject, ev.at)),
                }
            }
        }
        Ok(())
    }

    /// A cleaned copy: events sorted by time (stable, keeping plan order
    /// within a tick) with *identical* adjacent events — same instant, same
    /// kind — deduplicated. Duplicates are idempotent at apply time, so
    /// dropping them changes nothing except schedule size.
    pub fn normalized(&self) -> FaultPlan {
        let mut evs = self.events();
        evs.dedup();
        FaultPlan { events: evs }
    }

    /// Render the plan as a ready-to-paste `FaultPlan` builder expression
    /// (the shrinker's minimal-repro output format).
    pub fn to_rust_literal(&self) -> String {
        let mut s = String::from("FaultPlan::new()");
        for ev in self.events() {
            s.push_str(&format!(
                "\n    .at(MediaTime::from_micros({}), {})",
                ev.at.as_micros(),
                ev.kind.rust_literal()
            ));
        }
        s
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u64) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn builders_expand_to_events() {
        let plan = FaultPlan::new()
            .crash_for(n(1), MediaTime::from_secs(5), MediaDuration::from_secs(2))
            .partition(n(0), n(1), MediaTime::from_secs(1), MediaTime::from_secs(3));
        let evs = plan.events();
        assert_eq!(evs.len(), 4);
        // Sorted by time.
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(evs[0].kind, FaultKind::LinkDown { a: n(0), b: n(1) },);
        assert_eq!(evs[2].kind, FaultKind::NodeCrash { node: n(1) });
        assert_eq!(evs[3].at, MediaTime::from_secs(7));
    }

    #[test]
    fn flap_expands_cycles() {
        let plan = FaultPlan::new().flap(
            n(0),
            n(1),
            MediaTime::from_secs(1),
            MediaDuration::from_secs(10),
            MediaDuration::from_secs(2),
            3,
        );
        let evs = plan.events();
        assert_eq!(evs.len(), 6);
        assert_eq!(evs[0].at, MediaTime::from_secs(1));
        assert_eq!(evs[1].at, MediaTime::from_secs(3));
        assert_eq!(evs[4].at, MediaTime::from_secs(21));
        // Down/up alternate.
        assert!(matches!(evs[4].kind, FaultKind::LinkDown { .. }));
        assert!(matches!(evs[5].kind, FaultKind::LinkUp { .. }));
    }

    #[test]
    fn brownout_expands_to_slow_then_nominal() {
        let plan = FaultPlan::new().brownout(
            n(3),
            MediaTime::from_secs(2),
            MediaDuration::from_secs(5),
            8,
        );
        let evs = plan.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0].kind,
            FaultKind::NodeSlow {
                node: n(3),
                factor: 8
            }
        );
        assert_eq!(evs[1].at, MediaTime::from_secs(7));
        assert_eq!(evs[1].kind, FaultKind::NodeNominal { node: n(3) });
    }

    #[test]
    fn same_instant_keeps_plan_order() {
        let t = MediaTime::from_secs(4);
        let plan = FaultPlan::new().restart(n(1), t).crash(n(1), t);
        let evs = plan.events();
        assert!(matches!(evs[0].kind, FaultKind::NodeRestart { .. }));
        assert!(matches!(evs[1].kind, FaultKind::NodeCrash { .. }));
    }

    #[test]
    fn validate_rejects_zero_length_windows() {
        let t = MediaTime::from_secs(2);
        let plan = FaultPlan::new().crash_for(n(1), t, MediaDuration::ZERO);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::ZeroLengthWindow(_))
        ));
        let plan = FaultPlan::new().partition(n(0), n(2), t, t);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::ZeroLengthWindow(_))
        ));
        // A healthy window passes; so does a crash with no restart.
        assert!(FaultPlan::new()
            .crash_for(n(1), t, MediaDuration::from_millis(1))
            .validate()
            .is_ok());
        assert!(FaultPlan::new().crash(n(1), t).validate().is_ok());
    }

    #[test]
    fn validate_rejects_negative_time_and_useless_slowdown() {
        let plan = FaultPlan::new().crash(n(1), MediaTime::from_micros(-1));
        assert!(matches!(plan.validate(), Err(PlanError::NegativeTime(_))));
        let plan = FaultPlan::new().slow(n(1), MediaTime::from_secs(1), 1);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::UselessSlowdown(_))
        ));
    }

    #[test]
    fn normalized_dedups_identical_events() {
        let t = MediaTime::from_secs(3);
        let plan = FaultPlan::new()
            .crash(n(1), t)
            .crash(n(1), t)
            .crash(n(2), t);
        let norm = plan.normalized();
        assert_eq!(norm.len(), 2);
        // Distinct events at the same tick survive.
        assert_eq!(norm.events()[1].kind, FaultKind::NodeCrash { node: n(2) });
    }

    #[test]
    fn rust_literal_is_ready_to_paste() {
        let plan = FaultPlan::new()
            .crash(n(3), MediaTime::from_millis(1500))
            .slow(n(4), MediaTime::from_secs(2), 8);
        let lit = plan.to_rust_literal();
        assert!(lit.starts_with("FaultPlan::new()"));
        assert!(lit.contains(
            ".at(MediaTime::from_micros(1500000), FaultKind::NodeCrash { node: NodeId::new(3) })"
        ));
        assert!(lit.contains("FaultKind::NodeSlow { node: NodeId::new(4), factor: 8 }"));
    }

    #[test]
    fn from_events_round_trips() {
        let plan =
            FaultPlan::new().crash_for(n(1), MediaTime::from_secs(5), MediaDuration::from_secs(2));
        let rebuilt = FaultPlan::from_events(plan.raw_events().to_vec());
        assert_eq!(plan, rebuilt);
    }
}
