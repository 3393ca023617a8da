//! Causal tracing: cross-node provenance and automated root-cause
//! attribution for playout disruptions.
//!
//! Two halves:
//!
//! * **Provenance** — every in-flight message carries a compact
//!   [`CauseCtx`] (the root span of the session-level request that caused
//!   it), handed on to whatever its handler sends. At final delivery the
//!   engine writes one 16-byte [`HopRecord`] — when, under which causal
//!   root, which protocol message kind, how long in flight — into the
//!   capture's [`ProvenanceLog`]: a delivery log keyed by causal root
//!   that keeps the last [`PROV_HORIZON`] and, older than that, only each
//!   disruption's window. Losses, retransmissions, abandoned sends
//!   and multicast fan-out are not logged per message; they are engine
//!   counters (`sim.datagrams_dropped`, `sim.retransmissions`,
//!   `sim.reliable_failures`, `sim.mcast_link_copies`) and the
//!   `reliable_abandon` event.
//! * **Attribution** — for every playout gap, stall and session abandon in
//!   the finished event log, [`attribute_events`] walks the causal window
//!   backwards and emits a deterministic [`GapAttribution`] naming the
//!   dominant [`CauseClass`], the strongest supporting evidence event, and
//!   (via [`fill_critical_paths`]) the critical-path hop timings from the
//!   provenance log. [`publish_attr_counters`] folds the verdicts into
//!   `attr.*` registry counters.
//!
//! Attribution is **order-independent under same-tick merge**: verdicts
//! depend only on the multiset of `(time, name, labels, value)` within the
//! causal window — never on the intra-tick `seq` tie-break — so captures
//! that interleave same-tick events differently attribute identically.

use crate::event::Event;
use crate::registry::MetricsRegistry;
use crate::span::SpanId;
use hermes_core::{MediaDuration, MediaTime};
use std::collections::{HashMap, VecDeque};

#[cfg(test)]
mod spec;

/// The compact causal context every in-flight message and timer carries:
/// the session root span that ultimately caused it. `Copy` and 4 bytes —
/// stamping one costs a register write, nothing allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CauseCtx {
    /// Raw id of the root span ([`SpanId`]) this work descends from;
    /// `u32::MAX` = no known root (pre-session traffic, engine faults).
    pub root: u32,
}

impl CauseCtx {
    /// The null context: no known root.
    pub const NONE: CauseCtx = CauseCtx { root: u32::MAX };

    /// A fresh context rooted at a span (normally a session root).
    pub fn from_root(root: SpanId) -> CauseCtx {
        CauseCtx { root: root.0 }
    }

    /// True for the null context.
    pub fn is_none(self) -> bool {
        self.root == u32::MAX
    }

    /// The root as a span handle.
    pub fn root_span(self) -> SpanId {
        SpanId(self.root)
    }
}

/// One retained delivery, 16 bytes: everything [`fill_critical_paths`]
/// reads of a message's path and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// `at µs << 8 | kind index` — one field that still sorts by time, so
    /// a causal window is two `partition_point`s over the log.
    at_kind: u64,
    /// Raw id of the causal root span the message descends from
    /// ([`CauseCtx::root`]; `u32::MAX` = none).
    pub root: u32,
    /// In-flight µs from the original send to the delivery, retransmission
    /// waits included. Saturates at `u32::MAX` (≈ 71 min); a negative wait
    /// clamps to 0.
    pub wait_us: u32,
}

impl HopRecord {
    fn new(at: MediaTime, kind: u8, root: u32, wait_us: i64) -> HopRecord {
        debug_assert!(at >= MediaTime::ZERO, "engine clock is never negative");
        HopRecord {
            at_kind: ((at.as_micros() as u64) << 8) | kind as u64,
            root,
            wait_us: wait_us.clamp(0, u32::MAX as i64) as u32,
        }
    }

    /// Engine clock at the delivery.
    pub fn at(&self) -> MediaTime {
        MediaTime::from_micros((self.at_kind >> 8) as i64)
    }

    /// Index of the message kind in the owning log's kind table (resolve
    /// it with [`ProvenanceLog::kind`]).
    pub fn kind_index(&self) -> u8 {
        self.at_kind as u8
    }
}

/// Default cap on retained delivery records: 2²¹ × 16 B = 32 MiB when
/// full. A hard byte budget — a delivery that would take the log past it
/// is dropped and invisible to attribution. The overflow is counted in
/// [`ProvenanceLog::dropped`] and published as `sim.prov_dropped`.
pub const DEFAULT_PROV_CAP: usize = 1 << 21;

/// How far back the provenance log keeps every delivery, and so the widest
/// attribution window [`fill_critical_paths`] accepts.
pub const PROV_HORIZON: MediaDuration = MediaDuration::from_secs(6);

/// A full ring grows by `len / RING_GROWTH_DIVISOR` records (at least
/// [`RING_MIN_GROWTH`]) rather than doubling: a ring holds a steady
/// [`PROV_HORIZON`] of deliveries, and a doubled one sits up to half empty
/// at that length for the rest of the run.
const RING_GROWTH_DIVISOR: usize = 8;
/// The smallest step a full ring grows by.
const RING_MIN_GROWTH: usize = 4096;

/// The run's provenance log: final deliveries in engine-clock order, plus
/// the interned table of message kinds the records index into.
///
/// It keeps only what attribution can read. Every delivery of the last
/// [`PROV_HORIZON`] sits in a ring. A delivery that ages out of the ring
/// is kept only if some marked disruption of its causal root lies in
/// `[at, at + PROV_HORIZON]`; every other one is dropped. The rule is
/// exact: by the time a delivery is older than `now − PROV_HORIZON`,
/// every disruption whose window could hold it has been marked and
/// resolved to its root (`Obs::record_hop` resolves the marks first).
#[derive(Debug, Clone)]
pub struct ProvenanceLog {
    /// Deliveries that left the ring inside some disruption's window; all
    /// older than anything in `ring`.
    kept: Vec<HopRecord>,
    /// Every delivery of the last [`PROV_HORIZON`].
    ring: VecDeque<HopRecord>,
    /// Marked disruptions `(session, at)` the clock has not yet passed.
    pending: Vec<(u64, MediaTime)>,
    /// Resolved disruption instants per causal root, oldest first.
    marks: HashMap<u32, VecDeque<MediaTime>>,
    /// Interned message kinds; a record stores an index into this.
    kinds: Vec<&'static str>,
    /// Index of the kind interned last (consecutive deliveries mostly
    /// share one).
    last_kind: u8,
    cap: usize,
    /// Deliveries offered to the log, retained or not.
    offered: u64,
    /// Deliveries dropped past the cap (still counted so audits notice).
    pub dropped: u64,
}

impl Default for ProvenanceLog {
    fn default() -> Self {
        ProvenanceLog {
            kept: Vec::new(),
            ring: VecDeque::new(),
            pending: Vec::new(),
            marks: HashMap::new(),
            kinds: Vec::new(),
            last_kind: 0,
            cap: DEFAULT_PROV_CAP,
            offered: 0,
            dropped: 0,
        }
    }
}

impl ProvenanceLog {
    /// Append one delivery (dropped with accounting past the cap): at
    /// engine time `at` a message of protocol class `kind`, descending
    /// from causal root `root`, reached its application after `wait_us`
    /// in flight. Deliveries older than `at − PROV_HORIZON` leave the
    /// ring first.
    #[inline]
    pub fn record(&mut self, at: MediaTime, root: u32, kind: &'static str, wait_us: i64) {
        self.offered += 1;
        let horizon = at - PROV_HORIZON;
        while let Some(&old) = self.ring.front() {
            if old.at() >= horizon {
                break;
            }
            self.ring.pop_front();
            if self.in_marked_window(old) {
                self.kept.push(old);
            }
        }
        if self.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let kind = self.intern(kind);
        if self.ring.len() == self.ring.capacity() {
            let step = (self.ring.len() / RING_GROWTH_DIVISOR).max(RING_MIN_GROWTH);
            self.ring.reserve_exact(step);
        }
        self.ring.push_back(HopRecord::new(at, kind, root, wait_us));
    }

    /// True when a resolved disruption of `rec`'s root lies in
    /// `[rec.at, rec.at + PROV_HORIZON]`. Records leave the ring in time
    /// order, so an instant before `rec.at` serves no later one and goes.
    fn in_marked_window(&mut self, rec: HopRecord) -> bool {
        let Some(marks) = self.marks.get_mut(&rec.root) else {
            return false;
        };
        let at = rec.at();
        while marks.front().is_some_and(|&t| t < at) {
            marks.pop_front();
        }
        marks.front().is_some_and(|&t| t - PROV_HORIZON <= at)
    }

    /// Mark a disruption attribution will explain: `session` at engine
    /// time `at`. Marks arrive in clock order.
    pub(crate) fn mark(&mut self, session: u64, at: MediaTime) {
        self.pending.push((session, at));
    }

    /// Resolve every mark the clock has passed (`at < now`) to its session
    /// root. Roots are get-or-create and never change, and a delivery's
    /// root existed when its message was sent, so resolving late gives
    /// the post-run answer — also for deliveries later in the mark's own
    /// instant, which may follow the root's creation.
    pub(crate) fn resolve_marks(
        &mut self,
        now: MediaTime,
        session_root: impl Fn(u64) -> Option<SpanId>,
    ) {
        let n = self.pending.partition_point(|&(_, at)| at < now);
        for (session, at) in self.pending.drain(..n) {
            if let Some(root) = session_root(session) {
                self.marks.entry(root.0).or_default().push_back(at);
            }
        }
    }

    /// Index of `kind` in the kind table, adding it on first sight. Equal
    /// literals need not share an address, so identity is only the fast
    /// path and content decides.
    fn intern(&mut self, kind: &'static str) -> u8 {
        if let Some(&last) = self.kinds.get(self.last_kind as usize) {
            if std::ptr::eq(last, kind) {
                return self.last_kind;
            }
        }
        let ix = match self.kinds.iter().position(|&k| k == kind) {
            Some(ix) => ix,
            None => {
                assert!(
                    self.kinds.len() < 256,
                    "more than 256 distinct provenance message kinds"
                );
                if self.kinds.is_empty() {
                    // One allocation for any realistic protocol.
                    self.kinds.reserve_exact(32);
                }
                self.kinds.push(kind);
                self.kinds.len() - 1
            }
        };
        self.last_kind = ix as u8;
        self.last_kind
    }

    /// The protocol message class of a record of this log
    /// (`ServiceMsg::provenance_kind`, or `"msg"` for apps that never
    /// register a classifier).
    pub fn kind(&self, rec: &HopRecord) -> &'static str {
        self.kinds[rec.kind_index() as usize]
    }

    /// All retained deliveries in stamp order: the kept ones, then the
    /// ring.
    pub fn records(&self) -> impl Iterator<Item = &HopRecord> {
        self.kept.iter().chain(&self.ring)
    }

    /// The retained deliveries stamped in `[lo, hi]`, in stamp order:
    /// two binary searches per stored run, no scan of the log.
    fn window(&self, lo: MediaTime, hi: MediaTime) -> impl Iterator<Item = &HopRecord> {
        let (front, back) = self.ring.as_slices();
        [&self.kept[..], front, back]
            .into_iter()
            .flat_map(move |recs| {
                let w0 = recs.partition_point(|r| r.at() < lo);
                let w1 = recs.partition_point(|r| r.at() <= hi);
                &recs[w0..w1]
            })
    }

    /// Number of deliveries retained.
    pub fn len(&self) -> usize {
        self.kept.len() + self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deliveries offered to the log, whether retained, aged out or
    /// dropped past the cap (published as `sim.prov_records`).
    pub fn offered(&self) -> u64 {
        self.offered
    }
}

/// The dominant-cause classes attribution can name, in fixed tie-break
/// priority order (earlier wins a score tie).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CauseClass {
    /// Link loss / partition / node crash starved the path.
    LinkLoss,
    /// Media-node service queue waits / deadline shedding.
    MediaQueue,
    /// Circuit-breaker ejection removed the serving replica.
    Breaker,
    /// A chain of segment-cache misses forced slow tier fetches.
    CacheMiss,
    /// A controller / ladder regrade reduced delivery mid-stream.
    CtrlRegrade,
    /// Controller election cold-start left the fleet unmanaged.
    Election,
    /// No known cause evidence inside the window.
    Unknown,
}

impl CauseClass {
    /// Every class, in priority order.
    pub const ALL: [CauseClass; 7] = [
        CauseClass::LinkLoss,
        CauseClass::MediaQueue,
        CauseClass::Breaker,
        CauseClass::CacheMiss,
        CauseClass::CtrlRegrade,
        CauseClass::Election,
        CauseClass::Unknown,
    ];

    /// Static lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            CauseClass::LinkLoss => "link_loss",
            CauseClass::MediaQueue => "media_queue",
            CauseClass::Breaker => "breaker",
            CauseClass::CacheMiss => "cache_miss",
            CauseClass::CtrlRegrade => "ctrl_regrade",
            CauseClass::Election => "election",
            CauseClass::Unknown => "unknown",
        }
    }

    /// The `attr.*` registry counter this class feeds.
    pub fn counter_name(self) -> &'static str {
        match self {
            CauseClass::LinkLoss => "attr.link_loss",
            CauseClass::MediaQueue => "attr.media_queue",
            CauseClass::Breaker => "attr.breaker",
            CauseClass::CacheMiss => "attr.cache_miss",
            CauseClass::CtrlRegrade => "attr.ctrl_regrade",
            CauseClass::Election => "attr.election",
            CauseClass::Unknown => "attr.unknown",
        }
    }

    fn index(self) -> usize {
        CauseClass::ALL.iter().position(|c| *c == self).unwrap()
    }
}

/// Evidence table: which event names support which cause class, their base
/// weight, and the per-class cap on how many events may contribute (the
/// strongest-weighted are kept, so the cap is order-independent).
fn evidence(name: &'static str) -> Option<(CauseClass, u64)> {
    Some(match name {
        // `link_up` counts as loss evidence too: starvation that surfaces
        // while the post-repair backlog refills traces to the outage whose
        // repair edge is the nearest breadcrumb still inside the window.
        "link_down" | "link_up" | "node_crash" => (CauseClass::LinkLoss, 8),
        "reliable_abandon" => (CauseClass::LinkLoss, 6),
        // Both failover shapes: the replica reselection itself and the
        // per-stream epoch bump that flushes a sick replica's window.
        "media_failover" | "stream_epoch" => (CauseClass::LinkLoss, 5),
        // The tier's queue either way: a node shed the fetch, or the
        // stream ran dry waiting for a credit to ask at all.
        "fetch_shed" | "fetch_wait" => (CauseClass::MediaQueue, 4),
        "breaker_trip" => (CauseClass::Breaker, 6),
        "cache_miss" => (CauseClass::CacheMiss, 1),
        "ctrl_degrade" | "stream_regraded" => (CauseClass::CtrlRegrade, 5),
        "ladder_degrade" => (CauseClass::CtrlRegrade, 3),
        "ctrl_elect" => (CauseClass::Election, 6),
        _ => return None,
    })
}

fn class_cap(class: CauseClass) -> usize {
    match class {
        CauseClass::LinkLoss => 4,
        CauseClass::MediaQueue => 8,
        CauseClass::Breaker => 4,
        // Cache misses are routine (every uncached fetch emits one), so
        // volume alone must never outscore a hard infrastructure event:
        // the cap keeps a session-matched miss chain at 6, below a single
        // weight-8 link/crash event. A miss chain still wins when it is
        // the only evidence in the window.
        CauseClass::CacheMiss => 3,
        CauseClass::CtrlRegrade => 4,
        CauseClass::Election => 2,
        CauseClass::Unknown => 0,
    }
}

/// Minimum `playout_gap` payload (gap ticks) worth attributing.
pub(crate) const GAP_THRESHOLD: i64 = 1;

/// True for an event attribution explains: a `playout_gap` of at least
/// `GAP_THRESHOLD` ticks, a `server_silent` or a `session_abandoned`.
pub fn is_disruption(name: &str, value: i64) -> bool {
    match name {
        "playout_gap" => value >= GAP_THRESHOLD,
        "server_silent" | "session_abandoned" => true,
        _ => false,
    }
}

/// Attribution tuning.
#[derive(Debug, Clone, Copy)]
pub struct AttributionConfig {
    /// How far back from a disruption the causal window reaches; at most
    /// [`PROV_HORIZON`] when critical paths are filled.
    pub window: MediaDuration,
    /// How many critical-path hops to keep per attribution.
    pub path_hops: usize,
}

impl Default for AttributionConfig {
    fn default() -> Self {
        AttributionConfig {
            window: MediaDuration::from_secs(2),
            path_hops: 4,
        }
    }
}

/// One explained disruption: the ranked verdict the flight recorder's raw
/// dump is replaced with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapAttribution {
    /// When the disruption fired.
    pub at: MediaTime,
    /// Node that reported it.
    pub node: u64,
    /// Session it hit (0 when unlabelled).
    pub session: u64,
    /// The disruption event name (`playout_gap`, `server_silent`,
    /// `session_abandoned`).
    pub kind: &'static str,
    /// Dominant cause class.
    pub class: CauseClass,
    /// Evidence score the winning class accumulated.
    pub score: u64,
    /// The strongest single evidence event's name (`""` for `Unknown`).
    pub evidence: &'static str,
    /// When that evidence fired.
    pub evidence_at: MediaTime,
    /// Critical-path hop timings from the provenance log: the slowest
    /// in-window deliveries under this session's causal root, as
    /// `(message kind, in-flight µs)`, slowest first. Empty when
    /// provenance was not captured.
    pub path: Vec<(&'static str, i64)>,
}

impl GapAttribution {
    /// Deterministic one-line rendering for reports and dumps.
    pub fn render(&self) -> String {
        let mut s = format!(
            "@{}µs node={} session={} {} -> {} (score {}, evidence {}@{}µs)",
            self.at.as_micros(),
            self.node,
            self.session,
            self.kind,
            self.class.label(),
            self.score,
            if self.evidence.is_empty() {
                "-"
            } else {
                self.evidence
            },
            self.evidence_at.as_micros(),
        );
        if !self.path.is_empty() {
            let hops: Vec<String> = self
                .path
                .iter()
                .map(|(k, us)| format!("{k}:{us}µs"))
                .collect();
            s.push_str(&format!(" path[{}]", hops.join(" ")));
        }
        s
    }
}

/// Classify the dominant cause for a disruption at `at` on `session`, from
/// the events within `[at - window, at]`. Returns the winning class, its
/// score, and the strongest evidence `(name, at)`.
///
/// Order-independent: scores are computed from per-class weight multisets
/// (sorted before the cap is applied) and ties break by the fixed
/// [`CauseClass`] priority — the `seq` tie-break is never consulted.
pub fn classify_window<'a>(
    window_events: impl IntoIterator<Item = &'a Event>,
    at: MediaTime,
    session: Option<u64>,
    cfg: &AttributionConfig,
) -> (CauseClass, u64, &'static str, MediaTime) {
    let lo = at - cfg.window;
    // Per-class contribution weights, plus the best evidence per class
    // picked by (weight, earliest time, name) — all order-independent keys.
    let mut weights: [Vec<u64>; 7] = Default::default();
    let mut best: [Option<(u64, MediaTime, &'static str)>; 7] = Default::default();
    for e in window_events {
        if e.at < lo || e.at > at {
            continue;
        }
        let Some((class, base)) = evidence(e.name) else {
            continue;
        };
        // Session-specific evidence counts double: it is on this
        // disruption's causal path, not just fleet-wide noise.
        let w = if session.is_some() && e.labels().session == session {
            base * 2
        } else {
            base
        };
        let i = class.index();
        weights[i].push(w);
        let cand = (w, e.at, e.name);
        best[i] = Some(match best[i] {
            None => cand,
            // Highest weight wins; then the earliest occurrence (the root
            // of the chain); then the lexically smallest name.
            Some(cur) => {
                if (cand.0, std::cmp::Reverse(cand.1.as_micros()), cand.2)
                    > (cur.0, std::cmp::Reverse(cur.1.as_micros()), cur.2)
                {
                    cand
                } else {
                    cur
                }
            }
        });
    }
    let mut verdict = (CauseClass::Unknown, 0u64, "", MediaTime::ZERO);
    for class in CauseClass::ALL {
        if class == CauseClass::Unknown {
            continue;
        }
        let i = class.index();
        let ws = &mut weights[i];
        ws.sort_unstable_by(|a, b| b.cmp(a));
        let score: u64 = ws.iter().take(class_cap(class)).sum();
        // Strictly-greater keeps the fixed priority order on ties.
        if score > verdict.1 {
            let (_, ev_at, ev_name) = best[i].unwrap();
            verdict = (class, score, ev_name, ev_at);
        }
    }
    verdict
}

/// Pre-indexed evidence timestamps for a whole event log: per evidence
/// name, the sorted occurrence times, plus per `(name, session)` the
/// session-labelled subset. Classifying one disruption is then a handful
/// of binary searches instead of a scan of every event in the window —
/// the difference between seconds and hours on a saturation run where
/// millions of shed events crowd each causal window.
struct EvidenceIndex {
    all: HashMap<&'static str, Vec<MediaTime>>,
    by_session: HashMap<(&'static str, u64), Vec<MediaTime>>,
}

/// `(first index, count)` of a window inside a sorted time column.
fn time_range(times: &[MediaTime], lo: MediaTime, hi: MediaTime) -> (usize, usize) {
    let a = times.partition_point(|&t| t < lo);
    let b = times.partition_point(|&t| t <= hi);
    (a, b - a)
}

impl EvidenceIndex {
    /// One pass over an `(at, seq)`-ordered log; the per-bucket columns
    /// inherit its time order, so they are sorted by construction.
    fn build(events: &[Event]) -> EvidenceIndex {
        let mut idx = EvidenceIndex {
            all: HashMap::new(),
            by_session: HashMap::new(),
        };
        for e in events {
            if evidence(e.name).is_none() {
                continue;
            }
            idx.all.entry(e.name).or_default().push(e.at);
            if let Some(s) = e.labels().session {
                idx.by_session.entry((e.name, s)).or_default().push(e.at);
            }
        }
        idx
    }

    /// Same verdict as [`classify_window`] over the window slice (a
    /// differential test enforces the equivalence), computed from the
    /// index: per name, the window's total and session-matched counts
    /// come from binary searches, and the per-class score folds the
    /// resulting `(weight, count)` buckets strongest-first under the
    /// class cap.
    fn classify(
        &self,
        at: MediaTime,
        session: Option<u64>,
        cfg: &AttributionConfig,
    ) -> (CauseClass, u64, &'static str, MediaTime) {
        let lo = at - cfg.window;
        let mut buckets: [Vec<(u64, usize)>; 7] = Default::default();
        let mut best: [Option<(u64, MediaTime, &'static str)>; 7] = Default::default();
        let consider = |slot: &mut Option<(u64, MediaTime, &'static str)>,
                        cand: (u64, MediaTime, &'static str)| {
            let replace = match *slot {
                None => true,
                // Highest weight wins; then the earliest occurrence (the
                // root of the chain); then a fixed lexical name tie-break.
                Some(cur) => {
                    (cand.0, std::cmp::Reverse(cand.1.as_micros()), cand.2)
                        > (cur.0, std::cmp::Reverse(cur.1.as_micros()), cur.2)
                }
            };
            if replace {
                *slot = Some(cand);
            }
        };
        for (&name, times) in &self.all {
            let (class, base) = evidence(name).expect("indexed names are evidence");
            let (a0, total) = time_range(times, lo, at);
            if total == 0 {
                continue;
            }
            let i = class.index();
            let matched_col = session.and_then(|s| self.by_session.get(&(name, s)));
            let (m0, matched) = match matched_col {
                Some(col) => time_range(col, lo, at),
                None => (0, 0),
            };
            if matched > 0 {
                buckets[i].push((base * 2, matched));
                consider(&mut best[i], (base * 2, matched_col.unwrap()[m0], name));
            }
            if total > matched {
                // Earliest unmatched occurrence: walk the window's full
                // column pairing off matched stamps (a multiset subset)
                // until one is left over. Bounded by the matched count.
                let matched_times = matched_col.map(|c| &c[m0..m0 + matched]).unwrap_or(&[]);
                let mut j = 0;
                let mut first = times[a0];
                for &t in &times[a0..a0 + total] {
                    if j < matched_times.len() && t == matched_times[j] {
                        j += 1;
                    } else {
                        first = t;
                        break;
                    }
                }
                buckets[i].push((base, total - matched));
                consider(&mut best[i], (base, first, name));
            }
        }
        let mut verdict = (CauseClass::Unknown, 0u64, "", MediaTime::ZERO);
        for class in CauseClass::ALL {
            if class == CauseClass::Unknown {
                continue;
            }
            let i = class.index();
            buckets[i].sort_unstable_by_key(|&(w, _)| std::cmp::Reverse(w));
            let mut remaining = class_cap(class);
            let mut score = 0u64;
            for &(w, count) in &buckets[i] {
                let take = count.min(remaining);
                score += w * take as u64;
                remaining -= take;
                if remaining == 0 {
                    break;
                }
            }
            // Strictly-greater keeps the fixed priority order on ties.
            if score > verdict.1 {
                let (_, ev_at, ev_name) = best[i].unwrap();
                verdict = (class, score, ev_name, ev_at);
            }
        }
        verdict
    }
}

/// Attribute every disruption in a finished `(at, seq)`-ordered event log.
/// Pure over events — the invariant checker and property tests feed this
/// synthetic streams; [`fill_critical_paths`] adds provenance-based hop
/// timings.
///
/// Classification runs off a pre-built evidence index — O(evidence
/// names × log n) per disruption rather than a scan of the window — but
/// produces exactly [`classify_window`]'s verdicts (differentially
/// tested); the scan stays as the executable specification.
pub fn attribute_events(events: &[Event], cfg: &AttributionConfig) -> Vec<GapAttribution> {
    let index = EvidenceIndex::build(events);
    let mut out = Vec::new();
    for e in events {
        if !is_disruption(e.name, e.value) {
            continue;
        }
        let session = e.labels().session;
        let (class, score, evidence, evidence_at) = index.classify(e.at, session, cfg);
        out.push(GapAttribution {
            at: e.at,
            node: e.node(),
            session: session.unwrap_or(0),
            kind: e.name,
            class,
            score,
            evidence,
            evidence_at,
            path: Vec::new(),
        });
    }
    out
}

/// Fill each attribution's critical path: the slowest in-window message
/// deliveries whose causal root is the disruption's session root. The
/// log retains no more than that, so `cfg.window` may reach at most
/// [`PROV_HORIZON`] back.
pub fn fill_critical_paths(
    attrs: &mut [GapAttribution],
    prov: &ProvenanceLog,
    session_root: impl Fn(u64) -> Option<SpanId>,
    cfg: &AttributionConfig,
) {
    assert!(
        cfg.window <= PROV_HORIZON,
        "attribution window {:?} reaches past the provenance horizon",
        cfg.window
    );
    for a in attrs.iter_mut() {
        let Some(root) = session_root(a.session) else {
            continue;
        };
        let mut hops: Vec<(&'static str, i64)> = prov
            .window(a.at - cfg.window, a.at)
            .filter(|r| r.root == root.0)
            .map(|r| (prov.kind(r), r.wait_us as i64))
            .collect();
        // Slowest first; name tie-break keeps the order content-determined.
        hops.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        hops.truncate(cfg.path_hops);
        a.path = hops;
    }
}

/// Fold attribution verdicts into the registry's `attr.*` counters.
pub fn publish_attr_counters(attrs: &[GapAttribution], registry: &mut MetricsRegistry) {
    use crate::event::Labels;
    for a in attrs {
        registry.counter_add(a.class.counter_name(), Labels::NONE, 1);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{Labels, Severity};

    fn ev(
        at_ms: i64,
        seq: u64,
        node: u64,
        name: &'static str,
        labels: Labels,
        value: i64,
    ) -> Event {
        Event::new(
            MediaTime::from_millis(at_ms),
            seq,
            node,
            Severity::Warn,
            name,
            labels,
            value,
        )
    }

    #[test]
    fn cause_ctx_is_compact_and_null_safe() {
        assert_eq!(std::mem::size_of::<CauseCtx>(), 4);
        assert!(CauseCtx::NONE.is_none());
        let c = CauseCtx::from_root(SpanId(7));
        assert!(!c.is_none());
        assert_eq!(c.root_span(), SpanId(7));
    }

    #[test]
    fn link_loss_outranks_cache_noise() {
        let events = vec![
            ev(100, 0, 9, "cache_miss", Labels::session(1), 0),
            ev(200, 1, 9, "cache_miss", Labels::session(1), 0),
            ev(500, 2, 0, "link_down", Labels::for_peer(3), 0),
            ev(900, 3, 3, "playout_gap", Labels::session(1), 2),
        ];
        let attrs = attribute_events(&events, &AttributionConfig::default());
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].class, CauseClass::LinkLoss);
        assert_eq!(attrs[0].evidence, "link_down");
        assert_eq!(attrs[0].session, 1);
    }

    #[test]
    fn queue_saturation_names_media_queue() {
        let mut events: Vec<Event> = (0..6)
            .map(|i| ev(100 + i, i as u64, 5, "fetch_shed", Labels::NONE, 4))
            .collect();
        events.push(ev(600, 9, 3, "playout_gap", Labels::session(2), 1));
        let attrs = attribute_events(&events, &AttributionConfig::default());
        assert_eq!(attrs[0].class, CauseClass::MediaQueue);
    }

    #[test]
    fn a_dry_credit_wait_names_media_queue_not_the_cache_miss_beside_it() {
        let s = Labels::session(2);
        let events = vec![
            ev(100, 0, 5, "cache_miss", s, 7),
            ev(300, 1, 5, "fetch_wait", s.segment(8), 0),
            ev(310, 2, 5, "cache_miss", s, 8),
            ev(600, 9, 3, "playout_gap", s, 1),
        ];
        let attrs = attribute_events(&events, &AttributionConfig::default());
        assert_eq!(attrs[0].class, CauseClass::MediaQueue);
        assert_eq!(attrs[0].evidence, "fetch_wait");
    }

    #[test]
    fn no_evidence_is_unknown_and_below_threshold_skipped() {
        let events = vec![
            ev(100, 0, 3, "playout_gap", Labels::session(1), 0), // below threshold
            ev(200, 1, 3, "playout_gap", Labels::session(1), 1),
        ];
        let attrs = attribute_events(&events, &AttributionConfig::default());
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].class, CauseClass::Unknown);
        assert_eq!(attrs[0].evidence, "");
    }

    #[test]
    fn classification_ignores_same_tick_order() {
        let base = vec![
            ev(500, 0, 0, "link_down", Labels::for_peer(3), 0),
            ev(500, 1, 5, "fetch_shed", Labels::NONE, 4),
            ev(500, 2, 5, "fetch_shed", Labels::NONE, 4),
        ];
        let mut swapped = base.clone();
        swapped.swap(0, 2);
        for (i, e) in swapped.iter_mut().enumerate() {
            e.seq = i as u64; // re-stamped merge order, same content
        }
        let gap = ev(900, 9, 3, "playout_gap", Labels::session(1), 1);
        let cfg = AttributionConfig::default();
        let a = classify_window(&base, gap.at, Some(1), &cfg);
        let b = classify_window(&swapped, gap.at, Some(1), &cfg);
        assert_eq!(a, b);
    }

    /// Deterministic LCG for the randomized differential tests.
    pub(crate) fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        }
    }

    /// A randomized `(at, seq)`-ordered log over 5 s: mixed evidence
    /// names, sessions, unlabelled noise, clustered and spread
    /// timestamps, four `playout_gap`s (some below the threshold).
    pub(crate) fn random_log(next: &mut impl FnMut() -> u64) -> Vec<Event> {
        type LabelFn = fn(u64) -> Labels;
        const NAMES: [(&str, LabelFn); 8] = [
            ("link_down", |s| Labels::for_peer(s)),
            ("reliable_abandon", Labels::session),
            ("fetch_shed", Labels::session),
            ("fetch_wait", Labels::session),
            ("breaker_trip", |_| Labels::NONE),
            ("cache_miss", Labels::session),
            ("stream_regraded", Labels::session),
            ("ctrl_elect", |_| Labels::NONE),
        ];
        let n = 30 + (next() % 120) as usize;
        let mut events: Vec<Event> = (0..n)
            .map(|i| {
                let (name, labels) = NAMES[(next() % NAMES.len() as u64) as usize];
                let (at_ms, node) = ((next() % 5000) as i64, next() % 6);
                let mut labels = labels(next() % 4);
                // Some evidence carries no session at all.
                if next().is_multiple_of(4) {
                    labels = Labels::NONE;
                }
                ev(at_ms, i as u64, node, name, labels, 0)
            })
            .collect();
        for i in 0..4 {
            events.push(ev(
                (next() % 5000) as i64,
                (n + i) as u64,
                next() % 6,
                "playout_gap",
                Labels::session(next() % 4),
                (next() % 3) as i64, // sometimes below GAP_THRESHOLD
            ));
        }
        events.sort_by_key(|e| e.sort_key());
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        events
    }

    /// The indexed classifier must agree with the scan-based reference on
    /// randomized logs, disruption by disruption.
    #[test]
    fn indexed_attribution_matches_reference_scan() {
        let mut next = lcg(0x9E3779B97F4A7C15);
        let cfg = AttributionConfig::default();
        for _trial in 0..50 {
            let events = random_log(&mut next);
            // Reference: the windowed scan, disruption by disruption.
            let mut expected = Vec::new();
            for e in &events {
                if e.name != "playout_gap" || e.value < GAP_THRESHOLD {
                    continue;
                }
                let lo = events.partition_point(|x| x.at < e.at - cfg.window);
                let hi = events.partition_point(|x| x.at <= e.at);
                expected.push(classify_window(
                    &events[lo..hi],
                    e.at,
                    e.labels().session,
                    &cfg,
                ));
            }
            let got: Vec<_> = attribute_events(&events, &cfg)
                .into_iter()
                .map(|a| (a.class, a.score, a.evidence, a.evidence_at))
                .collect();
            assert_eq!(got, expected, "indexed / scan divergence");
        }
    }

    #[test]
    fn critical_path_ranks_slowest_hops() {
        let mut prov = ProvenanceLog::default();
        let root = SpanId(4);
        for (i, (kind, us)) in [("rtp", 900), ("fetch_chunk", 4000), ("rtp", 100)]
            .into_iter()
            .enumerate()
        {
            prov.record(MediaTime::from_millis(400 + i as i64), root.0, kind, us);
        }
        // A foreign root's hop must not leak in.
        prov.record(MediaTime::from_millis(450), 99, "other", 9999);
        let mut attrs = vec![GapAttribution {
            at: MediaTime::from_millis(900),
            node: 2,
            session: 7,
            kind: "playout_gap",
            class: CauseClass::Unknown,
            score: 0,
            evidence: "",
            evidence_at: MediaTime::ZERO,
            path: Vec::new(),
        }];
        fill_critical_paths(
            &mut attrs,
            &prov,
            |s| if s == 7 { Some(root) } else { None },
            &AttributionConfig::default(),
        );
        assert_eq!(
            attrs[0].path,
            vec![("fetch_chunk", 4000), ("rtp", 900), ("rtp", 100)]
        );
        assert!(attrs[0].render().contains("fetch_chunk:4000µs"));
    }

    #[test]
    fn counters_publish_per_class() {
        let attrs = vec![
            GapAttribution {
                at: MediaTime::ZERO,
                node: 1,
                session: 1,
                kind: "playout_gap",
                class: CauseClass::LinkLoss,
                score: 8,
                evidence: "link_down",
                evidence_at: MediaTime::ZERO,
                path: Vec::new(),
            };
            3
        ];
        let mut reg = MetricsRegistry::new();
        publish_attr_counters(&attrs, &mut reg);
        assert_eq!(reg.counter("attr.link_loss", crate::event::Labels::NONE), 3);
    }

    #[test]
    fn provenance_log_is_bounded() {
        let mut p = ProvenanceLog {
            cap: 2,
            ..Default::default()
        };
        for i in 0..5 {
            p.record(MediaTime::from_millis(i), CauseCtx::NONE.root, "msg", 0);
        }
        // The first deliveries are kept, the rest only counted.
        assert_eq!(p.len(), 2);
        assert_eq!(p.dropped, 3);
        assert_eq!(p.records().nth(1).unwrap().at(), MediaTime::from_millis(1));
    }
}
