//! The fleet controller: report ingestion, the utility-maximizing grade
//! solver under fairness budgets, the coordinated admission price, and the
//! elastic media-node scale policy.

use crate::report::LoadReport;
use crate::utility::SessionView;
use hermes_core::{MediaDuration, MediaTime, PricingClass};
use std::collections::BTreeMap;

#[cfg(test)]
mod spec;

/// Well-known metric names of the registry form of a control-plane report,
/// which [`LoadReport`] accepts through `From<&MetricsRegistry>`: each
/// names one signal a [`LoadReport`] carries as a typed field or row.
/// Every key is labelled with the reporter's node id (`peer`), so reports
/// from different nodes never collide when merged.
pub mod names {
    /// Gauge (per server, labels `{peer}`): the server's CoDel pressure
    /// verdict over fetch latency — 1 under sustained pressure, else 0.
    /// This is the *same* detector the local ladder consults
    /// (`hermes_core::PressureDetector`), so global and local paths score
    /// pressure identically.
    pub const PRESSURE: &str = "ctrl.pressure";
    /// Gauge (per media node, labels `{peer}`): current fetch-queue depth.
    pub const QUEUE_LEN: &str = "ctrl.queue_len";
    /// Gauge (per stream, labels `{session,stream,peer}`): current grade
    /// level (0 = nominal).
    pub const STREAM_LEVEL: &str = "ctrl.stream_level";
    /// Gauge (per stream, labels `{session,stream,peer}`): deepest level
    /// the stream's ladder supports.
    pub const STREAM_MAX: &str = "ctrl.stream_max";
    /// Gauge (per stream, labels `{session,stream,peer}`): the stream's
    /// media kind, encoded by [`crate::utility::encode_kind`].
    pub const STREAM_KIND: &str = "ctrl.stream_kind";
    /// Gauge (per session, labels `{session,peer}`): the session's pricing
    /// class as [`hermes_core::PricingClass::priority`].
    pub const SESSION_CLASS: &str = "ctrl.session_class";
    /// Gauge (per server, labels `{peer}`): the server's worst SLO burn
    /// rate in **milli-burn** units (1000 = consuming the error budget
    /// exactly at the sustainable rate). A leading pressure signal: fetch
    /// latency crosses its SLO threshold while media queues are still
    /// shallow, so burn trips control ticks before queue depth does.
    pub const SLO_BURN: &str = "ctrl.slo_burn";
}

/// The per-class fairness budget: the most sessions of `class` the
/// controller may hold degraded at once, out of `total` live ones — a
/// quarter of premium, half of standard, every economy session. Spreads
/// flash-crowd pain as many small degradations across cheap classes instead
/// of collapsing a few sessions, while bounding how much of the premium
/// fleet may ever be touched.
pub fn fairness_cap(class: PricingClass, total: usize) -> usize {
    let fraction = match class {
        PricingClass::Premium => 0.25,
        PricingClass::Standard => 0.5,
        PricingClass::Economy => 1.0,
    };
    (fraction * total as f64).ceil() as usize
}

/// Control-loop evaluation period (the service arms `TK_CONTROL` with it).
pub const CONTROL_TICK: MediaDuration = MediaDuration::from_millis(200);
/// Report cadence of servers and media nodes (`TK_CONTROL_REPORT`).
pub const REPORT_PERIOD: MediaDuration = MediaDuration::from_millis(100);
/// Reports older than this are ignored (a crashed reporter's stale
/// snapshot must not wedge the pressure verdict).
pub(crate) const STALE_AFTER: MediaDuration = MediaDuration::from_millis(1_000);
/// Controller lease-beat period: the leader broadcasts a
/// [`ControlSnapshot`]-bearing lease at this cadence.
pub const LEASE_BEAT: MediaDuration = MediaDuration::from_millis(300);
/// Missed lease beats before followers declare the lease expired and run
/// the failover election (the PR 1 K-missed-beats discipline).
const LEASE_MISSED: u32 = 4;
/// How long followers wait without a lease beat before electing.
pub const LEASE_TIMEOUT: MediaDuration =
    MediaDuration::from_micros(LEASE_BEAT.as_micros() * LEASE_MISSED as i64);
/// Report windows a freshly elected controller observes before its first
/// actuation (the "cold controller" rate limit): state rebuilt from a lease
/// snapshot is administrative, not behavioral, so the successor watches
/// [`WARMUP`] of live telemetry before it may thrash the fleet.
const WARMUP_REPORTS: u32 = 3;
/// The cold-start window of a freshly elected controller.
pub const WARMUP: MediaDuration =
    MediaDuration::from_micros(REPORT_PERIOD.as_micros() * WARMUP_REPORTS as i64);

// A quorum-isolated leader must see its peer reports go stale (and
// self-demote) no later than a follower's election can fire, so both sides
// of a partition can never actuate at once.
const _: () = assert!(LEASE_TIMEOUT.as_micros() >= STALE_AFTER.as_micros());

/// Configuration of the fleet controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Media-node queue depth counted as fleet pressure.
    pub queue_target: f64,
    /// SLO burn rate (multiple of the sustainable budget-consumption rate)
    /// counted as fleet pressure. Compared against [`names::SLO_BURN`]
    /// gauges, which report milli-burn (`burn * 1000`). The default is a
    /// fast-burn threshold: 1× is the steady state of a service exactly
    /// meeting its SLO, so tripping there would have the controller degrade
    /// healthy fleets — only a several-fold burn means real trouble.
    pub burn_target: f64,
    /// Anti-flap dwell: a session acted on is left alone for this long.
    pub dwell: MediaDuration,
    /// Pressure-free time required before any upgrade, price decay or
    /// scale-in (the controller-side hysteresis band).
    pub calm: MediaDuration,
    /// Maximum grade steps (degrades or upgrades) per tick — many small
    /// steps across ticks, never a mass regrade in one.
    pub max_steps_per_tick: u32,
    /// Highest admission price (pre-shed grade levels) the controller may
    /// set.
    pub max_price: u8,
    /// Sustained fleet pressure required before a standby media node is
    /// scaled out.
    pub scale_out_after: MediaDuration,
    /// Sustained calm required before a scaled-out node is drained back in.
    pub scale_in_after: MediaDuration,
    /// Minimum spacing between successive scale actions.
    pub scale_dwell: MediaDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            queue_target: 8.0,
            burn_target: 6.0,
            dwell: MediaDuration::from_millis(1_000),
            calm: MediaDuration::from_secs(2),
            max_steps_per_tick: 4,
            max_price: 2,
            scale_out_after: MediaDuration::from_millis(1_500),
            scale_in_after: MediaDuration::from_secs(6),
            scale_dwell: MediaDuration::from_secs(3),
        }
    }
}

/// One actuation command the controller hands back to the service layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlCommand {
    /// Walk one stream of the session one grade level down (the owning
    /// server picks the stream via the shared video-first step function).
    Degrade {
        /// Raw node id of the owning server.
        server: u64,
        /// The victim session.
        session: u64,
    },
    /// Walk one stream of the session one grade level up.
    Upgrade {
        /// Raw node id of the owning server.
        server: u64,
        /// The session being restored.
        session: u64,
    },
    /// Set the fleet admission price: new admissions start `shed` grade
    /// levels below nominal (0 restores nominal admission).
    SetPrice {
        /// Pre-shed levels applied at admission.
        shed: u8,
    },
    /// Activate a standby media node (content is rebalanced onto it by
    /// rendezvous hashing; only the minimal key range moves).
    ScaleOut {
        /// Raw node id of the media node.
        node: u64,
    },
    /// Drain a scaled-out media node and return it to standby.
    ScaleIn {
        /// Raw node id of the media node.
        node: u64,
    },
}

/// Cumulative controller decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Control ticks evaluated.
    pub ticks: u64,
    /// Ticks whose fleet verdict was "under pressure".
    pub pressured_ticks: u64,
    /// Degrade commands issued.
    pub degrades: u64,
    /// Upgrade commands issued.
    pub upgrades: u64,
    /// Admission price changes issued.
    pub price_changes: u64,
    /// Standby media nodes activated.
    pub scale_outs: u64,
    /// Media nodes drained back to standby.
    pub scale_ins: u64,
    /// Ticks suppressed by the post-election cold-start window.
    pub cold_ticks: u64,
}

/// The plan one control tick produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlan {
    /// Which signal families voted pressure this tick, after report
    /// staleness filtering ([`FleetController::pressure_sources`]).
    pub sources: u8,
    /// Commands to actuate, in issue order.
    pub commands: Vec<ControlCommand>,
}

impl ControlPlan {
    /// The tick's fleet pressure verdict: any signal family voted.
    pub fn pressured(&self) -> bool {
        self.sources != 0
    }
}

/// The administrative controller state a lease beat replicates to every
/// follower. Deliberately small: pressure EWMAs and dwell timers are
/// *behavioral* state a successor must re-learn from live reports (the
/// cold-start window), but price and the standby/scaled-out pools are
/// *administrative* facts the fleet is already acting on — a successor that
/// forgot them would re-admit at the wrong price or double-activate nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControlSnapshot {
    /// The issuing controller's fencing epoch.
    pub epoch: u64,
    /// Current admission price (pre-shed levels).
    pub price: u8,
    /// Standby media nodes still available for scale-out, activation order.
    pub standby: Vec<u64>,
    /// Media nodes currently scaled out, most recent last.
    pub scaled_out: Vec<u64>,
}

/// The fleet controller. Hosted by one designated server actor; pure policy
/// — `ingest` stores each reporter's latest [`LoadReport`] as received,
/// `tick` turns the current fleet view into actuation commands.
#[derive(Debug, Clone)]
pub struct FleetController {
    /// Configuration.
    pub cfg: ControllerConfig,
    /// Last report per reporter node: (received at, report).
    reports: BTreeMap<u64, (MediaTime, LoadReport)>,
    /// Last grade action per session (anti-flap dwell).
    last_step: BTreeMap<u64, MediaTime>,
    /// When the current pressure episode began.
    pressured_since: Option<MediaTime>,
    /// Last instant the fleet was under pressure.
    last_pressure: MediaTime,
    /// Current admission price (pre-shed levels).
    price: u8,
    /// Last instant the price changed.
    last_price: MediaTime,
    /// Standby media nodes available for scale-out, in activation order.
    standby: Vec<u64>,
    /// Media nodes this controller scaled out, most recent last.
    scaled_out: Vec<u64>,
    /// Last instant a scale action was issued.
    last_scale: MediaTime,
    /// This controller's fencing epoch: stamped on every actuation message
    /// so receivers can reject a zombie ex-controller's commands.
    epoch: u64,
    /// A freshly elected controller holds fire until this instant — the
    /// cold-start window during which it only observes reports.
    cold_until: MediaTime,
    /// Decision counters.
    pub stats: ControllerStats,
}

impl FleetController {
    /// A fresh controller with no reports and an empty standby pool.
    pub fn new(cfg: ControllerConfig) -> Self {
        FleetController {
            cfg,
            reports: BTreeMap::new(),
            last_step: BTreeMap::new(),
            pressured_since: None,
            last_pressure: MediaTime::ZERO,
            price: 0,
            last_price: MediaTime::ZERO,
            standby: Vec::new(),
            scaled_out: Vec::new(),
            last_scale: MediaTime::ZERO,
            epoch: 1,
            cold_until: MediaTime::ZERO,
            stats: ControllerStats::default(),
        }
    }

    /// Rebuild a controller from a replicated lease snapshot after failover.
    ///
    /// Administrative state (price, standby/scaled-out pools) is restored
    /// verbatim under the successor's `epoch`; behavioral state is seeded
    /// conservatively — dwell, calm, price and scale clocks all start at
    /// `now`, and no command is issued until the cold-start window
    /// ([`WARMUP`]) has been observed.
    pub fn from_snapshot(
        cfg: ControllerConfig,
        epoch: u64,
        snap: &ControlSnapshot,
        now: MediaTime,
    ) -> Self {
        let mut c = FleetController::new(cfg);
        c.epoch = epoch;
        c.price = snap.price;
        c.standby = snap.standby.clone();
        c.scaled_out = snap.scaled_out.clone();
        c.last_pressure = now;
        c.last_price = now;
        c.last_scale = now;
        c.cold_until = now + WARMUP;
        c
    }

    /// The administrative state to replicate on the next lease beat.
    pub fn snapshot(&self) -> ControlSnapshot {
        ControlSnapshot {
            epoch: self.epoch,
            price: self.price,
            standby: self.standby.clone(),
            scaled_out: self.scaled_out.clone(),
        }
    }

    /// This controller's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while the controller is inside its post-election cold-start
    /// window and must not actuate.
    pub fn is_cold(&self, now: MediaTime) -> bool {
        now < self.cold_until
    }

    /// Provide the standby media-node pool the elastic policy may activate.
    pub fn set_standby(&mut self, nodes: Vec<u64>) {
        self.standby = nodes;
    }

    /// The current admission price (pre-shed levels).
    pub fn price(&self) -> u8 {
        self.price
    }

    /// Media nodes currently scaled out by this controller.
    pub fn scaled_out(&self) -> &[u64] {
        &self.scaled_out
    }

    /// Absorb one report from `node`, replacing its prior one. The
    /// registry form of a report is accepted too, through
    /// `From<&MetricsRegistry>`.
    pub fn ingest(&mut self, now: MediaTime, node: u64, report: impl Into<LoadReport>) {
        self.reports.insert(node, (now, report.into()));
    }

    /// The reports no older than [`STALE_AFTER`], by reporter node.
    fn fresh(&self, now: MediaTime) -> impl Iterator<Item = (u64, &LoadReport)> {
        self.reports
            .iter()
            .filter(move |(_, (at, _))| now - *at <= STALE_AFTER)
            .map(|(&node, (_, report))| (node, report))
    }

    /// Handles to the reports no older than the 1 s staleness bound, by
    /// reporter node: one allocation, and the rows stay shared.
    pub fn fresh_reports(&self, now: MediaTime) -> Vec<(u64, LoadReport)> {
        let mut fresh = Vec::with_capacity(self.fresh(now).count());
        fresh.extend(self.fresh(now).map(|(node, report)| (node, report.clone())));
        fresh
    }

    /// Assemble the per-session fleet view of `fresh` reports (see
    /// [`FleetController::fresh_reports`]): sessions by `(server, session)`,
    /// each session's streams by component, borrowed from the reports. A
    /// `(server, session)` pair is reported by one node only. One
    /// allocation, sized by a first walk over the reports.
    pub fn fleet_view(fresh: &[(u64, LoadReport)]) -> Vec<SessionView<'_>> {
        let n = fresh.iter().map(|(node, r)| r.sessions(*node).len()).sum();
        let mut view = Vec::with_capacity(n);
        view.extend(fresh.iter().flat_map(|(node, r)| r.sessions(*node)));
        view.sort_unstable_by_key(|s| (s.server, s.session));
        view
    }

    /// Bitmask of which signal families currently vote pressure across the
    /// fresh reports: bit 0 = CoDel latency pressure ([`names::PRESSURE`]),
    /// bit 1 = media queue depth ([`names::QUEUE_LEN`]), bit 2 = SLO burn
    /// rate ([`names::SLO_BURN`]). Burn is the leading indicator: on a
    /// flash crowd it typically sets bits ticks before the queue bit.
    pub fn pressure_sources(&self, now: MediaTime) -> u8 {
        self.fresh(now).fold(0, |sources, (_, report)| {
            sources | report.pressure_sources(self.cfg.queue_target, self.cfg.burn_target)
        })
    }

    fn dwell_ok(&self, session: u64, now: MediaTime) -> bool {
        self.last_step
            .get(&session)
            .is_none_or(|t| now - *t >= self.cfg.dwell)
    }

    /// Evaluate one control tick: returns the pressure sources behind the
    /// fleet verdict and the actuation commands for this period.
    pub fn tick(&mut self, now: MediaTime) -> ControlPlan {
        self.stats.ticks += 1;
        let sources = self.pressure_sources(now);
        let pressured = sources != 0;
        if self.is_cold(now) {
            // Cold start: keep the pressure clocks honest (so calm windows
            // are measured from real pressure, not from election time) but
            // issue nothing until the warmup reports have been observed.
            self.stats.cold_ticks += 1;
            if pressured {
                self.stats.pressured_ticks += 1;
                if self.pressured_since.is_none() {
                    self.pressured_since = Some(now);
                }
                self.last_pressure = now;
            } else {
                self.pressured_since = None;
            }
            return ControlPlan {
                sources,
                commands: Vec::new(),
            };
        }
        // The planners take `&mut self`, so the view borrows from handles
        // to the fresh reports rather than from `self.reports`.
        let fresh = self.fresh_reports(now);
        let mut view = Self::fleet_view(&fresh);
        let mut commands = Vec::new();
        if pressured {
            self.stats.pressured_ticks += 1;
            if self.pressured_since.is_none() {
                self.pressured_since = Some(now);
            }
            self.last_pressure = now;
            self.plan_degrades(now, &mut view, &mut commands);
            self.plan_price(now, true, &mut commands);
            self.plan_scale_out(now, &mut commands);
        } else {
            self.pressured_since = None;
            if now - self.last_pressure >= self.cfg.calm {
                self.plan_upgrades(now, &mut view, &mut commands);
                self.plan_price(now, false, &mut commands);
                self.plan_scale_in(now, &mut commands);
            }
        }
        ControlPlan { sources, commands }
    }

    /// Pick up to `max_steps_per_tick` degrade victims: the steps losing
    /// the least aggregate utility first, spreading across the shallowest
    /// sessions, without breaching any class's fairness budget and without
    /// touching a session still in its dwell window. The view is filtered
    /// and ordered in place.
    fn plan_degrades(
        &mut self,
        now: MediaTime,
        view: &mut Vec<SessionView<'_>>,
        commands: &mut Vec<ControlCommand>,
    ) {
        // Sessions and degraded sessions per class, by class priority.
        let mut class_total = [0usize; 3];
        let mut class_degraded = [0usize; 3];
        for s in view.iter() {
            class_total[s.class.priority() as usize] += 1;
            if s.degraded() {
                class_degraded[s.class.priority() as usize] += 1;
            }
        }
        view.retain(|s| s.next_step_down().is_some());
        // Cheapest utility loss first; spread (shallowest depth) next;
        // newest session, then lowest server, last tie-break for
        // determinism (the server key keeps the view's own order among
        // equal sessions, so the unstable sort picks as a stable one would).
        view.sort_unstable_by(|a, b| {
            a.step_down_loss()
                .partial_cmp(&b.step_down_loss())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.depth().cmp(&b.depth()))
                .then(b.session.cmp(&a.session))
                .then(a.server.cmp(&b.server))
        });
        for s in view.iter() {
            if commands.len() as u32 >= self.cfg.max_steps_per_tick {
                break;
            }
            if !self.dwell_ok(s.session, now) {
                continue;
            }
            if !s.degraded() {
                let class = s.class.priority() as usize;
                if class_degraded[class] + 1 > fairness_cap(s.class, class_total[class]) {
                    continue;
                }
                class_degraded[class] += 1;
            }
            self.last_step.insert(s.session, now);
            self.stats.degrades += 1;
            commands.push(ControlCommand::Degrade {
                server: s.server,
                session: s.session,
            });
        }
    }

    /// Pick up to `max_steps_per_tick` upgrade steps: the largest utility
    /// gains first (premium audio recovers before economy video), dwell
    /// gated like degrades. The view is filtered and ordered in place.
    fn plan_upgrades(
        &mut self,
        now: MediaTime,
        view: &mut Vec<SessionView<'_>>,
        commands: &mut Vec<ControlCommand>,
    ) {
        view.retain(|s| s.degraded());
        view.sort_unstable_by(|a, b| {
            b.step_up_gain()
                .partial_cmp(&a.step_up_gain())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.depth().cmp(&a.depth()))
                .then(a.session.cmp(&b.session))
                .then(a.server.cmp(&b.server))
        });
        for s in view.iter() {
            if commands.len() as u32 >= self.cfg.max_steps_per_tick {
                break;
            }
            if !self.dwell_ok(s.session, now) {
                continue;
            }
            self.last_step.insert(s.session, now);
            self.stats.upgrades += 1;
            commands.push(ControlCommand::Upgrade {
                server: s.server,
                session: s.session,
            });
        }
    }

    /// Raise the admission price one notch per dwell while pressured; decay
    /// it one notch per dwell once calm.
    fn plan_price(&mut self, now: MediaTime, pressured: bool, commands: &mut Vec<ControlCommand>) {
        let next = if pressured {
            self.price.saturating_add(1).min(self.cfg.max_price)
        } else {
            self.price.saturating_sub(1)
        };
        if next == self.price {
            return;
        }
        if self.price != 0 || next != 0 {
            // Rate-limit consecutive changes to one per dwell.
            if self.stats.price_changes > 0 && now - self.last_price < self.cfg.dwell {
                return;
            }
        }
        self.price = next;
        self.last_price = now;
        self.stats.price_changes += 1;
        commands.push(ControlCommand::SetPrice { shed: next });
    }

    /// Activate the next standby media node after sustained pressure.
    fn plan_scale_out(&mut self, now: MediaTime, commands: &mut Vec<ControlCommand>) {
        let sustained = self
            .pressured_since
            .is_some_and(|t| now - t >= self.cfg.scale_out_after);
        let spaced = self.stats.scale_outs + self.stats.scale_ins == 0
            || now - self.last_scale >= self.cfg.scale_dwell;
        if sustained && spaced && !self.standby.is_empty() {
            let node = self.standby.remove(0);
            self.scaled_out.push(node);
            self.last_scale = now;
            self.stats.scale_outs += 1;
            commands.push(ControlCommand::ScaleOut { node });
        }
    }

    /// Drain the most recently activated node after sustained calm.
    fn plan_scale_in(&mut self, now: MediaTime, commands: &mut Vec<ControlCommand>) {
        let calm_enough = now - self.last_pressure >= self.cfg.scale_in_after;
        let spaced = now - self.last_scale >= self.cfg.scale_dwell;
        if calm_enough && spaced {
            if let Some(node) = self.scaled_out.pop() {
                self.standby.insert(0, node);
                self.last_scale = now;
                self.stats.scale_ins += 1;
                commands.push(ControlCommand::ScaleIn { node });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::encode_kind;
    use hermes_core::MediaKind;
    use hermes_obs::{Labels, MetricsRegistry};

    fn at(v: i64) -> MediaTime {
        MediaTime::from_millis(v)
    }

    /// A server report with one session holding an audio+video pair.
    fn report(server: u64, session: u64, class: PricingClass, levels: (u8, u8)) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let sl = Labels::session(session).peer(server);
        r.gauge_set(names::SESSION_CLASS, sl, class.priority() as f64);
        for (stream, kind, level) in [
            (1u64, MediaKind::Audio, levels.0),
            (2u64, MediaKind::Video, levels.1),
        ] {
            let l = Labels::session(session).stream(stream).peer(server);
            r.gauge_set(names::STREAM_KIND, l, encode_kind(kind));
            r.gauge_set(names::STREAM_LEVEL, l, level as f64);
            r.gauge_set(names::STREAM_MAX, l, 3.0);
        }
        r
    }

    fn pressured(server: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.gauge_set(names::PRESSURE, Labels::for_peer(server), 1.0);
        r
    }

    #[test]
    fn view_round_trips_reports() {
        let mut c = FleetController::new(ControllerConfig::default());
        c.ingest(at(0), 1, &report(1, 7, PricingClass::Premium, (0, 2)));
        let fresh = c.fresh_reports(at(50));
        let view = FleetController::fleet_view(&fresh);
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].session, 7);
        assert_eq!(view[0].class, PricingClass::Premium);
        assert_eq!(view[0].streams.len(), 2);
        assert_eq!(view[0].streams[1].kind, MediaKind::Video);
        assert_eq!(view[0].streams[1].level, 2);
        // Stale reports drop out of the view.
        assert!(c.fresh_reports(at(5_000)).is_empty());
    }

    #[test]
    fn pressured_tick_degrades_video_of_cheapest_session_first() {
        let mut c = FleetController::new(ControllerConfig {
            max_steps_per_tick: 1,
            ..ControllerConfig::default()
        });
        let mut r = report(1, 1, PricingClass::Premium, (0, 0));
        r.merge_from(&report(1, 2, PricingClass::Economy, (0, 0)));
        r.merge_from(&pressured(1));
        c.ingest(at(0), 1, &r);
        let plan = c.tick(at(100));
        assert!(plan.pressured());
        let degrades: Vec<&ControlCommand> = plan
            .commands
            .iter()
            .filter(|cmd| matches!(cmd, ControlCommand::Degrade { .. }))
            .collect();
        assert_eq!(
            degrades,
            vec![&ControlCommand::Degrade {
                server: 1,
                session: 2
            }],
            "economy session loses its (video) step first"
        );
    }

    #[test]
    fn upgrades_wait_out_calm_and_dwell() {
        let cfg = ControllerConfig::default();
        let mut c = FleetController::new(cfg);
        let mut r = report(1, 1, PricingClass::Standard, (0, 1));
        r.merge_from(&pressured(1));
        c.ingest(at(0), 1, &r);
        let plan = c.tick(at(100));
        assert!(plan.pressured());
        // Pressure clears; a fresh calm report arrives each tick.
        let mut t = 100;
        let mut first_upgrade = None;
        while t < 10_000 && first_upgrade.is_none() {
            t += 200;
            c.ingest(at(t), 1, &report(1, 1, PricingClass::Standard, (0, 1)));
            let plan = c.tick(at(t));
            assert!(!plan.pressured());
            if plan
                .commands
                .iter()
                .any(|cmd| matches!(cmd, ControlCommand::Upgrade { .. }))
            {
                first_upgrade = Some(t);
            }
        }
        let when = first_upgrade.expect("an upgrade must eventually be issued");
        assert!(
            at(when) - at(100) >= cfg.calm,
            "upgrade at {when}ms inside the calm window"
        );
    }

    #[test]
    fn price_rises_under_pressure_and_decays_calm() {
        let cfg = ControllerConfig::default();
        let mut c = FleetController::new(cfg);
        c.ingest(at(0), 1, &pressured(1));
        let mut t = 0;
        while c.price() < cfg.max_price && t < 20_000 {
            t += 200;
            c.ingest(at(t), 1, &pressured(1));
            c.tick(at(t));
        }
        assert_eq!(c.price(), cfg.max_price);
        // Calm: price decays back to zero (after the calm window).
        let mut t2 = t;
        while c.price() > 0 && t2 < t + 30_000 {
            t2 += 200;
            c.ingest(at(t2), 1, &MetricsRegistry::new());
            c.tick(at(t2));
        }
        assert_eq!(c.price(), 0);
    }

    #[test]
    fn elastic_policy_scales_out_then_back_in() {
        let cfg = ControllerConfig::default();
        let mut c = FleetController::new(cfg);
        c.set_standby(vec![41, 42]);
        let mut t = 0;
        let mut out: Vec<u64> = Vec::new();
        while t < 10_000 {
            t += 200;
            c.ingest(at(t), 1, &pressured(1));
            for cmd in c.tick(at(t)).commands {
                if let ControlCommand::ScaleOut { node } = cmd {
                    out.push(node);
                }
            }
        }
        assert_eq!(out, vec![41, 42], "both standby nodes activate in order");
        assert!(
            at(10_000) - at(0) >= cfg.scale_out_after + cfg.scale_dwell,
            "sanity: window long enough for two activations"
        );
        // Sustained calm drains them LIFO.
        let mut back: Vec<u64> = Vec::new();
        while t < 40_000 {
            t += 200;
            c.ingest(at(t), 1, &MetricsRegistry::new());
            for cmd in c.tick(at(t)).commands {
                if let ControlCommand::ScaleIn { node } = cmd {
                    back.push(node);
                }
            }
        }
        assert_eq!(back, vec![42, 41]);
        assert!(c.scaled_out().is_empty());
    }

    #[test]
    fn stale_reports_cannot_wedge_pressure() {
        let mut c = FleetController::new(ControllerConfig::default());
        c.ingest(at(0), 1, &pressured(1));
        assert!(c.tick(at(100)).pressured());
        // The reporter dies; its stale verdict must age out.
        assert!(!c.tick(at(5_000)).pressured());
    }

    #[test]
    fn dwell_blocks_repeat_action_on_one_session() {
        let cfg = ControllerConfig::default();
        let mut c = FleetController::new(cfg);
        let mut r = report(1, 1, PricingClass::Economy, (0, 0));
        r.merge_from(&pressured(1));
        c.ingest(at(0), 1, &r);
        let first = c.tick(at(100));
        assert_eq!(
            first
                .commands
                .iter()
                .filter(|cmd| matches!(cmd, ControlCommand::Degrade { .. }))
                .count(),
            1
        );
        // Same session still pressured immediately after: dwell holds it.
        let mut r = report(1, 1, PricingClass::Economy, (0, 1));
        r.merge_from(&pressured(1));
        c.ingest(at(300), 1, &r);
        let plan = c.tick(at(300));
        assert!(
            !plan
                .commands
                .iter()
                .any(|cmd| matches!(cmd, ControlCommand::Degrade { .. })),
            "dwell must suppress back-to-back degrades: {:?}",
            plan.commands
        );
    }
}
