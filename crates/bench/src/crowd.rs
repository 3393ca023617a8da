//! The crowd scenario of the load experiments (EXP-SCALE, -OVERLOAD,
//! -CONTROL, -HA and EXP-SLO's spike). A [`Scenario`] builds the world —
//! servers, then the client pool, then the media nodes (node ids feed
//! rendezvous placement) — with one course. The experiment sets up its
//! controller or faults on the [`Crowd`], drives a schedule through the
//! pool, reads its numbers off the [`Tally`] and the simulation, and ends
//! with [`Crowd::judge`], which fails the run on any invariant violation.
//!
//! Every pinned table of those experiments is a function of the RNG draw
//! order, the node order and the pool's slot order below; change any of
//! them and `BENCH_baseline.json` moves.

use crate::harness::clip_lesson;
use crate::workload::{Arrival, ZipfCatalog};
use hermes_client::StreamPlayoutStats;
use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId, ServerId};
use hermes_server::{SharingMode, SharingPolicy};
use hermes_service::{
    install_course, ClientActor, ClientConfig, MediaNodeConfig, MediaTierConfig, ServerConfig,
    ServiceMsg, ServiceWorld, WorldBuilder,
};
use hermes_simnet::obs::invariants::{check_run, InvariantConfig};
use hermes_simnet::obs::percentile;
use hermes_simnet::{LinkSpec, Sim, SimRng};

/// Zipf skew of the flash-crowd catalog.
const CROWD_SKEW: f64 = 1.1;
/// The drain past the arrival horizon, on top of one clip: long enough for
/// every in-flight session to play out.
const DRAIN: MediaDuration = MediaDuration::from_secs(15);
/// How long the judge lets the final disconnects settle.
const SETTLE: MediaDuration = MediaDuration::from_secs(5);

/// A piecewise-Poisson flash crowd over a Zipf(1.1) catalog: `base_rate`
/// outside the crowd window, `base_rate × spike_mult` inside it.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Arrivals per second outside the crowd window.
    pub base_rate: f64,
    /// Rate multiplier inside the crowd window.
    pub spike_mult: f64,
    /// When the crowd begins.
    pub spike_at: MediaTime,
    /// How long it lasts; `None` is a step that never ends.
    pub spike_len: Option<MediaDuration>,
    /// Arrivals stop (exclusive) here.
    pub horizon: MediaTime,
    /// Number of titles.
    pub catalog: usize,
}

impl FlashCrowd {
    /// The schedule for `seed`, sorted by time. The same seed gives the same
    /// schedule whatever the experiment's mode, so mode columns compare.
    ///
    /// Draw order is fixed: one exponential gap per arrival, then — only if
    /// the arrival lands before the horizon — one catalog sample.
    pub fn arrivals(&self, seed: u64) -> Vec<Arrival> {
        let mut rng = SimRng::seed_from_u64(seed);
        let catalog = ZipfCatalog::new(self.catalog, CROWD_SKEW);
        let mut out = Vec::new();
        let mut t = MediaTime::ZERO;
        loop {
            let hot =
                t >= self.spike_at && self.spike_len.is_none_or(|len| t < self.spike_at + len);
            let rate = if hot {
                self.base_rate * self.spike_mult
            } else {
                self.base_rate
            };
            let gap_secs = rng.exponential(1.0 / rate);
            t += MediaDuration::from_micros((gap_secs * 1e6) as i64);
            if t >= self.horizon {
                return out;
            }
            out.push(Arrival {
                at: t,
                rank: catalog.sample(&mut rng),
            });
        }
    }
}

/// The world of one load experiment. Each field is one the experiments
/// set differently; everything they share is a constant of this module.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Multimedia servers; the course sits on the last `titles.len()`.
    pub servers: usize,
    /// Stream sharing on every server.
    pub sharing: SharingPolicy,
    /// Client pool size.
    pub pool: usize,
    /// Media nodes, of which the last `standby` start out of the placement.
    pub media: usize,
    /// See `media`.
    pub standby: usize,
    /// Media-tier configuration.
    pub tier: MediaTierConfig,
    /// Queue 24 and 1 ms + this many ms/MiB on every media node, so a crowd
    /// overloads serving rather than the network; `None` keeps the defaults.
    pub tight_ms_per_mib: Option<i64>,
    /// One course title per course server (titles reach the markup's size).
    pub titles: &'static [&'static str],
    /// The course's topic word.
    pub tag: &'static str,
    /// Salt of the course RNG (`seed ^ salt`).
    pub salt: u64,
    /// Lessons in all, split evenly over the titles.
    pub lessons: usize,
    /// Clip length of every lesson, seconds.
    pub clip_secs: i64,
}

impl Default for Scenario {
    /// EXP-OVERLOAD's world without its size: one server, sharing off, two
    /// media nodes on a 300 ms/MiB tight tier, the `"Crowd"` course.
    fn default() -> Self {
        Scenario {
            servers: 1,
            sharing: SharingPolicy {
                mode: SharingMode::Off,
                ..SharingPolicy::default()
            },
            pool: 0,
            media: 2,
            standby: 0,
            tier: MediaTierConfig::default(),
            tight_ms_per_mib: Some(300),
            titles: &["Crowd"],
            tag: "",
            salt: 0xF1A5,
            lessons: 0,
            clip_secs: 8,
        }
    }
}

impl Scenario {
    /// Build the world for `seed`: topology, tier, course, placement.
    pub fn build(&self, seed: u64) -> Crowd {
        let mut b = WorldBuilder::new(seed);
        let cfg = ServerConfig {
            sharing: self.sharing.clone(),
            ..ServerConfig::default()
        };
        // A 2 Gb/s trunk per server, 10 Mb/s client access, a 1 Gb/s SAN.
        let trunk = LinkSpec::lan(2_000_000_000);
        let servers: Vec<NodeId> = (0..self.servers)
            .map(|i| b.add_server(ServerId::new(i as u64), trunk.clone(), cfg.clone()))
            .collect();
        let clients = (0..self.pool)
            .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
            .collect();
        let media: Vec<NodeId> = (0..self.media)
            .map(|_| b.add_media_node(LinkSpec::san(1_000_000_000)))
            .collect();
        b.media_config(self.tier.clone());
        let mut sim = b.build(seed);
        let app = sim.app_mut();
        app.standby_media
            .extend(&media[self.media - self.standby..]);
        if let Some(ms) = self.tight_ms_per_mib {
            for &m in &media {
                app.media_mut(m).configure(MediaNodeConfig {
                    queue_capacity: 24,
                    fixed_service: MediaDuration::from_millis(1),
                    per_mbyte: MediaDuration::from_millis(ms),
                });
            }
        }
        let mut rng = SimRng::seed_from_u64(seed ^ self.salt);
        let (tag, shape) = ([self.tag], clip_lesson(self.clip_secs));
        let n = self.lessons / self.titles.len(); // lessons per title
        let mut docs = Vec::new();
        let course = &servers[self.servers - self.titles.len()..];
        for (i, (&srv, title)) in course.iter().zip(self.titles).enumerate() {
            let first = 1 + 100 * i as u64;
            let lessons =
                install_course(app.server_mut(srv), title, &tag, first, n, shape, &mut rng);
            docs.extend(lessons.into_iter().map(|d| (srv, d)));
        }
        app.distribute_media();
        Crowd {
            sim,
            servers,
            clients,
            media,
            docs,
            clip_secs: self.clip_secs,
        }
    }
}

/// A built [`Scenario`], ready for the experiment's own set-up before
/// [`drive`](Self::drive).
pub struct Crowd {
    /// The simulation.
    pub sim: Sim<ServiceMsg, ServiceWorld>,
    /// Server nodes, in `ServerId` order.
    pub servers: Vec<NodeId>,
    /// The client pool.
    pub clients: Vec<NodeId>,
    /// Media nodes.
    pub media: Vec<NodeId>,
    /// Every lesson with its server, in install order; an arrival of rank
    /// `r` asks for `docs[r % docs.len()]`.
    pub docs: Vec<(NodeId, DocumentId)>,
    clip_secs: i64,
}

/// What one driven crowd delivered, read before the judge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Turned-away arrivals and peak concurrency.
    pub pool: PoolRun,
    /// Presentations completed across the pool.
    pub completed: usize,
    /// Errors received across the pool (rejections, failed documents).
    pub rejected: usize,
    /// Playout totals of every harvested session that presented, in
    /// harvest order.
    pub sessions: Vec<StreamPlayoutStats>,
    /// Delivered utility on every server: the closed-session ledger plus
    /// each live session's settled integral and unsettled progress.
    pub utility: f64,
}

impl Tally {
    /// Glitches per thousand frames played, over all sessions.
    pub fn gap_per_kframe(&self) -> f64 {
        let glitches: u64 = self.sessions.iter().map(|s| s.glitches).sum();
        let frames: u64 = self.sessions.iter().map(|s| s.frames_played).sum();
        if frames == 0 {
            return 0.0;
        }
        glitches as f64 * 1_000.0 / frames as f64
    }

    /// P99 over sessions that played a frame of their glitches per
    /// thousand frames.
    pub fn gap_p99(&self) -> f64 {
        let gaps: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| s.frames_played > 0)
            .map(|s| s.glitches as f64 * 1_000.0 / s.frames_played as f64)
            .collect();
        percentile(&gaps, 0.99)
    }
}

impl Crowd {
    /// Drive `arrivals` through the pool, run on to `horizon` plus one clip
    /// plus 15 s so every session plays out, and tally the run.
    pub fn drive(&mut self, arrivals: &[Arrival], horizon: MediaTime) -> Tally {
        let docs = &self.docs;
        let end = horizon + MediaDuration::from_secs(self.clip_secs) + DRAIN;
        let mut sessions = Vec::new();
        let pool = drive_pool(
            &mut self.sim,
            &self.clients,
            arrivals,
            end,
            |a| docs[a.rank % docs.len()],
            |c| sessions.extend(c.presentation.as_ref().map(|p| p.engine.total_stats())),
        );
        let mut t = Tally {
            pool,
            sessions,
            ..Tally::default()
        };
        let app = self.sim.app();
        for &n in &self.clients {
            t.completed += app.client(n).completed.len();
            t.rejected += app.client(n).errors.len();
        }
        for &n in &self.servers {
            let s = app.server(n);
            let live: f64 = s
                .sessions
                .values()
                .map(|s| s.util_acc + s.utility_pending())
                .sum();
            t.utility += s.util_closed + live;
        }
        t
    }

    /// End the run and judge it: [`judge_world`] over the pool.
    pub fn judge(mut self) {
        judge_world(&mut self.sim, &self.clients);
    }
}

/// End a run (of [`Crowd::judge`], exp_fig4, exp_migrate) and judge it:
/// disconnect `clients`, settle 5 s, audit media parts, publish metrics and
/// run the invariant catalog, bounded recovery off (a crowd's own gaps would
/// count). Panics with the first violations: a broken run exits nonzero.
pub fn judge_world(sim: &mut Sim<ServiceMsg, ServiceWorld>, clients: &[NodeId]) {
    sim.with_api(|w, api| {
        for &c in clients {
            w.client_mut(c).disconnect(api);
        }
    });
    sim.run_until(sim.now() + SETTLE);
    sim.app().audit_media_parts(&sim.stats());
    sim.publish_metrics();
    let mut obs = sim.take_obs();
    sim.app().publish_metrics(&mut obs);
    let v = check_run(obs.events(), &obs.registry, &InvariantConfig::default());
    let first: Vec<String> = v.iter().take(8).map(|v| v.render()).collect();
    assert!(
        v.is_empty(),
        "{} invariant violations:\n{}",
        v.len(),
        first.join("\n")
    );
}

/// What driving the pool saw besides what the harvest collected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolRun {
    /// Arrivals that found every pool client busy.
    pub unserved: usize,
    /// Most sessions in flight at any arrival instant.
    pub peak_concurrent: usize,
}

/// Open-loop driver over a fixed client pool. Each arrival claims the
/// lowest-indexed idle client — one never used, or whose `completed` /
/// `errors` count grew since it was claimed — detaches it and connects it
/// to the `(server, document)` that `target` names; an arrival that finds
/// the pool busy is counted and dropped. `harvest` sees each claimed client
/// exactly once: when its session is found resolved at a later arrival, or
/// after the run has drained to `drain_until`.
fn drive_pool(
    sim: &mut Sim<ServiceMsg, ServiceWorld>,
    nodes: &[NodeId],
    arrivals: &[Arrival],
    drain_until: MediaTime,
    target: impl Fn(&Arrival) -> (NodeId, DocumentId),
    mut harvest: impl FnMut(&ClientActor),
) -> PoolRun {
    // The (completed, errors) counts of each claimed client at claim time.
    let mut slots: Vec<Option<(usize, usize)>> = vec![None; nodes.len()];
    let mut run = PoolRun::default();
    for a in arrivals {
        sim.run_until(a.at);
        let mut active = 0;
        let mut free = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some((c0, e0)) = *slot {
                let c = sim.app().client(nodes[i]);
                if c.completed.len() > c0 || c.errors.len() > e0 {
                    harvest(c);
                    *slot = None;
                } else {
                    active += 1;
                    continue;
                }
            }
            free = free.or(Some(i));
        }
        let Some(i) = free else {
            run.unserved += 1;
            run.peak_concurrent = run.peak_concurrent.max(active);
            continue;
        };
        let node = nodes[i];
        let (server, doc) = target(a);
        let c = sim.app().client(node);
        slots[i] = Some((c.completed.len(), c.errors.len()));
        sim.with_api(|w, api| {
            let cl = w.client_mut(node);
            cl.disconnect(api);
            cl.connect(api, server, Some(doc));
        });
        run.peak_concurrent = run.peak_concurrent.max(active + 1);
    }
    sim.run_until(drain_until);
    for (slot, &node) in slots.iter().zip(nodes) {
        if slot.is_some() {
            harvest(sim.app().client(node));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: i64) -> MediaTime {
        MediaTime::from_secs(s)
    }

    fn crowd(spike_len: Option<MediaDuration>) -> FlashCrowd {
        FlashCrowd {
            base_rate: 2.0,
            spike_mult: 3.5,
            spike_at: secs(6),
            spike_len,
            horizon: secs(20),
            catalog: 6,
        }
    }

    /// The parent commit's `flash_crowd`, as it stood in exp_overload (the
    /// other three copies were its spike arm): the reference schedule.
    fn parent_flash_crowd(seed: u64, step: bool, c: &FlashCrowd) -> Vec<Arrival> {
        let spike_len = c.spike_len.unwrap_or(MediaDuration::ZERO);
        let mut rng = SimRng::seed_from_u64(seed);
        let catalog = ZipfCatalog::new(c.catalog, 1.1);
        let mut out = Vec::new();
        let mut t = MediaTime::ZERO;
        loop {
            let hot = t >= c.spike_at && (step || t < c.spike_at + spike_len);
            let rate = if hot {
                c.base_rate * c.spike_mult
            } else {
                c.base_rate
            };
            let gap_secs = rng.exponential(1.0 / rate);
            t += MediaDuration::from_micros((gap_secs * 1e6) as i64);
            if t >= c.horizon {
                return out;
            }
            out.push(Arrival {
                at: t,
                rank: catalog.sample(&mut rng),
            });
        }
    }

    #[test]
    fn schedule_matches_the_parent_copies() {
        for seed in [1, 2, 3, 7, 42, 1 << 40] {
            let spike = crowd(Some(MediaDuration::from_secs(8)));
            assert_eq!(
                spike.arrivals(seed),
                parent_flash_crowd(seed, false, &spike)
            );
            let step = crowd(None);
            assert_eq!(step.arrivals(seed), parent_flash_crowd(seed, true, &step));
            assert_ne!(spike.arrivals(seed), step.arrivals(seed));
        }
    }

    #[test]
    fn schedule_is_sorted_bounded_and_spikes_at_the_stated_rate() {
        let c = FlashCrowd {
            base_rate: 4.0,
            spike_mult: 3.0,
            spike_at: secs(100),
            spike_len: Some(MediaDuration::from_secs(200)),
            horizon: secs(400),
            catalog: 5,
        };
        let a = c.arrivals(9);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "unsorted");
        assert!(a.iter().all(|x| x.at < c.horizon && x.rank < c.catalog));
        let hot = a
            .iter()
            .filter(|x| x.at >= secs(100) && x.at < secs(300))
            .count() as f64;
        let want = 4.0 * 3.0 * 200.0;
        assert!((hot - want).abs() < 0.25 * want, "{hot} in-window arrivals");
        let cold = a.len() as f64 - hot;
        assert!((cold - 800.0).abs() < 0.25 * 800.0, "{cold} outside");
    }

    /// One server, a two-client pool, three 8 s clip lessons.
    fn small_world() -> (
        Sim<ServiceMsg, ServiceWorld>,
        NodeId,
        Vec<NodeId>,
        Vec<DocumentId>,
    ) {
        let mut b = WorldBuilder::new(5);
        let srv = b.add_server(
            ServerId::new(0),
            LinkSpec::lan(100_000_000),
            ServerConfig::default(),
        );
        let nodes: Vec<NodeId> = (0..2)
            .map(|_| b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default()))
            .collect();
        let mut sim: Sim<ServiceMsg, ServiceWorld> = b.build(5);
        let mut rng = SimRng::seed_from_u64(5);
        let lessons = install_course(
            sim.app_mut().server_mut(srv),
            "Pool",
            &["rig"],
            1,
            3,
            clip_lesson(8),
            &mut rng,
        );
        (sim, srv, nodes, lessons)
    }

    fn at_ms(ms: &[i64]) -> Vec<Arrival> {
        ms.iter()
            .enumerate()
            .map(|(i, &t)| Arrival {
                at: MediaTime::from_millis(t),
                rank: i % 3,
            })
            .collect()
    }

    #[test]
    fn a_full_pool_turns_arrivals_away() {
        let (mut sim, srv, nodes, lessons) = small_world();
        let arrivals = at_ms(&[200, 500, 800]);
        let mut harvested = 0;
        let run = drive_pool(
            &mut sim,
            &nodes,
            &arrivals,
            secs(30),
            |a| (srv, lessons[a.rank]),
            |_| harvested += 1,
        );
        assert_eq!(
            run,
            PoolRun {
                unserved: 1,
                peak_concurrent: 2
            }
        );
        assert_eq!(harvested, arrivals.len() - run.unserved);
        let done: usize = nodes
            .iter()
            .map(|&n| sim.app().client(n).completed.len())
            .sum();
        assert_eq!(done, 2, "both admitted sessions play out in the drain");
    }

    #[test]
    fn a_finished_client_is_reclaimed_and_harvested_once() {
        let (mut sim, srv, nodes, lessons) = small_world();
        // Two sessions fill the pool, finish (8 s clips), and two later
        // arrivals reuse the same clients — lowest index first.
        let arrivals = at_ms(&[200, 500, 15_000, 15_300]);
        let mut frames_seen = Vec::new();
        let run = drive_pool(
            &mut sim,
            &nodes,
            &arrivals,
            secs(40),
            |a| (srv, lessons[a.rank]),
            |c| {
                let pres = c.presentation.as_ref().expect("a claimed client presented");
                frames_seen.push(pres.engine.total_stats().frames_played);
            },
        );
        assert_eq!(
            run,
            PoolRun {
                unserved: 0,
                peak_concurrent: 2
            }
        );
        assert_eq!(frames_seen.len(), 4, "one harvest per claimed slot");
        assert!(frames_seen.iter().all(|&f| f > 0));
        for &n in &nodes {
            assert_eq!(sim.app().client(n).completed.len(), 2);
        }
    }

    #[test]
    fn an_empty_schedule_just_drains() {
        let (mut sim, srv, nodes, lessons) = small_world();
        let mut harvested = 0;
        let run = drive_pool(
            &mut sim,
            &nodes,
            &[],
            secs(3),
            |a| (srv, lessons[a.rank]),
            |_| harvested += 1,
        );
        assert_eq!(run, PoolRun::default());
        assert_eq!(harvested, 0);
        assert_eq!(sim.now(), secs(3));
    }

    /// The rig's smallest world: a two-client pool, two media nodes of
    /// which one is on standby, three 4 s clip lessons.
    fn tiny() -> Scenario {
        Scenario {
            pool: 2,
            standby: 1,
            tag: "rig",
            lessons: 3,
            clip_secs: 4,
            ..Scenario::default()
        }
    }

    #[test]
    fn a_scenario_builds_servers_then_clients_then_media() {
        let crowd = tiny().build(5);
        let ids = |v: &[NodeId]| v.iter().map(|n| n.raw()).collect::<Vec<_>>();
        assert_eq!(ids(&crowd.servers), [1]);
        assert_eq!(ids(&crowd.clients), [2, 3]);
        assert_eq!(ids(&crowd.media), [4, 5]);
        let app = crowd.sim.app();
        assert_eq!(
            app.standby_media.iter().copied().collect::<Vec<_>>(),
            [crowd.media[1]]
        );
        for &m in &crowd.media {
            let cfg = &app.media(m).cfg;
            assert_eq!(cfg.queue_capacity, 24);
            assert_eq!(cfg.fixed_service, MediaDuration::from_millis(1));
            assert_eq!(cfg.per_mbyte, MediaDuration::from_millis(300));
        }
        let docs: Vec<_> = crowd
            .docs
            .iter()
            .map(|&(s, d)| (s.raw(), d.raw()))
            .collect();
        assert_eq!(docs, [(1, 1), (1, 2), (1, 3)]);

        // Several servers: the course sits on the last ones, one title each,
        // and without a tight tier the media nodes keep their defaults.
        let crowd = Scenario {
            servers: 3,
            titles: &["A", "B"],
            lessons: 4,
            tight_ms_per_mib: None,
            ..tiny()
        }
        .build(5);
        let docs: Vec<_> = crowd
            .docs
            .iter()
            .map(|&(s, d)| (s.raw(), d.raw()))
            .collect();
        assert_eq!(docs, [(2, 1), (2, 2), (3, 101), (3, 102)]);
        let cfg = &crowd.sim.app().media(crowd.media[0]).cfg;
        assert_eq!(
            cfg.queue_capacity,
            MediaNodeConfig::default().queue_capacity
        );
    }

    #[test]
    fn the_tally_is_what_the_harvests_saw() {
        let arrivals = at_ms(&[200, 500, 800, 9_000]);
        let mut crowd = tiny().build(5);
        let tally = crowd.drive(&arrivals, secs(10));
        assert_eq!(
            crowd.sim.now(),
            secs(10 + 4 + 15),
            "drain: horizon + clip + 15 s"
        );

        // The same world driven by hand.
        let mut twin = tiny().build(5);
        let docs = twin.docs.clone();
        let mut seen = Vec::new();
        let run = drive_pool(
            &mut twin.sim,
            &twin.clients,
            &arrivals,
            secs(29),
            |a| docs[a.rank % docs.len()],
            |c| seen.extend(c.presentation.as_ref().map(|p| p.engine.total_stats())),
        );
        let app = twin.sim.app();
        let sum = |f: fn(&ClientActor) -> usize| -> usize {
            twin.clients.iter().map(|&n| f(app.client(n))).sum()
        };
        assert_eq!(tally.pool, run);
        assert_eq!(tally.pool.unserved, 1);
        assert_eq!(tally.sessions, seen);
        assert_eq!(tally.completed, sum(|c| c.completed.len()));
        assert_eq!(tally.rejected, sum(|c| c.errors.len()));
        assert_eq!(tally.completed, 3);
        assert!(tally.utility > 0.0);
        assert_eq!(
            tally.gap_per_kframe(),
            0.0,
            "a clean world plays without gaps"
        );
        crowd.judge();
    }

    #[test]
    fn an_empty_crowd_is_judged_clean() {
        let mut crowd = tiny().build(5);
        assert_eq!(crowd.drive(&[], secs(1)), Tally::default());
        crowd.judge();
    }

    #[test]
    #[should_panic(expected = "session_lifecycle")]
    fn the_judge_catches_a_session_left_open() {
        let mut crowd = tiny().build(5);
        // A client outside the pool: the judge never disconnects it.
        let stray = crowd.clients.pop().expect("a pool of two");
        let (srv, doc) = crowd.docs[0];
        crowd
            .sim
            .with_api(|w, api| w.client_mut(stray).connect(api, srv, Some(doc)));
        crowd.drive(&at_ms(&[300]), secs(1));
        crowd.judge();
    }
}
