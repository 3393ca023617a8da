//! The flash-crowd rig the load experiments share (EXP-SCALE, -OVERLOAD,
//! -CONTROL, -HA, -SLO): one arrival schedule, one open-loop driver over a
//! fixed client pool, one tight media tier. Each experiment keeps only its
//! world, its harvest and its claim check.
//!
//! Every pinned table of those experiments is a function of the RNG draw
//! order and the driver's slot order below; change either and
//! `BENCH_baseline.json` moves.

use crate::workload::{Arrival, ZipfCatalog};
use hermes_core::{DocumentId, MediaDuration, MediaTime, NodeId};
use hermes_service::{ClientActor, MediaNodeConfig, ServiceMsg, ServiceWorld};
use hermes_simnet::{Sim, SimRng};

/// Zipf skew of the flash-crowd catalog.
const CROWD_SKEW: f64 = 1.1;

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

/// What [`drive_pool`] saw besides what the harvest collected.
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
pub fn drive_pool(
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

/// Short queues and slow disks on every node of `media`, so a crowd
/// overloads serving capacity rather than the network.
pub fn tight_tier(sim: &mut Sim<ServiceMsg, ServiceWorld>, media: &[NodeId], per_mbyte_ms: i64) {
    for &m in media {
        sim.app_mut().media_mut(m).configure(MediaNodeConfig {
            queue_capacity: 24,
            fixed_service: MediaDuration::from_millis(1),
            per_mbyte: MediaDuration::from_millis(per_mbyte_ms),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::clip_lesson;
    use hermes_core::ServerId;
    use hermes_service::{install_course, ClientConfig, ServerConfig, WorldBuilder};
    use hermes_simnet::LinkSpec;

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
}
