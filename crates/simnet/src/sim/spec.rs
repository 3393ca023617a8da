//! Executable specs for the event loop, and the differential tests that hold
//! the engine to them:
//!
//! * the future-event list this crate shipped before it ordered keys — a
//!   `BinaryHeap<Reverse<Scheduled<M>>>` that sifts whole events, kept
//!   verbatim — against [`EventQueue`] under interleaved pushes and pops with
//!   many equal timestamps;
//! * the engine with every send's first hop queued at `now`
//!   (`Core::queued_first_hop`) against the engine that takes it at the
//!   send, on the engine golden scenario and on random lossless
//!   star-plus-line worlds whose senders are leaves. A leaf forwards
//!   nothing, a lossless link retransmits nothing and no member leaves a
//!   group, so of the tie rule of [`Core::start_send`] only a coincidence
//!   to the microsecond could show there, and none does: everything but the
//!   event count must agree, and the count must fall by one per accepted
//!   send;
//! * one world built to reach the tie rule, which pins the new order.

use super::*;
use crate::models::{JitterModel, LossModel};
use crate::topology::{LinkSpec, LinkStats};
use proptest::prelude::*;

#[path = "../../tests/golden_world/mod.rs"]
mod golden_world;

struct Scheduled<M> {
    at: MediaTime,
    seq: u64,
    pending: Pending<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct SpecQueue<M> {
    heap: BinaryHeap<Reverse<Scheduled<M>>>,
    seq: u64,
}

impl<M> SpecQueue<M> {
    fn push(&mut self, at: MediaTime, pending: Pending<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, pending }));
    }

    fn pop(&mut self) -> Option<(MediaTime, u64, Pending<M>)> {
        let Reverse(ev) = self.heap.pop()?;
        Some((ev.at, ev.seq, ev.pending))
    }
}

/// A queued event that carries `tag` and nothing else of interest.
fn tagged(tag: u64) -> Pending<()> {
    Pending::Timer {
        node: NodeId::new(0),
        ix: 0,
        key: tag,
        payload: 0,
        inc: 0,
        cause: CauseCtx::NONE,
    }
}

fn tag(pending: &Pending<()>) -> u64 {
    match pending {
        Pending::Timer { key, .. } => *key,
        _ => unreachable!("only tagged timers are queued"),
    }
}

/// Pop from both queues: the key queue must give the spec's `(at, seq,
/// payload)`.
fn pop_both(
    queue: &mut EventQueue<()>,
    spec: &mut SpecQueue<()>,
) -> Result<Option<u64>, TestCaseError> {
    let want = spec.pop().map(|(at, seq, p)| (at, seq, tag(&p)));
    let seq = queue.heap.peek().map(|Reverse((_, seq, _))| *seq);
    let got = queue
        .pop()
        .map(|(at, p)| (at, seq.unwrap_or(u64::MAX), tag(&p)));
    prop_assert_eq!(got, want);
    Ok(want.map(|(_, _, tag)| tag))
}

/// Every queued key names its own live slot, every other slot is free and
/// listed once: a slot handed out while live would leave two keys on it.
fn slots_are_sound(queue: &EventQueue<()>) -> Result<(), TestCaseError> {
    let mut seen = vec![false; queue.slots.len()];
    for Reverse((_, _, slot)) in queue.heap.iter() {
        let s = *slot as usize;
        prop_assert!(queue.slots[s].is_some(), "key on free slot {}", s);
        prop_assert!(!seen[s], "two keys on slot {}", s);
        seen[s] = true;
    }
    for &slot in &queue.free {
        let s = slot as usize;
        prop_assert!(queue.slots[s].is_none(), "live slot {} on the free list", s);
        prop_assert!(!seen[s], "slot {} both queued and free, or freed twice", s);
        seen[s] = true;
    }
    prop_assert!(seen.iter().all(|&s| s), "a slot is neither queued nor free");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Pushes and pops interleaved at random, two pushes to a pop so the
    /// queue grows and slots are freed and reused at every depth, over six
    /// distinct instants so most events tie on time: both queues pop the
    /// same events in the same order, and the slots stay sound throughout.
    #[test]
    fn key_heap_pops_what_the_event_heap_pops(
        ops in proptest::collection::vec((0u8..3, 0i64..6), 0..300),
    ) {
        let mut queue = EventQueue::new();
        let mut spec = SpecQueue { heap: BinaryHeap::new(), seq: 0 };
        let mut pushed = 0u64;
        let mut popped = Vec::new();
        for &(op, at) in &ops {
            if op < 2 {
                let at = MediaTime::from_micros(at);
                queue.push(at, tagged(pushed));
                spec.push(at, tagged(pushed));
                pushed += 1;
            } else {
                popped.extend(pop_both(&mut queue, &mut spec)?);
            }
            slots_are_sound(&queue)?;
            prop_assert_eq!(queue.peek_at(), spec.heap.peek().map(|Reverse(ev)| ev.at));
        }
        while let Some(tag) = pop_both(&mut queue, &mut spec)? {
            popped.push(tag);
            slots_are_sound(&queue)?;
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..pushed).collect::<Vec<_>>());
        prop_assert!(queue.slots.len() as u64 <= pushed);
    }
}

fn n(id: u64) -> NodeId {
    NodeId::new(id)
}

/// Every link's counters, by endpoints.
fn link_stats(net: &Network) -> Vec<(NodeId, NodeId, LinkStats)> {
    let nodes = net.nodes();
    let mut out = Vec::new();
    for &a in &nodes {
        for &b in &nodes {
            if let Some(link) = net.link(a, b) {
                out.push((a, b, link.stats));
            }
        }
    }
    out
}

#[test]
fn golden_world_is_the_same_with_the_first_hop_queued() {
    for seed in [20_260_930, 1, 2, 3] {
        let run = |queued| {
            let mut sim = golden_world::world(seed);
            sim.core.queued_first_hop = queued;
            let events = sim.run(10_000_000);
            (events, sim)
        };
        let (spec_events, spec) = run(true);
        let (events, sim) = run(false);
        let (got, want) = (sim.app(), spec.app());
        assert_eq!(got.trace, want.trace, "seed {seed}");
        assert_eq!(got.faults, want.faults, "seed {seed}");
        assert_eq!((got.refused, got.sends), (want.refused, want.sends));
        assert_eq!(sim.stats(), spec.stats(), "seed {seed}");
        assert_eq!(link_stats(sim.net()), link_stats(spec.net()));
        assert_eq!(golden_world::digest(&sim), golden_world::digest(&spec));
        assert_eq!(spec_events - events, got.sends, "seed {seed}");
    }
}

const GROUP: u64 = 7;

/// A message of a random world: its plan index (high bit set on a reply),
/// its size, and whether the receiver echoes it.
#[derive(Clone, Copy, Debug)]
struct Pkt {
    id: u64,
    size: usize,
    echo: bool,
}

impl WireSize for Pkt {
    fn wire_size(&self) -> usize {
        self.size
    }
}

/// One send per timer: the timer's payload indexes `plan`, which holds
/// (destination, kind, size); kind 0 is a datagram, 1 a reliable message,
/// 2 a reliable request the destination echoes, 3 a multicast.
#[derive(Default)]
struct Leaves {
    plan: Vec<(NodeId, u8, usize)>,
    trace: Vec<(MediaTime, NodeId, NodeId, u64)>,
    /// Sends the engine accepted (none is a self-send).
    sends: u64,
}

impl App<Pkt> for Leaves {
    fn on_message(&mut self, api: &mut SimApi<'_, Pkt>, node: NodeId, from: NodeId, p: Pkt) {
        self.trace.push((api.now(), node, from, p.id));
        if p.echo {
            let reply = Pkt {
                id: p.id | 1 << 63,
                size: p.size / 2 + 1,
                echo: false,
            };
            self.sends += api.send_reliable(node, from, reply) as u64;
        }
    }

    fn on_timer(&mut self, api: &mut SimApi<'_, Pkt>, node: NodeId, _key: u64, i: u64) {
        let (to, kind, size) = self.plan[i as usize];
        let p = Pkt {
            id: i,
            size,
            echo: kind == 2,
        };
        self.sends += match kind {
            0 => api.send(node, to, p) as u64,
            1 | 2 => api.send_reliable(node, to, p) as u64,
            _ => (api.send_mcast(node, GROUP, p) > 0) as u64,
        };
    }
}

/// A hub `0` with `star` leaves `10..` and a line `20..` of `line` nodes,
/// whose far end is a leaf too. `links` picks each duplex link's bandwidth,
/// propagation and jitter; a LAN link loses no packet, and its 1 MB queue
/// does not fill.
fn star_and_line(star: usize, line: usize, links: &[(usize, usize, usize)], seed: u64) -> Network {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.add_node(n(0), "hub");
    let mut ends = Vec::new();
    for i in 0..star as u64 {
        net.add_node(n(10 + i), format!("leaf-{i}"));
        ends.push((n(0), n(10 + i)));
    }
    let mut prev = n(0);
    for i in 0..line as u64 {
        net.add_node(n(20 + i), format!("line-{i}"));
        ends.push((prev, n(20 + i)));
        prev = n(20 + i);
    }
    for (&(a, b), &(bw, prop, jitter)) in ends.iter().zip(links.iter().cycle()) {
        let mut spec = LinkSpec::lan([1_000_000, 2_000_000, 4_000_000, 8_000_000][bw]);
        spec.propagation = MediaDuration::from_micros([50, 200, 1_000, 3_000][prop]);
        spec.jitter = match jitter {
            0 => JitterModel::None,
            j => JitterModel::Exponential {
                mean: MediaDuration::from_micros([100, 300, 1_000][(j - 1) % 3]),
            },
        };
        net.add_duplex(a, b, spec, &mut rng);
    }
    net.compute_routes();
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random lossless star-plus-line worlds, datagram, reliable (echoed or
    /// not) and multicast traffic between leaves on a half-millisecond grid
    /// (so sends tie on time), and crashes of any node: the traces, engine
    /// counters and link counters agree with the first hop queued, and the
    /// queued engine processed one more event per accepted send.
    #[test]
    fn leaf_worlds_are_the_same_with_the_first_hop_queued(
        shape in (2usize..6, 1usize..4, any::<u64>()),
        links in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 1..9),
        traffic in proptest::collection::vec(
            (0i64..80, 0usize..8, 0usize..8, 0u8..4, 40usize..1_500),
            1..48,
        ),
        members in any::<u16>(),
        crashes in proptest::collection::vec((0usize..12, 0i64..80, 1i64..40), 0..3),
    ) {
        let (star, line, seed) = shape;
        let nodes = star_and_line(star, line, &links, seed).nodes();
        let mut leaves: Vec<NodeId> = (0..star as u64).map(|i| n(10 + i)).collect();
        leaves.push(n(20 + line as u64 - 1));
        let tick = |k: i64| MediaDuration::from_micros(500 * k);
        let mut plan = Vec::new();
        let mut timers = Vec::new();
        for &(at, from, to, kind, size) in &traffic {
            let from = from % leaves.len();
            let to = (from + 1 + to % (leaves.len() - 1)) % leaves.len();
            timers.push((leaves[from], tick(at), plan.len() as u64));
            plan.push((leaves[to], kind, size));
        }
        let mut faults = FaultPlan::new();
        for &(node, at, down) in &crashes {
            faults = faults.crash_for(nodes[node % nodes.len()], MediaTime::ZERO + tick(at), tick(down));
        }
        let run = |queued| {
            let app = Leaves { plan: plan.clone(), ..Leaves::default() };
            let mut sim = Sim::new(star_and_line(star, line, &links, seed), app, seed);
            sim.core.queued_first_hop = queued;
            sim.install_faults(&faults);
            sim.with_api(|_, api| {
                for (i, &leaf) in leaves.iter().enumerate() {
                    if members >> i & 1 == 1 {
                        api.mcast_join(GROUP, leaf);
                    }
                }
                for &(node, at, i) in &timers {
                    api.set_timer(node, at, 0, i);
                }
            });
            let events = sim.run(1_000_000);
            (events, sim)
        };
        let (spec_events, spec) = run(true);
        let (events, sim) = run(false);
        prop_assert_eq!(spec.stats().retransmissions, 0);
        prop_assert_eq!(&sim.app().trace, &spec.app().trace);
        prop_assert_eq!(sim.stats(), spec.stats());
        prop_assert_eq!(link_stats(sim.net()), link_stats(spec.net()));
        prop_assert_eq!(sim.app().sends, spec.app().sends);
        prop_assert_eq!(spec_events - events, sim.app().sends);
    }
}

/// Node 0's timers send to node 1: key 0 a reliable message, key 1 a
/// datagram, 1000 bytes each.
#[derive(Default)]
struct TimedSender {
    got: Vec<(i64, u64)>,
}

impl App<Pkt> for TimedSender {
    fn on_message(&mut self, api: &mut SimApi<'_, Pkt>, _node: NodeId, _from: NodeId, p: Pkt) {
        self.got.push((api.now().as_micros(), p.id));
    }

    fn on_timer(&mut self, api: &mut SimApi<'_, Pkt>, _node: NodeId, key: u64, _payload: u64) {
        let p = Pkt {
            id: key,
            size: 1_000,
            echo: false,
        };
        if key == 0 {
            api.send_reliable(n(0), n(1), p);
        } else {
            api.send(n(0), n(1), p);
        }
    }
}

/// The tie rule. A timer set at t = 0 fires at T = 300 ms. A reliable send
/// made at T − rto = 100 ms is lost to a partition and retried at T from the
/// same node; its retry was queued after the timer. The timer's handler
/// sends at T: that send now takes the link first, where a queued first
/// hop went behind the retry.
#[test]
fn a_send_goes_ahead_of_a_retransmission_queued_for_its_instant() {
    let ms = MediaTime::from_millis;
    let run = |queued| {
        let mut rng = SimRng::seed_from_u64(1);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        net.add_duplex(n(0), n(1), LinkSpec::lan(8_000_000), &mut rng);
        net.compute_routes();
        let mut sim = Sim::new(net, TimedSender::default(), 1);
        sim.core.queued_first_hop = queued;
        sim.install_faults(&FaultPlan::new().partition(n(0), n(1), ms(50), ms(150)));
        sim.with_api(|_, api| {
            api.set_timer(n(0), MediaDuration::from_millis(100), 0, 0);
            api.set_timer(n(0), MediaDuration::from_millis(300), 1, 0);
        });
        sim.run(1_000);
        assert_eq!(sim.stats().retransmissions, 1);
        sim.app().got.clone()
    };
    // 1000 bytes at 8 Mbps hold the link 1 ms; propagation is 200 µs.
    assert_eq!(run(false), vec![(301_200, 1), (302_200, 0)]);
    assert_eq!(run(true), vec![(301_200, 0), (302_200, 1)]);
}
