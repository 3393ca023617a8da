//! The engine golden scenario, built to touch every engine path: a star
//! (server `1` — hub `0` — clients `10..=14`) joined to a three-hop line
//! (`0 — 20 — 21 — 22`), sparse ids added out of order, an unlinked island,
//! exponential jitter of three means on most links and none on the line's
//! first two, Gilbert–Elliott loss on three of them, one tiny queue;
//! datagram, reliable (with request/response echo) and multicast traffic
//! with membership churn; crash + restart of a receiver, a sender and a
//! forwarding node; a partition longer than the retry budget (abandons) and
//! a link flap; sends to unreachable and unknown nodes, a self-send and a
//! timer on a node the network never heard of.
//!
//! Shared by `tests/engine_golden.rs`, which pins its digest, and the
//! engine's differential tests (`src/sim/spec.rs`), which run it with the
//! first hop queued and taken at the send. The including module brings the
//! engine's names into scope.

use super::*;

#[derive(Clone)]
pub struct Msg {
    text: String,
    size: usize,
}
impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        self.size
    }
}

fn msg(text: impl Into<String>, size: usize) -> Msg {
    Msg {
        text: text.into(),
        size,
    }
}

pub fn n(id: u64) -> NodeId {
    NodeId::new(id)
}

const GROUP: u64 = 7;
const TICK: u64 = 1;
const CHURN: u64 = 2;

#[derive(Default)]
pub struct Driver {
    pub trace: Vec<(MediaTime, NodeId, NodeId, String)>,
    pub faults: Vec<FaultEvent>,
    pub refused: u64,
    /// Sends the engine accepted toward another node: each one took its
    /// first link as it was made, where a queued first hop cost an event.
    pub sends: u64,
}

impl App<Msg> for Driver {
    fn on_message(&mut self, api: &mut SimApi<'_, Msg>, node: NodeId, from: NodeId, m: Msg) {
        if m.text.starts_with("req") {
            let rsp = msg(format!("rsp{}", &m.text[3..]), m.size / 2);
            self.sends += api.send_reliable(node, from, rsp) as u64;
        }
        self.trace.push((api.now(), node, from, m.text));
    }

    fn on_timer(&mut self, api: &mut SimApi<'_, Msg>, node: NodeId, key: u64, i: u64) {
        match key {
            TICK if node == n(1) => {
                // The server's generator: a datagram per tick round-robin
                // over the clients, plus periodic reliable, multicast and
                // deliberately undeliverable traffic.
                let d = msg(format!("d{i}"), 700 + (i as usize % 7) * 90);
                self.sends += api.send(n(1), n(10 + i % 5), d) as u64;
                if i.is_multiple_of(3) {
                    let r = msg(format!("r{i}"), 400);
                    self.sends += api.send_reliable(n(1), n(22), r) as u64;
                }
                if i.is_multiple_of(4) {
                    let m = msg(format!("m{i}"), 900);
                    self.sends += (api.send_mcast(n(1), GROUP, m) > 0) as u64;
                }
                if i.is_multiple_of(50) {
                    self.refused += !api.send(n(1), n(30), msg("island", 10)) as u64;
                    self.refused += !api.send_reliable(n(1), n(99), msg("nobody", 10)) as u64;
                    api.send(n(1), n(1), msg(format!("self{i}"), 10));
                }
            }
            TICK => {
                // Edge generators: requests the server echoes, and a
                // multi-hop reliable stream that crosses the whole line.
                let req = msg(format!("req{}-{i}", node.raw()), 300);
                self.sends += api.send_reliable(node, n(1), req) as u64;
                if node == n(12) {
                    let x = msg(format!("x{i}"), 250);
                    self.sends += api.send_reliable(n(12), n(22), x) as u64;
                }
                if node == n(77) {
                    self.trace
                        .push((api.now(), node, node, format!("ghost-timer{i}")));
                }
            }
            CHURN => {
                if i == 0 {
                    api.mcast_leave(GROUP, node);
                } else {
                    api.mcast_join(GROUP, node);
                }
            }
            _ => unreachable!(),
        }
    }

    fn on_fault(&mut self, _: &mut SimApi<'_, Msg>, event: FaultEvent) {
        self.faults.push(event);
    }
}

fn topology(seed: u64) -> Network {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = Network::new();
    // Out of id order on purpose: nothing may depend on insertion order.
    for (id, name) in [
        (22, "line-end"),
        (0, "hub"),
        (30, "island"),
        (1, "server"),
        (21, "line-mid"),
        (20, "line-head"),
    ] {
        net.add_node(n(id), name);
    }
    let ge = LossModel::GilbertElliott {
        p_gb: 0.05,
        p_bg: 0.3,
        loss_good: 0.01,
        loss_bad: 0.5,
    };
    let mut trunk = LinkSpec::lan(8_000_000);
    trunk.jitter = JitterModel::Exponential {
        mean: MediaDuration::from_micros(300),
    };
    net.add_duplex(n(1), n(0), trunk, &mut rng);
    for i in (0..5u64).rev() {
        let c = n(10 + i);
        net.add_node(c, format!("client-{i}"));
        let mut spec = LinkSpec::lan(4_000_000);
        spec.jitter = JitterModel::Exponential {
            mean: MediaDuration::from_millis(1),
        };
        if i % 2 == 1 {
            spec.loss = ge.clone();
        }
        if i == 4 {
            spec.queue_capacity_bytes = 1_500;
        }
        net.add_duplex(n(0), c, spec, &mut rng);
    }
    let mut head = LinkSpec::wan(2_000_000, 3);
    head.jitter = JitterModel::None;
    net.add_duplex(n(0), n(20), head, &mut rng);
    let mut mid = LinkSpec::wan(2_000_000, 2);
    mid.loss = ge;
    net.add_duplex(n(20), n(21), mid, &mut rng);
    let mut tail = LinkSpec::lan(2_000_000);
    tail.jitter = JitterModel::Exponential {
        mean: MediaDuration::from_micros(200),
    };
    net.add_duplex(n(21), n(22), tail, &mut rng);
    net.compute_routes();
    net
}

pub fn fault_plan() -> FaultPlan {
    let ms = MediaTime::from_millis;
    let dur = MediaDuration::from_millis;
    FaultPlan::new()
        .crash_for(n(22), ms(300), dur(200))
        .crash_for(n(12), ms(420), dur(150))
        .crash_for(n(21), ms(1200), dur(100))
        // Longer than the whole retry window (0.2 + 0.4 + … + 12.8 s =
        // 25.4 s): the segments first sent from 0.7 s to 1.6 s abandon.
        .partition(n(0), n(20), ms(700), ms(27_000))
        .flap(n(0), n(11), ms(1300), dur(40), dur(15), 5)
        .slow(n(1), ms(100), 4)
        .at(ms(1500), FaultKind::NodeCrash { node: n(22) })
        .at(ms(1650), FaultKind::NodeRestart { node: n(22) })
}

/// The scenario at `seed`, every fault and timer installed, not yet run.
pub fn world(seed: u64) -> Sim<Msg, Driver> {
    let mut sim = Sim::new(topology(seed), Driver::default(), seed);
    sim.install_faults(&fault_plan());
    sim.with_api(|_, api| {
        for c in 0..5 {
            api.mcast_join(GROUP, n(10 + c));
        }
        api.mcast_join(GROUP, n(22));
        for i in 0..400u64 {
            let at = MediaDuration::from_millis(5 * i as i64);
            api.set_timer(n(1), at, TICK, i);
            if i.is_multiple_of(7) {
                api.set_timer(n(10 + i % 5), at, TICK, i);
                api.set_timer(n(22), at, TICK, i);
            }
            if i.is_multiple_of(90) {
                api.set_timer(n(77), at, TICK, i);
            }
        }
        api.set_timer(n(13), MediaDuration::from_millis(500), CHURN, 0);
        api.set_timer(n(13), MediaDuration::from_millis(1100), CHURN, 1);
    });
    sim
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every delivery, the engine counters and the network totals.
pub fn digest(sim: &Sim<Msg, Driver>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (at, node, from, text) in &sim.app().trace {
        let line = format!("{} {} {} {text}\n", at.as_micros(), node.raw(), from.raw());
        fnv1a(&mut h, line.as_bytes());
    }
    fnv1a(&mut h, format!("{:?}\n", sim.stats()).as_bytes());
    fnv1a(
        &mut h,
        format!("{:?}\n", sim.net().total_stats()).as_bytes(),
    );
    h
}
