//! Network topology: nodes, directed links and static shortest-path routing.
//!
//! Links carry the full transmission model: finite bandwidth with a FIFO
//! transmit queue, propagation delay, a jitter model, a loss model and a
//! congestion (background cross-traffic) profile. Bandwidth reservations
//! made by the admission controller are tracked per link.

use crate::models::{CongestionProfile, JitterModel, LossModel, LossState};
use crate::rng::SimRng;
use hermes_core::{ConnectionId, MediaDuration, MediaTime, NodeId};
use std::collections::{HashMap, VecDeque};

/// Static parameters of a directed link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub propagation: MediaDuration,
    /// Jitter model applied per packet.
    pub jitter: JitterModel,
    /// Loss model applied per packet.
    pub loss: LossModel,
    /// Transmit-queue capacity in bytes (drop-tail beyond this).
    pub queue_capacity_bytes: u64,
    /// Background cross-traffic profile.
    pub congestion: CongestionProfile,
}

impl LinkSpec {
    /// A clean, fast LAN-like link: useful default for tests.
    pub fn lan(bandwidth_bps: u64) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation: MediaDuration::from_micros(200),
            jitter: JitterModel::None,
            loss: LossModel::None,
            queue_capacity_bytes: 1 << 20,
            congestion: CongestionProfile::idle(),
        }
    }

    /// A storage-area link for the media tier: short, fat and clean —
    /// media nodes sit next to the multimedia servers, so propagation is
    /// minimal, bandwidth is high and queues are deep (bulk segment
    /// transfers, not interactive traffic).
    pub fn san(bandwidth_bps: u64) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation: MediaDuration::from_micros(50),
            jitter: JitterModel::None,
            loss: LossModel::None,
            queue_capacity_bytes: 4 << 20,
            congestion: CongestionProfile::idle(),
        }
    }

    /// A WAN-like link with mild jitter and loss.
    pub fn wan(bandwidth_bps: u64, propagation_ms: i64) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation: MediaDuration::from_millis(propagation_ms),
            jitter: JitterModel::Exponential {
                mean: MediaDuration::from_millis(2),
            },
            loss: LossModel::Bernoulli { p: 0.001 },
            queue_capacity_bytes: 256 << 10,
            congestion: CongestionProfile::idle(),
        }
    }
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted onto the link.
    pub packets_sent: u64,
    /// Bytes accepted onto the link.
    pub bytes_sent: u64,
    /// Packets dropped by the loss model.
    pub packets_lost: u64,
    /// Packets dropped because the queue overflowed.
    pub packets_dropped_queue: u64,
    /// Packets dropped because the link was administratively down
    /// (fault-injected partition).
    pub packets_dropped_down: u64,
}

/// Runtime state of a directed link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Static parameters.
    pub spec: LinkSpec,
    /// Time the transmitter becomes free.
    pub busy_until: MediaTime,
    /// Loss-model state (Gilbert–Elliott).
    pub loss_state: LossState,
    /// Per-link RNG stream (keeps cross-link determinism independent of
    /// event interleaving).
    pub rng: SimRng,
    /// Counters.
    pub stats: LinkStats,
    /// Bandwidth reserved by admitted connections, bits/second.
    pub reserved_bps: u64,
    /// False while a fault-injected partition holds the link down.
    pub up: bool,
}

/// What happened to one packet offered to a link at time `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The packet will arrive at the far end at the given time.
    Delivered {
        /// Arrival instant at the downstream node.
        arrival: MediaTime,
    },
    /// Dropped by the loss model while in flight; the instant is when the
    /// tail of the packet left the transmitter (used for loss accounting).
    Lost {
        /// When the sender finished transmitting the doomed packet.
        tx_end: MediaTime,
    },
    /// Dropped immediately: the transmit queue was full.
    QueueFull,
}

impl Link {
    /// Create a link from its spec with a dedicated RNG stream.
    pub fn new(spec: LinkSpec, rng: SimRng) -> Self {
        Link {
            spec,
            busy_until: MediaTime::ZERO,
            loss_state: LossState::default(),
            rng,
            stats: LinkStats::default(),
            reserved_bps: 0,
            up: true,
        }
    }

    /// Effective bandwidth at instant `t`, after background cross-traffic.
    pub fn effective_bandwidth(&self, t: MediaTime) -> u64 {
        let load = self.spec.congestion.load_at(t);
        let eff = (self.spec.bandwidth_bps as f64 * (1.0 - load)).max(1.0);
        eff as u64
    }

    /// Fraction of capacity currently reserved plus background load at `t`.
    pub fn utilization(&self, t: MediaTime) -> f64 {
        let reserved = self.reserved_bps as f64 / self.spec.bandwidth_bps as f64;
        (reserved + self.spec.congestion.load_at(t)).min(1.0)
    }

    /// Offer a packet of `size_bytes` to the link at time `now`; returns the
    /// outcome and updates queue/loss state and counters.
    pub fn transmit(&mut self, now: MediaTime, size_bytes: usize) -> LinkOutcome {
        if !self.up {
            // Partitioned: the packet vanishes at the cut. `Lost` (not
            // `QueueFull`) so the reliable transport keeps retrying and
            // heals transparently when the partition is lifted.
            self.stats.packets_dropped_down += 1;
            return LinkOutcome::Lost { tx_end: now };
        }
        // Queue check: bytes that would wait ahead of this packet.
        let wait = if self.busy_until > now {
            self.busy_until - now
        } else {
            MediaDuration::ZERO
        };
        let bw = self.effective_bandwidth(now);
        let queued_bytes = (wait.as_micros() as u128 * bw as u128 / 8_000_000) as u64;
        if queued_bytes + size_bytes as u64 > self.spec.queue_capacity_bytes {
            self.stats.packets_dropped_queue += 1;
            return LinkOutcome::QueueFull;
        }
        let start_tx = now.max(self.busy_until);
        let tx_time =
            MediaDuration::from_micros(((size_bytes as u128 * 8 * 1_000_000) / bw as u128) as i64);
        let tx_end = start_tx + tx_time;
        self.busy_until = tx_end;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += size_bytes as u64;

        // Loss: the base model plus congestion-epoch extra loss.
        let base_lost = self.spec.loss.sample(&mut self.loss_state, &mut self.rng);
        let extra = self.spec.congestion.extra_loss_at(now);
        let lost = base_lost || (extra > 0.0 && self.rng.chance(extra));
        if lost {
            self.stats.packets_lost += 1;
            return LinkOutcome::Lost { tx_end };
        }
        let jitter = self.spec.jitter.sample(&mut self.rng);
        LinkOutcome::Delivered {
            arrival: tx_end + self.spec.propagation + jitter,
        }
    }
}

/// "No link" in the routing table, "no such node" as a dense index.
pub(crate) const NONE: u32 = u32::MAX;

/// How one node finds its egress link (see [`Network::compute_routes`]).
#[derive(Debug, Clone, Copy)]
enum Routing {
    /// The node's own row of the routing table (its index among the rows).
    Row(u32),
    /// The node's only outgoing link: everything it reaches, it reaches
    /// through that link, and the far end's row says what that is.
    Via(u32),
}

/// The network: a set of nodes and directed links with static routing.
///
/// Nodes and links live in flat arrays. A node's *dense index* is its
/// position in `add_node` order and never changes, so engine events may
/// carry indices across any later topology change; a link's index is its
/// position in `add_link` order. Routing keeps an n-entry row of egress
/// link indices only for the nodes that have a choice; a node whose one
/// outgoing link leads to such a node reads that node's row. It costs 4·(kept rows)·n bytes
/// — one row on a star — and is rebuilt only by [`Network::compute_routes`].
#[derive(Debug)]
pub struct Network {
    /// Dense index → node id.
    ids: Vec<NodeId>,
    /// Dense index → display name.
    names: Vec<String>,
    /// Dense indices in ascending node-id order: the id → index lookup for
    /// ids that are not their own index, and the order `nodes()` reports.
    by_id: Vec<u32>,
    links: Vec<Link>,
    /// Dense (from, to) endpoints of each link, parallel to `links`.
    ends: Vec<(u32, u32)>,
    /// Pair-keyed link lookup for the cold public calls (`link`, `reserve*`,
    /// fault application); the engine's per-hop path goes through `routes`.
    link_ix: HashMap<(NodeId, NodeId), u32>,
    /// Dense index → how the node routes; one entry per node the table was
    /// built for, empty while routing is invalid.
    routing: Vec<Routing>,
    /// The kept rows, each `routing.len()` wide: `routes[row * n + dst]` =
    /// index of the link the row's node sends toward `dst` on, [`NONE`]
    /// when unreachable (or `dst` is the row's node).
    routes: Vec<u32>,
    /// Reservations: connection → (link indices charged, bps).
    reservations: HashMap<ConnectionId, (Vec<u32>, u64)>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network {
            ids: Vec::new(),
            names: Vec::new(),
            by_id: Vec::new(),
            links: Vec::new(),
            ends: Vec::new(),
            link_ix: HashMap::new(),
            routing: Vec::new(),
            routes: Vec::new(),
            reservations: HashMap::new(),
        }
    }

    /// Add a node with a display name (re-adding an id renames it).
    pub fn add_node(&mut self, id: NodeId, name: impl Into<String>) {
        if let Some(ix) = self.index_of(id) {
            self.names[ix as usize] = name.into();
            return;
        }
        assert!(self.ids.len() < NONE as usize, "too many nodes");
        let ix = self.ids.len() as u32;
        let pos = self.by_id.partition_point(|&i| self.ids[i as usize] < id);
        self.by_id.insert(pos, ix);
        self.ids.push(id);
        self.names.push(name.into());
    }

    /// All node ids, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.by_id.iter().map(|&i| self.ids[i as usize]).collect()
    }

    /// A node's display name.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.index_of(id).map(|ix| self.names[ix as usize].as_str())
    }

    /// The dense index of a node, if it was ever added. Node ids need not be
    /// dense or ordered; this is the one place they are translated, once per
    /// send or timer, never per hop.
    pub(crate) fn index_of(&self, id: NodeId) -> Option<u32> {
        // Builders hand out ids 0, 1, 2, …, so an id is usually its own index.
        let raw = id.raw();
        if raw < self.ids.len() as u64 && self.ids[raw as usize] == id {
            return Some(raw as u32);
        }
        self.by_id
            .binary_search_by_key(&id, |&i| self.ids[i as usize])
            .ok()
            .map(|pos| self.by_id[pos])
    }

    /// The node id behind a dense index.
    #[inline]
    pub(crate) fn id_at(&self, ix: u32) -> NodeId {
        self.ids[ix as usize]
    }

    /// Add a directed link (re-adding a pair replaces the link).
    ///
    /// Adding a link **invalidates routing**: until the next
    /// [`Network::compute_routes`] every route reads as absent — `next_hop`
    /// and `path` return `None`, sends return `false`, and a packet already
    /// in flight finds no egress link at its next hop and is dropped there
    /// as [`LinkOutcome::QueueFull`]. (`add_node` alone invalidates nothing:
    /// the new node is simply unreachable until routes are recomputed.)
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec, rng: SimRng) {
        let f = self
            .index_of(from)
            .unwrap_or_else(|| panic!("unknown node {from}"));
        let t = self
            .index_of(to)
            .unwrap_or_else(|| panic!("unknown node {to}"));
        let link = Link::new(spec, rng);
        match self.link_ix.get(&(from, to)) {
            Some(&l) => self.links[l as usize] = link,
            None => {
                assert!(self.links.len() < NONE as usize, "too many links");
                self.link_ix.insert((from, to), self.links.len() as u32);
                self.links.push(link);
                self.ends.push((f, t));
            }
        }
        self.routing.clear();
        self.routes.clear();
    }

    /// Add a symmetric pair of links with the same spec.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec, rng: &mut SimRng) {
        self.add_link(a, b, spec.clone(), rng.split());
        self.add_link(b, a, spec, rng.split());
    }

    /// Direct link between two nodes, if present.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        let l = *self.link_ix.get(&(from, to))?;
        Some(&self.links[l as usize])
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut Link> {
        let l = *self.link_ix.get(&(from, to))?;
        Some(&mut self.links[l as usize])
    }

    /// Bring both directions of the `a`–`b` link up or down. Returns true if
    /// at least one direction exists. Routing is untouched: packets offered
    /// to a down link are dropped in flight, modelling a partition rather
    /// than a topology change.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let mut found = false;
        for (from, to) in [(a, b), (b, a)] {
            if let Some(l) = self.link_mut(from, to) {
                l.up = up;
                found = true;
            }
        }
        found
    }

    /// True when both existing directions of the `a`–`b` link are up.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        [(a, b), (b, a)]
            .iter()
            .filter_map(|&(from, to)| self.link(from, to))
            .all(|l| l.up)
    }

    /// (Re)compute all-pairs routes by BFS (hop count metric): neighbours
    /// are explored in ascending node-id order and the first-discovered
    /// parent wins, so equal-cost ties break the same way on every run.
    /// Rebuilds the whole table; nothing else ever writes it.
    ///
    /// Only a node with a choice keeps a row. A node with exactly one
    /// outgoing link whose far end has more than one keeps just that link:
    /// a shortest path out of it never comes back through it, so it reaches
    /// the far end plus what the far end's row reaches, always over that
    /// link. The far end keeps a row by the same rule, so delegation is one
    /// level deep; a chain of single-link nodes, or two that point at each
    /// other, keep rows of their own. A builder's world — every node one
    /// duplex link from the backbone — runs one BFS and keeps one row.
    pub fn compute_routes(&mut self) {
        let n = self.ids.len();
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (l, &(from, to)) in self.ends.iter().enumerate() {
            adj[from as usize].push((to, l as u32));
        }
        for nbrs in &mut adj {
            nbrs.sort_by_key(|&(to, _)| self.ids[to as usize]);
        }
        let mut rows = 0;
        self.routing.clear();
        self.routing.extend(adj.iter().map(|nbrs| match nbrs[..] {
            [(far, l)] if adj[far as usize].len() > 1 => Routing::Via(l),
            _ => {
                rows += 1;
                Routing::Row(rows - 1)
            }
        }));
        self.routes.clear();
        self.routes.resize(rows as usize * n, NONE);
        let mut queue = VecDeque::with_capacity(n);
        for (src, &routing) in self.routing.iter().enumerate() {
            let Routing::Row(r) = routing else {
                continue;
            };
            // The row doubles as the BFS visited set: a node is discovered
            // exactly when its egress link out of `src` becomes known, and
            // it inherits that link from its parent — the first hop a walk
            // back from it along the parents would reach.
            let r = r as usize;
            let row = &mut self.routes[r * n..(r + 1) * n];
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &(w, l) in &adj[u] {
                    let w = w as usize;
                    if w != src && row[w] == NONE {
                        row[w] = if u == src { l } else { row[u] };
                        queue.push_back(w);
                    }
                }
            }
        }
    }

    /// The link a packet at `here` bound for `dst` leaves on (dense indices),
    /// or `None` when `dst` is `here` or unreachable, routing is invalid, or
    /// either index is [`NONE`] or newer than the table. A node without a
    /// row leaves on its one link when `dst` is that link's far end or the
    /// far end's row reaches `dst`.
    #[inline]
    pub(crate) fn egress(&self, here: u32, dst: u32) -> Option<u32> {
        let (here, dst, n) = (here as usize, dst as usize, self.routing.len());
        if here >= n || dst >= n {
            return None;
        }
        let hop = |row: u32| {
            let l = self.routes[row as usize * n + dst];
            (l != NONE).then_some(l)
        };
        match self.routing[here] {
            Routing::Row(row) => hop(row),
            Routing::Via(link) => {
                // `compute_routes` delegates only to a node that keeps a row.
                let far = self.link_to(link) as usize;
                let reaches = dst == far
                    || matches!(self.routing[far], Routing::Row(row) if hop(row).is_some());
                (dst != here && reaches).then_some(link)
            }
        }
    }

    /// Mutable link by index, with the dense index of its far end.
    #[inline]
    pub(crate) fn hop_mut(&mut self, link: u32) -> (&mut Link, u32) {
        (&mut self.links[link as usize], self.ends[link as usize].1)
    }

    /// The far end of a link (dense index).
    #[inline]
    pub(crate) fn link_to(&self, link: u32) -> u32 {
        self.ends[link as usize].1
    }

    /// The routing next hop from `src` toward `dst`, if reachable.
    /// `compute_routes` must have been called after the last topology change.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let l = self.egress(self.index_of(src)?, self.index_of(dst)?)?;
        Some(self.id_at(self.link_to(l)))
    }

    /// The links along the route from `src` to `dst`, walked off the routing
    /// table without building anything (empty when equal); `None` when
    /// `dst` is unreachable.
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Route<'_>> {
        let (cur, dst) = if src == dst {
            (NONE, NONE)
        } else {
            (self.index_of(src)?, self.index_of(dst)?)
        };
        let route = Route {
            net: self,
            cur,
            dst,
        };
        // Walk it once here so the caller's walk cannot stop short. The
        // bound should never bind; it guards a routing bug.
        let mut probe = route.clone();
        let mut hops = 0;
        while probe.cur != probe.dst {
            probe.next()?;
            hops += 1;
            if hops >= self.ids.len() {
                return None;
            }
        }
        Some(route)
    }

    /// The node-path from `src` to `dst` (inclusive of both), if reachable.
    /// `compute_routes` must have been called after the last topology change.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let route = self.route(src, dst)?;
        let mut path = vec![src];
        path.extend(route.map(|l| self.id_at(self.link_to(l))));
        Some(path)
    }

    /// The links along the path from `src` to `dst`.
    pub fn path_links(&self, src: NodeId, dst: NodeId) -> Option<Vec<(NodeId, NodeId)>> {
        let ends = self.route(src, dst)?.map(|l| self.ends[l as usize]);
        Some(
            ends.map(|(from, to)| (self.id_at(from), self.id_at(to)))
                .collect(),
        )
    }

    /// One-way propagation delay summed along the path from `src` to `dst`.
    pub fn path_propagation(&self, src: NodeId, dst: NodeId) -> Option<MediaDuration> {
        let micros = self
            .route(src, dst)?
            .map(|l| self.links[l as usize].spec.propagation.as_micros())
            .sum();
        Some(MediaDuration::from_micros(micros))
    }

    /// Bottleneck free bandwidth along a path at instant `t`:
    /// min over links of capacity − reserved − background.
    pub fn path_free_bandwidth(&self, src: NodeId, dst: NodeId, t: MediaTime) -> Option<u64> {
        self.route(src, dst)?
            .map(|l| {
                let l = &self.links[l as usize];
                let bg = (l.spec.bandwidth_bps as f64 * l.spec.congestion.load_at(t)) as u64;
                l.spec
                    .bandwidth_bps
                    .saturating_sub(l.reserved_bps)
                    .saturating_sub(bg)
            })
            .min()
    }

    /// Reserve `bps` along the path for a connection. Returns false (and
    /// reserves nothing) if any link lacks headroom.
    pub fn reserve(&mut self, conn: ConnectionId, src: NodeId, dst: NodeId, bps: u64) -> bool {
        match self.route(src, dst) {
            Some(route) => self.reserve_route(conn, route.collect(), bps),
            None => false,
        }
    }

    /// Reserve `bps` on an explicit set of links (a partial path). Used when
    /// a flow shares its upstream with an existing reservation — e.g. a
    /// receiver joining a shared multicast flow only needs headroom on the
    /// links not already carrying the group — so only the private tail is
    /// checked and charged. Returns false (and reserves nothing) if any
    /// named link is missing or lacks headroom.
    pub fn reserve_links(
        &mut self,
        conn: ConnectionId,
        links: Vec<(NodeId, NodeId)>,
        bps: u64,
    ) -> bool {
        let route: Option<Vec<u32>> = links.iter().map(|k| self.link_ix.get(k).copied()).collect();
        match route {
            Some(route) => self.reserve_route(conn, route, bps),
            None => false,
        }
    }

    fn reserve_route(&mut self, conn: ConnectionId, route: Vec<u32>, bps: u64) -> bool {
        let fits = |l: &Link| l.reserved_bps + bps <= l.spec.bandwidth_bps;
        if !route.iter().all(|&l| fits(&self.links[l as usize])) {
            return false;
        }
        for &l in &route {
            self.links[l as usize].reserved_bps += bps;
        }
        self.reservations.insert(conn, (route, bps));
        true
    }

    /// Release a connection's reservation (idempotent).
    pub fn release(&mut self, conn: ConnectionId) {
        if let Some((route, bps)) = self.reservations.remove(&conn) {
            for l in route {
                let l = &mut self.links[l as usize];
                l.reserved_bps = l.reserved_bps.saturating_sub(bps);
            }
        }
    }

    /// Total reserved bandwidth for a connection, if registered.
    pub fn reservation(&self, conn: ConnectionId) -> Option<u64> {
        self.reservations.get(&conn).map(|(_, bps)| *bps)
    }

    /// Aggregate stats over all links.
    pub fn total_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for l in &self.links {
            s.packets_sent += l.stats.packets_sent;
            s.bytes_sent += l.stats.bytes_sent;
            s.packets_lost += l.stats.packets_lost;
            s.packets_dropped_queue += l.stats.packets_dropped_queue;
            s.packets_dropped_down += l.stats.packets_dropped_down;
        }
        s
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

/// A walk over the link indices of one route (see [`Network::route`]).
#[derive(Clone)]
struct Route<'a> {
    net: &'a Network,
    cur: u32,
    dst: u32,
}

impl Iterator for Route<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == self.dst {
            return None;
        }
        let l = self.net.egress(self.cur, self.dst)?;
        self.cur = self.net.link_to(l);
        Some(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(id: u64) -> NodeId {
        NodeId::new(id)
    }

    /// The routing this crate used before the tables went dense, kept as the
    /// reference the dense BFS is compared against: an all-pairs
    /// `HashMap<(src, dst), next hop>` filled by a `HashMap`-parent BFS over
    /// id-sorted adjacency, first hop found by walking back from `dst`.
    fn reference_routes(
        nodes: &[NodeId],
        links: &[(NodeId, NodeId)],
    ) -> HashMap<(NodeId, NodeId), NodeId> {
        let mut routes = HashMap::new();
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (from, to) in links {
            adj.entry(*from).or_default().push(*to);
        }
        for v in adj.values_mut() {
            v.sort();
        }
        for &src in nodes {
            let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
            let mut q = VecDeque::new();
            q.push_back(src);
            parent.insert(src, src);
            while let Some(u) = q.pop_front() {
                for &w in adj.get(&u).map_or(&[][..], |v| v) {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(w) {
                        e.insert(u);
                        q.push_back(w);
                    }
                }
            }
            for &dst in nodes {
                if dst == src || !parent.contains_key(&dst) {
                    continue;
                }
                let mut cur = dst;
                while parent[&cur] != src {
                    cur = parent[&cur];
                }
                routes.insert((src, dst), cur);
            }
        }
        routes
    }

    /// The reference `path`: iterate the reference next hops.
    fn reference_path(
        routes: &HashMap<(NodeId, NodeId), NodeId>,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = *routes.get(&(cur, dst))?;
            path.push(cur);
        }
        Some(path)
    }

    fn assert_routes_match(
        net: &Network,
        nodes: &[NodeId],
        links: &[(NodeId, NodeId)],
    ) -> Result<(), TestCaseError> {
        let reference = reference_routes(nodes, links);
        for &src in nodes {
            for &dst in nodes {
                prop_assert_eq!(
                    net.next_hop(src, dst),
                    reference.get(&(src, dst)).copied(),
                    "next_hop {} -> {}",
                    src,
                    dst
                );
                prop_assert_eq!(
                    net.path(src, dst),
                    reference_path(&reference, src, dst),
                    "path {} -> {}",
                    src,
                    dst
                );
            }
        }
        Ok(())
    }

    /// Node ids in `add_node` order, and links as pairs of positions in it.
    type Graph = (Vec<NodeId>, Vec<(usize, usize)>);

    /// Sparse ids in arbitrary order: a few dense low ids among widely
    /// spaced ones, at least two.
    fn sparse_ids(raw_ids: Vec<u64>) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::new();
        for raw in raw_ids {
            let id = n(if raw % 3 == 0 {
                raw / 3
            } else {
                raw * 1_000_003
            });
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        if ids.len() < 2 {
            ids.push(n(u64::MAX));
        }
        ids
    }

    /// Random directed graphs: asymmetric links, unreachable nodes and
    /// equal-cost ties.
    fn random_graph() -> impl Strategy<Value = Graph> {
        (
            proptest::collection::vec(0u64..400, 2..61),
            proptest::collection::vec((0usize..60, 0usize..60), 0..200),
        )
            .prop_map(|(raw_ids, links)| (sparse_ids(raw_ids), links))
    }

    /// Graphs where most nodes have one outgoing link, which random graphs
    /// rarely give. Up to three hubs with directed trunks between them (a
    /// hub may reach only part of the graph); every other node belongs to
    /// one piece hung off a hub: a duplex leaf, a leaf with only a link out,
    /// a sink with only a link in, a chain of single-link nodes the hub
    /// feeds and the chain's end links back to, or two single-link nodes
    /// pointing at each other (fed by the hub, or an island).
    fn leafy_graph() -> impl Strategy<Value = Graph> {
        (
            proptest::collection::vec(0u64..400, 2..61),
            proptest::collection::vec((0usize..7, 0usize..3, 1usize..5), 0..40),
            proptest::collection::vec((0usize..3, 0usize..3), 0..5),
        )
            .prop_map(|(raw_ids, pieces, trunks)| {
                let ids = sparse_ids(raw_ids);
                let hubs = 1 + ids.len() / 21;
                let mut links: Vec<(usize, usize)> =
                    trunks.iter().map(|&(a, b)| (a % hubs, b % hubs)).collect();
                let mut next = hubs;
                for (kind, hub, len) in pieces {
                    let (x, hub) = (next, hub % hubs);
                    next += match kind {
                        4 => len,
                        5 => 2,
                        _ => 1,
                    };
                    if next > ids.len() {
                        break;
                    }
                    match kind {
                        0..=2 => links.extend([(x, hub), (hub, x)]),
                        3 => links.push((x, hub)),
                        4 => {
                            links.push((hub, x));
                            links.extend((x..next - 1).map(|c| (c, c + 1)));
                            links.push((next - 1, hub));
                        }
                        5 => {
                            links.extend([(x, x + 1), (x + 1, x)]);
                            if len > 2 {
                                links.push((hub, x));
                            }
                        }
                        _ => links.push((hub, x)),
                    }
                }
                (ids, links)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random and leaf-heavy directed graphs, with sparse ids added in
        /// arbitrary order, route exactly as the reference does for every
        /// ordered pair, and read as unrouted between an `add_link` and the
        /// next `compute_routes`.
        #[test]
        fn dense_routing_equals_reference_bfs(
            graph in prop_oneof![random_graph(), leafy_graph()],
            late in (0usize..60, 0usize..60),
        ) {
            let (ids, raw_links) = graph;
            let pick = |(a, b): (usize, usize)| (ids[a % ids.len()], ids[b % ids.len()]);
            let mut net = Network::new();
            for &id in &ids {
                net.add_node(id, "");
            }
            let mut rng = SimRng::seed_from_u64(1);
            let mut links: Vec<(NodeId, NodeId)> = Vec::new();
            for (from, to) in raw_links.into_iter().map(pick) {
                if from != to && !links.contains(&(from, to)) {
                    links.push((from, to));
                    net.add_link(from, to, LinkSpec::lan(1_000_000), rng.split());
                }
            }
            let mut sorted = ids.clone();
            sorted.sort();
            prop_assert_eq!(net.nodes(), sorted.clone());
            net.compute_routes();
            assert_routes_match(&net, &sorted, &links)?;

            // One more link: routing is invalid until recomputed...
            let (from, to) = pick(late);
            if from != to {
                net.add_link(from, to, LinkSpec::lan(1_000_000), rng.split());
                if !links.contains(&(from, to)) {
                    links.push((from, to));
                }
                for &src in &sorted {
                    for &dst in &sorted {
                        prop_assert_eq!(net.next_hop(src, dst), None);
                        prop_assert_eq!(net.path(src, dst).is_some(), src == dst);
                    }
                }
                // ...and matches the reference again afterwards.
                net.compute_routes();
                assert_routes_match(&net, &sorted, &links)?;
            }
        }
    }

    /// A star keeps one routing row, the hub's: 4·n bytes where an n × n
    /// table would take 1.6 GB at this size.
    #[test]
    fn a_star_keeps_one_row() {
        let leaves = 20_000;
        let mut rng = SimRng::seed_from_u64(6);
        let mut net = Network::new();
        net.add_node(n(0), "hub");
        for leaf in 1..=leaves {
            net.add_node(n(leaf), "");
            net.add_duplex(n(0), n(leaf), LinkSpec::lan(1_000_000), &mut rng);
        }
        net.compute_routes();
        assert_eq!(net.routes.len(), leaves as usize + 1, "one n-entry row");
        for (src, dst, hops) in [
            (1, leaves, 2),
            (leaves, 7_919, 2),
            (12_345, 0, 1),
            (0, 4_242, 1),
        ] {
            let path = net.path(n(src), n(dst)).unwrap();
            assert_eq!(path.len() - 1, hops, "{src}→{dst}");
        }
    }

    #[test]
    fn nodes_added_after_routing_are_unrouted_until_recompute() {
        let mut net = line_network();
        net.add_node(n(3), "late");
        // Old routes stand; the new node is simply unreachable.
        assert_eq!(net.next_hop(n(0), n(2)), Some(n(1)));
        assert_eq!(net.next_hop(n(0), n(3)), None);
        assert_eq!(net.next_hop(n(3), n(0)), None);
        let mut rng = SimRng::seed_from_u64(2);
        net.add_duplex(n(2), n(3), LinkSpec::lan(10_000_000), &mut rng);
        assert_eq!(net.next_hop(n(0), n(2)), None, "add_link invalidates");
        net.compute_routes();
        assert_eq!(net.path(n(0), n(3)).unwrap(), vec![n(0), n(1), n(2), n(3)]);
    }

    #[test]
    fn readding_a_node_or_link_replaces_in_place() {
        let mut net = line_network();
        net.link_mut(n(0), n(1)).unwrap().reserved_bps = 5;
        net.add_node(n(1), "renamed");
        assert_eq!(net.node_name(n(1)), Some("renamed"));
        assert_eq!(net.nodes(), vec![n(0), n(1), n(2)]);
        let mut rng = SimRng::seed_from_u64(3);
        net.add_link(n(0), n(1), LinkSpec::lan(1_000_000), rng.split());
        net.compute_routes();
        let l = net.link(n(0), n(1)).unwrap();
        assert_eq!((l.spec.bandwidth_bps, l.reserved_bps), (1_000_000, 0));
        assert_eq!(net.path_links(n(0), n(2)).unwrap().len(), 2);
    }

    fn line_network() -> Network {
        // 0 — 1 — 2, duplex 10 Mbps
        let mut rng = SimRng::seed_from_u64(1);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        net.add_node(n(2), "c");
        net.add_duplex(n(0), n(1), LinkSpec::lan(10_000_000), &mut rng);
        net.add_duplex(n(1), n(2), LinkSpec::lan(10_000_000), &mut rng);
        net.compute_routes();
        net
    }

    #[test]
    fn routing_finds_multi_hop_paths() {
        let net = line_network();
        assert_eq!(net.path(n(0), n(2)).unwrap(), vec![n(0), n(1), n(2)]);
        assert_eq!(net.path(n(2), n(0)).unwrap(), vec![n(2), n(1), n(0)]);
        assert_eq!(net.path(n(1), n(1)).unwrap(), vec![n(1)]);
        assert_eq!(
            net.path_links(n(0), n(2)).unwrap(),
            vec![(n(0), n(1)), (n(1), n(2))]
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut net = Network::new();
        net.add_node(n(0), "a");
        net.add_node(n(1), "b");
        net.add_node(n(9), "island");
        net.add_duplex(n(0), n(1), LinkSpec::lan(1_000_000), &mut rng);
        net.compute_routes();
        assert!(net.path(n(0), n(9)).is_none());
    }

    #[test]
    fn transmit_serializes_packets() {
        let mut net = line_network();
        let l = net.link_mut(n(0), n(1)).unwrap();
        // 10 Mbps → 1250 bytes take 1 ms.
        let t0 = MediaTime::ZERO;
        let o1 = l.transmit(t0, 1250);
        let o2 = l.transmit(t0, 1250);
        let (a1, a2) = match (o1, o2) {
            (LinkOutcome::Delivered { arrival: a1 }, LinkOutcome::Delivered { arrival: a2 }) => {
                (a1, a2)
            }
            other => panic!("{other:?}"),
        };
        // Second packet queues behind the first: arrivals 1 tx-time apart.
        assert_eq!(a2 - a1, MediaDuration::from_millis(1));
        assert_eq!(a1, MediaTime::from_micros(1000 + 200)); // tx + propagation
    }

    #[test]
    fn queue_overflow_drops() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut spec = LinkSpec::lan(8_000_000); // 1 byte/µs
        spec.queue_capacity_bytes = 3000;
        let mut l = Link::new(spec, rng.split());
        // Fill the queue.
        assert!(matches!(
            l.transmit(MediaTime::ZERO, 1500),
            LinkOutcome::Delivered { .. }
        ));
        assert!(matches!(
            l.transmit(MediaTime::ZERO, 1500),
            LinkOutcome::Delivered { .. }
        ));
        // busy_until is now 3000 µs ⇒ 3000 bytes queued ahead > capacity.
        assert_eq!(l.transmit(MediaTime::ZERO, 1500), LinkOutcome::QueueFull);
        assert_eq!(l.stats.packets_dropped_queue, 1);
        // After the queue drains, transmission succeeds again.
        assert!(matches!(
            l.transmit(MediaTime::from_millis(5), 1500),
            LinkOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn congestion_shrinks_effective_bandwidth() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut spec = LinkSpec::lan(10_000_000);
        spec.congestion = CongestionProfile::constant(0.5);
        let l = Link::new(spec, rng.split());
        assert_eq!(l.effective_bandwidth(MediaTime::ZERO), 5_000_000);
        assert!((l.utilization(MediaTime::ZERO) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reservations_respect_capacity() {
        let mut net = line_network();
        let c1 = ConnectionId::new(1);
        let c2 = ConnectionId::new(2);
        assert!(net.reserve(c1, n(0), n(2), 6_000_000));
        // Second reservation exceeds the 10 Mbps bottleneck.
        assert!(!net.reserve(c2, n(0), n(2), 6_000_000));
        assert_eq!(
            net.path_free_bandwidth(n(0), n(2), MediaTime::ZERO),
            Some(4_000_000)
        );
        net.release(c1);
        assert!(net.reserve(c2, n(0), n(2), 6_000_000));
        net.release(c2);
        net.release(c2); // idempotent
        assert_eq!(
            net.path_free_bandwidth(n(0), n(2), MediaTime::ZERO),
            Some(10_000_000)
        );
    }

    #[test]
    fn failed_reservation_reserves_nothing() {
        let mut net = line_network();
        // Pre-load one link asymmetrically.
        net.link_mut(n(1), n(2)).unwrap().reserved_bps = 9_000_000;
        let c = ConnectionId::new(7);
        assert!(!net.reserve(c, n(0), n(2), 2_000_000));
        // First link must not have been charged.
        assert_eq!(net.link(n(0), n(1)).unwrap().reserved_bps, 0);
    }

    #[test]
    fn loss_counted_in_stats() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut spec = LinkSpec::lan(10_000_000);
        spec.loss = LossModel::Bernoulli { p: 0.5 };
        let mut l = Link::new(spec, rng.split());
        let mut lost = 0;
        for i in 0..200 {
            match l.transmit(MediaTime::from_millis(i * 10), 100) {
                LinkOutcome::Lost { .. } => lost += 1,
                LinkOutcome::Delivered { .. } => {}
                LinkOutcome::QueueFull => panic!("queue should not fill"),
            }
        }
        assert_eq!(l.stats.packets_lost, lost);
        assert!(lost > 60 && lost < 140, "lost {lost}");
    }

    #[test]
    fn next_hop_matches_path() {
        let net = line_network();
        assert_eq!(net.next_hop(n(0), n(2)), Some(n(1)));
        assert_eq!(net.next_hop(n(1), n(2)), Some(n(2)));
        assert_eq!(net.next_hop(n(0), n(7)), None);
    }

    #[test]
    fn reserve_links_charges_only_the_tail() {
        let mut net = line_network();
        let shared = ConnectionId::new(1);
        let tail = ConnectionId::new(2);
        // A shared flow already holds the 0→1 trunk.
        assert!(net.reserve(shared, n(0), n(1), 8_000_000));
        // A full-path reservation for a joiner would fail at the trunk...
        assert!(!net.reserve(tail, n(0), n(2), 4_000_000));
        // ...but charging only its private tail link succeeds.
        assert!(net.reserve_links(tail, vec![(n(1), n(2))], 4_000_000));
        assert_eq!(net.link(n(0), n(1)).unwrap().reserved_bps, 8_000_000);
        assert_eq!(net.link(n(1), n(2)).unwrap().reserved_bps, 4_000_000);
        net.release(tail);
        assert_eq!(net.link(n(1), n(2)).unwrap().reserved_bps, 0);
        // Unknown links reserve nothing.
        assert!(!net.reserve_links(tail, vec![(n(0), n(9))], 1));
    }

    #[test]
    fn path_propagation_sums_the_links_of_the_path() {
        let mut net = line_network();
        net.add_node(n(9), "island");
        net.link_mut(n(0), n(1)).unwrap().spec.propagation = MediaDuration::from_micros(300);
        net.link_mut(n(1), n(2)).unwrap().spec.propagation = MediaDuration::from_micros(4_000);
        net.compute_routes();
        for (src, dst) in [(0, 2), (0, 1), (2, 0), (1, 1), (0, 9), (7, 7), (7, 0)] {
            // What the replica selector used to compute from `path_links`.
            let by_pairs = net.path_links(n(src), n(dst)).map(|links| {
                let micros = links.iter().filter_map(|&(a, b)| net.link(a, b));
                MediaDuration::from_micros(micros.map(|l| l.spec.propagation.as_micros()).sum())
            });
            assert_eq!(
                net.path_propagation(n(src), n(dst)),
                by_pairs,
                "{src}→{dst}"
            );
        }
        assert_eq!(
            net.path_propagation(n(0), n(2)),
            Some(MediaDuration::from_micros(4_300))
        );
        assert_eq!(net.path_propagation(n(0), n(9)), None);
    }
}
