//! Content placement and replica selection for the distributed media tier.
//!
//! The paper attaches media servers to the multimedia server (§2, §6.1);
//! at scale those become real networked nodes and each media object must be
//! *placed* on some of them. [`PlacementMap`] assigns every object to
//! `replication` media nodes by rendezvous (highest-random-weight) hashing:
//! placement is deterministic in the key and node set, spreads objects
//! evenly, and removing a node only moves the objects that lived on it.
//! [`ReplicaSelector`] then picks, per fetch, the replica with the lowest
//! combined outstanding-load + round-trip-time score.

use hermes_core::NodeId;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Stable 64-bit FNV-1a hash (placement must not depend on the process'
/// hasher state, or two runs of one seed would place objects differently).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rendezvous weight of `key` on `node`.
fn weight(key: &str, node: NodeId) -> u64 {
    let mut buf = Vec::with_capacity(key.len() + 8);
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(&node.raw().to_le_bytes());
    fnv1a(&buf)
}

/// The placement map of one multimedia server's content over the media
/// tier: object key → the media nodes holding a replica.
#[derive(Debug, Clone, Default)]
pub struct PlacementMap {
    replicas: BTreeMap<String, Vec<NodeId>>,
    replication: usize,
}

impl PlacementMap {
    /// Place every `key` on `replication` of `nodes` (clamped to the node
    /// count) by rendezvous hashing.
    pub fn build<'a>(
        keys: impl IntoIterator<Item = &'a str>,
        nodes: &[NodeId],
        replication: usize,
    ) -> Self {
        let replication = replication.clamp(1, nodes.len().max(1));
        let mut replicas = BTreeMap::new();
        for key in keys {
            let mut scored: Vec<(u64, NodeId)> =
                nodes.iter().map(|&n| (weight(key, n), n)).collect();
            // Highest weight wins; node id breaks the (unlikely) ties so
            // the order is total and deterministic.
            scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            replicas.insert(
                key.to_string(),
                scored
                    .into_iter()
                    .take(replication)
                    .map(|(_, n)| n)
                    .collect(),
            );
        }
        PlacementMap {
            replicas,
            replication,
        }
    }

    /// The replicas holding `key` (empty when the key was never placed).
    pub fn replicas(&self, key: &str) -> &[NodeId] {
        self.replicas.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of placed objects.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }
    /// True when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Iterate `(key, replicas)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.replicas
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// Load- and RTT-aware replica choice: each candidate replica is scored as
/// `outstanding_fetches × penalty + rtt`, lowest score wins, node id breaks
/// ties. Outstanding counts live here, fed by the fetch path.
#[derive(Debug, Clone)]
pub struct ReplicaSelector {
    outstanding: BTreeMap<NodeId, u64>,
    served: BTreeMap<NodeId, u64>,
    /// Microseconds of score each outstanding fetch is worth; ~one LAN RTT
    /// by default so a node must be meaningfully busier before a farther
    /// replica wins.
    pub load_penalty_micros: i64,
}

impl Default for ReplicaSelector {
    fn default() -> Self {
        ReplicaSelector {
            outstanding: BTreeMap::new(),
            served: BTreeMap::new(),
            load_penalty_micros: 2_000,
        }
    }
}

impl ReplicaSelector {
    /// Fresh selector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick the best replica among `(node, rtt_micros)` candidates — a
    /// slice or any iterator, so the fetch path scores replicas without
    /// collecting them — or `None` when there are none.
    pub fn pick<I>(&self, candidates: I) -> Option<NodeId>
    where
        I: IntoIterator,
        I::Item: Borrow<(NodeId, i64)>,
    {
        candidates
            .into_iter()
            .map(|c| {
                let &(node, rtt) = c.borrow();
                let load = *self.outstanding.get(&node).unwrap_or(&0) as i64;
                (load.saturating_mul(self.load_penalty_micros) + rtt, node)
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, node)| node)
    }

    /// A fetch went out to `node`.
    pub fn fetch_started(&mut self, node: NodeId) {
        *self.outstanding.entry(node).or_insert(0) += 1;
    }

    /// A fetch to `node` completed (or was abandoned at failover).
    pub fn fetch_finished(&mut self, node: NodeId) {
        if let Some(n) = self.outstanding.get_mut(&node) {
            *n = n.saturating_sub(1);
            *self.served.entry(node).or_insert(0) += 1;
        }
    }

    /// Forget all outstanding fetches to `node` (it crashed; they will
    /// never complete).
    pub fn clear_outstanding(&mut self, node: NodeId) {
        self.outstanding.remove(&node);
    }

    /// Current outstanding fetch count for a node.
    pub fn outstanding(&self, node: NodeId) -> u64 {
        *self.outstanding.get(&node).unwrap_or(&0)
    }

    /// Completed fetches per node since start.
    pub fn served(&self) -> &BTreeMap<NodeId, u64> {
        &self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u64) -> Vec<NodeId> {
        (100..100 + n).map(NodeId::new).collect()
    }

    #[test]
    fn placement_is_deterministic_and_replicated() {
        let ns = nodes(5);
        let keys = ["a.pcm", "b.mpg", "c.jpg", "d.gif", "e.txt"];
        let a = PlacementMap::build(keys.iter().copied(), &ns, 3);
        let b = PlacementMap::build(keys.iter().copied(), &ns, 3);
        for k in keys {
            assert_eq!(a.replicas(k), b.replicas(k), "{k}");
            assert_eq!(a.replicas(k).len(), 3);
            // Replicas are distinct nodes.
            let mut r = a.replicas(k).to_vec();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), 3, "{k}");
        }
        assert_eq!(a.len(), keys.len());
    }

    #[test]
    fn replication_clamps_to_node_count() {
        let ns = nodes(2);
        let p = PlacementMap::build(["x"], &ns, 9);
        assert_eq!(p.replicas("x").len(), 2);
        assert_eq!(p.replication(), 2);
        assert!(p.replicas("missing").is_empty());
    }

    #[test]
    fn placement_spreads_objects() {
        let ns = nodes(4);
        let keys: Vec<String> = (0..64).map(|i| format!("obj-{i}.mpg")).collect();
        let p = PlacementMap::build(keys.iter().map(String::as_str), &ns, 1);
        let mut per = BTreeMap::new();
        for n in p.iter().flat_map(|(_, replicas)| replicas) {
            *per.entry(*n).or_insert(0) += 1;
        }
        // Every node got something; no node hoards more than half.
        assert_eq!(per.len(), 4, "{per:?}");
        for (_, c) in per {
            assert!((4..=32).contains(&c), "{c}");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_objects() {
        let all = nodes(5);
        let fewer: Vec<NodeId> = all[..4].to_vec();
        let keys: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
        let before = PlacementMap::build(keys.iter().map(String::as_str), &all, 1);
        let after = PlacementMap::build(keys.iter().map(String::as_str), &fewer, 1);
        let dropped = all[4];
        for k in &keys {
            if before.replicas(k)[0] != dropped {
                assert_eq!(before.replicas(k), after.replicas(k), "{k} moved");
            }
        }
    }

    #[test]
    fn rendezvous_churn_moves_only_the_minimal_fraction() {
        // Property over a large key population: removing one node moves
        // EXACTLY the keys it held (nothing else reshuffles), and adding
        // one node moves only the keys the newcomer wins — in both
        // directions close to the expected 1/n fraction.
        let keys: Vec<String> = (0..800).map(|i| format!("seg-{i}.mpg")).collect();
        let base = nodes(8);
        let before = PlacementMap::build(keys.iter().map(String::as_str), &base, 1);

        // Remove the last node.
        let fewer: Vec<NodeId> = base[..7].to_vec();
        let after_rm = PlacementMap::build(keys.iter().map(String::as_str), &fewer, 1);
        let dropped = base[7];
        let mut moved_rm = 0;
        for k in &keys {
            if before.replicas(k) != after_rm.replicas(k) {
                assert_eq!(before.replicas(k), [dropped], "{k} moved without cause");
                moved_rm += 1;
            }
        }
        // Expected 800/8 = 100 keys; allow generous sampling slack.
        assert!((55..=160).contains(&moved_rm), "removal moved {moved_rm}");

        // Add a fresh node.
        let mut more = base.clone();
        more.push(NodeId::new(900));
        let after_add = PlacementMap::build(keys.iter().map(String::as_str), &more, 1);
        let mut moved_add = 0;
        for k in &keys {
            if before.replicas(k) != after_add.replicas(k) {
                assert_eq!(
                    after_add.replicas(k),
                    [NodeId::new(900)],
                    "{k} moved to an old node"
                );
                moved_add += 1;
            }
        }
        // Expected 800/9 ≈ 89 keys; FNV-1a is not perfectly uniform per
        // node id, so the bound is loose — the exactness assertions above
        // are the real property.
        assert!(
            (25..=180).contains(&moved_add),
            "addition moved {moved_add}"
        );

        // With replication 2 the same holds per replica slot: churn must
        // touch at most the slots the churned node participates in
        // (expected 2/n of all slots).
        let before2 = PlacementMap::build(keys.iter().map(String::as_str), &base, 2);
        let after2 = PlacementMap::build(keys.iter().map(String::as_str), &fewer, 2);
        let mut slot_moves = 0;
        for k in &keys {
            let b = before2.replicas(k);
            let a = after2.replicas(k);
            if b != a {
                assert!(b.contains(&dropped), "{k} reshuffled without cause");
                // The surviving replica keeps its slot.
                assert!(a.iter().any(|n| b.contains(n)), "{k} lost both replicas");
                slot_moves += 1;
            }
        }
        // Expected 800 × 2/8 = 200 affected keys.
        assert!(
            (120..=300).contains(&slot_moves),
            "repl-2 moved {slot_moves}"
        );
    }

    #[test]
    fn selector_prefers_low_rtt_then_yields_under_load() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut sel = ReplicaSelector::new();
        let cands = [(a, 1_000), (b, 4_000)];
        assert_eq!(sel.pick(cands), Some(a));
        // Pile outstanding fetches on `a` until `b`'s lower load wins.
        sel.fetch_started(a);
        sel.fetch_started(a);
        assert_eq!(sel.pick(cands), Some(b));
        // Completion drains the load back off.
        sel.fetch_finished(a);
        sel.fetch_finished(a);
        assert_eq!(sel.pick(cands), Some(a));
        assert_eq!(sel.served().get(&a), Some(&2));
        assert_eq!(sel.pick(std::iter::empty::<(NodeId, i64)>()), None);
    }

    #[test]
    fn clear_outstanding_forgets_a_crashed_node() {
        let a = NodeId::new(1);
        let mut sel = ReplicaSelector::new();
        sel.fetch_started(a);
        sel.fetch_started(a);
        assert_eq!(sel.outstanding(a), 2);
        sel.clear_outstanding(a);
        assert_eq!(sel.outstanding(a), 0);
    }
    proptest::proptest! {
        /// `pick` fed an iterator of owned pairs chooses what it chooses
        /// over the collected slice, and both name the lowest
        /// `load × penalty + rtt`, equal scores going to the lower node id
        /// — for any candidate order, duplicate scores included.
        #[test]
        fn pick_over_an_iterator_equals_pick_over_the_slice(
            cands in proptest::collection::vec((0u64..6, 0i64..4), 0..8),
            loads in proptest::collection::vec(0u64..6, 0..12),
        ) {
            let mut sel = ReplicaSelector::new();
            for &n in &loads {
                sel.fetch_started(NodeId::new(n));
            }
            // Coarse RTTs in penalty units, so load and distance trade off
            // into frequent score ties.
            let rtt = |r: i64| r * sel.load_penalty_micros;
            let slice: Vec<(NodeId, i64)> =
                cands.iter().map(|&(n, r)| (NodeId::new(n), rtt(r))).collect();
            let streamed = sel.pick(cands.iter().map(|&(n, r)| (NodeId::new(n), rtt(r))));
            proptest::prop_assert_eq!(streamed, sel.pick(&slice));
            let expected = slice
                .iter()
                .map(|&(n, r)| (sel.outstanding(n) as i64 * sel.load_penalty_micros + r, n))
                .min()
                .map(|(_, n)| n);
            proptest::prop_assert_eq!(streamed, expected);
        }
    }
}
