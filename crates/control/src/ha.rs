//! Controller high availability: lease tracking, quorum arithmetic, and
//! the failover election.
//!
//! The mechanism is deliberately simple — no replicated log, no randomized
//! timeouts. The leader broadcasts a lease beat carrying its epoch and a
//! [`ControlSnapshot`]; followers run a K-missed-beats detector over it (the
//! same discipline PR 1 uses for session heartbeats). On expiry, a follower
//! stands for election iff it holds the **lowest node id among live
//! servers** *and* can see a **strict majority** of the server fleet — so
//! at most one side of any partition can produce a candidate, and every
//! replica that sees the same liveness view picks the same one. It leads
//! once a strict majority has promised it a fresh epoch; promises are
//! durable and two majorities intersect, so no epoch is claimed twice.
//! Fencing epochs make the safety argument local: even if timing is
//! perverse, a receiver that has seen epoch `e` drops every command
//! stamped `< e`. [`Election`] is that protocol as one state machine with
//! no simulator in it: its host calls one entry point per message or timer
//! and applies the [`HaOut`] list that comes back, in order.

use crate::controller::{ControlSnapshot, LEASE_BEAT, LEASE_TIMEOUT, STALE_AFTER};
use hermes_core::{MediaDuration, MediaTime};
use std::collections::{BTreeMap, BTreeSet};

/// True iff `fresh` reporters out of `total` fleet members form a strict
/// majority. With `total == 1` a lone server is always its own majority.
pub fn majority(fresh: usize, total: usize) -> bool {
    2 * fresh > total
}

/// The deterministic election rule: the lowest node id among the live set
/// wins. Ties are impossible (ids are unique); an empty live set elects
/// nobody.
pub fn elect(live: &[u64]) -> Option<u64> {
    live.iter().min().copied()
}

/// Per-peer freshness tracker: which server peers have been heard from
/// (via broadcast `ControlReport`s) recently enough to count as live.
#[derive(Debug, Clone, Default)]
pub struct PeerFreshness {
    last: BTreeMap<u64, MediaTime>,
}

impl PeerFreshness {
    /// Record a sign of life from `node` at `now`.
    pub fn heard(&mut self, node: u64, now: MediaTime) {
        self.last.insert(node, now);
    }

    /// Reset the tracker (a restarted process must re-learn liveness).
    pub fn clear(&mut self) {
        self.last.clear();
    }

    /// The node ids heard from within `within` of `now`, ascending.
    pub fn fresh(&self, now: MediaTime, within: MediaDuration) -> Vec<u64> {
        self.last
            .iter()
            .filter(|(_, at)| now - **at <= within)
            .map(|(n, _)| *n)
            .collect()
    }
}

/// A follower's view of the current controller lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeaseView {
    /// Highest lease epoch observed so far.
    pub epoch: u64,
    /// When the last beat at that epoch arrived.
    pub heard_at: MediaTime,
    /// The node that held the lease when last heard.
    pub holder: u64,
}

impl LeaseView {
    /// Absorb one lease beat. Returns `true` if the beat was accepted
    /// (same or newer epoch); a stale-epoch beat from a zombie leader is
    /// rejected and must not refresh the lease clock.
    pub fn observe(&mut self, epoch: u64, holder: u64, now: MediaTime) -> bool {
        if epoch < self.epoch {
            return false;
        }
        self.epoch = epoch;
        self.holder = holder;
        self.heard_at = now;
        true
    }

    /// True iff the lease has gone `timeout` without a beat.
    pub fn expired(&self, now: MediaTime, timeout: MediaDuration) -> bool {
        now - self.heard_at > timeout
    }
}

/// What an [`Election`] puts on the wire. The hosting actor maps each
/// variant onto its own message type one to one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaMsg {
    /// Leader → every peer: beat number `.0` (diagnostics) asserts
    /// leadership at the snapshot's epoch and replicates the snapshot.
    Lease(u64, ControlSnapshot),
    /// Candidate → every peer: promise me this epoch.
    VoteReq(u64),
    /// Voter → candidate: this epoch is yours as far as I am concerned.
    Vote(u64),
}

/// One thing an [`Election`] asks its host to do. The host applies a list of
/// these in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaOut {
    /// Send a message to a peer, best effort: a lost beat is absorbed by the
    /// K-missed-beats margin, a lost ask or grant by a retried candidacy.
    Send(u64, HaMsg),
    /// This node won the election at this epoch: start a cold controller
    /// from [`Election::snapshot`], and its control tick.
    Promote(u64),
    /// Stop leading: drop the controller (its timer chains die unrenewed).
    Demote,
    /// Reports now go to this node.
    Repoint(u64),
    /// The leaseholder's admission price.
    Price(u8),
    /// Call [`Election::watch_tick`] one lease beat from now.
    ArmWatch,
    /// Call [`Election::beat_tick`] one lease beat from now.
    ArmBeat,
    /// A trace event about this node: name, value (an epoch).
    Event(&'static str, i64),
}

/// A pending failover candidacy: the epoch this node asked the fleet to
/// grant it, the voters heard so far (self included), and when the ask
/// went out.
#[derive(Debug, Clone)]
struct Candidacy {
    epoch: u64,
    votes: BTreeSet<u64>,
    since: MediaTime,
}

/// Everything one server knows about the controller election. `fence`,
/// `promised` and `snapshot` model disk, like the databases, and survive
/// [`crash`](Self::crash); the rest is RAM. Leadership itself is the host's:
/// an entry point that depends on it takes `leading`, the epoch this node
/// leads at right now.
#[derive(Debug, Clone, Default)]
pub struct Election {
    me: u64,
    /// The other servers of the fleet, in broadcast order.
    peers: Vec<u64>,
    /// False until [`enable`](Self::enable): the controller is pinned to
    /// its first host and only the fence and epoch gossip run.
    enabled: bool,
    /// Highest controller epoch this node has observed. Epochs must never
    /// regress across restarts or a zombie could actuate on an amnesiac
    /// fleet.
    fence: u64,
    /// Highest epoch promised to any candidate (own candidacies included).
    /// That it never drops is what makes the vote round a proof: two
    /// majorities for one epoch would have to intersect in a voter whose
    /// promise forbids the second grant.
    promised: u64,
    /// From the last accepted lease beat, or our own: what a successor
    /// controller is seeded with.
    snapshot: ControlSnapshot,
    /// Which servers' reports are fresh — the liveness view the election
    /// and the leader's quorum check both read.
    freshness: PeerFreshness,
    lease: LeaseView,
    /// An interrupted candidacy is simply retried (at a higher epoch).
    candidacy: Option<Candidacy>,
    /// Lease beats this node has sent while leading (the lease `seq`).
    pub lease_beats: u64,
    /// When this node last won an election.
    pub last_elected_at: Option<MediaTime>,
}

impl Election {
    /// The election state of node `me`, with failover off.
    pub fn new(me: u64) -> Self {
        Election {
            me,
            ..Election::default()
        }
    }

    /// The fencing record: the highest controller epoch observed.
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// The highest epoch promised to any candidate.
    pub fn promised(&self) -> u64 {
        self.promised
    }

    /// The administrative state a successor controller starts from.
    pub fn snapshot(&self) -> &ControlSnapshot {
        &self.snapshot
    }

    /// Failover is [`enable`](Self::enable)d.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Arm failover: remember the other servers and the seed snapshot (the
    /// deployment manifest: standby pool, nominal price), start the lease
    /// watch, and grant the fleet one optimistic liveness window so nobody
    /// elects before the first reports can arrive.
    pub fn enable(
        &mut self,
        seed: ControlSnapshot,
        peers: Vec<u64>,
        now: MediaTime,
        out: &mut Vec<HaOut>,
    ) {
        self.enabled = true;
        self.saw(seed.epoch);
        self.snapshot = seed;
        self.grant_timeout(now);
        for &node in peers.iter().chain([&self.me]) {
            self.freshness.heard(node, now);
        }
        self.peers = peers;
        out.push(HaOut::ArmWatch);
    }

    /// This node hosts the deployment's first controller, at `epoch`: it is
    /// the leaseholder, and with failover on its lease beat starts.
    pub fn host(&mut self, epoch: u64, now: MediaTime, out: &mut Vec<HaOut>) {
        self.saw(epoch);
        self.lease.observe(epoch, self.me, now);
        if self.enabled {
            out.push(HaOut::ArmBeat);
        }
    }

    /// The process died. The restarted node is a follower that must win a
    /// fresh election, at a strictly higher epoch, before it leads again.
    pub fn crash(&mut self) {
        self.freshness.clear();
        self.candidacy = None;
    }

    /// The process is back (its timers died with the old one): watch the
    /// lease again, assuming it alive.
    pub fn restart(&mut self, now: MediaTime, out: &mut Vec<HaOut>) {
        if self.enabled {
            self.grant_timeout(now);
            out.push(HaOut::ArmWatch);
        }
    }

    /// The fence: may a command stamped `epoch` act here? One from a newer
    /// epoch advances the record; one from an older epoch came from a
    /// deposed leader and must be dropped.
    pub fn admit(&mut self, epoch: u64) -> bool {
        let fresh = epoch >= self.fence;
        if fresh {
            self.fence = epoch;
        }
        fresh
    }

    /// This node sent its own report: a live self is always part of the
    /// "report-reachable" view.
    pub fn report_sent(&mut self, now: MediaTime) {
        self.freshness.heard(self.me, now);
    }

    /// A report from `from` arrived, carrying the sender's fence record. A
    /// peer's report is a liveness proof, whoever leads. The epoch is
    /// gossip: a node that missed the new leader's beats (restarted, or cut
    /// off together with it) learns of the succession before its own lease
    /// clock runs out, and a zombie leader hears it and stands down.
    pub fn report_heard(
        &mut self,
        from: u64,
        epoch: u64,
        now: MediaTime,
        leading: Option<u64>,
        out: &mut Vec<HaOut>,
    ) {
        if self.peers.contains(&from) {
            self.freshness.heard(from, now);
        }
        self.saw(epoch);
        if let Some(mine) = leading.filter(|&mine| mine < self.fence) {
            self.demote(mine, now, out);
        }
    }

    /// A lease beat arrived. A leading node yields to a higher epoch (the
    /// split-brain loser demotes itself); a follower refreshes its
    /// K-missed-beats clock, caches the snapshot, adopts its price (so a
    /// restarted follower need not wait for the next price change) and
    /// reports to the leaseholder.
    pub fn lease(
        &mut self,
        from: u64,
        snapshot: ControlSnapshot,
        now: MediaTime,
        leading: Option<u64>,
        out: &mut Vec<HaOut>,
    ) {
        if let Some(mine) = leading {
            if snapshot.epoch <= mine {
                // A zombie ex-leader's beat: ignore (its commands are
                // fenced by every receiver anyway).
                return;
            }
            self.demote(mine, now, out);
        }
        if self.lease.observe(snapshot.epoch, from, now) {
            self.saw(snapshot.epoch);
            out.push(HaOut::Price(snapshot.price));
            self.snapshot = snapshot;
            self.freshness.heard(from, now);
            out.push(HaOut::Repoint(from));
        }
    }

    /// Candidate `from` asked for this node's vote at `epoch`. Granted only
    /// by a follower whose lease has lapsed (the incumbent gets stickiness)
    /// for an epoch above the fence and every promise already made.
    /// Granting abandons any candidacy of our own — the asker outbid us.
    pub fn vote_req(
        &mut self,
        from: u64,
        epoch: u64,
        now: MediaTime,
        leading: Option<u64>,
        out: &mut Vec<HaOut>,
    ) {
        if leading.is_none()
            && self.enabled
            && self.lease.expired(now, LEASE_TIMEOUT)
            && epoch > self.highest_epoch()
            && self.peers.contains(&from)
        {
            self.promised = epoch;
            self.candidacy = None;
            out.push(HaOut::Send(from, HaMsg::Vote(epoch)));
        }
    }

    /// Peer `from` granted its vote. Counted only against the candidacy
    /// that asked for exactly this epoch; a majority promotes it.
    pub fn vote(&mut self, from: u64, epoch: u64, now: MediaTime, out: &mut Vec<HaOut>) {
        if !self.peers.contains(&from) {
            return;
        }
        if let Some(c) = self.candidacy.as_mut().filter(|c| c.epoch == epoch) {
            c.votes.insert(from);
        }
        self.try_win(now, out);
    }

    /// The beat timer fired. `leading` is the hosted controller's current
    /// snapshot; a demoted node's chain dies here.
    pub fn beat_tick(
        &mut self,
        leading: Option<ControlSnapshot>,
        now: MediaTime,
        out: &mut Vec<HaOut>,
    ) {
        if let Some(snapshot) = leading.filter(|_| self.enabled) {
            self.snapshot = snapshot;
            self.beat(now, out);
        }
    }

    /// The watch timer fired. A follower checks the lease for expiry, and
    /// the lowest node id among report-fresh servers — iff that fresh set
    /// is a strict majority of the fleet — stands as the candidate. The
    /// quorum precondition keeps both sides of a partition from campaigning
    /// at once; the vote round makes the claimed epoch provably unused.
    pub fn watch_tick(&mut self, now: MediaTime, leading: Option<u64>, out: &mut Vec<HaOut>) {
        if !self.enabled {
            return;
        }
        if leading.is_none() {
            let fresh = self.freshness.fresh(now, STALE_AFTER);
            if !self.is_majority(fresh.len()) {
                // No quorum view: "leader dead" and "we are the isolated
                // side" are indistinguishable, so grant the (possibly live)
                // leader a fresh timeout — on every tick, not just once the
                // lease lapses, so a heal that lands right at the expiry
                // instant still buys a full timeout for the incumbent's
                // beats (or gossiped epochs) to reach us.
                self.grant_timeout(now);
                self.candidacy = None;
            } else if self.lease.expired(now, LEASE_TIMEOUT) && elect(&fresh) == Some(self.me) {
                // Stand, or retry a candidacy whose votes never came after
                // two beats: lost grants are absorbed by re-asking at a
                // higher epoch, never by waiting on a specific voter.
                let retry = self
                    .candidacy
                    .as_ref()
                    .is_none_or(|c| now - c.since >= LEASE_BEAT + LEASE_BEAT);
                if retry {
                    self.stand(now, out);
                }
            } else {
                // Some other node is the designated candidate now.
                self.candidacy = None;
            }
        }
        out.push(HaOut::ArmWatch);
    }

    /// The leader's own split-brain guard, run before anything actuates:
    /// fresh server reports (self included) must form a strict majority of
    /// the fleet, or this leader may be the isolated side of a partition
    /// and stops leading (the majority side will elect once the lease
    /// lapses).
    pub fn quorum(&mut self, now: MediaTime, leading: Option<u64>, out: &mut Vec<HaOut>) {
        if let Some(mine) = leading.filter(|_| self.enabled) {
            if !self.is_majority(self.freshness.fresh(now, STALE_AFTER).len()) {
                self.demote(mine, now, out);
            }
        }
    }

    fn is_majority(&self, n: usize) -> bool {
        majority(n, self.peers.len() + 1)
    }

    fn saw(&mut self, epoch: u64) {
        self.fence = self.fence.max(epoch);
    }

    /// Above this, an epoch is unused as far as this node can tell.
    fn highest_epoch(&self) -> u64 {
        debug_assert!(self.lease.epoch.max(self.snapshot.epoch) <= self.fence);
        self.fence.max(self.promised)
    }

    /// Whoever leads gets one full lease timeout from `now` before this
    /// node would vote or stand against it.
    fn grant_timeout(&mut self, now: MediaTime) {
        self.lease.heard_at = now;
    }

    fn broadcast(&self, msg: HaMsg, out: &mut Vec<HaOut>) {
        out.extend(self.peers.iter().map(|&to| HaOut::Send(to, msg.clone())));
    }

    fn demote(&mut self, mine: u64, now: MediaTime, out: &mut Vec<HaOut>) {
        self.grant_timeout(now);
        out.push(HaOut::Demote);
        out.push(HaOut::Event("ctrl_demote", mine as i64));
    }

    /// Stand for election: pick an epoch above everything seen or promised,
    /// promise it to ourselves (a candidacy is a vote too), and ask every
    /// peer for theirs. A single-server "fleet" wins on the spot.
    fn stand(&mut self, now: MediaTime, out: &mut Vec<HaOut>) {
        let epoch = self.highest_epoch() + 1;
        self.promised = epoch;
        self.candidacy = Some(Candidacy {
            epoch,
            votes: BTreeSet::from([self.me]),
            since: now,
        });
        self.broadcast(HaMsg::VoteReq(epoch), out);
        self.try_win(now, out);
    }

    /// Promote a candidacy that holds a strict majority of votes. Dropped
    /// instead if the fence record caught up to the candidacy epoch in
    /// the meantime (someone else won at least as fresh an epoch).
    fn try_win(&mut self, now: MediaTime, out: &mut Vec<HaOut>) {
        let Some(c) = self.candidacy.as_ref() else {
            return;
        };
        let epoch = c.epoch;
        if epoch <= self.fence {
            self.candidacy = None;
        } else if self.is_majority(c.votes.len()) {
            self.candidacy = None;
            self.fence = epoch;
            self.snapshot.epoch = epoch;
            self.last_elected_at = Some(now);
            out.push(HaOut::Event("ctrl_elect", epoch as i64));
            out.push(HaOut::Promote(epoch));
            out.push(HaOut::Repoint(self.me));
            // Announce leadership with an immediate beat.
            self.beat(now, out);
        }
    }

    /// Broadcast the lease beat with the current snapshot.
    fn beat(&mut self, now: MediaTime, out: &mut Vec<HaOut>) {
        self.lease.observe(self.snapshot.epoch, self.me, now);
        self.lease_beats += 1;
        let msg = HaMsg::Lease(self.lease_beats, self.snapshot.clone());
        self.broadcast(msg, out);
        out.push(HaOut::ArmBeat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: i64) -> MediaTime {
        MediaTime::from_millis(ms)
    }

    #[test]
    fn majority_is_strict() {
        assert!(majority(1, 1));
        assert!(!majority(1, 2));
        assert!(majority(2, 2));
        assert!(majority(2, 3));
        assert!(!majority(1, 3));
        assert!(!majority(2, 4));
        assert!(majority(3, 4));
        assert!(!majority(0, 0));
    }

    #[test]
    fn election_picks_lowest_live_id() {
        assert_eq!(elect(&[5, 2, 9]), Some(2));
        assert_eq!(elect(&[7]), Some(7));
        assert_eq!(elect(&[]), None);
    }

    #[test]
    fn freshness_ages_out_and_clears() {
        let mut f = PeerFreshness::default();
        f.heard(3, at(0));
        f.heard(1, at(500));
        f.heard(2, at(900));
        assert_eq!(f.fresh(at(1_000), MediaDuration::from_millis(600)), [1, 2]);
        f.clear();
        assert!(f.fresh(at(1_000), MediaDuration::from_secs(10)).is_empty());
    }

    #[test]
    fn lease_rejects_stale_epochs_and_expires() {
        let mut l = LeaseView::default();
        assert!(l.observe(2, 10, at(100)));
        assert!(!l.observe(1, 11, at(400)), "zombie beat must not refresh");
        assert_eq!(l.heard_at, at(100));
        assert!(l.expired(at(1_300), MediaDuration::from_millis(1_000)));
        assert!(l.observe(2, 10, at(1_300)));
        assert!(!l.expired(at(1_400), MediaDuration::from_millis(1_000)));
        // A higher epoch from a new holder always wins.
        assert!(l.observe(3, 11, at(1_500)));
        assert_eq!(l.holder, 11);
    }

    // ---- the election: three servers 1, 2, 3; beat 300 ms, lease timeout
    // 1.2 s, reports stale after 1 s (the defaults) ----

    fn seed() -> ControlSnapshot {
        ControlSnapshot {
            epoch: 1,
            price: 0,
            standby: vec![7],
            scaled_out: Vec::new(),
        }
    }

    /// Node `me` of the fleet, failover armed at t = 0.
    fn node(me: u64) -> Election {
        let mut e = Election::new(me);
        let mut out = Vec::new();
        let peers = [1, 2, 3].into_iter().filter(|&p| p != me).collect();
        e.enable(seed(), peers, at(0), &mut out);
        assert_eq!(out, [HaOut::ArmWatch]);
        e
    }

    fn vote_req(e: &mut Election, from: u64, epoch: u64, ms: i64, leading: Option<u64>) -> bool {
        let mut out = Vec::new();
        e.vote_req(from, epoch, at(ms), leading, &mut out);
        let grant = HaOut::Send(from, HaMsg::Vote(epoch));
        assert!(out.is_empty() || out == [grant], "{out:?}");
        !out.is_empty()
    }

    fn asks(epoch: u64, to: [u64; 2]) -> Vec<HaOut> {
        let ask = |to| HaOut::Send(to, HaMsg::VoteReq(epoch));
        vec![ask(to[0]), ask(to[1]), HaOut::ArmWatch]
    }

    #[test]
    fn a_vote_needs_every_precondition() {
        // Lease lapsed, epoch above fence (1) and promise (0), asker a peer.
        assert!(vote_req(&mut node(2), 1, 2, 2_000, None));
        assert!(!vote_req(&mut node(2), 1, 2, 2_000, Some(1)), "leading");
        assert!(!vote_req(&mut node(2), 1, 2, 1_200, None), "lease live");
        assert!(!vote_req(&mut node(2), 1, 1, 2_000, None), "epoch at fence");
        assert!(!vote_req(&mut node(2), 9, 2, 2_000, None), "not a peer");
        let mut e = node(2);
        assert!(vote_req(&mut e, 1, 3, 2_000, None));
        assert_eq!(e.promised(), 3);
        assert!(!vote_req(&mut e, 3, 3, 2_000, None), "epoch at promise");
        assert!(!vote_req(&mut e, 3, 2, 2_000, None), "epoch under promise");
        assert_eq!((e.promised(), e.fence()), (3, 1));
    }

    #[test]
    fn a_leader_ignores_a_zombie_beat_and_yields_to_a_newer_one() {
        let mut e = node(1);
        let mut out = Vec::new();
        let before = e.lease;
        for epoch in [1, 2] {
            let zombie = ControlSnapshot { epoch, ..seed() };
            e.lease(3, zombie, at(500), Some(2), &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        assert_eq!((e.lease, e.fence()), (before, 1));
        let newer = ControlSnapshot {
            epoch: 3,
            price: 2,
            ..seed()
        };
        e.lease(3, newer.clone(), at(600), Some(2), &mut out);
        let demoted = HaOut::Event("ctrl_demote", 2);
        assert_eq!(
            out,
            [HaOut::Demote, demoted, HaOut::Price(2), HaOut::Repoint(3)]
        );
        assert_eq!((e.fence(), e.snapshot()), (3, &newer));
    }

    #[test]
    fn without_a_quorum_view_a_follower_refreshes_its_lease_instead_of_standing() {
        let mut e = node(1);
        let mut out = Vec::new();
        e.report_sent(at(2_000));
        e.watch_tick(at(2_000), None, &mut out);
        assert_eq!(out, [HaOut::ArmWatch]);
        assert_eq!((e.lease.heard_at, e.promised()), (at(2_000), 0));
        // One peer's report makes two of three; the lease just refreshed
        // has to lapse again before the lowest fresh id stands.
        for ms in [3_000, 3_300] {
            e.report_sent(at(ms));
            e.report_heard(2, 1, at(ms), None, &mut out);
        }
        out.clear();
        e.watch_tick(at(3_000), None, &mut out);
        assert_eq!(out, [HaOut::ArmWatch]);
        out.clear();
        e.watch_tick(at(3_300), None, &mut out);
        assert_eq!(out, asks(2, [2, 3]));
    }

    #[test]
    fn a_higher_id_stands_only_when_the_lower_ones_are_stale() {
        let mut e = node(2);
        let mut out = Vec::new();
        e.report_sent(at(2_000));
        e.report_heard(3, 1, at(2_000), None, &mut out);
        e.report_heard(1, 1, at(1_000), None, &mut out);
        e.watch_tick(at(2_000), None, &mut out);
        assert_eq!(out, [HaOut::ArmWatch], "1 is still fresh");
        out.clear();
        e.watch_tick(at(2_001), None, &mut out);
        assert_eq!(out, asks(2, [1, 3]));
    }

    #[test]
    fn an_unanswered_candidacy_is_retried_at_a_higher_epoch_after_two_beats() {
        let mut e = node(1);
        let mut out = Vec::new();
        let mut tick = |e: &mut Election, ms: i64| {
            out.clear();
            e.report_sent(at(ms));
            e.report_heard(2, 1, at(ms), None, &mut out);
            e.watch_tick(at(ms), None, &mut out);
            out.clone()
        };
        assert_eq!(tick(&mut e, 2_000), asks(2, [2, 3]));
        assert_eq!(tick(&mut e, 2_300), [HaOut::ArmWatch]);
        assert_eq!(tick(&mut e, 2_600), asks(3, [2, 3]));
        assert_eq!(e.promised(), 3);
        // A grant for the abandoned epoch no longer counts; one for the
        // live epoch is the second vote of three.
        out.clear();
        e.vote(2, 2, at(2_700), &mut out);
        assert!(out.is_empty(), "{out:?}");
        e.vote(3, 3, at(2_700), &mut out);
        let won = ControlSnapshot { epoch: 3, ..seed() };
        let beat = |to| HaOut::Send(to, HaMsg::Lease(1, won.clone()));
        let elected = HaOut::Event("ctrl_elect", 3);
        assert_eq!(
            out,
            [
                elected,
                HaOut::Promote(3),
                HaOut::Repoint(1),
                beat(2),
                beat(3),
                HaOut::ArmBeat,
            ]
        );
        assert_eq!((e.fence(), e.lease_beats), (3, 1));
        assert_eq!(e.last_elected_at, Some(at(2_700)));
        assert_eq!(e.lease.holder, 1);
    }

    #[test]
    fn crash_keeps_fence_promise_and_snapshot_and_drops_freshness_and_candidacy() {
        let mut e = node(2);
        let mut out = Vec::new();
        let snap = ControlSnapshot {
            epoch: 4,
            price: 1,
            standby: Vec::new(),
            scaled_out: vec![7],
        };
        e.lease(1, snap.clone(), at(100), None, &mut out);
        // 1 goes quiet; 2 stands at epoch 5.
        out.clear();
        e.report_sent(at(2_000));
        e.report_heard(3, 4, at(2_000), None, &mut out);
        e.watch_tick(at(2_000), None, &mut out);
        assert_eq!(out, asks(5, [1, 3]));

        e.crash();
        assert_eq!((e.fence(), e.promised(), e.snapshot()), (4, 5, &snap));
        out.clear();
        e.restart(at(2_100), &mut out);
        assert_eq!(out, [HaOut::ArmWatch]);
        assert_eq!(e.lease.heard_at, at(2_100));
        // The grant answers a candidacy that died with the process...
        out.clear();
        e.vote(3, 5, at(2_200), &mut out);
        assert!(out.is_empty(), "{out:?}");
        // ...and the liveness view is gone: no quorum, so no standing, even
        // with the lease long lapsed.
        e.watch_tick(at(9_000), None, &mut out);
        assert_eq!(out, [HaOut::ArmWatch]);
        assert_eq!(e.promised(), 5);
    }

    #[test]
    fn the_fence_admits_current_and_newer_epochs_only() {
        let mut e = node(3);
        assert!(e.admit(1) && e.admit(3) && e.admit(3));
        assert!(!e.admit(2));
        assert_eq!(e.fence(), 3);
    }

    #[test]
    fn a_leader_without_a_report_majority_demotes_itself() {
        let mut e = node(1);
        let mut out = Vec::new();
        e.host(1, at(0), &mut out);
        assert_eq!(out, [HaOut::ArmBeat]);
        out.clear();
        e.quorum(at(1_000), Some(1), &mut out); // everyone fresh since enable
        e.report_sent(at(1_001));
        e.quorum(at(1_001), None, &mut out); // a follower has nothing to lose
                                             // With failover off the controller is pinned: nothing to guard.
        Election::new(1).quorum(at(9_000), Some(1), &mut out);
        assert!(out.is_empty(), "{out:?}");
        e.quorum(at(1_001), Some(1), &mut out);
        let demoted = HaOut::Event("ctrl_demote", 1);
        assert_eq!(out, [HaOut::Demote, demoted]);
    }
}
