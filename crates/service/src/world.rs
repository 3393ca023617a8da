//! The service world: actors + topology over the simulated network, and the
//! `App` glue dispatching messages and timers to them.

use crate::client_actor::{ClientActor, ClientConfig};
use crate::media_actor::MediaActor;
use crate::protocol::{ServiceMsg, StackPath};
use crate::server_actor::{ServerActor, ServerConfig};
use hermes_control::{ControlSnapshot, ControllerConfig, LeaseView};
use hermes_core::{MediaKind, MediaTime, NodeId, ServerId, VecMap};
use hermes_media::MediaObject;
use hermes_server::{MediaTier, MediaTierConfig, PlacementMap};
use hermes_simnet::{
    App, FaultEvent, FaultKind, Labels, LinkSpec, Network, Severity, Sim, SimApi, SimRng, WireSize,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// All actors of a running service deployment.
pub struct ServiceWorld {
    /// Multimedia servers by node.
    pub servers: BTreeMap<NodeId, ServerActor>,
    /// Browsers by node.
    pub clients: VecMap<NodeId, ClientActor>,
    /// Media-server nodes of the distributed media tier, by node.
    pub media_nodes: BTreeMap<NodeId, MediaActor>,
    /// Media-tier configuration ([`distribute_media`](Self::distribute_media)
    /// applies it).
    pub media_cfg: MediaTierConfig,
    /// Per-stack-path delivery accounting (packets, bytes) — the FIG5
    /// experiment's raw data.
    pub stack_bytes: BTreeMap<StackPath, (u64, u64)>,
    /// The service's server catalog: "a list of available Hermes servers is
    /// provided. For every Hermes server, a small description concerning the
    /// kind of lessons that are stored in it" (§6.2.1).
    pub catalog: Vec<(ServerId, NodeId, String)>,
    /// Media nodes held in reserve: excluded from placement until the
    /// controller scales them out.
    pub standby_media: BTreeSet<NodeId>,
    /// The media tier's view of the controller lease, when the control
    /// plane is on (the world acts as the media nodes' control agent, since
    /// placement rebuilds span actors): the node hosting the fleet
    /// controller, tracked from observed lease beats after a failover, and
    /// the highest epoch seen — the fencing record for `ControlScale`
    /// commands.
    control: Option<LeaseView>,
    /// Stale-epoch `ControlScale` commands the world fenced off.
    pub control_fence_drops: u64,
    /// Scale commands skipped because their target media node was crashed
    /// when the command arrived (same-tick teardown race).
    pub control_scale_skips: u64,
    /// Wall-clock dispatch profile per actor subsystem, populated only when
    /// the bench harness asks for it (timings are host-dependent, so they
    /// ship in `--json` output, never in deterministic `--out` text).
    pub profile: Option<SubsystemProfile>,
}

/// Per-subsystem dispatch timing: nanoseconds spent and dispatches handled
/// inside each actor family's `on_message`/`on_timer` lanes.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubsystemProfile {
    /// Nanoseconds inside multimedia-server dispatch.
    pub server_ns: u64,
    /// Nanoseconds inside client (browser) dispatch.
    pub client_ns: u64,
    /// Nanoseconds inside media-tier dispatch.
    pub media_ns: u64,
    /// Dispatches (messages + timers) handled by servers.
    pub server_events: u64,
    /// Dispatches handled by clients.
    pub client_events: u64,
    /// Dispatches handled by media nodes.
    pub media_events: u64,
}

#[derive(Clone, Copy)]
enum Lane {
    Server,
    Client,
    Media,
}

impl ServiceWorld {
    /// Start collecting per-subsystem dispatch timings (bench harness only;
    /// see [`ServiceWorld::profile`]).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(SubsystemProfile::default());
    }

    #[inline]
    fn profile_lane(&mut self, start: Option<std::time::Instant>, lane: Lane) {
        let (Some(start), Some(p)) = (start, self.profile.as_mut()) else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        match lane {
            Lane::Server => {
                p.server_ns += ns;
                p.server_events += 1;
            }
            Lane::Client => {
                p.client_ns += ns;
                p.client_events += 1;
            }
            Lane::Media => {
                p.media_ns += ns;
                p.media_events += 1;
            }
        }
    }

    /// The server actor on a node.
    pub fn server(&self, node: NodeId) -> &ServerActor {
        &self.servers[&node]
    }
    /// Mutable server access.
    ///
    /// # Panics
    /// If `node` hosts no server.
    pub fn server_mut(&mut self, node: NodeId) -> &mut ServerActor {
        self.servers.get_mut(&node).expect("no server on this node")
    }
    /// The client actor on a node.
    pub fn client(&self, node: NodeId) -> &ClientActor {
        &self.clients[&node]
    }
    /// Mutable client access.
    ///
    /// # Panics
    /// If `node` hosts no client.
    pub fn client_mut(&mut self, node: NodeId) -> &mut ClientActor {
        self.clients.get_mut(&node).expect("no client on this node")
    }
    /// The media actor on a node.
    pub fn media(&self, node: NodeId) -> &MediaActor {
        &self.media_nodes[&node]
    }
    /// Mutable media-node access.
    ///
    /// # Panics
    /// If `node` hosts no media actor.
    pub fn media_mut(&mut self, node: NodeId) -> &mut MediaActor {
        self.media_nodes
            .get_mut(&node)
            .expect("no media actor on this node")
    }

    /// Distribute every server's media content over the media-tier nodes
    /// and switch the servers to tier-backed delivery.
    ///
    /// For each multimedia server: place its object keys on the media nodes
    /// by rendezvous hashing (`media_cfg.replication` replicas per object),
    /// install the replicas into the nodes' shards, and hand the server a
    /// [`MediaTier`] so its streams pull frames over the network instead of
    /// reading the local store. Call *after* content installation (content
    /// is ingested into the built sim) and before driving the run. A no-op
    /// without media nodes.
    pub fn distribute_media(&mut self) {
        let nodes = self.active_media();
        if nodes.is_empty() {
            return;
        }
        let cfg = self.media_cfg.clone();
        for server in self.servers.values_mut() {
            let (objects, placement) = place(server, &nodes, cfg.replication);
            for obj in objects {
                for n in placement.replicas(&obj.key) {
                    if let Some(media) = self.media_nodes.get_mut(n) {
                        media.install(server.server_id, obj.clone());
                    }
                }
            }
            server.media = Some(MediaTier::new(cfg.clone(), placement, server.node));
        }
    }

    /// The media nodes content is placed on: all but the standby pool
    /// (standby nodes join when the controller scales them out).
    fn active_media(&self) -> Vec<NodeId> {
        let active = self.media_nodes.keys().copied();
        active.filter(|n| !self.standby_media.contains(n)).collect()
    }

    /// Turn on the closed-loop control plane: host the fleet controller on
    /// `host` (which must be a server node), and start control-plane
    /// reports from every server and every *active* media node. Standby
    /// media nodes (in [`standby_media`](Self::standby_media)) form the
    /// controller's elastic pool; mark them before calling this and before
    /// [`distribute_media`](Self::distribute_media).
    ///
    /// Controller failover (HA) is on: every server runs the lease watch
    /// and can be elected if the host dies. Use
    /// [`enable_control_pinned`](Self::enable_control_pinned) for the
    /// pre-HA single-point-of-failure behavior.
    pub fn enable_control(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        host: NodeId,
        cfg: ControllerConfig,
    ) {
        self.enable_control_inner(api, host, cfg, true);
    }

    /// [`enable_control`](Self::enable_control) without failover: the
    /// controller stays pinned to `host` and dies with it (the exp_ha
    /// baseline mode).
    pub fn enable_control_pinned(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        host: NodeId,
        cfg: ControllerConfig,
    ) {
        self.enable_control_inner(api, host, cfg, false);
    }

    fn enable_control_inner(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        host: NodeId,
        cfg: ControllerConfig,
        ha: bool,
    ) {
        let standby: Vec<u64> = self.standby_media.iter().map(|n| n.raw()).collect();
        self.control = Some(LeaseView {
            epoch: 1,
            heard_at: api.now(),
            holder: host.raw(),
        });
        assert!(
            self.servers.contains_key(&host),
            "controller host must be a server node"
        );
        if ha {
            // The seed snapshot models the deployment manifest on every
            // server's disk: even a follower that never heard a lease beat
            // can seed a successor with the right standby pool.
            let seed = ControlSnapshot {
                epoch: 1,
                price: 0,
                standby: standby.clone(),
                scaled_out: Vec::new(),
            };
            for s in self.servers.values_mut() {
                s.enable_control_ha(api, cfg, seed.clone());
            }
        }
        self.server_mut(host).host_controller(api, cfg, standby);
        for s in self.servers.values_mut() {
            s.enable_control_reports(api, host);
        }
        for (n, m) in &mut self.media_nodes {
            if !self.standby_media.contains(n) {
                m.enable_control_reports(api, host);
            }
        }
    }

    /// A lease beat was delivered to some server: keep the world's record
    /// of the leaseholder and epoch current, and re-point the active media
    /// nodes' report chains when leadership moves (the world is the media
    /// tier's control agent, so this models the new leader's announcement
    /// reaching the tier).
    fn on_control_lease(&mut self, holder: NodeId, epoch: u64, now: MediaTime) {
        let Some(lease) = self.control.as_mut() else {
            return;
        };
        let moved = lease.holder != holder.raw();
        if lease.observe(epoch, holder.raw(), now) && moved {
            for m in self.media_nodes.values_mut() {
                m.repoint_control(holder);
            }
        }
    }

    /// Rebuild every server's placement map over the currently active media
    /// nodes and rebalance its streams. `warm` names a node that just
    /// scaled out (its share of the key range is installed into its shards
    /// first — cache warm-up); `drain` names a node being scaled in (its
    /// outstanding fetches are written off gracefully).
    fn rebuild_placements(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        warm: Option<NodeId>,
        drain: Option<NodeId>,
    ) {
        let nodes = self.active_media();
        if nodes.is_empty() {
            return;
        }
        let replication = self.media_cfg.replication;
        for server in self.servers.values_mut() {
            if server.media.is_none() {
                continue;
            }
            let (objects, placement) = place(server, &nodes, replication);
            let warming = warm.and_then(|n| Some((n, self.media_nodes.get_mut(&n)?)));
            if let Some((n, media)) = warming {
                for obj in &objects {
                    if placement.replicas(&obj.key).contains(&n) {
                        media.install(server.server_id, obj.clone());
                    }
                }
            }
            server.rebalance_media(api, placement, drain);
        }
    }

    /// A controller `ControlScale` command reached media node `node`:
    /// activate a standby replica (scale-out, with shard warm-up) or retire
    /// an active one back to standby (scale-in, with graceful drain).
    /// Idempotent — repeated commands in flight are ignored. The world is
    /// the media tier's control agent, so it enforces the controller epoch
    /// fence here: a command stamped with an epoch older than the newest
    /// one the tier has seen came from a deposed (possibly partitioned)
    /// leader and is dropped.
    fn on_control_scale(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        node: NodeId,
        active: bool,
        epoch: u64,
    ) {
        let Some(lease) = self.control.as_mut() else {
            return;
        };
        let host = lease.holder;
        if !lease.observe(epoch, host, api.now()) {
            self.control_fence_drops += 1;
            api.emit_val(
                node,
                Severity::Warn,
                "ctrl_fence_drop",
                Labels::default(),
                epoch as i64,
            );
            return;
        }
        // A command can race the target's crash fault: the controller only
        // learns of the death when the next report window goes quiet. Skip
        // the actuation — a standby target stays in the pool, and a later
        // scale-in of a node that never activated is a no-op, so the
        // controller's view self-corrects.
        if !api.node_is_up(node) {
            self.control_scale_skips += 1;
            return;
        }
        if active {
            if !self.standby_media.remove(&node) {
                return; // already active
            }
            if let Some(media) = self.media_nodes.get_mut(&node) {
                media.enable_control_reports(api, NodeId::new(host));
            }
            self.rebuild_placements(api, Some(node), None);
        } else {
            if self.standby_media.contains(&node) {
                return; // already standby
            }
            self.standby_media.insert(node);
            self.rebuild_placements(api, None, Some(node));
        }
    }

    /// Debug-build conservation audit over media transport parts: every
    /// part a media node put on the wire must either have been received by
    /// a multimedia server or died with an *accounted* fault (engine
    /// `fault_drops` — stale-incarnation deliveries, torn-down reliable
    /// holds — or exhausted retransmission budgets). Call after a run has
    /// drained; any imbalance beyond the fault ledger is accounting drift.
    pub fn audit_media_parts(&self, stats: &hermes_simnet::SimStats) {
        let sent: u64 = self.media_nodes.values().map(|m| m.stats.parts_sent).sum();
        let received: u64 = self
            .servers
            .values()
            .filter_map(|s| s.media.as_ref())
            .map(|t| t.stats.parts_received)
            .sum();
        debug_assert!(
            received <= sent,
            "servers received {received} media parts but only {sent} were sent"
        );
        debug_assert!(
            sent - received <= stats.fault_drops + stats.reliable_failures,
            "media parts leaked: sent {sent}, received {received}, \
             but only {} fault drops + {} reliable failures can explain losses",
            stats.fault_drops,
            stats.reliable_failures
        );
    }

    /// Snapshot every actor's counters into the unified metrics registry
    /// (call at end of run, after the engine's own
    /// [`hermes_simnet::Sim::publish_metrics`]).
    pub fn publish_metrics(&self, obs: &mut hermes_simnet::Obs) {
        for s in self.servers.values() {
            s.publish_metrics(obs);
        }
        for c in self.clients.values() {
            c.publish_metrics(obs);
        }
        for m in self.media_nodes.values() {
            m.publish_metrics(obs);
        }
    }

    /// Replicate freshly processed subscription forms to every server's
    /// user database ("this form is transmitted to every server of the
    /// service", §5).
    fn replicate_subscriptions(&mut self) {
        let mut pending = Vec::new();
        for s in self.servers.values_mut() {
            pending.append(&mut s.pending_replications);
        }
        for (user, form) in pending {
            for s in self.servers.values_mut() {
                s.accounts.register_replica(user, Arc::clone(&form));
            }
        }
    }
}

/// `server`'s media objects, every kind, and their placement over `nodes`
/// with `replication` replicas each.
fn place(
    server: &ServerActor,
    nodes: &[NodeId],
    replication: usize,
) -> (Vec<MediaObject>, PlacementMap) {
    let mut objects: Vec<MediaObject> = Vec::new();
    for kind in MediaKind::ALL {
        objects.extend(server.db.store(kind).iter().cloned());
    }
    let placement = PlacementMap::build(objects.iter().map(|o| o.key.as_str()), nodes, replication);
    (objects, placement)
}

impl App<ServiceMsg> for ServiceWorld {
    fn on_message(
        &mut self,
        api: &mut SimApi<'_, ServiceMsg>,
        node: NodeId,
        from: NodeId,
        msg: ServiceMsg,
    ) {
        let e = self.stack_bytes.entry(msg.stack_path()).or_insert((0, 0));
        e.0 += 1;
        e.1 += msg.wire_size() as u64;
        // Scale commands addressed to a media node actuate world-level
        // elasticity (placement rebuild spans several actors), so the world
        // intercepts them instead of the media actor.
        if let ServiceMsg::ControlScale { active, epoch } = msg {
            if self.media_nodes.contains_key(&node) {
                self.on_control_scale(api, node, active, epoch);
                return;
            }
        }
        // Lease beats are consumed by the server actor below, but the world
        // peeks at them to track leadership for the media tier (re-pointing
        // report chains when a successor takes over).
        if let ServiceMsg::ControlLease { epoch, .. } = &msg {
            if self.servers.contains_key(&node) {
                self.on_control_lease(from, *epoch, api.now());
            }
        }
        let start = self.profile.as_ref().map(|_| std::time::Instant::now());
        if let Some(server) = self.servers.get_mut(&node) {
            server.on_message(api, from, msg);
            self.replicate_subscriptions();
            self.profile_lane(start, Lane::Server);
        } else if let Some(client) = self.clients.get_mut(&node) {
            client.on_message(api, from, msg);
            self.profile_lane(start, Lane::Client);
        } else if let Some(media) = self.media_nodes.get_mut(&node) {
            media.on_message(api, from, msg);
            self.profile_lane(start, Lane::Media);
        }
    }

    fn on_timer(&mut self, api: &mut SimApi<'_, ServiceMsg>, node: NodeId, key: u64, payload: u64) {
        let start = self.profile.as_ref().map(|_| std::time::Instant::now());
        if let Some(server) = self.servers.get_mut(&node) {
            server.on_timer(api, key, payload);
            self.profile_lane(start, Lane::Server);
        } else if let Some(client) = self.clients.get_mut(&node) {
            client.on_timer(api, key, payload);
            self.profile_lane(start, Lane::Client);
        } else if let Some(media) = self.media_nodes.get_mut(&node) {
            media.on_timer(api, key, payload);
            self.profile_lane(start, Lane::Media);
        }
    }

    fn on_fault(&mut self, api: &mut SimApi<'_, ServiceMsg>, event: FaultEvent) {
        match event.kind {
            // A crashing server loses its volatile session state;
            // reservations and admission slots are returned to the network
            // so the restarted process starts from a clean (but
            // billing-preserving) slate.
            FaultKind::NodeCrash { node } => {
                if let Some(server) = self.servers.get_mut(&node) {
                    server.on_crash(api);
                } else if self.media_nodes.contains_key(&node) {
                    // A media node died: every multimedia server fails its
                    // streams over to surviving replicas. Content (shards)
                    // models disk and survives for the restart.
                    for server in self.servers.values_mut() {
                        server.on_media_node_event(api, node);
                    }
                }
            }
            // A restarted media node is a candidate replica again; streams
            // parked with every replica down re-point at it and resume.
            //
            // A restarted *multimedia server* is a fresh process: the engine
            // bumped its incarnation (dropping every timer the old process
            // armed), so whatever session state survived in the actor is
            // unreachable RAM — wipe it exactly as a crash would. Without
            // this, a restart not preceded by a crash (legal in a fault
            // plan) left sessions frozen forever: their heartbeat timers
            // died with the old incarnation, so not even the client-death
            // reaper could run. Found by the chaos harness's shrinker.
            FaultKind::NodeRestart { node } => {
                if let Some(s) = self.servers.get_mut(&node) {
                    s.on_crash(api);
                    // Control-plane timer chains died with the old
                    // incarnation; the new one reports and watches the
                    // lease as a follower.
                    s.rearm_control(api);
                } else if let Some(media) = self.media_nodes.get_mut(&node) {
                    for server in self.servers.values_mut() {
                        server.on_media_node_event(api, node);
                    }
                    media.rearm_control(api);
                }
            }
            // A brownout inflates the media node's service times; the
            // engine keeps delivering, so only breakers and hedging notice.
            FaultKind::NodeSlow { node, factor } => {
                if let Some(media) = self.media_nodes.get_mut(&node) {
                    media.set_slowdown(factor);
                }
            }
            FaultKind::NodeNominal { node } => {
                if let Some(media) = self.media_nodes.get_mut(&node) {
                    media.set_slowdown(1);
                }
            }
            _ => {}
        }
    }
}

/// Builder for service deployments over star/backbone topologies.
pub struct WorldBuilder {
    net: Network,
    world: ServiceWorld,
    rng: SimRng,
    next_node: u64,
    backbone: NodeId,
    /// Clients added so far, built once the server list is complete.
    clients: Vec<(NodeId, ClientConfig)>,
}

impl WorldBuilder {
    /// Add a media-server node attached to the backbone by `link` (the
    /// storage-area side of the media tier). Placement and shard install
    /// happen later, in [`ServiceWorld::distribute_media`].
    pub fn add_media_node(&mut self, link: LinkSpec) -> NodeId {
        let node = self.alloc_node(format!("media-{}", self.next_node));
        self.net
            .add_duplex(self.backbone, node, link, &mut self.rng);
        self.world.media_nodes.insert(node, MediaActor::new(node));
        node
    }

    /// Set the media-tier configuration the deployment will distribute
    /// content under.
    pub fn media_config(&mut self, cfg: MediaTierConfig) {
        self.world.media_cfg = cfg;
    }

    /// Start a deployment: a backbone switch node everything hangs off.
    pub fn new(seed: u64) -> Self {
        let rng = SimRng::seed_from_u64(seed);
        let mut net = Network::new();
        let backbone = NodeId::new(0);
        net.add_node(backbone, "backbone");
        WorldBuilder {
            net,
            world: ServiceWorld {
                servers: BTreeMap::new(),
                clients: VecMap::new(),
                media_nodes: BTreeMap::new(),
                media_cfg: MediaTierConfig::default(),
                stack_bytes: BTreeMap::new(),
                catalog: Vec::new(),
                standby_media: BTreeSet::new(),
                control: None,
                control_fence_drops: 0,
                control_scale_skips: 0,
                profile: None,
            },
            rng,
            next_node: 1,
            backbone,
            clients: Vec::new(),
        }
    }

    fn alloc_node(&mut self, name: String) -> NodeId {
        let id = NodeId::new(self.next_node);
        self.next_node += 1;
        self.net.add_node(id, name);
        id
    }

    /// Add a multimedia server attached to the backbone by `link`.
    pub fn add_server(&mut self, server_id: ServerId, link: LinkSpec, cfg: ServerConfig) -> NodeId {
        self.add_server_described(server_id, link, cfg, "general hypermedia server")
    }

    /// Add a server with a catalog description ("the kind of lessons that
    /// are stored in it", §6.2.1).
    pub fn add_server_described(
        &mut self,
        server_id: ServerId,
        link: LinkSpec,
        cfg: ServerConfig,
        description: impl Into<String>,
    ) -> NodeId {
        let node = self.alloc_node(format!("server-{}", server_id.raw()));
        self.net
            .add_duplex(self.backbone, node, link, &mut self.rng);
        let actor = ServerActor::new(node, server_id, cfg);
        self.world.servers.insert(node, actor);
        self.world
            .catalog
            .push((server_id, node, description.into()));
        node
    }

    /// Add a client attached to the backbone by `link` (the client's access
    /// link — congestion profiles on it drive most experiments).
    pub fn add_client(&mut self, link: LinkSpec, cfg: ClientConfig) -> NodeId {
        let node = self.alloc_node(format!("client-{}", self.next_node));
        self.net
            .add_duplex(self.backbone, node, link, &mut self.rng);
        self.clients.push((node, cfg));
        node
    }

    /// Direct access to the network under construction (e.g. to set
    /// congestion profiles on specific links).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The backbone node id.
    pub fn backbone(&self) -> NodeId {
        self.backbone
    }

    /// Finish: wire peer lists and the clients' one shared server directory
    /// from the catalog, compute routes, build the Sim.
    pub fn build(mut self, seed: u64) -> Sim<ServiceMsg, ServiceWorld> {
        let catalog = &self.world.catalog;
        for s in self.world.servers.values_mut() {
            let others = catalog.iter().map(|(_, n, _)| *n).filter(|n| *n != s.node);
            s.peers = others.collect();
        }
        let directory: Arc<BTreeMap<ServerId, NodeId>> =
            Arc::new(catalog.iter().map(|(s, n, _)| (*s, *n)).collect());
        self.world.clients = VecMap::with_capacity(self.clients.len());
        for (node, cfg) in self.clients {
            let client = ClientActor::new(node, cfg, directory.clone());
            self.world.clients.insert(node, client);
        }
        self.net.compute_routes();
        let mut sim = Sim::new(self.net, self.world, seed);
        // Provenance hops record a coarse per-message kind so gap critical
        // paths read as protocol steps, not opaque "msg" entries.
        sim.set_msg_kind(|m| m.provenance_kind());
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_topology() {
        let mut b = WorldBuilder::new(1);
        let s1 = b.add_server(
            ServerId::new(0),
            LinkSpec::lan(10_000_000),
            ServerConfig::default(),
        );
        let s2 = b.add_server(
            ServerId::new(1),
            LinkSpec::lan(10_000_000),
            ServerConfig::default(),
        );
        let c = b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
        let s3 = b.add_server(
            ServerId::new(2),
            LinkSpec::lan(10_000_000),
            ServerConfig::default(),
        );
        b.add_client(LinkSpec::lan(10_000_000), ClientConfig::default());
        let sim = b.build(1);
        // Routes exist between the client and every server.
        for s in [s1, s2, s3] {
            assert!(sim.net().path(c, s).is_some());
        }
        // Peers exclude self and keep the order the servers were added in.
        assert_eq!(sim.app().server(s1).peers, vec![s2, s3]);
        assert_eq!(sim.app().server(s2).peers, vec![s1, s3]);
        assert_eq!(sim.app().server(s3).peers, vec![s1, s2]);
        // One directory maps every server, and every client shares it.
        let directory = &sim.app().client(c).directory;
        let expected = [(0, s1), (1, s2), (2, s3)].map(|(id, n)| (ServerId::new(id), n));
        assert!(directory.iter().map(|(s, n)| (*s, *n)).eq(expected));
        assert_eq!(sim.app().clients.len(), 2);
        for client in sim.app().clients.values() {
            assert!(Arc::ptr_eq(&client.directory, directory));
        }
    }
}
