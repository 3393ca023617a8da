//! # hermes-server
//!
//! The multimedia-server side of the service (paper Fig. 3, left half):
//!
//! * [`database`] — the multimedia database (documents as markup +
//!   scenario), topic lists, local search, and per-kind media stores (the
//!   attached media servers' storage);
//! * [`flow`] — the flow scheduler computing flow scenarios (send start
//!   instants, rates, QoS requirements) from presentation scenarios;
//! * [`qos`] — the Server QoS Manager and grading engine (long-term
//!   recovery: video-first degradation, patient upgrades, stop-at-floor);
//! * [`grading`] — every regrade, whoever asks (client feedback through
//!   [`qos`], the degradation ladder, the fleet controller), as a
//!   simulator-free core that answers in [`grading::GradeOut`] data;
//! * [`lifecycle`] — each session's phase and liveness, session ids and
//!   the tracked-request dedup window, as a simulator-free core that
//!   answers in [`lifecycle::LifeOut`] data;
//! * [`admission`] — connection admission control with pricing classes;
//! * [`accounts`] — subscription, authentication and pricing primitives;
//! * [`placement`] — content placement over the distributed media-server
//!   tier (rendezvous-hashed replication) and load/RTT-aware replica
//!   selection;
//! * [`segcache`] — the byte-bounded LRU segment cache with
//!   interval-caching admission fronting the media tier;
//! * [`sharing`] — stream sharing for popular content: batching windows,
//!   patching decisions and the shared-group table (membership, patch
//!   cut-offs, epochs, cache pins) as a simulator-free core that answers in
//!   [`ShareOut`] data;
//! * [`fetch`] — the media-tier fetch client: per-stream pipelined segment
//!   windows, replica choice, breaker scoring, hedged duplicates and shed
//!   roll-back as a simulator-free core that answers in [`FetchOut`] data;
//! * [`overload`] — overload-control primitives: circuit-breaking replica
//!   health, bounded deadline-shedding request queues, CoDel-style pressure
//!   detection, and retry budgets.

#![warn(missing_docs)]

pub mod accounts;
pub mod admission;
pub mod database;
pub mod fetch;
pub mod flow;
pub mod grading;
pub mod lifecycle;
pub mod overload;
pub mod placement;
pub mod qos;
pub mod segcache;
pub mod sharing;

pub use accounts::{AccountsDb, Charge, SubscriptionForm, UserRecord};
pub use admission::{
    AdmissionController, AdmissionDecision, ClassStats, ConnectionRequest, PathCondition,
};
pub use database::{MultimediaDb, StoredDocument, TopicEntry};
pub use fetch::{
    ChunkDone, Demand, FetchOut, FetchTag, MediaTier, MediaTierConfig, MediaTierStats, ReadyFrames,
    RemoteStream, TierNet,
};
pub use flow::{compute_flow_scenario, FlowPlan, FlowScenario};
pub use overload::{
    BreakerState, BreakerTransition, NodeHealth, OverloadQueue, OverloadQueueStats,
    PressureDetector, QueuedRequest, ReplicaHealthMap, RetryBudget,
};
pub use placement::{PlacementMap, ReplicaSelector};
pub use qos::{ManagedStream, ServerQosManager};
pub use segcache::{SegmentCache, SegmentCacheStats, SegmentKey};
pub use sharing::{
    ShareDecision, ShareOut, SharedGroups, SharingMode, SharingPolicy, SharingStats,
};
