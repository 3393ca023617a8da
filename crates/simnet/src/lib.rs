//! # hermes-simnet
//!
//! A deterministic discrete-event network simulator — the "broadband
//! network" substrate the paper's testbed provided. The service's mechanisms
//! (prefill windows, skew control, media grading, admission) all react to
//! delay, jitter and loss; this crate generates those with controlled,
//! seedable distributions:
//!
//! * [`rng`] — seeded RNG with uniform, Bernoulli and exponential sampling;
//! * [`models`] — exponential jitter, loss models (Bernoulli, Gilbert–Elliott)
//!   and background-congestion profiles;
//! * [`topology`] — nodes, bandwidth-limited queued links, static routing
//!   and per-connection bandwidth reservations;
//! * [`sim`] — the event engine with datagram and reliable transports
//!   (store-and-forward, per-hop queueing, ARQ with backoff);
//! * [`faults`] — deterministic fault injection: scheduled node
//!   crash/restart, link partition/heal and link flapping;
//! * [`chaos`] — seeded random fault-plan generation (crash storms,
//!   rolling restarts, partitions, flaps, brownouts with correlated
//!   bursts) and delta-debugging shrinking of failing plans;
//! * [`Accumulator`] and [`DurationHistogram`] — the measurement helpers of
//!   [`hermes_obs::stats`], re-exported for the QoS managers.
//!
//! The engine carries a [`hermes_obs::Obs`] capture: application callbacks
//! record sim-time-stamped events and spans through [`SimApi`], the engine
//! itself traces injected faults and reliable-transport abandons, and
//! [`Sim::publish_metrics`] snapshots the engine counters into the unified
//! metrics registry.

#![warn(missing_docs)]

pub mod chaos;
pub mod faults;
pub mod models;
pub mod rng;
pub mod sim;
pub mod topology;

pub use chaos::{ChaosProfile, ChaosTargets};
pub use faults::{FaultEvent, FaultKind, FaultPlan, PlanError};
pub use hermes_obs::stats::{Accumulator, DurationHistogram};
pub use hermes_obs::{self as obs, Event, Labels, Obs, Severity, SpanId};
pub use models::{CongestionEpoch, CongestionProfile, JitterModel, LossModel, LossState};
pub use rng::SimRng;
pub use sim::{App, Sim, SimApi, SimStats, WireSize};
pub use topology::{Link, LinkOutcome, LinkSpec, LinkStats, Network};
