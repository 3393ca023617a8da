//! # hermes-control
//!
//! The closed-loop QoS control plane: a deterministic sim-time fleet
//! controller that ingests [`LoadReport`]s (node pressure verdicts, SLO
//! burn, media queue depths, per-session stream grades) and emits global
//! actuation commands back into the service layer.
//!
//! Where PRs 1–6 built purely *local* reactions — per-request admission
//! shedding, a per-server degradation ladder, per-replica circuit breakers —
//! this crate adds the first *global* decision layer (following Alaya et
//! al.'s measurement-driven distributed QoS management):
//!
//! * [`utility`] — the aggregate-utility model: per-stream utility weighted
//!   by media kind (audio above video, the paper's degrade-video-first rule
//!   expressed as a utility ordering) and pricing class, plus the pure
//!   next-step-down/up decision functions the property tests pin;
//! * [`controller`] — the [`FleetController`]: fleet-wide victim selection
//!   under per-class fairness budgets, anti-flap dwell and pressure
//!   hysteresis, a controller-set admission price, and the elastic
//!   media-node scale-out/in policy;
//! * [`report`] — the [`LoadReport`]: one reporter's signals as typed rows
//!   behind one `Arc`, built once per report period and shared by every
//!   copy, with an adapter from the older registry form;
//! * [`ha`] — controller high availability: the lease/K-missed-beats
//!   failure detector, strict-majority quorum arithmetic, and the
//!   [`Election`] state machine — lowest-live-id candidacy, a vote round
//!   over durable promises, fencing epochs and [`ControlSnapshot`] lease
//!   replication — as inputs in, a list of [`HaOut`] effects out.
//!
//! Everything here is pure policy over reports — no simulator or
//! network types — so the service layer owns transport (report, command
//! and election messages), timers and actuation, and tests and the bench
//! can drive the decision functions directly.

#![warn(missing_docs)]

pub mod controller;
pub mod ha;
pub mod report;
pub mod utility;

pub use controller::{
    names, ControlCommand, ControlPlan, ControlSnapshot, ControllerConfig, ControllerStats,
    FairnessBudget, FleetController, CONTROL_TICK, LEASE_BEAT, LEASE_TIMEOUT, REPORT_PERIOD,
    WARMUP,
};
pub use ha::{elect, majority, Election, HaMsg, HaOut, LeaseView, PeerFreshness};
pub use report::LoadReport;
pub use utility::{
    class_from_priority, class_multiplier, decode_kind, encode_kind, kind_weight, stream_utility,
    SessionView, StreamView,
};
