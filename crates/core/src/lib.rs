//! # hermes-core
//!
//! Foundational types for **Hermes-OD**, a reproduction of *"On-Demand
//! Hypermedia/Multimedia Service over Broadband Networks"* (Bouras et al.,
//! HPDC-5, 1996) and its extended journal version.
//!
//! This crate holds the paper's conceptual model, independent of any
//! substrate:
//!
//! * [`time`] — exact microsecond time arithmetic ([`MediaTime`],
//!   [`MediaDuration`]);
//! * [`ids`] — strongly-typed identifier namespaces;
//! * [`media_kind`] — media types and encodings of the protocol stack;
//! * [`layout`] — spatial placement (the `WHERE`/`HEIGHT`/`WIDTH` model);
//! * [`interval`] — temporal intervals with Allen's relations;
//! * [`scenario`] — the pre-orchestrated presentation scenario (content /
//!   layout / synchronization / interconnection abstractions);
//! * [`schedule`] — the client-side playout structures `E_i` and timeline;
//! * [`skew`] — the short-term skew-repair policy;
//! * [`grading`] — grade levels and the long-term grading policy;
//! * [`qos`] — QoS requirements, measurements and pricing classes;
//! * [`ewma`] — shared EWMA smoothing and CoDel-style pressure detection
//!   (one implementation for local reactions and the fleet controller);
//! * [`vecmap`] — a small ordered map stored as one sorted `Vec`;
//! * [`error`] — shared error types.

#![warn(missing_docs)]

pub mod error;
pub mod ewma;
pub mod grading;
pub mod ids;
pub mod interval;
pub mod layout;
pub mod media_kind;
pub mod qos;
pub mod scenario;
pub mod schedule;
pub mod skew;
pub mod time;
pub mod vecmap;

pub use error::{ServiceError, ServiceResult};
pub use ewma::{smooth_jitter, Ewma, PressureDetector};
pub use grading::{GradeDecision, GradeLevel, GradingHysteresis, GradingOrder};
pub use ids::{
    ComponentId, ConnectionId, DocumentId, MediaServerId, NodeId, ServerId, SessionId, StreamId,
    UserId,
};
pub use interval::{AllenRelation, Interval};
pub use layout::{HeadingLevel, Region, TextStyle};
pub use media_kind::{Encoding, MediaKind};
pub use qos::{PricingClass, QosMeasurement, QosRequirement};
pub use scenario::{
    ComponentContent, HyperLink, LinkKind, LinkTarget, MediaComponent, MediaSource, Scenario,
    ScenarioIssue, SyncGroup, TextBlock, TextRun,
};
pub use schedule::{PlayoutEntry, PlayoutSchedule, TimelineEvent, TimelineEventKind};
pub use skew::SkewPolicy;
pub use time::{MediaDuration, MediaTime};
pub use vecmap::VecMap;
