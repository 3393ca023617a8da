//! # hermes-service
//!
//! End-to-end service orchestration: the wire [`protocol`], the
//! [`server_actor`] and [`client_actor`] implementing both halves of paper
//! Fig. 3, the [`media_actor`] media-server nodes of the distributed media
//! tier, the [`world`] builder wiring them over the simulated broadband
//! network, and the [`hermes`] distance-education content layer (§6).
//!
//! A full on-demand session — connect, authenticate/subscribe, browse
//! topics, request a lesson, stream it with QoS feedback and grading,
//! follow links (including cross-server migration with suspend grace),
//! search the whole service and exchange tutor mail — runs as one
//! deterministic simulation.

#![warn(missing_docs)]

pub mod client_actor;
pub mod hermes;
pub mod media_actor;
pub mod protocol;
pub mod server_actor;
pub mod timers;
pub mod world;

pub use client_actor::{ClientActor, ClientConfig, Presentation};
pub use hermes::{install_course, install_figure2, lesson_markup, tutor_reply, LessonShape};
pub use hermes_server::{MediaTier, MediaTierConfig, MediaTierStats, RemoteStream, SharingStats};
pub use media_actor::{MediaActor, MediaNodeConfig, MediaNodeStats};
pub use protocol::{MailMessage, SearchHit, ServiceMsg, StackPath};
pub use server_actor::{ServerActor, ServerConfig, SessionState, StreamTx};
pub use world::{ServiceWorld, SubsystemProfile, WorldBuilder};
