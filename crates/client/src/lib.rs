//! # hermes-client
//!
//! The browser/client side of the service (paper Fig. 3, right half):
//!
//! * [`buffers`] — per-stream media buffers with the *media time window*
//!   prefill, watermarks and the drop/duplicate repairs;
//! * [`playout`] — the deadline-driven presentation engine with occupancy
//!   repairs and intermedia skew enforcement (short-term recovery);
//! * [`qos_manager`] — the Client QoS Manager producing feedback reports;
//! * [`app_state`] — the application state machine of paper Fig. 4;
//! * [`presentation`] — the headless desktop renderer;
//! * [`concurrent`] — wall-clock thread-per-stream playout (§3.1's
//!   algorithm, literally).

#![warn(missing_docs)]

pub mod app_state;
pub mod buffers;
pub mod concurrent;
pub mod playout;
pub mod presentation;
pub mod qos_manager;

pub use app_state::{all_legal_transitions, transition, AppEvent, AppState, AppStateMachine};
pub use buffers::{BufferConfig, BufferState, BufferStats, MediaBuffer};
pub use playout::{
    PlayoutConfig, PlayoutEngine, PlayoutEvent, PlayoutEventKind, StreamPlayout,
    StreamPlayoutStats, StreamStatus,
};
pub use presentation::{desktop_at, render_text_blocks, storyboard, DesktopItem};
pub use qos_manager::{ClientQosManager, FeedbackRow, StreamCondition};
