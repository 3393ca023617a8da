//! # hermes-media
//!
//! Media substrate: codec rate models, deterministic frame generation, the
//! per-server media store and the Media Stream Quality Converter.
//!
//! Real codecs are replaced by *rate models* (see DESIGN.md): the service
//! schedules, transmits, buffers and grades frames of known size and
//! deadline, never pixel data, so a model that reproduces each encoding's
//! frame cadence, size distribution and quality ladder exercises exactly the
//! same code paths.

#![warn(missing_docs)]

pub mod codec;
pub mod convert;
pub mod frames;
pub mod segment;
pub mod store;

pub use codec::{CodecModel, LevelParams};
pub use convert::QualityConverter;
pub use frames::{FrameSource, MediaFrame};
pub use segment::{segment_bytes, segment_frames, segment_of_frame, SegmentFrame};
pub use store::{MediaObject, MediaStore};
