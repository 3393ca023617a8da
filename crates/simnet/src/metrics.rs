//! Measurement helpers used by the QoS managers and the experiment harness.
//!
//! The implementations live in [`hermes_obs::stats`] (one shared set of
//! primitives for the simulator, the metrics registry and the bench
//! harness); this module re-exports them under their historical simnet
//! paths so existing call sites keep working.

pub use hermes_obs::stats::{max_dur_by, mean_by, percentile, Accumulator, DurationHistogram};
