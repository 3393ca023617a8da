//! # hermes-bench
//!
//! The experiment harness behind the `exp_*` binaries (one per paper
//! figure/table/claim — see DESIGN.md's reproduction index): the
//! single-session streaming harness, the crowd scenario every load
//! experiment builds, drives, tallies and judges its world with, the chaos
//! harness, table printing and parallel seed sweeps. Host cost is measured
//! from outside, by `benchmark/`.

#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod crowd;
pub mod harness;
pub mod tables;
pub mod workload;

pub use cli::{ExpOpts, Sink};
pub use crowd::{judge_world, Crowd, FlashCrowd, PoolRun, Scenario, Tally};
pub use harness::{
    clip_lesson, run_seeds, run_streaming_session, run_streaming_session_traced, standard_lesson,
    StreamingMetrics, StreamingParams,
};
pub use hermes_simnet::obs::{max_dur_by, mean_by, percentile};
pub use tables::{fmt_dur_ms, Table};
pub use workload::{poisson_arrivals, session_arrivals, Arrival, ZipfCatalog};
