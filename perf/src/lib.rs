//! `fpb-perf`: the FPB simulator's end-to-end and per-layer host
//! benchmark.
//!
//! Four workloads drive the simulator through its public API and time it
//! from outside: an untimed pass, timed passes with tracing off (the
//! end-to-end metrics), then traced passes (the per-layer metrics). Every
//! pass must reproduce the untimed pass's results exactly. See
//! `README.md` for the workloads, metrics and bounds.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bench;
pub mod catalog;
pub mod compare;
pub mod json;
pub mod layers;
pub mod pass;
pub mod plan;
pub mod sink;
pub mod stats;
