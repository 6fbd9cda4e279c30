//! Synthetic workload and memory-trace generation.
//!
//! The paper drives its simulator with PIN traces of SPEC CPU2006,
//! BioBench, MiBench and STREAM programs (Table 2). Those traces are not
//! redistributable, so this crate provides the documented substitution:
//! per-benchmark *parametric models* that generate memory-access streams
//! with the properties FPB is actually sensitive to —
//!
//! * read/write intensity (RPKI / WPKI per Table 2),
//! * working-set structure (hot reuse set + cold streaming/random traffic,
//!   so LLC-capacity sweeps behave),
//! * and per-write **data-change behaviour** (integer programs flip
//!   low-order bits within words; FP programs flip clustered mantissa bits;
//!   streaming kernels overwrite densely) — which determines cell-change
//!   counts (Fig. 2) and per-chip imbalance (the VIM/BIM distinction).
//!
//! # Examples
//!
//! ```
//! use fpb_trace::{catalog, CoreTraceGenerator};
//! use fpb_types::SimRng;
//!
//! let workload = catalog::workload("mcf_m").unwrap();
//! assert_eq!(workload.per_core.len(), 8);
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut gen = CoreTraceGenerator::new(workload.per_core[0].clone(), &mut rng);
//! let op = gen.next_op();
//! assert!(op.gap_instructions > 0);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod access;
pub mod catalog;
pub mod data_model;
pub mod generator;
pub mod profile;
pub mod validate;

#[cfg(test)]
mod proptests;

pub use access::TraceOp;
pub use catalog::Workload;
pub use data_model::{DataClass, DataProfile};
pub use generator::CoreTraceGenerator;
pub use profile::{TrafficTier, WorkloadProfile};
