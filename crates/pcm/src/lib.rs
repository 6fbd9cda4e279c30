//! Multi-level-cell phase-change-memory device model.
//!
//! This crate models everything that happens *inside* the PCM DIMM for the
//! FPB power-budgeting study:
//!
//! * [`cell`] — 2-bit MLC levels and per-level write characteristics.
//! * [`write_model`] — the program-and-verify iteration-count sampler
//!   (two-phase model from Table 1 of the paper).
//! * [`line_write`] — the state machine for one in-flight line write:
//!   RESET iteration(s), SET iterations, per-chip power demand per
//!   iteration, Multi-RESET grouping, truncation, cancellation.
//! * [`mapping`] — logical-cell-to-chip mappings: naïve, Vertical
//!   Interleaving (VIM, Eq. 2) and Braided Interleaving (BIM, Eq. 3).
//! * [`geometry`] — DIMM/chip/bank organization and per-chip demand math.
//! * [`charge_pump`] — the charge-pump area model (Eq. 1) used for the
//!   Table 3 overhead comparison.
//! * [`wear_level`] — intra-line wear leveling (the PWL baseline of §2.2).
//!
//! # Examples
//!
//! ```
//! use fpb_pcm::{ChangeSet, DimmGeometry, IterationSampler, LineWrite, MlcLevel};
//! use fpb_pcm::mapping::CellMapping;
//! use fpb_types::{MlcWriteModel, SimRng};
//!
//! let geom = DimmGeometry::new(8, 1024);
//! let mut rng = SimRng::seed_from(1);
//! let sampler = IterationSampler::new(MlcWriteModel::default());
//!
//! // A write that changes three cells.
//! let changes = ChangeSet::from_cells(vec![
//!     (0, MlcLevel::L01),
//!     (17, MlcLevel::L00),
//!     (900, MlcLevel::L11),
//! ]);
//! let write = LineWrite::new(&changes, &geom, CellMapping::Vim, &sampler, &mut rng, 1);
//! assert_eq!(write.total_changed(), 3);
//! assert!(write.total_iterations() >= 2);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cell;
pub mod charge_pump;
pub mod drift;
pub mod endurance;
pub mod faults;
pub mod geometry;
pub mod line_write;
pub mod mapping;
pub mod wear_level;
pub mod write_model;

#[cfg(test)]
mod proptests;

pub use cell::MlcLevel;
pub use charge_pump::ChargePump;
pub use drift::DriftModel;
pub use endurance::EnduranceTracker;
pub use faults::FaultInjector;
pub use geometry::DimmGeometry;
pub use line_write::{ChangeSet, IterKind, IterationDemand, LineWrite, WriteBufferPool};
pub use mapping::CellMapping;
pub use wear_level::IntraLineWearLeveler;
pub use write_model::IterationSampler;
