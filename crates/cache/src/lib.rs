//! Set-associative write-back cache hierarchy substrate.
//!
//! The FPB paper simulates the entire on-chip hierarchy — private L1 and L2
//! SRAM caches plus a private 32 MB/core off-chip DRAM L3 — in front of the
//! MLC PCM main memory. This crate provides that substrate:
//!
//! * [`set_assoc`] — a generic set-associative, write-back, write-allocate
//!   cache with true-LRU replacement.
//! * [`hierarchy`] — a per-core L1→L2→L3 composition that turns a core's
//!   byte-address access stream into PCM-level line fills and dirty
//!   write-backs.
//! * [`stats`] — hit/miss/eviction accounting.
//!
//! # Examples
//!
//! ```
//! use fpb_cache::{CoreCaches, HitLevel};
//! use fpb_types::CacheHierarchyConfig;
//!
//! let mut caches = CoreCaches::new(&CacheHierarchyConfig::default()).unwrap();
//! let out = caches.access(0x1000, false);
//! assert_eq!(out.level, HitLevel::Memory); // cold miss goes to PCM
//! assert_eq!(out.pcm_fills.len(), 1);
//!
//! let out = caches.access(0x1000, true); // now hot in L1
//! assert_eq!(out.level, HitLevel::L1);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod hierarchy;
pub mod set_assoc;
pub mod stats;

#[cfg(test)]
mod proptests;

pub use hierarchy::{CoreCaches, HierarchyOutcome, HitLevel};
pub use set_assoc::{AccessResult, SetAssocCache, Victim};
pub use stats::CacheStats;
