//! # FPB: Fine-grained Power Budgeting for MLC PCM
//!
//! A complete, from-scratch reproduction of *"FPB: Fine-grained Power
//! Budgeting to Improve Write Throughput of Multi-level Cell Phase Change
//! Memory"* (Jiang, Zhang, Childers, Yang — MICRO 2012), as a Rust
//! workspace: the MLC PCM device model, the cache hierarchy and memory
//! controller it sits behind, synthetic versions of the paper's workloads,
//! every power-budgeting scheme the paper evaluates, and a bench harness
//! that regenerates every table and figure.
//!
//! This crate re-exports the workspace's public API under stable paths:
//!
//! * [`types`] — configuration ([`types::SystemConfig`] is Table 1),
//!   cycles, tokens, deterministic RNG.
//! * [`pcm`] — the MLC PCM device: program-and-verify line writes, cell
//!   mappings (NE/VIM/BIM), charge pumps, wear leveling.
//! * [`power`] — the paper's contribution: the token ledger and the
//!   FPB-IPM / Multi-RESET / FPB-GCP schemes plus all baselines.
//! * [`cache`] — set-associative write-back caches and the L1/L2/L3
//!   hierarchy.
//! * [`trace`] — the Table 2 workload catalog and trace generators.
//! * [`sim`] — the cycle-driven system simulator and named scheme setups.
//!
//! ## Quickstart
//!
//! Run one workload under the paper's baseline and under full FPB, and
//! compare (this is `examples/quickstart.rs`, trimmed):
//!
//! ```
//! use fpb::sim::{run_workload, SchemeSetup, SimOptions};
//! use fpb::trace::catalog;
//! use fpb::types::SystemConfig;
//!
//! let cfg = SystemConfig::default();                 // Table 1
//! let workload = catalog::workload("mcf_m").unwrap(); // Table 2
//! let opts = SimOptions::with_instructions(50_000);
//!
//! let baseline = run_workload(&workload, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts);
//! let fpb = run_workload(&workload, &cfg, &SchemeSetup::fpb(&cfg), &opts);
//! assert!(fpb.speedup_over(&baseline) > 1.0);
//! ```
//!
//! ## Reproducing the paper
//!
//! `cargo bench -p fpb-bench` regenerates every table and figure and
//! checks the paper's claims about each; `cargo bench -p fpb-bench --
//! fig16` prints only Figure 16. See `EXPERIMENTS.md` for paper-vs-measured
//! numbers and `DESIGN.md` for the system inventory and the documented
//! substitutions (synthetic traces for PIN traces, the two-population
//! write-iteration model, etc.).

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cli;

pub use fpb_cache as cache;
pub use fpb_core as power;
pub use fpb_pcm as pcm;
pub use fpb_sim as sim;
pub use fpb_trace as trace;
pub use fpb_types as types;

/// Version of the FPB reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_reach_all_crates() {
        let cfg = crate::types::SystemConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(crate::pcm::CellMapping::Bim.label(), "BIM");
        assert!(crate::trace::catalog::workload("mcf_m").is_some());
        let setup = crate::sim::SchemeSetup::fpb(&cfg);
        assert!(setup.policy.validate().is_ok());
        assert!(!crate::VERSION.is_empty());
    }
}
