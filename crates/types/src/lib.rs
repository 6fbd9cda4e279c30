//! Shared foundation types for the FPB MLC-PCM simulator.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`Cycles`] — simulation time in CPU cycles (4 GHz per Table 1 of the
//!   paper).
//! * [`LineAddr`], [`CoreId`], [`BankId`], [`ChipId`] — address/identity
//!   newtypes that make it impossible to confuse a bank with a chip.
//! * [`Tokens`] — fixed-point power tokens (1 token = the RESET power of one
//!   MLC cell; SET pulses consume fractional tokens).
//! * [`config`] — the baseline system configuration (Table 1) plus every
//!   knob the paper's design-space exploration turns.
//! * [`rng`] — a deterministic, seedable, forkable PRNG so every experiment
//!   is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use fpb_types::{Cycles, Tokens};
//!
//! let reset = Cycles::new(500);
//! let set = Cycles::new(1000);
//! assert_eq!(reset + set, Cycles::new(1500));
//!
//! // A RESET on 50 cells costs 50 tokens; the following SET costs half.
//! let reset_cost = Tokens::from_cells(50);
//! let set_cost = reset_cost.div_ratio(2);
//! assert_eq!(set_cost, Tokens::from_cells(25));
//! ```

// Narrowing casts and float equality are clippy's to check; CI's `clippy
// -D warnings` makes these errors, and each exception is an
// `#[expect(..., reason = "...")]` at the site. Tests are exempt.
#![warn(
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation,
        clippy::float_cmp,
        reason = "tests unwrap their own fixtures and assert exact values"
    )
)]

pub mod config;
pub mod error;
pub mod ids;
pub mod power;
pub mod rng;
pub mod time;

#[cfg(test)]
mod proptests;

pub use config::{
    CacheHierarchyConfig, FaultConfig, MlcLevelModel, MlcWriteModel, PcmConfig, PowerConfig,
    QueueConfig, SystemConfig,
};
pub use error::{ConfigError, LedgerDomain, LedgerError, SimError};
pub use ids::{BankId, ChipId, CoreId, LineAddr};
pub use power::Tokens;
pub use rng::SimRng;
pub use time::Cycles;
