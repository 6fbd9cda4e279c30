//! Fine-grained power budgeting for MLC PCM — the FPB paper's contribution.
//!
//! This crate implements every power-management scheme the paper evaluates,
//! behind one engine, [`PowerManager`]:
//!
//! * **Ideal** — no power restriction (the upper bound of Fig. 4).
//! * **DIMM-only** — Hay et al.'s heuristic: hold a write's full RESET
//!   token demand for its entire duration, bounded by the DIMM budget.
//! * **DIMM+chip** — additionally enforce per-chip charge-pump budgets
//!   (`PT_LCP = PT_DIMM × E_LCP / 8`, Eq. 4).
//! * **1.5×/2× local** — scaled chip budgets (the area-hungry alternative).
//! * **FPB-IPM** (§3) — allocate tokens *per write iteration*, reclaiming
//!   unused power after every RESET/SET pulse using the device's lagged
//!   finished-cell reports.
//! * **Multi-RESET** (§3.2) — split a blocked write's RESET into up to
//!   `m` lower-power group-RESETs.
//! * **FPB-GCP** (§4) — a global charge pump that serves hot-chip segments
//!   by borrowing idle chips' budget at efficiency `E_GCP` (Eqs. 5–6),
//!   with a capacity of one LCP.
//!
//! # Examples
//!
//! ```
//! use fpb_core::{PowerManager, PowerPolicyConfig, WriteId};
//! use fpb_pcm::{CellMapping, ChangeSet, DimmGeometry, IterationSampler, LineWrite, MlcLevel};
//! use fpb_types::{MlcWriteModel, PowerConfig, SimRng};
//!
//! let geom = DimmGeometry::new(8, 1024);
//! let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
//! let mut pm = PowerManager::new(cfg, &geom);
//!
//! let sampler = IterationSampler::new(MlcWriteModel::default());
//! let mut rng = SimRng::seed_from(1);
//! let changes = ChangeSet::from_cells(vec![(0, MlcLevel::L01), (9, MlcLevel::L11)]);
//! let mut w = LineWrite::new(&changes, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
//!
//! let id = WriteId::new(1);
//! assert!(pm.try_admit(id, &mut w));
//! w.advance();
//! assert!(pm.try_advance(id, &w));
//! pm.release(id);
//! ```

// clippy::unwrap_used comes from [workspace.lints]; unwraps in tests are
// fine, only hot-path code must justify them.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod budget;
pub mod config;
pub mod ledger;
pub mod manager;
pub mod projection;
pub mod stats;

pub use config::{GcpParams, PowerPolicyConfig, SchemeKind};
pub use ledger::{BrownoutHold, Grant, Ledger};
pub use manager::{PowerManager, WriteId};
pub use projection::{effective_config_desc, ConfigSensitivity};
pub use stats::PowerStats;
