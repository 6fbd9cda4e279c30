//! Cycle-driven MLC PCM memory-subsystem simulator.
//!
//! Ties the substrates together into the paper's evaluation platform
//! (Figure 1): 8 in-order cores replay workload traces closed-loop through
//! private DRAM LLCs into a memory controller with read/write queues,
//! read-first + write-burst scheduling, and an 8-bank / 8-chip MLC PCM
//! DIMM whose writes are budgeted by an [`fpb_core::PowerManager`].
//!
//! * [`request`] — read/write tasks, multi-round splitting of oversized
//!   writes (§3.2's multi-round fallback).
//! * [`bank`] — per-bank state machines (reading, write iterations,
//!   stalls, pauses).
//! * [`frontend`] — per-core trace replay + LLC.
//! * [`scheme`] — the [`Scheme`] plugin trait, the composable
//!   [`SchemeSetup`], the spec grammar, and the [`SchemeRegistry`]
//!   resolving spec strings for every figure.
//! * [`engine`] — the event loop, split into lifecycle stage modules.
//! * [`inspect`] — the event-sourced lifecycle log: typed
//!   [`inspect::LifecycleEvent`]s emitted through an [`inspect::EventSink`],
//!   the durable recorder, and the record/replay time-travel debugger
//!   behind `fpb inspect`.
//! * [`metrics`] — CPI, write throughput, burst residency, power stats.
//! * [`exec`] — the worker pool fanning short independent maps across
//!   threads.
//! * [`supervise`] — the pool every sweep runs on: panic isolation,
//!   deadlines, quarantine, cancellation.
//! * [`store`] — the one checksummed line codec every durable file is
//!   built on: framing, CRC-32, the torn-tail scan, fsync'd appends.
//! * [`journal`] — the durable fsync'd checkpoint log behind
//!   `fpb sweep --journal/--resume`.
//! * [`resultcache`] — the persistent point-result cache
//!   (`target/fpb-sweep-cache.v1`) that warm-starts repeated sweeps.
//!
//! # Examples
//!
//! ```
//! use fpb_sim::{run_workload, SchemeSetup, SimOptions};
//! use fpb_trace::catalog;
//! use fpb_types::SystemConfig;
//!
//! let cfg = SystemConfig::default();
//! let wl = catalog::workload("cop_m").unwrap();
//! let opts = SimOptions::with_instructions(40_000);
//! let m = run_workload(&wl, &cfg, &SchemeSetup::ideal(&cfg), &opts);
//! assert!(m.cycles > 0);
//! ```

// clippy::unwrap_used comes from [workspace.lints]; unwraps in tests are
// fine, only hot-path code must justify them.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bank;
pub mod engine;
pub mod exec;
pub mod frontend;
pub mod inspect;
pub mod journal;
pub mod metrics;
pub mod report;
pub mod request;
pub mod resultcache;
pub mod scheme;
pub mod store;
pub mod supervise;
pub mod sweep;
pub mod timeline;

pub use engine::{run_workload, run_workload_recorded, try_run_workload, SimOptions, System};
pub use exec::{default_jobs, effective_workers, parallel_map_indexed, schedule_by_cost};
pub use inspect::{EventSink, LifecycleEvent, MemorySink, NullSink};
pub use journal::{JournalError, JournalHeader, JournalWriter};
pub use metrics::{FaultMetrics, Metrics};
pub use request::{ReadTask, WriteTask};
pub use resultcache::{ResultCache, DEFAULT_CACHE_PATH};
pub use scheme::{Scheme, SchemeError, SchemeRegistry, SchemeSetup};
pub use store::StoreError;
pub use supervise::{CancelToken, JobOutcome, SupervisePolicy, SuperviseReport};
pub use timeline::{RenderError, Timeline};
