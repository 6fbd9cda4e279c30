//! The cycle-driven simulation engine.
//!
//! Event-driven replay: time jumps between the earliest pending events
//! (bank completions and core arrivals). Between events the engine runs a
//! scheduling pass implementing the paper's controller policy: reads
//! first; writes only when no read is waiting; a write burst — which
//! blocks reads — whenever the write queue fills (§5.1); token admission
//! through the [`PowerManager`] for every write iteration.
//!
//! The engine is decomposed into lifecycle-stage modules, each an
//! `impl<S: Scheme> System<S>` block over the shared state below:
//!
//! - [`admission`]: the scheduling pass — queue management, burst
//!   bookkeeping, task creation, round splitting, write admission.
//! - [`iteration`]: per-event processing — iteration boundaries, IPM
//!   pre-reads, pausing/stall decisions, core-side arrivals.
//! - [`power`]: round-cap derivation, brownout windows, time accounting.
//! - [`completion`]: round convergence, worst-case draining, verify
//!   failure recovery, cancellation, bank reclaim.
//! - [`events`]: the next-event array stepper and its reference scan
//!   twin, the bank and core state both keep current, and lifecycle-event
//!   emission.
//!
//! The stages never write [`Metrics`] directly. Each stage boundary
//! emits a [`LifecycleEvent`], and emission folds it into the run's
//! metrics through [`Metrics::apply`] before forwarding it to the
//! caller's [`EventSink`] — so a recorded stream, folded again,
//! reproduces the run's metrics by construction.
//!
//! Scheme behavior enters only at stage boundaries, through the
//! [`Scheme`] lifecycle hooks; the stages themselves are scheme-agnostic
//! mechanism, checked against the [`crate::scheme::WriteLifecycle`]
//! transition table in debug builds.

mod admission;
mod completion;
mod events;
mod iteration;
mod power;

#[cfg(test)]
mod tests;

use std::collections::VecDeque;

use fpb_core::PowerManager;
use fpb_pcm::{
    DimmGeometry, FaultInjector, IntraLineWearLeveler, IterationSampler, WriteBufferPool,
};
use fpb_trace::{CoreTraceGenerator, Workload};
use fpb_types::{CoreId, Cycles, LineAddr, SimError, SimRng, SystemConfig};

use crate::bank::BankState;
use crate::exec::{default_jobs, parallel_map_indexed};
use crate::frontend::CoreState;
use crate::inspect::{EventSink, LifecycleEvent, NullSink};
use crate::metrics::Metrics;
use crate::request::{ReadTask, RoundSplitter, WriteTask};
use crate::scheme::{Scheme, SchemeSetup};

/// Run-scale options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Instructions each core retires before the run ends. The paper runs
    /// 1 B instructions; the benches here default to a reduced,
    /// shape-preserving budget.
    pub instructions_per_core: u64,
    /// Untimed LLC warm-up generator operations per core before
    /// measurement, on top of the deterministic prefill and hot-tier walk
    /// (`None` = automatic).
    pub warmup_accesses: Option<u64>,
    /// Run the full L1/L2/L3 cache stack per core instead of the
    /// LLC-level front end (slower; for full-fidelity studies).
    pub full_hierarchy: bool,
    /// Drift-scrub period in cycles: every period the controller issues
    /// background scrub reads over recently written lines (see
    /// [`fpb_pcm::DriftModel::scrub_interval_secs`] for deriving a period
    /// from a drift model). `None` disables scrubbing. Realistic periods
    /// are enormous (minutes); small values exist for stress testing.
    pub scrub_period_cycles: Option<u64>,
    /// Run the power manager's token-conservation auditor after every
    /// grant and release: violations are counted in
    /// [`Metrics::faults`]`.audit_violations`. Off by default (the audit
    /// re-sums every outstanding grant, which costs time).
    pub audit_ledger: bool,
}

impl SimOptions {
    /// Creates options with the given instruction budget and automatic
    /// warm-up.
    pub fn with_instructions(instructions_per_core: u64) -> Self {
        SimOptions {
            instructions_per_core,
            warmup_accesses: None,
            full_hierarchy: false,
            scrub_period_cycles: None,
            audit_ledger: false,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::with_instructions(1_000_000)
    }
}

/// One PCM bank plus its write-pausing parking spot.
#[derive(Debug)]
struct Bank {
    state: BankState,
    /// A write parked by write pausing so reads can be served.
    parked: Option<WriteTask>,
}

/// The simulated system: cores, controller, banks, power manager.
///
/// Generic over the [`Scheme`] driving it; defaults to the standard
/// [`SchemeSetup`] composition, so `System` without parameters keeps
/// meaning what it always did. Use [`run_workload`] unless you need
/// step-level control.
///
/// Also generic over the [`EventSink`] receiving lifecycle events;
/// defaults to [`NullSink`], whose disabled `ENABLED` constant turns
/// forwarding off (the engine still folds every event into its metrics).
/// Pass a live sink through [`System::with_cores_and_sink`] (or
/// [`run_workload_recorded`]) to capture the run's full event stream for
/// `fpb inspect`.
#[derive(Debug)]
pub struct System<S: Scheme = SchemeSetup, E: EventSink = NullSink> {
    cfg: SystemConfig,
    setup: S,
    cores: Vec<CoreState>,
    banks: Vec<Bank>,
    rdq: VecDeque<ReadTask>,
    pending_reads: VecDeque<ReadTask>,
    wrq: VecDeque<WriteTask>,
    overflow: VecDeque<WriteTask>,
    power: PowerManager,
    geom: DimmGeometry,
    sampler: IterationSampler,
    wear: Option<IntraLineWearLeveler>,
    data_rng: SimRng,
    write_rng: SimRng,
    now: Cycles,
    burst: bool,
    bus_free_at: Cycles,
    next_write_id: u64,
    target_instr: u64,
    cap_total: Option<u64>,
    cap_chip: Option<u64>,
    /// Ring of recently written lines, the scrub candidates (drifting
    /// intermediate levels live where writes happened).
    recent_writes: VecDeque<LineAddr>,
    scrub_period: Option<u64>,
    next_scrub_at: Cycles,
    /// Fault injector, present only when any fault knob is nonzero — a
    /// fully disabled fault config leaves the engine bit-for-bit identical
    /// to a build without the fault subsystem.
    faults: Option<FaultInjector>,
    /// Reusable round-splitting buffers (every dirty eviction is split;
    /// the grouping scratch must not be reallocated per write).
    splitter: RoundSplitter,
    /// Free-list of write-buffer storage recycled from completed writes
    /// (the write path allocates nothing once the pool is primed).
    pool: WriteBufferPool,
    /// Next event time per source: banks `0..banks`, then cores
    /// (`Cycles::MAX` = none). Kept by `sync_bank` and `sync_core`.
    next_at: Vec<Cycles>,
    /// Bit `b` set while bank `b` is `Writing` (kept by `sync_bank`).
    writing_mask: u64,
    /// Bit `b` set while bank `b` is token-starved (`WriteStalled`,
    /// `AwaitingRound`) or holds a paused write (kept by `sync_bank`).
    parked_mask: u64,
    /// Cores that have retired their budget (kept by `schedule_core`).
    cores_done: usize,
    /// When the current brownout window began (drives degraded mode).
    brownout_since: Option<Cycles>,
    /// Degraded mode: brownout persisted past the configured threshold, so
    /// new writes are issued in SLC fallback until the window ends.
    degraded: bool,
    /// The fold of every event emitted so far ([`Metrics::apply`]); the
    /// engine writes its results nowhere else.
    metrics: Metrics,
    /// Receives each event after the fold (the [`NullSink`] by default).
    sink: E,
}

/// Sentinel "core" index marking a background scrub read (no core to
/// wake on completion).
const SCRUB_CORE: usize = usize::MAX;

/// Bank `b` as lifecycle events record it.
#[expect(
    clippy::cast_possible_truncation,
    reason = "`SystemConfig::validate` caps banks at 64"
)]
#[inline]
fn bank_id(b: usize) -> u8 {
    b as u8
}

/// Simulates `workload` on `cfg` under `setup` and returns the metrics.
///
/// Deterministic: the same arguments always produce the same result.
///
/// # Examples
///
/// ```
/// use fpb_sim::{run_workload, SchemeSetup, SimOptions};
/// use fpb_trace::catalog;
/// use fpb_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let wl = catalog::workload("xal_m").unwrap();
/// let opts = SimOptions::with_instructions(30_000);
/// let m = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts);
/// assert_eq!(m.instructions_per_core, 30_000);
/// ```
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_workload<S: Scheme + Clone>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
) -> Metrics {
    System::new(workload, cfg, setup, opts).run()
}

/// Like [`run_workload`] but returning engine failures (scheduling
/// deadlocks, config errors) as [`SimError`] instead of panicking — the
/// API for callers that must degrade gracefully, e.g. the CLI.
///
/// # Examples
///
/// ```
/// use fpb_sim::{try_run_workload, SchemeSetup, SimOptions};
/// use fpb_trace::catalog;
/// use fpb_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let wl = catalog::workload("xal_m").unwrap();
/// let opts = SimOptions::with_instructions(30_000);
/// let m = try_run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts).unwrap();
/// assert_eq!(m.instructions_per_core, 30_000);
/// ```
pub fn try_run_workload<S: Scheme + Clone>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
) -> Result<Metrics, SimError> {
    cfg.validate()?;
    System::new(workload, cfg, setup, opts).try_run()
}

/// Builds and warms the per-core front ends for a workload. Warm-up cost
/// dominates short runs, and warmed cores depend only on the workload and
/// system config — sweeping many schemes over one workload should warm
/// once and pass clones to [`run_workload_warmed`].
///
/// Warms on up to [`default_jobs`] threads; see [`warm_cores_jobs`].
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn warm_cores(workload: &Workload, cfg: &SystemConfig, opts: &SimOptions) -> Vec<CoreState> {
    warm_cores_jobs(workload, cfg, opts, default_jobs())
}

/// Like [`warm_cores`], building and warming the cores on up to `jobs`
/// threads of the [`parallel_map_indexed`] pool (inline on one of its
/// workers, since pools never nest). Every draw from the root RNG happens
/// on the caller in core order: each core's generator fork, then its
/// warm-up fork. A pool item then allocates one core's caches and warms
/// them from its own fork, touching nothing shared, so the warmed cores
/// are bit-identical for any `jobs`.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn warm_cores_jobs(
    workload: &Workload,
    cfg: &SystemConfig,
    opts: &SimOptions,
    jobs: usize,
) -> Vec<CoreState> {
    #[expect(
        clippy::expect_used,
        reason = "construction-time validation with a documented `# Panics` contract"
    )]
    cfg.validate().expect("invalid system config");
    assert!(
        workload.per_core.len() >= cfg.cores as usize,
        "workload has {} profiles for {} cores",
        workload.per_core.len(),
        cfg.cores
    );
    let mut root = SimRng::seed_from(cfg.seed);
    let warmup = opts.warmup_accesses.unwrap_or(60_000);
    let forks: Vec<(CoreTraceGenerator, SimRng)> = (0..cfg.cores)
        .map(|i| {
            let gen = CoreTraceGenerator::for_core(
                workload.per_core[i as usize].clone(),
                CoreId::new(i),
                &mut root,
            );
            (gen, root.fork(0xF111 + u64::from(i)))
        })
        .collect();
    // Each item allocates its core's caches on the thread that warms
    // them, while the fresh pages are still in that CPU's cache: building
    // every core before warming any is measurably slower when the items
    // run inline (`--jobs 1`, a 1-vCPU host, or on a pool worker).
    parallel_map_indexed(&forks, jobs, |_, (gen, rng)| {
        #[expect(
            clippy::expect_used,
            reason = "construction-time validation (see `# Panics` above)"
        )]
        let mut core = CoreState::with_generator(gen.clone(), &cfg.cache, opts.full_hierarchy)
            .expect("invalid cache config");
        core.warm_up(warmup, &mut rng.clone());
        core
    })
}

/// Like [`run_workload`] but reusing pre-warmed cores (see
/// [`warm_cores`]). The cores are cloned, so the same warmed set can be
/// replayed under many schemes with identical initial cache state.
pub fn run_workload_warmed<S: Scheme + Clone>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
    cores: &[CoreState],
) -> Metrics {
    System::with_cores(workload, cfg, setup, opts, cores.to_vec()).run()
}

/// Like [`try_run_workload`] but recording the run's lifecycle event
/// stream into `sink`, returned alongside the metrics. The sink observes
/// the engine without perturbing it, so the metrics are bit-for-bit what
/// [`try_run_workload`] would report.
///
/// # Errors
///
/// Returns [`SimError`] for an invalid configuration or a scheduling
/// deadlock, exactly as [`try_run_workload`] does.
pub fn run_workload_recorded<S: Scheme + Clone, E: EventSink>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
    sink: E,
) -> Result<(Metrics, E), SimError> {
    cfg.validate()?;
    let mut sys = System::new_with_sink(workload, cfg, setup, opts, sink);
    while sys.try_step()? {}
    Ok(sys.finish_with_sink())
}

impl<S: Scheme + Clone> System<S> {
    /// Builds the system in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the workload does not provide a
    /// profile for every core.
    pub fn new(workload: &Workload, cfg: &SystemConfig, setup: &S, opts: &SimOptions) -> Self {
        let cores = warm_cores(workload, cfg, opts);
        Self::with_cores(workload, cfg, setup, opts, cores)
    }

    /// Builds the system around pre-warmed cores (see [`warm_cores`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_cores(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
        cores: Vec<CoreState>,
    ) -> Self {
        System::with_cores_and_sink(workload, cfg, setup, opts, cores, NullSink)
    }
}

impl<S: Scheme + Clone, E: EventSink> System<S, E> {
    /// Like [`System::new`] but recording lifecycle events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the workload does not provide a
    /// profile for every core.
    pub fn new_with_sink(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
        sink: E,
    ) -> Self {
        let cores = warm_cores(workload, cfg, opts);
        Self::with_cores_and_sink(workload, cfg, setup, opts, cores, sink)
    }

    /// Builds the system around pre-warmed cores and a lifecycle-event
    /// sink. The sink cannot change simulated results: the engine folds
    /// each event into its metrics before the sink sees it, and every
    /// event is built whatever the sink, except the per-step bank
    /// snapshot, which the fold ignores.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_cores_and_sink(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
        cores: Vec<CoreState>,
        sink: E,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time validation with a documented `# Panics` contract"
        )]
        cfg.validate().expect("invalid system config");
        let _ = workload;
        let geom = DimmGeometry::new(cfg.pcm.chips, cfg.pcm.cells_per_line());
        let mut power = PowerManager::new(setup.policy().clone(), &geom);
        if opts.audit_ledger {
            power.enable_audit();
        }
        // The fault stream forks off its own fresh root so enabling or
        // disabling injection can never perturb the data/write streams.
        let faults = if cfg.faults.any_injection_enabled() {
            Some(FaultInjector::new(
                cfg.faults.clone(),
                SimRng::seed_from(cfg.seed).fork(0xFA017),
            ))
        } else {
            None
        };
        let (cap_total, cap_chip) = power::round_caps(setup.policy());
        let banks = (0..cfg.pcm.banks)
            .map(|_| Bank {
                state: BankState::Idle,
                parked: None,
            })
            .collect();
        let ncores = cores.len();
        let cores_done = cores.iter().filter(|c| c.done).count();
        let mut sys = System {
            cores,
            banks,
            rdq: VecDeque::new(),
            pending_reads: VecDeque::new(),
            wrq: VecDeque::new(),
            overflow: VecDeque::new(),
            power,
            geom,
            sampler: IterationSampler::new(setup.iteration_model(&cfg.pcm.write_model)),
            wear: setup
                .wear_period()
                .map(|p| IntraLineWearLeveler::new(p, cfg.pcm.cells_per_line())),
            data_rng: SimRng::seed_from(cfg.seed).fork(0xDA7A),
            write_rng: SimRng::seed_from(cfg.seed).fork(0x9C3),
            now: Cycles::ZERO,
            burst: false,
            bus_free_at: Cycles::ZERO,
            next_write_id: 0,
            target_instr: opts.instructions_per_core,
            cap_total,
            cap_chip,
            recent_writes: VecDeque::new(),
            scrub_period: opts.scrub_period_cycles,
            next_scrub_at: Cycles::new(opts.scrub_period_cycles.unwrap_or(u64::MAX)),
            faults,
            splitter: RoundSplitter::new(),
            pool: WriteBufferPool::new(),
            next_at: vec![Cycles::MAX; cfg.pcm.banks as usize + ncores],
            writing_mask: 0,
            parked_mask: 0,
            cores_done,
            brownout_since: None,
            degraded: false,
            metrics: Metrics::default(),
            cfg: cfg.clone(),
            setup: setup.clone(),
            sink,
        };
        for ci in 0..sys.cores.len() {
            sys.sync_core(ci);
        }
        sys.emit(LifecycleEvent::RunStart {
            cores: cfg.cores,
            instructions_per_core: opts.instructions_per_core,
            chips: cfg.pcm.chips,
            banks: cfg.pcm.banks,
            total_lines: cfg.pcm.total_lines(),
            cells_per_chip_per_line: cfg.pcm.cells_per_chip_per_line() as u64,
            seed: cfg.seed,
        });
        sys
    }
}

impl<S: Scheme, E: EventSink> System<S, E> {
    /// Runs to completion and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics on an internal scheduling deadlock (a bug, not a workload
    /// property — round splitting guarantees forward progress). Use
    /// [`System::try_run`] to get the failure as a value instead.
    pub fn run(self) -> Metrics {
        match self.try_run() {
            Ok(m) => m,
            #[expect(
                clippy::panic,
                reason = "documented contract of this wrapper: re-raise `try_run`'s typed failure"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs to completion, returning engine failures as [`SimError`].
    pub fn try_run(mut self) -> Result<Metrics, SimError> {
        while self.try_step()? {}
        Ok(self.finish())
    }

    /// Advances the simulation by one event round: process everything due
    /// now, run a scheduling pass, and jump to the next event. Returns
    /// `false` once every core has retired its budget. Useful for
    /// white-box inspection between events; [`System::run`] is the
    /// batteries-included driver.
    ///
    /// # Panics
    ///
    /// Panics on an internal scheduling deadlock (a bug, not a workload
    /// property — round splitting guarantees forward progress). Use
    /// [`System::try_step`] to get the failure as a value instead.
    pub fn step(&mut self) -> bool {
        match self.try_step() {
            Ok(more) => more,
            #[expect(
                clippy::panic,
                reason = "documented contract of this wrapper: re-raise `try_step`'s typed failure"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`System::step`], returning a scheduling deadlock as
    /// [`SimError::Deadlock`] instead of panicking.
    pub fn try_step(&mut self) -> Result<bool, SimError> {
        let window_closed = self.begin_step();
        self.process_due_events();
        self.schedule();
        self.debug_check_derived();
        if self.cores_done == self.cores.len() {
            return Ok(false);
        }
        let pending = self.next_at.iter().copied().min();
        self.end_step(window_closed, pending.filter(|&t| t != Cycles::MAX))
    }

    /// [`System::try_step`] driven by the original O(banks + cores) scan
    /// stepper instead of the next-event array: every bank and core is
    /// visited for due work, and the next event time is a scan minimum.
    /// The two steppers are bit-for-bit identical; this one exists only
    /// as the oracle the differential tests compare [`System::try_step`]
    /// against. Drive a system with one stepper or the other, not both.
    pub fn try_step_reference(&mut self) -> Result<bool, SimError> {
        let window_closed = self.begin_step();
        self.process_bank_events();
        self.process_core_arrivals();
        self.schedule();
        self.debug_check_derived();
        if self.cores_done == self.cores.len() {
            return Ok(false);
        }
        let pending = self.next_event_time();
        self.end_step(window_closed, pending)
    }

    /// The stepper-independent head of a step: the per-step snapshot
    /// (live sinks only) and the brownout window update. Returns whether
    /// a brownout window closed at this step.
    fn begin_step(&mut self) -> bool {
        if E::ENABLED {
            // One snapshot per step, before any processing: the samples
            // of `Timeline::from_events`. The metrics fold ignores it, so
            // the bank scan runs only for a live sink.
            self.emit(LifecycleEvent::StepSnapshot {
                at: self.now.get(),
                bank_mask: self.bank_write_mask(),
                burst: self.burst,
                wrq: self.wrq.len() as u64,
                rdq: self.rdq.len() as u64,
            });
        }
        self.update_brownout()
    }

    /// Jumps time to the next event, `pending` (the earliest bank or core
    /// event) merged with the global ones. A deadlock is nothing pending
    /// at all, or no bank or core event after a brownout window closed:
    /// the whole budget was just offered to every waiting write and no
    /// write holds tokens, so the ledger can never change again, and the
    /// next windows only shrink it.
    fn end_step(&mut self, window_closed: bool, pending: Option<Cycles>) -> Result<bool, SimError> {
        let next = if window_closed && pending.is_none() {
            None
        } else {
            self.merge_global_events(pending)
        };
        let next = next.ok_or_else(|| SimError::Deadlock {
            cycle: self.now.get(),
            pending_writes: self.wrq.len() + self.overflow.len(),
            pending_reads: self.rdq.len() + self.pending_reads.len(),
        })?;
        debug_assert!(next > self.now, "time must advance");
        self.account(next);
        self.now = next;
        Ok(true)
    }

    /// Finalizes and returns the metrics (call after [`System::step`]
    /// returns `false`).
    pub fn finish(self) -> Metrics {
        self.finish_with_sink().0
    }

    /// Like [`System::finish`], also yielding the sink back so a
    /// recording caller can retrieve the captured event stream.
    pub fn finish_with_sink(mut self) -> (Metrics, E) {
        for ci in 0..self.cores.len() {
            let at = self.cores[ci].done_at.get();
            self.emit(LifecycleEvent::CoreDone {
                core: ci as u64,
                at,
            });
        }
        let at = self
            .cores
            .iter()
            .map(|c| c.done_at)
            .max()
            .unwrap_or(self.now)
            .get();
        self.emit(LifecycleEvent::RunEnd { at });
        (self.metrics, self.sink)
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Pool telemetry: `(reuses, fresh_allocations)` of the write-buffer
    /// pool, for tests asserting the steady-state write path stops
    /// allocating.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.reuses(), self.pool.fresh_allocations())
    }
}
