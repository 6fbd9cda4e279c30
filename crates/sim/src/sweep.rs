//! Parameter-sweep driver: run a grid of configurations over a workload
//! and collect labeled metrics, warming each workload/config pair once.
//!
//! This is the machinery behind the §6.4 design-space exploration and the
//! CLI's `sweep` subcommand; downstream users point it at their own
//! workloads.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fpb_core::effective_config_desc;
use fpb_types::SystemConfig;

use crate::engine::{run_workload_warmed, warm_cores_jobs, SimOptions};
use crate::exec::parallel_map_indexed;
use crate::frontend::CoreState;
use crate::journal::{
    decode_point, encode_point, JournalError, JournalHeader, JournalMode, JournalWriter,
};
use crate::metrics::{json_string, Metrics};
use crate::resultcache::ResultCache;
use crate::scheme::{Scheme, SchemeRegistry, SchemeSetup, SchemeSpec};
use crate::store::fingerprint64;
use crate::supervise::{supervise_map_ordered, CancelToken, JobOutcome, SupervisePolicy};
use fpb_trace::Workload;

/// One labeled variant of an axis: a point label and the configuration
/// transformer that produces it.
///
/// Transformers are `Send + Sync` so a sweep can be fanned across worker
/// threads (they are pure config rewrites; all built-in axes qualify).
pub type Variant = (
    String,
    Box<dyn Fn(SystemConfig) -> SystemConfig + Send + Sync>,
);

/// One axis of a sweep: a label and a configuration transformer.
pub struct Axis {
    /// Axis name (becomes part of each point's label).
    pub name: &'static str,
    /// Labeled configuration variants.
    pub variants: Vec<Variant>,
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("variants", &self.variants.len())
            .finish()
    }
}

impl Axis {
    /// Line-size axis (Fig. 19's values by default).
    pub fn line_bytes(values: &[u32]) -> Axis {
        Axis {
            name: "line",
            variants: values
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(SystemConfig) -> SystemConfig + Send + Sync> =
                        Box::new(move |c: SystemConfig| c.with_line_bytes(v));
                    (format!("{v}B"), f)
                })
                .collect(),
        }
    }

    /// LLC-capacity axis (Fig. 20).
    pub fn llc_mib(values: &[u32]) -> Axis {
        Axis {
            name: "llc",
            variants: values
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(SystemConfig) -> SystemConfig + Send + Sync> =
                        Box::new(move |c: SystemConfig| c.with_llc_mib(v));
                    (format!("{v}M"), f)
                })
                .collect(),
        }
    }

    /// DIMM-token axis (Fig. 22).
    pub fn pt_dimm(values: &[u64]) -> Axis {
        Axis {
            name: "pt",
            variants: values
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(SystemConfig) -> SystemConfig + Send + Sync> =
                        Box::new(move |c: SystemConfig| c.with_pt_dimm(v));
                    (format!("{v}t"), f)
                })
                .collect(),
        }
    }

    /// GCP-efficiency axis (Figs. 11/15/16).
    pub fn e_gcp(values: &[f64]) -> Axis {
        Axis {
            name: "egcp",
            variants: values
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(SystemConfig) -> SystemConfig + Send + Sync> =
                        Box::new(move |c: SystemConfig| c.with_gcp_efficiency(v));
                    (format!("{v}"), f)
                })
                .collect(),
        }
    }
}

/// One sweep result point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `axis=variant` labels joined with `,`, plus the scheme label.
    pub label: String,
    /// Metrics of the scheme under this configuration.
    pub metrics: Metrics,
    /// Metrics of the baseline scheme under the same configuration.
    pub baseline: Metrics,
}

impl SweepPoint {
    /// Speedup of the scheme over the baseline at this point (Eq. 7).
    pub fn speedup(&self) -> f64 {
        self.metrics.speedup_over(&self.baseline)
    }
}

/// Controls the two-level result-reuse ladder of a sweep.
///
/// Level 1 (semantic dedup) shares engine runs *within* one sweep:
/// every run is keyed by its unit description — workload, options, the
/// scheme's *effective* slice of the config
/// ([`effective_config_desc`] under the setup's declared
/// [`Scheme::sensitivity`]), and the built setup itself. Points whose
/// keys collide form an equivalence class; one representative simulates
/// and the rest splice its [`Metrics`]. Baseline runs dedup the same
/// way — on power-axis grids they are where the redundancy lives (a
/// power-blind baseline collapses the whole axis into one run).
///
/// Level 2 (the persistent [`ResultCache`]) shares runs *across*
/// sweeps, keyed by the same unit descriptions — so it is only
/// consulted when dedup is on.
///
/// Reuse can never change results: metrics round-trip exactly through
/// the cache, and a shared run is bit-for-bit the run every member
/// point would have done itself (engine determinism). Sweep JSON is
/// byte-identical with reuse on or off; CI gates on the comparison.
#[derive(Debug, Clone)]
pub struct ReuseOptions {
    /// Enable level 1: share runs whose unit descriptions collide.
    /// Off = every point simulates scheme and baseline itself, exactly
    /// the historical work profile (and the cache is ignored).
    pub dedup: bool,
    /// Level 2: persistent result-cache path (`None` disables it).
    pub cache: Option<PathBuf>,
}

impl Default for ReuseOptions {
    /// Dedup on, no persistent cache.
    fn default() -> Self {
        ReuseOptions {
            dedup: true,
            cache: None,
        }
    }
}

impl ReuseOptions {
    /// Both levels off (`--no-result-cache`).
    pub fn disabled() -> Self {
        ReuseOptions {
            dedup: false,
            cache: None,
        }
    }
}

/// What the reuse ladder saved in one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Engine runs a reuse-free sweep would perform (two per point —
    /// scheme and baseline — over the points not restored from a
    /// journal).
    pub runs_total: usize,
    /// Distinct units after semantic dedup.
    pub runs_unique: usize,
    /// Units answered by the persistent cache.
    pub cache_hits: usize,
    /// Units actually dispatched to the engine this run.
    pub simulated: usize,
}

impl ReuseStats {
    /// Collapse factor of level 1: runs per unique unit (1.0 when
    /// nothing dedups, or dedup is off).
    pub fn dedup_ratio(&self) -> f64 {
        if self.runs_unique == 0 {
            1.0
        } else {
            self.runs_total as f64 / self.runs_unique as f64
        }
    }
}

/// One deduplicated engine run: a representative grid point and the
/// setup built against its config. Every member point of the unit's
/// equivalence class splices the representative's metrics.
struct SimUnit {
    /// Dedup/cache key — see [`unit_desc`].
    desc: String,
    /// Representative grid index (the first point to intern the unit).
    rep: usize,
    /// Setup built against the representative's config.
    setup: SchemeSetup,
}

/// The unit plan for a sweep's pending points: interned units plus each
/// point's `(scheme, baseline)` unit indices.
struct UnitPlan {
    units: Vec<SimUnit>,
    /// Parallel to the pending slice handed to [`plan_units`].
    point_units: Vec<(usize, usize)>,
}

/// Dedup/cache key of one engine run. The config projection is chosen
/// by the *setup's* declared sensitivity, and the built setup itself
/// joins the key (its `Debug` form is exhaustive, and f64s print in
/// shortest-round-trip form, so debug equality is value equality) — so
/// anything the projection drops can only influence results by changing
/// the setup, which changes the key.
fn unit_desc(
    workload: &Workload,
    opts: &SimOptions,
    cfg: &SystemConfig,
    setup: &SchemeSetup,
) -> String {
    format!(
        "fpb-run/v1|{workload:?}|{opts:?}|{}|{setup:?}",
        effective_config_desc(cfg, setup.sensitivity())
    )
}

/// Interns one unit, returning its index in `units`.
fn intern_unit(
    units: &mut Vec<SimUnit>,
    index_of: &mut BTreeMap<String, usize>,
    desc: String,
    rep: usize,
    setup: &SchemeSetup,
) -> usize {
    if let Some(&u) = index_of.get(&desc) {
        return u;
    }
    let u = units.len();
    index_of.insert(desc.clone(), u);
    units.push(SimUnit {
        desc,
        rep,
        setup: setup.clone(),
    });
    u
}

/// Builds the unit plan for `pending` grid points: per point, a
/// baseline unit then a scheme unit, interned in pending order so unit
/// order is deterministic. With `dedup` off every (point, role) pair
/// gets a private unit — the historical one-run-per-simulation sweep
/// expressed in the same machinery. The `singleton` point (the
/// `--inject-panic` target) also gets private, salted units: its runs
/// must *execute* — a cache or dedup hit would satisfy the point
/// without ever reaching the injected panic, silently disarming the
/// crash-recovery hook — and the salt keys can never be cached.
#[allow(
    clippy::too_many_arguments,
    reason = "internal planner; the inputs are one sweep's full identity"
)]
fn plan_units(
    workload: &Workload,
    opts: &SimOptions,
    grid: &[(String, SystemConfig)],
    pending: &[usize],
    registry: &SchemeRegistry,
    scheme_spec: &SchemeSpec,
    baseline_spec: &SchemeSpec,
    dedup: bool,
    singleton: Option<usize>,
) -> UnitPlan {
    let mut units: Vec<SimUnit> = Vec::new();
    let mut index_of: BTreeMap<String, usize> = BTreeMap::new();
    let mut point_units = Vec::with_capacity(pending.len());
    for &gi in pending {
        let (_, cfg) = &grid[gi];
        let baseline_setup = build_spec(registry, baseline_spec, cfg);
        let scheme_setup = build_spec(registry, scheme_spec, cfg);
        let desc_for = |setup: &SchemeSetup, role: &str| -> String {
            if !dedup {
                format!("singleton|{gi}|{role}")
            } else if singleton == Some(gi) {
                format!(
                    "inject-panic|{gi}|{role}|{}",
                    unit_desc(workload, opts, cfg, setup)
                )
            } else {
                unit_desc(workload, opts, cfg, setup)
            }
        };
        let bd = desc_for(&baseline_setup, "baseline");
        let sd = desc_for(&scheme_setup, "scheme");
        let bu = intern_unit(&mut units, &mut index_of, bd, gi, &baseline_setup);
        let su = intern_unit(&mut units, &mut index_of, sd, gi, &scheme_setup);
        point_units.push((su, bu));
    }
    UnitPlan { units, point_units }
}

/// Runs the cartesian product of `axes` over `workload`, measuring the
/// scheme named by `scheme` against the one named by `baseline` (both
/// registry spec strings, rebuilt per configuration so budget-derived
/// fields track the swept config).
///
/// # Panics
///
/// Panics if `axes` is empty, either spec does not resolve in the
/// [`SchemeRegistry`], or any produced configuration is invalid.
///
/// # Examples
///
/// ```
/// use fpb_sim::sweep::{run_sweep, Axis};
/// use fpb_sim::SimOptions;
/// use fpb_trace::catalog;
/// use fpb_types::SystemConfig;
///
/// let wl = catalog::workload("cop_m").unwrap();
/// let points = run_sweep(
///     &wl,
///     SystemConfig::default(),
///     &[Axis::pt_dimm(&[466, 560])],
///     "fpb",
///     "dimm-chip",
///     &SimOptions::with_instructions(20_000),
/// );
/// assert_eq!(points.len(), 2);
/// assert!(points[0].label.contains("pt=466t"));
/// ```
pub fn run_sweep(
    workload: &Workload,
    base_cfg: SystemConfig,
    axes: &[Axis],
    scheme: &str,
    baseline: &str,
    opts: &SimOptions,
) -> Vec<SweepPoint> {
    run_sweep_jobs(workload, base_cfg, axes, scheme, baseline, opts, 1)
}

/// [`run_sweep`] fanned across up to `jobs` worker threads.
///
/// Every grid point is an independent, deterministic simulation (each run
/// seeds its own RNGs from the configuration), so the parallel sweep
/// returns results **bit-for-bit identical** to the serial one, in the
/// same odometer order — `jobs` only changes wall-clock time.
///
/// This is [`run_sweep_supervised`] with no journal, no cancellation and
/// no deadline, so it shares that pipeline's work avoidance, none of
/// which can change results (the jobs-invariance and reuse-equivalence
/// tests enforce this):
///
/// - Engine runs are semantically deduplicated: runs whose unit
///   descriptions collide (see [`ReuseOptions`]) simulate once per
///   equivalence class and share the metrics.
/// - Warmed cores are deduplicated: points whose configs produce the
///   same warm state (see [`warm_key`]'s inputs) share one warm set.
/// - Workers claim one unit at a time in descending estimated-cost
///   order ([`point_cost`] of the class representative), longest first,
///   so a slow unit claimed late cannot strand the pool past the end of
///   the grid.
///
/// # Panics
///
/// Panics if `axes` is empty, either scheme spec does not resolve, or any
/// produced configuration is invalid (the validation happens up front,
/// before any worker starts), and if a point's simulation panics.
pub fn run_sweep_jobs(
    workload: &Workload,
    base_cfg: SystemConfig,
    axes: &[Axis],
    scheme: &str,
    baseline: &str,
    opts: &SimOptions,
    jobs: usize,
) -> Vec<SweepPoint> {
    run_sweep_jobs_reuse(
        workload,
        base_cfg,
        axes,
        scheme,
        baseline,
        opts,
        jobs,
        &ReuseOptions::default(),
    )
    .0
}

/// [`run_sweep_jobs`] with an explicit [`ReuseOptions`], reporting what
/// the reuse ladder saved. The returned points are **bit-for-bit
/// identical** for every `reuse` setting — dedup and the cache decide
/// which runs execute, never what any run produces.
///
/// # Panics
///
/// Same contract as [`run_sweep_jobs`].
#[allow(
    clippy::too_many_arguments,
    reason = "`run_sweep_jobs`'s arguments plus the reuse options"
)]
pub fn run_sweep_jobs_reuse(
    workload: &Workload,
    base_cfg: SystemConfig,
    axes: &[Axis],
    scheme: &str,
    baseline: &str,
    opts: &SimOptions,
    jobs: usize,
    reuse: &ReuseOptions,
) -> (Vec<SweepPoint>, ReuseStats) {
    let run = run_sweep_supervised(SupervisedSweepRequest {
        workload,
        base_cfg,
        axes,
        scheme,
        baseline,
        opts: *opts,
        policy: SupervisePolicy {
            jobs,
            ..SupervisePolicy::default()
        },
        journal: None,
        cancel: CancelToken::new(),
        cancel_after: None,
        inject_panic: None,
        reuse: reuse.clone(),
    });
    let run = match run {
        Ok(run) => run,
        #[expect(clippy::panic, reason = "documented `# Panics` contract")]
        Err(e) => panic!("{e}"),
    };
    let points = run
        .points
        .into_iter()
        .map(|rec| match rec.state {
            PointState::Done(point) => *point,
            // Nothing restores, cancels or times out here, so any other
            // state is a point whose simulation panicked.
            #[expect(clippy::panic, reason = "documented `# Panics` contract")]
            _ => panic!("sweep point {} ({}) {}", rec.index, rec.label, rec.outcome),
        })
        .collect();
    (points, run.reuse)
}

/// Static cost estimate for one grid point: instruction budget scaled by
/// the line's cell count (wider lines mean more sampled cells, more
/// write rounds, and more token-planning work per write). Only the
/// *relative* order matters — the scheduler sorts by it, nothing sums it.
pub fn point_cost(cfg: &SystemConfig, opts: &SimOptions) -> u64 {
    opts.instructions_per_core
        .max(1)
        .saturating_mul(cfg.pcm.cells_per_line() as u64)
}

/// Fingerprint of everything that determines warmed-core state for a
/// grid point: the cache geometry, core count, seed, and the warm-up
/// options. Axes that only touch the power budget (`pt_dimm`, `e_gcp`)
/// leave this unchanged — on such grids a sweep needs one warm set per
/// distinct line geometry, not one per point.
fn warm_key(cfg: &SystemConfig, opts: &SimOptions) -> u64 {
    fingerprint64(&format!(
        "{:?}|{}|{}|{:?}|{}",
        cfg.cache, cfg.cores, cfg.seed, opts.warmup_accesses, opts.full_hierarchy
    ))
}

/// Deduplicated warm sets for a grid: `sets[of_point[i]]` is point `i`'s
/// warmed cores. Points whose `needed` flag is false (e.g. already
/// restored from a journal) don't force a warm-up; a key needed by no
/// point gets an empty placeholder set that is never read.
struct WarmSets {
    sets: Vec<Arc<Vec<CoreState>>>,
    of_point: Vec<usize>,
}

/// Builds the deduplicated warm sets, warming distinct keys in parallel
/// (warming is deterministic — see [`warm_cores_jobs`] — so sharing a set
/// across points is bit-for-bit identical to warming per point). Several
/// sets warm on up to `jobs` workers with each set's cores inline, since
/// pools never nest; a single set warms its cores on up to `jobs`.
fn warm_shared(
    workload: &Workload,
    grid: &[(String, SystemConfig)],
    opts: &SimOptions,
    jobs: usize,
    needed: &[bool],
) -> WarmSets {
    let mut of_point = Vec::with_capacity(grid.len());
    // (key, representative grid index, any point needs it)
    let mut distinct: Vec<(u64, usize, bool)> = Vec::new();
    for (i, (_, cfg)) in grid.iter().enumerate() {
        let key = warm_key(cfg, opts);
        match distinct.iter().position(|&(k, _, _)| k == key) {
            Some(p) => {
                of_point.push(p);
                distinct[p].2 |= needed[i];
            }
            None => {
                of_point.push(distinct.len());
                distinct.push((key, i, needed[i]));
            }
        }
    }
    let sets = parallel_map_indexed(&distinct, jobs, |_, &(_, rep, need)| {
        if need {
            Arc::new(warm_cores_jobs(workload, &grid[rep].1, opts, jobs))
        } else {
            Arc::new(Vec::new())
        }
    });
    WarmSets { sets, of_point }
}

/// Builds a parsed spec against one config. [`run_sweep_supervised`]
/// builds both specs against the base config before planning, and
/// semantic spec errors are config-independent, so a failure here is a
/// call-site bug and fails loudly.
fn build_spec(registry: &SchemeRegistry, spec: &SchemeSpec, cfg: &SystemConfig) -> SchemeSetup {
    match registry.build_spec(spec, cfg) {
        Ok(setup) => setup,
        #[expect(clippy::panic, reason = "a call-site bug, documented above")]
        Err(e) => panic!("sweep scheme spec `{}`: {e}", spec.render()),
    }
}

/// Why a supervised sweep could not start (or durably finish). Mid-grid
/// *point* failures are not errors — they land in the quarantine list of
/// a successful [`SweepRun`]; this type covers problems with the sweep
/// itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The axes describe no grid (no axes, or an axis with no variants).
    Axes(String),
    /// A scheme spec failed to parse or build.
    Spec(String),
    /// A swept configuration failed validation.
    Config {
        /// Label of the offending grid point.
        label: String,
        /// The validation failure.
        detail: String,
    },
    /// The journal could not be created, resumed, or appended to — a
    /// durability failure aborts the sweep rather than silently running
    /// unjournaled.
    Journal(String),
    /// The crash-injection index names no grid point — a drill aimed at
    /// the wrong index would otherwise pass as a healthy run.
    InjectOutOfRange {
        /// The requested grid index.
        index: usize,
        /// The grid size.
        points: usize,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Axes(detail) => write!(f, "sweep needs at least one axis: {detail}"),
            SweepError::Spec(detail) => write!(f, "sweep scheme spec {detail}"),
            SweepError::Config { label, detail } => {
                write!(f, "swept config invalid at `{label}`: {detail}")
            }
            SweepError::Journal(detail) => write!(f, "sweep journal: {detail}"),
            SweepError::InjectOutOfRange { index, points } => write!(
                f,
                "inject-panic point {index} is outside the {points}-point grid"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// Enumerates the cartesian product of `axes` over `base_cfg` in
/// odometer order (last axis fastest), validating every produced
/// configuration up front.
///
/// # Errors
///
/// [`SweepError::Axes`] for an empty grid, [`SweepError::Config`] for a
/// variant combination that fails [`SystemConfig::validate`].
pub fn enumerate_grid(
    base_cfg: &SystemConfig,
    axes: &[Axis],
) -> Result<Vec<(String, SystemConfig)>, SweepError> {
    if axes.is_empty() {
        return Err(SweepError::Axes("no axes given".to_string()));
    }
    if let Some(empty) = axes.iter().find(|a| a.variants.is_empty()) {
        return Err(SweepError::Axes(format!(
            "axis `{}` has no variants",
            empty.name
        )));
    }
    let mut grid: Vec<(String, SystemConfig)> = Vec::new();
    let mut index = vec![0usize; axes.len()];
    'grid: loop {
        // Build this point's config and label.
        let mut cfg = base_cfg.clone();
        let mut parts = Vec::new();
        for (a, &i) in axes.iter().zip(&index) {
            let (name, f) = &a.variants[i];
            cfg = f(cfg);
            parts.push(format!("{}={}", a.name, name));
        }
        let label = parts.join(",");
        if let Err(e) = cfg.validate() {
            return Err(SweepError::Config {
                label,
                detail: e.to_string(),
            });
        }
        grid.push((label, cfg));

        // Odometer increment.
        for d in (0..axes.len()).rev() {
            index[d] += 1;
            if index[d] < axes[d].variants.len() {
                continue 'grid;
            }
            index[d] = 0;
            if d == 0 {
                break 'grid;
            }
        }
    }
    Ok(grid)
}

/// Everything a supervised sweep needs (the plain positional-argument
/// form of [`run_sweep_jobs`] plus the supervision/journal knobs).
pub struct SupervisedSweepRequest<'a> {
    /// Workload to sweep.
    pub workload: &'a Workload,
    /// Base configuration the axes transform.
    pub base_cfg: SystemConfig,
    /// Sweep axes (cartesian product, odometer order).
    pub axes: &'a [Axis],
    /// Scheme spec string under test.
    pub scheme: &'a str,
    /// Baseline scheme spec string.
    pub baseline: &'a str,
    /// Simulation options, shared by every point.
    pub opts: SimOptions,
    /// Worker count and deadline.
    pub policy: SupervisePolicy,
    /// Optional durable journal (fresh or resumed).
    pub journal: Option<JournalMode>,
    /// Cooperative cancellation handle (checked at point admission).
    pub cancel: CancelToken,
    /// Cancel automatically once this many points complete *in this
    /// run* (restored and cache-completed points don't count) — the
    /// deterministic stand-in for pressing Ctrl-C mid-sweep.
    pub cancel_after: Option<usize>,
    /// Crash-injection test hook: the grid index whose every run panics.
    /// Exposed through `fpb sweep --inject-panic` so quarantine,
    /// journaling and resume can be exercised end to end without
    /// patching the simulator.
    pub inject_panic: Option<usize>,
    /// Result-reuse ladder (semantic dedup + persistent cache). The
    /// journal always outranks both levels: restored points take their
    /// journaled metrics and never consult the cache.
    pub reuse: ReuseOptions,
}

/// How one grid point ended up in a [`SweepRun`].
#[derive(Debug, Clone)]
pub enum PointState {
    /// Has its metrics: simulated or spliced in this run, or restored
    /// exactly from a resumed journal. Boxed: a [`SweepPoint`] carries
    /// full [`Metrics`] and dwarfs the other variants.
    Done(Box<SweepPoint>),
    /// Quarantined (panicked or timed out).
    Failed,
    /// Never ran: the sweep was cancelled first.
    Skipped,
}

/// One grid point of a supervised sweep: its label, terminal state, and
/// supervision outcome.
#[derive(Debug, Clone)]
pub struct SweepPointRecord {
    /// Grid index (odometer order).
    pub index: usize,
    /// Point label including the scheme suffix (`pt=466t [FPB]`).
    pub label: String,
    /// Result state.
    pub state: PointState,
    /// Supervision outcome ([`JobOutcome::Ok`] for restored points: they
    /// completed successfully, just in an earlier run).
    pub outcome: JobOutcome,
}

/// Display-ready derived stats for one completed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointStats {
    /// Speedup over the baseline (Eq. 7).
    pub speedup: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Percent of cycles in write bursts.
    pub burst_pct: f64,
}

impl SweepPointRecord {
    /// Derived stats for the summary table; `None` for failed or skipped
    /// points.
    pub fn stats(&self) -> Option<PointStats> {
        match &self.state {
            PointState::Done(p) => Some(PointStats {
                speedup: p.speedup(),
                cpi: p.metrics.cpi(),
                burst_pct: p.metrics.burst_fraction() * 100.0,
            }),
            PointState::Failed | PointState::Skipped => None,
        }
    }

    /// The point's report fragment, or `None` for failed/skipped points.
    /// A pure function of `(index, label, metrics)`, and a restored
    /// point's metrics are exactly those its original run journaled — the
    /// heart of the byte-identical-resume guarantee.
    pub fn fragment(&self) -> Option<String> {
        let PointState::Done(p) = &self.state else {
            return None;
        };
        Some(format!(
            "{{\"index\": {}, \"label\": {}, \"metrics\": {}, \"baseline\": {}}}",
            self.index,
            json_string(&p.label),
            p.metrics.to_json_inline(),
            p.baseline.to_json_inline()
        ))
    }
}

/// A finished supervised sweep: every grid point's record plus run-level
/// bookkeeping.
#[derive(Debug)]
pub struct SweepRun {
    /// Workload name.
    pub workload: String,
    /// Canonical rendering of the scheme spec.
    pub scheme: String,
    /// Canonical rendering of the baseline spec.
    pub baseline: String,
    /// Instruction budget per core.
    pub instructions: u64,
    /// One record per grid point, in odometer order.
    pub points: Vec<SweepPointRecord>,
    /// Points restored from a resumed journal (not simulated this run).
    pub restored: usize,
    /// Corrupt-tail journal lines dropped during resume.
    pub dropped_journal_lines: usize,
    /// True if the sweep stopped admitting points before the grid was
    /// exhausted.
    pub cancelled: bool,
    /// What the reuse ladder saved. Run-local bookkeeping, like
    /// `restored` — deliberately kept out of [`SweepRun::to_json`] so
    /// reuse settings cannot leak into the byte-identical document.
    pub reuse: ReuseStats,
}

impl SweepRun {
    /// Number of points whose outcome has the given class.
    pub fn count(&self, class: &str) -> usize {
        self.points
            .iter()
            .filter(|p| p.outcome.class() == class)
            .count()
    }

    /// Records of quarantined points, in grid order.
    pub fn quarantined(&self) -> Vec<&SweepPointRecord> {
        self.points
            .iter()
            .filter(|p| p.outcome.quarantined())
            .collect()
    }

    /// True when every grid point has a result (none quarantined or
    /// skipped).
    pub fn complete(&self) -> bool {
        self.points.iter().all(|p| p.outcome.succeeded())
    }

    /// Deterministic JSON rendering (schema `fpb-sweep/v1`).
    ///
    /// Restored points carry the exact metrics of the run that produced
    /// them and report the `ok` outcome they earned there — so a resumed
    /// sweep renders **byte-identical** JSON to an uninterrupted one.
    /// Run-local bookkeeping that *does* differ between the two
    /// (restored count, dropped journal lines) is deliberately kept out
    /// of this document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"fpb-sweep/v1\",\n");
        s.push_str(&format!(
            "  \"workload\": {},\n",
            json_string(&self.workload)
        ));
        s.push_str(&format!("  \"scheme\": {},\n", json_string(&self.scheme)));
        s.push_str(&format!(
            "  \"baseline\": {},\n",
            json_string(&self.baseline)
        ));
        s.push_str(&format!(
            "  \"instructions_per_core\": {},\n",
            self.instructions
        ));
        s.push_str(&format!("  \"points\": {},\n", self.points.len()));
        s.push_str(&format!("  \"cancelled\": {},\n", self.cancelled));
        s.push_str("  \"job_outcomes\": {\n");
        // "retried" is always 0; the key stays because dropping it would change fpb-sweep/v1.
        for class in ["ok", "retried", "panicked", "timed_out", "skipped"] {
            s.push_str(&format!("    \"{class}\": {},\n", self.count(class)));
        }
        s.push_str("    \"quarantined\": [");
        for (i, rec) in self.quarantined().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let detail = match &rec.outcome {
                JobOutcome::Panicked { message, .. } => message.clone(),
                JobOutcome::TimedOut { deadline_ms } => {
                    format!("deadline {deadline_ms}ms exceeded")
                }
                _ => String::new(),
            };
            s.push_str(&format!(
                "\n      {{\"index\": {}, \"label\": {}, \"class\": \"{}\", \"detail\": {}}}",
                rec.index,
                json_string(&rec.label),
                rec.outcome.class(),
                json_string(&detail)
            ));
        }
        if !self.quarantined().is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("]\n  },\n");
        s.push_str("  \"point_metrics\": [");
        let mut first = true;
        for rec in &self.points {
            if let Some(frag) = rec.fragment() {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str("\n    ");
                s.push_str(&frag);
            }
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Canonical fingerprint of a sweep: every input that determines point
/// results, hashed so a journal can refuse to resume a *different*
/// sweep. (Labels pin the grid; the config debug form pins the base.)
fn sweep_fingerprint(
    workload: &Workload,
    scheme: &str,
    baseline: &str,
    opts: &SimOptions,
    base_cfg: &SystemConfig,
    grid: &[(String, SystemConfig)],
) -> u64 {
    let mut desc = format!(
        "{}|{scheme}|{baseline}|{opts:?}|{base_cfg:?}",
        workload.name
    );
    for (label, _) in grid {
        desc.push('|');
        desc.push_str(label);
    }
    fingerprint64(&desc)
}

/// Runs a sweep under supervision: panic isolation and quarantine,
/// optional per-point deadlines, optional durable journaling with
/// resume, and cooperative cancellation. This is the only sweep
/// pipeline; [`run_sweep_jobs`] is this function with a default policy,
/// no journal and no cancellation.
///
/// # Errors
///
/// Errors cover the sweep *setup* (bad axes, bad specs, invalid configs,
/// an out-of-range inject-panic index, journal I/O); individual point
/// failures quarantine inside an `Ok` run — check
/// [`SweepRun::quarantined`].
pub fn run_sweep_supervised(req: SupervisedSweepRequest<'_>) -> Result<SweepRun, SweepError> {
    let registry = SchemeRegistry::standard();
    let scheme_spec: SchemeSpec = req
        .scheme
        .parse()
        .map_err(|e| SweepError::Spec(format!("`{}`: {e}", req.scheme)))?;
    let baseline_spec: SchemeSpec = req
        .baseline
        .parse()
        .map_err(|e| SweepError::Spec(format!("`{}`: {e}", req.baseline)))?;
    // One build against the base config proves every per-point build
    // will succeed (semantic spec errors are config-independent).
    registry
        .build_spec(&scheme_spec, &req.base_cfg)
        .map_err(|e| SweepError::Spec(format!("`{}`: {e}", req.scheme)))?;
    registry
        .build_spec(&baseline_spec, &req.base_cfg)
        .map_err(|e| SweepError::Spec(format!("`{}`: {e}", req.baseline)))?;
    let grid = enumerate_grid(&req.base_cfg, req.axes)?;
    let n = grid.len();
    if let Some(index) = req.inject_panic.filter(|&i| i >= n) {
        return Err(SweepError::InjectOutOfRange { index, points: n });
    }
    let scheme_render = scheme_spec.render();
    let baseline_render = baseline_spec.render();
    // Point labels carry the scheme label built against each point's
    // config, as its result was journaled and reported.
    let labels: Vec<String> = grid
        .iter()
        .map(|(l, cfg)| format!("{l} [{}]", build_spec(registry, &scheme_spec, cfg).label))
        .collect();

    // Attach the journal (if any) and restore completed points.
    let header = JournalHeader {
        fingerprint: sweep_fingerprint(
            req.workload,
            &scheme_render,
            &baseline_render,
            &req.opts,
            &req.base_cfg,
            &grid,
        ),
        points: n,
        meta: format!(
            "{} {scheme_render} vs {baseline_render} ({n} points)",
            req.workload.name
        ),
    };
    let journal_err = |e: JournalError| SweepError::Journal(e.to_string());
    let mut restored_points: Vec<Option<SweepPoint>> = vec![None; n];
    let mut dropped_journal_lines = 0usize;
    let mut writer: Option<JournalWriter> = None;
    match &req.journal {
        None => {}
        Some(JournalMode::Fresh(path)) => {
            writer = Some(JournalWriter::create(path, &header).map_err(journal_err)?);
        }
        Some(JournalMode::Resume(path)) => {
            let (w, contents) = JournalWriter::resume(path, &header).map_err(journal_err)?;
            dropped_journal_lines = contents.dropped_lines;
            for rec in contents.records {
                // Indices are validated against the header by the reader;
                // a payload that does not decode is refused the same way.
                // First occurrence wins on duplicates.
                let Some((metrics, baseline)) = decode_point(&rec.payload) else {
                    return Err(journal_err(JournalError::BadPayload { index: rec.index }));
                };
                let slot = &mut restored_points[rec.index];
                if slot.is_none() {
                    let label = labels[rec.index].clone();
                    *slot = Some(SweepPoint {
                        label,
                        metrics,
                        baseline,
                    });
                }
            }
            writer = Some(w);
        }
    }
    let restored = restored_points.iter().filter(|p| p.is_some()).count();

    // Pending grid indices (everything not restored from the journal).
    // The journal outranks every reuse level: restored points keep their
    // journaled metrics and never consult the cache.
    let pending: Vec<usize> = (0..n).filter(|&i| restored_points[i].is_none()).collect();

    // Level 1: collapse the pending points' engine runs into units. The
    // `--inject-panic` point gets private salted units so its runs are
    // guaranteed to execute (and can never be satisfied — or poisoned —
    // through the cache).
    let plan = plan_units(
        req.workload,
        &req.opts,
        &grid,
        &pending,
        registry,
        &scheme_spec,
        &baseline_spec,
        req.reuse.dedup,
        req.inject_panic,
    );

    // Level 2: prefill units from the persistent cache (dedup-on only —
    // cache keys *are* unit keys).
    let mut cache = match (&req.reuse.cache, req.reuse.dedup) {
        (Some(path), true) => Some(ResultCache::load(path)),
        _ => None,
    };
    let mut unit_results: Vec<Option<Metrics>> = plan
        .units
        .iter()
        .map(|u| cache.as_ref().and_then(|c| c.lookup(&u.desc)))
        .collect();
    let from_cache: Vec<bool> = unit_results.iter().map(|r| r.is_some()).collect();
    let cache_hits = from_cache.iter().filter(|&&b| b).count();

    // Points fully resolved from the cache complete before supervision
    // starts: journal them now, in grid order, so a crash in the
    // simulated remainder still resumes past them.
    let point_ready: Vec<bool> = plan
        .point_units
        .iter()
        .map(|&(su, bu)| unit_results[su].is_some() && unit_results[bu].is_some())
        .collect();
    if let Some(w) = writer.as_mut() {
        for (pi, &gi) in pending.iter().enumerate() {
            if !point_ready[pi] {
                continue;
            }
            let (su, bu) = plan.point_units[pi];
            if let (Some(sm), Some(bm)) = (&unit_results[su], &unit_results[bu]) {
                w.append_record(gi, &encode_point(sm, bm))
                    .map_err(journal_err)?;
            }
        }
    }

    // Per-point count of units still to simulate, and the reverse map
    // from a unit to the point ordinals waiting on it. Both drive
    // completion tracking: a point is done when its last unit lands.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); plan.units.len()];
    let mut remaining: Vec<usize> = vec![0; pending.len()];
    for (pi, &(su, bu)) in plan.point_units.iter().enumerate() {
        if point_ready[pi] {
            continue;
        }
        let mut add = |u: usize| {
            if unit_results[u].is_none() {
                members[u].push(pi);
                remaining[pi] += 1;
            }
        };
        add(bu);
        if su != bu {
            add(su);
        }
    }

    // Units to dispatch, in interning order (deterministic).
    let sim_unit_ids: Vec<usize> = (0..plan.units.len())
        .filter(|&u| unit_results[u].is_none())
        .collect();
    let sim_jobs: Vec<SimJob> = sim_unit_ids
        .iter()
        .map(|&u| {
            let unit = &plan.units[u];
            SimJob {
                unit: u,
                rep: unit.rep,
                label: grid[unit.rep].0.clone(),
                cfg: grid[unit.rep].1.clone(),
                setup: unit.setup.clone(),
            }
        })
        .collect();

    // Warm-set dedup over the units that actually simulate — a key
    // whose every point was restored or cache-filled never pays a
    // warm-up.
    let mut needed = vec![false; n];
    for &u in &sim_unit_ids {
        needed[plan.units[u].rep] = true;
    }
    let warm = Arc::new(warm_shared(
        req.workload,
        &grid,
        &req.opts,
        req.policy.jobs,
        &needed,
    ));

    // Execution costs: the static estimate of each unit's representative
    // point. The schedule orders units descending by cost; it cannot
    // change results or the report order, both keyed by grid index.
    let unit_costs: Vec<u64> = sim_unit_ids
        .iter()
        .map(|&u| point_cost(&grid[plan.units[u].rep].1, &req.opts))
        .collect();
    let schedule = crate::exec::schedule_by_cost(&unit_costs);

    let workload = req.workload.clone();
    let opts = req.opts;
    let inject = req.inject_panic;
    let cancel_limit = req.cancel_after;
    let job_cancel = req.cancel.clone();
    // Worker-side completion tracker behind --cancel-after: cancellation
    // trips at the moment the Nth pending point's *last* unit finishes —
    // deterministic with one worker, best-effort with more. Restored and
    // cache-completed points never count.
    let tracker = Arc::new(Mutex::new((remaining.clone(), 0usize)));
    let track_members: Arc<Vec<Vec<usize>>> = Arc::new(members);
    let job_warm = Arc::clone(&warm);
    let job_members = Arc::clone(&track_members);
    let job = move |_slot: usize, j: &SimJob| -> (usize, Metrics) {
        // Only the poisoned point's own (salted, private) units can reach
        // here — no shared unit has it as rep.
        #[expect(
            clippy::panic,
            reason = "the documented `--inject-panic` crash-recovery hook"
        )]
        if inject == Some(j.rep) {
            panic!("injected panic at point {} ({})", j.rep, j.label);
        }
        let cores = &job_warm.sets[job_warm.of_point[j.rep]];
        let m = run_workload_warmed(&workload, &j.cfg, &j.setup, &opts, cores);
        if cancel_limit.is_some() {
            if let Ok(mut t) = tracker.lock() {
                let (left, completed) = &mut *t;
                for &pi in &job_members[j.unit] {
                    if left[pi] > 0 {
                        left[pi] -= 1;
                        if left[pi] == 0 {
                            *completed += 1;
                        }
                    }
                }
                if cancel_limit.is_some_and(|limit| *completed >= limit) {
                    job_cancel.cancel();
                }
            }
        }
        (j.unit, m)
    };

    // The collector thread journals each point as its last unit lands,
    // before the point is considered durable; a journal write failure
    // cancels the sweep (running unjournaled would betray the --journal
    // contract).
    let mut journal_failure: Option<JournalError> = None;
    let cancel = req.cancel.clone();
    let mut remaining_c = remaining;
    let collect_members = Arc::clone(&track_members);
    let report = supervise_map_ordered(
        sim_jobs,
        &req.policy,
        &req.cancel,
        Some(schedule),
        job,
        |_slot, (unit, m): &(usize, Metrics)| {
            unit_results[*unit] = Some(m.clone());
            if journal_failure.is_some() {
                return;
            }
            let Some(w) = writer.as_mut() else { return };
            for &pi in &collect_members[*unit] {
                if remaining_c[pi] == 0 {
                    continue;
                }
                remaining_c[pi] -= 1;
                if remaining_c[pi] > 0 {
                    continue;
                }
                let (su, bu) = plan.point_units[pi];
                if let (Some(sm), Some(bm)) = (&unit_results[su], &unit_results[bu]) {
                    if let Err(e) = w.append_record(pending[pi], &encode_point(sm, bm)) {
                        journal_failure = Some(e);
                        cancel.cancel();
                        return;
                    }
                }
            }
        },
    );
    if let Some(e) = journal_failure {
        return Err(journal_err(e));
    }

    // Merge freshly simulated units into the cache and persist it.
    // Inject-salted units are skipped outright; everything else keyed a
    // real run.
    if let Some(c) = cache.as_mut() {
        for (u, unit) in plan.units.iter().enumerate() {
            if from_cache[u] || req.inject_panic == Some(unit.rep) {
                continue;
            }
            if let Some(m) = &unit_results[u] {
                c.insert(unit.desc.clone(), m.clone());
            }
        }
        if let Err(e) = c.save() {
            // A failed save costs future warm starts, never correctness.
            eprintln!("fpb sweep: result cache save failed: {e} (continuing)");
        }
    }

    // Per-unit outcomes: cache-filled units count as Ok; dispatched
    // units take their supervision outcome.
    let mut unit_outcomes: Vec<JobOutcome> = vec![JobOutcome::Ok; plan.units.len()];
    for (k, outcome) in report.outcomes.into_iter().enumerate() {
        unit_outcomes[sim_unit_ids[k]] = outcome;
    }

    // Assemble records in grid order: restored points first, then each
    // pending point from its units — metrics spliced from the shared
    // unit results, outcome merged across the units it needed.
    let mut records: Vec<SweepPointRecord> = restored_points
        .into_iter()
        .enumerate()
        .map(|(i, point)| SweepPointRecord {
            index: i,
            label: labels[i].clone(),
            state: match point {
                Some(p) => PointState::Done(Box::new(p)),
                None => PointState::Skipped,
            },
            outcome: JobOutcome::Ok,
        })
        .collect();
    for (pi, &gi) in pending.iter().enumerate() {
        let (su, bu) = plan.point_units[pi];
        let outcome = if su == bu {
            unit_outcomes[su].clone()
        } else {
            merge_outcomes(unit_outcomes[su].clone(), unit_outcomes[bu].clone())
        };
        let label = labels[gi].clone();
        let state = match (&unit_results[su], &unit_results[bu]) {
            (Some(sm), Some(bm)) => PointState::Done(Box::new(SweepPoint {
                label: label.clone(),
                metrics: sm.clone(),
                baseline: bm.clone(),
            })),
            _ if outcome.quarantined() => PointState::Failed,
            _ => PointState::Skipped,
        };
        records[gi] = SweepPointRecord {
            index: gi,
            label,
            state,
            outcome,
        };
    }

    Ok(SweepRun {
        workload: req.workload.name.to_string(),
        scheme: scheme_render,
        baseline: baseline_render,
        instructions: req.opts.instructions_per_core,
        points: records,
        restored,
        dropped_journal_lines,
        cancelled: report.cancelled,
        reuse: ReuseStats {
            runs_total: 2 * pending.len(),
            runs_unique: plan.units.len(),
            cache_hits,
            simulated: sim_unit_ids.len(),
        },
    })
}

/// One supervised engine run: a deduplicated unit plus everything the
/// worker needs to execute it without touching shared sweep state.
struct SimJob {
    /// Unit index into the sweep's [`UnitPlan`].
    unit: usize,
    /// Representative grid index (drives warm-set and inject lookups).
    rep: usize,
    /// Representative's grid label (for the injected-panic message).
    label: String,
    /// Representative's configuration.
    cfg: SystemConfig,
    /// Setup to run.
    setup: SchemeSetup,
}

/// Terminal outcome of a point from the outcomes of the units it
/// waited on: the worse one wins (quarantine > skip > ok).
fn merge_outcomes(a: JobOutcome, b: JobOutcome) -> JobOutcome {
    fn rank(o: &JobOutcome) -> u32 {
        match o {
            JobOutcome::Panicked { .. } => 3,
            JobOutcome::TimedOut { .. } => 2,
            JobOutcome::Skipped => 1,
            JobOutcome::Ok => 0,
        }
    }
    if rank(&b) > rank(&a) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpb_trace::catalog;

    fn opts() -> SimOptions {
        SimOptions::with_instructions(15_000)
    }

    #[test]
    fn cartesian_product_order_and_size() {
        let wl = catalog::workload("cop_m").expect("workload");
        let points = run_sweep(
            &wl,
            SystemConfig::default(),
            &[Axis::pt_dimm(&[466, 560]), Axis::e_gcp(&[0.7, 0.5])],
            "fpb",
            "dimm-chip",
            &opts(),
        );
        assert_eq!(points.len(), 4);
        assert!(points[0].label.starts_with("pt=466t,egcp=0.7"));
        assert!(points[3].label.starts_with("pt=560t,egcp=0.5"));
        for p in &points {
            assert!(p.speedup() > 0.0);
            assert!(p.label.contains("[FPB]"));
        }
    }

    #[test]
    fn axes_apply_their_configs() {
        let wl = catalog::workload("xal_m").expect("workload");
        let points = run_sweep(
            &wl,
            SystemConfig::default(),
            &[Axis::line_bytes(&[64, 256])],
            "ideal",
            "ideal",
            &opts(),
        );
        assert_eq!(points.len(), 2);
        // Identical scheme and baseline: speedup exactly 1.
        for p in &points {
            assert!((p.speedup() - 1.0).abs() < 1e-12, "{}", p.label);
        }
    }

    #[test]
    fn llc_axis_changes_traffic() {
        let wl = catalog::workload("ast_m").expect("workload");
        let points = run_sweep(
            &wl,
            SystemConfig::default(),
            &[Axis::llc_mib(&[4, 32])],
            "dimm-chip",
            "dimm-chip",
            &opts(),
        );
        // A tiny LLC must produce more PCM reads than the baseline 32 M.
        assert!(
            points[0].metrics.pcm_reads > points[1].metrics.pcm_reads,
            "4M {} vs 32M {}",
            points[0].metrics.pcm_reads,
            points[1].metrics.pcm_reads
        );
    }

    #[test]
    #[should_panic(expected = "at least one axis")]
    fn empty_axes_panic() {
        let wl = catalog::workload("cop_m").expect("workload");
        let _ = run_sweep(
            &wl,
            SystemConfig::default(),
            &[],
            "fpb",
            "dimm-chip",
            &opts(),
        );
    }

    #[test]
    fn enumerate_grid_rejects_degenerate_axes() {
        let cfg = SystemConfig::default();
        assert!(matches!(
            enumerate_grid(&cfg, &[]),
            Err(SweepError::Axes(_))
        ));
        let hollow = Axis {
            name: "pt",
            variants: Vec::new(),
        };
        let err = enumerate_grid(&cfg, &[hollow]).unwrap_err();
        assert!(
            err.to_string().contains("axis `pt` has no variants"),
            "{err}"
        );
    }

    #[test]
    fn enumerate_grid_matches_sweep_order() {
        let cfg = SystemConfig::default();
        let grid = enumerate_grid(
            &cfg,
            &[Axis::pt_dimm(&[466, 560]), Axis::e_gcp(&[0.7, 0.5])],
        )
        .unwrap();
        let labels: Vec<&str> = grid.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "pt=466t,egcp=0.7",
                "pt=466t,egcp=0.5",
                "pt=560t,egcp=0.7",
                "pt=560t,egcp=0.5"
            ]
        );
    }

    #[test]
    fn journaled_point_renders_the_same_fragment_and_stats() {
        let point = SweepPoint {
            label: "pt=466t [FPB]".to_string(),
            metrics: Metrics {
                cycles: 2_000,
                instructions_per_core: 1_000,
                burst_cycles: 500,
                ..Metrics::default()
            },
            baseline: Metrics {
                cycles: 3_000,
                instructions_per_core: 1_000,
                ..Metrics::default()
            },
        };
        let record = |point: SweepPoint| SweepPointRecord {
            index: 4,
            label: point.label.clone(),
            state: PointState::Done(Box::new(point)),
            outcome: JobOutcome::Ok,
        };
        let done = record(point.clone());
        let frag = done.fragment().unwrap();
        assert!(frag.starts_with("{\"index\": 4, \"label\": \"pt=466t [FPB]\", \"metrics\": {"));
        assert!(
            !frag.contains('\n'),
            "fragments must be single-line: {frag}"
        );

        // A point restored from its journal payload is the same record:
        // same fragment bytes, same table stats.
        let (metrics, baseline) =
            decode_point(&encode_point(&point.metrics, &point.baseline)).unwrap();
        let restored = record(SweepPoint {
            label: point.label.clone(),
            metrics,
            baseline,
        });
        assert_eq!(restored.fragment().unwrap(), frag);
        let stats = restored.stats().unwrap();
        assert_eq!(stats, done.stats().unwrap());
        assert!((stats.speedup - 1.5).abs() < 1e-12);
        assert!((stats.cpi - 2.0).abs() < 1e-12);
        assert!((stats.burst_pct - 25.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_fingerprint_tracks_every_input() {
        let wl = catalog::workload("cop_m").expect("workload");
        let wl2 = catalog::workload("mcf_m").expect("workload");
        let cfg = SystemConfig::default();
        let grid = enumerate_grid(&cfg, &[Axis::pt_dimm(&[466, 560])]).unwrap();
        let base = sweep_fingerprint(&wl, "fpb", "dimm-chip", &opts(), &cfg, &grid);
        assert_eq!(
            base,
            sweep_fingerprint(&wl, "fpb", "dimm-chip", &opts(), &cfg, &grid)
        );
        assert_ne!(
            base,
            sweep_fingerprint(&wl2, "fpb", "dimm-chip", &opts(), &cfg, &grid)
        );
        assert_ne!(
            base,
            sweep_fingerprint(&wl, "gcp", "dimm-chip", &opts(), &cfg, &grid)
        );
        let other_opts = SimOptions::with_instructions(999);
        assert_ne!(
            base,
            sweep_fingerprint(&wl, "fpb", "dimm-chip", &other_opts, &cfg, &grid)
        );
        let bigger = enumerate_grid(&cfg, &[Axis::pt_dimm(&[466, 560, 512])]).unwrap();
        assert_ne!(
            base,
            sweep_fingerprint(&wl, "fpb", "dimm-chip", &opts(), &cfg, &bigger)
        );
    }

    #[test]
    fn reuse_never_changes_points_and_collapses_baselines() {
        let wl = catalog::workload("cop_m").expect("workload");
        let axes = || [Axis::pt_dimm(&[466, 560]), Axis::e_gcp(&[0.5, 0.9])];
        let (off, s_off) = run_sweep_jobs_reuse(
            &wl,
            SystemConfig::default(),
            &axes(),
            "fpb",
            "dimm-chip",
            &opts(),
            2,
            &ReuseOptions::disabled(),
        );
        let (on, s_on) = run_sweep_jobs_reuse(
            &wl,
            SystemConfig::default(),
            &axes(),
            "fpb",
            "dimm-chip",
            &opts(),
            2,
            &ReuseOptions::default(),
        );
        assert_eq!(off.len(), on.len());
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.metrics, b.metrics, "{}", a.label);
            assert_eq!(a.baseline, b.baseline, "{}", a.label);
        }
        // Dedup off: every point pays both runs.
        assert_eq!(
            (s_off.runs_total, s_off.runs_unique, s_off.simulated),
            (8, 8, 8)
        );
        // Dedup on: the power-blind baseline collapses along the e-gcp
        // axis; fpb stays distinct per point.
        assert_eq!(s_on.runs_total, 8);
        assert!(
            s_on.runs_unique < s_on.runs_total,
            "expected baseline collapse, got {s_on:?}"
        );
        assert_eq!(s_on.simulated, s_on.runs_unique);
        assert!(s_on.dedup_ratio() > 1.0);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "scratch files for the test; the path never reaches a result"
    )]
    fn persistent_cache_round_trips_points() {
        let wl = catalog::workload("cop_m").expect("workload");
        let path = std::env::temp_dir().join("fpb-sweep-unit-cache.v1");
        std::fs::remove_file(&path).ok();
        let reuse = ReuseOptions {
            dedup: true,
            cache: Some(path.clone()),
        };
        let axes = || [Axis::pt_dimm(&[466, 560])];
        let (cold, s_cold) = run_sweep_jobs_reuse(
            &wl,
            SystemConfig::default(),
            &axes(),
            "fpb",
            "dimm-chip",
            &opts(),
            1,
            &reuse,
        );
        assert_eq!(s_cold.cache_hits, 0);
        assert_eq!(s_cold.simulated, s_cold.runs_unique);
        let (warm, s_warm) = run_sweep_jobs_reuse(
            &wl,
            SystemConfig::default(),
            &axes(),
            "fpb",
            "dimm-chip",
            &opts(),
            1,
            &reuse,
        );
        assert_eq!(s_warm.cache_hits, s_warm.runs_unique, "{s_warm:?}");
        assert_eq!(s_warm.simulated, 0, "warm run must not simulate");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.metrics, b.metrics, "{}", a.label);
            assert_eq!(a.baseline, b.baseline, "{}", a.label);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_outcomes_ranks_worst_first() {
        use JobOutcome::*;
        assert_eq!(merge_outcomes(Ok, Ok), Ok);
        assert_eq!(merge_outcomes(Ok, Skipped), Skipped);
        assert_eq!(
            merge_outcomes(
                Skipped,
                Panicked {
                    message: "boom".into()
                }
            ),
            Panicked {
                message: "boom".into()
            }
        );
        assert_eq!(
            merge_outcomes(TimedOut { deadline_ms: 5 }, Ok),
            TimedOut { deadline_ms: 5 }
        );
    }

    #[test]
    fn supervised_json_shape_without_running_points() {
        let run = SweepRun {
            workload: "cop_m".to_string(),
            scheme: "fpb".to_string(),
            baseline: "dimm-chip".to_string(),
            instructions: 1_000,
            points: vec![
                SweepPointRecord {
                    index: 0,
                    label: "pt=466t [FPB]".to_string(),
                    state: PointState::Done(Box::new(SweepPoint {
                        label: "pt=466t [FPB]".to_string(),
                        metrics: Metrics::default(),
                        baseline: Metrics::default(),
                    })),
                    outcome: JobOutcome::Ok,
                },
                SweepPointRecord {
                    index: 1,
                    label: "pt=560t [FPB]".to_string(),
                    state: PointState::Failed,
                    outcome: JobOutcome::Panicked {
                        message: "boom".to_string(),
                    },
                },
                SweepPointRecord {
                    index: 2,
                    label: "pt=512t [FPB]".to_string(),
                    state: PointState::Skipped,
                    outcome: JobOutcome::Skipped,
                },
            ],
            restored: 1,
            dropped_journal_lines: 0,
            cancelled: true,
            reuse: ReuseStats::default(),
        };
        let json = run.to_json();
        assert!(json.contains("\"schema\": \"fpb-sweep/v1\""));
        assert!(json.contains("\"ok\": 1,"));
        assert!(
            json.contains("\"retried\": 0,"),
            "the fpb-sweep/v1 key stays"
        );
        assert!(json.contains("\"panicked\": 1,"));
        assert!(json.contains("\"skipped\": 1,"));
        assert!(json.contains("\"cancelled\": true"));
        assert!(json.contains("\"class\": \"panicked\", \"detail\": \"boom\""));
        assert!(
            !json.contains("restored"),
            "run-local bookkeeping stays out of the JSON"
        );
        assert_eq!(run.count("ok"), 1);
        assert_eq!(run.quarantined().len(), 1);
        assert!(!run.complete());
    }
}
