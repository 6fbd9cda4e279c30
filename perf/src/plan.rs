//! The inputs each workload simulates, built from the seed and scale.

use fpb_core::effective_config_desc;
use fpb_sim::sweep::{enumerate_grid, Axis};
use fpb_sim::{Scheme, SchemeRegistry, SchemeSetup, SimOptions};
use fpb_trace::{catalog, Workload};
use fpb_types::SystemConfig;

/// The baseline every speedup is measured against.
pub const BASELINE: &str = "dimm-chip";
/// The scheme under test.
pub const SCHEME: &str = "fpb";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every Table-2 trace under both schemes, short runs.
    FigureMatrix,
    /// The most write-intensive trace, long runs.
    PowerBound,
    /// A trace with almost no writes, long runs.
    ComputeBound,
    /// The pinned 36-point sweep grid.
    SweepGrid,
}

impl Kind {
    /// Every workload, in the order `fpb-perf all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::FigureMatrix,
        Kind::PowerBound,
        Kind::ComputeBound,
        Kind::SweepGrid,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FigureMatrix => "figure_matrix",
            Kind::PowerBound => "power_bound",
            Kind::ComputeBound => "compute_bound",
            Kind::SweepGrid => "sweep_grid",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Table-2 traces and instructions per core at scale 1.
    fn traces_and_instructions(self) -> (Vec<&'static str>, u64) {
        match self {
            Kind::FigureMatrix => (catalog::WORKLOADS.to_vec(), 120_000),
            Kind::PowerBound => (vec!["mum_m"], 10_000_000),
            Kind::ComputeBound => (vec!["xal_m"], 100_000_000),
            Kind::SweepGrid => (vec!["mcf_m"], 1_000_000),
        }
    }
}

/// The grid `sweep_grid` runs: line size x PT_DIMM x E_GCP (36 points),
/// the grid `fpb bench` pins.
pub fn grid_axes() -> Vec<Axis> {
    vec![
        Axis::line_bytes(&[64, 128, 256]),
        Axis::pt_dimm(&[466, 512, 560, 608]),
        Axis::e_gcp(&[0.5, 0.7, 0.9]),
    ]
}

/// One set of warmed cores: a trace and the configuration it warms under.
#[derive(Debug, Clone)]
pub struct WarmSet {
    /// The Table-2 trace.
    pub trace: Workload,
    /// The configuration whose cache geometry the cores warm with.
    pub cfg: SystemConfig,
}

/// One simulation: a warm set, the configuration it runs under, and the
/// scheme.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Index into [`Plan::warm_sets`].
    pub warm: usize,
    /// The run's configuration.
    pub cfg: SystemConfig,
    /// The built scheme.
    pub setup: SchemeSetup,
    /// The run's identity: trace, options, the configuration as the
    /// scheme sees it, and the scheme. Two runs with one identity produce
    /// the same result, which is how a sweep deduplicates.
    pub desc: String,
}

/// Everything one workload simulates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// Run-scale options shared by every run.
    pub opts: SimOptions,
    /// The seeded base configuration.
    pub cfg: SystemConfig,
    /// Distinct warmed-core sets, in first-use order.
    pub warm_sets: Vec<WarmSet>,
    /// The simulations, each naming its warm set. For the matrix workloads
    /// they come in (baseline, scheme) pairs; for `sweep_grid` they are the
    /// grid's deduplicated units, which the traced pass runs standalone.
    pub runs: Vec<RunSpec>,
    /// `sweep_grid` only: each grid point's (baseline, scheme) run index.
    pub grid_points: Vec<(usize, usize)>,
    /// Worker threads for the supervised sweep (1 elsewhere).
    pub jobs: usize,
}

impl Plan {
    /// Builds the workload's inputs. `scale` multiplies every instruction
    /// budget (and the warm-up stream, below 1) for quick smoke runs.
    ///
    /// # Errors
    ///
    /// A message if a trace, scheme or grid point fails to build.
    pub fn new(kind: Kind, seed: u64, scale: f64) -> Result<Plan, String> {
        let cfg = SystemConfig::default().with_seed(seed);
        let scaled = |n: u64| ((n as f64 * scale).round() as u64).max(1);
        let (names, instructions) = kind.traces_and_instructions();
        let mut opts = SimOptions::with_instructions(scaled(instructions));
        if scale < 1.0 {
            opts.warmup_accesses = Some(scaled(60_000));
        }
        let traces = names
            .iter()
            .map(|n| catalog::workload(n).ok_or_else(|| format!("unknown trace `{n}`")))
            .collect::<Result<Vec<_>, _>>()?;
        let registry = SchemeRegistry::standard();
        let build = |spec: &str, cfg: &SystemConfig| {
            registry
                .build(spec, cfg)
                .map_err(|e| format!("scheme `{spec}`: {e}"))
        };
        let mut plan = Plan {
            kind,
            opts,
            cfg: cfg.clone(),
            warm_sets: Vec::new(),
            runs: Vec::new(),
            grid_points: Vec::new(),
            jobs: 1,
        };
        if kind != Kind::SweepGrid {
            for trace in traces {
                let warm = plan.warm_sets.len();
                for spec in [BASELINE, SCHEME] {
                    let setup = build(spec, &cfg)?;
                    let desc = plan.run_desc(&trace, &cfg, &setup);
                    plan.runs.push(RunSpec {
                        warm,
                        cfg: cfg.clone(),
                        setup,
                        desc,
                    });
                }
                plan.warm_sets.push(WarmSet {
                    trace,
                    cfg: cfg.clone(),
                });
            }
            return Ok(plan);
        }
        plan.jobs = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let trace = traces.into_iter().next().ok_or("sweep_grid has no trace")?;
        let grid = enumerate_grid(&cfg, &grid_axes()).map_err(|e| e.to_string())?;
        let mut warm_keys: Vec<String> = Vec::new();
        for (_, gcfg) in &grid {
            // Cores warm identically whenever the cache geometry agrees.
            let key = format!("{:?}", gcfg.cache);
            let warm = match warm_keys.iter().position(|k| *k == key) {
                Some(w) => w,
                None => {
                    warm_keys.push(key);
                    plan.warm_sets.push(WarmSet {
                        trace: trace.clone(),
                        cfg: gcfg.clone(),
                    });
                    warm_keys.len() - 1
                }
            };
            let mut unit = |spec: &str| -> Result<usize, String> {
                let setup = build(spec, gcfg)?;
                let desc = plan.run_desc(&trace, gcfg, &setup);
                Ok(match plan.runs.iter().position(|r| r.desc == desc) {
                    Some(u) => u,
                    None => {
                        plan.runs.push(RunSpec {
                            warm,
                            cfg: gcfg.clone(),
                            setup,
                            desc,
                        });
                        plan.runs.len() - 1
                    }
                })
            };
            let point = (unit(BASELINE)?, unit(SCHEME)?);
            plan.grid_points.push(point);
        }
        Ok(plan)
    }

    fn run_desc(&self, trace: &Workload, cfg: &SystemConfig, setup: &SchemeSetup) -> String {
        format!(
            "{}|{:?}|{}|{setup:?}",
            trace.name,
            self.opts,
            effective_config_desc(cfg, setup.sensitivity())
        )
    }

    /// Instructions every run retires across its cores.
    pub fn instructions_per_run(&self) -> u64 {
        self.opts.instructions_per_core * u64::from(self.cfg.cores)
    }

    /// Indices of the runs warmed from warm set `w`.
    pub fn runs_of(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.runs.len()).filter(move |&r| self.runs[r].warm == w)
    }
}
