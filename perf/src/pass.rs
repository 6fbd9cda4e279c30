//! One timed pass of a workload, with tracing off.

use std::path::Path;
use std::time::Instant;

use fpb_sim::engine::warm_cores;
use fpb_sim::journal::JournalMode;
use fpb_sim::metrics::gmean;
use fpb_sim::supervise::{CancelToken, SupervisePolicy};
use fpb_sim::sweep::{
    run_sweep_supervised, PointState, ReuseOptions, ReuseStats, SupervisedSweepRequest,
};
use fpb_sim::{EventSink, Metrics, Scheme, System};
use fpb_types::SimError;

use crate::plan::{grid_axes, Kind, Plan, BASELINE, SCHEME};
use crate::stats::Fnv1a64;

/// What one pass measured and produced.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Host seconds in `warm_cores` plus `System::with_cores`.
    pub setup_s: f64,
    /// Host seconds in the step loops (the cold sweep for `sweep_grid`).
    pub wall_s: f64,
    /// `sweep_grid`: host seconds of the warm sweep.
    pub warm_wall_s: f64,
    /// (baseline, scheme) results, one pair per trace or grid point.
    pub pairs: Vec<(Metrics, Metrics)>,
    /// FNV-1a-64 over every result's JSON rendering, in run order.
    pub digest: u64,
    /// Simulations attempted (for `sweep_grid`: grid points, cold and warm).
    pub attempted: u64,
    /// Simulations that failed, with the reason.
    pub failures: Vec<String>,
    /// `sweep_grid`: reuse bookkeeping of the cold and the warm sweep.
    pub reuse: Option<(ReuseStats, ReuseStats)>,
}

impl PassResult {
    /// Simulated cycles summed over every run.
    pub fn sim_cycles(&self) -> u64 {
        self.pairs.iter().map(|(b, s)| b.cycles + s.cycles).sum()
    }

    /// Gmean Eq. 7 speedup of the scheme over the baseline.
    pub fn speedup(&self) -> f64 {
        self.gmean_over(|b, s| s.speedup_over(b))
    }

    /// Gmean Fig. 18 write-throughput ratio of the scheme over the
    /// baseline (floored like the figure, so a write-free run reads 1).
    pub fn write_throughput_ratio(&self) -> f64 {
        self.gmean_over(|b, s| s.write_throughput().max(1e-9) / b.write_throughput().max(1e-9))
    }

    /// Gmean of `f(baseline, scheme)` over the pairs (0 when every run
    /// failed).
    fn gmean_over(&self, f: impl Fn(&Metrics, &Metrics) -> f64) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        gmean(&self.pairs.iter().map(|(b, s)| f(b, s)).collect::<Vec<_>>())
    }
}

/// FNV-1a-64 over every run's `Metrics::to_json`, in run order (a failed
/// run hashes as `failed`).
pub fn digest_runs(results: &[Option<Metrics>]) -> u64 {
    let mut h = Fnv1a64::default();
    for m in results {
        h.write(
            m.as_ref()
                .map_or_else(|| "failed".to_string(), Metrics::to_json)
                .as_bytes(),
        );
    }
    h.finish()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Steps `sys` to completion.
///
/// # Errors
///
/// The engine's scheduling failure, if any.
pub fn step_all<S: Scheme, E: EventSink>(sys: &mut System<S, E>) -> Result<(), SimError> {
    while sys.try_step()? {}
    Ok(())
}

/// Runs one pass of `plan`. `dir` is a fresh scratch directory for the
/// sweep's journal and cache files.
pub fn run_pass(plan: &Plan, dir: &Path) -> PassResult {
    match plan.kind {
        Kind::SweepGrid => sweep_pass(plan, dir),
        _ => matrix_pass(plan),
    }
}

fn matrix_pass(plan: &Plan) -> PassResult {
    let mut out = PassResult::default();
    let mut results: Vec<Option<Metrics>> = vec![None; plan.runs.len()];
    for (w, set) in plan.warm_sets.iter().enumerate() {
        let t = Instant::now();
        let cores = warm_cores(&set.trace, &set.cfg, &plan.opts);
        out.setup_s += secs(t);
        for r in plan.runs_of(w) {
            let run = &plan.runs[r];
            out.attempted += 1;
            let t = Instant::now();
            let mut sys =
                System::with_cores(&set.trace, &run.cfg, &run.setup, &plan.opts, cores.clone());
            out.setup_s += secs(t);
            let t = Instant::now();
            let stepped = step_all(&mut sys);
            out.wall_s += secs(t);
            match stepped {
                Ok(()) => results[r] = Some(sys.finish()),
                Err(e) => out
                    .failures
                    .push(format!("{} {}: {e}", set.trace.name, run.setup.label)),
            }
        }
    }
    out.digest = digest_runs(&results);
    out.pairs = results
        .chunks(2)
        .filter_map(|pair| match pair {
            [Some(b), Some(s)] => Some((b.clone(), s.clone())),
            _ => None,
        })
        .collect();
    out
}

/// The supervised sweep request for one pass: dedup on, the given journal
/// and result cache.
fn sweep_request<'a>(
    plan: &'a Plan,
    axes: &'a [fpb_sim::sweep::Axis],
    journal: &Path,
    cache: &Path,
) -> SupervisedSweepRequest<'a> {
    SupervisedSweepRequest {
        workload: &plan.warm_sets[0].trace,
        base_cfg: plan.cfg.clone(),
        axes,
        scheme: SCHEME,
        baseline: BASELINE,
        opts: plan.opts,
        policy: SupervisePolicy {
            jobs: plan.jobs,
            ..SupervisePolicy::default()
        },
        journal: Some(JournalMode::Fresh(journal.to_path_buf())),
        cancel: CancelToken::new(),
        cancel_after: None,
        inject_panic: None,
        reuse: ReuseOptions {
            dedup: true,
            cache: Some(cache.to_path_buf()),
        },
    }
}

/// Journal of the cold sweep in a pass directory.
pub fn cold_journal(dir: &Path) -> std::path::PathBuf {
    dir.join("cold.fpbj")
}

/// Result cache a pass's sweeps share.
pub fn cache_file(dir: &Path) -> std::path::PathBuf {
    dir.join("results.v1")
}

fn sweep_pass(plan: &Plan, dir: &Path) -> PassResult {
    let mut out = PassResult::default();
    // Set-up a sweep pays before its units step: warm each distinct core
    // set and build a system on it, timed standalone because the sweep
    // does both inside one call. (The traced pass times a construction
    // per unit, as `engine.construct_s`.)
    for (w, set) in plan.warm_sets.iter().enumerate() {
        let t = Instant::now();
        let cores = warm_cores(&set.trace, &set.cfg, &plan.opts);
        out.setup_s += secs(t);
        if let Some(r) = plan.runs_of(w).next() {
            let run = &plan.runs[r];
            let t = Instant::now();
            let sys =
                System::with_cores(&set.trace, &run.cfg, &run.setup, &plan.opts, cores.clone());
            out.setup_s += secs(t);
            drop(sys);
        }
    }
    let axes = grid_axes();
    let cache = cache_file(dir);
    let t = Instant::now();
    let cold = run_sweep_supervised(sweep_request(plan, &axes, &cold_journal(dir), &cache));
    out.wall_s = secs(t);
    let t = Instant::now();
    let warm = run_sweep_supervised(sweep_request(plan, &axes, &dir.join("warm.fpbj"), &cache));
    out.warm_wall_s = secs(t);
    let (cold, warm) = match (cold, warm) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => {
            out.attempted = 2 * plan.grid_points.len() as u64;
            out.failures.push(format!("sweep failed: {e}"));
            return out;
        }
    };
    out.attempted = (cold.points.len() + warm.points.len()) as u64;
    for (name, run) in [("cold", &cold), ("warm", &warm)] {
        for q in run.quarantined() {
            out.failures.push(format!(
                "{name} sweep point {} quarantined: {}",
                q.label,
                q.outcome.class()
            ));
        }
        if !run.complete() && run.quarantined().is_empty() {
            out.failures.push(format!("{name} sweep incomplete"));
        }
    }
    let doc = cold.to_json();
    if warm.to_json() != doc {
        out.failures
            .push("warm sweep output differs from the cold sweep's".to_string());
    }
    if warm.reuse.simulated != 0 {
        out.failures.push(format!(
            "warm sweep simulated {} units",
            warm.reuse.simulated
        ));
    }
    let mut h = Fnv1a64::default();
    h.write(doc.as_bytes());
    out.digest = h.finish();
    out.pairs = cold
        .points
        .iter()
        .filter_map(|p| match &p.state {
            PointState::Done(p) => Some((p.baseline.clone(), p.metrics.clone())),
            _ => None,
        })
        .collect();
    out.reuse = Some((cold.reuse, warm.reuse));
    out
}
