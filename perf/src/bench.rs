//! Running one workload: an untimed pass, timed passes, traced passes,
//! the correctness gates, and the report.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::catalog::{self, PINNED_DIGESTS};
use crate::json;
use crate::layers::traced_pass;
use crate::pass::{run_pass, secs, PassResult};
use crate::plan::{Kind, Plan};
use crate::stats::{summarize, Summary};

/// How long to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many timed passes and one traced pass.
    Passes(usize),
    /// Repeat passes until this many seconds have been measured (at least
    /// [`MIN_TIMED_PASSES`] timed passes, or one traced pass).
    Seconds(f64),
}

/// Fewest timed passes a seconds budget runs, so a median exists.
pub const MIN_TIMED_PASSES: usize = 3;

/// Which metrics a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// End-to-end metrics only, tracing off (`--trace 0`).
    Off,
    /// Per-layer metrics only (`--trace 1`).
    On,
    /// Timed passes, then the traced pass.
    Both,
}

/// Everything that selects one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub kind: Kind,
    /// Seed of the simulated inputs.
    pub seed: u64,
    /// Measurement length.
    pub budget: Budget,
    /// Which metrics to measure.
    pub tracing: Tracing,
    /// Instruction-budget multiplier (1 = the benchmark as defined).
    pub scale: f64,
}

/// One metric's summary across passes.
#[derive(Debug, Clone)]
pub struct MetricResult {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and pass count.
    pub summary: Summary,
}

/// The result of running one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Seed used.
    pub seed: u64,
    /// Scale used.
    pub scale: f64,
    /// Worker threads the workload used.
    pub jobs: usize,
    /// Logical cores the host reports.
    pub nproc: usize,
    /// Every gate passed.
    pub correct: bool,
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations failed (including failed cross-checks).
    pub failed: u64,
    /// Why each failure or gate failed.
    pub problems: Vec<String>,
    /// Result digest (hex).
    pub digest: String,
    /// Timed passes run.
    pub timed_passes: usize,
    /// Traced passes run.
    pub traced_passes: usize,
    /// Metrics, end-to-end first, in catalog order.
    pub metrics: Vec<MetricResult>,
}

/// Logical cores this host reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// An emptied scratch directory for the next pass (each pass's files are
/// needed only while it runs).
fn pass_dir(root: &Path) -> Result<PathBuf, String> {
    let dir = root.join("pass");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one workload. `scratch` is a private directory for sweep journals,
/// caches and event logs; the caller removes it.
///
/// # Errors
///
/// A message if the workload's inputs cannot be built or the scratch
/// directory cannot be used. Simulation failures are reported in the
/// result instead.
pub fn run_workload(opts: &RunOptions, scratch: &Path) -> Result<WorkloadReport, String> {
    let plan = Plan::new(opts.kind, opts.seed, opts.scale)?;
    let mut attempted = 0u64;
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0u64;

    // Untimed pass: the reference results every later pass must match,
    // and caches, page tables and CPU-frequency credit settle before timing.
    let reference = run_pass(&plan, &pass_dir(scratch)?);
    attempted += reference.attempted;
    failed += reference.failures.len() as u64;
    problems.extend(reference.failures.iter().cloned());

    let mut timed: Vec<PassResult> = Vec::new();
    if opts.tracing != Tracing::On {
        let start = Instant::now();
        loop {
            let p = run_pass(&plan, &pass_dir(scratch)?);
            attempted += p.attempted;
            failed += p.failures.len() as u64;
            problems.extend(p.failures.iter().cloned());
            if p.digest != reference.digest && p.failures.is_empty() {
                failed += p.attempted;
                problems.push(format!(
                    "timed pass {} results differ from the untimed pass",
                    timed.len() + 1
                ));
            }
            timed.push(p);
            let done = match opts.budget {
                Budget::Passes(n) => timed.len() >= n,
                Budget::Seconds(s) => timed.len() >= MIN_TIMED_PASSES && secs(start) >= s,
            };
            if done {
                break;
            }
        }
    }
    let rss = peak_rss_mib();

    let mut traced = Vec::new();
    if opts.tracing != Tracing::Off {
        let start = Instant::now();
        loop {
            let tp = traced_pass(&plan, &pass_dir(scratch)?);
            attempted += tp.attempted;
            failed += tp.failures.len() as u64;
            problems.extend(tp.failures.iter().cloned());
            if plan.kind != Kind::SweepGrid
                && tp.digest != reference.digest
                && tp.failures.is_empty()
            {
                failed += tp.attempted;
                problems.push("traced pass results differ from the untimed pass".to_string());
            }
            traced.push(tp);
            let done = match opts.budget {
                Budget::Passes(_) => true,
                Budget::Seconds(s) => opts.tracing == Tracing::Both || secs(start) >= s,
            };
            if done {
                break;
            }
        }
    }

    let mut metrics = Vec::new();
    if !timed.is_empty() {
        let rss = rss.ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics.extend(end_to_end(&plan, &timed, &reference, rss));
    }
    if let Some(first) = traced.first() {
        for (i, &(name, _)) in first.values.iter().enumerate() {
            let xs: Vec<f64> = traced.iter().map(|t| t.values[i].1).collect();
            let unit = catalog::metric(name).map_or("", |d| d.unit);
            let is_count = unit == "count";
            if is_count && xs.iter().any(|&x| x != xs[0]) {
                failed += 1;
                problems.push(format!("{name} differs between traced passes"));
            }
            if let Some(summary) = summarize(&xs) {
                metrics.push(MetricResult {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    summary,
                });
            }
        }
    }

    let digest = format!("{:016x}", reference.digest);
    if opts.seed == fpb_types::SystemConfig::default().seed && opts.scale == 1.0 {
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(w, _)| *w == opts.kind.name())
            .map(|(_, d)| *d);
        if pinned != Some(digest.as_str()) {
            problems.push(format!(
                "digest {digest} does not match the pinned {}",
                pinned.unwrap_or("(none)")
            ));
        }
    }
    if opts.kind == Kind::FigureMatrix && reference.speedup() < 1.0 {
        problems.push(format!(
            "FPB loses to DIMM+chip in gmean ({:.4}x)",
            reference.speedup()
        ));
    }
    Ok(WorkloadReport {
        workload: opts.kind.name().to_string(),
        seed: opts.seed,
        scale: opts.scale,
        jobs: plan.jobs,
        nproc: nproc(),
        correct: problems.is_empty(),
        attempted,
        failed: failed.min(attempted),
        problems,
        digest,
        timed_passes: timed.len(),
        traced_passes: traced.len(),
        metrics,
    })
}

/// The end-to-end metrics across timed passes.
fn end_to_end(
    plan: &Plan,
    timed: &[PassResult],
    reference: &PassResult,
    rss: f64,
) -> Vec<MetricResult> {
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| -> Summary {
        summarize(&timed.iter().map(f).collect::<Vec<_>>()).unwrap_or(Summary::exact(0.0))
    };
    let instructions = reference.pairs.len() as f64 * 2.0 * plan.instructions_per_run() as f64;
    let points = reference.pairs.len() as f64;
    let sweep = plan.kind == Kind::SweepGrid;
    let values = [
        ("wall_s", per_pass(&|p| p.wall_s)),
        ("setup_s", per_pass(&|p| p.setup_s)),
        ("sim_instr_per_s", per_pass(&|p| instructions / p.wall_s)),
        (
            "points_per_s",
            per_pass(&|p| {
                points
                    / if sweep {
                        p.wall_s
                    } else {
                        p.setup_s + p.wall_s
                    }
            }),
        ),
        ("peak_rss_mib", Summary::exact(rss)),
        ("sim_cycles", Summary::exact(reference.sim_cycles() as f64)),
        ("fpb_speedup", Summary::exact(reference.speedup())),
        (
            "fpb_write_throughput",
            Summary::exact(reference.write_throughput_ratio()),
        ),
    ];
    values
        .into_iter()
        .map(|(name, summary)| MetricResult {
            name: name.to_string(),
            unit: catalog::metric(name).map_or("", |d| d.unit).to_string(),
            summary,
        })
        .collect()
}

impl WorkloadReport {
    /// Failed simulations per attempted simulation.
    pub fn failed_ops_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line result object: correctness, counts, and each metric's
    /// median with its unit.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.summary.median),
                json::string(&m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// This workload's entry in a results document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": {},", json::string(&self.workload));
        let _ = writeln!(s, "      \"seed\": {},", self.seed);
        let _ = writeln!(s, "      \"scale\": {},", json::number(self.scale));
        let _ = writeln!(s, "      \"nproc\": {},", self.nproc);
        let _ = writeln!(s, "      \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "      \"correct\": {},", self.correct);
        let _ = writeln!(s, "      \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "      \"failed\": {},", self.failed);
        let _ = writeln!(
            s,
            "      \"failed_ops_ratio\": {},",
            json::number(self.failed_ops_ratio())
        );
        let _ = writeln!(s, "      \"digest\": {},", json::string(&self.digest));
        let _ = writeln!(s, "      \"timed_passes\": {},", self.timed_passes);
        let _ = writeln!(s, "      \"traced_passes\": {},", self.traced_passes);
        let problems: Vec<String> = self.problems.iter().map(|p| json::string(p)).collect();
        let _ = writeln!(s, "      \"problems\": [{}],", problems.join(", "));
        let _ = writeln!(s, "      \"metrics\": {{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "        {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json::string(&m.name),
                json::string(&m.unit),
                json::number(m.summary.median),
                json::number(m.summary.q1),
                json::number(m.summary.q3),
                m.summary.n
            );
            s.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(s, "      }}");
        let _ = write!(s, "    }}");
        s
    }
}

/// A results document holding `entries` (rendered workload entries).
pub fn document(entries: &[String]) -> String {
    format!(
        "{{\n  \"schema\": \"fpb-perf/v1\",\n  \"nproc\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        nproc(),
        entries.join(",\n")
    )
}

/// The text table of every workload's metrics.
pub fn table(reports: &[WorkloadReport]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:<32} {:>9} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    for r in reports {
        for m in &r.metrics {
            let _ = writeln!(
                s,
                "{:<14} {:<32} {:>9} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                r.workload,
                m.name,
                m.unit,
                m.summary.median,
                m.summary.q1,
                m.summary.q3,
                m.summary.n
            );
        }
        let _ = writeln!(
            s,
            "{:<14} correct={} attempted={} failed={} digest={} nproc={} jobs={}",
            r.workload, r.correct, r.attempted, r.failed, r.digest, r.nproc, r.jobs
        );
        if let Some(sp) = r.metrics.iter().find(|m| m.name == "fpb_speedup") {
            if r.workload == "figure_matrix" {
                let wt = r.metrics.iter().find(|m| m.name == "fpb_write_throughput");
                let _ = writeln!(
                    s,
                    "{:<14} FPB over DIMM+chip: speedup {:.3}x (paper 1.756x), write throughput {:.3}x (paper 3.4x); the model is not validated against hardware",
                    r.workload,
                    sp.summary.median,
                    wt.map_or(0.0, |m| m.summary.median)
                );
            }
        }
        for p in &r.problems {
            let _ = writeln!(s, "{:<14} PROBLEM: {p}", r.workload);
        }
    }
    s
}
