//! Experiment harness: every table and figure of the FPB paper, and the
//! paper's claims about each, checked on every run.
//!
//! The one bench target, `figures`, is a table of figures. Each prints
//! what the paper reports and returns its [`Claim`]s; the target prints
//! each claim's [`check`] against the pinned divergences and exits 1 if
//! any fails. This crate holds the shared machinery: run scale, the
//! matrix runner every simulating figure goes through (schemes are named
//! by [`SchemeRegistry`] spec), printing, and the check.
//!
//! Run scale: `FPB_INSTRUCTIONS` per core, default
//! [`DEFAULT_INSTRUCTIONS`] (reduced, shape-preserving). The pins hold at
//! the default scale; at another, a claim may fail or a pinned one hold,
//! and the run fails to say so.
//!
//! Parallelism: [`run_matrix`] fans workloads across `FPB_JOBS` worker
//! threads (default: the machine's available parallelism); results are
//! identical for any count. Pools never nest, so only a fan-out with one
//! worker (`FPB_JOBS=1` or one workload) warms its cores on up to
//! `FPB_JOBS` threads.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use fpb_sim::engine::{run_workload_warmed, warm_cores_jobs};
use fpb_sim::exec::{default_jobs, parallel_map_indexed};
pub use fpb_sim::metrics::gmean;
pub use fpb_sim::{Metrics, SimOptions};
use fpb_sim::{SchemeRegistry, SchemeSetup};
use fpb_trace::catalog::{self, Workload, WORKLOADS};
pub use fpb_types::SystemConfig;

/// Default per-core instruction budget for bench runs.
pub const DEFAULT_INSTRUCTIONS: u64 = 120_000;

/// Reads the run scale from `FPB_INSTRUCTIONS`, defaulting to
/// [`DEFAULT_INSTRUCTIONS`].
///
/// # Examples
///
/// ```
/// let opts = fpb_bench::bench_options();
/// assert!(opts.instructions_per_core > 0);
/// ```
// The bench harness is sized by its caller's environment; the run itself
// stays a pure function of the options it builds.
#[allow(clippy::disallowed_methods)]
pub fn bench_options() -> SimOptions {
    let instr = std::env::var("FPB_INSTRUCTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS);
    SimOptions::with_instructions(instr)
}

/// Worker threads for bench fan-out: `FPB_JOBS` if set (minimum 1),
/// otherwise the machine's available parallelism.
// Results are identical for any worker count, so reading it is safe.
#[allow(clippy::disallowed_methods)]
pub fn bench_jobs() -> usize {
    std::env::var("FPB_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(default_jobs)
        .max(1)
}

/// Loads all thirteen Table 2 workloads.
///
/// # Panics
///
/// Panics if the catalog is inconsistent (a bug).
pub fn all_workloads() -> Vec<Workload> {
    WORKLOADS
        .iter()
        .map(|n| catalog::workload(n).expect("catalog workload"))
        .collect()
}

/// One row of a result table: a workload name and one value per scheme.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (workload name, or `gmean`).
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
}

impl Row {
    /// A row labelled `label`.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Row {
        let label = label.into();
        Row { label, values }
    }
}

/// Builds the schemes named by registry `specs` against `cfg`.
///
/// # Panics
///
/// Panics if any spec does not resolve in the [`SchemeRegistry`].
pub fn setups(cfg: &SystemConfig, specs: &[impl AsRef<str>]) -> Vec<SchemeSetup> {
    let registry = SchemeRegistry::standard();
    specs
        .iter()
        .map(|spec| {
            let spec = spec.as_ref();
            registry
                .build(spec, cfg)
                .unwrap_or_else(|e| panic!("scheme spec `{spec}`: {e}"))
        })
        .collect()
}

/// Runs `setups` over `workloads`, fanned across [`bench_jobs`] worker
/// threads, and returns the metrics indexed `[workload][setup]`,
/// identical to a serial run's.
pub fn run_matrix(
    cfg: &SystemConfig,
    workloads: &[Workload],
    setups: &[SchemeSetup],
    opts: &SimOptions,
) -> Vec<Vec<Metrics>> {
    let jobs = bench_jobs();
    parallel_map_indexed(workloads, jobs, |_, wl| {
        // Warm once per workload; every scheme replays from identical
        // initial cache state.
        let cores = warm_cores_jobs(wl, cfg, opts, jobs);
        setups
            .iter()
            .map(|s| run_workload_warmed(wl, cfg, s, opts, &cores))
            .collect()
    })
}

/// One row per workload: `f` of its row of `matrix`.
pub fn workload_rows(
    workloads: &[Workload],
    matrix: &[Vec<Metrics>],
    f: impl Fn(&[Metrics]) -> Vec<f64>,
) -> Vec<Row> {
    let row = |(wl, ms): (&Workload, &Vec<Metrics>)| Row::new(wl.name, f(ms));
    workloads.iter().zip(matrix).map(row).collect()
}

/// Converts a metrics matrix into speedup rows relative to column
/// `baseline_col` (Eq. 7), appending a `gmean` row.
///
/// # Panics
///
/// Panics if `baseline_col` is out of range.
pub fn speedup_rows(
    workloads: &[Workload],
    matrix: &[Vec<Metrics>],
    baseline_col: usize,
) -> Vec<Row> {
    with_gmean(workload_rows(workloads, matrix, |ms| {
        ms.iter()
            .map(|m| m.speedup_over(&ms[baseline_col]))
            .collect()
    }))
}

/// Appends a `gmean` row: each column's geometric mean over `rows`.
///
/// # Panics
///
/// Panics if a value is not positive.
pub fn with_gmean(mut rows: Vec<Row>) -> Vec<Row> {
    let cols = rows.first().map_or(0, |r| r.values.len());
    let values = (0..cols)
        .map(|c| gmean(&rows.iter().map(|r| r.values[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(Row::new("gmean", values));
    rows
}

/// Runs the `(spec, column)` schemes on every workload at `cfg`, prints
/// each one's speedup over the first as the table `title`, and returns
/// the columns' gmeans.
pub fn speedup_figure(
    title: &str,
    cfg: &SystemConfig,
    schemes: &[(&str, &str)],
    opts: &SimOptions,
) -> Vec<f64> {
    let (specs, columns): (Vec<&str>, Vec<&str>) = schemes.iter().copied().unzip();
    let wls = all_workloads();
    let mut rows = speedup_rows(&wls, &run_matrix(cfg, &wls, &setups(cfg, &specs), opts), 0);
    print_table(title, &columns, &rows);
    rows.pop().expect("gmean row").values
}

/// FPB's speedup over DIMM+chip on every workload at each of `cfgs` (one
/// column per config), plus a `gmean` row.
pub fn fpb_over_dimm_chip(cfgs: &[SystemConfig], opts: &SimOptions) -> Vec<Row> {
    let wls = all_workloads();
    let mut rows: Vec<Row> = wls.iter().map(|wl| Row::new(wl.name, Vec::new())).collect();
    for cfg in cfgs {
        let matrix = run_matrix(cfg, &wls, &setups(cfg, &["dimm-chip", "fpb"]), opts);
        for (row, ms) in rows.iter_mut().zip(&matrix) {
            row.values.push(ms[1].speedup_over(&ms[0]));
        }
    }
    with_gmean(rows)
}

/// Prints a table in the paper's figure layout: workloads down the side,
/// schemes across the top.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    let head: String = columns.iter().map(|c| format!(" {c:>14}")).collect();
    println!("{:<10}{head}", "workload");
    for r in rows {
        let cells: String = r.values.iter().map(|v| format!(" {v:>14.3}")).collect();
        println!("{:<10}{cells}", r.label);
    }
}

/// Prints [`fpb_over_dimm_chip`] at `cfgs` as the table `title`, then
/// the `paper` line and each column's measured gmean gain, and returns
/// the gmeans.
pub fn gains_figure(
    title: &str,
    columns: &[&str],
    cfgs: &[SystemConfig],
    paper: &str,
    opts: &SimOptions,
) -> Vec<f64> {
    let mut rows = fpb_over_dimm_chip(cfgs, opts);
    print_table(title, columns, &rows);
    println!("\n{paper}");
    let g = rows.pop().expect("gmean row").values;
    let gain = |(c, v): (&&str, &f64)| format!("{c} +{:.1} %", (v - 1.0) * 100.0);
    let gains: Vec<String> = columns.iter().zip(&g).map(gain).collect();
    println!("measured gmeans: {}", gains.join(", "));
    g
}

/// One statement a figure makes about its own shape, and whether this
/// run bears it out. The statement holds no measured numbers, so that a
/// [`Pin`] can name it on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// What the figure asserts.
    pub statement: String,
    /// Whether the run's numbers bear it out.
    pub holds: bool,
}

/// Claims from `(statement, holds)` pairs.
pub fn claims(pairs: &[(&str, bool)]) -> Vec<Claim> {
    let claim = |&(statement, holds): &(&str, bool)| Claim {
        statement: statement.to_string(),
        holds,
    };
    pairs.iter().map(claim).collect()
}

/// A claim known to fail: a divergence from the paper, with its cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The figure whose claim it pins.
    pub figure: &'static str,
    /// The pinned claim's statement, exactly.
    pub statement: &'static str,
    /// Why the claim fails.
    pub reason: &'static str,
}

/// Checks the claims of `figure` against `pins`: one line per claim, in
/// order, then one per pin of `figure` that matched none of them, each
/// with whether it fails the run. An unpinned claim that fails, a pinned
/// claim that holds and a pin that matches nothing all do. Pins of other
/// figures are ignored, so a run that skips a figure never fails on them.
pub fn check(figure: &str, claims: &[Claim], pins: &[Pin]) -> Vec<(bool, String)> {
    let pins: Vec<&Pin> = pins.iter().filter(|p| p.figure == figure).collect();
    let mut lines: Vec<(bool, String)> = claims
        .iter()
        .map(|c| {
            let pin = pins.iter().find(|p| p.statement == c.statement);
            let (fails, head) = match (c.holds, pin.is_some()) {
                (true, false) => (false, "claim holds"),
                (false, false) => (true, "CLAIM FAILS"),
                (false, true) => (false, "claim fails, pinned divergence"),
                (true, true) => (true, "PINNED CLAIM HOLDS, remove its pin"),
            };
            let reason = pin.map(|p| format!(" ({})", p.reason)).unwrap_or_default();
            (fails, format!("{head}: {}{reason}", c.statement))
        })
        .collect();
    for p in pins {
        if claims.iter().all(|c| c.statement != p.statement) {
            let line = format!("PIN MATCHES NO CLAIM: {} ({})", p.statement, p.reason);
            lines.push((true, line));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_and_env_parse() {
        let opts = bench_options();
        assert!(opts.instructions_per_core >= 1);
    }

    #[test]
    fn jobs_default_is_positive() {
        assert!(bench_jobs() >= 1);
    }

    #[test]
    fn workload_list_matches_catalog() {
        let wls = all_workloads();
        assert_eq!(wls.len(), 13);
        assert_eq!(wls[0].name, "ast_m");
        assert_eq!(wls[12].name, "mix_3");
    }

    #[test]
    fn speedup_rows_normalize_to_baseline() {
        let cfg = SystemConfig::default();
        let wls = vec![catalog::workload("mcf_m").unwrap()];
        let opts = SimOptions::with_instructions(60_000);
        let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &["dimm-chip", "ideal"]), &opts);
        let rows = speedup_rows(&wls, &matrix, 0);
        assert_eq!(rows.len(), 2); // workload + gmean
        assert_eq!(rows[0].values[0], 1.0, "baseline column is 1.0");
        assert!(
            rows[0].values[1] > 1.0,
            "Ideal must beat DIMM+chip on a write-bound workload: {}",
            rows[0].values[1]
        );
    }

    const PIN: Pin = Pin {
        figure: "fig",
        statement: "pinned",
        reason: "known cause",
    };

    /// `check`'s lines for `figure`'s claims, and whether any fails.
    fn checked(figure: &str, pairs: &[(&str, bool)]) -> (Vec<String>, bool) {
        let lines = check(figure, &claims(pairs), &[PIN]);
        let failed = lines.iter().any(|l| l.0);
        (lines.into_iter().map(|l| l.1).collect(), failed)
    }

    #[test]
    fn clean_claims_pass_the_check() {
        let (lines, failed) = checked("fig", &[("a", true), ("pinned", false)]);
        let pinned = "claim fails, pinned divergence: pinned (known cause)";
        assert_eq!(lines, ["claim holds: a", pinned]);
        assert!(!failed);
    }

    #[test]
    fn each_kind_of_failure_fails_the_check() {
        // An unpinned claim that fails.
        let (lines, failed) = checked("fig", &[("a", false), ("pinned", false)]);
        assert!(failed && lines[0] == "CLAIM FAILS: a", "{lines:?}");
        // A pinned claim that holds.
        let (lines, failed) = checked("fig", &[("pinned", true)]);
        assert!(
            failed && lines[0].starts_with("PINNED CLAIM HOLDS"),
            "{lines:?}"
        );
        // A misspelt statement: the claim fails unpinned, and the pin
        // matches no claim of its figure.
        let (lines, failed) = checked("fig", &[("pined", false)]);
        let unmatched = "PIN MATCHES NO CLAIM: pinned (known cause)";
        assert!(
            failed && lines == ["CLAIM FAILS: pined", unmatched],
            "{lines:?}"
        );
    }

    #[test]
    fn pins_of_figures_that_did_not_run_are_ignored() {
        let (lines, failed) = checked("other", &[("pinned", true)]);
        assert_eq!(
            (lines, failed),
            (vec!["claim holds: pinned".to_string()], false)
        );
        assert_eq!(checked("other", &[]), (vec![], false));
    }
}
