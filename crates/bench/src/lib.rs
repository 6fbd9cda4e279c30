//! Experiment harness shared by every per-figure bench.
//!
//! Each bench target (`benches/figXX_*.rs`, `harness = false`) regenerates
//! one table or figure of the paper: it sweeps the paper's workloads and
//! schemes through [`fpb_sim::run_workload`] and prints the same
//! rows/series the paper reports. This crate holds the shared machinery:
//! run-scale selection, the speedup matrix runner, and table printing.
//!
//! Run scale: benches default to a reduced, shape-preserving instruction
//! budget. Set `FPB_INSTRUCTIONS` (per core) to raise or lower it, e.g.
//! `FPB_INSTRUCTIONS=500000 cargo bench -p fpb-bench`.
//!
//! Parallelism: [`run_matrix`] fans workloads across worker threads
//! (results are deterministic and identical to a serial run). Set
//! `FPB_JOBS` to pin the worker count; it defaults to the machine's
//! available parallelism.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::exec::{default_jobs, parallel_map_indexed};
use fpb_sim::metrics::gmean;
use fpb_sim::{Metrics, SchemeRegistry, SchemeSetup, SimOptions};
use fpb_trace::catalog::{self, Workload, WORKLOADS};
use fpb_types::SystemConfig;

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

/// Runs the schemes named by registry `specs` over `workloads` and
/// returns per-workload metrics (indexed `[workload][spec]`).
///
/// # Panics
///
/// Panics if any spec does not resolve in the [`SchemeRegistry`].
pub fn run_matrix(
    cfg: &SystemConfig,
    workloads: &[Workload],
    specs: &[&str],
    opts: &SimOptions,
) -> Vec<Vec<Metrics>> {
    let registry = SchemeRegistry::standard();
    let setups: Vec<SchemeSetup> = specs
        .iter()
        .map(|spec| {
            registry
                .build(spec, cfg)
                .unwrap_or_else(|e| panic!("scheme spec `{spec}`: {e}"))
        })
        .collect();
    run_matrix_setups(cfg, workloads, &setups, opts)
}

/// Runs already-built `setups` over `workloads` and returns per-workload
/// metrics (indexed `[workload][setup]`) — for benches composing setups
/// the spec grammar cannot express (e.g. builder-chained ablations).
///
/// Workloads fan across [`bench_jobs`] worker threads; results keep
/// workload order and are identical to a serial run.
pub fn run_matrix_setups(
    cfg: &SystemConfig,
    workloads: &[Workload],
    setups: &[SchemeSetup],
    opts: &SimOptions,
) -> Vec<Vec<Metrics>> {
    parallel_map_indexed(workloads, bench_jobs(), |_, wl| {
        // Warm once per workload; every scheme replays from identical
        // initial cache state.
        let cores = warm_cores(wl, cfg, opts);
        setups
            .iter()
            .map(|s| run_workload_warmed(wl, cfg, s, opts, &cores))
            .collect()
    })
}

/// Converts a metrics matrix into speedup rows relative to column
/// `baseline_col` (Eq. 7), appending a `gmean` row.
///
/// # Panics
///
/// Panics if the matrix is empty or `baseline_col` is out of range.
pub fn speedup_rows(
    workloads: &[Workload],
    matrix: &[Vec<Metrics>],
    baseline_col: usize,
) -> Vec<Row> {
    assert!(!matrix.is_empty(), "empty matrix");
    let cols = matrix[0].len();
    assert!(baseline_col < cols, "baseline column out of range");
    let mut rows: Vec<Row> = workloads
        .iter()
        .zip(matrix)
        .map(|(wl, ms)| Row {
            label: wl.name.to_string(),
            values: ms
                .iter()
                .map(|m| m.speedup_over(&ms[baseline_col]))
                .collect(),
        })
        .collect();
    let gmean_vals: Vec<f64> = (0..cols)
        .map(|c| gmean(&rows.iter().map(|r| r.values[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(Row {
        label: "gmean".to_string(),
        values: gmean_vals,
    });
    rows
}

/// Prints a table in the paper's figure layout: workloads down the side,
/// schemes across the top.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!();
    println!("=== {title} ===");
    print!("{:<10}", "workload");
    for c in columns {
        print!(" {c:>14}");
    }
    println!();
    for r in rows {
        print!("{:<10}", r.label);
        for v in &r.values {
            print!(" {v:>14.3}");
        }
        println!();
    }
}

/// Prints a single-value-per-workload series (e.g. Fig. 10's burst
/// fractions).
pub fn print_series(title: &str, unit: &str, rows: &[(String, f64)]) {
    println!();
    println!("=== {title} ===");
    for (label, v) in rows {
        println!("{label:<10} {v:>12.3} {unit}");
    }
}

/// Geometric-mean helper re-exported for bench targets.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    gmean(xs)
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
        let matrix = run_matrix(&cfg, &wls, &["dimm-chip", "ideal"], &opts);
        let rows = speedup_rows(&wls, &matrix, 0);
        assert_eq!(rows.len(), 2); // workload + gmean
        assert_eq!(rows[0].values[0], 1.0, "baseline column is 1.0");
        assert!(
            rows[0].values[1] > 1.0,
            "Ideal must beat DIMM+chip on a write-bound workload: {}",
            rows[0].values[1]
        );
    }
}
