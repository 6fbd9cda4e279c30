//! Parallel sweep execution must be bit-for-bit identical to serial.
//!
//! The worker pool only changes *when* points run, never *what* they
//! compute: every sim run seeds its RNGs from the point's config, so the
//! grid is embarrassingly parallel and `--jobs N` must reproduce
//! `--jobs 1` exactly — labels, ordering, and every `Metrics` field of
//! both the scheme and baseline runs.

use fpb_sim::sweep::{run_sweep_jobs, Axis, SweepPoint};
use fpb_sim::SimOptions;
use fpb_trace::catalog;
use fpb_types::{FaultConfig, SystemConfig};

const INSTRUCTIONS: u64 = 3_000;

/// The 2-axis grid (2×2 = 4 points) every test sweeps.
fn grid_axes() -> Vec<Axis> {
    vec![Axis::pt_dimm(&[466, 560]), Axis::e_gcp(&[0.6, 0.9])]
}

fn sweep(cfg: &SystemConfig, jobs: usize) -> Vec<SweepPoint> {
    sweep_on("mcf_m", cfg, jobs)
}

fn sweep_on(workload: &str, cfg: &SystemConfig, jobs: usize) -> Vec<SweepPoint> {
    let wl = catalog::workload(workload).expect("catalog workload");
    let opts = SimOptions::with_instructions(INSTRUCTIONS);
    run_sweep_jobs(
        &wl,
        cfg.clone(),
        &grid_axes(),
        "fpb",
        "dimm-chip",
        &opts,
        jobs,
    )
}

/// Full bit-for-bit comparison: same length, same labels in the same
/// order, equal scheme and baseline `Metrics` at every point.
fn assert_identical(serial: &[SweepPoint], parallel: &[SweepPoint], ctx: &str) {
    assert_eq!(serial.len(), parallel.len(), "{ctx}: point count differs");
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(s.label, p.label, "{ctx}: label differs at point {i}");
        assert_eq!(
            s.metrics, p.metrics,
            "{ctx}: scheme metrics differ at point {i} ({})",
            s.label
        );
        assert_eq!(
            s.baseline, p.baseline,
            "{ctx}: baseline metrics differ at point {i} ({})",
            s.label
        );
    }
}

/// The grid has one cache geometry, so one warm set: `--jobs 1` warms
/// its cores on the caller and `--jobs 2`/`4` on the pool. mix_2's cores
/// run different programs, so their warm-ups differ in cost and finish
/// out of core order.
#[test]
fn parallel_matches_serial_across_seeds() {
    for workload in ["mcf_m", "mix_2"] {
        for seed in [1u64, 42, 0xF9B] {
            let cfg = SystemConfig::default().with_seed(seed);
            let serial = sweep_on(workload, &cfg, 1);
            assert_eq!(serial.len(), 4, "2x2 grid");
            for jobs in [2, 4] {
                let parallel = sweep_on(workload, &cfg, jobs);
                let ctx = format!("{workload}, seed {seed}, jobs {jobs}");
                assert_identical(&serial, &parallel, &ctx);
            }
        }
    }
}

#[test]
fn parallel_matches_serial_with_fault_injection() {
    // Faults draw from per-run RNG streams seeded by the config, so
    // injection must not break determinism either.
    let mut cfg = SystemConfig::default().with_seed(7);
    cfg.faults = FaultConfig {
        verify_fail_prob: 0.25,
        stuck_cell_prob: 0.01,
        stuck_wear_threshold: 64,
        brownout_period: 10_000,
        brownout_duration: 2_000,
        ..FaultConfig::default()
    };
    cfg.validate().expect("fault config valid");

    let serial = sweep(&cfg, 1);
    let parallel = sweep(&cfg, 4);
    assert_identical(&serial, &parallel, "fault injection");
    assert!(
        serial
            .iter()
            .any(|p| p.metrics.faults.any_activity() || p.baseline.faults.any_activity()),
        "fault knobs this aggressive must produce observable fault activity"
    );
}

#[test]
fn more_jobs_than_points_matches_serial() {
    let cfg = SystemConfig::default().with_seed(99);
    let serial = sweep(&cfg, 1);
    let parallel = sweep(&cfg, 32);
    assert_identical(&serial, &parallel, "jobs > points");
}

#[test]
fn cost_schedule_is_results_invariant() {
    // A line-bytes axis gives the grid genuinely non-uniform cost
    // estimates (cells_per_line scales 4x across it), so the cost-aware
    // scheduler claims points far from input order — and the output must
    // not notice.
    let wl = catalog::workload("mcf_m").expect("catalog workload");
    let opts = SimOptions::with_instructions(1_500);
    let axes = vec![Axis::line_bytes(&[64, 256]), Axis::e_gcp(&[0.6, 0.9])];
    let cfg = SystemConfig::default().with_seed(5);
    let serial = run_sweep_jobs(&wl, cfg.clone(), &axes, "fpb", "dimm-chip", &opts, 1);
    assert_eq!(serial.len(), 4, "2x2 grid");
    for jobs in [2, 4] {
        let parallel = run_sweep_jobs(&wl, cfg.clone(), &axes, "fpb", "dimm-chip", &opts, jobs);
        assert_identical(&serial, &parallel, &format!("line-bytes grid, jobs {jobs}"));
    }
}
