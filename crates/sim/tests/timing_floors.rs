//! Wall-clock floors, run on their own in release by CI's
//! `timing-floors` job:
//!
//! ```sh
//! cargo test --release -p fpb-sim --test timing_floors -- --ignored --test-threads=1
//! ```
//!
//! Both tests are `#[ignore]`d so `cargo test --workspace` never times
//! anything: a floor measured next to other busy tests only measures the
//! neighbours. Neither floor may be loosened to make a run pass.

#![allow(
    clippy::disallowed_types,
    reason = "timing the host is this file's purpose; no clock reading reaches a simulation result"
)]

use std::time::Instant;

use fpb_pcm::{CellMapping, DimmGeometry, IterationSampler, LineWrite, MlcLevel, WriteBufferPool};
use fpb_sim::sweep::{run_sweep_jobs_reuse, Axis, ReuseOptions, SweepPoint};
use fpb_sim::{effective_workers, SimOptions};
use fpb_trace::catalog;
use fpb_types::{MlcWriteModel, SimRng, SystemConfig};

/// Per-core instruction budget of every grid run.
const GRID_INSTRUCTIONS: u64 = 40_000;

/// Timed passes per rung; the minimum is kept.
const GRID_REPEATS: u32 = 2;

/// The rung the efficiency floor reads.
const GATE_JOBS: usize = 4;

/// The minimum speedup of the 4-job rung over the serial one, scaled to
/// the parallelism the host can deliver: with four or more effective
/// workers a healthy sweep clears 2×; one effective worker only has to
/// avoid a regression, since its "parallel" rung is the serial pass.
fn required_speedup(effective_workers: usize) -> f64 {
    match effective_workers {
        0 | 1 => 0.85,
        2 => 1.3,
        3 => 1.6,
        _ => 2.0,
    }
}

/// The 3×4×3 grid (36 points) on mcf_m: line size × DIMM tokens × GCP
/// efficiency. The line-size axis makes point costs differ about 4×, so
/// the cost-ordered scheduler has real work to do.
fn grid_axes() -> Vec<Axis> {
    vec![
        Axis::line_bytes(&[64, 128, 256]),
        Axis::pt_dimm(&[466, 512, 560, 608]),
        Axis::e_gcp(&[0.5, 0.7, 0.9]),
    ]
}

/// One sweep of the grid on `jobs` workers, with semantic dedup on and
/// no persistent cache (the default `fpb sweep` profile).
fn sweep_grid(jobs: usize) -> Vec<SweepPoint> {
    let wl = catalog::workload("mcf_m").expect("mcf_m is in the catalog");
    let opts = SimOptions::with_instructions(GRID_INSTRUCTIONS);
    run_sweep_jobs_reuse(
        &wl,
        SystemConfig::default(),
        &grid_axes(),
        "fpb",
        "dimm-chip",
        &opts,
        jobs,
        &ReuseOptions::default(),
    )
    .0
}

/// Minimum wall time over [`GRID_REPEATS`] sweeps on `jobs` workers,
/// plus the points of the last pass.
fn time_grid(jobs: usize) -> (f64, Vec<SweepPoint>) {
    let mut best = f64::INFINITY;
    let mut points = Vec::new();
    for _ in 0..GRID_REPEATS {
        let t = Instant::now();
        points = sweep_grid(jobs);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, points)
}

#[test]
#[ignore = "wall-clock floor; run alone in release"]
fn parallel_sweep_clears_the_efficiency_floor() {
    // Untimed warm-up: primes the allocator, page tables and CPU
    // frequency, and burns any burst credit a throttled host hands the
    // first seconds of a run.
    let _ = sweep_grid(GATE_JOBS);

    let (serial_s, serial) = time_grid(1);
    let workers = effective_workers(GATE_JOBS, serial.len());
    // With one effective worker the 4-job rung would only re-time the
    // serial pass, so the floor compares serial with itself.
    let speedup = if workers <= 1 {
        1.0
    } else {
        let (parallel_s, parallel) = time_grid(GATE_JOBS);
        assert!(
            parallel == serial,
            "the {GATE_JOBS}-job sweep diverged from the serial one"
        );
        serial_s / parallel_s
    };
    let floor = required_speedup(workers);
    eprintln!(
        "efficiency: {speedup:.2}x at {GATE_JOBS} jobs ({workers} effective workers, \
         serial {serial_s:.3} s, floor {floor:.2}x)"
    );
    assert!(
        speedup >= floor,
        "parallel efficiency below the floor: {speedup:.2}x at {workers} effective workers \
         (need {floor:.2}x)"
    );
}

/// Builds per side of the line-write race.
const LINE_WRITE_BUILDS: u32 = 2_000;

/// Alternated timing repeats per side; the minimum of each is kept.
const LINE_WRITE_REPEATS: u32 = 5;

/// Floor on `fresh / pooled` build time. In this isolated micro the
/// pool's free-list hit and the allocator's own fast path are nearly
/// tied, so the floor asks for break-even within noise, not a win.
const LINE_WRITE_FLOOR: f64 = 0.97;

#[test]
#[ignore = "wall-clock floor; run alone in release"]
fn pooled_line_write_clears_the_floor() {
    let cfg = SystemConfig::default();
    let geom = DimmGeometry::new(cfg.pcm.chips, cfg.pcm.cells_per_line());
    let sampler = IterationSampler::new(MlcWriteModel::default());
    let cells: Vec<(u32, MlcLevel)> = (0..256u32).map(|i| (i * 4, MlcLevel::L01)).collect();
    let mut pool = WriteBufferPool::new();
    let mut rng = SimRng::seed_from(0x9C3);
    // Sides alternate within every repeat: timing each in one block would
    // hand the second a warmed allocator and park transient host load on
    // one side only.
    let (mut pooled_s, mut fresh_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..LINE_WRITE_REPEATS {
        let t = Instant::now();
        for _ in 0..LINE_WRITE_BUILDS {
            let w = pool.build(&cells, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
            pool.recycle(w);
        }
        pooled_s = pooled_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..LINE_WRITE_BUILDS {
            let _ = LineWrite::from_cells(&cells, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
        }
        fresh_s = fresh_s.min(t.elapsed().as_secs_f64());
    }
    let speedup = fresh_s / pooled_s;
    eprintln!(
        "line-write: pooled {:.3} ms, fresh {:.3} ms, {speedup:.3}x (floor {LINE_WRITE_FLOOR})",
        pooled_s * 1e3,
        fresh_s * 1e3
    );
    assert!(
        speedup >= LINE_WRITE_FLOOR,
        "pooled line-write build below the floor: {speedup:.3}x (need {LINE_WRITE_FLOOR}x)"
    );
}
