//! Figure 10 — percentage of execution cycles spent in write bursts for
//! the baseline (DIMM+chip).
//!
//! Expected shape (§5.2): write-intensive workloads spend a large
//! fraction of time in bursts (the paper's average is 52.2 %), which is
//! the motivation for improving write throughput.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let wls = all_workloads();
    let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &["dimm-chip"]), opts);

    println!("\n=== Figure 10: % of execution cycles in write burst (baseline) ===");
    let mut sum = 0.0;
    for (wl, ms) in wls.iter().zip(&matrix) {
        let pct = ms[0].burst_fraction() * 100.0;
        sum += pct;
        println!("{:<10} {pct:>12.3} %", wl.name);
    }
    let avg = sum / wls.len() as f64;
    println!("{:<10} {avg:>12.3} %", "mean");
    println!("\npaper mean: 52.2 %; measured mean: {avg:.1} %");
    claims(&[("write bursts must dominate write-heavy runs", avg > 20.0)])
}
