//! Figure 21 — FPB speedup for different write-queue depths (each column
//! normalized to DIMM+chip with the same queue).
//!
//! Expected shape (§6.4.3): deeper queues make bursts burstier and help
//! FPB more, saturating around 48 entries.

use fpb_bench::{all_workloads, bench_options, print_table, Row};
use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let opts = bench_options();
    let wls = all_workloads();
    let depths = [24usize, 48, 96];

    let mut rows: Vec<Row> = wls
        .iter()
        .map(|wl| Row {
            label: wl.name.to_string(),
            values: Vec::new(),
        })
        .collect();
    for &entries in &depths {
        let cfg = SystemConfig::default().with_write_queue(entries);
        for (wi, wl) in wls.iter().enumerate() {
            let cores = warm_cores(wl, &cfg, &opts);
            let base = run_workload_warmed(wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts, &cores);
            let fpb = run_workload_warmed(wl, &cfg, &SchemeSetup::fpb(&cfg), &opts, &cores);
            rows[wi].values.push(fpb.speedup_over(&base));
        }
    }
    let gmeans: Vec<f64> = (0..depths.len())
        .map(|c| fpb_bench::geometric_mean(&rows.iter().map(|r| r.values[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(Row {
        label: "gmean".to_string(),
        values: gmeans.clone(),
    });

    print_table(
        "Figure 21: FPB speedup vs DIMM+chip at each write-queue depth",
        &["24", "48", "96"],
        &rows,
    );

    println!("\npaper gmeans: 24 +75.6 %, 48 +85.2 %, 96 +88.1 % (saturating at 48)");
    println!(
        "measured gmeans: 24 +{:.1} %, 48 +{:.1} %, 96 +{:.1} %",
        (gmeans[0] - 1.0) * 100.0,
        (gmeans[1] - 1.0) * 100.0,
        (gmeans[2] - 1.0) * 100.0
    );
    assert!(
        gmeans.iter().all(|&g| g > 1.0),
        "FPB must win at every depth"
    );
}
