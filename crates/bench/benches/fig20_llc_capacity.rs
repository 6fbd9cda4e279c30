//! Figure 20 — FPB speedup for different last-level-cache capacities
//! (each column normalized to DIMM+chip at the same LLC size).
//!
//! Expected shape (§6.4.2): gains everywhere; a huge (128 MB/core) LLC
//! filters so much traffic that the benefit shrinks.

use fpb_bench::{all_workloads, bench_options, print_table, run_matrix, Row};
use fpb_types::SystemConfig;

fn main() {
    let opts = bench_options();
    let wls = all_workloads();
    let capacities = [8u32, 16, 32, 128];

    let mut rows: Vec<Row> = wls
        .iter()
        .map(|wl| Row {
            label: wl.name.to_string(),
            values: Vec::new(),
        })
        .collect();
    for &mib in &capacities {
        let cfg = SystemConfig::default().with_llc_mib(mib);
        let matrix = run_matrix(&cfg, &wls, &["dimm-chip", "fpb"], &opts);
        for (wi, ms) in matrix.iter().enumerate() {
            rows[wi].values.push(ms[1].speedup_over(&ms[0]));
        }
    }
    let gmeans: Vec<f64> = (0..capacities.len())
        .map(|c| fpb_bench::geometric_mean(&rows.iter().map(|r| r.values[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(Row {
        label: "gmean".to_string(),
        values: gmeans.clone(),
    });

    print_table(
        "Figure 20: FPB speedup vs DIMM+chip at each LLC capacity (per core)",
        &["8M", "16M", "32M", "128M"],
        &rows,
    );

    println!("\npaper gmeans: 8M +39.9 %, 16M +62.1 %, 32M +75.6 %, 128M +23.4 %");
    println!(
        "measured gmeans: 8M +{:.1} %, 16M +{:.1} %, 32M +{:.1} %, 128M +{:.1} %",
        (gmeans[0] - 1.0) * 100.0,
        (gmeans[1] - 1.0) * 100.0,
        (gmeans[2] - 1.0) * 100.0,
        (gmeans[3] - 1.0) * 100.0
    );
    assert!(
        gmeans.iter().all(|&g| g > 0.95),
        "FPB must not hurt at any LLC size"
    );
}
