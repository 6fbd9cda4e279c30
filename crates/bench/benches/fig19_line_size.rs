//! Figure 19 — FPB speedup for different memory line sizes (each column
//! normalized to DIMM+chip at the same line size).
//!
//! Expected shape (§6.4.1): the improvement grows with line size (64 B
//! writes barely stress the budget; 256 B writes stress it heavily).

use fpb_bench::{all_workloads, bench_options, print_table, run_matrix, Row};
use fpb_types::SystemConfig;

fn main() {
    let opts = bench_options();
    let wls = all_workloads();
    let sizes = [64u32, 128, 256];

    let mut rows: Vec<Row> = wls
        .iter()
        .map(|wl| Row {
            label: wl.name.to_string(),
            values: Vec::new(),
        })
        .collect();
    for &bytes in &sizes {
        let cfg = SystemConfig::default().with_line_bytes(bytes);
        let matrix = run_matrix(&cfg, &wls, &["dimm-chip", "fpb"], &opts);
        for (wi, ms) in matrix.iter().enumerate() {
            rows[wi].values.push(ms[1].speedup_over(&ms[0]));
        }
    }
    let gmeans: Vec<f64> = (0..sizes.len())
        .map(|c| fpb_bench::geometric_mean(&rows.iter().map(|r| r.values[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(Row {
        label: "gmean".to_string(),
        values: gmeans.clone(),
    });

    print_table(
        "Figure 19: FPB speedup vs DIMM+chip at each line size",
        &["64B", "128B", "256B"],
        &rows,
    );

    println!("\npaper gmeans: 64B +41.3 %, 128B +61.8 %, 256B +75.6 %");
    println!(
        "measured gmeans: 64B +{:.1} %, 128B +{:.1} %, 256B +{:.1} %",
        (gmeans[0] - 1.0) * 100.0,
        (gmeans[1] - 1.0) * 100.0,
        (gmeans[2] - 1.0) * 100.0
    );
    assert!(
        gmeans[2] >= gmeans[0],
        "larger lines must benefit at least as much"
    );
}
