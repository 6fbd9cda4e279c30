//! Quick shape-calibration check: prints the headline scheme comparison
//! and the Table 2 rate calibration in one pass. Useful while tuning the
//! workload models.
//!
//! ```sh
//! FPB_INSTRUCTIONS=400000 cargo run --release -p fpb-bench --bin calibrate
//! ```

use fpb_bench::{all_workloads, bench_options, print_table, run_matrix, setups, speedup_rows};
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let specs = [
        "dimm-chip",
        "dimm-only",
        "gcp:bim:0.7",
        "gcp-ipm",
        "fpb",
        "ideal",
    ];
    let setups = setups(&cfg, &specs);
    let labels: Vec<&str> = setups.iter().map(|s| s.label.as_str()).collect();
    let wls = all_workloads();
    let matrix = run_matrix(&cfg, &wls, &setups, &opts);
    let rows = speedup_rows(&wls, &matrix, 0);
    print_table("Calibration: speedup vs DIMM+chip", &labels, &rows);

    // Also dump RPKI/WPKI and write stats from the DIMM+chip column.
    println!("\nworkload   RPKI(meas/tgt)  WPKI(meas/tgt)  cells/wr  burst%");
    for (wl, ms) in wls.iter().zip(&matrix) {
        let m = &ms[0];
        let ki = m.instructions_per_core as f64 / 1000.0;
        println!(
            "{:<10} {:>6.2}/{:<6.2} {:>6.2}/{:<6.2} {:>8.0} {:>7.1}",
            wl.name,
            m.pcm_reads as f64 / ki,
            wl.table2_rpki,
            m.pcm_writes as f64 / ki,
            wl.table2_wpki,
            m.avg_cell_changes(),
            m.burst_fraction() * 100.0
        );
    }
}
