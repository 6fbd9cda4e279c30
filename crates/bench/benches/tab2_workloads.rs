//! Table 2 — simulated applications.
//!
//! Prints the catalog's RPKI/WPKI targets and the rates actually measured
//! by the baseline (DIMM+chip) simulation, verifying the synthetic trace
//! calibration.

use fpb_bench::{all_workloads, bench_options};
use fpb_sim::{run_workload, SchemeSetup};
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let setup = SchemeSetup::dimm_chip(&cfg);

    println!("=== Table 2: simulated applications (RPKI / WPKI, workload aggregate) ===");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12}",
        "workload", "RPKI(tgt)", "WPKI(tgt)", "RPKI(meas)", "WPKI(meas)"
    );
    let mut worst_ratio: f64 = 1.0;
    for wl in all_workloads() {
        let m = run_workload(&wl, &cfg, &setup, &opts);
        let ki = m.instructions_per_core as f64 / 1000.0;
        let rpki = m.pcm_reads as f64 / ki;
        let wpki = m.pcm_writes as f64 / ki;
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>12.2} {:>12.2}",
            wl.name, wl.table2_rpki, wl.table2_wpki, rpki, wpki
        );
        if wl.table2_rpki > 0.2 {
            worst_ratio = worst_ratio
                .max(rpki / wl.table2_rpki)
                .max(wl.table2_rpki / rpki);
        }
    }
    println!("\nworst read-rate calibration ratio (non-trivial workloads): {worst_ratio:.2}x");
}
