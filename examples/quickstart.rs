//! Quickstart: simulate one write-heavy workload under the paper's
//! baseline power management and under full FPB, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fpb::sim::{run_workload, SchemeSetup, SimOptions};
use fpb::trace::catalog;
use fpb::types::SystemConfig;

fn main() {
    // Table 1 baseline: 8-core 4 GHz CMP, 32 MB/core DRAM LLC, a 4 GB
    // 8-bank MLC PCM DIMM with a 560-token power budget.
    let cfg = SystemConfig::default();

    // Table 2's mcf workload: 8 copies of SPEC CPU2006 mcf — high RPKI and
    // WPKI with integer data (low-order bits change most).
    let workload = catalog::workload("mcf_m").expect("catalog workload");
    let opts = SimOptions::with_instructions(200_000);

    println!(
        "workload: {} (RPKI {}, WPKI {})",
        workload.name, workload.table2_rpki, workload.table2_wpki
    );
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "scheme", "CPI", "reads", "writes", "burst%", "speedup"
    );

    let baseline = run_workload(&workload, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts);
    for setup in [
        SchemeSetup::dimm_chip(&cfg),
        SchemeSetup::dimm_only(&cfg),
        SchemeSetup::fpb(&cfg),
        SchemeSetup::ideal(&cfg),
    ] {
        let m = run_workload(&workload, &cfg, &setup, &opts);
        println!(
            "{:<14} {:>8.2} {:>10} {:>10} {:>8.1}% {:>8.3}",
            setup.label,
            m.cpi(),
            m.pcm_reads,
            m.pcm_writes,
            m.burst_fraction() * 100.0,
            m.speedup_over(&baseline)
        );
    }

    println!();
    println!("FPB = GCP (global charge pump, BIM mapping) + IPM (per-iteration");
    println!("token budgeting) + Multi-RESET: writes overlap where the per-write");
    println!("heuristic serializes them, recovering most of Ideal's performance.");
}
