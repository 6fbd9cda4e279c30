//! Figure 11 — FPB-GCP speedup (naïve mapping) at different GCP power
//! efficiencies, normalized to DIMM+chip.
//!
//! Expected shape (§6.1.1): GCP-NE-0.95 ≈ DIMM-only; effectiveness decays
//! as E_GCP drops, nearly vanishing at 0.5 under the naïve mapping.

use fpb_bench::{all_workloads, bench_options, print_table, run_matrix_setups, speedup_rows};
use fpb_pcm::CellMapping;
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let wls = all_workloads();

    let setups = vec![
        SchemeSetup::dimm_chip(&cfg),
        SchemeSetup::dimm_only(&cfg),
        SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.95),
        SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.7),
        SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.5),
    ];
    let matrix = run_matrix_setups(&cfg, &wls, &setups, &opts);
    let rows = speedup_rows(&wls, &matrix, 0);
    print_table(
        "Figure 11: speedup vs DIMM+chip for GCP efficiencies (naive mapping)",
        &[
            "DIMM+chip",
            "DIMM-only",
            "GCP-NE-0.95",
            "GCP-NE-0.7",
            "GCP-NE-0.5",
        ],
        &rows,
    );

    let g = rows.last().expect("gmean");
    println!("\npaper: GCP-NE-0.95 +36.3 %, GCP-NE-0.7 +23.7 %, GCP-NE-0.5 +2.8 % over DIMM+chip");
    println!(
        "measured: +{:.1} %, +{:.1} %, +{:.1} %",
        (g.values[2] - 1.0) * 100.0,
        (g.values[3] - 1.0) * 100.0,
        (g.values[4] - 1.0) * 100.0
    );
    assert!(
        g.values[2] >= g.values[3] - 0.03 && g.values[3] >= g.values[4] - 0.03,
        "GCP benefit must decay with efficiency (within noise): {:?}",
        &g.values[2..]
    );
    assert!(g.values[2] > 1.0, "a 0.95-efficient GCP must help");
}
