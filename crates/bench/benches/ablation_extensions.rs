//! Ablation (beyond the paper's main results): the two extensions the
//! paper discusses but does not evaluate.
//!
//! * **PreSET** (§7, [22]): pre-SET lines in the cache so eviction writes
//!   are a single RESET pulse — fast, but demanding full RESET power for
//!   every cell at once ("tends to increase the demand for power tokens").
//! * **Per-chip GCP regulation** (§4.2): regulate the global pump's output
//!   per chip so near chips pay less wire loss — better effective
//!   efficiency at the cost of control logic.

use fpb_bench::{all_workloads, bench_options, print_table, run_matrix_setups, speedup_rows};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    // Use a low-efficiency GCP so regulation has something to recover.
    let cfg = SystemConfig::default().with_gcp_efficiency(0.5);
    let opts = bench_options();
    let wls = all_workloads();

    let setups = vec![
        SchemeSetup::dimm_chip(&cfg),
        SchemeSetup::fpb(&cfg),
        SchemeSetup::fpb(&cfg)
            .with_gcp_regulation()
            .expect("fpb has a GCP"),
        SchemeSetup::fpb(&cfg).with_preset(),
        SchemeSetup::ideal(&cfg),
    ];
    let matrix = run_matrix_setups(&cfg, &wls, &setups, &opts);
    let rows = speedup_rows(&wls, &matrix, 0);
    print_table(
        "Ablation: PreSET and per-chip GCP regulation (E_GCP = 0.5), vs DIMM+chip",
        &["DIMM+chip", "FPB", "FPB+reg", "FPB+PreSET", "Ideal"],
        &rows,
    );

    let g = rows.last().expect("gmean");
    println!("\nexpectations:");
    println!("- regulation >= plain FPB at low E_GCP (recovers conversion loss)");
    println!("- PreSET trades power for latency: single-RESET writes are fast but");
    println!("  front-load full RESET power (the paper predicts higher token demand)");
    println!(
        "measured gmeans: FPB {:.3}, FPB+reg {:.3}, FPB+PreSET {:.3}",
        g.values[1], g.values[2], g.values[3]
    );
    assert!(
        g.values[2] >= g.values[1] - 0.03,
        "regulation must not hurt: {} vs {}",
        g.values[2],
        g.values[1]
    );
}
