//! Figure 18 — write-throughput improvement, normalized to DIMM+chip.
//!
//! Expected shape (§6.3): GCP alone buys a moderate gain; GCP+IPM and
//! GCP+IPM+MR multiply write throughput severalfold (3.4× in the paper),
//! still short of Ideal.

use fpb_bench::{
    all_workloads, bench_options, geometric_mean, print_table, run_matrix_setups, Row,
};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let wls = all_workloads();

    let setups = vec![
        SchemeSetup::dimm_chip(&cfg),
        SchemeSetup::gcp(&cfg, fpb_pcm::CellMapping::Bim, 0.7),
        SchemeSetup::gcp_ipm(&cfg),
        SchemeSetup::fpb(&cfg),
        SchemeSetup::ideal(&cfg),
    ];
    let matrix = run_matrix_setups(&cfg, &wls, &setups, &opts);

    let mut rows = Vec::new();
    for (wl, ms) in wls.iter().zip(&matrix) {
        let base = ms[0].write_throughput().max(1e-12);
        rows.push(Row {
            label: wl.name.to_string(),
            values: ms.iter().map(|m| m.write_throughput() / base).collect(),
        });
    }
    let cols_n = setups.len();
    let gmeans: Vec<f64> = (0..cols_n)
        .map(|c| {
            geometric_mean(
                &rows
                    .iter()
                    .map(|r| r.values[c].max(1e-9))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    rows.push(Row {
        label: "gmean".to_string(),
        values: gmeans.clone(),
    });

    print_table(
        "Figure 18: normalized write throughput",
        &["DIMM+chip", "GCP", "GCP+IPM", "GCP+IPM+MR", "Ideal"],
        &rows,
    );

    println!("\npaper: GCP +58.8 %, GCP+IPM+MR 3.4x, Ideal ~4.4x over DIMM+chip");
    println!(
        "measured gmeans: GCP {:.2}x, GCP+IPM {:.2}x, GCP+IPM+MR {:.2}x, Ideal {:.2}x",
        gmeans[1], gmeans[2], gmeans[3], gmeans[4]
    );
    assert!(gmeans[3] > gmeans[1], "IPM+MR must beat GCP alone");
    assert!(
        gmeans[3] > 1.3,
        "full FPB must substantially lift throughput"
    );
    assert!(gmeans[4] >= gmeans[3] - 0.05, "Ideal bounds everything");
}
