//! Figure 14 — average usable tokens requested from the GCP per line
//! write, and the energy-waste reduction of the interleaved mappings.
//!
//! Expected shape (§6.1.5): VIM and BIM request far fewer GCP tokens than
//! the naïve mapping, cutting the (inefficient) GCP's conversion waste.

use fpb_bench::{all_workloads, bench_options, print_table, Row};
use fpb_pcm::CellMapping;
use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let wls = all_workloads();
    let variants: [(CellMapping, f64); 6] = [
        (CellMapping::Naive, 0.7),
        (CellMapping::Naive, 0.5),
        (CellMapping::Vim, 0.7),
        (CellMapping::Vim, 0.5),
        (CellMapping::Bim, 0.7),
        (CellMapping::Bim, 0.5),
    ];

    let mut rows = Vec::new();
    let mut avg_sum = vec![0.0f64; variants.len()];
    let mut waste_sum = vec![0.0f64; variants.len()];
    for wl in &wls {
        let cores = warm_cores(wl, &cfg, &opts);
        let mut values = Vec::new();
        for (vi, &(mapping, eff)) in variants.iter().enumerate() {
            let m = run_workload_warmed(
                wl,
                &cfg,
                &SchemeSetup::gcp(&cfg, mapping, eff),
                &opts,
                &cores,
            );
            let avg = m.avg_gcp_tokens_per_write();
            avg_sum[vi] += avg;
            waste_sum[vi] += m.power.gcp_waste_total().as_f64();
            values.push(avg);
        }
        rows.push(Row {
            label: wl.name.to_string(),
            values,
        });
    }
    let n = wls.len() as f64;
    rows.push(Row {
        label: "avg".to_string(),
        values: avg_sum.iter().map(|s| s / n).collect(),
    });

    let cols = [
        "NE-0.7", "NE-0.5", "VIM-0.7", "VIM-0.5", "BIM-0.7", "BIM-0.5",
    ];
    print_table(
        "Figure 14: average usable GCP tokens requested per line write",
        &cols,
        &rows,
    );

    let waste_ne = waste_sum[0];
    let red_vim = 100.0 * (1.0 - waste_sum[2] / waste_ne.max(1e-9));
    let red_bim = 100.0 * (1.0 - waste_sum[4] / waste_ne.max(1e-9));
    println!("\npaper: at 0.7 efficiency VIM cuts GCP energy waste 78.5 %, BIM 64.4 % vs NE");
    println!("measured: VIM {red_vim:.1} %, BIM {red_bim:.1} % waste reduction");
    let avg_row = rows.last().expect("avg row");
    assert!(
        avg_row.values[2] <= avg_row.values[0],
        "VIM must request fewer GCP tokens than NE"
    );
    assert!(
        avg_row.values[4] <= avg_row.values[0],
        "BIM must request fewer GCP tokens than NE"
    );
}
