//! Ablation (beyond the paper's main results): cell mapping crossed with
//! budgeting scheme, plus write-wear balance.
//!
//! The paper only evaluates mappings under FPB-GCP; this ablation shows
//! how much of the mapping benefit survives *without* the GCP (pure
//! DIMM+chip) and with the full FPB stack, and reports each mapping's
//! per-chip write-wear imbalance (a lifetime proxy).

use fpb_bench::{all_workloads, bench_options, geometric_mean, print_table, Row};
use fpb_pcm::CellMapping;
use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let wls = all_workloads();
    let mappings = CellMapping::ALL;

    let mut rows = Vec::new();
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); mappings.len() * 2];
    let mut imbalance_sum = vec![0.0f64; mappings.len()];
    for wl in &wls {
        let cores = warm_cores(wl, &cfg, &opts);
        let mut values = Vec::new();
        // Baseline: DIMM+chip with the default (naive) mapping.
        let base = run_workload_warmed(wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts, &cores);
        for (mi, &m) in mappings.iter().enumerate() {
            let chip = run_workload_warmed(
                wl,
                &cfg,
                &SchemeSetup::dimm_chip(&cfg).with_mapping(m),
                &opts,
                &cores,
            );
            values.push(chip.speedup_over(&base));
            imbalance_sum[mi] += chip.chip_imbalance();
        }
        for &m in &mappings {
            let fpb = run_workload_warmed(
                wl,
                &cfg,
                &SchemeSetup::fpb(&cfg).with_mapping(m),
                &opts,
                &cores,
            );
            values.push(fpb.speedup_over(&base));
        }
        for (c, v) in per_col.iter_mut().zip(&values) {
            c.push(*v);
        }
        rows.push(Row {
            label: wl.name.to_string(),
            values,
        });
    }
    rows.push(Row {
        label: "gmean".to_string(),
        values: per_col.iter().map(|c| geometric_mean(c)).collect(),
    });

    print_table(
        "Ablation: mapping x scheme, speedup vs DIMM+chip(NE)",
        &[
            "chip+NE", "chip+VIM", "chip+BIM", "FPB+NE", "FPB+VIM", "FPB+BIM",
        ],
        &rows,
    );

    println!("\nper-chip write-wear imbalance (max/mean cells, 1.0 = even), averaged:");
    for (mi, &m) in mappings.iter().enumerate() {
        println!(
            "  {:<5} {:.3}",
            m.label(),
            imbalance_sum[mi] / wls.len() as f64
        );
    }

    let g = rows.last().expect("gmean");
    assert!(
        g.values[5] >= g.values[3] - 0.05,
        "BIM under FPB must hold up vs NE under FPB"
    );
    println!("\ntakeaway: interleaved mappings help even without the GCP by evening");
    println!("chip budgets, and they also even long-term wear across chips.");
}
