//! Ablation (beyond the paper's main results): cell mapping crossed with
//! budgeting scheme, plus write-wear balance.
//!
//! The paper only evaluates mappings under FPB-GCP; this ablation shows
//! how much of the mapping benefit survives *without* the GCP (pure
//! DIMM+chip) and with the full FPB stack, and reports each mapping's
//! per-chip write-wear imbalance (a lifetime proxy).

use fpb_bench::*;
use fpb_pcm::CellMapping;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    // Column 0, DIMM+chip with the naive mapping, is the baseline.
    let schemes = [
        ("dimm-chip+ne", "chip+NE"),
        ("dimm-chip+vim", "chip+VIM"),
        ("dimm-chip+bim", "chip+BIM"),
        ("fpb+ne", "FPB+NE"),
        ("fpb+vim", "FPB+VIM"),
        ("fpb+bim", "FPB+BIM"),
    ];
    let (specs, columns): (Vec<&str>, Vec<&str>) = schemes.iter().copied().unzip();
    let wls = all_workloads();
    let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &specs), opts);
    let rows = speedup_rows(&wls, &matrix, 0);
    print_table(
        "Ablation: mapping x scheme, speedup vs DIMM+chip(NE)",
        &columns,
        &rows,
    );

    println!("\nper-chip write-wear imbalance (max/mean cells, 1.0 = even), averaged:");
    for (mi, m) in CellMapping::ALL.iter().enumerate() {
        let sum: f64 = matrix.iter().map(|ms| ms[mi].chip_imbalance()).sum();
        println!("  {:<5} {:.3}", m.label(), sum / wls.len() as f64);
    }

    let g = &rows.last().expect("gmean").values;
    println!("\ntakeaway: interleaved mappings help even without the GCP by evening");
    println!("chip budgets, and they also even long-term wear across chips.");
    claims(&[(
        "BIM under FPB must hold up vs NE under FPB",
        g[5] >= g[3] - 0.05,
    )])
}
