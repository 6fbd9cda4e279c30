//! Figure 15 — BIM speedup as GCP efficiency decreases (0.7 → 0.1), for
//! astar, mcf and mix_1, normalized to DIMM+chip.
//!
//! Expected shape (§6.1.6): BIM preserves the GCP's benefit down to very
//! low efficiencies (mix_1 stays useful even at 0.2), with benefit
//! monotone-ish in efficiency.

use fpb_bench::*;
use fpb_trace::catalog;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let effs = [0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
    let workload = |name: &&str| catalog::workload(name).expect("workload");
    let wls: Vec<_> = ["ast_m", "mcf_m", "mix_1"].iter().map(workload).collect();
    let mut specs = vec!["dimm-chip".to_string()];
    specs.extend(effs.map(|e| format!("gcp:bim:{e}")));
    let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &specs), opts);
    let speedups = |ms: &[Metrics]| ms[1..].iter().map(|m| m.speedup_over(&ms[0])).collect();
    let rows = workload_rows(&wls, &matrix, speedups);
    print_table(
        "Figure 15: BIM speedup vs DIMM+chip as GCP efficiency decreases",
        &["0.7", "0.6", "0.5", "0.4", "0.3", "0.2", "0.1"],
        &rows,
    );

    let mut claims = Vec::new();
    for Row { label, values: v } in &rows {
        // The paper's claim (§6.1.6): BIM *preserves* the GCP benefit even
        // at very low efficiency — the series stays above 1.0 throughout.
        let holds = v.iter().all(|&v| v > 1.0);
        let statement = format!("{label}: BIM must keep the GCP beneficial at every efficiency");
        claims.push(Claim { statement, holds });
        // And the high-efficiency end is at least noise-comparable to the
        // low end (single-workload runs carry more variance than gmeans).
        let holds = v[0] >= v[6] - 0.12;
        let statement = format!("{label}: benefit should not grow as efficiency collapses");
        claims.push(Claim { statement, holds });
    }
    claims
}
