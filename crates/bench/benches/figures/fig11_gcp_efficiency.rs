//! Figure 11 — FPB-GCP speedup (naïve mapping) at different GCP power
//! efficiencies, normalized to DIMM+chip.
//!
//! Expected shape (§6.1.1): GCP-NE-0.95 ≈ DIMM-only; effectiveness decays
//! as E_GCP drops, nearly vanishing at 0.5 under the naïve mapping.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let schemes = [
        ("dimm-chip", "DIMM+chip"),
        ("dimm-only", "DIMM-only"),
        ("gcp:ne:0.95", "GCP-NE-0.95"),
        ("gcp:ne:0.7", "GCP-NE-0.7"),
        ("gcp:ne:0.5", "GCP-NE-0.5"),
    ];
    let title = "Figure 11: speedup vs DIMM+chip for GCP efficiencies (naive mapping)";
    let g = speedup_figure(title, &SystemConfig::default(), &schemes, opts);
    println!("\npaper: GCP-NE-0.95 +36.3 %, GCP-NE-0.7 +23.7 %, GCP-NE-0.5 +2.8 % over DIMM+chip");
    let [a, b, c] = [g[2], g[3], g[4]].map(|v| (v - 1.0) * 100.0);
    println!("measured: +{a:.1} %, +{b:.1} %, +{c:.1} %");
    claims(&[
        (
            "GCP benefit must decay with efficiency (within noise)",
            g[2] >= g[3] - 0.03 && g[3] >= g[4] - 0.03,
        ),
        ("a 0.95-efficient GCP must help", g[2] > 1.0),
    ])
}
