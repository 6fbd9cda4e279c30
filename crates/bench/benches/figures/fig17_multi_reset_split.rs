//! Figure 17 — Multi-RESET iteration split limit (2, 3 or 4 group-RESETs),
//! normalized to DIMM+chip.
//!
//! Expected shape (§6.2.2): 3 splits is the sweet spot; 4 adds write
//! latency for little extra admission benefit.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let schemes = [
        ("dimm-chip", "DIMM+chip"),
        ("fpb-mr:2", "IPM+MR2"),
        ("fpb-mr:3", "IPM+MR3"),
        ("fpb-mr:4", "IPM+MR4"),
    ];
    let title = "Figure 17: Multi-RESET split limit, speedup vs DIMM+chip";
    let g = speedup_figure(title, &SystemConfig::default(), &schemes, opts);
    println!("\npaper: best at 3 splits; 4 splits loses ~2 % to added latency");
    println!(
        "measured gmeans: MR2 {:.3}, MR3 {:.3}, MR4 {:.3}",
        g[1], g[2], g[3]
    );
    let best = g[1..].iter().cloned().fold(f64::MIN, f64::max);
    claims(&[("3 splits must be at or near the best", g[2] >= best - 0.03)])
}
