//! Figure 20 — FPB speedup for different last-level-cache capacities
//! (each column normalized to DIMM+chip at the same LLC size).
//!
//! Expected shape (§6.4.2): gains everywhere; a huge (128 MB/core) LLC
//! filters so much traffic that the benefit shrinks.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfgs = [8, 16, 32, 128].map(|mib| SystemConfig::default().with_llc_mib(mib));
    let g = gains_figure(
        "Figure 20: FPB speedup vs DIMM+chip at each LLC capacity (per core)",
        &["8M", "16M", "32M", "128M"],
        &cfgs,
        "paper gmeans: 8M +39.9 %, 16M +62.1 %, 32M +75.6 %, 128M +23.4 %",
        opts,
    );
    claims(&[(
        "FPB must not hurt at any LLC size",
        g.iter().all(|&v| v > 0.95),
    )])
}
