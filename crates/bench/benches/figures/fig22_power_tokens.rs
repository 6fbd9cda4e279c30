//! Figure 22 — FPB speedup for different DIMM power-token budgets (±1/8
//! of an LCP across all chips; each column normalized to DIMM+chip with
//! the same budget).
//!
//! Expected shape (§6.4.4): FPB helps more when the budget is tighter —
//! careful budgeting matters most when tokens are scarce.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfgs = [466, 532, 598].map(|pt| SystemConfig::default().with_pt_dimm(pt));
    let g = gains_figure(
        "Figure 22: FPB speedup vs DIMM+chip at each DIMM token budget",
        &["466", "532", "598"],
        &cfgs,
        "paper: FPB does better with a tighter power budget",
        opts,
    );
    claims(&[(
        "tight budgets must benefit at least as much as loose ones",
        g[0] >= g[2] - 0.05,
    )])
}
