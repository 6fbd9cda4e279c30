//! Figure 19 — FPB speedup for different memory line sizes (each column
//! normalized to DIMM+chip at the same line size).
//!
//! Expected shape (§6.4.1): the improvement grows with line size (64 B
//! writes barely stress the budget; 256 B writes stress it heavily).

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfgs = [64, 128, 256].map(|bytes| SystemConfig::default().with_line_bytes(bytes));
    let g = gains_figure(
        "Figure 19: FPB speedup vs DIMM+chip at each line size",
        &["64B", "128B", "256B"],
        &cfgs,
        "paper gmeans: 64B +41.3 %, 128B +61.8 %, 256B +75.6 %",
        opts,
    );
    claims(&[("larger lines must benefit at least as much", g[2] >= g[0])])
}
