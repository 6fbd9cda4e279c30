//! Figure 21 — FPB speedup for different write-queue depths (each column
//! normalized to DIMM+chip with the same queue).
//!
//! Expected shape (§6.4.3): deeper queues make bursts burstier and help
//! FPB more, saturating around 48 entries.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfgs = [24, 48, 96].map(|entries| SystemConfig::default().with_write_queue(entries));
    let g = gains_figure(
        "Figure 21: FPB speedup vs DIMM+chip at each write-queue depth",
        &["24", "48", "96"],
        &cfgs,
        "paper gmeans: 24 +75.6 %, 48 +85.2 %, 96 +88.1 % (saturating at 48)",
        opts,
    );
    claims(&[("FPB must win at every depth", g.iter().all(|&v| v > 1.0))])
}
