//! Figure 23 — FPB combined with write cancellation (WC), write pausing
//! (WP) and write truncation (WT), normalized to DIMM+chip.
//!
//! The paper enlarges the queues to 320 entries for WC (§6.4.5). Expected
//! shape: the read-latency-reduction techniques stack on top of FPB.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let mut cfg = SystemConfig::default();
    // 40 R/W entries per bank, 8 banks (§6.4.5).
    cfg.queues.read_entries = 320;
    cfg.queues.write_entries = 320;
    // A 320-entry write queue only fills (and so only exercises the burst
    // path) with enough write traffic behind it; keep this experiment's
    // run length proportional to the queue depth.
    let mut opts = *opts;
    opts.instructions_per_core = opts.instructions_per_core.max(6 * DEFAULT_INSTRUCTIONS);
    let schemes = [
        ("dimm-chip", "DIMM+chip"),
        ("fpb", "FPB"),
        ("fpb+wc", "FPB+WC"),
        ("fpb+wc+wp", "FPB+WC+WP"),
        ("fpb+wc+wp+wt8", "FPB+WC+WP+WT"),
    ];
    let title = "Figure 23: FPB with WC, WP and WT (320-entry queues), vs DIMM+chip";
    let g = speedup_figure(title, &cfg, &schemes, &opts);
    println!("\npaper: FPB+WC+WP+WT reaches +175.8 % over DIMM+chip (+57 % over FPB alone)");
    let [fpb, stack] = [g[1], g[4]].map(|v| (v - 1.0) * 100.0);
    println!("measured: FPB +{fpb:.1} %, full stack +{stack:.1} % over DIMM+chip");
    claims(&[(
        "the full stack must not lose to FPB alone",
        g[4] >= g[1] - 0.03,
    )])
}
