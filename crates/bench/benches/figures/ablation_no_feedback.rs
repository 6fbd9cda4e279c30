//! Ablation (motivating §2.1.1): the value of device feedback.
//!
//! MLC writes are non-deterministic, so a DRAM-style memory controller
//! without the on-DIMM bridge chip must hold each bank (and its power
//! tokens) for the *worst-case* iteration count on every write. The paper
//! adopts Fang et al.'s universal memory interface precisely to avoid
//! this; this ablation quantifies how much that choice is worth.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let schemes = [
        ("dimm-chip", "DIMM+chip"),
        ("dimm-chip+worstcase", "chip+worstMC"),
        ("ideal", "Ideal"),
        ("ideal+worstcase", "Ideal+worstMC"),
    ];
    let title = "Ablation: feedback-less (worst-case) MC, vs DIMM+chip with feedback";
    let g = speedup_figure(title, &SystemConfig::default(), &schemes, opts);
    println!("\npaper (§2.1.1): assuming worst-case iterations 'greatly degrades performance'");
    println!(
        "measured: worst-case MC runs at {:.2}x of the feedback design (power-budgeted), {:.2}x (ideal power)",
        g[1],
        g[3] / g[2]
    );
    claims(&[
        ("worst-case holds must cost real performance", g[1] < 0.95),
        (
            "even unlimited power cannot hide worst-case bank holds",
            g[3] < g[2],
        ),
    ])
}
