//! Ablation (beyond the paper's main results): the two extensions the
//! paper discusses but does not evaluate.
//!
//! * **PreSET** (§7, [22]): pre-SET lines in the cache so eviction writes
//!   are a single RESET pulse — fast, but demanding full RESET power for
//!   every cell at once ("tends to increase the demand for power tokens").
//! * **Per-chip GCP regulation** (§4.2): regulate the global pump's output
//!   per chip so near chips pay less wire loss — better effective
//!   efficiency at the cost of control logic.

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    // Use a low-efficiency GCP so regulation has something to recover.
    let cfg = SystemConfig::default().with_gcp_efficiency(0.5);
    let schemes = [
        ("dimm-chip", "DIMM+chip"),
        ("fpb", "FPB"),
        ("fpb+reg", "FPB+reg"),
        ("fpb+preset", "FPB+PreSET"),
        ("ideal", "Ideal"),
    ];
    let title = "Ablation: PreSET and per-chip GCP regulation (E_GCP = 0.5), vs DIMM+chip";
    let g = speedup_figure(title, &cfg, &schemes, opts);
    println!("\nexpectations:");
    println!("- regulation >= plain FPB at low E_GCP (recovers conversion loss)");
    println!("- PreSET trades power for latency: single-RESET writes are fast but");
    println!("  front-load full RESET power (the paper predicts higher token demand)");
    println!(
        "measured gmeans: FPB {:.3}, FPB+reg {:.3}, FPB+PreSET {:.3}",
        g[1], g[2], g[3]
    );
    claims(&[("regulation must not hurt", g[2] >= g[1] - 0.03)])
}
