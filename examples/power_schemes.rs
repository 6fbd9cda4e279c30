//! Walk the paper's power-budgeting schemes over a heterogeneous
//! multi-programmed mix and show where each scheme's time goes.
//!
//! ```sh
//! cargo run --release --example power_schemes
//! ```

use fpb::pcm::CellMapping;
use fpb::sim::engine::{run_workload_warmed, warm_cores};
use fpb::sim::{SchemeSetup, SimOptions};
use fpb::trace::catalog;
use fpb::types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let workload = catalog::workload("mix_1").expect("catalog workload");
    let opts = SimOptions::with_instructions(200_000);

    // Warm the private LLCs once; replay every scheme from identical state.
    let cores = warm_cores(&workload, &cfg, &opts);
    let baseline = run_workload_warmed(
        &workload,
        &cfg,
        &SchemeSetup::dimm_chip(&cfg),
        &opts,
        &cores,
    );

    println!(
        "workload: {} (2x S.add, 2x C.lbm, 2x C.xalancbmk, 2x B.mummer)",
        workload.name
    );
    println!(
        "{:<14} {:>8} {:>9} {:>11} {:>10} {:>10} {:>9}",
        "scheme", "speedup", "burst%", "gcp tokens", "gcp peak", "mr splits", "stalls"
    );

    let setups = vec![
        SchemeSetup::dimm_chip(&cfg),
        SchemeSetup::pwl(&cfg),
        SchemeSetup::scaled_local(&cfg, 2.0),
        SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.7),
        SchemeSetup::gcp(&cfg, CellMapping::Bim, 0.7),
        SchemeSetup::gcp_ipm(&cfg),
        SchemeSetup::fpb(&cfg),
        SchemeSetup::ideal(&cfg),
    ];
    for setup in setups {
        let m = run_workload_warmed(&workload, &cfg, &setup, &opts, &cores);
        println!(
            "{:<14} {:>8.3} {:>8.1}% {:>11.0} {:>10} {:>10} {:>9}",
            setup.label,
            m.speedup_over(&baseline),
            m.burst_fraction() * 100.0,
            m.power.gcp_usable_total().as_f64(),
            m.power.peak_gcp_tokens(),
            m.power.multi_reset_splits(),
            m.power.advance_stalls(),
        );
    }

    println!();
    println!("Reading the columns:");
    println!("- PWL and 2xlocal are the paper's rejected alternatives (SS2.2):");
    println!("  wear-leveling barely balances power; doubling pumps costs 100% area.");
    println!("- GCP columns show the global pump working: BIM needs fewer GCP");
    println!("  tokens than the naive mapping for the same (or better) speedup.");
    println!("- IPM reclaims tokens every iteration; Multi-RESET splits blocked");
    println!("  RESETs (mr splits) instead of waiting for one big token grant.");
}
