//! Ablation (motivating §2.2): why Hay et al.'s heuristic works for SLC
//! but collapses for MLC.
//!
//! SLC PCM writes finish in a single pulse, so per-write token holds are
//! tight: the paper reports only a 2 % loss for DIMM-only on SLC, versus
//! 33 % on MLC where the same heuristic pins a write's full RESET power
//! for the whole multi-iteration P&V sequence. We approximate the SLC
//! write discipline with the single-pulse write mode (every changed cell
//! programmed by one RESET-length pulse) and compare the DIMM-only loss
//! under each discipline.

use fpb_bench::{all_workloads, bench_options, geometric_mean};
use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let wls = all_workloads();

    let mut mlc_loss = Vec::new();
    let mut slc_loss = Vec::new();
    println!("=== DIMM-only loss vs Ideal: iterative (MLC) vs single-pulse (SLC-like) writes ===");
    println!(
        "{:<10} {:>12} {:>12}",
        "workload", "MLC loss", "SLC-like loss"
    );
    for wl in &wls {
        let cores = warm_cores(wl, &cfg, &opts);
        let mlc_ideal = run_workload_warmed(wl, &cfg, &SchemeSetup::ideal(&cfg), &opts, &cores);
        let mlc_dimm = run_workload_warmed(wl, &cfg, &SchemeSetup::dimm_only(&cfg), &opts, &cores);
        let slc_ideal = run_workload_warmed(
            wl,
            &cfg,
            &SchemeSetup::ideal(&cfg).with_preset(),
            &opts,
            &cores,
        );
        let slc_dimm = run_workload_warmed(
            wl,
            &cfg,
            &SchemeSetup::dimm_only(&cfg).with_preset(),
            &opts,
            &cores,
        );
        let m = mlc_dimm.cpi() / mlc_ideal.cpi(); // >= 1: slowdown factor
        let s = slc_dimm.cpi() / slc_ideal.cpi();
        println!(
            "{:<10} {:>11.1}% {:>11.1}%",
            wl.name,
            (m - 1.0) * 100.0,
            (s - 1.0) * 100.0
        );
        mlc_loss.push(m);
        slc_loss.push(s);
    }
    let gm = geometric_mean(&mlc_loss) - 1.0;
    let gs = geometric_mean(&slc_loss) - 1.0;
    println!("\npaper: Hay's heuristic loses ~2 % on SLC but 33 % on MLC (§2.2)");
    println!(
        "measured gmean losses: MLC {:.1} %, SLC-like {:.1} %",
        gm * 100.0,
        gs * 100.0
    );
    assert!(
        gs < gm * 0.6,
        "single-pulse writes must suffer far less from per-write budgeting: {gs} vs {gm}"
    );
}
