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

use fpb_bench::*;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let wls = all_workloads();
    let specs = ["ideal", "dimm-only", "ideal+preset", "dimm-only+preset"];
    let matrix = run_matrix(&cfg, &wls, &setups(&cfg, &specs), opts);

    let (mut mlc_loss, mut slc_loss) = (Vec::new(), Vec::new());
    println!("=== DIMM-only loss vs Ideal: iterative (MLC) vs single-pulse (SLC-like) writes ===");
    println!("workload       MLC loss SLC-like loss");
    for (wl, ms) in wls.iter().zip(&matrix) {
        let m = ms[1].cpi() / ms[0].cpi(); // >= 1: slowdown factor
        let s = ms[3].cpi() / ms[2].cpi();
        let [mp, sp] = [m, s].map(|v| (v - 1.0) * 100.0);
        println!("{:<10} {mp:>11.1}% {sp:>11.1}%", wl.name);
        mlc_loss.push(m);
        slc_loss.push(s);
    }
    let gm = gmean(&mlc_loss) - 1.0;
    let gs = gmean(&slc_loss) - 1.0;
    println!("\npaper: Hay's heuristic loses ~2 % on SLC but 33 % on MLC (§2.2)");
    let [mp, sp] = [gm, gs].map(|v| v * 100.0);
    println!("measured gmean losses: MLC {mp:.1} %, SLC-like {sp:.1} %");
    claims(&[(
        "single-pulse writes must suffer far less from per-write budgeting",
        gs < gm * 0.6,
    )])
}
