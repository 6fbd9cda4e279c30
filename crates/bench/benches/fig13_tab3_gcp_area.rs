//! Figure 13 + Table 3 — GCP sizing: peak tokens requested and the
//! charge-pump area overhead.
//!
//! Part A reproduces Figure 13 under the production configuration (GCP
//! capped at one LCP): the peak concurrent usable output per workload and
//! mapping. Part B reproduces Table 3's economics: for each mapping, the
//! smallest pump capacity that keeps ≥ 95 % of the full-size speedup, and
//! its area overhead relative to the DIMM's local pumps — always a small
//! fraction of the 100 % cost of doubling every local pump.
//!
//! Expected shape (§6.1.3): interleaved mappings (VIM/BIM) balance chip
//! demand, so they get away with a smaller global pump than the naïve
//! mapping.

use fpb_bench::{all_workloads, bench_options, geometric_mean, print_table, Row};
use fpb_pcm::charge_pump::area_overhead_percent;
use fpb_pcm::CellMapping;
use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::SchemeSetup;
use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let opts = bench_options();
    let wls = all_workloads();
    let mappings = [CellMapping::Naive, CellMapping::Vim, CellMapping::Bim];
    let capacities = [0.25f64, 0.5, 1.0];

    // speedups[mapping][capacity] across workloads, plus Fig. 13 peaks at
    // the production capacity (1 LCP).
    let mut peak_rows = Vec::new();
    let mut speedups = vec![vec![Vec::new(); capacities.len()]; mappings.len()];
    for wl in &wls {
        let cores = warm_cores(wl, &cfg, &opts);
        let base = run_workload_warmed(wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts, &cores);
        let mut peaks = Vec::new();
        for (mi, &mapping) in mappings.iter().enumerate() {
            for (ci, &cap) in capacities.iter().enumerate() {
                let mut setup = SchemeSetup::gcp(&cfg, mapping, 0.7);
                if let Some(g) = setup.policy.gcp.as_mut() {
                    g.capacity_lcps = cap;
                }
                let m = run_workload_warmed(wl, &cfg, &setup, &opts, &cores);
                speedups[mi][ci].push(m.speedup_over(&base));
                if cap == 1.0 {
                    peaks.push(m.power.peak_gcp_tokens() as f64);
                }
            }
        }
        peak_rows.push(Row {
            label: wl.name.to_string(),
            values: peaks,
        });
    }
    let max_peaks: Vec<f64> = (0..mappings.len())
        .map(|mi| {
            peak_rows
                .iter()
                .map(|r| r.values[mi])
                .fold(0.0f64, f64::max)
        })
        .collect();
    peak_rows.push(Row {
        label: "max".to_string(),
        values: max_peaks.clone(),
    });
    print_table(
        "Figure 13: peak usable GCP tokens (E_GCP = 0.7, capacity = 1 LCP)",
        &["NE", "VIM", "BIM"],
        &peak_rows,
    );

    println!("\n=== Table 3: charge-pump area overhead ===");
    println!(
        "{:<26} {:>12} {:>10} {:>14}",
        "scheme", "raw tokens", "overhead", "gmean speedup"
    );
    println!(
        "{:<26} {:>12} {:>10} {:>14}",
        "Baseline (8 chips)", 560, "-", "-"
    );
    println!(
        "{:<26} {:>12} {:>9.1}% {:>14}",
        "2xLocal (8 chips)",
        1120 - 560,
        100.0,
        "-"
    );
    let pt_lcp_usable = 66.5f64;
    for (mi, &mapping) in mappings.iter().enumerate() {
        let gms: Vec<f64> = (0..capacities.len())
            .map(|ci| geometric_mean(&speedups[mi][ci]))
            .collect();
        let full = gms[capacities.len() - 1];
        // Smallest pump retaining >= 95 % of the full-size benefit.
        let (ci, gm) = gms
            .iter()
            .enumerate()
            .find(|(_, &g)| (g - 1.0) >= 0.95 * (full - 1.0))
            .map(|(i, &g)| (i, g))
            .unwrap_or((capacities.len() - 1, full));
        let usable = capacities[ci] * pt_lcp_usable;
        let raw = (usable / 0.7).ceil() as u64;
        println!(
            "{:<26} {:>12} {:>9.1}% {:>14.3}",
            format!("GCP-{}-0.7 ({} LCP)", mapping.label(), capacities[ci]),
            raw,
            area_overhead_percent(raw, 560),
            gm
        );
    }

    println!("\npaper: every GCP variant costs a small fraction of 2xLocal's 100 % area overhead");
    let worst_raw = (1.0 * pt_lcp_usable / 0.7).ceil() as u64;
    assert!(
        area_overhead_percent(worst_raw, 560) < 50.0,
        "a 1-LCP GCP must cost far less than doubling all local pumps"
    );
}
