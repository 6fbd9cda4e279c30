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

use fpb_bench::*;
use fpb_pcm::charge_pump::area_overhead_percent;
use fpb_pcm::CellMapping;

pub fn run(opts: &SimOptions) -> Vec<Claim> {
    let cfg = SystemConfig::default();
    let wls = all_workloads();
    let mappings = [CellMapping::Naive, CellMapping::Vim, CellMapping::Bim];
    let capacities = [0.25f64, 0.5, 1.0];
    // Column 0 is the DIMM+chip baseline, then GCP-<mapping>-0.7 at each
    // capacity in turn. The spec grammar has no pump capacity, so it is
    // set on the built setups.
    let mut specs = vec!["dimm-chip".to_string()];
    for m in mappings {
        specs.extend(capacities.map(|_| format!("gcp:{}:0.7", m.label())));
    }
    let mut schemes = setups(&cfg, &specs);
    for (s, &cap) in schemes[1..].iter_mut().zip(capacities.iter().cycle()) {
        s.policy.gcp.as_mut().expect("a GCP scheme").capacity_lcps = cap;
    }
    let matrix = run_matrix(&cfg, &wls, &schemes, opts);
    let col = |mi: usize, ci: usize| 1 + mi * capacities.len() + ci;

    // Fig. 13 peaks at the production capacity (1 LCP).
    let full = capacities.len() - 1;
    let peak = |ms: &[Metrics], mi| ms[col(mi, full)].power.peak_gcp_tokens() as f64;
    let mut rows = workload_rows(&wls, &matrix, |ms| (0..3).map(|mi| peak(ms, mi)).collect());
    let max = |mi: usize| rows.iter().map(|r| r.values[mi]).fold(0.0f64, f64::max);
    rows.push(Row::new("max", (0..3).map(max).collect()));
    print_table(
        "Figure 13: peak usable GCP tokens (E_GCP = 0.7, capacity = 1 LCP)",
        &["NE", "VIM", "BIM"],
        &rows,
    );

    println!("\n=== Table 3: charge-pump area overhead ===");
    println!("scheme                       raw tokens   overhead  gmean speedup");
    println!("Baseline (8 chips)                  560          -              -");
    println!("2xLocal (8 chips)                   560     100.0%              -");
    let pt_lcp_usable = 66.5f64;
    let gms = speedup_rows(&wls, &matrix, 0).pop().expect("gmean").values;
    for (mi, &mapping) in mappings.iter().enumerate() {
        // Smallest pump retaining >= 95 % of the full-size benefit.
        let full_gain = gms[col(mi, full)] - 1.0;
        let keeps = |&ci: &usize| gms[col(mi, ci)] - 1.0 >= 0.95 * full_gain;
        let ci = (0..full).find(keeps).unwrap_or(full);
        let raw = (capacities[ci] * pt_lcp_usable / 0.7).ceil() as u64;
        println!(
            "{:<26} {:>12} {:>9.1}% {:>14.3}",
            format!("GCP-{}-0.7 ({} LCP)", mapping.label(), capacities[ci]),
            raw,
            area_overhead_percent(raw, 560),
            gms[col(mi, ci)]
        );
    }

    println!("\npaper: every GCP variant costs a small fraction of 2xLocal's 100 % area overhead");
    let worst_raw = (1.0 * pt_lcp_usable / 0.7).ceil() as u64;
    let overhead = area_overhead_percent(worst_raw, 560);
    claims(&[(
        "a 1-LCP GCP must cost far less than doubling all local pumps",
        overhead < 50.0,
    )])
}
