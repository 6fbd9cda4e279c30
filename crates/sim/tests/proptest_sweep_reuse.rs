//! Property: result reuse never changes sweep output. For arbitrary
//! grids, schemes, and worker counts, the points produced with semantic
//! dedup on (and with a persistent cache, cold or warm) are identical —
//! labels, ordering, and full `Metrics` of both runs per point — to the
//! points produced with reuse fully disabled.
//!
//! Duplicate axis values are deliberately allowed by the strategies:
//! they manufacture equivalence classes larger than one, so the dedup
//! path (not just the singleton path) is exercised on most cases.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fpb_sim::sweep::{run_sweep_jobs_reuse, Axis, ReuseOptions};
use fpb_sim::SimOptions;
use fpb_trace::catalog;
use fpb_types::SystemConfig;

static CASE: AtomicU64 = AtomicU64::new(0);

#[allow(
    clippy::disallowed_methods,
    reason = "scratch files for the test; the path never reaches a result"
)]
fn tmp_cache() -> PathBuf {
    let dir = std::env::temp_dir().join("fpb-sweep-reuse-proptests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    let p = dir.join(format!("case-{}-{n}.v1", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn reuse_is_invisible_in_sweep_output(
        pts in prop::collection::vec(420u64..700, 1..4),
        egcp_pcts in prop::collection::vec(30u32..95, 1..3),
        line_idx in 0usize..3,
        scheme_idx in 0usize..3,
        jobs in 1usize..4,
        instructions in 300u64..800,
    ) {
        let lines: [&[u32]; 3] = [&[64], &[128], &[256]];
        let schemes = ["fpb", "gcp", "ideal"];
        let egcps: Vec<f64> = egcp_pcts.iter().map(|&e| f64::from(e) / 100.0).collect();
        let axes = vec![
            Axis::line_bytes(lines[line_idx]),
            Axis::pt_dimm(&pts),
            Axis::e_gcp(&egcps),
        ];
        let wl = catalog::workload("mcf_m").expect("pinned workload");
        let cfg = SystemConfig::default();
        let opts = SimOptions::with_instructions(instructions);
        let scheme = schemes[scheme_idx];
        let run = |reuse: &ReuseOptions| {
            run_sweep_jobs_reuse(
                &wl, cfg.clone(), &axes, scheme, "dimm-chip", &opts, jobs, reuse,
            )
        };

        // Level 0: reuse fully off — one engine run per simulation.
        let (off, off_stats) = run(&ReuseOptions::disabled());
        prop_assert_eq!(off_stats.runs_unique, off_stats.runs_total);
        prop_assert_eq!(off_stats.cache_hits, 0);

        // Level 1: semantic dedup.
        let (on, on_stats) = run(&ReuseOptions::default());
        prop_assert!(on_stats.runs_unique <= on_stats.runs_total);
        prop_assert_eq!(on_stats.simulated, on_stats.runs_unique);
        prop_assert!(
            off == on,
            "dedup changed sweep output (scheme {}, {} points)", scheme, off.len()
        );

        // Level 2: persistent cache, cold then warm.
        let cache = tmp_cache();
        let with_cache = ReuseOptions { dedup: true, cache: Some(cache.clone()) };
        let (cold, cold_stats) = run(&with_cache);
        prop_assert_eq!(cold_stats.cache_hits, 0);
        prop_assert!(off == cold, "cold cache changed sweep output");
        let (warm, warm_stats) = run(&with_cache);
        prop_assert_eq!(warm_stats.simulated, 0, "warm cache re-simulated");
        prop_assert_eq!(warm_stats.cache_hits, warm_stats.runs_unique);
        prop_assert!(off == warm, "warm cache changed sweep output");
        std::fs::remove_file(&cache).ok();
    }
}
