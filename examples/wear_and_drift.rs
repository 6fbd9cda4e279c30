//! Reliability view: wear (endurance) and resistance drift (scrubbing)
//! under FPB.
//!
//! Power budgeting decides *when* cells are written; mappings and wear
//! leveling decide *where*; drift decides how often written lines must be
//! refreshed. This example ties the three together.
//!
//! ```sh
//! cargo run --release --example wear_and_drift
//! ```

use fpb::pcm::{CellMapping, DriftModel, MlcLevel};
use fpb::sim::engine::{run_workload_warmed, warm_cores};
use fpb::sim::{SchemeSetup, SimOptions};
use fpb::trace::catalog;
use fpb::types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("mcf_m").expect("catalog workload");
    let opts = SimOptions::with_instructions(150_000);
    let cores = warm_cores(&wl, &cfg, &opts);

    println!("=== wear under each cell mapping (FPB, {}) ===", wl.name);
    println!(
        "{:<8} {:>14} {:>12} {:>16}",
        "mapping", "cells written", "imbalance", "lifetime (runs)"
    );
    for mapping in CellMapping::ALL {
        let m = run_workload_warmed(
            &wl,
            &cfg,
            &SchemeSetup::fpb(&cfg).with_mapping(mapping),
            &opts,
            &cores,
        );
        let e = m.endurance.as_ref().expect("tracked");
        println!(
            "{:<8} {:>14} {:>12.3} {:>16.2e}",
            mapping.label(),
            e.total_cells_written(),
            e.chip_imbalance(),
            e.lifetime_multiple()
        );
    }

    println!("\n=== drift model and scrub budget ===");
    let drift = DriftModel::default();
    let misread = drift.time_to_misread(MlcLevel::L01);
    let interval = drift.scrub_interval_secs(0.5);
    let lines = cfg.pcm.total_lines();
    println!(
        "time to first misread ('01' level): {:.1} hours",
        misread / 3600.0
    );
    println!(
        "scrub interval at 50% margin:       {:.1} hours",
        interval / 3600.0
    );
    println!(
        "scrub read bandwidth for {} GiB:      {:.0} reads/s ({:.4}% of one bank)",
        cfg.pcm.capacity_gib,
        drift.scrub_reads_per_sec(lines, 0.5),
        drift.scrub_reads_per_sec(lines, 0.5) * 250e-9 * 100.0
    );

    // Demonstrate scrub traffic flowing through the simulator (with an
    // artificially aggressive period so it is visible at sim scale).
    let mut scrub_opts = opts;
    scrub_opts.scrub_period_cycles = Some(50_000);
    let m = run_workload_warmed(&wl, &cfg, &SchemeSetup::fpb(&cfg), &scrub_opts, &cores);
    println!(
        "\nwith stress-test scrubbing every 50k cycles: {} scrub reads alongside {} demand reads",
        m.scrub_reads, m.pcm_reads
    );
    println!("(realistic scrub periods are minutes-to-hours: negligible bandwidth)");
}
