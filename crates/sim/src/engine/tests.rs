//! End-to-end engine tests over the trace catalog: determinism, the
//! paper's headline scheme orderings, and optional-feature behavior.

#![allow(clippy::unwrap_used)]

use fpb_pcm::CellMapping;
use fpb_trace::catalog;
use fpb_types::SystemConfig;

use crate::scheme::SchemeSetup;

use super::{run_workload, SimOptions, System};

fn small_opts() -> SimOptions {
    SimOptions::with_instructions(60_000)
}

fn cfg() -> SystemConfig {
    SystemConfig::default()
}

#[test]
fn ideal_run_completes_with_traffic() {
    let cfg = cfg();
    let wl = catalog::workload("mcf_m").unwrap();
    let m = run_workload(&wl, &cfg, &SchemeSetup::ideal(&cfg), &small_opts());
    assert!(m.cycles > 60_000, "cycles = {}", m.cycles);
    assert!(m.pcm_reads > 0, "no PCM reads");
    assert!(m.pcm_writes > 0, "no PCM writes");
    assert!(m.cpi() >= 1.0, "CPI = {}", m.cpi());
}

#[test]
fn deterministic_across_runs() {
    let cfg = cfg();
    let wl = catalog::workload("lbm_m").unwrap();
    let a = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    let b = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.pcm_writes, b.pcm_writes);
    assert_eq!(a.burst_cycles, b.burst_cycles);
}

#[test]
fn power_limits_cost_performance() {
    // The headline ordering of Fig. 4: Ideal >= DIMM-only >= DIMM+chip.
    let cfg = cfg();
    let wl = catalog::workload("mcf_m").unwrap();
    let ideal = run_workload(&wl, &cfg, &SchemeSetup::ideal(&cfg), &small_opts());
    let dimm = run_workload(&wl, &cfg, &SchemeSetup::dimm_only(&cfg), &small_opts());
    let chip = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &small_opts());
    assert!(
        ideal.cycles <= dimm.cycles,
        "ideal {} vs dimm {}",
        ideal.cycles,
        dimm.cycles
    );
    assert!(
        dimm.cycles <= chip.cycles,
        "dimm {} vs chip {}",
        dimm.cycles,
        chip.cycles
    );
    // And the restriction must actually hurt on a write-heavy load.
    assert!(chip.cycles > ideal.cycles, "chip budget should cost cycles");
}

#[test]
fn fpb_recovers_performance() {
    let cfg = cfg();
    let wl = catalog::workload("mcf_m").unwrap();
    let chip = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &small_opts());
    let fpb = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    let ideal = run_workload(&wl, &cfg, &SchemeSetup::ideal(&cfg), &small_opts());
    assert!(
        fpb.cycles < chip.cycles,
        "FPB {} must beat DIMM+chip {}",
        fpb.cycles,
        chip.cycles
    );
    assert!(fpb.cycles >= ideal.cycles, "FPB cannot beat Ideal");
}

#[test]
fn gcp_uses_tokens_under_naive_mapping() {
    let cfg = cfg();
    let wl = catalog::workload("ast_m").unwrap();
    let m = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.7),
        &small_opts(),
    );
    assert!(
        m.power.gcp_grants() > 0,
        "integer data under NE must pressure some chip"
    );
}

#[test]
fn bim_reduces_gcp_pressure_vs_naive() {
    let cfg = cfg();
    let wl = catalog::workload("ast_m").unwrap();
    let ne = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.7),
        &small_opts(),
    );
    let bim = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::gcp(&cfg, CellMapping::Bim, 0.7),
        &small_opts(),
    );
    assert!(
        bim.power.gcp_usable_total() < ne.power.gcp_usable_total(),
        "BIM {} vs NE {}",
        bim.power.gcp_usable_total(),
        ne.power.gcp_usable_total()
    );
}

#[test]
fn write_burst_time_is_substantial_on_write_heavy_load() {
    let cfg = cfg();
    let wl = catalog::workload("mum_m").unwrap();
    let m = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &small_opts());
    assert!(
        m.burst_fraction() > 0.05,
        "burst fraction = {}",
        m.burst_fraction()
    );
}

#[test]
fn truncation_reduces_cycles() {
    let cfg = cfg();
    let wl = catalog::workload("lbm_m").unwrap();
    let plain = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    let wt = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg).with_wt(8), &small_opts());
    assert!(wt.truncations > 0, "no truncations recorded");
    // At bench scale WT is a clear win; at this test scale allow a
    // small scheduling-noise band while still catching regressions
    // where truncation would somehow slow writes down broadly.
    assert!(
        (wt.cycles as f64) <= plain.cycles as f64 * 1.05,
        "WT {} vs plain {}",
        wt.cycles,
        plain.cycles
    );
}

#[test]
fn write_pausing_pauses_and_improves_read_latency() {
    let cfg = cfg();
    let wl = catalog::workload("mcf_m").unwrap();
    let plain = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    let wp = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::fpb(&cfg).with_wc().with_wp(),
        &small_opts(),
    );
    assert!(wp.pauses > 0, "WP must actually pause writes");
    assert!(
        wp.avg_read_latency() < plain.avg_read_latency() * 1.3,
        "WP {} vs plain {}",
        wp.avg_read_latency(),
        plain.avg_read_latency()
    );
}

#[test]
fn write_cancellation_cancels_young_writes() {
    let cfg = cfg();
    let wl = catalog::workload("tig_m").unwrap(); // read-heavy: many conflicts
    let wc = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg).with_wc(), &small_opts());
    assert!(wc.cancellations > 0, "WC must trigger on a read-heavy load");
}

#[test]
fn preset_writes_are_single_iteration() {
    let cfg = cfg();
    let wl = catalog::workload("lbm_m").unwrap();
    let plain = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    let preset = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::fpb(&cfg).with_preset(),
        &small_opts(),
    );
    // Single-RESET writes slash write-active time per write.
    let plain_cost = plain.write_active_cycles as f64 / plain.pcm_writes.max(1) as f64;
    let preset_cost = preset.write_active_cycles as f64 / preset.pcm_writes.max(1) as f64;
    assert!(
        preset_cost < plain_cost / 2.0,
        "preset {preset_cost} vs plain {plain_cost}"
    );
}

#[test]
fn gcp_regulation_reduces_waste() {
    let cfg = cfg().with_gcp_efficiency(0.4);
    let wl = catalog::workload("ast_m").unwrap();
    let plain = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.4),
        &small_opts(),
    );
    let reg = run_workload(
        &wl,
        &cfg,
        &SchemeSetup::gcp(&cfg, CellMapping::Naive, 0.4)
            .with_gcp_regulation()
            .unwrap(),
        &small_opts(),
    );
    if plain.power.gcp_grants() > 0 && reg.power.gcp_grants() > 0 {
        let plain_rate = plain.power.gcp_waste_total().as_f64()
            / plain.power.gcp_usable_total().as_f64().max(1e-9);
        let reg_rate =
            reg.power.gcp_waste_total().as_f64() / reg.power.gcp_usable_total().as_f64().max(1e-9);
        assert!(
            reg_rate <= plain_rate + 1e-9,
            "regulation must not waste more: {reg_rate} vs {plain_rate}"
        );
    }
}

#[test]
fn tight_budget_forces_multi_round_writes() {
    let mut cfg = cfg();
    cfg.power.pt_dimm = 96; // far below typical change counts
    let wl = catalog::workload("lbm_m").unwrap();
    let m = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &small_opts());
    assert!(
        m.write_rounds > m.pcm_writes,
        "rounds {} must exceed writes {}",
        m.write_rounds,
        m.pcm_writes
    );
}

#[test]
fn per_chip_cells_accumulate_consistently() {
    let cfg = cfg();
    let wl = catalog::workload("cop_m").unwrap();
    let m = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    assert_eq!(m.per_chip_cells.len(), 8);
    assert_eq!(m.per_chip_cells.iter().sum::<u64>(), m.cells_written);
    // BIM keeps wear nearly even on streaming data.
    assert!(m.chip_imbalance() < 1.3, "imbalance {}", m.chip_imbalance());
}

#[test]
fn full_hierarchy_mode_runs_and_filters() {
    let cfg = cfg();
    let wl = catalog::workload("lbm_m").unwrap();
    let mut opts = small_opts();
    opts.full_hierarchy = true;
    let full = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
    let llc_only = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    assert!(full.pcm_reads > 0 && full.pcm_writes > 0);
    // The two front ends agree on traffic scale. Full mode adds
    // write-allocate fill reads for store misses (the L1/L2 fetch on
    // write) and removes short-term-reuse reads, so counts differ but
    // stay in the same regime.
    let ratio = full.pcm_reads as f64 / llc_only.pcm_reads as f64;
    assert!(
        (0.5..2.5).contains(&ratio),
        "full {} vs llc {}",
        full.pcm_reads,
        llc_only.pcm_reads
    );
    // Deterministic too.
    let again = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
    assert_eq!(full.cycles, again.cycles);
}

#[test]
fn scrubbing_generates_background_reads() {
    let cfg = cfg();
    let wl = catalog::workload("lbm_m").unwrap();
    let mut opts = small_opts();
    opts.scrub_period_cycles = Some(20_000);
    let m = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
    assert!(m.scrub_reads > 0, "scrubs must fire on a write-heavy run");
    // Scrub reads never count as demand reads.
    let plain = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    assert_eq!(plain.scrub_reads, 0);
    let ratio = m.pcm_reads as f64 / plain.pcm_reads as f64;
    assert!(
        (0.9..1.1).contains(&ratio),
        "demand reads unchanged: {ratio}"
    );
}

#[test]
fn aggressive_scrubbing_adds_background_load() {
    // Aggressive scrubbing must generate far more background reads
    // than a mild period, while keeping the end-to-end run in the
    // same regime: scrub reads perturb write-burst onset, so the
    // exact cycle ordering vs an unscrubbed run is
    // trajectory-dependent in both directions.
    let cfg = cfg();
    let wl = catalog::workload("mum_m").unwrap();
    let mut opts = small_opts();
    opts.scrub_period_cycles = Some(2_000); // absurdly aggressive
    let scrub = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
    let mut mild_opts = small_opts();
    mild_opts.scrub_period_cycles = Some(40_000);
    let mild = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &mild_opts);
    assert!(
        scrub.scrub_reads > 3 * mild.scrub_reads,
        "aggressive {} vs mild {}",
        scrub.scrub_reads,
        mild.scrub_reads
    );
    let plain = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    let ratio = scrub.cycles as f64 / plain.cycles as f64;
    assert!(
        (0.8..1.6).contains(&ratio),
        "scrub {} vs plain {}",
        scrub.cycles,
        plain.cycles
    );
}

#[test]
fn stepping_matches_run() {
    let cfg = cfg();
    let wl = catalog::workload("bwa_m").unwrap();
    let opts = small_opts();
    let batch = run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
    let mut sys = System::new(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
    let mut steps = 0u64;
    while sys.step() {
        steps += 1;
        assert!(sys.rdq.len() <= cfg.queues.read_entries);
        assert_eq!(sys.banks.len(), 8);
    }
    assert!(steps > 100, "a real run takes many event rounds");
    let stepped = sys.finish();
    assert_eq!(stepped.cycles, batch.cycles);
    assert_eq!(stepped.pcm_writes, batch.pcm_writes);
}

#[test]
fn write_buffers_are_recycled() {
    let cfg = cfg();
    let wl = catalog::workload("mcf_m").unwrap();
    let mut sys = System::new(&wl, &cfg, &SchemeSetup::fpb(&cfg), &small_opts());
    while sys.step() {}
    let (reuses, fresh) = sys.pool_stats();
    assert!(reuses > 0, "the pool never recycled a write buffer");
    assert!(
        fresh < reuses,
        "{fresh} fresh builds against {reuses} reuses"
    );
}

#[test]
fn low_traffic_workload_runs_fast() {
    let cfg = cfg();
    let wl = catalog::workload("xal_m").unwrap();
    let m = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &small_opts());
    // xal has almost no PCM traffic; CPI must stay near 1.
    assert!(m.cpi() < 5.0, "CPI = {}", m.cpi());
}
