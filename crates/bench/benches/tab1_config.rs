//! Table 1 — baseline configuration.
//!
//! Prints the simulated system's baseline parameters and checks them
//! against the paper's Table 1.

use fpb_types::SystemConfig;

fn main() {
    let cfg = SystemConfig::default();
    cfg.validate().expect("baseline config must validate");

    println!("=== Table 1: baseline configuration ===");
    println!(
        "CPU          {}-core, 4 GHz, single-issue, in-order",
        cfg.cores
    );
    println!(
        "L1 I/D       private, {} KB/core, {} B line, {}-cycle hit",
        cfg.cache.l1_kib, cfg.cache.l12_line_bytes, cfg.cache.l1_hit_cycles
    );
    println!(
        "L2           private, {} MB/core, {}-way LRU, {} B line, {}-cycle hit",
        cfg.cache.l2_kib / 1024,
        cfg.cache.l2_ways,
        cfg.cache.l12_line_bytes,
        cfg.cache.l2_hit_cycles
    );
    println!(
        "DRAM L3      private, off-chip, {} MB/core, {}-way LRU, {} B line, {}-cycle hit",
        cfg.cache.l3_mib_per_core,
        cfg.cache.l3_ways,
        cfg.cache.l3_line_bytes,
        cfg.cache.l3_hit_cycles
    );
    println!(
        "Controller   {}-entry R / {}-entry W queues, MC-to-bank {} cycles",
        cfg.queues.read_entries, cfg.queues.write_entries, cfg.queues.mc_to_bank_cycles
    );
    println!(
        "PCM          {} GB, {} banks x {} chips, MLC read {} cycles",
        cfg.pcm.capacity_gib, cfg.pcm.banks, cfg.pcm.chips, cfg.pcm.read_cycles
    );
    println!(
        "             RESET {} cycles ({} ns), SET {} cycles ({} ns)",
        cfg.pcm.reset_cycles,
        cfg.pcm.reset_cycles / 4,
        cfg.pcm.set_cycles,
        cfg.pcm.set_cycles / 4
    );
    println!(
        "Write model  '00' {} iter, '01' {:.1} iters avg, '10' {:.1} iters avg, '11' {} iters",
        cfg.pcm.write_model.l00.mean_iterations(),
        cfg.pcm.write_model.l01.mean_iterations(),
        cfg.pcm.write_model.l10.mean_iterations(),
        cfg.pcm.write_model.l11.mean_iterations()
    );
    println!(
        "Power        PT_DIMM = {} tokens, E_LCP = {}, E_GCP = {}, C = {}",
        cfg.power.pt_dimm, cfg.power.e_lcp, cfg.power.e_gcp, cfg.power.reset_set_power_ratio
    );
    println!(
        "             PT_LCP = {:.1} tokens/chip (Eq. 4)",
        cfg.power.pt_lcp_millis(cfg.pcm.chips) as f64 / 1000.0
    );

    // Paper checks.
    assert_eq!(cfg.cores, 8);
    assert_eq!(cfg.pcm.read_cycles, 1000);
    assert_eq!(cfg.pcm.reset_cycles, 500);
    assert_eq!(cfg.pcm.set_cycles, 1000);
    assert_eq!(cfg.power.pt_dimm, 560);
    assert_eq!(cfg.power.pt_lcp_millis(8), 66_500);
    assert!((cfg.pcm.write_model.l01.mean_iterations() - 8.0).abs() < 0.05);
    assert!((cfg.pcm.write_model.l10.mean_iterations() - 6.0).abs() < 0.05);
    println!("\nall Table 1 parameters verified");
}
