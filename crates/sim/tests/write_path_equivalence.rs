//! Differential proof for the next-event array stepper: it must be
//! *bit-for-bit* identical to the reference scan stepper
//! ([`System::try_step_reference`]) — same final metrics in every
//! field, across seeds, schemes, fault injection, and bank and core
//! counts off the 8×8 default.
//!
//! (The word-level change sampler is deliberately NOT covered here: it
//! consumes the RNG differently by design, so its equivalence to the
//! per-bit reference is distributional and proven in
//! `fpb_trace::data_model` tests. Pooled write buffers are checked
//! against fresh allocation in `fpb_pcm::line_write`.)

use fpb_sim::{
    run_workload, run_workload_recorded, LifecycleEvent, MemorySink, Metrics, SchemeSetup,
    SimOptions, System,
};
use fpb_trace::catalog;
use fpb_types::SystemConfig;

const SEEDS: [u64; 3] = [1, 42, 0xF9B];

fn opts() -> SimOptions {
    SimOptions::with_instructions(40_000)
}

fn fault_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig {
        seed,
        ..SystemConfig::default()
    };
    cfg.faults.verify_fail_prob = 0.25;
    cfg.faults.stuck_cell_prob = 0.01;
    cfg.faults.stuck_wear_threshold = 64;
    cfg.faults.brownout_period = 10_000;
    cfg.faults.brownout_duration = 2_000;
    cfg
}

/// Runs mcf_m to completion on the reference scan stepper.
fn run_reference(cfg: &SystemConfig, setup: &SchemeSetup, opts: &SimOptions) -> Metrics {
    let wl = catalog::workload("mcf_m").expect("catalog workload");
    let mut sys = System::new(&wl, cfg, setup, opts);
    while sys.try_step_reference().expect("scan stepper deadlocked") {}
    sys.finish()
}

/// Runs `setup` on `cfg` with both steppers and asserts full-metrics
/// equality.
fn assert_identical(cfg: &SystemConfig, setup: &SchemeSetup, opts: &SimOptions, tag: &str) {
    let wl = catalog::workload("mcf_m").expect("catalog workload");
    let optimized = run_workload(&wl, cfg, setup, opts);
    let reference = run_reference(cfg, setup, opts);
    assert_eq!(
        optimized, reference,
        "{tag}: array and scan steppers diverged (seed {}, {} banks, {} cores)",
        cfg.seed, cfg.pcm.banks, cfg.cores
    );
}

#[test]
fn array_stepper_matches_scan_stepper() {
    for seed in SEEDS {
        let cfg = SystemConfig {
            seed,
            ..SystemConfig::default()
        };
        for setup in [
            SchemeSetup::ideal(&cfg),
            SchemeSetup::dimm_chip(&cfg),
            SchemeSetup::fpb(&cfg),
        ] {
            assert_identical(&cfg, &setup, &opts(), "stepper");
        }
    }
}

#[test]
fn array_stepper_matches_scan_under_fault_injection() {
    for seed in SEEDS {
        let cfg = fault_cfg(seed);
        assert_identical(&cfg, &SchemeSetup::fpb(&cfg), &opts(), "faults");
    }
}

#[test]
fn array_stepper_matches_scan_with_wt_wc_wp_and_scrub() {
    // The richest control-flow surface: truncation, cancellation,
    // pausing, and background scrub reads all interleave with the
    // stepper's event ordering.
    let cfg = SystemConfig {
        seed: 7,
        ..SystemConfig::default()
    };
    let setup = SchemeSetup::fpb(&cfg).with_wt(8).with_wc().with_wp();
    let mut o = opts();
    o.scrub_period_cycles = Some(20_000);
    assert_identical(&cfg, &setup, &o, "wt/wc/wp/scrub");
}

#[test]
fn array_stepper_matches_scan_off_the_default_geometry() {
    // One bank, and 64 banks, whose last bank is bit 63 of the engine's
    // bank masks; one core, and four.
    for (banks, cores) in [(1, 1), (1, 4), (64, 1), (64, 4)] {
        let mut cfg = SystemConfig {
            seed: 42,
            cores,
            ..SystemConfig::default()
        };
        cfg.pcm.banks = banks;
        for setup in [
            SchemeSetup::ideal(&cfg),
            SchemeSetup::dimm_chip(&cfg),
            SchemeSetup::fpb(&cfg),
        ] {
            assert_identical(&cfg, &setup, &opts(), "geometry");
        }
        let mut faulty = fault_cfg(42);
        (faulty.cores, faulty.pcm.banks) = (cores, banks);
        assert_identical(
            &faulty,
            &SchemeSetup::fpb(&faulty),
            &opts(),
            "geometry+faults",
        );
    }
    // The 64-bank runs do reach the last bank.
    let mut cfg = SystemConfig::default();
    cfg.pcm.banks = 64;
    let wl = catalog::workload("mcf_m").expect("catalog workload");
    let (_, sink) = run_workload_recorded(
        &wl,
        &cfg,
        &SchemeSetup::fpb(&cfg),
        &opts(),
        MemorySink::new(),
    )
    .expect("64-bank run");
    let last_bank_writes = sink
        .into_events()
        .iter()
        .filter(|e| matches!(e, LifecycleEvent::WriteAdmitted { bank: 63, .. }))
        .count();
    assert!(last_bank_writes > 0, "no write reached bank 63");
}
