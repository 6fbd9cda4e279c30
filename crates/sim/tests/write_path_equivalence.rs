//! Differential proof for the event-heap stepper: it must be
//! *bit-for-bit* identical to the reference scan stepper
//! ([`System::try_step_reference`]) — same final metrics in every
//! field, across seeds, schemes, and fault injection.
//!
//! (The word-level change sampler is deliberately NOT covered here: it
//! consumes the RNG differently by design, so its equivalence to the
//! per-bit reference is distributional and proven in
//! `fpb_trace::data_model` tests. Pooled write buffers are checked
//! against fresh allocation in `fpb_pcm::line_write`.)

use fpb_sim::{run_workload, Metrics, SchemeSetup, SimOptions, System};
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
        "{tag}: heap and scan steppers diverged (seed {})",
        cfg.seed
    );
}

#[test]
fn heap_stepper_matches_scan_stepper() {
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
fn heap_stepper_matches_scan_under_fault_injection() {
    for seed in SEEDS {
        let cfg = fault_cfg(seed);
        assert_identical(&cfg, &SchemeSetup::fpb(&cfg), &opts(), "faults");
    }
}

#[test]
fn heap_stepper_matches_scan_with_wt_wc_wp_and_scrub() {
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
