//! Property tests for record → replay: across arbitrary seeds, schemes,
//! and fault mixes, a run recorded to an on-disk event log and read back
//! replays (`Timeline::from_events`) to the live run's timeline and final
//! `Metrics` byte-identically — including when the recorded runs execute
//! on parallel sweep workers (`--jobs 2`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fpb_sim::engine::run_workload_recorded;
use fpb_sim::exec::parallel_map_indexed;
use fpb_sim::inspect::{read_event_log, EventLogWriter, MemorySink};
use fpb_sim::scheme::SchemeRegistry;
use fpb_sim::timeline::Timeline;
use fpb_sim::{Metrics, SimOptions};
use fpb_trace::catalog;
use fpb_types::{FaultConfig, SystemConfig};

static CASE: AtomicU64 = AtomicU64::new(0);

// Scratch files for the test; the path never reaches a result.
#[allow(clippy::disallowed_methods)]
fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join("fpb-inspect-replay-proptests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    let p = dir.join(format!("case-{}-{n}.fpbi", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

const SPECS: [&str; 4] = ["dimm-chip", "fpb", "gcp:ne:0.5", "fpb+wc+wp+wt8"];
const INSTRUCTIONS: u64 = 8_000;

fn cfg_for(seed: u64, faulty: bool) -> SystemConfig {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::default()
    };
    if !faulty {
        return cfg;
    }
    cfg.with_faults(FaultConfig {
        verify_fail_prob: 0.25,
        stuck_cell_prob: 0.1,
        stuck_wear_threshold: 1,
        brownout_period: 60_000,
        brownout_duration: 20_000,
        max_retries: 2,
        retry_backoff_cycles: 64,
        watchdog_iterations: 250,
        degraded_after_cycles: 15_000,
        ..FaultConfig::default()
    })
}

/// Records one run and checks the full pipeline: recording leaves the
/// metrics unchanged, in-memory events == file round-trip events, and the
/// file replays to the live run's metrics and timeline.
fn check_one(seed: u64, spec: &str, faulty: bool) -> Result<(), TestCaseError> {
    let cfg = cfg_for(seed, faulty);
    let wl = catalog::workload("mcf_m").expect("workload");
    let setup = SchemeRegistry::standard().build(spec, &cfg).expect("spec");
    let opts = SimOptions::with_instructions(INSTRUCTIONS);

    let plain = fpb_sim::run_workload(&wl, &cfg, &setup, &opts);
    let (inline, sink) =
        run_workload_recorded(&wl, &cfg, &setup, &opts, MemorySink::new()).expect("recorded");
    prop_assert_eq!(&inline, &plain, "sink perturbed the run");
    let live = Timeline::from_events(sink.events());

    // Through the on-disk log and back.
    let path = tmp();
    let mut w =
        EventLogWriter::create(&path, &format!("seed={seed} spec={spec}")).expect("create log");
    for ev in sink.events() {
        w.append(ev).expect("append");
    }
    let written = w.finish().expect("finish");
    prop_assert_eq!(written as usize, sink.events().len());
    let log = read_event_log(&path).expect("read back");
    prop_assert!(log.complete);
    prop_assert_eq!(log.dropped_lines, 0);
    prop_assert_eq!(
        &log.events,
        sink.events(),
        "file round-trip changed the stream"
    );
    std::fs::remove_file(&path).ok();

    let replayed = Timeline::from_events(&log.events);
    prop_assert_eq!(
        replayed.metrics().to_json(),
        inline.to_json(),
        "derived metrics drifted (seed={}, spec={}, faulty={})",
        seed,
        spec,
        faulty
    );
    prop_assert_eq!(replayed.samples(), live.samples());
    prop_assert_eq!(replayed.metrics(), &inline);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn record_replay_reconstructs_run_byte_identically(
        seed in 0u64..1_000_000,
        spec_idx in 0usize..SPECS.len(),
        faulty in any::<bool>(),
    ) {
        check_one(seed, SPECS[spec_idx], faulty)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same reconstruction guarantee when recorded runs execute on
    /// two sweep worker threads (`--jobs 2`): workers record
    /// independent streams, and each stream still derives the metrics
    /// its own serial run produces.
    #[test]
    fn record_replay_holds_under_two_parallel_jobs(
        seed in 0u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        let wl = catalog::workload("mcf_m").expect("workload");
        let opts = SimOptions::with_instructions(INSTRUCTIONS);
        let points: Vec<(u64, &str)> =
            vec![(seed, "fpb"), (seed.wrapping_add(1), "dimm-chip"), (seed, "fpb+wc")];

        let serial: Vec<Metrics> = points
            .iter()
            .map(|&(s, spec)| {
                let cfg = cfg_for(s, faulty);
                let setup = SchemeRegistry::standard().build(spec, &cfg).expect("spec");
                fpb_sim::run_workload(&wl, &cfg, &setup, &opts)
            })
            .collect();

        let replayed: Vec<(Metrics, String)> = parallel_map_indexed(&points, 2, |_, &(s, spec)| {
            let cfg = cfg_for(s, faulty);
            let setup = SchemeRegistry::standard().build(spec, &cfg).expect("spec");
            let opts = SimOptions::with_instructions(INSTRUCTIONS);
            let (inline, sink) =
                run_workload_recorded(&wl, &cfg, &setup, &opts, MemorySink::new())
                    .expect("recorded");
            let derived = Timeline::from_events(sink.events()).metrics().to_json();
            (inline, derived)
        });

        for ((inline, derived_json), want) in replayed.iter().zip(&serial) {
            prop_assert_eq!(inline, want, "parallel recording drifted from serial run");
            prop_assert_eq!(derived_json, &want.to_json(), "parallel replay drifted");
        }
    }
}
