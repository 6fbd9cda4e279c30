//! Record/replay equivalence: the recorded lifecycle event stream is a
//! *complete* record of a run.
//!
//! The engine's metrics are the fold of its own event stream
//! ([`Metrics::apply`]), so a replayed stream reproduces them by
//! construction; what remains to check is the recording path itself:
//!
//! 1. **Observation is free** — recording through a sink must not
//!    perturb the simulation.
//! 2. **The log is lossless** — a stream written to an on-disk `fpbi1`
//!    log and read back replays to the live run's metrics and timeline.
//! 3. **The codec is exact** — every event a run emits survives the wire
//!    form the log stores.

use fpb_sim::inspect::{read_event_log, FileSink, LifecycleEvent, MemorySink};
use fpb_sim::scheme::SchemeRegistry;
use fpb_sim::timeline::Timeline;
use fpb_sim::{run_workload, run_workload_recorded, Metrics, SimOptions};
use fpb_trace::catalog;
use fpb_types::{FaultConfig, SystemConfig};

const INSTRUCTIONS: u64 = 20_000;

fn opts() -> SimOptions {
    SimOptions::with_instructions(INSTRUCTIONS)
}

/// A fault mix exercising every recovery path the events must cover:
/// verify failures deep enough to remap, brownouts long enough to
/// degrade, stuck-at marking, and the watchdog.
fn faulty_cfg() -> SystemConfig {
    SystemConfig::default().with_faults(FaultConfig {
        verify_fail_prob: 0.3,
        stuck_cell_prob: 0.2,
        stuck_wear_threshold: 1,
        brownout_period: 120_000,
        brownout_duration: 50_000,
        max_retries: 2,
        retry_backoff_cycles: 100,
        watchdog_iterations: 200,
        degraded_after_cycles: 10_000,
        ..FaultConfig::default()
    })
}

/// `spec` on `mcf_m` under `cfg`, plain and recorded into memory.
fn plain_and_recorded(spec: &str, cfg: &SystemConfig) -> (Metrics, Metrics, Vec<LifecycleEvent>) {
    let wl = catalog::workload("mcf_m").expect("workload");
    let setup = SchemeRegistry::standard()
        .build(spec, cfg)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let plain = run_workload(&wl, cfg, &setup, &opts());
    let (recorded, sink) = run_workload_recorded(&wl, cfg, &setup, &opts(), MemorySink::new())
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    (plain, recorded, sink.into_events())
}

#[test]
fn recording_leaves_metrics_unchanged() {
    let cfg = SystemConfig::default();
    let registry = SchemeRegistry::standard();
    for spec in registry.paper_figure_specs() {
        let (plain, recorded, _) = plain_and_recorded(spec, &cfg);
        assert_eq!(recorded, plain, "{spec}: recording perturbed the run");
    }
    let (plain, recorded, _) = plain_and_recorded("fpb", &faulty_cfg());
    assert!(plain.faults.verify_failures > 0, "{:?}", plain.faults);
    assert_eq!(recorded, plain, "recording perturbed the faulty run");
}

#[test]
// Scratch files for the test; the path never reaches a result.
#[allow(clippy::disallowed_methods)]
fn on_disk_log_replays_to_the_live_run() {
    let cfg = faulty_cfg();
    let wl = catalog::workload("mcf_m").expect("workload");
    let setup = SchemeRegistry::standard()
        .build("fpb", &cfg)
        .expect("fpb spec");
    let dir = std::env::temp_dir().join("fpb-inspect-equivalence");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("run-{}.fpbi", std::process::id()));
    std::fs::remove_file(&path).ok();

    let sink = FileSink::create(&path, "mcf_m fpb faulty").expect("create log");
    let (live, sink) = run_workload_recorded(&wl, &cfg, &setup, &opts(), sink).expect("recorded");
    sink.finish().expect("close log");
    let (_, memory) =
        run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new()).expect("recorded");
    let log = read_event_log(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert!(log.complete);
    assert_eq!(
        log.events,
        memory.events(),
        "the log must hold the whole stream"
    );

    let replayed = Timeline::from_events(&log.events);
    assert_eq!(replayed.metrics().to_json(), live.to_json());
    assert_eq!(replayed.metrics(), &live);
    let in_memory = Timeline::from_events(memory.events());
    assert_eq!(replayed.samples(), in_memory.samples());
    assert_eq!(
        replayed.render(60).expect("render"),
        in_memory.render(60).expect("render")
    );
}

#[test]
fn event_stream_round_trips_through_the_wire_codec() {
    // Every event an actual run emits must survive encode/decode — the
    // on-disk log stores exactly these lines.
    let (_, _, events) = plain_and_recorded("fpb+wc+wp+wt8", &faulty_cfg());
    assert!(!events.is_empty());
    for ev in &events {
        let line = ev.encode();
        assert_eq!(
            LifecycleEvent::decode(&line).as_ref(),
            Some(ev),
            "wire round-trip failed for {line}"
        );
    }
}
