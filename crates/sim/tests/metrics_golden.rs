//! Golden digests: the simulator's reported results, pinned.
//!
//! Each test renders a run's [`Metrics::to_json`] (or a timeline's
//! [`Timeline::render`] chart, or the run's encoded lifecycle-event
//! stream) and compares its FNV-1a-64 digest with a pinned value; the
//! metrics digests were recorded before the engine's metrics became the
//! lifecycle-event fold. A refactor of how results are computed must
//! leave every digest unchanged; a deliberate change to simulated
//! behaviour updates the table below in the same commit, with the
//! reason.
//!
//! On a mismatch the failure message lists every actual digest, so a
//! deliberate update is a copy of that list.

use fpb_sim::inspect::MemorySink;
use fpb_sim::scheme::SchemeRegistry;
use fpb_sim::store::fingerprint64;
use fpb_sim::timeline::Timeline;
use fpb_sim::{run_workload, run_workload_recorded, Metrics, SimOptions};
use fpb_trace::catalog;
use fpb_types::{FaultConfig, SystemConfig};

const INSTRUCTIONS: u64 = 20_000;

/// `Metrics::to_json` digests of every paper-figure spec on `mcf_m`.
const PAPER_FIGURE_DIGESTS: [(&str, u64); 21] = [
    ("ideal", 0x6371b7a36b63a637),
    ("dimm-only", 0x03a007c876224b2c),
    ("dimm-chip", 0xde5d283646d6c97a),
    ("pwl", 0xde5d283646d6c97a),
    ("1.5xlocal", 0xafcbec750dc6f3cf),
    ("2xlocal", 0xafcbec750dc6f3cf),
    ("gcp:ne:0.5", 0xabccff19191fcbf0),
    ("gcp:vim:0.5", 0x88c57d510a6ef75f),
    ("gcp:bim:0.5", 0x1f906201b5ed936b),
    ("gcp:ne:0.95", 0x4c2d20bbb56344a0),
    ("gcp-ipm", 0xec212ea7aa777cc3),
    ("fpb-mr:2", 0x863359da0f618d1d),
    ("fpb-mr:3", 0x0829d749c0290156),
    ("fpb-mr:4", 0x5f97be04e6810041),
    ("fpb", 0x0829d749c0290156),
    ("fpb+wc", 0x4c7eff421b9478a9),
    ("fpb+wc+wp", 0x45704c7fc025c5f5),
    ("fpb+wc+wp+wt8", 0x7159b3f1618fec13),
    ("fpb+preset", 0xdca55d37da476660),
    ("gcp+reg", 0xce0a40c1365aee8f),
    ("dimm-chip+worstcase", 0x8a2c52df29ad720d),
];

/// `fpb` on `mcf_m` under [`faulty_cfg`].
const FAULTY_DIGEST: u64 = 0x4ad49fa6709c4a95;
/// `fpb` on `mcf_m` with [`SCRUB_PERIOD`]-cycle drift scrubbing.
const SCRUB_DIGEST: u64 = 0x8af08007038f941d;
/// `fpb` on `mcf_m` with the token-conservation auditor on.
const AUDIT_DIGEST: u64 = 0x0829d749c0290156;
/// `render(60)` of the `lbm_m` timeline, per scheme.
const TIMELINE_DIGESTS: [(&str, u64); 2] = [
    ("dimm-chip", 0xd115dfcc19155e39),
    ("fpb", 0x15e0650aeb19ec23),
];

const SCRUB_PERIOD: u64 = 5_000;

/// `fpb` per workload with the full L1/L2/L3 front end
/// ([`SimOptions::full_hierarchy`]) at [`FULL_INSTRUCTIONS`] per core:
/// the only pins on the L1/L2 caches, `mark_dirty` write-back merges and
/// full-mode warm-up.
const FULL_HIERARCHY_DIGESTS: [(&str, u64); 2] =
    [("lbm_m", 0xbdb4f8a117d17627), ("mcf_m", 0xe423be13549f2641)];
const FULL_INSTRUCTIONS: u64 = 200_000;

/// Digests of the recorded lifecycle-event stream (every event's
/// `encode()` line, newline-terminated) on `mum_m`, the highest-WPKI
/// trace, at [`INSTRUCTIONS`] per core. `Metrics` only pins the fold;
/// these pin each event, its order and every `Power` event's post-call
/// stats snapshot — what skipping a repeat admission refusal must keep.
/// `fpb faulty` runs under [`faulty_cfg`], whose brownout edges move
/// the ledger between refusals.
const EVENT_STREAM_DIGESTS: [(&str, u64); 3] = [
    ("dimm-chip", 0x67474a47d0098d5a),
    ("fpb", 0xd4f6207e5f649cd6),
    ("fpb faulty", 0x7eaf0a7cb04bc7a5),
];

fn opts() -> SimOptions {
    SimOptions::with_instructions(INSTRUCTIONS)
}

/// The fault mix of `inspect_equivalence.rs`: verify failures deep
/// enough to remap, brownouts long enough to degrade, stuck-at marking,
/// and the watchdog.
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

/// `fpb` on `mcf_m` under `cfg` and `opts`.
fn fpb_run(cfg: &SystemConfig, opts: &SimOptions) -> Metrics {
    let wl = catalog::workload("mcf_m").expect("workload");
    let setup = SchemeRegistry::standard()
        .build("fpb", cfg)
        .expect("fpb spec");
    run_workload(&wl, cfg, &setup, opts)
}

/// Panics listing every actual digest if any differs from its pin.
fn check(table: &[(String, u64, u64)]) {
    if table.iter().any(|(_, got, want)| got != want) {
        let listing: Vec<String> = table
            .iter()
            .map(|(name, got, want)| {
                let mark = if got == want { "" } else { "  <- differs" };
                format!("    (\"{name}\", 0x{got:016x}),{mark} pinned 0x{want:016x}")
            })
            .collect();
        panic!("golden digests changed:\n{}", listing.join("\n"));
    }
}

#[test]
fn paper_figure_specs_match_golden_metrics() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("mcf_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let specs = registry.paper_figure_specs();
    assert_eq!(specs.len(), 21, "paper figure registry changed size");
    let table: Vec<(String, u64, u64)> = specs
        .iter()
        .map(|spec| {
            let setup = registry
                .build(spec, &cfg)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let got = fingerprint64(&run_workload(&wl, &cfg, &setup, &opts()).to_json());
            let want = PAPER_FIGURE_DIGESTS
                .iter()
                .find(|(s, _)| s == spec)
                .map_or(0, |&(_, d)| d);
            (spec.to_string(), got, want)
        })
        .collect();
    check(&table);
}

#[test]
fn fault_injected_run_matches_golden_metrics() {
    let m = fpb_run(&faulty_cfg(), &opts());
    assert!(m.faults.verify_failures > 0, "{:?}", m.faults);
    assert!(m.faults.brownout_windows > 0, "{:?}", m.faults);
    assert!(m.faults.stuck_lines_marked > 0, "{:?}", m.faults);
    check(&[("faulty".into(), fingerprint64(&m.to_json()), FAULTY_DIGEST)]);
}

#[test]
fn scrubbed_run_matches_golden_metrics() {
    let opts = SimOptions {
        scrub_period_cycles: Some(SCRUB_PERIOD),
        ..opts()
    };
    let m = fpb_run(&SystemConfig::default(), &opts);
    assert!(
        m.scrub_reads > 0,
        "the scrub period must fire within the run"
    );
    check(&[("scrub".into(), fingerprint64(&m.to_json()), SCRUB_DIGEST)]);
}

#[test]
fn audited_run_matches_golden_metrics() {
    let opts = SimOptions {
        audit_ledger: true,
        ..opts()
    };
    let m = fpb_run(&SystemConfig::default(), &opts);
    assert_eq!(
        m.faults.audit_violations, 0,
        "the ledger must conserve tokens"
    );
    check(&[("audit".into(), fingerprint64(&m.to_json()), AUDIT_DIGEST)]);
}

#[test]
fn lbm_timelines_match_golden_charts() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("lbm_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let table: Vec<(String, u64, u64)> = TIMELINE_DIGESTS
        .iter()
        .map(|&(spec, want)| {
            let setup = registry.build(spec, &cfg).expect("spec");
            let (_, sink) = run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new())
                .expect("recorded");
            let tl = Timeline::from_events(sink.events());
            let got = fingerprint64(&tl.render(60).expect("render"));
            (spec.to_string(), got, want)
        })
        .collect();
    check(&table);
}

#[test]
fn mum_event_streams_match_golden_digests() {
    let wl = catalog::workload("mum_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let table: Vec<(String, u64, u64)> = EVENT_STREAM_DIGESTS
        .iter()
        .map(|&(name, want)| {
            let (spec, cfg) = match name.split_once(' ') {
                Some((spec, _)) => (spec, faulty_cfg()),
                None => (name, SystemConfig::default()),
            };
            let setup = registry.build(spec, &cfg).expect("spec");
            let (m, sink) = run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new())
                .expect("recorded");
            assert!(m.pcm_writes > 0, "{name}: the run must write");
            if cfg.faults.brownouts_enabled() {
                assert!(m.faults.brownout_windows > 0, "{name}: {:?}", m.faults);
            }
            let mut log = String::new();
            for ev in sink.events() {
                log.push_str(&ev.encode());
                log.push('\n');
            }
            (name.to_string(), fingerprint64(&log), want)
        })
        .collect();
    check(&table);
}

#[test]
fn full_hierarchy_runs_match_golden_metrics() {
    let cfg = SystemConfig::default();
    let opts = SimOptions {
        full_hierarchy: true,
        ..SimOptions::with_instructions(FULL_INSTRUCTIONS)
    };
    let setup = SchemeRegistry::standard()
        .build("fpb", &cfg)
        .expect("fpb spec");
    let table: Vec<(String, u64, u64)> = FULL_HIERARCHY_DIGESTS
        .iter()
        .map(|&(name, want)| {
            let wl = catalog::workload(name).expect("workload");
            let m = run_workload(&wl, &cfg, &setup, &opts);
            assert!(
                m.pcm_writes > 0,
                "{name}: the L3 must spill dirty lines to PCM"
            );
            (name.to_string(), fingerprint64(&m.to_json()), want)
        })
        .collect();
    check(&table);
}
