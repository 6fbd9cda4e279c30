//! End-to-end guarantees of the supervised sweep: equivalence with
//! standalone engine runs, quarantine behavior, and byte-identical
//! journal resume.

use std::path::PathBuf;

use fpb_sim::journal::{read_journal, JournalMode, JournalWriter};
use fpb_sim::sweep::{
    enumerate_grid, run_sweep_supervised, Axis, PointState, ReuseOptions, SupervisedSweepRequest,
    SweepError, SweepRun,
};
use fpb_sim::{run_workload, CancelToken, JobOutcome, SchemeRegistry, SimOptions, SupervisePolicy};
use fpb_trace::catalog;
use fpb_trace::Workload;
use fpb_types::SystemConfig;

const INSTRUCTIONS: u64 = 3_000;

fn axes() -> Vec<Axis> {
    vec![Axis::pt_dimm(&[466, 560]), Axis::e_gcp(&[0.6, 0.9])]
}

fn workload() -> Workload {
    catalog::workload("cop_m").expect("pinned workload")
}

fn request<'a>(wl: &'a Workload, axes: &'a [Axis]) -> SupervisedSweepRequest<'a> {
    SupervisedSweepRequest {
        workload: wl,
        base_cfg: SystemConfig::default(),
        axes,
        scheme: "fpb",
        baseline: "dimm-chip",
        opts: SimOptions::with_instructions(INSTRUCTIONS),
        policy: SupervisePolicy::default(),
        journal: None,
        cancel: CancelToken::new(),
        cancel_after: None,
        inject_panic: None,
        reuse: ReuseOptions::default(),
    }
}

// Scratch files for the test; the path never reaches a result.
#[allow(clippy::disallowed_methods)]
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fpb-supervised-sweep-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(name);
    std::fs::remove_file(&p).ok();
    p
}

#[test]
fn supervised_points_match_standalone_runs() {
    // Oracle: each point's scheme and baseline, built for that point's
    // config and run on their own, outside any sweep machinery.
    let wl = workload();
    let axes = axes();
    let opts = SimOptions::with_instructions(INSTRUCTIONS);
    let registry = SchemeRegistry::standard();
    let grid = enumerate_grid(&SystemConfig::default(), &axes).expect("valid grid");
    let standalone: Vec<_> = grid
        .iter()
        .map(|(_, cfg)| {
            let scheme = registry.build("fpb", cfg).expect("fpb spec");
            let baseline = registry.build("dimm-chip", cfg).expect("dimm-chip spec");
            (
                run_workload(&wl, cfg, &scheme, &opts),
                run_workload(&wl, cfg, &baseline, &opts),
            )
        })
        .collect();
    for jobs in [1, 3] {
        let mut req = request(&wl, &axes);
        req.policy.jobs = jobs;
        let run = run_sweep_supervised(req).expect("healthy sweep");
        assert!(run.complete() && !run.cancelled);
        assert_eq!(run.points.len(), grid.len());
        for (rec, ((label, _), (metrics, baseline))) in
            run.points.iter().zip(grid.iter().zip(&standalone))
        {
            assert_eq!(rec.outcome, JobOutcome::Ok);
            let PointState::Done(point) = &rec.state else {
                panic!("expected Done, got {:?}", rec.state)
            };
            assert_eq!(point.label, format!("{label} [FPB]"), "jobs={jobs}");
            assert_eq!(&point.metrics, metrics, "jobs={jobs} {label}");
            assert_eq!(&point.baseline, baseline, "jobs={jobs} {label}");
        }
    }
}

#[test]
fn deterministic_panic_quarantines_one_point_and_finishes_the_grid() {
    let wl = workload();
    let axes = axes();
    let mut req = request(&wl, &axes);
    req.policy.jobs = 2;
    req.inject_panic = Some(2);
    let run = run_sweep_supervised(req).expect("sweep itself succeeds");
    assert_eq!(run.count("ok"), 3);
    assert_eq!(run.count("panicked"), 1);
    assert!(
        !run.cancelled,
        "quarantine must not cancel the rest of the grid"
    );
    let q = run.quarantined();
    assert_eq!(q.len(), 1);
    assert_eq!(q[0].index, 2);
    let JobOutcome::Panicked { message } = &q[0].outcome else {
        panic!("expected Panicked, got {:?}", q[0].outcome)
    };
    assert!(message.contains("injected panic at point 2"), "{message}");
    let json = run.to_json();
    assert!(json.contains("\"panicked\": 1,"), "{json}");
    assert!(json.contains("\"class\": \"panicked\""), "{json}");
}

fn journaled_run(
    wl: &Workload,
    axes: &[Axis],
    mode: JournalMode,
    cancel_after: Option<usize>,
) -> Result<SweepRun, SweepError> {
    let mut req = request(wl, axes);
    req.journal = Some(mode);
    req.cancel_after = cancel_after;
    run_sweep_supervised(req)
}

#[test]
fn interrupted_then_resumed_sweep_renders_byte_identical_json() {
    let wl = workload();
    let axes = axes();
    let clean = run_sweep_supervised(request(&wl, &axes)).expect("clean run");
    assert!(clean.complete());

    // Run with a journal, cancelling after 2 completed points (the
    // deterministic stand-in for Ctrl-C mid-sweep).
    let path = tmp("resume_identity.fpbj");
    let partial =
        journaled_run(&wl, &axes, JournalMode::Fresh(path.clone()), Some(2)).expect("partial run");
    assert!(partial.cancelled);
    // One worker: exactly 2 points complete, the rest are skipped.
    let done_first = partial.count("ok");
    assert_eq!(done_first, 2);
    assert_eq!(partial.count("skipped"), 2);

    // Resume: restored points + the remainder, byte-identical JSON.
    let resumed =
        journaled_run(&wl, &axes, JournalMode::Resume(path.clone()), None).expect("resumed run");
    assert!(resumed.complete() && !resumed.cancelled);
    assert_eq!(resumed.restored, done_first);
    assert_eq!(resumed.dropped_journal_lines, 0);
    assert_eq!(
        resumed.to_json(),
        clean.to_json(),
        "resumed sweep must render byte-identical JSON to an uninterrupted run"
    );

    // Resuming a *finished* journal restores everything and still
    // renders identical bytes.
    let re_resumed =
        journaled_run(&wl, &axes, JournalMode::Resume(path.clone()), None).expect("re-resumed run");
    assert_eq!(re_resumed.restored, 4);
    assert_eq!(re_resumed.to_json(), clean.to_json());
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_at_point_k_then_resume_is_byte_identical() {
    let wl = workload();
    let axes = axes();
    let clean = run_sweep_supervised(request(&wl, &axes)).expect("clean run");

    // "Crash": a deterministic panic at point 1 quarantines it; every
    // other point completes and is journaled.
    let path = tmp("crash_resume.fpbj");
    let mut req = request(&wl, &axes);
    req.journal = Some(JournalMode::Fresh(path.clone()));
    req.inject_panic = Some(1);
    let crashed = run_sweep_supervised(req).expect("crashed run still reports");
    assert_eq!(crashed.count("panicked"), 1);
    assert_eq!(crashed.count("ok"), 3);

    // Resume without the injection: only the quarantined point reruns,
    // and the final document matches the uninterrupted run exactly.
    let resumed =
        journaled_run(&wl, &axes, JournalMode::Resume(path.clone()), None).expect("resumed run");
    assert_eq!(resumed.restored, 3);
    assert!(resumed.complete());
    assert_eq!(resumed.to_json(), clean.to_json());
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_cache_completes_journaled_sweeps_and_journal_outranks_cache() {
    let wl = workload();
    let axes = axes();
    let clean = run_sweep_supervised(request(&wl, &axes)).expect("clean run");

    // Seed the result cache with a full unjournaled sweep.
    let cache = tmp("warm_cache.v1");
    let mut req = request(&wl, &axes);
    req.reuse.cache = Some(cache.clone());
    let seeded = run_sweep_supervised(req).expect("seeding run");
    assert_eq!(seeded.reuse.cache_hits, 0);
    assert!(seeded.reuse.simulated > 0);
    assert_eq!(
        seeded.to_json(),
        clean.to_json(),
        "cache writes must not change results"
    );

    // A journaled run over the warm cache completes without simulating:
    // every point is cache-ready and journaled before supervision, and
    // --cancel-after never trips (it counts simulated points only).
    let path = tmp("warm_cache.fpbj");
    let mut req = request(&wl, &axes);
    req.journal = Some(JournalMode::Fresh(path.clone()));
    req.cancel_after = Some(2);
    req.reuse.cache = Some(cache.clone());
    let warm = run_sweep_supervised(req).expect("warm run");
    assert_eq!(warm.reuse.simulated, 0, "{:?}", warm.reuse);
    assert_eq!(warm.reuse.cache_hits, warm.reuse.runs_unique);
    assert!(warm.complete() && !warm.cancelled);
    assert_eq!(
        warm.to_json(),
        clean.to_json(),
        "cache splice must be byte-identical"
    );

    // Resuming the finished journal restores every point from the
    // journal; the cache is never consulted — the journal outranks it.
    let mut req = request(&wl, &axes);
    req.journal = Some(JournalMode::Resume(path.clone()));
    req.reuse.cache = Some(cache.clone());
    let resumed = run_sweep_supervised(req).expect("resumed run");
    assert_eq!(resumed.restored, 4);
    assert_eq!(
        resumed.reuse.runs_total, 0,
        "journal splice must win over cache splice"
    );
    assert_eq!(resumed.reuse.cache_hits, 0);
    assert_eq!(resumed.to_json(), clean.to_json());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn injected_panic_fires_even_with_a_warm_cache() {
    let wl = workload();
    let axes = axes();
    // Warm the cache over the whole grid first.
    let cache = tmp("inject_bypass.v1");
    let mut req = request(&wl, &axes);
    req.reuse.cache = Some(cache.clone());
    run_sweep_supervised(req).expect("seeding run");

    // The poisoned point's units are salted out of cache and dedup, so
    // the panic still fires; the other points splice from the cache.
    let mut req = request(&wl, &axes);
    req.reuse.cache = Some(cache.clone());
    req.inject_panic = Some(2);
    let run = run_sweep_supervised(req).expect("sweep itself succeeds");
    assert_eq!(
        run.count("panicked"),
        1,
        "warm cache must not disarm --inject-panic"
    );
    assert_eq!(run.count("ok"), 3);
    assert_eq!(run.quarantined()[0].index, 2);
    std::fs::remove_file(&cache).ok();
}

#[test]
fn resume_refuses_a_journal_from_a_different_sweep() {
    let wl = workload();
    let axes = axes();
    let path = tmp("wrong_sweep.fpbj");
    journaled_run(&wl, &axes, JournalMode::Fresh(path.clone()), Some(1)).expect("seed journal");

    // Same journal, different scheme: the fingerprint must not match.
    let mut req = request(&wl, &axes);
    req.scheme = "gcp";
    req.journal = Some(JournalMode::Resume(path.clone()));
    let err = run_sweep_supervised(req).expect_err("must refuse");
    assert!(matches!(err, SweepError::Journal(_)));
    assert!(err.to_string().contains("different sweep"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_record_whose_payload_does_not_decode() {
    let wl = workload();
    let axes = axes();
    let path = tmp("bad_payload.fpbj");
    journaled_run(&wl, &axes, JournalMode::Fresh(path.clone()), Some(1)).expect("seed journal");

    // A CRC-valid record for a real grid point that holds no metrics:
    // not tail damage, so resume must refuse it rather than re-run it.
    let header = read_journal(&path).expect("journal").header;
    let (mut w, _) = JournalWriter::resume(&path, &header).expect("reopen");
    w.append_record(3, "not a metrics record").expect("append");
    drop(w);
    let err = journaled_run(&wl, &axes, JournalMode::Resume(path.clone()), None)
        .expect_err("must refuse");
    assert!(matches!(err, SweepError::Journal(_)));
    assert!(err.to_string().contains("point 3 does not decode"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fresh_journal_refuses_to_clobber() {
    let wl = workload();
    let axes = axes();
    let path = tmp("no_clobber_sweep.fpbj");
    journaled_run(&wl, &axes, JournalMode::Fresh(path.clone()), Some(1)).expect("first run");
    let err =
        journaled_run(&wl, &axes, JournalMode::Fresh(path.clone()), None).expect_err("must refuse");
    assert!(err.to_string().contains("already exists"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_specs_and_axes_error_instead_of_panicking() {
    let wl = workload();
    let axes = axes();
    let mut req = request(&wl, &axes);
    req.scheme = "warp-drive";
    let err = run_sweep_supervised(req).expect_err("unknown scheme must be rejected");
    assert!(matches!(err, SweepError::Spec(_)));

    let req = request(&wl, &[]);
    let err = run_sweep_supervised(req).expect_err("empty axes must be rejected");
    assert!(matches!(err, SweepError::Axes(_)));
}

#[test]
fn out_of_range_inject_panic_is_rejected_before_the_journal_opens() {
    let wl = workload();
    let axes = axes();
    let path = tmp("inject_out_of_range.fpbj");
    let mut req = request(&wl, &axes);
    req.journal = Some(JournalMode::Fresh(path.clone()));
    req.inject_panic = Some(4);
    let err = run_sweep_supervised(req).expect_err("index 4 of a 4-point grid must be rejected");
    assert_eq!(
        err,
        SweepError::InjectOutOfRange {
            index: 4,
            points: 4
        }
    );
    assert!(
        err.to_string()
            .contains("point 4 is outside the 4-point grid"),
        "{err}"
    );
    assert!(
        !path.exists(),
        "the sweep must fail before creating its journal"
    );
}
