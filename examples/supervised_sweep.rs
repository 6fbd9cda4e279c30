//! Supervised sweeps: panic isolation and checkpoint/resume.
//!
//! Walks the two failure stories `fpb sweep` handles (DESIGN.md §11):
//! a poisoned point that is quarantined without aborting the grid, and
//! an interrupted journaled sweep resumed to a byte-identical final
//! report.
//!
//! ```sh
//! cargo run --release --example supervised_sweep
//! ```

use fpb::sim::journal::JournalMode;
use fpb::sim::sweep::{run_sweep_supervised, Axis, ReuseOptions, SupervisedSweepRequest};
use fpb::sim::{CancelToken, SimOptions, SupervisePolicy};
use fpb::trace::catalog;
use fpb::trace::Workload;
use fpb::types::SystemConfig;

fn request<'a>(wl: &'a Workload, axes: &'a [Axis]) -> SupervisedSweepRequest<'a> {
    SupervisedSweepRequest {
        workload: wl,
        base_cfg: SystemConfig::default(),
        axes,
        scheme: "fpb",
        baseline: "dimm-chip",
        opts: SimOptions::with_instructions(3_000),
        policy: SupervisePolicy::default(),
        journal: None,
        cancel: CancelToken::new(),
        cancel_after: None,
        inject_panic: None,
        // Semantic dedup on (the shipping default), no persistent cache —
        // the example's runs stay self-contained.
        reuse: ReuseOptions::default(),
    }
}

fn main() {
    let wl = catalog::workload("cop_m").expect("catalog workload");
    let axes = vec![Axis::pt_dimm(&[466, 560]), Axis::e_gcp(&[0.6, 0.9])];

    // 1. A point that panics: quarantined and reported, the other three
    //    points finish normally.
    let mut req = request(&wl, &axes);
    req.inject_panic = Some(2);
    let run = run_sweep_supervised(req).expect("quarantine sweep");
    for q in run.quarantined() {
        println!(
            "quarantined:        point {} ({}) — {}",
            q.index, q.label, q.outcome
        );
    }
    println!(
        "despite the panic:  {} ok, {} panicked",
        run.count("ok"),
        run.count("panicked")
    );

    // 2. Checkpoint/resume: journal a run cancelled after two points,
    //    then resume it; the final JSON is byte-identical to a clean run.
    let journal = std::env::temp_dir().join("supervised_sweep_example.fpbj");
    std::fs::remove_file(&journal).ok();
    let clean = run_sweep_supervised(request(&wl, &axes)).expect("clean run");

    let mut req = request(&wl, &axes);
    req.journal = Some(JournalMode::Fresh(journal.clone()));
    req.cancel_after = Some(2);
    req.policy.jobs = 1;
    let partial = run_sweep_supervised(req).expect("interrupted run");
    println!(
        "interrupted run:    {} ok, {} skipped",
        partial.count("ok"),
        partial.count("skipped")
    );

    let mut req = request(&wl, &axes);
    req.journal = Some(JournalMode::Resume(journal.clone()));
    let resumed = run_sweep_supervised(req).expect("resumed run");
    println!(
        "resumed run:        restored {} points from the journal",
        resumed.restored
    );
    println!(
        "byte-identical:     {}",
        resumed.to_json() == clean.to_json()
    );
    std::fs::remove_file(&journal).ok();
}
