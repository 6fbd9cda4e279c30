//! Registry smoke suite: every scheme the paper's figures rely on must
//! be constructible by name, self-consistent, and runnable.
//!
//! Three layers of guarantees:
//!
//! 1. **Round-tripping** — for every registered spec,
//!    `parse(render(spec))` yields the identical [`SchemeSpec`] *and*
//!    the identical [`SchemeSetup`] (labels, policy, every component),
//!    so spec strings printed in reports can be pasted back into
//!    `--scheme` without drift.
//! 2. **Validation + smoke runs** — every registry entry and every
//!    paper-figure spec passes [`Scheme::validate`] and completes a
//!    1k-instruction simulation.
//! 3. **Grammar fuzz** — random base/modifier compositions either fail
//!    to build with a stable error or build to the same setup after a
//!    render round-trip.

use fpb_sim::engine::{run_workload_warmed, warm_cores};
use fpb_sim::scheme::{Scheme, SchemeRegistry, SchemeSpec};
use fpb_sim::SimOptions;
use fpb_trace::catalog;
use fpb_types::SystemConfig;
use proptest::prelude::*;

/// Specs beyond the registry's own lists exercising every grammar corner.
const EXTRA_SPECS: &[&str] = &[
    "gcp:ne",
    "gcp:vim:0.5",
    "gcp:bim:0.95",
    "3xlocal",
    "fpb-mr:5",
    "fpb+wc+wt4",
    "dimm-chip+vim",
    "IDEAL", // case-insensitive
];

fn all_specs() -> Vec<String> {
    let registry = SchemeRegistry::standard();
    registry
        .names()
        .iter()
        .copied()
        .chain(registry.paper_figure_specs().iter().copied())
        .chain(EXTRA_SPECS.iter().copied())
        .map(str::to_string)
        .collect()
}

#[test]
fn every_spec_round_trips_through_render() {
    let cfg = SystemConfig::default();
    let registry = SchemeRegistry::standard();
    for spec_str in all_specs() {
        let spec: SchemeSpec = spec_str.parse().unwrap_or_else(|e| {
            panic!("spec `{spec_str}` failed to parse: {e}");
        });
        let rendered = spec.render();
        let reparsed: SchemeSpec = rendered.parse().unwrap_or_else(|e| {
            panic!("render of `{spec_str}` (`{rendered}`) failed to reparse: {e}");
        });
        assert_eq!(
            spec, reparsed,
            "`{spec_str}` round-tripped to a different spec via `{rendered}`"
        );
        let built = registry
            .build_spec(&spec, &cfg)
            .unwrap_or_else(|e| panic!("spec `{spec_str}` failed to build: {e}"));
        let rebuilt = registry
            .build_spec(&reparsed, &cfg)
            .unwrap_or_else(|e| panic!("reparse of `{spec_str}` failed to build: {e}"));
        assert_eq!(
            built, rebuilt,
            "`{spec_str}` built different setups before and after rendering"
        );
    }
}

#[test]
fn every_spec_validates() {
    let cfg = SystemConfig::default();
    let registry = SchemeRegistry::standard();
    for spec_str in all_specs() {
        let setup = registry
            .build(&spec_str, &cfg)
            .unwrap_or_else(|e| panic!("spec `{spec_str}`: {e}"));
        setup
            .validate()
            .unwrap_or_else(|e| panic!("spec `{spec_str}` failed validate(): {e}"));
        assert!(!setup.label.is_empty(), "spec `{spec_str}` has no label");
    }
}

#[test]
fn every_paper_figure_spec_survives_a_smoke_run() {
    let cfg = SystemConfig::default();
    let registry = SchemeRegistry::standard();
    let wl = catalog::workload("mcf_m").expect("pinned workload in catalog");
    let opts = SimOptions::with_instructions(1_000);
    // One warm-up shared across schemes: identical initial cache state,
    // and the suite stays fast enough for every CI run.
    let cores = warm_cores(&wl, &cfg, &opts);
    for spec_str in registry.paper_figure_specs() {
        let setup = registry
            .build(spec_str, &cfg)
            .unwrap_or_else(|e| panic!("spec `{spec_str}`: {e}"));
        let m = run_workload_warmed(&wl, &cfg, &setup, &opts, &cores);
        assert!(m.cycles > 0, "spec `{spec_str}` simulated zero cycles");
        assert!(
            m.instructions_per_core >= 1_000,
            "spec `{spec_str}` retired too few instructions: {}",
            m.instructions_per_core
        );
    }
}

#[test]
fn help_covers_every_registered_family() {
    let registry = SchemeRegistry::standard();
    let help = registry.help();
    // Families sharing a usage form (the `<scale>xlocal` pair) are
    // deduplicated in the listing, so assert on usage, not summary.
    for entry in registry.entries() {
        assert!(
            help.contains(entry.usage),
            "help text is missing the `{}` usage form",
            entry.name
        );
    }
}

/// Grammar atoms for the fuzzer: every base form and every modifier the
/// spec grammar accepts, composed by index mask.
const FUZZ_BASES: &[&str] = &[
    "ideal",
    "dimm-only",
    "dimm-chip",
    "pwl",
    "1.5xlocal",
    "2xlocal",
    "gcp",
    "gcp:ne",
    "gcp:vim:0.75",
    "gcp-ipm",
    "fpb",
    "fpb-mr:2",
];
const FUZZ_MODS: &[&str] = &[
    "wc",
    "wp",
    "wt4",
    "wt8",
    "preset",
    "worstcase",
    "reg",
    "ne",
    "vim",
    "bim",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any grammar-valid composition parses; rendering it and parsing
    /// again reaches the same spec, and building both sides of the
    /// round-trip gives the same outcome (equal setups, or the same
    /// rejection).
    #[test]
    fn random_compositions_round_trip(
        base_idx in 0usize..FUZZ_BASES.len(),
        mod_mask in 0u32..(1 << FUZZ_MODS.len()),
    ) {
        let mut spec_str = FUZZ_BASES[base_idx].to_string();
        for (i, m) in FUZZ_MODS.iter().enumerate() {
            if mod_mask & (1 << i) != 0 {
                spec_str.push('+');
                spec_str.push_str(m);
            }
        }
        let spec: SchemeSpec = spec_str
            .parse()
            .unwrap_or_else(|e| panic!("grammar-valid `{spec_str}` failed to parse: {e}"));
        let rendered = spec.render();
        let reparsed: SchemeSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("render `{rendered}` failed to reparse: {e}"));
        prop_assert_eq!(&spec, &reparsed, "spec drift through `{}`", rendered);

        let cfg = SystemConfig::default();
        let registry = SchemeRegistry::standard();
        match (
            registry.build_spec(&spec, &cfg),
            registry.build_spec(&reparsed, &cfg),
        ) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "setup drift through `{}`", rendered),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string(), "error drift through `{}`", rendered);
            }
            (a, b) => prop_assert!(
                false,
                "`{}` built on one side of the round-trip only: {:?} vs {:?}",
                spec_str,
                a.map(|s| s.label),
                b.map(|s| s.label)
            ),
        }
    }
}
