//! Refactor safety net: the staged, scheme-plugin engine must be
//! **byte-for-byte** invisible in the results.
//!
//! For two pinned workloads and two registry schemes (the full FPB
//! extension stack and the paper's baseline), a run on the next-event
//! array stepper and a twin run on the reference scan stepper
//! ([`System::try_step_reference`]) must serialize to identical
//! [`Metrics::to_json`] strings. CI's `scheme-matrix` job fails on any
//! byte difference.
//!
//! [`System::try_step_reference`]: fpb::sim::System::try_step_reference
//! [`Metrics::to_json`]: fpb::sim::Metrics::to_json

use fpb::sim::{run_workload, SchemeRegistry, SimOptions, System};
use fpb::trace::catalog;
use fpb::types::SystemConfig;

const INSTRUCTIONS: u64 = 25_000;
const WORKLOADS: [&str; 2] = ["mcf_m", "lbm_m"];
const SCHEMES: [&str; 2] = ["fpb+wc+wp+wt8", "dimm-chip"];

#[test]
fn optimized_and_reference_paths_serialize_identically() {
    let cfg = SystemConfig::default();
    let registry = SchemeRegistry::standard();
    for wl_name in WORKLOADS {
        let wl = catalog::workload(wl_name).expect("pinned workload in catalog");
        for spec in SCHEMES {
            let setup = registry
                .build(spec, &cfg)
                .unwrap_or_else(|e| panic!("scheme spec `{spec}`: {e}"));
            let opts = SimOptions::with_instructions(INSTRUCTIONS);
            let optimized = run_workload(&wl, &cfg, &setup, &opts).to_json();
            let mut sys = System::new(&wl, &cfg, &setup, &opts);
            while sys.try_step_reference().expect("scan stepper deadlocked") {}
            let reference = sys.finish().to_json();
            assert_eq!(
                optimized, reference,
                "metrics JSON diverged for workload `{wl_name}`, scheme `{spec}`"
            );
        }
    }
}
