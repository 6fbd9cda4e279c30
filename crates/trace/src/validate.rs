//! Empirical validation of trace generators against their profiles.
//!
//! The workload models are only as good as their calibration; this module
//! measures a generator's *realized* statistics — access intensity, store
//! fraction, footprint, per-tier residency — so tests and the `tab2`
//! bench can check the synthetic suite against Table 2 without running
//! the full simulator.

use crate::generator::CoreTraceGenerator;

/// Realized statistics of a generated operation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalRates {
    /// Operations observed.
    pub ops: u64,
    /// Instructions covered by the gaps.
    pub instructions: u64,
    /// Accesses per kilo-instruction.
    pub total_pki: f64,
    /// Fraction of operations that were stores.
    pub write_fraction: f64,
    /// Distinct 256 B lines touched.
    pub distinct_lines: u64,
    /// Footprint in MiB implied by the distinct lines.
    pub footprint_mib: f64,
}

/// Runs `gen` for `ops` operations and measures its realized rates.
///
/// # Panics
///
/// Panics if `ops` is zero.
///
/// # Examples
///
/// ```
/// use fpb_trace::{catalog, CoreTraceGenerator};
/// use fpb_trace::validate::measure;
/// use fpb_types::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let mut g = CoreTraceGenerator::new(catalog::program("C.mcf").unwrap(), &mut rng);
/// let rates = measure(&mut g, 20_000);
/// // The realized intensity tracks the profile's.
/// let expect = g.profile().total_pki();
/// assert!((rates.total_pki / expect - 1.0).abs() < 0.1);
/// ```
pub fn measure(gen: &mut CoreTraceGenerator, ops: u64) -> EmpiricalRates {
    assert!(ops > 0, "need at least one operation");
    let mut instructions = 0u64;
    let mut writes = 0u64;
    let mut lines = std::collections::BTreeSet::new();
    for _ in 0..ops {
        let op = gen.next_op();
        instructions += op.gap_instructions;
        writes += op.is_write as u64;
        lines.insert(op.addr / 256);
    }
    let distinct = lines.len() as u64;
    EmpiricalRates {
        ops,
        instructions,
        total_pki: ops as f64 * 1000.0 / instructions.max(1) as f64,
        write_fraction: writes as f64 / ops as f64,
        distinct_lines: distinct,
        footprint_mib: distinct as f64 * 256.0 / (1 << 20) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use fpb_types::SimRng;

    fn rates_for(program: &str, ops: u64, seed: u64) -> (EmpiricalRates, f64, f64) {
        let profile = catalog::program(program).expect("program");
        let expect_pki = profile.total_pki();
        let expect_wf = {
            let w: f64 = profile.tiers.iter().map(|t| t.writes_pki).sum();
            w / expect_pki
        };
        let mut rng = SimRng::seed_from(seed);
        let mut g = CoreTraceGenerator::new(profile, &mut rng);
        (measure(&mut g, ops), expect_pki, expect_wf)
    }

    #[test]
    fn every_catalog_program_matches_its_profile() {
        for name in [
            "C.astar",
            "C.bwaves",
            "C.lbm",
            "C.leslie3d",
            "C.mcf",
            "C.xalancbmk",
            "B.mummer",
            "B.tigr",
            "M.qsort",
            "S.copy",
            "S.add",
            "S.scale",
            "S.triad",
        ] {
            let (r, pki, wf) = rates_for(name, 30_000, 7);
            assert!(
                (r.total_pki / pki - 1.0).abs() < 0.08,
                "{name}: pki {} vs {}",
                r.total_pki,
                pki
            );
            assert!(
                (r.write_fraction - wf).abs() < 0.03,
                "{name}: wf {} vs {}",
                r.write_fraction,
                wf
            );
        }
    }

    #[test]
    fn footprint_grows_with_cold_tier_usage() {
        // Short vs long observation of a streaming program: the footprint
        // must keep growing as the stream advances.
        let (short, _, _) = rates_for("C.lbm", 5_000, 3);
        let (long, _, _) = rates_for("C.lbm", 50_000, 3);
        assert!(long.distinct_lines > 2 * short.distinct_lines);
    }

    #[test]
    fn reuse_heavy_program_has_bounded_footprint() {
        let (r, _, _) = rates_for("C.xalancbmk", 60_000, 5);
        // xal's traffic is ~95 % within its 20 MiB hot tier.
        assert!(
            r.footprint_mib < 40.0,
            "footprint {} MiB too large",
            r.footprint_mib
        );
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn zero_ops_panics() {
        let profile = catalog::program("C.mcf").unwrap();
        let mut rng = SimRng::seed_from(1);
        let mut g = CoreTraceGenerator::new(profile, &mut rng);
        let _ = measure(&mut g, 0);
    }
}
