//! MLC resistance drift and scrubbing (§3.2's drift remark, §7's related
//! work on Helmet [30] and scrub mechanisms [1]).
//!
//! An MLC cell's resistance drifts upward over time as
//! `R(t) = R0 · (t/t0)^ν`: the amorphous-phase resistance grows, so the
//! intermediate levels `01`/`10` creep toward their upper read boundary
//! and eventually misread. Full RESET/SET states have wide margins and are
//! effectively immune. FPB's Multi-RESET pauses are far too short to
//! matter (the paper's observation), but long idle periods need periodic
//! *scrubbing* — background reads that rewrite drifted lines — which costs
//! memory bandwidth. This module provides the analytical drift model and a
//! scrub-interval calculator the simulator's scrub traffic uses.

use crate::cell::MlcLevel;

/// Analytical resistance-drift model `R(t) = R0 · (t/t0)^ν`.
///
/// # Examples
///
/// ```
/// use fpb_pcm::{DriftModel, MlcLevel};
///
/// let m = DriftModel::default();
/// // Intermediate levels drift; full RESET/SET do not misread.
/// assert!(m.time_to_misread(MlcLevel::L01).is_finite());
/// assert!(m.time_to_misread(MlcLevel::L00).is_infinite());
///
/// // A safe scrub interval leaves margin before the earliest misread.
/// let interval = m.scrub_interval_secs(0.5);
/// assert!(interval > 0.0 && interval < m.time_to_misread(MlcLevel::L01));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Drift exponent `ν` for the partially-amorphous intermediate levels
    /// (literature values 0.01–0.1; intermediate states drift fastest).
    pub nu_intermediate: f64,
    /// Normalization time `t0` in seconds (time of the post-write verify).
    pub t0_secs: f64,
    /// Resistance guard band of the intermediate levels: the factor by
    /// which `R` may grow before crossing the next read boundary.
    pub guard_band: f64,
}

impl Default for DriftModel {
    fn default() -> Self {
        DriftModel {
            nu_intermediate: 0.1,
            t0_secs: 1e-6,
            guard_band: 10.0,
        }
    }
}

impl DriftModel {
    /// Relative resistance growth factor `R(t)/R0` of an intermediate
    /// level after `t` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative.
    pub fn growth_factor(&self, t_secs: f64) -> f64 {
        assert!(t_secs >= 0.0, "time must be nonnegative");
        if t_secs <= self.t0_secs {
            1.0
        } else {
            (t_secs / self.t0_secs).powf(self.nu_intermediate)
        }
    }

    /// Seconds until `level` drifts across its read boundary
    /// (`f64::INFINITY` for the immune full-RESET/SET states).
    pub fn time_to_misread(&self, level: MlcLevel) -> f64 {
        if !level.is_intermediate() {
            return f64::INFINITY;
        }
        // Solve (t/t0)^nu = guard_band.
        self.t0_secs * self.guard_band.powf(1.0 / self.nu_intermediate)
    }

    /// A scrub interval that rewrites lines after `margin_fraction` of the
    /// time-to-misread has elapsed (0 < fraction < 1; smaller = safer and
    /// more scrub traffic).
    ///
    /// # Panics
    ///
    /// Panics if `margin_fraction` is not in `(0, 1)`.
    pub fn scrub_interval_secs(&self, margin_fraction: f64) -> f64 {
        assert!(
            margin_fraction > 0.0 && margin_fraction < 1.0,
            "margin fraction must be in (0, 1)"
        );
        self.time_to_misread(MlcLevel::L01) * margin_fraction
    }

    /// Scrub-read bandwidth in reads/second for a memory of `lines` lines
    /// scrubbed every [`DriftModel::scrub_interval_secs`].
    pub fn scrub_reads_per_sec(&self, lines: u64, margin_fraction: f64) -> f64 {
        lines as f64 / self.scrub_interval_secs(margin_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_is_monotone_and_starts_at_one() {
        let m = DriftModel::default();
        assert_eq!(m.growth_factor(0.0), 1.0);
        assert_eq!(m.growth_factor(1e-7), 1.0);
        let g1 = m.growth_factor(1.0);
        let g2 = m.growth_factor(100.0);
        assert!(1.0 < g1 && g1 < g2);
    }

    #[test]
    fn only_intermediate_levels_misread() {
        let m = DriftModel::default();
        assert!(m.time_to_misread(MlcLevel::L00).is_infinite());
        assert!(m.time_to_misread(MlcLevel::L11).is_infinite());
        let t01 = m.time_to_misread(MlcLevel::L01);
        let t10 = m.time_to_misread(MlcLevel::L10);
        assert!(t01.is_finite() && t10.is_finite());
        // At the misread time the growth equals the guard band.
        assert!((m.growth_factor(t01) - m.guard_band).abs() < 1e-6);
    }

    #[test]
    fn multi_reset_pauses_are_drift_safe() {
        // The paper's §3.2 claim: a Multi-RESET pause (a few extra RESET
        // pulses, ~hundreds of ns) consumes a negligible part of the
        // drift budget.
        let m = DriftModel::default();
        let pause_secs = 2.0 * 125e-9; // two extra RESET pulses
        let growth = m.growth_factor(pause_secs);
        assert!(growth < 1.01, "pause growth {growth} must be negligible");
        // The misread horizon is hours, not nanoseconds.
        assert!(m.time_to_misread(MlcLevel::L01) > 3600.0);
    }

    #[test]
    fn scrub_interval_scales_with_margin() {
        let m = DriftModel::default();
        let tight = m.scrub_interval_secs(0.25);
        let loose = m.scrub_interval_secs(0.75);
        assert!(tight < loose);
        assert!(loose < m.time_to_misread(MlcLevel::L01));
    }

    #[test]
    fn faster_drift_needs_faster_scrubbing() {
        let slow = DriftModel {
            nu_intermediate: 0.02,
            ..DriftModel::default()
        };
        let fast = DriftModel {
            nu_intermediate: 0.10,
            ..DriftModel::default()
        };
        assert!(fast.scrub_interval_secs(0.5) < slow.scrub_interval_secs(0.5));
        assert!(fast.scrub_reads_per_sec(1 << 24, 0.5) > slow.scrub_reads_per_sec(1 << 24, 0.5));
    }

    #[test]
    #[should_panic(expected = "margin fraction")]
    fn bad_margin_panics() {
        let _ = DriftModel::default().scrub_interval_secs(1.5);
    }
}
