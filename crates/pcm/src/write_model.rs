//! Program-and-verify iteration-count sampling.

use crate::cell::MlcLevel;
use fpb_types::{MlcLevelModel, MlcWriteModel, SimRng};

/// Samples how many write iterations a cell needs to reach a target level.
///
/// Iteration 1 is the RESET pulse; iterations 2..n are SET pulses, each
/// followed by a verify read. MLC PCM writes are non-deterministic (§2.1.1):
/// the same cell can take a different number of iterations on different
/// writes, and most cells finish early while a tail is slow. The sampler
/// implements the two-population substitution for the paper's `i/F1/F2`
/// model, calibrated to the Table 1 means (8 iterations for target `01`,
/// 6 for `10`, fixed 1 for `00`, fixed 2 for `11`).
///
/// # Examples
///
/// ```
/// use fpb_pcm::{IterationSampler, MlcLevel};
/// use fpb_types::{MlcWriteModel, SimRng};
///
/// let sampler = IterationSampler::new(MlcWriteModel::default());
/// let mut rng = SimRng::seed_from(3);
/// assert_eq!(sampler.sample(MlcLevel::L00, &mut rng), 1);
/// assert_eq!(sampler.sample(MlcLevel::L11, &mut rng), 2);
/// let n = sampler.sample(MlcLevel::L01, &mut rng);
/// assert!((2..=16).contains(&n));
/// ```
#[derive(Debug, Clone)]
pub struct IterationSampler {
    /// The per-level models, indexed by `MlcLevel as usize`.
    levels: [MlcLevelModel; 4],
}

impl IterationSampler {
    /// Creates a sampler for the given per-level model.
    pub fn new(model: MlcWriteModel) -> Self {
        let MlcWriteModel { l00, l01, l10, l11 } = model;
        IterationSampler {
            levels: [l00, l01, l10, l11],
        }
    }

    /// Samples the total number of iterations (including the RESET) needed
    /// to program one cell to `target`.
    pub fn sample(&self, target: MlcLevel, rng: &mut SimRng) -> u32 {
        sample_level(&self.levels[target as usize], rng)
    }

    /// `target`'s iteration count when its model fixes it, or `None` when
    /// the count is sampled. [`IterationSampler::sample`] draws from the
    /// RNG exactly for the levels that return `None`.
    pub(crate) fn fixed_iterations(&self, target: MlcLevel) -> Option<u32> {
        match self.levels[target as usize] {
            MlcLevelModel::Fixed(n) => Some(n),
            MlcLevelModel::TwoPhase { .. } => None,
        }
    }

    /// Upper bound on iterations across all levels (the worst-case P&V
    /// bound a controller without device feedback would have to assume).
    pub fn worst_case_iterations(&self) -> u32 {
        self.levels.iter().map(level_max).max().unwrap_or(1)
    }
}

fn sample_level(m: &MlcLevelModel, rng: &mut SimRng) -> u32 {
    match *m {
        MlcLevelModel::Fixed(n) => n,
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`as` saturates, and the count is clamped to `[min, max]`"
        )]
        MlcLevelModel::TwoPhase {
            fast_fraction,
            fast_mean,
            fast_std,
            slow_mean,
            slow_std,
            min,
            max,
        } => {
            let (mean, std) = if rng.bernoulli(fast_fraction) {
                (fast_mean, fast_std)
            } else {
                (slow_mean, slow_std)
            };
            let x = rng.gaussian_with(mean, std).round();
            (x.max(min as f64) as u32).clamp(min, max)
        }
    }
}

fn level_max(m: &MlcLevelModel) -> u32 {
    match *m {
        MlcLevelModel::Fixed(n) => n,
        MlcLevelModel::TwoPhase { max, .. } => max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> IterationSampler {
        IterationSampler::new(MlcWriteModel::default())
    }

    #[test]
    fn fixed_levels_are_deterministic() {
        let s = sampler();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(s.sample(MlcLevel::L00, &mut rng), 1);
            assert_eq!(s.sample(MlcLevel::L11, &mut rng), 2);
        }
    }

    #[test]
    fn intermediate_means_match_table1() {
        let s = sampler();
        let mut rng = SimRng::seed_from(2);
        let n = 60_000;
        let mean01: f64 = (0..n)
            .map(|_| s.sample(MlcLevel::L01, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        let mean10: f64 = (0..n)
            .map(|_| s.sample(MlcLevel::L10, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        // Paper: 8 iterations on average for `01`, 6 for `10`. The clamp
        // shifts the mean slightly; allow a quarter-iteration.
        assert!((mean01 - 8.0).abs() < 0.25, "mean01 = {mean01}");
        assert!((mean10 - 6.0).abs() < 0.25, "mean10 = {mean10}");
    }

    #[test]
    fn samples_respect_bounds() {
        let s = sampler();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let n01 = s.sample(MlcLevel::L01, &mut rng);
            assert!((2..=16).contains(&n01), "n01 = {n01}");
            let n10 = s.sample(MlcLevel::L10, &mut rng);
            assert!((2..=12).contains(&n10), "n10 = {n10}");
        }
    }

    #[test]
    fn most_cells_finish_early() {
        // §2.1.1: "most cells finish in only a small number of iterations" —
        // the distribution must be bimodal-ish with a meaningful early mass.
        let s = sampler();
        let mut rng = SimRng::seed_from(4);
        let n = 20_000;
        let early = (0..n)
            .filter(|_| s.sample(MlcLevel::L01, &mut rng) <= 5)
            .count();
        assert!(
            early as f64 / n as f64 > 0.25,
            "early fraction = {}",
            early as f64 / n as f64
        );
    }

    #[test]
    fn only_fixed_levels_report_a_fixed_count() {
        let s = sampler();
        assert_eq!(s.fixed_iterations(MlcLevel::L00), Some(1));
        assert_eq!(s.fixed_iterations(MlcLevel::L01), None);
        assert_eq!(s.fixed_iterations(MlcLevel::L10), None);
        assert_eq!(s.fixed_iterations(MlcLevel::L11), Some(2));
    }

    #[test]
    fn worst_case_covers_all_levels() {
        assert_eq!(sampler().worst_case_iterations(), 16);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = sampler();
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        for _ in 0..200 {
            assert_eq!(
                s.sample(MlcLevel::L01, &mut a),
                s.sample(MlcLevel::L01, &mut b)
            );
        }
    }
}
