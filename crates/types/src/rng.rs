//! Deterministic pseudo-random number generation.
//!
//! Every stochastic model in the simulator (trace generation, MLC write
//! iteration counts, wear-leveling offsets) draws from a [`SimRng`] seeded
//! from the experiment configuration, so a given configuration always
//! produces bit-identical results. The generator is xoshiro256++ seeded via
//! SplitMix64 — fast, statistically strong for simulation purposes, and
//! entirely self-contained so results cannot drift with a dependency bump.

/// A seedable, forkable PRNG for simulation.
///
/// # Examples
///
/// ```
/// use fpb_types::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
///
/// // Independent stream for a subcomponent:
/// let mut trace_rng = a.fork(7);
/// let x = trace_rng.f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent generator for a labeled substream.
    ///
    /// Forking with distinct `stream` values from the same parent yields
    /// streams that do not overlap in practice, letting each core / chip /
    /// model own its own RNG while the whole simulation stays reproducible.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Widening multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "Lemire's method keeps the low 64 bits of the product"
            )]
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is below `bound: usize`"
    )]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)` .
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal sample (Box–Muller, cached pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(bits) = self.gauss_spare.take() {
            return f64::from_bits(bits);
        }
        // Draw until u1 is nonzero so ln() is finite.
        let mut u1 = self.f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.f64();
        }
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(f64::to_bits(r * theta.sin()));
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Geometric-ish sample: number of Bernoulli(p) trials up to and
    /// including the first success, clamped to `max`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]` or `max` is zero.
    pub fn geometric_clamped(&mut self, p: f64, max: u32) -> u32 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        assert!(max > 0, "max must be nonzero");
        let mut n = 1;
        while n < max && !self.bernoulli(p) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = SimRng::seed_from(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bounded_draws_stay_in_bounds() {
        let mut rng = SimRng::seed_from(99);
        for _ in 0..10_000 {
            assert!(rng.u64_below(7) < 7);
            let x = rng.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = SimRng::seed_from(5);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[rng.usize_below(8)] += 1;
        }
        for b in buckets {
            // Expected 10_000 per bucket; allow 5% deviation.
            assert!((9_500..10_500).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut rng = SimRng::seed_from(11);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits = {hits}");
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::seed_from(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn geometric_clamped_mean_and_bounds() {
        let mut rng = SimRng::seed_from(17);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| rng.geometric_clamped(0.5, 100) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((1.9..2.1).contains(&mean), "mean = {mean}");
        for _ in 0..1000 {
            assert!(rng.geometric_clamped(0.01, 5) <= 5);
        }
    }
}
