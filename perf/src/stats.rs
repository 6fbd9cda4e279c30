//! Summaries of repeated measurements and the result digest.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values summarised.
    pub n: usize,
}

impl Summary {
    /// A single value read the same way every time (a count).
    pub fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// `(q3 - q1) / |median|`: the spread as a share of the median (0 for
    /// a zero median with no spread, infinite for a zero median with one).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if self.median != 0.0 {
            iqr / self.median.abs()
        } else if iqr == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

/// Summarises `xs` with the median and the quartiles that Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method)
/// gives, so numbers here match the ones a script computes from the same
/// values. Returns `None` for an empty sample.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    if n == 1 {
        return Some(Summary {
            median,
            q1: median,
            q3: median,
            n,
        });
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    })
}

/// Incremental FNV-1a 64-bit hash: the digest pinned for each workload's
/// simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv1a64::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
