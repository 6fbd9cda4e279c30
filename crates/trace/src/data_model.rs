//! Per-write data-change modeling.
//!
//! FPB's behaviour depends critically on *which cells change* when a dirty
//! line is written back: the count drives token demand (Fig. 2) and the
//! positions drive per-chip imbalance (what VIM/BIM fix, §4.3). This module
//! generates bit-level change patterns per workload class:
//!
//! * **Integer** — low-order bits of 32-bit words flip with exponentially
//!   decaying probability toward the MSB (§2.2, ref. 31 of the paper).
//! * **Float** — values change as whole words; mantissa bits flip densely,
//!   exponent/sign rarely, and words change in aligned (double) pairs.
//! * **Streaming** — fresh data overwrites the line: dense, uniform flips.
//! * **Pointer** — like integer but sparser words and shallower decay.
//!
//! # Sampling strategy
//!
//! The production path is *word-level*: instead of one Bernoulli draw per
//! bit (up to 512 draws per 64 B line), changed words are selected with
//! geometric skip-sampling (sparse `word_change_prob`) or a bit-parallel
//! mask comparator (dense), and the per-bit flip mask of each changed word
//! is produced by a dyadic-digit comparator that decides all 32 (or 64,
//! when two changed words are paired) lanes at once from a handful of raw
//! `u64` draws. Completed word pairs are additionally buffered four at a
//! time so the comparator resolves 256 lanes per batch in straight-line
//! code (a manual `u64x4`-style pass). Cells are then extracted from the
//! packed masks with `trailing_zeros`/`leading_zeros`/`count_ones`. The
//! original per-bit path is kept as `*_reference` for
//! distributional-equivalence tests and pre-optimization benchmarking.

use fpb_pcm::{ChangeSet, MlcLevel};
use fpb_types::SimRng;

/// Binary digits of probability retained by the mask comparator.
///
/// Lanes still undecided after this many digits are resolved as "no flip",
/// biasing each per-bit probability by at most `2^-48` — far below the
/// resolution of any calibration envelope. The comparator early-exits once
/// every lane is decided, which takes ~`log2(lanes) + 2` draws on average.
const MASK_DIGITS: usize = 48;

/// Word-change probability below which changed words are selected by
/// geometric skip-sampling rather than the bit-parallel comparator.
const SPARSE_WORD_PROB: f64 = 0.25;

/// Broad class of data a benchmark writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Integer-dominated updates (counters, indices).
    Integer,
    /// Floating-point array updates.
    Float,
    /// Bulk streaming overwrite (STREAM kernels, copies).
    Streaming,
    /// Pointer-chasing structures (sparse word updates).
    Pointer,
}

/// The data-change model of one workload.
///
/// # Examples
///
/// ```
/// use fpb_trace::{DataClass, DataProfile};
/// use fpb_types::SimRng;
///
/// let p = DataProfile::new(DataClass::Integer, 0.5);
/// let mut rng = SimRng::seed_from(1);
/// let cs = p.sample_change_set(256, &mut rng);
/// assert!(cs.len() > 0);
/// assert!(cs.iter().all(|&(c, _)| c < 1024));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataProfile {
    class: DataClass,
    word_change_prob: f64,
    level_weights: [f64; 4],
    /// Dyadic digits of the 32 per-bit flip probabilities, replicated
    /// across both 32-lane halves so paired words share one table.
    flip_digits: Vec<u64>,
    /// Dyadic digits of `word_change_prob` (each digit all-ones or zero).
    word_digits: Vec<u64>,
}

impl DataProfile {
    /// Creates a profile; `word_change_prob` is the probability that any
    /// given 32-bit word of a dirty line was modified.
    ///
    /// # Panics
    ///
    /// Panics if `word_change_prob` is not in `[0, 1]`.
    pub fn new(class: DataClass, word_change_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&word_change_prob),
            "word_change_prob must be in [0, 1]"
        );
        let mut profile = DataProfile {
            class,
            word_change_prob,
            level_weights: [0.25; 4],
            flip_digits: Vec::new(),
            word_digits: Vec::new(),
        };
        profile.flip_digits = profile.build_flip_digits();
        profile.word_digits = Self::build_scalar_digits(word_change_prob);
        profile
    }

    /// Overrides the target-level distribution for changed cells
    /// (`[P(00), P(01), P(10), P(11)]`, normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    #[must_use]
    pub fn with_level_weights(mut self, weights: [f64; 4]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
            "level weights must be nonnegative and not all zero"
        );
        self.level_weights = weights;
        self
    }

    /// The workload class.
    pub fn class(&self) -> DataClass {
        self.class
    }

    /// Probability a bit at position `bit` (0 = LSB) of a *changed* word
    /// flips.
    fn bit_flip_prob(&self, bit: u32) -> f64 {
        match self.class {
            // Flatter decay than a pure LSB ramp: integer updates touch
            // roughly the low half-word, so the changed cells cover all
            // eight within-word positions the interleaved mappings use.
            DataClass::Integer => 0.85 * (-(bit as f64) / 8.0).exp(),
            DataClass::Pointer => 0.8 * (-(bit as f64) / 4.0).exp(),
            DataClass::Float => {
                if bit < 23 {
                    // Mantissa: dense changes, denser at the low end.
                    0.55 * (-(bit as f64) / 40.0).exp()
                } else if bit < 31 {
                    0.08 // exponent
                } else {
                    0.03 // sign
                }
            }
            DataClass::Streaming => 0.5,
        }
    }

    /// Precomputes `MASK_DIGITS` binary-fraction digits of the 32 per-bit
    /// flip probabilities, lane `b` of each mask holding digit `k` of
    /// `bit_flip_prob(b % 32)`.
    fn build_flip_digits(&self) -> Vec<u64> {
        let mut fracs = [0.0f64; 64];
        for (b, f) in fracs.iter_mut().enumerate() {
            *f = self.bit_flip_prob((b % 32) as u32).clamp(0.0, 1.0);
        }
        let mut digits = Vec::with_capacity(MASK_DIGITS);
        for _ in 0..MASK_DIGITS {
            let mut mask = 0u64;
            for (b, f) in fracs.iter_mut().enumerate() {
                *f *= 2.0;
                if *f >= 1.0 {
                    mask |= 1u64 << b;
                    *f -= 1.0;
                }
            }
            digits.push(mask);
        }
        digits
    }

    /// Digit masks for a single scalar probability: each digit is all-ones
    /// or all-zeros across the 64 lanes.
    fn build_scalar_digits(p: f64) -> Vec<u64> {
        let mut frac = p.clamp(0.0, 1.0);
        let mut digits = Vec::with_capacity(MASK_DIGITS);
        for _ in 0..MASK_DIGITS {
            frac *= 2.0;
            if frac >= 1.0 {
                digits.push(!0u64);
                frac -= 1.0;
            } else {
                digits.push(0u64);
            }
        }
        digits
    }

    /// Decides `lanes` independent Bernoulli trials at once.
    ///
    /// Each lane compares an (implicit) uniform binary fraction against its
    /// probability digit-by-digit, most significant first: the first digit
    /// where the random draw differs from the probability decides the lane.
    /// Lanes still undecided after `MASK_DIGITS` digits resolve to "no
    /// flip" (bias ≤ `2^-48`).
    #[inline]
    fn decide_lanes(digits: &[u64], lanes: u64, rng: &mut SimRng) -> u64 {
        let mut hits = 0u64;
        let mut undecided = lanes;
        for &pk in digits {
            if undecided == 0 {
                break;
            }
            let r = rng.next_u64();
            hits |= undecided & pk & !r;
            undecided &= !(r ^ pk);
        }
        hits
    }

    /// Decides four independent 64-lane Bernoulli blocks in one pass.
    ///
    /// Functionally equivalent to four [`Self::decide_lanes`] calls with
    /// `lanes = !0`: each group still consumes one raw `u64` per digit
    /// while it has undecided lanes, so every group's flip mask has the
    /// same distribution as a standalone draw. Restructuring the four
    /// comparisons into one digit loop keeps the mask updates in
    /// straight-line `u64x4`-shaped code (independent AND/XOR chains the
    /// compiler can schedule together) and replaces four early-exit loops
    /// with one.
    #[inline]
    fn decide_lanes_x4(digits: &[u64], rng: &mut SimRng) -> [u64; 4] {
        let mut hits = [0u64; 4];
        let mut und = [!0u64; 4];
        for &pk in digits {
            let mut any = false;
            for g in 0..4 {
                if und[g] != 0 {
                    let r = rng.next_u64();
                    hits[g] |= und[g] & pk & !r;
                    und[g] &= !(r ^ pk);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        hits
    }

    /// Queues a changed word: odd words wait for a pair partner, completed
    /// pairs wait in groups of four for a batched 256-lane mask draw.
    #[inline]
    fn batch_word<F>(&self, b: &mut PairBatcher, w: u32, rng: &mut SimRng, emit: &mut F)
    where
        F: FnMut(u32, u32, &mut SimRng),
    {
        match b.pending.take() {
            None => b.pending = Some(w),
            Some(first) => {
                b.pairs[b.len] = (first, w);
                b.len += 1;
                if b.len == b.pairs.len() {
                    let masks = Self::decide_lanes_x4(&self.flip_digits, rng);
                    b.len = 0;
                    self.emit_pairs(&b.pairs, &masks, rng, emit);
                }
            }
        }
    }

    /// Emits the nonzero word masks of resolved pairs in queue order, so
    /// words reach `emit` strictly ascending.
    #[inline]
    fn emit_pairs<F>(&self, pairs: &[(u32, u32)], masks: &[u64], rng: &mut SimRng, emit: &mut F)
    where
        F: FnMut(u32, u32, &mut SimRng),
    {
        for (&(first, second), &m) in pairs.iter().zip(masks) {
            let lo = (m & 0xFFFF_FFFF) as u32;
            let hi = (m >> 32) as u32;
            if lo != 0 {
                emit(first, lo, rng);
            }
            if hi != 0 {
                emit(second, hi, rng);
            }
        }
    }

    /// Drains the batcher tail: leftover complete pairs scalar one at a
    /// time, then a possible lone trailing word with a 32-lane draw.
    fn flush_batch<F>(&self, b: &mut PairBatcher, rng: &mut SimRng, emit: &mut F)
    where
        F: FnMut(u32, u32, &mut SimRng),
    {
        for k in 0..b.len {
            let m = Self::decide_lanes(&self.flip_digits, !0u64, rng);
            self.emit_pairs(&b.pairs[k..=k], &[m], rng, emit);
        }
        b.len = 0;
        if let Some(w) = b.pending.take() {
            let m = Self::decide_lanes(&self.flip_digits, 0xFFFF_FFFF, rng) as u32;
            if m != 0 {
                emit(w, m, rng);
            }
        }
    }

    /// Walks the changed words of one dirty line in ascending order,
    /// calling `emit(word, flip_mask, rng)` for each word with at least one
    /// flipped bit. This is the shared word-level core of the sampling API.
    fn for_each_changed_word<F>(&self, line_bytes: u32, rng: &mut SimRng, mut emit: F)
    where
        F: FnMut(u32, u32, &mut SimRng),
    {
        let words = line_bytes / 4;
        if words == 0 {
            return;
        }
        // Doubles change as aligned word pairs; everything else per word.
        let span: u32 = match self.class {
            DataClass::Float => 2,
            _ => 1,
        };
        let n_units = words.div_ceil(span);
        let q = self.word_change_prob;
        if q <= 0.0 {
            return;
        }
        let mut batch = PairBatcher::default();
        let mut visit_unit = |profile: &Self, u: u32, b: &mut PairBatcher, rng: &mut SimRng| {
            for dw in 0..span {
                let w = u * span + dw;
                if w < words {
                    profile.batch_word(b, w, rng, &mut emit);
                }
            }
        };
        if q >= 1.0 {
            for u in 0..n_units {
                visit_unit(self, u, &mut batch, rng);
            }
        } else if q < SPARSE_WORD_PROB {
            // Geometric skip-sampling: jump straight to the next changed
            // unit. `floor(ln(1-U) / ln(1-q))` is exactly the number of
            // unchanged units skipped.
            let ln_1q = (1.0 - q).ln();
            let mut u = 0u32;
            loop {
                let draw = rng.f64();
                let skip = (1.0 - draw).ln() / ln_1q;
                if skip >= (n_units - u) as f64 {
                    break;
                }
                u += skip as u32;
                visit_unit(self, u, &mut batch, rng);
                u += 1;
                if u >= n_units {
                    break;
                }
            }
        } else {
            // Dense: decide up to 64 units per comparator call.
            let mut base = 0u32;
            while base < n_units {
                let chunk = (n_units - base).min(64);
                let lanes = if chunk == 64 {
                    !0u64
                } else {
                    (1u64 << chunk) - 1
                };
                let mut changed = Self::decide_lanes(&self.word_digits, lanes, rng);
                while changed != 0 {
                    let u = base + changed.trailing_zeros();
                    changed &= changed - 1;
                    visit_unit(self, u, &mut batch, rng);
                }
                base += chunk;
            }
        }
        self.flush_batch(&mut batch, rng, &mut emit);
    }

    /// Samples the byte-for-byte changed bit positions of one dirty line.
    ///
    /// Bit `g` covers bit `g % 32` (0 = LSB) of 32-bit word `g / 32`.
    pub fn sample_changed_bits(&self, line_bytes: u32, rng: &mut SimRng) -> Vec<u32> {
        let mut bits = Vec::new();
        self.for_each_changed_word(line_bytes, rng, |w, mask, _| {
            let mut m = mask;
            while m != 0 {
                let b = m.trailing_zeros();
                m &= m - 1;
                bits.push(w * 32 + b);
            }
        });
        bits
    }

    /// Samples the MLC change set of one dirty line write: the changed
    /// 2-bit cells with their new target levels.
    ///
    /// Cell `k` of word `w` (cells are MSB-first within a word, so cell 15
    /// holds the two LSBs) is global cell `w * 16 + k`; it changes if
    /// either of its bits flips. Cells are emitted in ascending order with
    /// no duplicates.
    pub fn sample_change_set(&self, line_bytes: u32, rng: &mut SimRng) -> ChangeSet {
        let mut out = ChangeSet::empty();
        self.sample_change_set_into(line_bytes, rng, &mut out);
        out
    }

    /// Like [`Self::sample_change_set`] but reuses `out`'s backing storage
    /// (cleared first), so steady-state sampling allocates nothing.
    pub fn sample_change_set_into(&self, line_bytes: u32, rng: &mut SimRng, out: &mut ChangeSet) {
        out.clear();
        self.for_each_changed_word(line_bytes, rng, |w, mask, rng| {
            // Collapse bit pairs onto their even lane: bit 2p set iff cell
            // pair p (bits 2p / 2p+1) changed.
            let mut pairs = (mask | (mask >> 1)) & 0x5555_5555;
            // Cells are MSB-first, so walk pairs from the high end to emit
            // cell indices in ascending order.
            while pairs != 0 {
                let hb = 31 - pairs.leading_zeros();
                pairs &= !(1u32 << hb);
                let cell = w * 16 + (15 - hb / 2);
                out.push(cell, self.sample_level(rng));
            }
        });
    }

    /// Counts changed cells for both MLC (2-bit cells) and SLC (1-bit
    /// cells) interpretations of the same bit-change pattern (Fig. 2).
    pub fn count_changes(&self, line_bytes: u32, rng: &mut SimRng) -> (u32, u32) {
        let mut mlc = 0u32;
        let mut slc = 0u32;
        self.for_each_changed_word(line_bytes, rng, |_, mask, _| {
            slc += mask.count_ones();
            mlc += ((mask | (mask >> 1)) & 0x5555_5555).count_ones();
        });
        (mlc, slc)
    }

    /// Per-bit reference implementation of [`Self::sample_changed_bits`].
    ///
    /// One Bernoulli draw per word plus one per bit of each changed word —
    /// the pre-optimization behaviour, kept compiled-in so equivalence
    /// tests can compare the word-level path against it.
    pub fn sample_changed_bits_reference(&self, line_bytes: u32, rng: &mut SimRng) -> Vec<u32> {
        let words = line_bytes / 4;
        let mut bits = Vec::new();
        let mut w = 0u32;
        while w < words {
            let (changed, span) = match self.class {
                // Doubles: words change in aligned pairs.
                DataClass::Float => (rng.bernoulli(self.word_change_prob), 2.min(words - w)),
                _ => (rng.bernoulli(self.word_change_prob), 1),
            };
            if changed {
                for dw in 0..span {
                    for b in 0..32u32 {
                        if rng.bernoulli(self.bit_flip_prob(b)) {
                            bits.push((w + dw) * 32 + b);
                        }
                    }
                }
            }
            w += span;
        }
        bits
    }

    /// Per-bit reference implementation of [`Self::sample_change_set`].
    pub fn sample_change_set_reference(&self, line_bytes: u32, rng: &mut SimRng) -> ChangeSet {
        let bits = self.sample_changed_bits_reference(line_bytes, rng);
        let mut cells: Vec<u32> = bits.iter().map(|&g| Self::cell_of_bit(g)).collect();
        cells.sort_unstable();
        cells.dedup();
        cells
            .into_iter()
            .map(|c| (c, self.sample_level(rng)))
            .collect()
    }

    /// Per-bit reference implementation of [`Self::count_changes`].
    pub fn count_changes_reference(&self, line_bytes: u32, rng: &mut SimRng) -> (u32, u32) {
        let bits = self.sample_changed_bits_reference(line_bytes, rng);
        let slc = bits.len() as u32;
        let mut cells: Vec<u32> = bits.into_iter().map(Self::cell_of_bit).collect();
        cells.sort_unstable();
        cells.dedup();
        (cells.len() as u32, slc)
    }

    /// Maps a global bit position to its global MLC cell index.
    fn cell_of_bit(g: u32) -> u32 {
        let word = g / 32;
        let bit = g % 32;
        // Cell 0 covers bits 31..30 (MSB), cell 15 covers bits 1..0 (LSB).
        word * 16 + (31 - bit) / 2
    }

    fn sample_level(&self, rng: &mut SimRng) -> MlcLevel {
        // Branchless form of the subtract-and-compare walk, one comparison
        // per weight on exactly the values the loop form would compute —
        // bit-identical level choices, but no data-dependent branches.
        // This runs once per changed cell of every write.
        let [w0, w1, w2, w3] = self.level_weights;
        let x0 = rng.f64() * (w0 + w1 + w2 + w3);
        let x1 = x0 - w0;
        let x2 = x1 - w1;
        let b0 = (x0 >= w0) as u8;
        let b1 = (x1 >= w1) as u8;
        let b2 = (x2 >= w2) as u8;
        MlcLevel::from_bits(b0 * (1 + b1 * (1 + b2)))
    }
}

/// Accumulator feeding [`DataProfile::decide_lanes_x4`]: changed words
/// pair up, completed pairs queue until four are ready (256 lanes), and
/// the tail drains through the scalar comparator.
#[derive(Debug, Default)]
struct PairBatcher {
    /// An odd changed word waiting for its pair partner.
    pending: Option<u32>,
    /// Completed word pairs awaiting a batched mask draw.
    pairs: [(u32, u32); 4],
    /// Occupied prefix of `pairs`.
    len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_changes(p: &DataProfile, n: usize, line: u32, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::seed_from(seed);
        let (mut mlc, mut slc) = (0u64, 0u64);
        for _ in 0..n {
            let (m, s) = p.count_changes(line, &mut rng);
            mlc += m as u64;
            slc += s as u64;
        }
        (mlc as f64 / n as f64, slc as f64 / n as f64)
    }

    /// Mean and variance of MLC/SLC change counts for either sampler path.
    fn moments(
        p: &DataProfile,
        n: usize,
        line: u32,
        seed: u64,
        reference: bool,
    ) -> (f64, f64, f64) {
        let mut rng = SimRng::seed_from(seed);
        let mut mlc = Vec::with_capacity(n);
        let mut slc_sum = 0u64;
        for _ in 0..n {
            let (m, s) = if reference {
                p.count_changes_reference(line, &mut rng)
            } else {
                p.count_changes(line, &mut rng)
            };
            mlc.push(m as f64);
            slc_sum += s as u64;
        }
        let mean = mlc.iter().sum::<f64>() / n as f64;
        let var = mlc.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var, slc_sum as f64 / n as f64)
    }

    #[test]
    fn slc_changes_exceed_mlc_changes() {
        // Fig. 2: 2-bit MLC changes fewer cells than SLC for the same data.
        for class in [
            DataClass::Integer,
            DataClass::Float,
            DataClass::Streaming,
            DataClass::Pointer,
        ] {
            let p = DataProfile::new(class, 0.5);
            let (mlc, slc) = mean_changes(&p, 300, 256, 42);
            assert!(slc > mlc, "{class:?}: slc {slc} <= mlc {mlc}");
        }
    }

    #[test]
    fn larger_lines_change_more_cells() {
        // Fig. 2: cell changes grow with line size.
        let p = DataProfile::new(DataClass::Integer, 0.5);
        let (m64, _) = mean_changes(&p, 300, 64, 1);
        let (m128, _) = mean_changes(&p, 300, 128, 2);
        let (m256, _) = mean_changes(&p, 300, 256, 3);
        assert!(m64 < m128 && m128 < m256, "{m64} {m128} {m256}");
    }

    #[test]
    fn integer_changes_skew_to_low_order_cells() {
        let p = DataProfile::new(DataClass::Integer, 1.0);
        let mut rng = SimRng::seed_from(7);
        let mut low = 0u64;
        let mut high = 0u64;
        for _ in 0..200 {
            for &(cell, _) in p.sample_change_set(64, &mut rng).iter() {
                // Within-word position: cells 8..16 hold the low-order bits.
                if cell % 16 >= 8 {
                    low += 1;
                } else {
                    high += 1;
                }
            }
        }
        assert!(
            low as f64 > 2.0 * high as f64,
            "low {low} vs high {high}: integer data must skew low-order"
        );
    }

    #[test]
    fn float_changes_cluster_in_mantissa() {
        let p = DataProfile::new(DataClass::Float, 1.0);
        let mut rng = SimRng::seed_from(8);
        let mut sign_exp = 0u64;
        let mut mantissa = 0u64;
        for _ in 0..200 {
            for &b in &p.sample_changed_bits(64, &mut rng) {
                if b % 32 >= 23 {
                    sign_exp += 1;
                } else {
                    mantissa += 1;
                }
            }
        }
        assert!(
            mantissa > 10 * sign_exp,
            "mantissa {mantissa}, se {sign_exp}"
        );
    }

    #[test]
    fn word_change_prob_scales_volume() {
        let sparse = DataProfile::new(DataClass::Integer, 0.1);
        let dense = DataProfile::new(DataClass::Integer, 0.9);
        let (ms, _) = mean_changes(&sparse, 200, 256, 9);
        let (md, _) = mean_changes(&dense, 200, 256, 10);
        assert!(md > 5.0 * ms, "dense {md} vs sparse {ms}");
    }

    #[test]
    fn change_set_cells_unique_and_bounded() {
        let p = DataProfile::new(DataClass::Streaming, 0.8);
        let mut rng = SimRng::seed_from(11);
        for _ in 0..50 {
            let cs = p.sample_change_set(256, &mut rng);
            let mut cells: Vec<u32> = cs.iter().map(|&(c, _)| c).collect();
            let n = cells.len();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(cells.len(), n, "duplicate cells in change set");
            assert!(cells.iter().all(|&c| c < 1024));
        }
    }

    #[test]
    fn change_set_cells_ascending() {
        // The word-level extractor must emit cells pre-sorted: the write
        // pipeline depends on ascending order without a sort pass.
        for class in [
            DataClass::Integer,
            DataClass::Float,
            DataClass::Streaming,
            DataClass::Pointer,
        ] {
            for q in [0.1, 0.6, 1.0] {
                let p = DataProfile::new(class, q);
                let mut rng = SimRng::seed_from(77);
                for _ in 0..40 {
                    let cs = p.sample_change_set(256, &mut rng);
                    let cells: Vec<u32> = cs.iter().map(|&(c, _)| c).collect();
                    assert!(
                        cells.windows(2).all(|p| p[0] < p[1]),
                        "{class:?} q={q}: cells not strictly ascending: {cells:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn changed_bits_strictly_increasing() {
        let p = DataProfile::new(DataClass::Integer, 0.5);
        let mut rng = SimRng::seed_from(21);
        for _ in 0..40 {
            let bits = p.sample_changed_bits(256, &mut rng);
            assert!(bits.windows(2).all(|w| w[0] < w[1]), "{bits:?}");
        }
    }

    #[test]
    fn word_sampler_matches_reference_distribution() {
        // Fig. 2 calibration envelope: the word-level sampler must match
        // the per-bit reference in mean and variance of MLC changes and in
        // mean SLC changes, for every class across sparse / dense /
        // always-changed word probabilities.
        for class in [
            DataClass::Integer,
            DataClass::Float,
            DataClass::Streaming,
            DataClass::Pointer,
        ] {
            for q in [0.12, 0.5, 0.95] {
                let p = DataProfile::new(class, q);
                let n = 600;
                let (rm, rv, rs) = moments(&p, n, 256, 1001, true);
                let (nm, nv, ns) = moments(&p, n, 256, 2002, false);
                assert!(
                    (nm - rm).abs() <= 0.08 * rm.max(1.0),
                    "{class:?} q={q}: mlc mean {nm} vs reference {rm}"
                );
                assert!(
                    (ns - rs).abs() <= 0.08 * rs.max(1.0),
                    "{class:?} q={q}: slc mean {ns} vs reference {rs}"
                );
                let ratio = (nv + 1.0) / (rv + 1.0);
                assert!(
                    (0.6..=1.7).contains(&ratio),
                    "{class:?} q={q}: mlc variance {nv} vs reference {rv}"
                );
            }
        }
    }

    #[test]
    fn batched_comparator_matches_scalar_distribution() {
        // The four-group pass must hit each lane with the same probability
        // as a standalone 64-lane draw; compare mean set-bit counts.
        for class in [DataClass::Integer, DataClass::Float, DataClass::Streaming] {
            let p = DataProfile::new(class, 0.9);
            let n = 4000usize;
            let mut a = SimRng::seed_from(91);
            let mut b = SimRng::seed_from(92);
            let scalar: u64 = (0..n)
                .map(|_| {
                    DataProfile::decide_lanes(&p.flip_digits, !0u64, &mut a).count_ones() as u64
                })
                .sum();
            let batched: u64 = (0..n / 4)
                .map(|_| {
                    DataProfile::decide_lanes_x4(&p.flip_digits, &mut b)
                        .iter()
                        .map(|m| m.count_ones() as u64)
                        .sum::<u64>()
                })
                .sum();
            let (sm, bm) = (scalar as f64 / n as f64, batched as f64 / n as f64);
            assert!(
                (sm - bm).abs() <= 0.05 * sm.max(1.0),
                "{class:?}: scalar mean {sm} vs batched mean {bm}"
            );
        }
    }

    #[test]
    fn cell_of_bit_msb_first() {
        assert_eq!(DataProfile::cell_of_bit(31), 0); // MSB of word 0 -> cell 0
        assert_eq!(DataProfile::cell_of_bit(0), 15); // LSB of word 0 -> cell 15
        assert_eq!(DataProfile::cell_of_bit(32 + 31), 16); // MSB of word 1
        assert_eq!(DataProfile::cell_of_bit(32), 31); // LSB of word 1
    }

    #[test]
    fn level_weights_respected() {
        let p =
            DataProfile::new(DataClass::Streaming, 1.0).with_level_weights([0.0, 0.0, 0.0, 1.0]);
        let mut rng = SimRng::seed_from(12);
        let cs = p.sample_change_set(256, &mut rng);
        assert!(cs.iter().all(|&(_, l)| l == MlcLevel::L11));
    }

    #[test]
    #[should_panic(expected = "word_change_prob")]
    fn invalid_prob_panics() {
        let _ = DataProfile::new(DataClass::Integer, 1.5);
    }

    #[test]
    #[should_panic(expected = "level weights")]
    fn invalid_weights_panic() {
        let _ = DataProfile::new(DataClass::Integer, 0.5).with_level_weights([0.0; 4]);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = DataProfile::new(DataClass::Float, 0.6);
        let mut a = SimRng::seed_from(33);
        let mut b = SimRng::seed_from(33);
        for _ in 0..20 {
            assert_eq!(
                p.sample_change_set(256, &mut a),
                p.sample_change_set(256, &mut b)
            );
        }
    }

    #[test]
    fn per_bit_reference_deterministic_given_seed() {
        let p = DataProfile::new(DataClass::Integer, 0.4);
        let mut a = SimRng::seed_from(34);
        let mut b = SimRng::seed_from(34);
        for _ in 0..20 {
            assert_eq!(
                p.sample_change_set_reference(256, &mut a),
                p.sample_change_set_reference(256, &mut b)
            );
        }
    }

    #[test]
    fn into_variant_reuses_storage_and_matches() {
        let p = DataProfile::new(DataClass::Streaming, 0.7);
        let mut a = SimRng::seed_from(55);
        let mut b = SimRng::seed_from(55);
        let mut reused = ChangeSet::empty();
        for _ in 0..10 {
            p.sample_change_set_into(256, &mut a, &mut reused);
            let fresh = p.sample_change_set(256, &mut b);
            assert_eq!(reused, fresh);
        }
    }
}
