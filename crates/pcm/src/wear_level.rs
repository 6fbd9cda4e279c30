//! Intra-line wear leveling (the PWL baseline of §2.2).
//!
//! Lower-order bits within a word change far more often than higher-order
//! ones, wearing out (and power-loading) some chips faster. Intra-line wear
//! leveling (ref. 31 of the paper) periodically rotates each line by a random cell offset so
//! changes spread across chips over time. The paper evaluates an
//! "overhead-free near-perfect" variant (PWL) as a baseline — it helps chip
//! power balance by only ~2 %, which motivates FPB-GCP.

use fpb_types::SimRng;

/// Tracks per-line rotation offsets for intra-line wear leveling.
///
/// Every `shift_period` writes to a line, the line's rotation offset is
/// re-randomized. Offsets are tracked only for lines that have been
/// written (lazily), so memory use is proportional to the write working
/// set, not the 4 GB address space.
///
/// # Examples
///
/// ```
/// use fpb_pcm::IntraLineWearLeveler;
/// use fpb_types::{LineAddr, SimRng};
///
/// let mut wl = IntraLineWearLeveler::new(8, 1024);
/// let mut rng = SimRng::seed_from(1);
/// let line = LineAddr::new(42);
/// let first = wl.offset_for_write(line, &mut rng);
/// // Offsets stay stable within a period...
/// for _ in 0..6 {
///     assert_eq!(wl.offset_for_write(line, &mut rng), first);
/// }
/// // ...and rotate afterwards (with 1023/1024 probability to a new value).
/// let _ = wl.offset_for_write(line, &mut rng);
/// ```
#[derive(Debug, Clone)]
pub struct IntraLineWearLeveler {
    shift_period: u32,
    cells_per_line: u32,
    // BTreeMap: iteration/debug order must not depend on hasher state.
    lines: std::collections::BTreeMap<u64, LineState>,
}

#[derive(Debug, Clone, Copy)]
struct LineState {
    offset: u32,
    writes_since_shift: u32,
}

impl IntraLineWearLeveler {
    /// Creates a leveler that re-randomizes a line's offset every
    /// `shift_period` writes (the paper sweeps 8..100 and reports the best;
    /// 8 is the most aggressive).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(shift_period: u32, cells_per_line: u32) -> Self {
        assert!(shift_period > 0, "shift period must be nonzero");
        assert!(cells_per_line > 0, "cells per line must be nonzero");
        IntraLineWearLeveler {
            shift_period,
            cells_per_line,
            lines: std::collections::BTreeMap::new(),
        }
    }

    /// Returns the rotation offset to apply to this write's change set and
    /// records the write against the line's shift period.
    pub fn offset_for_write(&mut self, line: fpb_types::LineAddr, rng: &mut SimRng) -> u32 {
        let cells = self.cells_per_line;
        let period = self.shift_period;
        let state = self.lines.entry(line.get()).or_insert_with(|| LineState {
            offset: 0,
            writes_since_shift: 0,
        });
        state.writes_since_shift += 1;
        if state.writes_since_shift > period {
            // The draw is below `cells: u32`, so the narrowing is lossless.
            // fpb-lint: allow(truncating_cast)
            state.offset = rng.u64_below(cells as u64) as u32;
            state.writes_since_shift = 1;
        }
        state.offset
    }

    /// Number of lines with tracked offsets.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpb_types::LineAddr;

    #[test]
    fn offset_is_stable_within_period() {
        let mut wl = IntraLineWearLeveler::new(10, 1024);
        let mut rng = SimRng::seed_from(2);
        let line = LineAddr::new(7);
        let first = wl.offset_for_write(line, &mut rng);
        for _ in 0..9 {
            assert_eq!(wl.offset_for_write(line, &mut rng), first);
        }
    }

    #[test]
    fn offset_rotates_after_period() {
        let mut wl = IntraLineWearLeveler::new(4, 1024);
        let mut rng = SimRng::seed_from(3);
        let line = LineAddr::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(wl.offset_for_write(line, &mut rng));
        }
        // 200 writes / period 4 = 50 shifts; expect many distinct offsets.
        assert!(seen.len() > 20, "only {} distinct offsets", seen.len());
        assert!(seen.iter().all(|&o| o < 1024));
    }

    #[test]
    fn lines_are_independent() {
        let mut wl = IntraLineWearLeveler::new(2, 1024);
        let mut rng = SimRng::seed_from(4);
        let a = LineAddr::new(10);
        let b = LineAddr::new(11);
        for _ in 0..20 {
            let _ = wl.offset_for_write(a, &mut rng);
        }
        // b was never written; its first offset is the initial zero.
        assert_eq!(wl.offset_for_write(b, &mut rng), 0);
        assert_eq!(wl.tracked_lines(), 2);
    }

    #[test]
    fn balances_changes_over_time() {
        // Rotating a low-cell-biased change pattern must spread RESET load
        // across all chips in the long run.
        use crate::mapping::CellMapping;
        let mut wl = IntraLineWearLeveler::new(8, 256);
        let mut rng = SimRng::seed_from(5);
        let line = LineAddr::new(0);
        let mut per_chip = [0u64; 8];
        // Pattern: always cells 0..8 (one chip under naïve mapping).
        for _ in 0..4000 {
            let off = wl.offset_for_write(line, &mut rng);
            for c in 0..8u32 {
                let cell = (c + off) % 256;
                per_chip[CellMapping::Naive.chip_of(cell, 8).index()] += 1;
            }
        }
        let max = *per_chip.iter().max().unwrap() as f64;
        let min = *per_chip.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "imbalance too high: {per_chip:?}");
    }
}
