//! Logical-cell-to-chip mappings (§4.3, Figure 9).
//!
//! Storing one 64 B chunk needs 256 2-bit cells. How those logical cells are
//! distributed over the 8 physical chips determines how balanced per-chip
//! write power demand is — and therefore how often the (inefficient) global
//! charge pump must be used. The paper studies three static mappings:
//!
//! * **NE** (naïve): consecutive cells stay in one chip (`chip = cell / 32`).
//! * **VIM** (Vertical Interleaving, Eq. 2): `chip = cell mod 8` — spreads a
//!   word's consecutive cells across chips, good for FP data whose changes
//!   cluster within words.
//! * **BIM** (Braided Interleaving, Eq. 3): `chip = (cell − cell/16) mod 8`
//!   — additionally staggers same-significance cells of *different* words
//!   onto different chips, good for integer data whose low-order cells
//!   change most.

use std::fmt;
use std::str::FromStr;

use fpb_types::ChipId;

/// Number of logical 2-bit cells per 64 B mapping chunk (16×16 matrix in
/// Figure 9).
pub const CELLS_PER_CHUNK: u32 = 256;
/// Cells per word row in the Figure 9 layout (a 32-bit word = 16 cells).
pub const CELLS_PER_WORD: u32 = 16;

/// A static cell-to-chip mapping scheme.
///
/// # Examples
///
/// ```
/// use fpb_pcm::CellMapping;
///
/// // Naïve mapping keeps cells 0..32 in chip 0.
/// assert_eq!(CellMapping::Naive.chip_of(31, 8).get(), 0);
/// assert_eq!(CellMapping::Naive.chip_of(32, 8).get(), 1);
///
/// // VIM round-robins cells across chips (Eq. 2).
/// assert_eq!(CellMapping::Vim.chip_of(10, 8).get(), 2);
///
/// // BIM braids rows so column c of row r lands on chip (c - r) mod 8 (Eq. 3).
/// assert_eq!(CellMapping::Bim.chip_of(17, 8).get(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellMapping {
    /// Consecutive cells within one chip (Figure 9(b)).
    Naive,
    /// Vertical interleaving: `chip = cell mod chips` (Figure 9(c), Eq. 2).
    Vim,
    /// Braided interleaving: `chip = (cell − cell/16) mod chips`
    /// (Figure 9(d), Eq. 3).
    #[default]
    Bim,
}

impl CellMapping {
    /// All mapping schemes, in the order the paper introduces them.
    pub const ALL: [CellMapping; 3] = [CellMapping::Naive, CellMapping::Vim, CellMapping::Bim];

    /// Short name used in the paper's figure legends (`NE`, `VIM`, `BIM`).
    pub fn label(self) -> &'static str {
        match self {
            CellMapping::Naive => "NE",
            CellMapping::Vim => "VIM",
            CellMapping::Bim => "BIM",
        }
    }

    /// Chip that stores logical cell `cell` of a line, for `chips` chips.
    ///
    /// Cells are mapped chunk-by-chunk: each group of [`CELLS_PER_CHUNK`]
    /// cells (one 64 B chunk) applies the Figure 9 pattern independently,
    /// which is how larger lines (128 B, 256 B) stripe in the baseline
    /// architecture (all chips participate in every chunk).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "every mapping yields a chip below `chips: u8`"
    )]
    pub fn chip_of(self, cell: u32, chips: u8) -> ChipId {
        assert!(chips > 0, "chip count must be nonzero");
        let chips32 = chips as u32;
        let within = cell % CELLS_PER_CHUNK;
        let chip = match self {
            CellMapping::Naive => naive_chip(within, chips32),
            CellMapping::Vim => fast_mod(within, chips32),
            CellMapping::Bim => fast_mod(within - within / CELLS_PER_WORD, chips32),
        };
        ChipId::new(chip as u8)
    }

    /// Per-chip cell counts for an iterator of changed logical cells.
    ///
    /// ```
    /// use fpb_pcm::CellMapping;
    ///
    /// let counts = CellMapping::Vim.distribute([0, 8, 16, 1], 8);
    /// assert_eq!(counts[0], 3); // cells 0, 8, 16 all hit chip 0 under VIM
    /// assert_eq!(counts[1], 1);
    /// ```
    pub fn distribute<I: IntoIterator<Item = u32>>(self, cells: I, chips: u8) -> Vec<u32> {
        let mut counts = Vec::new();
        self.distribute_into(cells, chips, &mut counts);
        counts
    }

    /// [`CellMapping::distribute`] into a caller-owned buffer (cleared and
    /// resized to the chip count), for hot paths that tally per-chip
    /// demand repeatedly and must not allocate.
    pub fn distribute_into<I: IntoIterator<Item = u32>>(
        self,
        cells: I,
        chips: u8,
        counts: &mut Vec<u32>,
    ) {
        counts.clear();
        counts.resize(chips as usize, 0u32);
        for c in cells {
            counts[self.chip_of(c, chips).index()] += 1;
        }
    }
}

/// `x % m`, with the division avoided for power-of-two `m` — the common
/// 4/8/16-chip configurations. `chip_of` runs twice per changed cell on
/// the write hot path (once when `RoundSplitter::split_in` groups a write's
/// cells by chip, again when the line write is built), where a hardware
/// divide is the dominant cost.
#[inline]
fn fast_mod(x: u32, m: u32) -> u32 {
    if m.is_power_of_two() {
        x & (m - 1)
    } else {
        x % m
    }
}

/// NE's chip for offset `within` of a chunk: blocks of
/// `ceil(CELLS_PER_CHUNK / chips)` consecutive cells per chip. For a
/// power-of-two chip count the block size is a power of two too, so the
/// division is a shift (every validated config: line sizes are powers of
/// two and the chip count must divide the cell count); other counts keep
/// the division.
#[inline]
fn naive_chip(within: u32, chips: u32) -> u32 {
    if chips.is_power_of_two() {
        within >> (CELLS_PER_CHUNK.trailing_zeros() - chips.trailing_zeros())
    } else {
        (within / CELLS_PER_CHUNK.div_ceil(chips)).min(chips - 1)
    }
}

impl fmt::Display for CellMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown mapping name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMappingError(String);

impl fmt::Display for ParseMappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown cell mapping `{}` (expected NE, VIM or BIM)",
            self.0
        )
    }
}

impl std::error::Error for ParseMappingError {}

impl FromStr for CellMapping {
    type Err = ParseMappingError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "NE" | "NAIVE" => Ok(CellMapping::Naive),
            "VIM" => Ok(CellMapping::Vim),
            "BIM" => Ok(CellMapping::Bim),
            other => Err(ParseMappingError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_blocks_of_32() {
        for cell in 0..CELLS_PER_CHUNK {
            assert_eq!(CellMapping::Naive.chip_of(cell, 8).get() as u32, cell / 32);
        }
    }

    #[test]
    fn vim_matches_eq2() {
        for cell in 0..CELLS_PER_CHUNK {
            assert_eq!(CellMapping::Vim.chip_of(cell, 8).get() as u32, cell % 8);
        }
    }

    #[test]
    fn bim_matches_eq3() {
        for cell in 0..CELLS_PER_CHUNK {
            let expect = (cell - cell / 16) % 8;
            assert_eq!(CellMapping::Bim.chip_of(cell, 8).get() as u32, expect);
        }
    }

    #[test]
    fn bim_staggers_low_order_cells() {
        // The last cell of each 16-cell word (lowest-order bits of an
        // integer) must land on a different chip for 8 consecutive words.
        let chips: Vec<u8> = (0..8)
            .map(|word| CellMapping::Bim.chip_of(word * 16 + 15, 8).get())
            .collect();
        let mut sorted = chips.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "chips = {chips:?}");
    }

    #[test]
    fn vim_spreads_a_word_across_chips() {
        // Cells 0..16 of one word touch every chip exactly twice under VIM.
        let counts = CellMapping::Vim.distribute(0..16, 8);
        assert!(counts.iter().all(|&c| c == 2), "counts = {counts:?}");
        // ...but all land in two chips under the naïve mapping.
        let counts = CellMapping::Naive.distribute(0..16, 8);
        assert_eq!(counts[0], 16);
    }

    #[test]
    fn every_mapping_is_balanced_over_a_full_chunk() {
        for m in CellMapping::ALL {
            let counts = m.distribute(0..CELLS_PER_CHUNK, 8);
            assert!(counts.iter().all(|&c| c == 32), "{m}: counts = {counts:?}");
        }
    }

    #[test]
    fn chunks_repeat_for_large_lines() {
        for m in CellMapping::ALL {
            for cell in 0..CELLS_PER_CHUNK {
                assert_eq!(
                    m.chip_of(cell, 8),
                    m.chip_of(cell + CELLS_PER_CHUNK, 8),
                    "{m} cell {cell}"
                );
            }
        }
    }

    #[test]
    fn parse_labels() {
        assert_eq!("NE".parse::<CellMapping>().unwrap(), CellMapping::Naive);
        assert_eq!("vim".parse::<CellMapping>().unwrap(), CellMapping::Vim);
        assert_eq!("Bim".parse::<CellMapping>().unwrap(), CellMapping::Bim);
        assert!("xyz".parse::<CellMapping>().is_err());
        for m in CellMapping::ALL {
            assert_eq!(m.label().parse::<CellMapping>().unwrap(), m);
        }
    }

    #[test]
    fn every_chip_count_matches_the_formulas() {
        // Powers of two take the shift and mask paths, the rest divide.
        for chips in 1..=16u32 {
            let block = CELLS_PER_CHUNK.div_ceil(chips);
            for cell in 0..1024 {
                let within = cell % CELLS_PER_CHUNK;
                let expect = [
                    (CellMapping::Naive, (within / block).min(chips - 1)),
                    (CellMapping::Vim, within % chips),
                    (CellMapping::Bim, (within - within / 16) % chips),
                ];
                for (m, want) in expect {
                    assert_eq!(
                        m.chip_of(cell, chips as u8).get() as u32,
                        want,
                        "{m} cell {cell} chips {chips}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_chip_configs_work() {
        for m in CellMapping::ALL {
            let counts = m.distribute(0..CELLS_PER_CHUNK, 4);
            assert_eq!(counts.iter().sum::<u32>(), CELLS_PER_CHUNK);
            assert!(counts.iter().all(|&c| c > 0));
        }
    }
}
