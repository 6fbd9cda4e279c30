//! DIMM organization: chips, lines, and Multi-RESET cell groups.

use crate::mapping::CELLS_PER_CHUNK;

/// Physical organization of one PCM DIMM as seen by a line write.
///
/// The baseline (Figure 1): 8 chips per rank, 8 logical banks each striped
/// across *all* chips, so every line write touches every chip. A 256 B line
/// holds 1024 2-bit cells, 128 per chip.
///
/// # Examples
///
/// ```
/// use fpb_pcm::DimmGeometry;
///
/// let g = DimmGeometry::new(8, 1024);
/// assert_eq!(g.cells_per_chip(), 128);
/// // Multi-RESET splits each chunk into static thirds:
/// assert_eq!(g.reset_group_of(0, 3), 0);
/// assert_eq!(g.reset_group_of(255, 3), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimmGeometry {
    chips: u8,
    cells_per_line: u32,
}

impl DimmGeometry {
    /// Creates a geometry with `chips` chips and `cells_per_line` MLC cells
    /// per memory line.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or cells do not divide evenly
    /// across chips.
    pub fn new(chips: u8, cells_per_line: u32) -> Self {
        assert!(chips > 0, "chip count must be nonzero");
        assert!(cells_per_line > 0, "cells per line must be nonzero");
        assert_eq!(
            cells_per_line % u32::from(chips),
            0,
            "cells per line must divide evenly across chips"
        );
        DimmGeometry {
            chips,
            cells_per_line,
        }
    }

    /// Number of chips in the DIMM.
    pub fn chips(&self) -> u8 {
        self.chips
    }

    /// MLC cells per memory line.
    pub fn cells_per_line(&self) -> u32 {
        self.cells_per_line
    }

    /// Cells of each line held by a single chip.
    pub fn cells_per_chip(&self) -> u32 {
        self.cells_per_line / u32::from(self.chips)
    }

    /// Static Multi-RESET group of a logical cell when the RESET is split
    /// into `groups` iterations (§3.2: cells are grouped statically,
    /// regardless of whether they are changed, needing only a narrow
    /// group-enable control signal per chip).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`within` is below `CELLS_PER_CHUNK` (256), so the quotient fits u8"
    )]
    pub fn reset_group_of(&self, cell: u32, groups: u8) -> u8 {
        assert!(groups > 0, "group count must be nonzero");
        if groups == 1 {
            // The non-Multi-RESET common case: every cell is in group 0.
            // This runs once per changed cell on the write hot path, where
            // the two divisions below would dominate.
            return 0;
        }
        let within = cell % CELLS_PER_CHUNK;
        let per_group = CELLS_PER_CHUNK.div_ceil(u32::from(groups));
        ((within / per_group) as u8).min(groups - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_geometry() {
        let g = DimmGeometry::new(8, 1024);
        assert_eq!(g.chips(), 8);
        assert_eq!(g.cells_per_line(), 1024);
        assert_eq!(g.cells_per_chip(), 128);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_cells_panic() {
        let _ = DimmGeometry::new(8, 1001);
    }

    #[test]
    fn reset_groups_are_contiguous_thirds() {
        let g = DimmGeometry::new(8, 1024);
        let mut counts = [0u32; 3];
        for cell in 0..CELLS_PER_CHUNK {
            counts[g.reset_group_of(cell, 3) as usize] += 1;
        }
        // 256 cells in groups of ceil(256/3)=86: 86, 86, 84.
        assert_eq!(counts, [86, 86, 84]);
    }

    #[test]
    fn one_group_means_all_zero() {
        let g = DimmGeometry::new(8, 1024);
        for cell in (0..1024).step_by(17) {
            assert_eq!(g.reset_group_of(cell, 1), 0);
        }
    }

    #[test]
    fn groups_repeat_per_chunk() {
        let g = DimmGeometry::new(8, 1024);
        for cell in 0..CELLS_PER_CHUNK {
            assert_eq!(
                g.reset_group_of(cell, 3),
                g.reset_group_of(cell + CELLS_PER_CHUNK, 3)
            );
        }
    }

    #[test]
    fn four_groups_cover_all() {
        let g = DimmGeometry::new(8, 1024);
        for cell in 0..1024 {
            assert!(g.reset_group_of(cell, 4) < 4);
        }
    }
}
