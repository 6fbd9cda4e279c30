//! 2-bit MLC cell levels.

use std::fmt;

/// One of the four resistance levels of a 2-bit MLC PCM cell.
///
/// `L00` is the fully amorphous (RESET) state and `L11` the fully
/// crystalline (SET) state; `L01`/`L10` are intermediate levels reached with
/// program-and-verify. Programming cost differs per level (Table 1): `00`
/// is done after the RESET pulse, `11` needs one SET pulse, and the
/// intermediate levels need many verify-bounded SET pulses.
///
/// # Examples
///
/// ```
/// use fpb_pcm::MlcLevel;
///
/// assert_eq!(MlcLevel::from_bits(0b01), MlcLevel::L01);
/// assert_eq!(MlcLevel::L10.bits(), 0b10);
/// assert!(MlcLevel::L01.is_intermediate());
/// assert!(!MlcLevel::L00.is_intermediate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MlcLevel {
    /// Fully RESET (amorphous, highest resistance) — bits `00`.
    L00,
    /// Intermediate level — bits `01` (hardest level: ~8 iterations mean).
    L01,
    /// Intermediate level — bits `10` (~6 iterations mean).
    L10,
    /// Fully SET (crystalline, lowest resistance) — bits `11`.
    L11,
}

impl MlcLevel {
    /// All four levels, in bit order.
    pub const ALL: [MlcLevel; 4] = [MlcLevel::L00, MlcLevel::L01, MlcLevel::L10, MlcLevel::L11];

    /// Level encoding a 2-bit value (only the low 2 bits are used).
    pub const fn from_bits(bits: u8) -> MlcLevel {
        match bits & 0b11 {
            0b00 => MlcLevel::L00,
            0b01 => MlcLevel::L01,
            0b10 => MlcLevel::L10,
            _ => MlcLevel::L11,
        }
    }

    /// The 2-bit value this level stores.
    pub const fn bits(self) -> u8 {
        match self {
            MlcLevel::L00 => 0b00,
            MlcLevel::L01 => 0b01,
            MlcLevel::L10 => 0b10,
            MlcLevel::L11 => 0b11,
        }
    }

    /// True for the partially-crystalline levels that need iterative
    /// program-and-verify (`01` and `10`).
    pub const fn is_intermediate(self) -> bool {
        matches!(self, MlcLevel::L01 | MlcLevel::L10)
    }
}

impl fmt::Display for MlcLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02b}", self.bits())
    }
}

impl Default for MlcLevel {
    /// Defaults to the fully-RESET state, matching a freshly-initialized
    /// array.
    fn default() -> Self {
        MlcLevel::L00
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        for lvl in MlcLevel::ALL {
            assert_eq!(MlcLevel::from_bits(lvl.bits()), lvl);
        }
        // High bits are ignored.
        assert_eq!(MlcLevel::from_bits(0b1110), MlcLevel::L10);
    }

    #[test]
    fn intermediate_classification() {
        assert!(MlcLevel::L01.is_intermediate());
        assert!(MlcLevel::L10.is_intermediate());
        assert!(!MlcLevel::L00.is_intermediate());
        assert!(!MlcLevel::L11.is_intermediate());
    }

    #[test]
    fn display_is_two_bits() {
        assert_eq!(MlcLevel::L00.to_string(), "00");
        assert_eq!(MlcLevel::L11.to_string(), "11");
        assert_eq!(MlcLevel::L01.to_string(), "01");
    }

    #[test]
    fn default_is_reset_state() {
        assert_eq!(MlcLevel::default(), MlcLevel::L00);
    }
}
