//! Identity and address newtypes.

use std::fmt;

/// A physical memory line address, in units of the PCM line size.
///
/// The simulator never deals in byte addresses below the cache hierarchy:
/// once a request reaches the memory controller it is a whole-line read or
/// write, so a `LineAddr` of `n` denotes the `n`-th line of main memory.
///
/// # Examples
///
/// ```
/// use fpb_types::LineAddr;
///
/// let a = LineAddr::new(42);
/// assert_eq!(a.get(), 42);
/// // With 8 banks, line 42 lives in bank 2 under modulo interleaving.
/// assert_eq!(a.bank_of(8).get(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address.
    pub const fn new(n: u64) -> Self {
        LineAddr(n)
    }

    /// Returns the raw line index.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Bank this line maps to under modulo interleaving across `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn bank_of(self, banks: u8) -> BankId {
        assert!(banks > 0, "bank count must be nonzero");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below `banks: u8`"
        )]
        let bank = (self.0 % u64::from(banks)) as u8;
        BankId(bank)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(n: u64) -> Self {
        LineAddr(n)
    }
}

macro_rules! small_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub(crate) u8);

        impl $name {
            /// Creates the id.
            pub const fn new(n: u8) -> Self {
                $name(n)
            }

            /// Returns the raw index.
            pub const fn get(self) -> u8 {
                self.0
            }

            /// Returns the raw index widened to `usize` for array indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }

        impl From<u8> for $name {
            fn from(n: u8) -> Self {
                $name(n)
            }
        }
    };
}

small_id! {
    /// One of the CMP's cores (8 in the baseline).
    ///
    /// ```
    /// use fpb_types::CoreId;
    /// assert_eq!(CoreId::new(3).index(), 3);
    /// ```
    CoreId
}

small_id! {
    /// One of the DIMM's logical banks (8 in the baseline, each striped
    /// across all chips).
    ///
    /// ```
    /// use fpb_types::BankId;
    /// assert_eq!(BankId::new(7).get(), 7);
    /// ```
    BankId
}

small_id! {
    /// One of the DIMM's PCM chips (8 in the baseline).
    ///
    /// ```
    /// use fpb_types::ChipId;
    /// assert_eq!(ChipId::new(0), ChipId::default());
    /// ```
    ChipId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_bank_mapping() {
        for n in 0..64u64 {
            assert_eq!(LineAddr::new(n).bank_of(8).get() as u64, n % 8);
        }
    }

    #[test]
    #[should_panic(expected = "bank count must be nonzero")]
    fn zero_banks_panics() {
        let _ = LineAddr::new(1).bank_of(0);
    }

    #[test]
    fn ids_roundtrip() {
        assert_eq!(CoreId::from(5).get(), 5);
        assert_eq!(BankId::new(2).index(), 2);
        assert_eq!(ChipId::new(9).get(), 9);
    }

    #[test]
    fn display_non_empty() {
        assert_eq!(format!("{}", ChipId::new(1)), "ChipId1");
        assert_eq!(format!("{}", LineAddr::new(16)), "line:0x10");
    }
}
