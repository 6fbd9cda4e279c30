//! A generic set-associative, write-back, write-allocate cache.

use crate::stats::CacheStats;
use fpb_types::ConfigError;

/// A line evicted to make room for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Byte address of the first byte of the evicted line.
    pub addr: u64,
    /// True if the line was modified and must be written back.
    pub dirty: bool,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True if the line was already present.
    pub hit: bool,
    /// Victim evicted by the allocation this access performed (misses
    /// allocate; hits never evict).
    pub victim: Option<Victim>,
}

/// Way word flag: the way holds a line.
const VALID: u64 = 1;
/// Way word flag: the line was modified and must be written back.
const DIRTY: u64 = 2;
/// Smallest line size the way word can hold: `line << 2` must not
/// overflow, so a line number may use at most 62 bits.
const MIN_LINE_BYTES: u64 = 4;

/// A set-associative cache with true-LRU replacement, write-back and
/// write-allocate policies.
///
/// Addresses are byte addresses; the cache maps them to lines internally.
///
/// Each way is one `u64` word: the line number shifted left by two, plus
/// a valid bit and a dirty bit (an empty way is `0`). Each set keeps its
/// valid ways as a prefix, most recently used first, so the LRU victim is
/// always the set's last way.
///
/// # Examples
///
/// ```
/// use fpb_cache::SetAssocCache;
///
/// // 1 KiB cache, 64 B lines, 4-way: 4 sets.
/// let mut c = SetAssocCache::new(1024, 64, 4).unwrap();
/// assert!(!c.access(0, false).hit);
/// assert!(c.access(32, false).hit);       // same line
/// assert!(!c.access(4096, true).hit);     // different set? no: set 0 too
/// assert_eq!(c.stats().misses(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    line_shift: u32,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two: the set index is then a
    /// mask instead of a 64-bit `%`.
    set_mask: Option<u64>,
    ways: usize,
    /// `sets × ways` way words, set by set.
    words: Vec<u64>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with the given line size and
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the line size is not a power of two of
    /// at least 4 bytes, the capacity is not a multiple of
    /// `line_bytes × ways`, or any parameter is zero.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Result<Self, ConfigError> {
        if line_bytes < MIN_LINE_BYTES || !line_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "cache.line_bytes",
                "must be a power of two >= 4",
            ));
        }
        if ways == 0 {
            return Err(ConfigError::new("cache.ways", "must be nonzero"));
        }
        if capacity_bytes == 0 || !capacity_bytes.is_multiple_of(line_bytes * ways as u64) {
            return Err(ConfigError::new(
                "cache.capacity_bytes",
                "must be a nonzero multiple of line_bytes * ways",
            ));
        }
        let sets = capacity_bytes / (line_bytes * ways as u64);
        Ok(SetAssocCache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            words: vec![0; (sets as usize) * ways],
            stats: CacheStats::new(),
        })
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The valid way word `byte_addr`'s line has when clean.
    fn key(&self, byte_addr: u64) -> u64 {
        (byte_addr >> self.line_shift) << 2 | VALID
    }

    /// Indices in `words` of the set `key`'s line maps to.
    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let line = key >> 2;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        } as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Position of `key`'s line in `set`, if resident. Empty ways are `0`
    /// and `key` has its valid bit set, so they never match.
    fn find(set: &[u64], key: u64) -> Option<usize> {
        set.iter().position(|&w| w & !DIRTY == key)
    }

    fn victim(&self, word: u64) -> Victim {
        Victim {
            addr: (word >> 2) << self.line_shift,
            dirty: word & DIRTY != 0,
        }
    }

    /// Accesses `byte_addr`; `write` marks the line dirty. Misses allocate
    /// (write-allocate) and may evict an LRU victim.
    pub fn access(&mut self, byte_addr: u64, write: bool) -> AccessResult {
        let key = self.key(byte_addr);
        let dirty = if write { DIRTY } else { 0 };
        let range = self.set_range(key);
        let set = &mut self.words[range];
        if let Some(i) = Self::find(set, key) {
            // Hit: move the way to the front.
            let word = set[i] | dirty;
            set.copy_within(..i, 1);
            set[0] = word;
            self.stats.record_hit();
            return AccessResult {
                hit: true,
                victim: None,
            };
        }
        // Miss: the new line goes in front; the way pushed off the end is
        // the LRU victim if it held a line.
        let last = set.len() - 1;
        let pushed = set[last];
        set.copy_within(..last, 1);
        set[0] = key | dirty;
        self.stats.record_miss();
        let victim = (pushed & VALID != 0).then(|| self.victim(pushed));
        if let Some(v) = victim {
            self.stats.record_eviction(v.dirty);
        }
        AccessResult { hit: false, victim }
    }

    /// True if the line containing `byte_addr` is present (no LRU update).
    pub fn probe(&self, byte_addr: u64) -> bool {
        let key = self.key(byte_addr);
        Self::find(&self.words[self.set_range(key)], key).is_some()
    }

    /// Marks a resident line dirty without an access (used when a lower
    /// level pushes a write-back into this cache). Returns false if the
    /// line is absent.
    pub fn mark_dirty(&mut self, byte_addr: u64) -> bool {
        let key = self.key(byte_addr);
        let range = self.set_range(key);
        let set = &mut self.words[range];
        match Self::find(set, key) {
            Some(i) => {
                set[i] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Invalidates the line containing `byte_addr`, returning its victim
    /// record if it was present.
    pub fn invalidate(&mut self, byte_addr: u64) -> Option<Victim> {
        let key = self.key(byte_addr);
        let range = self.set_range(key);
        let set = &mut self.words[range];
        let i = Self::find(set, key)?;
        let word = set[i];
        let last = set.len() - 1;
        set.copy_within(i + 1.., i);
        set[last] = 0;
        Some(self.victim(word))
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.words.iter().filter(|&&w| w & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets, 2 ways, 64 B lines = 256 B.
        SetAssocCache::new(256, 64, 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(SetAssocCache::new(256, 60, 2).is_err()); // non-pow2 line
        assert!(SetAssocCache::new(100, 64, 2).is_err()); // not multiple
        assert!(SetAssocCache::new(256, 64, 0).is_err());
        assert!(SetAssocCache::new(0, 64, 2).is_err());
        // A line number must leave the way word's two flag bits free.
        for line in [1, 2] {
            let e = SetAssocCache::new(64, line, 2).unwrap_err();
            assert_eq!(e.field(), "cache.line_bytes");
        }
        assert!(SetAssocCache::new(64, 4, 2).is_ok());
        let c = SetAssocCache::new(1 << 20, 64, 4).unwrap();
        assert_eq!(c.sets(), (1 << 20) / (64 * 4));
    }

    #[test]
    fn a_way_takes_eight_bytes() {
        // 32 MiB of 256 B lines, 8-way: 131,072 ways in 1 MiB, and an
        // 8-way set is 64 bytes, one host cache line's worth.
        let c = SetAssocCache::new(32 << 20, 256, 8).unwrap();
        let ways = c.sets() as usize * c.ways();
        assert_eq!(ways, 131_072);
        assert_eq!(std::mem::size_of_val(c.words.as_slice()), ways * 8);
    }

    #[test]
    fn set_index_is_the_line_number_mod_the_set_count() {
        // 24 MiB of 256 B lines, 8-way: 12,288 sets, indexed by `%`; the
        // default 32 MiB LLC's 16,384 sets are indexed by mask.
        for (mib, sets, masked) in [(24, 12_288, false), (32, 16_384, true)] {
            let c = SetAssocCache::new(mib << 20, 256, 8).unwrap();
            assert_eq!((c.sets(), c.set_mask.is_some()), (sets, masked));
            for line in (0..40_000u64).chain([u64::MAX >> 8, (1 << 40) + 12_345]) {
                let set = (line % sets) as usize;
                assert_eq!(c.set_range(c.key(line << 8)), set * 8..set * 8 + 8);
            }
        }
    }

    #[test]
    fn top_line_numbers_round_trip() {
        // At the smallest line size the line number uses all 62 tag bits.
        let mut c = SetAssocCache::new(4, 4, 1).unwrap();
        let top = !3u64;
        c.access(top, true);
        assert!(c.probe(u64::MAX));
        let v = c.access(0, false).victim.unwrap();
        assert_eq!(
            v,
            Victim {
                addr: top,
                dirty: true
            }
        );
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(63, false).hit); // same line
        assert!(!c.access(64, false).hit); // next line, set 1
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0, 2, 4, ... (line % 2 == 0).
        c.access(0, false); // line 0
        c.access(2 * 64, false); // line 2 — set 0 now full
        c.access(0, false); // touch line 0 (line 2 is now LRU)
        let r = c.access(4 * 64, false); // line 4 evicts line 2
        let v = r.victim.unwrap();
        assert_eq!(v.addr, 2 * 64);
        assert!(!v.dirty);
        assert!(c.probe(0));
        assert!(!c.probe(2 * 64));
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = small();
        c.access(0, true); // dirty line 0
        c.access(2 * 64, false); // clean line 2
        let r = c.access(4 * 64, false); // evicts line 0 (LRU)
        assert_eq!(
            r.victim,
            Some(Victim {
                addr: 0,
                dirty: true
            })
        );
        let r = c.access(6 * 64, false); // evicts line 2, clean
        assert!(!r.victim.unwrap().dirty);
        assert_eq!(c.stats().dirty_evictions(), 1);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // dirty it via a write hit
        c.access(2 * 64, false);
        c.access(4 * 64, false); // evict line 0
        assert_eq!(c.stats().dirty_evictions(), 1);
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = small();
        c.access(0, false);
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(64)); // absent
        let v = c.invalidate(0).unwrap();
        assert!(v.dirty);
        assert!(c.invalidate(0).is_none());
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        // Fill set 0 beyond capacity; set 1 lines must stay resident.
        c.access(64, false); // set 1
        for i in 0..10u64 {
            c.access(i * 2 * 64, false); // all set 0
        }
        assert!(c.probe(64));
    }

    #[test]
    fn working_set_within_capacity_never_misses_twice() {
        let mut c = SetAssocCache::new(8192, 64, 4).unwrap();
        let lines = 8192 / 64;
        for i in 0..lines {
            c.access(i * 64, false);
        }
        let misses_before = c.stats().misses();
        for round in 0..5 {
            for i in 0..lines {
                assert!(c.access(i * 64, false).hit, "round {round} line {i}");
            }
        }
        assert_eq!(c.stats().misses(), misses_before);
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = small();
        for i in 0..100 {
            c.access(i * 64, i % 3 == 0);
        }
        assert!(c.resident_lines() <= 4);
    }
}
