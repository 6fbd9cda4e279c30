//! Property-based tests: the set-associative cache against a brute-force
//! reference model.

use proptest::prelude::*;

use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;

const LINE: u64 = 64;

/// Reference model: a plain list of (line, dirty, last_use) with the same
/// policy and counters, checked against the real cache op by op. Every
/// access ticks the clock and the LRU victim is the minimum `last_use`.
struct RefCache {
    sets: u64,
    ways: usize,
    entries: Vec<(u64, bool, u64)>, // (line, dirty, last_use)
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        RefCache {
            sets,
            ways,
            entries: Vec::new(),
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        self.entries.iter().position(|&(l, _, _)| l == addr / LINE)
    }

    /// Returns (hit, victim) like the real cache.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        self.clock += 1;
        if let Some(i) = self.find(addr) {
            self.entries[i].1 |= write;
            self.entries[i].2 = self.clock;
            self.stats.record_hit();
            return (true, None);
        }
        self.stats.record_miss();
        let line = addr / LINE;
        let set = line % self.sets;
        let in_set: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (l, _, _))| l % self.sets == set)
            .map(|(i, _)| i)
            .collect();
        let victim = if in_set.len() >= self.ways {
            let &lru = in_set
                .iter()
                .min_by_key(|&&i| self.entries[i].2)
                .expect("nonempty");
            let (l, d, _) = self.entries.swap_remove(lru);
            self.stats.record_eviction(d);
            Some((l * LINE, d))
        } else {
            None
        };
        self.entries.push((line, write, self.clock));
        (false, victim)
    }

    fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        let Some(i) = self.find(addr) else {
            return false;
        };
        self.entries[i].1 = true;
        true
    }

    fn invalidate(&mut self, addr: u64) -> Option<(u64, bool)> {
        let (l, d, _) = self.entries.swap_remove(self.find(addr)?);
        Some((l * LINE, d))
    }
}

/// One cache operation on a byte address.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    Probe(u64),
    MarkDirty(u64),
    Invalidate(u64),
}

/// Ops on `lines` distinct lines at any offset within a line; five in
/// eight are accesses, so sets fill and evict between invalidations.
fn ops(lines: u64) -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..8, 0..lines, 0..LINE, any::<bool>()).prop_map(|(kind, line, off, write)| {
        let addr = line * LINE + off;
        match kind {
            0 => Op::Probe(addr),
            1 => Op::MarkDirty(addr),
            2 => Op::Invalidate(addr),
            _ => Op::Access(addr, write),
        }
    });
    prop::collection::vec(op, 1..400)
}

/// Associativity 1..=16 (a 16-way set spans two host cache lines), a set
/// count that need not be a power of two, and ops over twice as many
/// lines as the cache holds.
fn geometry_and_ops() -> impl Strategy<Value = (usize, u64, Vec<Op>)> {
    let sets = prop_oneof![Just(3u64), Just(6u64), Just(8u64)];
    (1usize..=16, sets)
        .prop_flat_map(|(ways, sets)| (Just(ways), Just(sets), ops(2 * sets * ways as u64)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache agrees with the reference model on every op's result,
    /// and after every op on residency, occupancy and all four counters.
    #[test]
    fn matches_reference_model(case in geometry_and_ops()) {
        let (ways, sets, ops) = case;
        let mut real = SetAssocCache::new(sets * ways as u64 * LINE, LINE, ways).expect("cache");
        prop_assert_eq!(real.sets(), sets);
        let mut reference = RefCache::new(sets, ways);
        for op in ops {
            let addr = match op {
                Op::Access(addr, write) => {
                    let r = real.access(addr, write);
                    let (hit, victim) = reference.access(addr, write);
                    prop_assert_eq!(r.hit, hit, "hit mismatch at {:?}", op);
                    let rv = r.victim.map(|v| (v.addr, v.dirty));
                    prop_assert_eq!(rv, victim, "victim mismatch at {:?}", op);
                    addr
                }
                Op::Probe(addr) => addr,
                Op::MarkDirty(addr) => {
                    prop_assert_eq!(real.mark_dirty(addr), reference.mark_dirty(addr), "{:?}", op);
                    addr
                }
                Op::Invalidate(addr) => {
                    let rv = real.invalidate(addr).map(|v| (v.addr, v.dirty));
                    prop_assert_eq!(rv, reference.invalidate(addr), "{:?}", op);
                    addr
                }
            };
            prop_assert_eq!(real.probe(addr), reference.probe(addr), "probe after {:?}", op);
            prop_assert_eq!(real.resident_lines(), reference.entries.len(), "after {:?}", op);
            prop_assert_eq!(real.stats(), &reference.stats, "stats after {:?}", op);
        }
    }

    /// Occupancy never exceeds capacity and probe agrees with access
    /// history.
    #[test]
    fn occupancy_bounded(
        ops in prop::collection::vec(0u64..100_000, 1..500),
    ) {
        let mut c = SetAssocCache::new(4096, 64, 4).expect("cache");
        for addr in &ops {
            let _ = c.access(*addr, false);
            prop_assert!(c.resident_lines() <= 64);
        }
        // The most recent access is always resident.
        let last = *ops.last().expect("nonempty");
        prop_assert!(c.probe(last));
    }
}
