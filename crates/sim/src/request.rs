//! Memory-controller request records and multi-round write splitting.

use fpb_core::{AdmitMemo, PowerManager, WriteId};
use fpb_pcm::{ChangeSet, LineWrite};
use fpb_types::{BankId, Cycles, LineAddr};

/// A queued demand read (an LLC miss fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTask {
    /// Core blocked on this read.
    pub core: usize,
    /// Target line.
    pub line: LineAddr,
    /// Target bank.
    pub bank: BankId,
    /// Cycle the request entered the read queue.
    pub arrival: Cycles,
}

/// A queued line write (a dirty LLC eviction), possibly split into
/// multiple sequential *rounds* (§3.2): when a single write's RESET power
/// demand exceeds what the DIMM or a chip can ever supply, the line is
/// written in `k` rounds, each changing a balanced subset of the cells.
///
/// # Examples
///
/// ```
/// use fpb_pcm::{CellMapping, ChangeSet, MlcLevel};
/// use fpb_sim::request::split_rounds;
///
/// // 1000 changed cells against a 560-token budget need 2 rounds.
/// let cs: ChangeSet = (0..1000u32).map(|c| (c, MlcLevel::L00)).collect();
/// let rounds = split_rounds(&cs, Some(560), None, CellMapping::Bim, 8);
/// assert_eq!(rounds.len(), 2);
/// assert_eq!(rounds.iter().map(ChangeSet::len).sum::<usize>(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct WriteTask {
    /// Identifier (unique per round; round `r` of task `t` gets its own id
    /// when admitted).
    pub id: WriteId,
    /// Target line.
    pub line: LineAddr,
    /// Target bank.
    pub bank: BankId,
    /// Cycle the request entered the write queue.
    pub arrival: Cycles,
    /// Remaining rounds, front first. Always nonempty until completion.
    pub rounds: Vec<LineWrite>,
    /// Index of the round currently being (or next to be) written.
    pub current_round: usize,
    /// True once the bridge chip's read-before-write comparison has been
    /// charged (IPM policies pay one array read per line write).
    pub pre_read_done: bool,
    /// When the current round was admitted (drives the worst-case hold of
    /// the feedback-less-controller model).
    pub round_started_at: Cycles,
    /// Verify-failure retries issued for the current round (reset when a
    /// round passes verify).
    pub retries: u8,
    /// Iterations spent on the current round including all retries (the
    /// watchdog's trip signal; reset when a round closes).
    pub iterations_spent: u32,
    /// True once the watchdog force-closed the current round — its final
    /// verify is skipped so the bank is guaranteed to free up.
    pub watchdog_tripped: bool,
    /// The ledger epoch of this task's last refused admission (see
    /// [`PowerManager::try_admit_memoized`]). Empty for a new task; it
    /// cannot go stale, because the task's rounds only change after an
    /// admission, which moves the epoch and clears the memo.
    pub admit_memo: AdmitMemo,
}

impl WriteTask {
    /// The round currently being written.
    ///
    /// # Panics
    ///
    /// Panics if all rounds are complete.
    pub fn round(&self) -> &LineWrite {
        &self.rounds[self.current_round]
    }

    /// Mutable access to the current round.
    ///
    /// # Panics
    ///
    /// Panics if all rounds are complete.
    pub fn round_mut(&mut self) -> &mut LineWrite {
        &mut self.rounds[self.current_round]
    }

    /// Tries to admit the current round, skipping the ledger when the
    /// answer is already known to be a refusal
    /// ([`PowerManager::try_admit_memoized`]).
    pub fn try_admit(&mut self, power: &mut PowerManager) -> bool {
        power.try_admit_memoized(
            self.id,
            &mut self.rounds[self.current_round],
            &mut self.admit_memo,
        )
    }

    /// Advances to the next round. Returns `false` when no rounds remain
    /// (the task is finished).
    pub fn next_round(&mut self) -> bool {
        self.current_round += 1;
        self.current_round < self.rounds.len()
    }

    /// Total cells this task changes across all rounds.
    pub fn total_changed(&self) -> u32 {
        self.rounds.iter().map(LineWrite::total_changed).sum()
    }
}

/// Splits a change set into the minimum number of rounds such that each
/// round's whole-line demand fits `cap_total` tokens and each round's
/// per-chip demand (under `mapping`) fits `cap_chip` tokens — the
/// guarantee the engine relies on for forward progress: every round must
/// be admissible against an empty token ledger.
///
/// Cells are dealt round-robin *per chip*, so each round inherits the
/// original per-chip balance; the split count grows until both caps hold.
/// With no caps (the Ideal scheme) the original set is returned as a
/// single round.
///
/// This is the one-shot convenience wrapper; the engine keeps a
/// [`RoundSplitter`] whose grouping buffers persist across writes.
pub fn split_rounds(
    changes: &ChangeSet,
    cap_total: Option<u64>,
    cap_chip: Option<u64>,
    mapping: fpb_pcm::CellMapping,
    chips: u8,
) -> Vec<ChangeSet> {
    RoundSplitter::new().split(changes, cap_total, cap_chip, mapping, chips)
}

/// Reusable working buffers for [`split_rounds`]. The engine splits every
/// dirty eviction into rounds, so the per-chip grouping and dealing
/// scratch would otherwise be reallocated on each write; only the returned
/// [`ChangeSet`] rounds (which the caller keeps) are freshly allocated.
#[derive(Debug, Clone, Default)]
pub struct RoundSplitter {
    /// Cells grouped by owning chip (outer len = chip count).
    by_chip: Vec<Vec<(u32, fpb_pcm::MlcLevel)>>,
    /// Dealt rounds under the current trial split count `k`.
    rounds: Vec<Vec<(u32, fpb_pcm::MlcLevel)>>,
}

impl RoundSplitter {
    /// An empty splitter; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`split_rounds`].
    pub fn split(
        &mut self,
        changes: &ChangeSet,
        cap_total: Option<u64>,
        cap_chip: Option<u64>,
        mapping: fpb_pcm::CellMapping,
        chips: u8,
    ) -> Vec<ChangeSet> {
        match self.split_in(changes, cap_total, cap_chip, mapping, chips) {
            None => vec![changes.clone()],
            Some(k) => (0..k)
                .map(|i| ChangeSet::from_cells(self.round(i).to_vec()))
                .collect(),
        }
    }

    /// Allocation-free core of [`RoundSplitter::split`]: splits into the
    /// splitter's internal buffers and returns the round count, with each
    /// round readable through [`RoundSplitter::round`] until the next
    /// split. Returns `None` when no splitting applies (no caps, or an
    /// empty change set) — the caller then uses `changes` itself as the
    /// single round, preserving its original cell order.
    ///
    /// # Panics
    ///
    /// Panics if a provided cap is zero.
    pub fn split_in(
        &mut self,
        changes: &ChangeSet,
        cap_total: Option<u64>,
        cap_chip: Option<u64>,
        mapping: fpb_pcm::CellMapping,
        chips: u8,
    ) -> Option<usize> {
        let n = changes.len() as u64;
        if n == 0 || (cap_total.is_none() && cap_chip.is_none()) {
            return None;
        }
        if let Some(cap) = cap_total {
            assert!(cap > 0, "total token cap must be nonzero");
        }
        if let Some(cap) = cap_chip {
            assert!(cap > 0, "chip token cap must be nonzero");
        }

        // Group cells by chip so dealing distributes each chip's cells
        // evenly. Inner vectors are cleared, not dropped, between writes.
        self.by_chip.iter_mut().for_each(Vec::clear);
        self.by_chip.resize(chips as usize, Vec::new());
        for &(cell, level) in changes.iter() {
            self.by_chip[mapping.chip_of(cell, chips).index()].push((cell, level));
        }
        let max_chip = self.by_chip.iter().map(Vec::len).max().unwrap_or(0) as u64;

        let mut k = 1u64;
        if let Some(cap) = cap_total {
            k = k.max(n.div_ceil(cap));
        }
        if let Some(cap) = cap_chip {
            k = k.max(max_chip.div_ceil(cap));
        }
        loop {
            let kk = k as usize;
            self.deal(kk);
            // The chip cap never needs rechecking: dealing hands each round
            // at most `ceil(chip_cells / k)` cells of any one chip, and `k`
            // started at `ceil(max_chip / cap_chip)` or higher. Only the
            // per-round *total* can still overflow — a round's total is the
            // sum of per-chip ceilings, which can exceed `ceil(n / k)`.
            let fits =
                cap_total.is_none_or(|cap| self.rounds[..kk].iter().all(|r| r.len() as u64 <= cap));
            if fits {
                return Some(kk);
            }
            k += 1;
            assert!(k <= n, "split cannot exceed one cell per round");
        }
    }

    /// Round `i` of the most recent [`RoundSplitter::split_in`] call.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for that split.
    pub fn round(&self, i: usize) -> &[(u32, fpb_pcm::MlcLevel)] {
        &self.rounds[i]
    }

    /// Deals the grouped cells round-robin into the first `k` round
    /// buffers; buffers beyond `k` are kept (cleared) for reuse.
    fn deal(&mut self, k: usize) {
        if self.rounds.len() < k {
            self.rounds.resize(k, Vec::new());
        }
        self.rounds.iter_mut().for_each(Vec::clear);
        for chip_cells in &self.by_chip {
            for (j, &cl) in chip_cells.iter().enumerate() {
                self.rounds[j % k].push(cl);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use fpb_pcm::MlcLevel;

    fn cs(n: u32) -> ChangeSet {
        (0..n).map(|c| (c, MlcLevel::L01)).collect()
    }

    use fpb_pcm::CellMapping;

    #[test]
    fn no_caps_no_split() {
        let c = cs(2000);
        let rounds = split_rounds(&c, None, None, CellMapping::Bim, 8);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0], c);
    }

    #[test]
    fn total_cap_splits_evenly() {
        let c = cs(1024);
        let rounds = split_rounds(&c, Some(560), None, CellMapping::Bim, 8);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].len(), 512);
        assert_eq!(rounds[1].len(), 512);
    }

    #[test]
    fn fits_exactly_no_split() {
        let c = cs(560);
        assert_eq!(
            split_rounds(&c, Some(560), None, CellMapping::Bim, 8).len(),
            1
        );
        let c = cs(561);
        assert_eq!(
            split_rounds(&c, Some(560), None, CellMapping::Bim, 8).len(),
            2
        );
    }

    #[test]
    fn chip_cap_drives_split() {
        // 120 cells all on chip 0 under VIM (cell % 8 == 0) with a
        // 66-token chip cap -> 2 rounds even though the total fits the
        // DIMM budget.
        let c: ChangeSet = (0..120u32).map(|i| (i * 8, MlcLevel::L01)).collect();
        let rounds = split_rounds(&c, Some(560), Some(66), CellMapping::Vim, 8);
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            let per_chip = CellMapping::Vim.distribute(r.iter().map(|&(c, _)| c), 8);
            assert!(per_chip.iter().all(|&c| c <= 66), "{per_chip:?}");
        }
    }

    #[test]
    fn rounds_partition_cells() {
        let c = cs(777);
        let rounds = split_rounds(&c, Some(100), None, CellMapping::Naive, 8);
        assert_eq!(rounds.len(), 8);
        let mut all: Vec<u32> = rounds
            .iter()
            .flat_map(|r| r.iter().map(|&(c, _)| c))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..777).collect::<Vec<_>>());
        for r in &rounds {
            assert!(r.len() <= 100);
        }
    }

    #[test]
    fn every_round_respects_both_caps() {
        // Adversarial clumping: many cells on two chips.
        let c: ChangeSet = (0..200u32)
            .map(|i| (if i % 2 == 0 { i * 8 } else { i * 8 + 1 }, MlcLevel::L10))
            .collect();
        let rounds = split_rounds(&c, Some(90), Some(30), CellMapping::Vim, 8);
        for r in &rounds {
            assert!(r.len() <= 90);
            let per_chip = CellMapping::Vim.distribute(r.iter().map(|&(c, _)| c), 8);
            assert!(per_chip.iter().all(|&n| n <= 30), "{per_chip:?}");
        }
        assert_eq!(rounds.iter().map(ChangeSet::len).sum::<usize>(), 200);
    }

    #[test]
    fn empty_changes_single_round() {
        let rounds = split_rounds(&ChangeSet::empty(), Some(560), None, CellMapping::Bim, 8);
        assert_eq!(rounds.len(), 1);
        assert!(rounds[0].is_empty());
    }

    #[test]
    fn split_in_matches_owned_split() {
        let c = cs(1024);
        let mut sp = RoundSplitter::new();
        let k = sp
            .split_in(&c, Some(560), Some(80), CellMapping::Bim, 8)
            .unwrap();
        let owned = sp.split(&c, Some(560), Some(80), CellMapping::Bim, 8);
        assert_eq!(k, owned.len());
        for (i, r) in owned.iter().enumerate() {
            assert_eq!(sp.round(i), r.cells(), "round {i}");
        }
        // No caps: the caller keeps the original set, no buffers touched.
        assert!(sp.split_in(&c, None, None, CellMapping::Bim, 8).is_none());
        assert!(sp
            .split_in(&ChangeSet::empty(), Some(10), None, CellMapping::Bim, 8)
            .is_none());
    }
}
