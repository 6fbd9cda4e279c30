//! The state machine for one in-flight MLC line write.
//!
//! A line write proceeds in *iterations* (§2.1.1): one RESET pulse over all
//! changed cells (optionally split into several group-RESETs by Multi-RESET,
//! §3.2), then SET pulses in which every not-yet-converged cell
//! participates. [`LineWrite`] precomputes, at admission time, the per-chip
//! active-cell counts of every future iteration so that power policies can
//! query demand in O(1) per iteration.

use crate::cell::MlcLevel;
use crate::geometry::DimmGeometry;
use crate::mapping::CellMapping;
use crate::write_model::IterationSampler;
use fpb_types::SimRng;

/// The set of cells a write must actually change, with their target levels.
///
/// Produced by the differential-write comparison (read-before-write in the
/// bridge chip, §3.1): only cells whose stored level differs from the new
/// data are programmed.
///
/// # Examples
///
/// ```
/// use fpb_pcm::{ChangeSet, MlcLevel};
///
/// let cs = ChangeSet::from_cells(vec![(3, MlcLevel::L01), (64, MlcLevel::L11)]);
/// assert_eq!(cs.len(), 2);
/// let rotated = cs.rotated(10, 1024);
/// assert_eq!(rotated.iter().next().unwrap().0, 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChangeSet {
    cells: Vec<(u32, MlcLevel)>,
}

impl ChangeSet {
    /// Creates a change set from `(cell index, target level)` pairs.
    pub fn from_cells(cells: Vec<(u32, MlcLevel)>) -> Self {
        ChangeSet { cells }
    }

    /// An empty change set (a silent write: no cell differs).
    pub fn empty() -> Self {
        ChangeSet::default()
    }

    /// Number of changed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells change.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(cell index, target level)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(u32, MlcLevel)> {
        self.cells.iter()
    }

    /// The `(cell index, target level)` pairs as a slice.
    pub fn cells(&self) -> &[(u32, MlcLevel)] {
        &self.cells
    }

    /// Removes all cells, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Appends one `(cell index, target level)` pair.
    pub fn push(&mut self, cell: u32, level: MlcLevel) {
        self.cells.push((cell, level));
    }

    /// Shifts every cell by a wear-leveling rotation `offset` in place
    /// (cells wrap modulo `cells_per_line`), without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_line` is zero.
    pub fn rotate_in_place(&mut self, offset: u32, cells_per_line: u32) {
        assert!(cells_per_line > 0, "cells_per_line must be nonzero");
        for (c, _) in &mut self.cells {
            *c = (*c + offset) % cells_per_line;
        }
    }

    /// Returns the change set shifted by a wear-leveling rotation `offset`
    /// (cells wrap modulo `cells_per_line`).
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_line` is zero.
    #[must_use]
    pub fn rotated(&self, offset: u32, cells_per_line: u32) -> ChangeSet {
        let mut out = self.clone();
        out.rotate_in_place(offset, cells_per_line);
        out
    }
}

impl FromIterator<(u32, MlcLevel)> for ChangeSet {
    fn from_iter<I: IntoIterator<Item = (u32, MlcLevel)>>(iter: I) -> Self {
        ChangeSet {
            cells: iter.into_iter().collect(),
        }
    }
}

/// What kind of pulse the next (or a given) iteration applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterKind {
    /// A RESET pulse over group `group` of `of` groups (`of` = 1 for a
    /// normal single-RESET write).
    Reset {
        /// Zero-based group index.
        group: u8,
        /// Total number of RESET groups for this write.
        of: u8,
    },
    /// The `index`-th SET pulse (1-based).
    Set {
        /// 1-based SET iteration number.
        index: u32,
    },
}

impl IterKind {
    /// True for RESET iterations.
    pub fn is_reset(self) -> bool {
        matches!(self, IterKind::Reset { .. })
    }
}

/// Power demand of one write iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationDemand<'a> {
    /// Pulse kind.
    pub kind: IterKind,
    /// Total cells pulsed in this iteration.
    pub active_cells: u32,
    /// Cells pulsed per chip (length = chip count).
    pub per_chip: &'a [u32],
}

/// One in-flight MLC line write.
///
/// Construction samples each changed cell's total iteration count and
/// precomputes every iteration's per-chip demand. The simulator then calls
/// [`LineWrite::next_demand`] / [`LineWrite::advance`] once per iteration.
///
/// # Examples
///
/// ```
/// use fpb_pcm::{ChangeSet, CellMapping, DimmGeometry, IterationSampler, LineWrite, MlcLevel};
/// use fpb_types::{MlcWriteModel, SimRng};
///
/// let geom = DimmGeometry::new(8, 1024);
/// let sampler = IterationSampler::new(MlcWriteModel::default());
/// let mut rng = SimRng::seed_from(5);
/// let changes = ChangeSet::from_cells(vec![(0, MlcLevel::L11), (1, MlcLevel::L00)]);
/// let mut w = LineWrite::new(&changes, &geom, CellMapping::Bim, &sampler, &mut rng, 1);
///
/// // Iteration 1: RESET both cells.
/// let d = w.next_demand().unwrap();
/// assert!(d.kind.is_reset());
/// assert_eq!(d.active_cells, 2);
/// w.advance();
///
/// // Iteration 2: only the L11 cell needs its single SET pulse.
/// let d = w.next_demand().unwrap();
/// assert_eq!(d.active_cells, 1);
/// w.advance();
/// assert!(w.is_complete());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineWrite {
    chips: u8,
    reset_groups: u8,
    total_changed: u32,
    /// `(cell index, chip)` per changed cell, in change-set order, kept so
    /// Multi-RESET can re-split the RESET before the write starts.
    cell_chips: Vec<(u16, u8)>,
    /// `[group]` → total changed cells in that RESET group.
    reset_totals: Vec<u32>,
    /// `[group * chips + chip]` → changed cells of that group on that chip.
    reset_per_chip: Vec<u32>,
    /// `[j-1]` → cells active in SET iteration `j` (those with iters ≥ j+1).
    set_totals: Vec<u32>,
    /// `[(j-1) * chips + chip]` → active cells of SET iteration `j` on chip.
    set_per_chip: Vec<u32>,
    /// Completed iterations (RESET groups count individually).
    iters_done: u32,
    /// ECC-backed write-truncation threshold (None = WT disabled).
    truncate_at: Option<u32>,
    truncated: bool,
}

impl LineWrite {
    /// Builds the write state for `changes`, sampling per-cell iteration
    /// counts from `sampler`, distributing cells to chips with `mapping`,
    /// and splitting the RESET into `reset_groups` group-iterations
    /// (1 = normal write; Multi-RESET uses 2–4).
    ///
    /// # Panics
    ///
    /// Panics if `reset_groups` is zero.
    pub fn new(
        changes: &ChangeSet,
        geom: &DimmGeometry,
        mapping: CellMapping,
        sampler: &IterationSampler,
        rng: &mut SimRng,
        reset_groups: u8,
    ) -> Self {
        Self::from_cells(changes.cells(), geom, mapping, sampler, rng, reset_groups)
    }

    /// [`LineWrite::new`] over a raw cell slice, with freshly allocated
    /// backing storage. See [`WriteBufferPool::build`] for the pooled
    /// variant; both produce identical writes given the same RNG state.
    ///
    /// # Panics
    ///
    /// Panics if `reset_groups` is zero.
    pub fn from_cells(
        cells: &[(u32, MlcLevel)],
        geom: &DimmGeometry,
        mapping: CellMapping,
        sampler: &IterationSampler,
        rng: &mut SimRng,
        reset_groups: u8,
    ) -> Self {
        Self::build_with(
            WriteBuffers::default(),
            &mut Vec::new(),
            cells,
            geom,
            mapping,
            sampler,
            rng,
            reset_groups,
        )
    }

    /// Shared construction core: fills `bufs` (cleared first, so recycled
    /// storage is safe) with the per-iteration demand tables for `cells`.
    /// `sampled` is scratch for the list of cells whose count is sampled;
    /// what it holds on entry does not matter.
    ///
    /// Two passes draw `rng` exactly as one pass calling `sampler.sample`
    /// on every cell in order does (`build_reference`, in the tests, is
    /// that pass). A level with a fixed count draws nothing, so pass 1 maps
    /// every cell to its chip and RESET group, tallies the fixed-count
    /// cells and lists the others, and pass 2 samples the listed cells in
    /// cell order.
    #[allow(
        clippy::too_many_arguments,
        reason = "the six build inputs plus the two storages"
    )]
    fn build_with(
        bufs: WriteBuffers,
        sampled: &mut Vec<u32>,
        cells: &[(u32, MlcLevel)],
        geom: &DimmGeometry,
        mapping: CellMapping,
        sampler: &IterationSampler,
        rng: &mut SimRng,
        reset_groups: u8,
    ) -> Self {
        assert!(reset_groups > 0, "reset_groups must be nonzero");
        let chips = geom.chips();
        let n_chips = chips as usize;
        let m = reset_groups as usize;

        let WriteBuffers {
            mut cell_chips,
            mut reset_totals,
            mut reset_per_chip,
            mut set_totals,
            mut set_per_chip,
        } = bufs;
        cell_chips.clear();
        cell_chips.reserve(cells.len());
        reset_per_chip.clear();
        reset_per_chip.resize(m * n_chips, 0u32);

        // SET iteration j (1-based) pulses cells whose total iteration count
        // is at least j + 1 — i.e. a cell with `iters` total participates in
        // SET rows 0..iters-1. Rather than incrementing every row a cell
        // touches (O(cells × iters)), tally each cell only at its *last*
        // row and suffix-sum downward (O(cells + rows × chips)). The rows
        // cover the slowest count any level can take; a cell with fewer than
        // two iterations is in no SET row and goes to the spill row after
        // them, which is dropped.
        let spill = sampler.worst_case_iterations().saturating_sub(1) as usize;
        let row_of = |iters: u32| (iters as usize).wrapping_sub(2).min(spill);
        set_per_chip.clear();
        set_per_chip.resize((spill + 1) * n_chips, 0u32);

        // Per level, indexed by `MlcLevel as usize`: the row pass 1 tallies
        // (the spill row for a sampled level) and 1 if pass 2 samples it.
        let plan = MlcLevel::ALL.map(|level| match sampler.fixed_iterations(level) {
            Some(iters) => (row_of(iters), 0usize),
            None => (spill, 1usize),
        });
        // Listing is branch-free: every cell writes its index, and only a
        // sampled one advances the cursor past it.
        if sampled.len() < cells.len() {
            sampled.resize(cells.len(), 0);
        }
        let mut listed = 0usize;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a line's cells are numbered in u32 and its chips in u8; \
                      `cell_chips` keeps `cell` mod 2^16, and only `cell % CELLS_PER_CHUNK` is read back"
        )]
        for (i, &(cell, level)) in cells.iter().enumerate() {
            let chip = mapping.chip_of(cell, chips).index();
            let group = geom.reset_group_of(cell, reset_groups) as usize;
            reset_per_chip[group * n_chips + chip] += 1;
            let (row, is_sampled) = plan[level as usize];
            set_per_chip[row * n_chips + chip] += 1;
            cell_chips.push((cell as u16, chip as u8));
            sampled[listed] = i as u32;
            listed += is_sampled;
        }
        for &i in &sampled[..listed] {
            let i = i as usize;
            let row = row_of(sampler.sample(cells[i].1, rng));
            set_per_chip[row * n_chips + cell_chips[i].1 as usize] += 1;
        }

        // Drop the spill row and every row past the slowest cell's last.
        set_per_chip.truncate(spill * n_chips);
        row_sums_into(&set_per_chip, n_chips, &mut set_totals);
        let set_iters = set_totals.iter().rposition(|&t| t > 0).map_or(0, |r| r + 1);
        set_totals.truncate(set_iters);
        set_per_chip.truncate(set_iters * n_chips);
        for idx in (0..set_iters.saturating_sub(1)).rev() {
            set_totals[idx] += set_totals[idx + 1];
            for c in 0..n_chips {
                set_per_chip[idx * n_chips + c] += set_per_chip[(idx + 1) * n_chips + c];
            }
        }
        row_sums_into(&reset_per_chip, n_chips, &mut reset_totals);

        LineWrite {
            chips,
            reset_groups,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a line's cells are numbered in u32"
            )]
            total_changed: cells.len() as u32,
            cell_chips,
            reset_totals,
            reset_per_chip,
            set_totals,
            set_per_chip,
            iters_done: 0,
            truncate_at: None,
            truncated: false,
        }
    }

    /// Enables write truncation (§6.4.5, ref. 10 of the paper): once the number of cells
    /// still unconverged going into a SET iteration drops to `ecc_cells` or
    /// fewer, the write completes early and ECC covers the residue.
    #[must_use]
    pub fn with_truncation(mut self, ecc_cells: u32) -> Self {
        self.truncate_at = Some(ecc_cells);
        self
    }

    /// Total cells this write changes.
    pub fn total_changed(&self) -> u32 {
        self.total_changed
    }

    /// Number of RESET group-iterations (1 unless Multi-RESET split).
    pub fn reset_groups(&self) -> u8 {
        self.reset_groups
    }

    /// Changed cells in RESET group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn reset_group_cells(&self, g: u8) -> u32 {
        self.reset_totals[g as usize]
    }

    /// Total iterations this write takes if not truncated: all RESET groups
    /// plus the slowest cell's SET pulses.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "there are at most `worst_case_iterations(): u32` SET rows"
    )]
    pub fn total_iterations(&self) -> u32 {
        self.reset_groups as u32 + self.set_totals.len() as u32
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> u32 {
        self.iters_done
    }

    /// Fraction of iterations completed, in `[0, 1]` (used by write
    /// cancellation to decide whether restarting is worthwhile).
    pub fn progress(&self) -> f64 {
        if self.total_iterations() == 0 {
            1.0
        } else {
            self.iters_done as f64 / self.total_iterations() as f64
        }
    }

    /// True once every changed cell has converged (or the write truncated).
    pub fn is_complete(&self) -> bool {
        self.truncated || self.iters_done >= self.total_iterations()
    }

    /// True if write truncation ended this write early.
    pub fn was_truncated(&self) -> bool {
        self.truncated
    }

    /// Demand of the next iteration, or `None` if the write is complete.
    ///
    /// Iterations with zero active cells (e.g. an empty RESET group under
    /// Multi-RESET) still appear — the pulse slot is occupied even if no
    /// cell in this line uses it — so callers can rely on the iteration
    /// sequence being dense.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`g` is below `reset_groups: u8` and `j` below `iters_done: u32`"
    )]
    pub fn next_demand(&self) -> Option<IterationDemand<'_>> {
        if self.is_complete() {
            return None;
        }
        let i = self.iters_done;
        let n = self.chips as usize;
        if i < self.reset_groups as u32 {
            let g = i as usize;
            Some(IterationDemand {
                kind: IterKind::Reset {
                    group: g as u8,
                    of: self.reset_groups,
                },
                active_cells: self.reset_totals[g],
                per_chip: &self.reset_per_chip[g * n..(g + 1) * n],
            })
        } else {
            let j = (i - self.reset_groups as u32) as usize; // 0-based SET idx
            Some(IterationDemand {
                kind: IterKind::Set {
                    index: j as u32 + 1,
                },
                active_cells: self.set_totals[j],
                per_chip: &self.set_per_chip[j * n..(j + 1) * n],
            })
        }
    }

    /// Marks the current iteration finished and returns its kind, or
    /// `None` if the write is already complete (a completed write has no
    /// iteration to advance; the call is a no-op).
    ///
    /// Applies write truncation if enabled: after finishing an iteration,
    /// if the cells that would be pulsed next number at most the ECC
    /// threshold, the write completes.
    pub fn advance(&mut self) -> Option<IterKind> {
        let kind = self.next_demand()?.kind;
        self.iters_done += 1;
        if let Some(limit) = self.truncate_at {
            // Only truncate once all RESET groups have fired.
            if self.iters_done >= self.reset_groups as u32 && !self.is_complete() {
                if let Some(next) = self.next_demand() {
                    if next.active_cells <= limit {
                        self.truncated = true;
                    }
                }
            }
        }
        Some(kind)
    }

    /// Number of cells still unfinished after `iters` completed iterations
    /// (the quantity PCM chips report back for FPB-IPM's allocation rule,
    /// §3.1 — available to the policy one iteration in arrears).
    ///
    /// Before all RESET groups have fired, every changed cell is
    /// outstanding. After RESET group `m` and `j` SET iterations, exactly
    /// the cells needing more than `j + 1` total iterations remain.
    pub fn unfinished_after(&self, iters: u32) -> u32 {
        if iters < self.reset_groups as u32 {
            return self.total_changed;
        }
        let j = (iters - self.reset_groups as u32) as usize; // SET pulses done
                                                             // Cells remaining = those active in SET iteration j+1.
        self.set_totals.get(j).copied().unwrap_or(0)
    }

    /// Restarts the write from scratch (used by write cancellation). The
    /// sampled per-cell iteration counts are preserved, so a restarted
    /// write repeats the same power-demand profile.
    pub fn restart(&mut self) {
        self.iters_done = 0;
        self.truncated = false;
    }

    /// Total changed cells per chip (the whole-write per-chip demand used
    /// by Hay-style hold-for-the-duration budgeting).
    pub fn per_chip_changed(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.per_chip_changed_into(&mut out);
        out
    }

    /// [`LineWrite::per_chip_changed`] into a caller-owned buffer, for hot
    /// paths that re-budget writes every scheduling pass and must not
    /// allocate. The buffer is cleared and resized to the chip count.
    pub fn per_chip_changed_into(&self, out: &mut Vec<u32>) {
        let n = self.chips as usize;
        out.clear();
        out.resize(n, 0u32);
        for g in 0..self.reset_groups as usize {
            for (c, v) in out.iter_mut().zip(&self.reset_per_chip[g * n..(g + 1) * n]) {
                *c += v;
            }
        }
    }

    /// Per-chip counterpart of [`LineWrite::unfinished_after`]: how many of
    /// each chip's cells remain unfinished after `iters` completed
    /// iterations. Returns `None` before all RESET groups have fired (when
    /// the answer is simply "all changed cells", see
    /// [`LineWrite::per_chip_changed`]).
    pub fn per_chip_unfinished_after(&self, iters: u32) -> Option<&[u32]> {
        if iters < self.reset_groups as u32 {
            return None;
        }
        let j = (iters - self.reset_groups as u32) as usize;
        let n = self.chips as usize;
        if j < self.set_totals.len() {
            Some(&self.set_per_chip[j * n..(j + 1) * n])
        } else {
            Some(&[])
        }
    }

    /// Degrades this write to its SLC fallback form: the RESET pulse(s)
    /// still fire, but the multi-level program-and-verify SET schedule is
    /// dropped — the data is committed in single-bit form (to a spare SLC
    /// region or as the MSB-only encoding), which needs no iterative
    /// verification. Used by the controller's graceful-degradation path
    /// when retries are exhausted or the DIMM is in degraded mode.
    ///
    /// Safe at any point in the write's life: if the SET phase had already
    /// begun, the write completes at the end of its RESET phase.
    pub fn degrade_to_slc(&mut self) {
        self.set_totals.clear();
        self.set_per_chip.clear();
        self.iters_done = self.iters_done.min(self.reset_groups as u32);
    }

    /// Re-splits the RESET into `groups` group-iterations (Multi-RESET,
    /// §3.2). Used by the power manager when a write cannot be admitted
    /// whole: splitting lowers the per-iteration RESET demand at the cost
    /// of `groups − 1` extra RESET pulses of latency.
    ///
    /// # Panics
    ///
    /// Panics if the write has already started or `groups` is zero.
    pub fn resplit_reset(&mut self, geom: &DimmGeometry, groups: u8) {
        assert_eq!(self.iters_done, 0, "cannot re-split a started write");
        assert!(groups > 0, "groups must be nonzero");
        let n = self.chips as usize;
        let m = groups as usize;
        // Refilled in place: the buffers may be pooled, and the write path
        // allocates nothing in steady state.
        self.reset_per_chip.clear();
        self.reset_per_chip.resize(m * n, 0);
        for &(cell, chip) in &self.cell_chips {
            let g = geom.reset_group_of(cell as u32, groups) as usize;
            self.reset_per_chip[g * n + chip as usize] += 1;
        }
        row_sums_into(&self.reset_per_chip, n, &mut self.reset_totals);
        self.reset_groups = groups;
    }
}

/// `totals[r]` = the sum of row `r` of `per_chip`, a table `n` wide.
fn row_sums_into(per_chip: &[u32], n: usize, totals: &mut Vec<u32>) {
    totals.clear();
    totals.extend(per_chip.chunks_exact(n).map(|row| row.iter().sum::<u32>()));
}

/// The recyclable backing storage of one [`LineWrite`].
#[derive(Debug, Default)]
struct WriteBuffers {
    cell_chips: Vec<(u16, u8)>,
    reset_totals: Vec<u32>,
    reset_per_chip: Vec<u32>,
    set_totals: Vec<u32>,
    set_per_chip: Vec<u32>,
}

/// Upper bound on retained buffer sets / change sets / round vectors, so a
/// pathological burst cannot turn the pool into an unbounded cache.
const MAX_POOLED: usize = 4096;

/// A free-list of retired write-pipeline buffers.
///
/// The simulator mints a [`LineWrite`] per admitted write (plus a
/// [`ChangeSet`] and a per-task round vector); at steady state every one of
/// those allocations can be served from storage recycled off completed
/// writes, making the per-write pipeline allocation-free. Recycled buffers
/// are always cleared before reuse, and pooling never touches an RNG, so a
/// pooled run is bit-for-bit identical to a fresh-allocation run (the
/// `pooled_build_matches_fresh_build` proptest holds this invariant
/// down).
///
/// # Examples
///
/// ```
/// use fpb_pcm::{ChangeSet, CellMapping, DimmGeometry, IterationSampler, MlcLevel, WriteBufferPool};
/// use fpb_types::{MlcWriteModel, SimRng};
///
/// let geom = DimmGeometry::new(8, 1024);
/// let sampler = IterationSampler::new(MlcWriteModel::default());
/// let mut rng = SimRng::seed_from(5);
/// let mut pool = WriteBufferPool::new();
///
/// let w = pool.build(&[(0, MlcLevel::L11)], &geom, CellMapping::Bim, &sampler, &mut rng, 1);
/// pool.recycle(w);
/// let _next = pool.build(&[(1, MlcLevel::L00)], &geom, CellMapping::Bim, &sampler, &mut rng, 1);
/// assert_eq!(pool.reuses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct WriteBufferPool {
    bufs: Vec<WriteBuffers>,
    /// Scratch for a build's list of sampled cells. It lives here rather
    /// than in each write's buffers, so recycled writes stay small.
    sampled: Vec<u32>,
    change_sets: Vec<ChangeSet>,
    round_vecs: Vec<Vec<LineWrite>>,
    reuses: u64,
    fresh: u64,
}

impl WriteBufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        WriteBufferPool::default()
    }

    /// Builds a [`LineWrite`] for `cells`, reusing retired backing storage
    /// when available. Identical in behaviour (including RNG consumption)
    /// to [`LineWrite::from_cells`].
    pub fn build(
        &mut self,
        cells: &[(u32, MlcLevel)],
        geom: &DimmGeometry,
        mapping: CellMapping,
        sampler: &IterationSampler,
        rng: &mut SimRng,
        reset_groups: u8,
    ) -> LineWrite {
        let bufs = match self.bufs.pop() {
            Some(b) => {
                self.reuses += 1;
                b
            }
            None => {
                self.fresh += 1;
                WriteBuffers::default()
            }
        };
        LineWrite::build_with(
            bufs,
            &mut self.sampled,
            cells,
            geom,
            mapping,
            sampler,
            rng,
            reset_groups,
        )
    }

    /// Returns a completed write's backing storage to the free-list.
    pub fn recycle(&mut self, write: LineWrite) {
        if self.bufs.len() >= MAX_POOLED {
            return;
        }
        let LineWrite {
            cell_chips,
            reset_totals,
            reset_per_chip,
            set_totals,
            set_per_chip,
            ..
        } = write;
        self.bufs.push(WriteBuffers {
            cell_chips,
            reset_totals,
            reset_per_chip,
            set_totals,
            set_per_chip,
        });
    }

    /// Takes a cleared [`ChangeSet`], reusing recycled storage if any.
    pub fn take_change_set(&mut self) -> ChangeSet {
        let mut cs = self.change_sets.pop().unwrap_or_default();
        cs.clear();
        cs
    }

    /// Returns a no-longer-needed change set's storage to the free-list.
    pub fn recycle_change_set(&mut self, cs: ChangeSet) {
        if self.change_sets.len() < MAX_POOLED {
            self.change_sets.push(cs);
        }
    }

    /// Takes an empty round vector (`Vec<LineWrite>`), reusing recycled
    /// storage if any.
    pub fn take_rounds(&mut self) -> Vec<LineWrite> {
        let mut v = self.round_vecs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Recycles a completed task's rounds: every write's buffers go back to
    /// the free-list, and the vector itself is retained for reuse.
    pub fn recycle_rounds(&mut self, mut rounds: Vec<LineWrite>) {
        for w in rounds.drain(..) {
            self.recycle(w);
        }
        if self.round_vecs.len() < MAX_POOLED {
            self.round_vecs.push(rounds);
        }
    }

    /// Number of buffer sets currently pooled.
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }

    /// How many builds were served from recycled storage.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many builds had to allocate fresh storage.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpb_types::{MlcLevelModel, MlcWriteModel};
    use proptest::prelude::*;

    /// The one-pass build, the oracle of [`LineWrite::build_with`]: one
    /// loop maps each cell, samples its count (every cell, in order) and
    /// keeps it, and a second loop tallies each cell at its last SET row.
    fn build_reference(
        cells: &[(u32, MlcLevel)],
        geom: &DimmGeometry,
        mapping: CellMapping,
        sampler: &IterationSampler,
        rng: &mut SimRng,
        reset_groups: u8,
    ) -> LineWrite {
        let chips = geom.chips();
        let n_chips = chips as usize;
        let m = reset_groups as usize;
        let mut cell_chips = Vec::new();
        let mut cell_iters = Vec::new();
        let mut reset_totals = vec![0u32; m];
        let mut reset_per_chip = vec![0u32; m * n_chips];
        let mut max_iters = 1u32;
        for &(cell, level) in cells {
            let chip = mapping.chip_of(cell, chips).index();
            let group = geom.reset_group_of(cell, reset_groups) as usize;
            let iters = sampler.sample(level, rng);
            reset_totals[group] += 1;
            reset_per_chip[group * n_chips + chip] += 1;
            max_iters = max_iters.max(iters);
            cell_chips.push((cell as u16, chip as u8));
            cell_iters.push(iters);
        }
        let set_iters = (max_iters - 1) as usize;
        let mut set_totals = vec![0u32; set_iters];
        let mut set_per_chip = vec![0u32; set_iters * n_chips];
        for (&(_, chip), &iters) in cell_chips.iter().zip(&cell_iters) {
            if iters >= 2 {
                let last = (iters - 2) as usize;
                set_totals[last] += 1;
                set_per_chip[last * n_chips + chip as usize] += 1;
            }
        }
        for idx in (0..set_iters.saturating_sub(1)).rev() {
            set_totals[idx] += set_totals[idx + 1];
            for c in 0..n_chips {
                set_per_chip[idx * n_chips + c] += set_per_chip[(idx + 1) * n_chips + c];
            }
        }
        LineWrite {
            chips,
            reset_groups,
            total_changed: cells.len() as u32,
            cell_chips,
            reset_totals,
            reset_per_chip,
            set_totals,
            set_per_chip,
            iters_done: 0,
            truncate_at: None,
            truncated: false,
        }
    }

    /// A level model: `Fixed(1..=4)`, or `TwoPhase` with a fast fraction of
    /// 0, 1 or in between, `min` 1..=3 and `max` up to 16.
    fn level_model() -> impl Strategy<Value = MlcLevelModel> {
        prop_oneof![
            (1u32..=4).prop_map(MlcLevelModel::Fixed),
            (
                prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
                (0.0f64..12.0, 0.0f64..3.0),
                (0.0f64..18.0, 0.0f64..4.0),
                (1u32..=3, 0u32..=13),
            )
                .prop_map(|(fast_fraction, fast, slow, (min, extra))| {
                    MlcLevelModel::TwoPhase {
                        fast_fraction,
                        fast_mean: fast.0,
                        fast_std: fast.1,
                        slow_mean: slow.0,
                        slow_std: slow.1,
                        min,
                        max: min + extra,
                    }
                }),
        ]
    }

    fn fixture() -> (DimmGeometry, IterationSampler) {
        (
            DimmGeometry::new(8, 1024),
            IterationSampler::new(MlcWriteModel::default()),
        )
    }

    fn changes(n: u32, level: MlcLevel) -> ChangeSet {
        (0..n).map(|i| (i, level)).collect()
    }

    #[test]
    fn empty_write_is_instantly_empty() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(1);
        let w = LineWrite::new(
            &ChangeSet::empty(),
            &geom,
            CellMapping::Bim,
            &s,
            &mut rng,
            1,
        );
        assert_eq!(w.total_changed(), 0);
        // A zero-change write still has its RESET slot but pulses nothing.
        assert_eq!(w.total_iterations(), 1);
        assert_eq!(w.next_demand().unwrap().active_cells, 0);
    }

    #[test]
    fn all_l00_completes_after_reset() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(2);
        let mut w = LineWrite::new(
            &changes(50, MlcLevel::L00),
            &geom,
            CellMapping::Vim,
            &s,
            &mut rng,
            1,
        );
        assert_eq!(w.total_iterations(), 1);
        let d = w.next_demand().unwrap();
        assert_eq!(d.kind, IterKind::Reset { group: 0, of: 1 });
        assert_eq!(d.active_cells, 50);
        w.advance();
        assert!(w.is_complete());
        assert!(w.next_demand().is_none());
    }

    #[test]
    fn l11_needs_exactly_one_set() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(3);
        let mut w = LineWrite::new(
            &changes(10, MlcLevel::L11),
            &geom,
            CellMapping::Vim,
            &s,
            &mut rng,
            1,
        );
        assert_eq!(w.total_iterations(), 2);
        w.advance(); // RESET
        let d = w.next_demand().unwrap();
        assert_eq!(d.kind, IterKind::Set { index: 1 });
        assert_eq!(d.active_cells, 10);
        w.advance();
        assert!(w.is_complete());
    }

    #[test]
    fn set_demand_is_monotonically_nonincreasing() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(4);
        let mut w = LineWrite::new(
            &changes(200, MlcLevel::L01),
            &geom,
            CellMapping::Bim,
            &s,
            &mut rng,
            1,
        );
        w.advance(); // RESET
        let mut prev = u32::MAX;
        while let Some(d) = w.next_demand() {
            assert!(d.active_cells <= prev, "demand must step down");
            assert!(d.active_cells > 0, "trailing iterations must pulse cells");
            prev = d.active_cells;
            w.advance();
        }
        assert!(w.is_complete());
    }

    #[test]
    fn per_chip_sums_match_totals() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(5);
        let cs: ChangeSet = (0..300u32).map(|i| (i * 3 % 1024, MlcLevel::L01)).collect();
        for mapping in CellMapping::ALL {
            let mut w = LineWrite::new(&cs, &geom, mapping, &s, &mut rng, 1);
            while let Some(d) = w.next_demand() {
                assert_eq!(
                    d.per_chip.iter().sum::<u32>(),
                    d.active_cells,
                    "{mapping} {:?}",
                    d.kind
                );
                assert_eq!(d.per_chip.len(), 8);
                w.advance();
            }
        }
    }

    #[test]
    fn multi_reset_splits_demand() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(6);
        // Change every 4th cell: spread across the whole chunk layout.
        let cs: ChangeSet = (0..256u32).map(|i| (i * 4, MlcLevel::L11)).collect();
        let mut w = LineWrite::new(&cs, &geom, CellMapping::Vim, &s, &mut rng, 3);
        assert_eq!(w.reset_groups(), 3);
        assert_eq!(w.total_iterations(), 3 + 1); // 3 RESET groups + 1 SET
        let mut reset_cells = 0;
        for g in 0..3u8 {
            let d = w.next_demand().unwrap();
            assert_eq!(d.kind, IterKind::Reset { group: g, of: 3 });
            assert!(
                d.active_cells < 256,
                "each group must RESET a strict subset"
            );
            reset_cells += d.active_cells;
            w.advance();
        }
        assert_eq!(reset_cells, 256, "groups must partition the changes");
        // All cells then SET together.
        assert_eq!(w.next_demand().unwrap().active_cells, 256);
    }

    #[test]
    fn multi_reset_group_totals_accessible() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(7);
        let cs = changes(100, MlcLevel::L00);
        let w = LineWrite::new(&cs, &geom, CellMapping::Naive, &s, &mut rng, 3);
        let total: u32 = (0..3).map(|g| w.reset_group_cells(g)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn unfinished_after_tracks_set_tail() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(8);
        let cs = changes(64, MlcLevel::L01);
        let w = LineWrite::new(&cs, &geom, CellMapping::Bim, &s, &mut rng, 1);
        // Before and right after the RESET everything is outstanding.
        assert_eq!(w.unfinished_after(0), 64);
        // unfinished_after(i) equals demand of iteration i+1 for SET iters.
        let mut probe = w.clone();
        probe.advance(); // RESET done: 1 iteration complete
        let mut done = 1;
        while let Some(d) = probe.next_demand() {
            assert_eq!(w.unfinished_after(done), d.active_cells);
            probe.advance();
            done += 1;
        }
        assert_eq!(w.unfinished_after(done), 0);
        assert_eq!(w.unfinished_after(done + 10), 0);
    }

    #[test]
    fn truncation_ends_write_early() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(9);
        let cs = changes(64, MlcLevel::L01);
        let full = LineWrite::new(&cs, &geom, CellMapping::Bim, &s, &mut rng, 1);
        let mut truncated = full.clone().with_truncation(8);
        let mut iters = 0;
        while !truncated.is_complete() {
            truncated.advance();
            iters += 1;
        }
        assert!(truncated.was_truncated());
        assert!(
            iters < full.total_iterations(),
            "truncated {iters} vs full {}",
            full.total_iterations()
        );
        // The tail it skipped was within the ECC budget.
        assert!(full.unfinished_after(iters) <= 8);
    }

    #[test]
    fn truncation_respects_reset_groups() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(10);
        // 4 slow cells, under the ECC limit from the start.
        let cs = changes(4, MlcLevel::L01);
        let mut w =
            LineWrite::new(&cs, &geom, CellMapping::Vim, &s, &mut rng, 3).with_truncation(8);
        // Must still fire all 3 RESET groups before truncating.
        for _ in 0..3 {
            assert!(!w.is_complete());
            assert!(w.next_demand().is_some());
            w.advance();
        }
        assert!(w.is_complete());
        assert!(w.was_truncated());
    }

    #[test]
    fn restart_resets_progress_and_keeps_profile() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(11);
        let cs = changes(32, MlcLevel::L01);
        let mut w = LineWrite::new(&cs, &geom, CellMapping::Bim, &s, &mut rng, 1);
        let first_demand = w.next_demand().unwrap().active_cells;
        w.advance();
        w.advance();
        assert!(w.progress() > 0.0);
        w.restart();
        assert_eq!(w.iterations_done(), 0);
        assert_eq!(w.progress(), 0.0);
        assert_eq!(w.next_demand().unwrap().active_cells, first_demand);
    }

    #[test]
    fn advancing_completed_write_returns_none() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(12);
        let mut w = LineWrite::new(
            &changes(1, MlcLevel::L00),
            &geom,
            CellMapping::Vim,
            &s,
            &mut rng,
            1,
        );
        assert!(w.advance().is_some());
        assert!(w.is_complete());
        assert_eq!(w.advance(), None, "completed write must not advance");
        assert_eq!(w.iterations_done(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over an arbitrary history of builds, mutations and recycles,
        /// every pooled build equals a fresh build from the same RNG state
        /// and leaves the RNG where the fresh build leaves it: recycled
        /// storage never leaks state into the next write.
        #[test]
        fn pooled_build_matches_fresh_build(
            seed in any::<u64>(),
            tasks in prop::collection::vec(
                (
                    prop::collection::vec(
                        (
                            prop::collection::vec((0u32..1024, 0usize..4), 0..300),
                            0usize..3,
                            1u8..4,
                            0u8..4,
                        ),
                        1..4,
                    ),
                    any::<bool>(),
                ),
                1..8,
            ),
        ) {
            let (geom, s) = fixture();
            let mut pool = WriteBufferPool::new();
            let mut rng = SimRng::seed_from(seed);
            for (rounds, via_rounds) in tasks {
                let mut built = pool.take_rounds();
                for (cells, mapping, groups, mutation) in rounds {
                    let cells: Vec<(u32, MlcLevel)> =
                        cells.into_iter().map(|(c, l)| (c, MlcLevel::ALL[l])).collect();
                    let mapping = CellMapping::ALL[mapping];
                    let mut fresh_rng = rng.clone();
                    let mut w = pool.build(&cells, &geom, mapping, &s, &mut rng, groups);
                    let fresh =
                        LineWrite::from_cells(&cells, &geom, mapping, &s, &mut fresh_rng, groups);
                    prop_assert_eq!(&w, &fresh, "recycled buffers must not leak state");
                    prop_assert_eq!(&rng, &fresh_rng, "pooling must not change RNG consumption");
                    // Leave the buffers in the shapes the engine recycles.
                    match mutation {
                        0 => {}
                        1 => {
                            w.advance();
                            w.advance();
                        }
                        2 => w.degrade_to_slc(),
                        _ => w.resplit_reset(&geom, 4),
                    }
                    if via_rounds {
                        built.push(w);
                    } else {
                        pool.recycle(w);
                    }
                }
                pool.recycle_rounds(built);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The two-pass build equals the one-pass reference, and leaves the
        /// RNG where it does, for arbitrary cells (any order, duplicates
        /// allowed), write models, mappings, chip counts and RESET groups,
        /// including an RNG that holds a Box–Muller spare on entry. Builds
        /// go through one pool, so its scratch list carries over.
        #[test]
        fn two_pass_build_matches_one_pass_reference(
            seed in any::<u64>(),
            spare in any::<bool>(),
            levels in (level_model(), level_model(), level_model(), level_model()),
            chips in prop_oneof![Just(4u8), Just(8u8), Just(16u8)],
            writes in prop::collection::vec(
                (
                    prop::collection::vec((0u32..1024, 0usize..4), 0..400),
                    0usize..3,
                    1u8..=3,
                ),
                1..4,
            ),
        ) {
            let (l00, l01, l10, l11) = levels;
            let sampler = IterationSampler::new(MlcWriteModel { l00, l01, l10, l11 });
            let geom = DimmGeometry::new(chips, 1024);
            let mut pool = WriteBufferPool::new();
            let mut rng = SimRng::seed_from(seed);
            if spare {
                rng.gaussian();
            }
            for (cells, mapping, groups) in writes {
                let cells: Vec<(u32, MlcLevel)> =
                    cells.into_iter().map(|(c, l)| (c, MlcLevel::ALL[l])).collect();
                let mapping = CellMapping::ALL[mapping];
                let mut ref_rng = rng.clone();
                let w = pool.build(&cells, &geom, mapping, &sampler, &mut rng, groups);
                let reference =
                    build_reference(&cells, &geom, mapping, &sampler, &mut ref_rng, groups);
                prop_assert_eq!(&w, &reference);
                prop_assert_eq!(&rng, &ref_rng, "the builds must draw the same numbers");
                pool.recycle(w);
            }
        }
    }

    #[test]
    fn recycle_rounds_returns_all_buffers() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(42);
        let mut pool = WriteBufferPool::new();
        let mut rounds = pool.take_rounds();
        for r in 0..3u32 {
            let cs = changes(10 + r, MlcLevel::L01);
            rounds.push(pool.build(cs.cells(), &geom, CellMapping::Vim, &s, &mut rng, 1));
        }
        pool.recycle_rounds(rounds);
        assert_eq!(pool.pooled(), 3);
        let again = pool.take_rounds();
        assert!(again.is_empty());
        assert!(again.capacity() >= 3, "round vector storage reused");
    }

    #[test]
    fn change_set_pooling_round_trips() {
        let mut pool = WriteBufferPool::new();
        let mut cs = pool.take_change_set();
        cs.push(7, MlcLevel::L10);
        cs.push(9, MlcLevel::L00);
        assert_eq!(cs.len(), 2);
        pool.recycle_change_set(cs);
        let cs2 = pool.take_change_set();
        assert!(cs2.is_empty(), "recycled change sets are cleared on take");
    }

    #[test]
    fn rotate_in_place_matches_rotated() {
        let cs = ChangeSet::from_cells(vec![
            (1020, MlcLevel::L01),
            (3, MlcLevel::L11),
            (511, MlcLevel::L00),
        ]);
        let by_clone = cs.rotated(10, 1024);
        let mut in_place = cs.clone();
        in_place.rotate_in_place(10, 1024);
        assert_eq!(by_clone, in_place);
        assert_eq!(in_place.iter().next().unwrap().0, 6);
    }

    #[test]
    fn per_chip_changed_sums_to_total() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(20);
        let cs: ChangeSet = (0..150u32).map(|i| (i * 7 % 1024, MlcLevel::L10)).collect();
        for groups in [1u8, 3] {
            let w = LineWrite::new(&cs, &geom, CellMapping::Bim, &s, &mut rng, groups);
            let pc = w.per_chip_changed();
            assert_eq!(pc.iter().sum::<u32>(), 150);
        }
    }

    #[test]
    fn per_chip_unfinished_matches_global() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(21);
        let cs = changes(80, MlcLevel::L01);
        let w = LineWrite::new(&cs, &geom, CellMapping::Vim, &s, &mut rng, 1);
        assert!(w.per_chip_unfinished_after(0).is_none());
        for i in 1..w.total_iterations() + 2 {
            let per_chip = w.per_chip_unfinished_after(i).unwrap();
            assert_eq!(
                per_chip.iter().sum::<u32>(),
                w.unfinished_after(i),
                "iteration {i}"
            );
        }
    }

    #[test]
    fn resplit_preserves_totals_and_sets() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(22);
        let cs: ChangeSet = (0..240u32).map(|i| (i * 4 % 1024, MlcLevel::L01)).collect();
        let mut w = LineWrite::new(&cs, &geom, CellMapping::Bim, &s, &mut rng, 1);
        let set_iters_before = w.total_iterations() - 1;
        w.resplit_reset(&geom, 3);
        assert_eq!(w.reset_groups(), 3);
        assert_eq!(
            (0..3).map(|g| w.reset_group_cells(g)).sum::<u32>(),
            240,
            "re-split must partition the changes"
        );
        // SET schedule unchanged; only RESET latency grows.
        assert_eq!(w.total_iterations(), 3 + set_iters_before);
        // Per-chip tables still consistent.
        let d = w.next_demand().unwrap();
        assert_eq!(d.per_chip.iter().sum::<u32>(), d.active_cells);
    }

    #[test]
    #[should_panic(expected = "cannot re-split")]
    fn resplit_after_start_panics() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(23);
        let mut w = LineWrite::new(
            &changes(10, MlcLevel::L00),
            &geom,
            CellMapping::Vim,
            &s,
            &mut rng,
            1,
        );
        w.advance();
        w.resplit_reset(&geom, 3);
    }

    #[test]
    fn changeset_rotation_wraps() {
        let cs = ChangeSet::from_cells(vec![(1020, MlcLevel::L01)]);
        let r = cs.rotated(10, 1024);
        assert_eq!(r.iter().next().unwrap().0, 6);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn progress_spans_zero_to_one() {
        let (geom, s) = fixture();
        let mut rng = SimRng::seed_from(13);
        let mut w = LineWrite::new(
            &changes(16, MlcLevel::L10),
            &geom,
            CellMapping::Bim,
            &s,
            &mut rng,
            1,
        );
        assert_eq!(w.progress(), 0.0);
        while !w.is_complete() {
            w.advance();
        }
        assert_eq!(w.progress(), 1.0);
    }
}
