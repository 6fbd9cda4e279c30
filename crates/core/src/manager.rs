//! The power manager: admission and per-iteration budgeting of writes.

use std::fmt;

use fpb_pcm::{DimmGeometry, IterKind, LineWrite};
use fpb_types::{LedgerError, Tokens};

use crate::config::PowerPolicyConfig;
use crate::ledger::{Grant, Ledger};
use crate::stats::PowerStats;

/// Identifier of an in-flight write (assigned by the simulator).
///
/// # Examples
///
/// ```
/// use fpb_core::WriteId;
/// assert_eq!(WriteId::new(7).get(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WriteId(u64);

impl WriteId {
    /// Creates an id.
    pub const fn new(n: u64) -> Self {
        WriteId(n)
    }

    /// Raw value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wr#{}", self.0)
    }
}

/// A write's memo of its last refused admission, for
/// [`PowerManager::try_admit_memoized`]: the manager's ledger epoch at
/// that refusal. A new write starts with the empty (default) memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitMemo(Option<u64>);

/// The budgeting engine driving one DIMM's power tokens.
///
/// The simulator's contract:
///
/// 1. [`PowerManager::try_admit`] before issuing a queued write — may apply
///    Multi-RESET splitting to the write; on `false` the write stays
///    queued. A write that retries until admitted may go through
///    [`PowerManager::try_admit_memoized`] instead.
/// 2. After each completed iteration (and `write.advance()`), if the write
///    is not finished, [`PowerManager::try_advance`] — on `false` the
///    write stalls *holding no tokens*; call again until it succeeds.
/// 3. [`PowerManager::release`] on completion, cancellation, or pause.
///
/// A stalled write holds nothing because a stalled write draws no power;
/// this also makes the protocol deadlock-free (every held allocation
/// belongs to an iteration that is actively burning cycles and will
/// complete).
#[derive(Debug, Clone)]
pub struct PowerManager {
    cfg: PowerPolicyConfig,
    geom: DimmGeometry,
    ledger: Ledger,
    /// Outstanding grants, sorted by `WriteId`. At most one grant exists
    /// per in-flight write (bounded by the bank count), so a sorted `Vec`
    /// beats a tree map on the per-iteration grant/release path while
    /// keeping audit iteration order (and any diagnostics derived from
    /// it) deterministic.
    holds: Vec<(WriteId, Grant)>,
    stats: PowerStats,
    /// When set, token conservation is re-verified after every grant and
    /// release (see [`PowerManager::enable_audit`]).
    audit: bool,
    audit_violations: u64,
    first_violation: Option<LedgerError>,
    /// Reusable per-chip demand buffer: admission is attempted (and often
    /// refused) on every scheduling pass, so demand computation must not
    /// allocate.
    demand_scratch: Vec<Tokens>,
    /// Reusable per-chip changed-cell counts feeding `demand_scratch`.
    chip_scratch: Vec<u32>,
    /// Reusable outstanding-per-chip buffer for the opt-in auditor.
    audit_scratch: Vec<Tokens>,
    /// Moves whenever anything admission reads can change: every grant
    /// (`put_hold`), every release of a hold and each brownout edge. A
    /// refused grant changes nothing, and config, geometry and the
    /// per-chip GCP efficiencies are fixed at construction, so a write
    /// refused at this epoch is refused again until it moves.
    epoch: u64,
}

impl PowerManager {
    /// Builds the manager for a policy and DIMM geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`PowerPolicyConfig::validate`]).
    pub fn new(cfg: PowerPolicyConfig, geom: &DimmGeometry) -> Self {
        #[expect(
            clippy::panic,
            reason = "construction-time validation with a documented `# Panics` contract"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid power policy config: {e}");
        }
        let ledger = match cfg.pt_dimm {
            None => Ledger::unlimited(),
            Some(pt) if !cfg.enforce_chip_budget => Ledger::flat(pt),
            Some(pt) => {
                let gcp = cfg.gcp.as_ref().map(|g| {
                    let lcp_millis = Tokens::pt_lcp(pt, cfg.e_lcp, 1.0, cfg.chips).millis();
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "floored to whole millitokens; a capacity is far below 2^53"
                    )]
                    let cap = (lcp_millis as f64 * g.capacity_lcps).floor() as u64;
                    (g.e_gcp, cap)
                });
                let mut ledger =
                    Ledger::with_chips(pt, cfg.chips, cfg.chip_budget_millis(), cfg.e_lcp, gcp);
                if let Some(g) = cfg.gcp.as_ref() {
                    if g.per_chip_regulation {
                        ledger.set_gcp_efficiencies(g.chip_efficiencies(cfg.chips));
                    }
                }
                ledger
            }
        };
        PowerManager {
            cfg,
            geom: *geom,
            ledger,
            holds: Vec::new(),
            stats: PowerStats::default(),
            audit: false,
            audit_violations: 0,
            first_violation: None,
            demand_scratch: Vec::new(),
            chip_scratch: Vec::new(),
            audit_scratch: Vec::new(),
            epoch: 0,
        }
    }

    /// Turns on the runtime conservation auditor: after every grant and
    /// release, the ledger's books are re-verified against the set of
    /// outstanding holds ([`Ledger::audit`]). Violations are counted and
    /// the first one kept — they indicate a budgeting bug, not a modeled
    /// device fault, so the simulation keeps running and the caller checks
    /// [`PowerManager::first_audit_violation`] at the end.
    pub fn enable_audit(&mut self) {
        self.audit = true;
    }

    /// Number of accounting violations observed (0 unless auditing).
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations
    }

    /// The first accounting violation observed, if any.
    pub fn first_audit_violation(&self) -> Option<&LedgerError> {
        self.first_violation.as_ref()
    }

    /// Enters a brownout window on the underlying ledger, keeping
    /// `keep_fraction` of every capacity (see [`Ledger::begin_brownout`]).
    pub fn begin_brownout(&mut self, keep_fraction: f64) {
        self.ledger.begin_brownout(keep_fraction);
        self.epoch += 1;
        self.audit_now();
    }

    /// Ends the brownout window, restoring withheld tokens exactly.
    pub fn end_brownout(&mut self) {
        self.ledger.end_brownout();
        self.epoch += 1;
        self.audit_now();
    }

    /// True while the ledger is withholding brownout tokens.
    pub fn in_brownout(&self) -> bool {
        self.ledger.in_brownout()
    }

    /// The policy configuration in force.
    pub fn config(&self) -> &PowerPolicyConfig {
        &self.cfg
    }

    /// The live ledger (for inspection).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &PowerStats {
        &self.stats
    }

    /// Attempts to admit a queued write (start its first iteration).
    ///
    /// With Multi-RESET enabled, a write refused at full RESET power is
    /// split into `multi_reset_splits` group-RESETs and retried — this is
    /// why the write is taken `&mut`.
    ///
    /// # Panics
    ///
    /// Panics if the write has already started.
    pub fn try_admit(&mut self, id: WriteId, write: &mut LineWrite) -> bool {
        assert_eq!(write.iterations_done(), 0, "write already started");
        if self.try_allocate_next(id, write) {
            self.stats.note_admit();
            return true;
        }
        if self.cfg.ipm
            && self.cfg.multi_reset_splits > 1
            && write.reset_groups() == 1
            && write.total_changed() > 0
        {
            write.resplit_reset(&self.geom, self.cfg.multi_reset_splits);
            self.stats.note_multi_reset();
            if self.try_allocate_next(id, write) {
                self.stats.note_admit();
                return true;
            }
        }
        self.stats.note_admit_failure();
        false
    }

    /// [`PowerManager::try_admit`] for a queued write that is polled
    /// until admitted. A write refused at the current ledger epoch is
    /// refused again without consulting the ledger: nothing admission
    /// reads has changed since, and the Multi-RESET resplit, if any,
    /// happened in that first refusal. The repeat refusal is still
    /// counted, so the stats move exactly as a real attempt moves them.
    /// `memo` belongs to the write; it is set on a refusal and cleared on
    /// admission.
    ///
    /// Debug builds re-run every skipped attempt on clones of the manager
    /// and the write, and panic if it would have been admitted or would
    /// have moved the stats differently.
    ///
    /// # Panics
    ///
    /// Panics where [`PowerManager::try_admit`] does, on every attempt
    /// that reaches the ledger.
    pub fn try_admit_memoized(
        &mut self,
        id: WriteId,
        write: &mut LineWrite,
        memo: &mut AdmitMemo,
    ) -> bool {
        if memo.0 == Some(self.epoch) {
            #[cfg(debug_assertions)]
            self.check_repeat_refusal(id, write);
            self.stats.note_admit_failure();
            return false;
        }
        let ok = self.try_admit(id, write);
        *memo = AdmitMemo((!ok).then_some(self.epoch));
        ok
    }

    /// The debug-build check behind a skipped admission: the real attempt,
    /// made on clones, is refused and moves the stats as the skip does.
    #[cfg(debug_assertions)]
    fn check_repeat_refusal(&self, id: WriteId, write: &LineWrite) {
        let mut pm = self.clone();
        let admitted = pm.try_admit(id, &mut write.clone());
        let mut skipped = self.stats.clone();
        skipped.note_admit_failure();
        assert!(
            !admitted && pm.stats == skipped,
            "{id}: refusal memo stale at ledger epoch {}",
            self.epoch
        );
    }

    /// Re-budgets a write at an iteration boundary (its previous iteration
    /// has been `advance`d and it is not complete). Returns `false` if the
    /// next iteration's tokens are unavailable; the write then holds
    /// nothing and must retry.
    pub fn try_advance(&mut self, id: WriteId, write: &LineWrite) -> bool {
        debug_assert!(!write.is_complete(), "advancing a completed write");
        if !self.cfg.ipm {
            // Hay-style policies hold their whole-write grant throughout.
            // A write that is mid-flight always has its hold (or runs under
            // the unlimited ledger).
            return true;
        }
        self.release(id);
        if self.try_allocate_next(id, write) {
            true
        } else {
            self.stats.note_advance_stall();
            false
        }
    }

    /// Releases everything a write holds (completion, cancellation, or
    /// pause). Safe to call when nothing is held.
    ///
    /// An over-release detected by the ledger is recorded as an audit
    /// violation (the ledger clamps and stays consistent) rather than
    /// propagated — release sites must always succeed in freeing the hold.
    pub fn release(&mut self, id: WriteId) {
        if let Some(grant) = self.take_hold(id) {
            self.epoch += 1;
            if grant.used_gcp() {
                self.stats.note_gcp_release(grant.gcp_total);
            }
            if let Err(e) = self.ledger.release(&grant) {
                self.record_violation(e);
            }
            self.audit_now();
            self.ledger.recycle_grant(grant);
        }
    }

    /// True if the write currently holds tokens.
    pub fn holds_tokens(&self, id: WriteId) -> bool {
        self.holds.binary_search_by_key(&id, |e| e.0).is_ok()
    }

    // ---- internals ----

    /// Removes and returns `id`'s grant, keeping `holds` sorted.
    fn take_hold(&mut self, id: WriteId) -> Option<Grant> {
        match self.holds.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => Some(self.holds.remove(i).1),
            Err(_) => None,
        }
    }

    /// Inserts (or replaces) `id`'s grant, keeping `holds` sorted.
    fn put_hold(&mut self, id: WriteId, grant: Grant) {
        self.epoch += 1;
        match self.holds.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => self.holds[i].1 = grant,
            Err(i) => self.holds.insert(i, (id, grant)),
        }
    }

    /// Computes and commits the allocation covering the write from its
    /// current position: the *next iteration* under IPM, or the whole
    /// write under per-write budgeting.
    fn try_allocate_next(&mut self, id: WriteId, write: &LineWrite) -> bool {
        debug_assert!(!self.holds_tokens(id), "{id} double allocation");
        // The scratch buffers are taken out for the duration of the call so
        // `&self` demand helpers can fill them while the ledger is borrowed.
        let mut per_chip = std::mem::take(&mut self.demand_scratch);
        let mut counts = std::mem::take(&mut self.chip_scratch);
        let grant = if !self.ledger.has_chip_budgets() {
            let usable = if self.cfg.ipm {
                self.iteration_chip_demand_into(write, &mut counts, &mut per_chip);
                per_chip.iter().copied().sum()
            } else {
                Tokens::from_cells(write.total_changed() as u64)
            };
            self.ledger.try_grant_flat(usable)
        } else {
            if self.cfg.ipm {
                self.iteration_chip_demand_into(write, &mut counts, &mut per_chip);
            } else {
                write.per_chip_changed_into(&mut counts);
                per_chip.clear();
                per_chip.extend(counts.iter().map(|&c| Tokens::from_cells(c as u64)));
            }
            self.ledger.try_grant_chips(&per_chip)
        };
        self.demand_scratch = per_chip;
        self.chip_scratch = counts;
        match grant {
            Some(g) => {
                if g.used_gcp() {
                    self.stats.note_gcp_grant(g.gcp_total, g.gcp_raw);
                }
                self.put_hold(id, g);
                self.audit_now();
                true
            }
            None => false,
        }
    }

    /// Re-verifies conservation against the outstanding holds. The
    /// disabled case is a single inlined branch so the auditor costs
    /// nothing on the default (non-auditing) hot path.
    #[inline]
    fn audit_now(&mut self) {
        if self.audit {
            self.audit_outstanding();
        }
    }

    #[cold]
    fn audit_outstanding(&mut self) {
        let chips = self.cfg.chips as usize;
        let mut dimm = Tokens::ZERO;
        let mut per_chip = std::mem::take(&mut self.audit_scratch);
        per_chip.clear();
        per_chip.resize(chips, Tokens::ZERO);
        let mut gcp = Tokens::ZERO;
        for (_, grant) in &self.holds {
            dimm += grant.dimm_raw;
            gcp += grant.gcp_total;
            for (acc, (&l, &b)) in per_chip
                .iter_mut()
                .zip(grant.lcp.iter().zip(grant.borrowed.iter()))
            {
                *acc += l + b;
            }
        }
        if let Err(e) = self.ledger.audit(dimm, &per_chip, gcp) {
            self.record_violation(e);
        }
        self.audit_scratch = per_chip;
    }

    fn record_violation(&mut self, e: LedgerError) {
        self.audit_violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(e);
        }
    }

    /// FPB-IPM allocation for the write's next iteration, per chip (§3.1),
    /// written into `out` (cleared first; `counts` is a helper buffer for
    /// the first-SET path):
    ///
    /// * RESET group `g`: exactly the group's changed cells (known from the
    ///   read-before-write comparison).
    /// * First SET: the full change count divided by `C` ("half of the
    ///   allocated tokens are reclaimed in write iteration 2").
    /// * SET `j ≥ 2`: the cells unfinished after iteration `i − 2` divided
    ///   by `C` — the freshest device report available without adding
    ///   latency.
    fn iteration_chip_demand_into(
        &self,
        write: &LineWrite,
        counts: &mut Vec<u32>,
        out: &mut Vec<Tokens>,
    ) {
        let c = self.cfg.reset_set_ratio;
        out.clear();
        let Some(next) = write.next_demand() else {
            // A completed write demands nothing. Unreachable from the
            // engine (completed writes release, they don't allocate), but a
            // zero grant is benign where a panic would not be.
            out.resize(self.cfg.chips as usize, Tokens::ZERO);
            return;
        };
        match next.kind {
            IterKind::Reset { .. } => {
                out.extend(next.per_chip.iter().map(|&n| Tokens::from_cells(n as u64)));
            }
            IterKind::Set { index: 1 } => {
                write.per_chip_changed_into(counts);
                out.extend(
                    counts
                        .iter()
                        .map(|&n| Tokens::from_cells(n as u64).div_ratio(c)),
                );
            }
            IterKind::Set { .. } => {
                let lagged = write.iterations_done() - 1; // i - 2, 0-based done count
                let chips = self.cfg.chips as usize;
                out.resize(chips, Tokens::ZERO);
                if let Some(per_chip) = write.per_chip_unfinished_after(lagged) {
                    for (o, &n) in out.iter_mut().zip(per_chip.iter()) {
                        *o = Tokens::from_cells(n as u64).div_ratio(c);
                    }
                } else {
                    // No lagged report yet (SET ≥ 2 implies the RESET groups
                    // fired, so this is unreachable); fall back to the full
                    // change count, which can only over-reserve.
                    write.per_chip_changed_into(counts);
                    for (o, &n) in out.iter_mut().zip(counts.iter()) {
                        *o = Tokens::from_cells(n as u64).div_ratio(c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpb_pcm::{CellMapping, ChangeSet, IterationSampler, MlcLevel};
    use fpb_types::{MlcWriteModel, PowerConfig, SimRng};

    fn geom() -> DimmGeometry {
        DimmGeometry::new(8, 1024)
    }

    fn sampler() -> IterationSampler {
        IterationSampler::new(MlcWriteModel::default())
    }

    fn write_of(n: u32, level: MlcLevel, seed: u64) -> LineWrite {
        let cs: ChangeSet = (0..n).map(|i| (i * 3 % 1024, level)).collect();
        let mut rng = SimRng::seed_from(seed);
        LineWrite::new(&cs, &geom(), CellMapping::Bim, &sampler(), &mut rng, 1)
    }

    fn drive_to_completion(pm: &mut PowerManager, id: WriteId, w: &mut LineWrite) {
        assert!(pm.try_admit(id, w));
        loop {
            w.advance();
            if w.is_complete() {
                pm.release(id);
                return;
            }
            assert!(pm.try_advance(id, w), "unexpected stall in solo run");
        }
    }

    #[test]
    fn ideal_never_refuses() {
        let mut pm = PowerManager::new(
            PowerPolicyConfig::ideal(&PowerConfig::default(), 8),
            &geom(),
        );
        for i in 0..10 {
            let mut w = write_of(1000, MlcLevel::L01, i);
            assert!(pm.try_admit(WriteId::new(i), &mut w));
        }
        assert_eq!(pm.stats().admissions(), 10);
    }

    #[test]
    fn dimm_only_serializes_oversized_writes() {
        // Paper §3 example: budget 80, WR-A 50 cells, WR-B 40 cells — the
        // per-write heuristic cannot overlap them.
        let power = PowerConfig {
            pt_dimm: 80,
            ..PowerConfig::default()
        };
        let mut pm = PowerManager::new(PowerPolicyConfig::dimm_only(&power, 8), &geom());
        let mut a = write_of(50, MlcLevel::L01, 1);
        let mut b = write_of(40, MlcLevel::L01, 2);
        assert!(pm.try_admit(WriteId::new(1), &mut a));
        assert!(!pm.try_admit(WriteId::new(2), &mut b));
        // Even when A is deep into its SETs, per-write budgeting holds all
        // 50 tokens.
        a.advance();
        assert!(pm.try_advance(WriteId::new(1), &a));
        assert!(!pm.try_admit(WriteId::new(2), &mut b));
        pm.release(WriteId::new(1));
        assert!(pm.try_admit(WriteId::new(2), &mut b));
    }

    #[test]
    fn ipm_overlaps_what_per_write_cannot() {
        // Same scenario with IPM: after WR-A's RESET, its allocation drops
        // to 25 tokens, freeing room for WR-B's 40-token RESET (Fig. 5b).
        let power = PowerConfig {
            pt_dimm: 80,
            ..PowerConfig::default()
        };
        let cfg = PowerPolicyConfig {
            ipm: true,
            ..PowerPolicyConfig::dimm_only(&power, 8)
        };
        let mut pm = PowerManager::new(cfg, &geom());
        let mut a = write_of(50, MlcLevel::L01, 1);
        let mut b = write_of(40, MlcLevel::L01, 2);
        assert!(pm.try_admit(WriteId::new(1), &mut a));
        assert!(
            !pm.try_admit(WriteId::new(2), &mut b),
            "RESETs cannot overlap"
        );
        a.advance(); // A's RESET done
        assert!(pm.try_advance(WriteId::new(1), &a)); // A now holds 25
        assert!(
            pm.try_admit(WriteId::new(2), &mut b),
            "B fits alongside A's SETs"
        );
    }

    #[test]
    fn ipm_allocation_steps_down() {
        let power = PowerConfig {
            pt_dimm: 560,
            ..PowerConfig::default()
        };
        let cfg = PowerPolicyConfig {
            ipm: true,
            ..PowerPolicyConfig::dimm_only(&power, 8)
        };
        let mut pm = PowerManager::new(cfg, &geom());
        let mut w = write_of(100, MlcLevel::L01, 3);
        let id = WriteId::new(1);
        assert!(pm.try_admit(id, &mut w));
        let after_reset = pm.ledger().dimm_available().unwrap();
        let _ = after_reset;
        assert_eq!(after_reset, Tokens::from_cells(460));
        w.advance();
        assert!(pm.try_advance(id, &w));
        // First SET holds 100 / 2 = 50 tokens (plus per-chip ceil rounding,
        // at most half a token per chip).
        let held = Tokens::from_cells(560) - pm.ledger().dimm_available().unwrap();
        assert!(
            held >= Tokens::from_cells(50) && held <= Tokens::from_cells(54),
            "first SET hold = {held}"
        );
        // Subsequent allocations never grow.
        let mut last = held;
        loop {
            w.advance();
            if w.is_complete() {
                pm.release(id);
                break;
            }
            assert!(pm.try_advance(id, &w));
            let held = Tokens::from_cells(560) - pm.ledger().dimm_available().unwrap();
            assert!(held <= last, "allocation grew: {held} > {last}");
            last = held;
        }
        assert_eq!(
            pm.ledger().dimm_available().unwrap(),
            Tokens::from_cells(560)
        );
    }

    #[test]
    fn multi_reset_admits_blocked_write() {
        // Fig. 6: APT 30 (80 minus WR-A's 50), WR-B needs 60 — refused
        // whole, admitted after splitting into 3 group-RESETs.
        let power = PowerConfig {
            pt_dimm: 80,
            ..PowerConfig::default()
        };
        let cfg = PowerPolicyConfig {
            ipm: true,
            multi_reset_splits: 3,
            ..PowerPolicyConfig::dimm_only(&power, 8)
        };
        let mut pm = PowerManager::new(cfg, &geom());
        // WR-A: 50 spread-out cells.
        let mut a = write_of(50, MlcLevel::L01, 4);
        assert!(pm.try_admit(WriteId::new(1), &mut a));
        // WR-B: 60 cells spread across the chunk so groups split ~20/20/20.
        let cs: ChangeSet = (0..60u32).map(|i| (i * 17 % 1024, MlcLevel::L01)).collect();
        let mut rng = SimRng::seed_from(5);
        let mut b = LineWrite::new(&cs, &geom(), CellMapping::Bim, &sampler(), &mut rng, 1);
        assert!(pm.try_admit(WriteId::new(2), &mut b));
        assert_eq!(b.reset_groups(), 3, "B must have been split");
        assert_eq!(pm.stats().multi_reset_splits(), 1);
    }

    #[test]
    fn refusals_keep_the_epoch_and_repeat_without_the_ledger() {
        // APT 30 (80 minus WR-A's 50): WR-B's 150 cells are refused whole,
        // resplit into 3 group-RESETs of ~50, and refused again.
        let power = PowerConfig {
            pt_dimm: 80,
            ..PowerConfig::default()
        };
        let cfg = PowerPolicyConfig {
            ipm: true,
            multi_reset_splits: 3,
            ..PowerPolicyConfig::dimm_only(&power, 8)
        };
        let mut pm = PowerManager::new(cfg, &geom());
        let (a_id, b_id) = (WriteId::new(1), WriteId::new(2));
        let mut a = write_of(50, MlcLevel::L01, 4);
        assert!(pm.try_admit(a_id, &mut a));
        let epoch = pm.epoch;
        let mut b = write_of(150, MlcLevel::L01, 5);
        let mut memo = AdmitMemo::default();
        assert!(!pm.try_admit_memoized(b_id, &mut b, &mut memo));
        assert_eq!(b.reset_groups(), 3, "the refusal resplit B");
        assert_eq!(pm.epoch, epoch, "a refused resplit changes nothing");
        assert!(!pm.try_admit(b_id, &mut b));
        assert_eq!(pm.epoch, epoch, "a plain refusal changes nothing");
        // The repeat is answered from the memo, and counted like the real
        // attempt (debug builds re-run it on clones).
        assert!(!pm.try_admit_memoized(b_id, &mut b, &mut memo));
        assert_eq!(pm.stats().admission_failures(), 3);
        assert_eq!(pm.stats().multi_reset_splits(), 1);
        pm.release(b_id);
        assert_eq!(pm.epoch, epoch, "a release without a hold changes nothing");
        pm.release(a_id);
        assert!(pm.try_admit_memoized(b_id, &mut b, &mut memo));
        assert_eq!(memo, AdmitMemo::default(), "admission clears the memo");
    }

    #[test]
    fn grants_releases_and_brownout_edges_move_the_epoch() {
        fn moves(pm: &mut PowerManager, what: &str, f: impl FnOnce(&mut PowerManager)) {
            let before = pm.epoch;
            f(pm);
            assert!(pm.epoch > before, "{what} must move the epoch");
        }
        let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
        let mut pm = PowerManager::new(cfg, &geom());
        let id = WriteId::new(1);
        let mut w = write_of(100, MlcLevel::L01, 3);
        moves(&mut pm, "a grant", |pm| assert!(pm.try_admit(id, &mut w)));
        w.advance();
        moves(&mut pm, "an advance", |pm| assert!(pm.try_advance(id, &w)));
        moves(&mut pm, "a release of a hold", |pm| pm.release(id));
        moves(&mut pm, "a brownout start", |pm| pm.begin_brownout(0.5));
        moves(&mut pm, "a brownout end", PowerManager::end_brownout);
    }

    #[test]
    fn chip_budget_refuses_hot_chip_writes() {
        // All changes on one chip exceed PT_LCP = 66.5.
        let cfg = PowerPolicyConfig::dimm_chip(&PowerConfig::default(), 8);
        let mut pm = PowerManager::new(cfg, &geom());
        // Chip 0 under VIM holds cells 0, 8, 16, ... — 80 of them is over
        // budget.
        let cs: ChangeSet = (0..80u32).map(|i| (i * 8, MlcLevel::L01)).collect();
        let mut rng = SimRng::seed_from(6);
        let mut w = LineWrite::new(&cs, &geom(), CellMapping::Vim, &sampler(), &mut rng, 1);
        assert!(!pm.try_admit(WriteId::new(1), &mut w));
        assert_eq!(pm.stats().admission_failures(), 1);
    }

    #[test]
    fn gcp_rescues_hot_chip_writes() {
        let cfg = PowerPolicyConfig::gcp_only(&PowerConfig::default(), 8);
        let mut pm = PowerManager::new(cfg, &geom());
        let cs: ChangeSet = (0..60u32).map(|i| (i * 8, MlcLevel::L01)).collect();
        let mut rng = SimRng::seed_from(7);
        // First saturate chip 0 with a hold.
        let hot: ChangeSet = (0..66u32).map(|i| (i * 8, MlcLevel::L01)).collect();
        let mut w1 = LineWrite::new(&hot, &geom(), CellMapping::Vim, &sampler(), &mut rng, 1);
        assert!(pm.try_admit(WriteId::new(1), &mut w1));
        // Second hot-chip write must ride the GCP.
        let mut w2 = LineWrite::new(&cs, &geom(), CellMapping::Vim, &sampler(), &mut rng, 1);
        assert!(pm.try_admit(WriteId::new(2), &mut w2));
        assert!(pm.stats().gcp_grants() > 0);
        assert!(pm.stats().peak_gcp_tokens() >= 60);
    }

    #[test]
    fn release_is_idempotent_and_restores_budget() {
        let cfg = PowerPolicyConfig::dimm_chip(&PowerConfig::default(), 8);
        let mut pm = PowerManager::new(cfg, &geom());
        let mut w = write_of(200, MlcLevel::L10, 8);
        let id = WriteId::new(1);
        assert!(pm.try_admit(id, &mut w));
        assert!(pm.holds_tokens(id));
        pm.release(id);
        pm.release(id); // no-op
        assert!(!pm.holds_tokens(id));
        assert_eq!(
            pm.ledger().dimm_available().unwrap(),
            Tokens::from_cells(560)
        );
    }

    #[test]
    fn full_fpb_completes_many_writes_and_conserves_tokens() {
        let cfg = PowerPolicyConfig::fpb(&PowerConfig::default(), 8);
        let mut pm = PowerManager::new(cfg, &geom());
        for i in 0..50 {
            let mut w = write_of(50 + (i as u32 * 13) % 300, MlcLevel::L01, 100 + i);
            drive_to_completion(&mut pm, WriteId::new(i), &mut w);
        }
        // Ledger fully restored.
        assert_eq!(
            pm.ledger().dimm_available().unwrap(),
            Tokens::from_cells(560)
        );
        for i in 0..8 {
            assert_eq!(
                pm.ledger().chip_available(i),
                Tokens::from_millis(66_500),
                "chip {i}"
            );
        }
        assert_eq!(
            pm.ledger().gcp_available(),
            Some(Tokens::from_millis(66_500))
        );
    }

    #[test]
    fn stalled_write_holds_nothing() {
        let power = PowerConfig {
            pt_dimm: 60,
            ..PowerConfig::default()
        };
        let cfg = PowerPolicyConfig {
            ipm: true,
            ..PowerPolicyConfig::dimm_only(&power, 8)
        };
        let mut pm = PowerManager::new(cfg, &geom());
        let mut a = write_of(55, MlcLevel::L01, 9);
        assert!(pm.try_admit(WriteId::new(1), &mut a));
        a.advance();
        assert!(pm.try_advance(WriteId::new(1), &a));
        // Fill the rest of the budget with another write, then force A to
        // need more than remains.
        let mut b = write_of(30, MlcLevel::L00, 10);
        assert!(pm.try_admit(WriteId::new(2), &mut b));
        // A currently holds ~28 tokens (55/2). B holds 30. Now make A's
        // next allocation impossible by checking a fresh oversized write.
        let mut c = write_of(40, MlcLevel::L01, 11);
        assert!(!pm.try_admit(WriteId::new(3), &mut c));
        assert!(!pm.holds_tokens(WriteId::new(3)));
    }
}
