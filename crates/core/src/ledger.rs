//! The token ledger: DIMM, per-chip, and GCP budgets with borrowing.
//!
//! All quantities are [`Tokens`] (millitoken fixed point). The ledger
//! enforces three nested constraints:
//!
//! 1. **DIMM raw budget** — total raw power drawn from the DIMM supply
//!    (`PT_DIMM`, §2.1.2). With unscaled chip budgets this is implied by
//!    the chip constraints; with 1.5×/2× local pumps it binds separately.
//! 2. **Per-chip usable budgets** — each chip's local charge pump delivers
//!    at most `PT_LCP = PT_DIMM × E_LCP / chips` usable tokens (Eq. 4).
//! 3. **GCP capacity and borrowing** — the global pump converts borrowed
//!    chip headroom into usable power for hot chips at `E_GCP` (Eq. 5),
//!    capped at one LCP's output.

use fpb_types::{LedgerDomain, LedgerError, Tokens};

/// Multiplies `t` by an efficiency in `(0, 1]`, rounding **up** — used when
/// the result is an obligation (borrowed power) that must not be
/// understated.
fn mul_eff_ceil(t: Tokens, eff: f64) -> Tokens {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rounded up to whole millitokens; `eff <= 1` keeps it within `t`"
    )]
    let millis = (t.millis() as f64 * eff).ceil() as u64;
    Tokens::from_millis(millis)
}

/// A committed allocation returned by [`Ledger::try_grant_chips`] or [`Ledger::try_grant_flat`].
///
/// Holds exactly what was deducted so [`Ledger::release`] can return it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Grant {
    /// Usable tokens served per chip by its local pump (empty in flat
    /// mode).
    pub lcp: Vec<Tokens>,
    /// Usable tokens served per chip by the global pump (empty when no
    /// chip used the GCP).
    pub gcp: Vec<Tokens>,
    /// Total usable GCP output in this grant.
    pub gcp_total: Tokens,
    /// Raw GCP draw (`gcp_total / E_GCP`).
    pub gcp_raw: Tokens,
    /// Usable tokens borrowed from each chip's headroom to feed the GCP.
    pub borrowed: Vec<Tokens>,
    /// Raw power deducted from the DIMM ledger.
    pub dimm_raw: Tokens,
    /// Usable tokens deducted in flat (no-chip-budget) mode.
    pub flat: Tokens,
}

impl Grant {
    /// True if this grant used the global charge pump.
    pub fn used_gcp(&self) -> bool {
        !self.gcp_total.is_zero()
    }
}

/// Tokens withheld from every domain while a charge-pump brownout is in
/// force (see [`Ledger::begin_brownout`]).
///
/// The hold records *exactly* what was deducted, per domain, so ending the
/// brownout restores the ledger bit-for-bit — conservation holds even when
/// a window begins while grants are outstanding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BrownoutHold {
    /// Raw DIMM tokens withheld.
    pub dimm: Tokens,
    /// Usable tokens withheld from each chip's local pump.
    pub chips: Vec<Tokens>,
    /// Usable GCP capacity withheld.
    pub gcp: Tokens,
}

impl BrownoutHold {
    /// Total millitokens withheld across all domains (for metrics).
    pub fn total_millis(&self) -> u64 {
        self.dimm.millis() + self.chips.iter().map(|t| t.millis()).sum::<u64>() + self.gcp.millis()
    }
}

/// The live token ledger.
///
/// # Examples
///
/// ```
/// use fpb_core::Ledger;
/// use fpb_types::Tokens;
///
/// // Flat DIMM-only ledger: 80 tokens.
/// let mut l = Ledger::flat(80);
/// let g = l.try_grant_flat(Tokens::from_cells(50)).unwrap();
/// assert!(l.try_grant_flat(Tokens::from_cells(40)).is_none());
/// l.release(&g).unwrap();
/// assert!(l.try_grant_flat(Tokens::from_cells(40)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Raw DIMM availability (`None` = unlimited).
    dimm_avail: Option<Tokens>,
    dimm_cap: Tokens,
    /// Usable per-chip availability (empty = chip budgets not enforced).
    chips_avail: Vec<Tokens>,
    chip_cap: Tokens,
    /// Usable GCP availability (`None` = no GCP).
    gcp_avail: Option<Tokens>,
    gcp_cap: Tokens,
    e_lcp: f64,
    /// Effective GCP efficiency per chip (uniform without per-chip
    /// regulation; see `GcpParams::chip_efficiencies`).
    e_gcp: Vec<f64>,
    /// Tokens currently withheld by an active brownout window.
    brownout: Option<BrownoutHold>,
    /// Reusable planning buffers for [`Ledger::try_grant_chips`]. Grant
    /// planning runs on every admission attempt — including refused ones,
    /// which the scheduler retries each pass — so the plan must not
    /// allocate. Only a successful grant pays for the `Grant`'s own vecs.
    scratch: GrantScratch,
}

/// Reusable buffers for grant planning (see [`Ledger::try_grant_chips`]).
/// Every use clears or overwrites the fields first.
#[derive(Debug, Clone, Default)]
struct GrantScratch {
    lcp: Vec<Tokens>,
    gcp: Vec<Tokens>,
    borrowed: Vec<Tokens>,
    order: Vec<usize>,
    /// Spent grants returned via [`Ledger::recycle_grant`], reused so a
    /// successful grant does not allocate its three vectors. Bounded by
    /// the number of concurrently held grants (one per in-flight write).
    free: Vec<Grant>,
}

impl Ledger {
    /// Unlimited ledger (the Ideal scheme).
    pub fn unlimited() -> Self {
        Ledger {
            dimm_avail: None,
            dimm_cap: Tokens::ZERO,
            chips_avail: Vec::new(),
            chip_cap: Tokens::ZERO,
            gcp_avail: None,
            gcp_cap: Tokens::ZERO,
            e_lcp: 1.0,
            e_gcp: Vec::new(),
            brownout: None,
            scratch: GrantScratch::default(),
        }
    }

    /// Flat DIMM-only ledger of `pt_dimm` whole tokens (Hay et al.'s
    /// accounting: usable = raw).
    pub fn flat(pt_dimm: u64) -> Self {
        let cap = Tokens::from_cells(pt_dimm);
        Ledger {
            dimm_avail: Some(cap),
            dimm_cap: cap,
            ..Ledger::unlimited()
        }
    }

    /// Full ledger with per-chip budgets and optionally a GCP.
    ///
    /// `chip_budget_millis` is each chip's usable budget (Eq. 4 with any
    /// scale factor applied); `gcp` is `(E_GCP, capacity in usable
    /// millitokens)`.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or an efficiency is out of `(0, 1]`.
    pub fn with_chips(
        pt_dimm: u64,
        chips: u8,
        chip_budget_millis: u64,
        e_lcp: f64,
        gcp: Option<(f64, u64)>,
    ) -> Self {
        assert!(chips > 0, "chips must be nonzero");
        assert!(e_lcp > 0.0 && e_lcp <= 1.0, "e_lcp must be in (0, 1]");
        let chip_cap = Tokens::from_millis(chip_budget_millis);
        let dimm_cap = Tokens::from_cells(pt_dimm);
        let (gcp_avail, gcp_cap, e_gcp) = match gcp {
            Some((e, cap_millis)) => {
                assert!(e > 0.0 && e <= 1.0, "e_gcp must be in (0, 1]");
                let cap = Tokens::from_millis(cap_millis);
                (Some(cap), cap, vec![e; chips as usize])
            }
            None => (None, Tokens::ZERO, Vec::new()),
        };
        Ledger {
            dimm_avail: Some(dimm_cap),
            dimm_cap,
            chips_avail: vec![chip_cap; chips as usize],
            chip_cap,
            gcp_avail,
            gcp_cap,
            e_lcp,
            e_gcp,
            brownout: None,
            scratch: GrantScratch::default(),
        }
    }

    /// True if this ledger enforces per-chip budgets.
    pub fn has_chip_budgets(&self) -> bool {
        !self.chips_avail.is_empty()
    }

    /// True if this ledger has a global charge pump.
    pub fn has_gcp(&self) -> bool {
        self.gcp_avail.is_some()
    }

    /// Overrides the per-chip GCP efficiencies (per-chip output
    /// regulation, §4.2).
    ///
    /// # Panics
    ///
    /// Panics if the ledger has no GCP, the length mismatches the chip
    /// count, or any efficiency is outside `(0, 1]`.
    pub fn set_gcp_efficiencies(&mut self, eff: Vec<f64>) {
        assert!(self.has_gcp(), "ledger has no GCP");
        assert_eq!(eff.len(), self.chips_avail.len(), "chip count mismatch");
        assert!(
            eff.iter().all(|&e| e > 0.0 && e <= 1.0),
            "efficiencies must be in (0, 1]"
        );
        self.e_gcp = eff;
    }

    /// Remaining raw DIMM budget (`None` if unlimited).
    pub fn dimm_available(&self) -> Option<Tokens> {
        self.dimm_avail
    }

    /// Remaining usable budget of chip `i`.
    ///
    /// # Panics
    ///
    /// Panics if chip budgets are not enforced or `i` is out of range.
    pub fn chip_available(&self, i: usize) -> Tokens {
        self.chips_avail[i]
    }

    /// Remaining usable GCP capacity (`None` if no GCP).
    pub fn gcp_available(&self) -> Option<Tokens> {
        self.gcp_avail
    }

    /// Grants a flat (no chip accounting) allocation of `usable` tokens.
    /// Used for DIMM-only and Ideal policies. Returns `None` (and changes
    /// nothing) if the budget is insufficient.
    #[must_use = "a grant holds its tokens until it is released"]
    pub fn try_grant_flat(&mut self, usable: Tokens) -> Option<Grant> {
        match self.dimm_avail {
            None => Some(Grant {
                flat: usable,
                ..Grant::default()
            }),
            Some(avail) => {
                let rest = avail.checked_sub(usable)?;
                self.dimm_avail = Some(rest);
                Some(Grant {
                    flat: usable,
                    dimm_raw: usable,
                    ..Grant::default()
                })
            }
        }
    }

    /// Grants a per-chip allocation. Each chip's demand is served by its
    /// LCP if it has headroom, otherwise entirely by the GCP (one segment
    /// never splits across pumps, §4.1). GCP output is capped and must be
    /// borrowed from other chips' headroom at the efficiency cost of
    /// Eq. 5. Returns `None` (and changes nothing) if any constraint
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `per_chip` length differs from the chip count, or chip
    /// budgets are not enforced.
    #[must_use = "a grant holds its tokens until it is released"]
    pub fn try_grant_chips(&mut self, per_chip: &[Tokens]) -> Option<Grant> {
        assert!(
            self.has_chip_budgets(),
            "try_grant_chips requires chip budgets"
        );
        assert_eq!(
            per_chip.len(),
            self.chips_avail.len(),
            "chip count mismatch"
        );

        // Phase 1: plan LCP vs GCP per chip, into the reusable scratch
        // buffers — a refused grant must not allocate (the scheduler
        // retries parked writes every pass, so refusals dominate under
        // contention).
        let n = per_chip.len();
        self.scratch.lcp.clear();
        self.scratch.lcp.resize(n, Tokens::ZERO);
        self.scratch.gcp.clear();
        self.scratch.gcp.resize(n, Tokens::ZERO);
        let mut gcp_total = Tokens::ZERO;
        for (i, &demand) in per_chip.iter().enumerate() {
            if demand.is_zero() {
                continue;
            }
            if self.chips_avail[i] >= demand {
                self.scratch.lcp[i] = demand;
            } else {
                self.scratch.gcp[i] = demand;
                gcp_total += demand;
            }
        }

        // Phase 2: GCP feasibility. Each served segment pays its own
        // chip's conversion efficiency (uniform unless regulated).
        self.scratch.borrowed.clear();
        self.scratch.borrowed.resize(n, Tokens::ZERO);
        let mut gcp_raw = Tokens::ZERO;
        if !gcp_total.is_zero() {
            let avail = self.gcp_avail?;
            if avail < gcp_total {
                return None;
            }
            gcp_raw = self
                .scratch
                .gcp
                .iter()
                .enumerate()
                .filter(|(_, d)| !d.is_zero())
                .map(|(i, d)| d.scale_up(self.e_gcp[i]))
                .sum();
            // Eq. 5 inverted: usable borrowed b with Σb/E_LCP = raw draw.
            let mut need = mul_eff_ceil(gcp_raw, self.e_lcp);
            // Borrow greedily from the chips with the most headroom.
            self.scratch.order.clear();
            self.scratch.order.extend(0..n);
            self.scratch.order.sort_by_key(|&i| {
                std::cmp::Reverse(self.chips_avail[i].saturating_sub(self.scratch.lcp[i]))
            });
            for k in 0..n {
                if need.is_zero() {
                    break;
                }
                let i = self.scratch.order[k];
                let headroom = self.chips_avail[i].saturating_sub(self.scratch.lcp[i]);
                let take = headroom.min(need);
                self.scratch.borrowed[i] = take;
                need = need.saturating_sub(take);
            }
            if !need.is_zero() {
                return None;
            }
        }

        // Phase 3: DIMM raw constraint.
        let lcp_total: Tokens = self.scratch.lcp.iter().copied().sum();
        let dimm_raw = lcp_total.scale_up(self.e_lcp) + gcp_raw;
        if let Some(avail) = self.dimm_avail {
            if avail < dimm_raw {
                return None;
            }
        }

        // Commit. Only now does the grant pay for its own vectors.
        for i in 0..n {
            self.chips_avail[i] =
                self.chips_avail[i] - self.scratch.lcp[i] - self.scratch.borrowed[i];
        }
        if !gcp_total.is_zero() {
            self.gcp_avail = self.gcp_avail.map(|avail| avail - gcp_total);
        }
        if let Some(avail) = self.dimm_avail {
            self.dimm_avail = Some(avail - dimm_raw);
        }
        let mut grant = self.scratch.free.pop().unwrap_or_default();
        grant.lcp.clear();
        grant.lcp.extend_from_slice(&self.scratch.lcp);
        grant.gcp.clear();
        grant.gcp.extend_from_slice(&self.scratch.gcp);
        grant.borrowed.clear();
        grant.borrowed.extend_from_slice(&self.scratch.borrowed);
        grant.gcp_total = gcp_total;
        grant.gcp_raw = gcp_raw;
        grant.dimm_raw = dimm_raw;
        grant.flat = Tokens::ZERO;
        Some(grant)
    }

    /// Returns a spent grant's backing storage to the ledger so the next
    /// [`Ledger::try_grant_chips`] reuses it instead of allocating.
    /// Optional: an unrecycled grant is simply dropped.
    pub fn recycle_grant(&mut self, grant: Grant) {
        self.scratch.free.push(grant);
    }

    /// Returns a grant's tokens to the ledger.
    ///
    /// On an over-release (more tokens coming back than are outstanding —
    /// i.e. a double release), the budget is clamped at capacity and the
    /// first violated domain is reported; the ledger stays internally
    /// consistent either way. Capacity here accounts for any tokens a
    /// brownout window is currently withholding, so releasing a
    /// pre-brownout grant during a window is not a false positive.
    pub fn release(&mut self, grant: &Grant) -> Result<(), LedgerError> {
        let mut first_err: Option<LedgerError> = None;
        let mut violate = |domain, released: Tokens, headroom: Tokens| {
            if first_err.is_none() {
                first_err = Some(LedgerError::OverRelease {
                    domain,
                    released_millis: released.millis(),
                    headroom_millis: headroom.millis(),
                });
            }
        };
        // Take the hold out rather than cloning it (a live brownout would
        // otherwise cost a Vec allocation on every release) and restore it
        // before returning; nothing below touches `self.brownout`.
        let hold_opt = self.brownout.take();
        let hold = hold_opt.as_ref();
        if let Some(avail) = self.dimm_avail {
            let held = hold.map_or(Tokens::ZERO, |h| h.dimm);
            let cap = self.dimm_cap.saturating_sub(held);
            let back = avail + grant.dimm_raw;
            if back > cap {
                violate(
                    LedgerDomain::Dimm,
                    grant.dimm_raw,
                    cap.saturating_sub(avail),
                );
            }
            self.dimm_avail = Some(back.min(cap));
        }
        for i in 0..grant.lcp.len() {
            let held = hold
                .and_then(|h| h.chips.get(i))
                .copied()
                .unwrap_or(Tokens::ZERO);
            let cap = self.chip_cap.saturating_sub(held);
            let returned = grant.lcp[i] + grant.borrowed[i];
            let back = self.chips_avail[i] + returned;
            if back > cap {
                violate(
                    LedgerDomain::Chip(i),
                    returned,
                    cap.saturating_sub(self.chips_avail[i]),
                );
            }
            self.chips_avail[i] = back.min(cap);
        }
        if !grant.gcp_total.is_zero() {
            if let Some(avail) = self.gcp_avail {
                let held = hold.map_or(Tokens::ZERO, |h| h.gcp);
                let cap = self.gcp_cap.saturating_sub(held);
                let back = avail + grant.gcp_total;
                if back > cap {
                    violate(
                        LedgerDomain::Gcp,
                        grant.gcp_total,
                        cap.saturating_sub(avail),
                    );
                }
                self.gcp_avail = Some(back.min(cap));
            }
        }
        self.brownout = hold_opt;
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Enters a brownout window: every budgeted domain is shrunk to
    /// `keep_fraction` of its capacity by withholding tokens from its
    /// *current availability* (§2.1.2–§2.1.3 model the charge pumps as the
    /// scarce supply; a sag hits all of them).
    ///
    /// Only currently-available tokens are withheld — in-flight grants
    /// cannot be clawed back, so a window starting under load sheds less
    /// than the nominal amount. The exact deduction is recorded and
    /// returned to the ledger by [`Ledger::end_brownout`]. Calling this
    /// while a window is already in force is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `[0, 1]`.
    pub fn begin_brownout(&mut self, keep_fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&keep_fraction),
            "keep_fraction must be in [0, 1]"
        );
        if self.brownout.is_some() {
            return;
        }
        let shed = 1.0 - keep_fraction;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "rounded to whole millitokens; `shed <= 1` keeps it within `cap`"
        )]
        let target = |cap: Tokens| Tokens::from_millis((cap.millis() as f64 * shed).round() as u64);
        let mut hold = BrownoutHold {
            chips: vec![Tokens::ZERO; self.chips_avail.len()],
            ..BrownoutHold::default()
        };
        if let Some(avail) = self.dimm_avail {
            let w = target(self.dimm_cap).min(avail);
            self.dimm_avail = Some(avail.saturating_sub(w));
            hold.dimm = w;
        }
        for (i, avail) in self.chips_avail.iter_mut().enumerate() {
            let w = target(self.chip_cap).min(*avail);
            *avail = avail.saturating_sub(w);
            hold.chips[i] = w;
        }
        if let Some(avail) = self.gcp_avail {
            let w = target(self.gcp_cap).min(avail);
            self.gcp_avail = Some(avail.saturating_sub(w));
            hold.gcp = w;
        }
        self.brownout = Some(hold);
    }

    /// Ends the brownout window, returning exactly the withheld tokens to
    /// each domain. A no-op when no window is in force.
    pub fn end_brownout(&mut self) {
        let Some(hold) = self.brownout.take() else {
            return;
        };
        if let Some(avail) = self.dimm_avail {
            self.dimm_avail = Some(avail + hold.dimm);
        }
        for (avail, &w) in self.chips_avail.iter_mut().zip(hold.chips.iter()) {
            *avail += w;
        }
        if let Some(avail) = self.gcp_avail {
            self.gcp_avail = Some(avail + hold.gcp);
        }
    }

    /// True while a brownout window is withholding tokens.
    pub fn in_brownout(&self) -> bool {
        self.brownout.is_some()
    }

    /// The tokens the active brownout window is withholding, if any.
    pub fn brownout_hold(&self) -> Option<&BrownoutHold> {
        self.brownout.as_ref()
    }

    /// Verifies token conservation: for every budgeted domain,
    /// `available + outstanding + withheld` must equal capacity exactly.
    ///
    /// The caller supplies the outstanding sums from its grant records
    /// (`outstanding_chips[i]` is chip `i`'s LCP *plus borrowed* tokens
    /// across all held grants). Unlimited domains are exempt. Returns the
    /// first domain whose books do not balance.
    ///
    /// # Panics
    ///
    /// Panics if chip budgets are enforced and `outstanding_chips` length
    /// differs from the chip count.
    pub fn audit(
        &self,
        outstanding_dimm_raw: Tokens,
        outstanding_chips: &[Tokens],
        outstanding_gcp: Tokens,
    ) -> Result<(), LedgerError> {
        let hold = self.brownout.as_ref();
        if let Some(avail) = self.dimm_avail {
            let actual = avail + outstanding_dimm_raw + hold.map_or(Tokens::ZERO, |h| h.dimm);
            if actual != self.dimm_cap {
                return Err(LedgerError::Unbalanced {
                    domain: LedgerDomain::Dimm,
                    expected_millis: self.dimm_cap.millis(),
                    actual_millis: actual.millis(),
                });
            }
        }
        if self.has_chip_budgets() {
            assert_eq!(
                outstanding_chips.len(),
                self.chips_avail.len(),
                "chip count mismatch"
            );
            for (i, (&avail, &out)) in self
                .chips_avail
                .iter()
                .zip(outstanding_chips.iter())
                .enumerate()
            {
                let held = hold
                    .and_then(|h| h.chips.get(i))
                    .copied()
                    .unwrap_or(Tokens::ZERO);
                let actual = avail + out + held;
                if actual != self.chip_cap {
                    return Err(LedgerError::Unbalanced {
                        domain: LedgerDomain::Chip(i),
                        expected_millis: self.chip_cap.millis(),
                        actual_millis: actual.millis(),
                    });
                }
            }
        }
        if let Some(avail) = self.gcp_avail {
            let actual = avail + outstanding_gcp + hold.map_or(Tokens::ZERO, |h| h.gcp);
            if actual != self.gcp_cap {
                return Err(LedgerError::Unbalanced {
                    domain: LedgerDomain::Gcp,
                    expected_millis: self.gcp_cap.millis(),
                    actual_millis: actual.millis(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cells: u64) -> Tokens {
        Tokens::from_cells(cells)
    }

    /// Baseline-like ledger: 560 DIMM tokens, 8 chips at 66.5 usable each.
    fn baseline(gcp: Option<(f64, u64)>) -> Ledger {
        Ledger::with_chips(560, 8, 66_500, 0.95, gcp)
    }

    #[test]
    fn flat_ledger_enforces_dimm_budget() {
        let mut l = Ledger::flat(80);
        let a = l.try_grant_flat(t(50)).unwrap();
        assert_eq!(l.dimm_available(), Some(t(30)));
        assert!(l.try_grant_flat(t(40)).is_none());
        let b = l.try_grant_flat(t(30)).unwrap();
        assert_eq!(l.dimm_available(), Some(Tokens::ZERO));
        l.release(&a).unwrap();
        l.release(&b).unwrap();
        assert_eq!(l.dimm_available(), Some(t(80)));
    }

    #[test]
    fn unlimited_ledger_never_refuses() {
        let mut l = Ledger::unlimited();
        for _ in 0..100 {
            assert!(l.try_grant_flat(t(10_000)).is_some());
        }
        assert_eq!(l.dimm_available(), None);
    }

    #[test]
    fn chip_budget_blocks_hot_chip() {
        // Fig. 3's scenario: per-chip budget 4 tokens; WR-B needs 5 on one
        // chip even though the DIMM has room.
        let mut l = Ledger::with_chips(12, 3, 4_000, 1.0, None);
        let wr_a = [t(1), t(2), t(1)];
        assert!(l.try_grant_chips(&wr_a).is_some());
        let wr_b = [t(0), t(3), t(2)];
        // Chip 1 has 4 - 2 = 2 left but B needs 3 there: refused.
        assert!(l.try_grant_chips(&wr_b).is_none());
    }

    #[test]
    fn gcp_unblocks_hot_chip_by_borrowing() {
        // Same scenario with a GCP of 4 usable tokens (Fig. 8).
        let mut l = Ledger::with_chips(12, 3, 4_000, 1.0, Some((1.0, 4_000)));
        l.try_grant_chips(&[t(1), t(2), t(1)]).unwrap();
        let g = l.try_grant_chips(&[t(0), t(3), t(2)]).unwrap();
        assert!(g.used_gcp());
        assert_eq!(g.gcp[1], t(3), "chip 1's segment served by GCP");
        assert_eq!(g.lcp[2], t(2), "chip 2's segment served locally");
        // Borrowing took 3 usable tokens from other chips' headroom.
        assert_eq!(g.borrowed.iter().copied().sum::<Tokens>(), t(3));
    }

    #[test]
    fn gcp_capacity_caps_output() {
        let mut l = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.95, 66_500)));
        // Demand 67 tokens on chip 0: over the LCP, to the GCP — but also
        // over the GCP cap of 66.5.
        let mut d = vec![Tokens::ZERO; 8];
        d[0] = t(67);
        assert!(l.try_grant_chips(&d).is_none());
        d[0] = Tokens::from_millis(66_500);
        assert!(l.try_grant_chips(&d).is_some());
    }

    #[test]
    fn gcp_borrowing_costs_efficiency() {
        // E_GCP = 0.5: delivering 10 usable tokens needs 20 raw, i.e. 19
        // usable borrowed at E_LCP = 0.95.
        let mut l = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.5, 66_500)));
        let mut d = vec![Tokens::ZERO; 8];
        // Exhaust chip 0 so its next demand must use the GCP.
        d[0] = Tokens::from_millis(66_500);
        let _hold = l.try_grant_chips(&d).unwrap();
        let mut d2 = vec![Tokens::ZERO; 8];
        d2[0] = t(10);
        let g = l.try_grant_chips(&d2).unwrap();
        assert_eq!(g.gcp_total, t(10));
        assert_eq!(g.gcp_raw, t(20));
        let borrowed: Tokens = g.borrowed.iter().copied().sum();
        assert_eq!(borrowed, t(19));
        // The hot chip itself has nothing left to lend.
        assert!(g.borrowed[0].is_zero());
    }

    #[test]
    fn borrowing_fails_when_no_headroom() {
        let mut l = Ledger::with_chips(560, 2, 10_000, 1.0, Some((0.5, 10_000)));
        // Fill both chips completely.
        let hold = l.try_grant_chips(&[t(10), t(10)]).unwrap();
        // Now any GCP use has nothing to borrow from.
        assert!(l.try_grant_chips(&[t(1), Tokens::ZERO]).is_none());
        l.release(&hold).unwrap();
        assert!(l.try_grant_chips(&[t(1), Tokens::ZERO]).is_some());
    }

    #[test]
    fn dimm_raw_binds_with_scaled_chips() {
        // 2×local: chips can each deliver 20 usable (raw 20 at e=1.0), but
        // the DIMM raw cap is only 30.
        let mut l = Ledger::with_chips(30, 2, 20_000, 1.0, None);
        let a = l.try_grant_chips(&[t(20), Tokens::ZERO]).unwrap();
        // Chip 1 alone could serve 20 more, but DIMM raw has only 10 left.
        assert!(l.try_grant_chips(&[Tokens::ZERO, t(20)]).is_none());
        assert!(l.try_grant_chips(&[Tokens::ZERO, t(10)]).is_some());
        l.release(&a).unwrap();
    }

    #[test]
    fn release_restores_everything() {
        let mut l = baseline(Some((0.7, 66_500)));
        let before_dimm = l.dimm_available().unwrap();
        let before_chips: Vec<Tokens> = (0..8).map(|i| l.chip_available(i)).collect();
        let mut d = vec![t(5); 8];
        d[3] = Tokens::from_millis(66_500); // force chip 3 over budget? no — exactly at budget
        let g1 = l.try_grant_chips(&d).unwrap();
        // Second grant on chip 3 must go through the GCP.
        let mut d2 = vec![Tokens::ZERO; 8];
        d2[3] = t(4);
        let g2 = l.try_grant_chips(&d2).unwrap();
        assert!(g2.used_gcp());
        l.release(&g2).unwrap();
        l.release(&g1).unwrap();
        assert_eq!(l.dimm_available().unwrap(), before_dimm);
        for (i, before) in before_chips.iter().enumerate() {
            assert_eq!(l.chip_available(i), *before, "chip {i}");
        }
        assert_eq!(l.gcp_available(), Some(Tokens::from_millis(66_500)));
    }

    #[test]
    fn failed_grant_changes_nothing() {
        let mut l = baseline(None);
        let before: Vec<Tokens> = (0..8).map(|i| l.chip_available(i)).collect();
        let mut d = vec![Tokens::ZERO; 8];
        d[0] = t(100); // over the 66.5 chip budget, no GCP
        assert!(l.try_grant_chips(&d).is_none());
        for (i, b) in before.iter().enumerate() {
            assert_eq!(l.chip_available(i), *b, "chip {i} must be untouched");
        }
        assert_eq!(l.dimm_available().unwrap(), Tokens::from_cells(560));
    }

    #[test]
    fn zero_demand_grant_is_free() {
        let mut l = baseline(None);
        let g = l.try_grant_chips(&[Tokens::ZERO; 8]).unwrap();
        assert!(!g.used_gcp());
        assert!(g.dimm_raw.is_zero());
        l.release(&g).unwrap();
    }

    #[test]
    fn regulated_efficiencies_cut_raw_draw() {
        // Uniform 0.5 efficiency vs regulation ramping 0.7 -> 0.5.
        let mut uniform = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.5, 66_500)));
        let mut regulated = Ledger::with_chips(560, 8, 66_500, 0.95, Some((0.5, 66_500)));
        regulated.set_gcp_efficiencies(vec![0.7, 0.67, 0.64, 0.61, 0.58, 0.55, 0.52, 0.5]);
        // Exhaust chip 0 on both, then route 10 tokens through the GCP.
        let mut full = vec![Tokens::ZERO; 8];
        full[0] = Tokens::from_millis(66_500);
        let _hold_u = uniform.try_grant_chips(&full).unwrap();
        let _hold_r = regulated.try_grant_chips(&full).unwrap();
        let mut d = vec![Tokens::ZERO; 8];
        d[0] = t(10);
        let gu = uniform.try_grant_chips(&d).unwrap();
        let gr = regulated.try_grant_chips(&d).unwrap();
        assert_eq!(gu.gcp_raw, t(20), "10 / 0.5");
        assert!(
            gr.gcp_raw < gu.gcp_raw,
            "regulated draw {} must beat uniform {}",
            gr.gcp_raw,
            gu.gcp_raw
        );
        // Chip 0 at 0.7: raw = 10 / 0.7 = 14.286.
        assert_eq!(
            gr.gcp_raw,
            Tokens::from_millis((10_000f64 / 0.7).ceil() as u64)
        );
    }

    #[test]
    #[should_panic(expected = "efficiencies must be in (0, 1]")]
    fn bad_regulation_panics() {
        let mut l = Ledger::with_chips(560, 2, 10_000, 1.0, Some((0.5, 10_000)));
        l.set_gcp_efficiencies(vec![0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "chip count mismatch")]
    fn wrong_chip_count_panics() {
        let mut l = baseline(None);
        let _ = l.try_grant_chips(&[Tokens::ZERO; 4]);
    }

    #[test]
    fn double_release_reports_domain_and_clamps() {
        let mut l = Ledger::flat(80);
        let g = l.try_grant_flat(t(50)).unwrap();
        l.release(&g).unwrap();
        let err = l.release(&g).unwrap_err();
        match err {
            LedgerError::OverRelease {
                domain,
                released_millis,
                headroom_millis,
            } => {
                assert_eq!(domain, LedgerDomain::Dimm);
                assert_eq!(released_millis, 50_000);
                assert_eq!(headroom_millis, 0);
            }
            other => panic!("unexpected error: {other}"),
        }
        // The budget is clamped, not corrupted.
        assert_eq!(l.dimm_available(), Some(t(80)));
    }

    #[test]
    fn chip_double_release_names_the_chip() {
        let mut l = baseline(None);
        let mut demand_a = vec![Tokens::ZERO; 8];
        demand_a[0] = t(5);
        let a = l.try_grant_chips(&demand_a).unwrap();
        // A second grant keeps DIMM headroom below A's raw draw, so the
        // double release overflows only chip 0 — the error names it.
        let mut demand_b = vec![Tokens::ZERO; 8];
        demand_b[1] = t(10);
        let _b = l.try_grant_chips(&demand_b).unwrap();
        l.release(&a).unwrap();
        match l.release(&a).unwrap_err() {
            LedgerError::OverRelease { domain, .. } => {
                assert_eq!(domain, LedgerDomain::Chip(0));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn brownout_withholds_and_restores_exactly() {
        let mut l = baseline(Some((0.7, 66_500)));
        assert!(!l.in_brownout());
        l.begin_brownout(0.5);
        assert!(l.in_brownout());
        // Idle ledger: every domain drops to half its capacity.
        assert_eq!(l.dimm_available(), Some(t(280)));
        for i in 0..8 {
            assert_eq!(l.chip_available(i), Tokens::from_millis(33_250), "chip {i}");
        }
        assert_eq!(l.gcp_available(), Some(Tokens::from_millis(33_250)));
        let withheld = l.brownout_hold().unwrap().total_millis();
        assert_eq!(withheld, 280_000 + 8 * 33_250 + 33_250);
        // Re-entering is a no-op; ending restores every domain exactly.
        l.begin_brownout(0.1);
        assert_eq!(l.dimm_available(), Some(t(280)));
        l.end_brownout();
        assert!(!l.in_brownout());
        assert_eq!(l.dimm_available(), Some(t(560)));
        for i in 0..8 {
            assert_eq!(l.chip_available(i), Tokens::from_millis(66_500), "chip {i}");
        }
        assert_eq!(l.gcp_available(), Some(Tokens::from_millis(66_500)));
    }

    #[test]
    fn brownout_under_load_never_underflows_and_conserves() {
        let mut l = baseline(None);
        // Hold most of the budget, then brown out to zero: only what is
        // actually available can be withheld.
        let g = l.try_grant_chips(&[t(60); 8]).unwrap();
        let chip_left = l.chip_available(0);
        l.begin_brownout(0.0);
        assert_eq!(l.chip_available(0), Tokens::ZERO);
        assert_eq!(l.brownout_hold().unwrap().chips[0], chip_left);
        // Releasing the pre-brownout grant during the window is legal and
        // must not trip the over-release check.
        l.release(&g).unwrap();
        l.end_brownout();
        assert_eq!(l.dimm_available(), Some(t(560)));
        for i in 0..8 {
            assert_eq!(l.chip_available(i), Tokens::from_millis(66_500), "chip {i}");
        }
    }

    #[test]
    fn grants_respect_browned_out_budgets() {
        let mut l = Ledger::flat(100);
        l.begin_brownout(0.4);
        assert!(l.try_grant_flat(t(50)).is_none(), "only 40 tokens remain");
        let g = l.try_grant_flat(t(40)).unwrap();
        l.release(&g).unwrap();
        l.end_brownout();
        assert!(l.try_grant_flat(t(50)).is_some());
    }

    #[test]
    fn audit_balances_with_outstanding_grants() {
        let mut l = baseline(Some((0.7, 66_500)));
        let zeros = [Tokens::ZERO; 8];
        l.audit(Tokens::ZERO, &zeros, Tokens::ZERO).unwrap();
        let g = l.try_grant_chips(&[t(5); 8]).unwrap();
        let outstanding: Vec<Tokens> = (0..8).map(|i| g.lcp[i] + g.borrowed[i]).collect();
        l.audit(g.dimm_raw, &outstanding, g.gcp_total).unwrap();
        // The audit also balances mid-brownout.
        l.begin_brownout(0.5);
        l.audit(g.dimm_raw, &outstanding, g.gcp_total).unwrap();
        l.end_brownout();
        // Claiming nothing is outstanding while a grant is held must fail.
        let err = l.audit(Tokens::ZERO, &zeros, Tokens::ZERO).unwrap_err();
        assert!(matches!(err, LedgerError::Unbalanced { .. }));
        l.release(&g).unwrap();
        l.audit(Tokens::ZERO, &zeros, Tokens::ZERO).unwrap();
    }
}
