//! The paper's power-budget equations (Eqs. 4–6), as standalone,
//! documented functions.
//!
//! The [`crate::Ledger`] enforces these relations dynamically; this module
//! states them closed-form so configurations can be sized and checked
//! (and so the tests can mirror the paper's own worked numbers).

use fpb_types::Tokens;

/// Eq. 4 — usable per-chip budget:
/// `PT_LCP = PT_DIMM × E_LCP / chips`.
///
/// # Panics
///
/// Panics if `chips` is zero or `e_lcp` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use fpb_core::budget::pt_lcp;
///
/// // The paper's baseline: 560 × 0.95 / 8 = 66.5 tokens per chip.
/// assert_eq!(pt_lcp(560, 0.95, 8).millis(), 66_500);
/// ```
pub fn pt_lcp(pt_dimm: u64, e_lcp: f64, chips: u8) -> Tokens {
    assert!(chips > 0, "chips must be nonzero");
    assert!(e_lcp > 0.0 && e_lcp <= 1.0, "e_lcp must be in (0, 1]");
    Tokens::pt_lcp(pt_dimm, e_lcp, 1.0, chips)
}

/// Eq. 5 — usable GCP output from per-chip borrowed budgets:
/// `PT_GCP = Σ(Borrowed_i / E_LCP) × E_GCP`.
///
/// `borrowed` is in usable per-chip (LCP) tokens.
///
/// # Panics
///
/// Panics if an efficiency is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use fpb_core::budget::pt_gcp;
/// use fpb_types::Tokens;
///
/// // Borrow 19 usable tokens at E_LCP = 0.95, convert at E_GCP = 0.5:
/// // raw 20 → 10 usable through the GCP.
/// let out = pt_gcp(&[Tokens::from_cells(19)], 0.95, 0.5);
/// assert_eq!(out, Tokens::from_cells(10));
/// ```
pub fn pt_gcp(borrowed: &[Tokens], e_lcp: f64, e_gcp: f64) -> Tokens {
    assert!(e_lcp > 0.0 && e_lcp <= 1.0, "e_lcp must be in (0, 1]");
    assert!(e_gcp > 0.0 && e_gcp <= 1.0, "e_gcp must be in (0, 1]");
    let total: Tokens = borrowed.iter().copied().sum();
    total.scale_up(e_lcp).scale_down(e_gcp)
}

/// Eq. 6 — conservation check: the raw DIMM budget equals the raw draw of
/// the un-borrowed LCP budgets plus the GCP's raw draw:
/// `PT_DIMM = Σ(PT_LCP − Borrowed_i)/E_LCP + PT_GCP/E_GCP`.
///
/// Returns the relative error of the identity for the given allocation
/// (≈0 up to fixed-point rounding when the allocation is consistent).
///
/// # Panics
///
/// Panics if `borrowed` length differs from `chips`, any borrow exceeds
/// `PT_LCP`, or an efficiency is out of range.
pub fn eq6_relative_error(
    pt_dimm: u64,
    chips: u8,
    e_lcp: f64,
    e_gcp: f64,
    borrowed: &[Tokens],
) -> f64 {
    assert_eq!(borrowed.len(), chips as usize, "chip count mismatch");
    let lcp = pt_lcp(pt_dimm, e_lcp, chips);
    let mut raw = 0.0;
    for &b in borrowed {
        assert!(b <= lcp, "cannot borrow more than PT_LCP");
        raw += (lcp - b).as_f64() / e_lcp;
    }
    let gcp = pt_gcp(borrowed, e_lcp, e_gcp);
    raw += gcp.as_f64() / e_gcp;
    (raw - pt_dimm as f64).abs() / pt_dimm as f64
}

/// Table 3's sizing rule: raw charge-pump tokens needed to deliver
/// `usable` tokens at efficiency `eff` (area is proportional to this).
///
/// # Panics
///
/// Panics if `eff` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use fpb_core::budget::raw_pump_tokens;
/// // Table 3: GCP-NE-0.95 delivers 66 usable → 70 raw tokens.
/// assert_eq!(raw_pump_tokens(66, 0.95), 70);
/// ```
#[expect(
    clippy::cast_possible_truncation,
    reason = "rounded up to whole tokens; a pump size is far below 2^53"
)]
pub fn raw_pump_tokens(usable: u64, eff: f64) -> u64 {
    assert!(eff > 0.0 && eff <= 1.0, "efficiency must be in (0, 1]");
    (usable as f64 / eff).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq4_matches_paper_baseline() {
        assert_eq!(pt_lcp(560, 0.95, 8), Tokens::from_millis(66_500));
        // Scaled budgets of Fig. 22: 466 and 598 tokens.
        assert_eq!(pt_lcp(466, 0.95, 8).millis(), 55_337);
        assert_eq!(pt_lcp(598, 0.95, 8).millis(), 71_012);
    }

    #[test]
    fn eq5_conversion_costs_power() {
        let borrowed = [Tokens::from_cells(10); 8];
        let full = pt_gcp(&borrowed, 0.95, 0.95);
        let lossy = pt_gcp(&borrowed, 0.95, 0.5);
        // Same-efficiency conversion is ~lossless; lower E_GCP delivers less.
        assert!((full.as_f64() - 80.0).abs() < 0.01);
        assert!(lossy < full);
        assert!((lossy.as_f64() - 80.0 * 0.5 / 0.95).abs() < 0.01);
    }

    #[test]
    fn eq6_holds_for_any_borrow_split() {
        for pattern in [[Tokens::ZERO; 8], [Tokens::from_cells(66); 8], {
            let mut p = [Tokens::ZERO; 8];
            p[0] = Tokens::from_cells(30);
            p[5] = Tokens::from_cells(12);
            p
        }] {
            let err = eq6_relative_error(560, 8, 0.95, 0.7, &pattern);
            assert!(err < 1e-4, "relative error {err} for {pattern:?}");
        }
    }

    #[test]
    fn table3_raw_sizes() {
        // The paper's Table 3 conversions.
        assert_eq!(raw_pump_tokens(66, 0.95), 70);
        assert_eq!(raw_pump_tokens(16, 0.70), 23);
        assert_eq!(raw_pump_tokens(28, 0.70), 40);
        assert_eq!(raw_pump_tokens(28, 0.95), 30);
    }

    #[test]
    #[should_panic(expected = "cannot borrow more than PT_LCP")]
    fn overborrow_panics() {
        let mut b = [Tokens::ZERO; 8];
        b[0] = Tokens::from_cells(100);
        let _ = eq6_relative_error(560, 8, 0.95, 0.7, &b);
    }
}
