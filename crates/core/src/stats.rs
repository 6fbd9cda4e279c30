//! Power-management statistics (Figs. 13, 14 and the §4 energy analysis).

use fpb_types::Tokens;

/// Counters the power manager maintains while budgeting writes.
///
/// # Examples
///
/// ```
/// use fpb_core::PowerStats;
///
/// let s = PowerStats::default();
/// assert_eq!(s.peak_gcp_tokens(), 0);
/// assert_eq!(s.admissions(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PowerStats {
    admissions: u64,
    admission_failures: u64,
    advance_stalls: u64,
    multi_reset_splits: u64,
    gcp_grants: u64,
    gcp_usable_total: Tokens,
    gcp_waste_total: Tokens,
    gcp_outstanding: Tokens,
    gcp_peak: Tokens,
}

impl PowerStats {
    /// Writes successfully admitted.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Admission attempts refused for lack of tokens.
    pub fn admission_failures(&self) -> u64 {
        self.admission_failures
    }

    /// Iteration-boundary stalls (IPM reallocation refused).
    pub fn advance_stalls(&self) -> u64 {
        self.advance_stalls
    }

    /// Writes whose RESET was split by Multi-RESET.
    pub fn multi_reset_splits(&self) -> u64 {
        self.multi_reset_splits
    }

    /// Grants that used the global charge pump.
    pub fn gcp_grants(&self) -> u64 {
        self.gcp_grants
    }

    /// Total usable tokens ever requested from the GCP (Fig. 14's
    /// numerator).
    pub fn gcp_usable_total(&self) -> Tokens {
        self.gcp_usable_total
    }

    /// Total raw-minus-usable GCP conversion loss (the energy-waste proxy
    /// of §6.1.5).
    pub fn gcp_waste_total(&self) -> Tokens {
        self.gcp_waste_total
    }

    /// Peak concurrent usable GCP output, in whole tokens (Fig. 13: the
    /// GCP must be sized for this, Table 3).
    pub fn peak_gcp_tokens(&self) -> u64 {
        self.gcp_peak.whole_ceil()
    }

    /// Flattens every counter into nine raw integers, in the order
    /// [`PowerStats::from_raw`] consumes (token fields as milli-token
    /// counts). Exists for exact persistence: the sweep result cache
    /// stores stats as flat integers and round-trips them bit-for-bit.
    pub fn to_raw(&self) -> [u64; 9] {
        [
            self.admissions,
            self.admission_failures,
            self.advance_stalls,
            self.multi_reset_splits,
            self.gcp_grants,
            self.gcp_usable_total.millis(),
            self.gcp_waste_total.millis(),
            self.gcp_outstanding.millis(),
            self.gcp_peak.millis(),
        ]
    }

    /// Rebuilds stats from [`PowerStats::to_raw`] output.
    pub fn from_raw(raw: [u64; 9]) -> Self {
        PowerStats {
            admissions: raw[0],
            admission_failures: raw[1],
            advance_stalls: raw[2],
            multi_reset_splits: raw[3],
            gcp_grants: raw[4],
            gcp_usable_total: Tokens::from_millis(raw[5]),
            gcp_waste_total: Tokens::from_millis(raw[6]),
            gcp_outstanding: Tokens::from_millis(raw[7]),
            gcp_peak: Tokens::from_millis(raw[8]),
        }
    }

    pub(crate) fn note_admit(&mut self) {
        self.admissions += 1;
    }

    pub(crate) fn note_admit_failure(&mut self) {
        self.admission_failures += 1;
    }

    pub(crate) fn note_advance_stall(&mut self) {
        self.advance_stalls += 1;
    }

    pub(crate) fn note_multi_reset(&mut self) {
        self.multi_reset_splits += 1;
    }

    pub(crate) fn note_gcp_grant(&mut self, usable: Tokens, raw: Tokens) {
        self.gcp_grants += 1;
        self.gcp_usable_total += usable;
        self.gcp_waste_total += raw.saturating_sub(usable);
        self.gcp_outstanding += usable;
        self.gcp_peak = self.gcp_peak.max(self.gcp_outstanding);
    }

    pub(crate) fn note_gcp_release(&mut self, usable: Tokens) {
        self.gcp_outstanding = self.gcp_outstanding.saturating_sub(usable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcp_peak_tracks_concurrency() {
        let mut s = PowerStats::default();
        s.note_gcp_grant(Tokens::from_cells(10), Tokens::from_cells(15));
        s.note_gcp_grant(Tokens::from_cells(20), Tokens::from_cells(28));
        assert_eq!(s.peak_gcp_tokens(), 30);
        s.note_gcp_release(Tokens::from_cells(10));
        s.note_gcp_grant(Tokens::from_cells(5), Tokens::from_cells(8));
        // Peak stays at the high-water mark.
        assert_eq!(s.peak_gcp_tokens(), 30);
        assert_eq!(s.gcp_grants(), 3);
        assert_eq!(s.gcp_usable_total(), Tokens::from_cells(35));
        // Waste: (15-10) + (28-20) + (8-5) = 16.
        assert_eq!(s.gcp_waste_total(), Tokens::from_cells(16));
    }

    #[test]
    fn raw_round_trip_is_exact() {
        let mut s = PowerStats::default();
        s.note_admit();
        s.note_admit_failure();
        s.note_advance_stall();
        s.note_multi_reset();
        s.note_gcp_grant(Tokens::from_cells(10), Tokens::from_cells(15));
        s.note_gcp_release(Tokens::from_cells(3));
        assert_eq!(PowerStats::from_raw(s.to_raw()), s);
        assert_eq!(
            PowerStats::from_raw(PowerStats::default().to_raw()),
            PowerStats::default()
        );
    }

    #[test]
    fn counters_increment() {
        let mut s = PowerStats::default();
        s.note_admit();
        s.note_admit_failure();
        s.note_advance_stall();
        s.note_multi_reset();
        assert_eq!(s.admissions(), 1);
        assert_eq!(s.admission_failures(), 1);
        assert_eq!(s.advance_stalls(), 1);
        assert_eq!(s.multi_reset_splits(), 1);
    }
}
