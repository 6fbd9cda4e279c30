//! Power-policy configuration and the named schemes of the evaluation.

use fpb_types::{PowerConfig, Tokens};

/// Global-charge-pump parameters (§4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcpParams {
    /// Effective power efficiency of the GCP (`E_GCP`, 0.3–0.95 in the
    /// paper's sweeps). Without per-chip regulation this worst-case
    /// (farthest-chip) efficiency applies to every chip.
    pub e_gcp: f64,
    /// GCP output capacity as a multiple of one LCP's usable capacity
    /// (1.0 in the paper: "the same power as one LCP").
    pub capacity_lcps: f64,
    /// Per-chip output regulation (§4.2's design alternative): nearer
    /// chips see less wire loss, so their effective efficiency ramps from
    /// `min(e_gcp + 0.2, 0.95)` at the nearest chip down to `e_gcp` at
    /// the farthest, at the cost of more complex control logic.
    pub per_chip_regulation: bool,
}

impl GcpParams {
    /// Effective efficiency for each chip under this configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use fpb_core::GcpParams;
    /// let g = GcpParams { e_gcp: 0.7, capacity_lcps: 1.0, per_chip_regulation: true };
    /// let e = g.chip_efficiencies(8);
    /// assert_eq!(e.len(), 8);
    /// assert!(e[0] > e[7] - 1e-12);
    /// assert!((e[7] - 0.7).abs() < 1e-12);
    /// ```
    pub fn chip_efficiencies(&self, chips: u8) -> Vec<f64> {
        let n = chips as usize;
        if !self.per_chip_regulation || n == 1 {
            return vec![self.e_gcp; n];
        }
        let best = (self.e_gcp + 0.2).min(0.95);
        (0..n)
            .map(|i| {
                let frac = (n - 1 - i) as f64 / (n - 1) as f64;
                self.e_gcp + (best - self.e_gcp) * frac
            })
            .collect()
    }
}

/// Complete configuration of a power-budgeting policy.
///
/// The named constructors build the exact schemes the paper evaluates;
/// fields can then be tweaked for ablations.
///
/// # Examples
///
/// ```
/// use fpb_core::PowerPolicyConfig;
/// use fpb_types::PowerConfig;
///
/// let power = PowerConfig::default();
/// let fpb = PowerPolicyConfig::fpb(&power, 8);
/// assert!(fpb.ipm);
/// assert_eq!(fpb.multi_reset_splits, 3);
/// assert!(fpb.gcp.is_some());
///
/// let hay = PowerPolicyConfig::dimm_only(&power, 8);
/// assert!(!hay.enforce_chip_budget);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPolicyConfig {
    /// DIMM power budget in whole tokens; `None` disables all limits
    /// (the Ideal scheme).
    pub pt_dimm: Option<u64>,
    /// Enforce per-chip budgets (`PT_LCP`, Eq. 4).
    pub enforce_chip_budget: bool,
    /// Multiplier on the chip budget (1.5 / 2.0 model the enlarged local
    /// pumps of §2.2; 1.0 is the baseline).
    pub chip_budget_scale: f64,
    /// Local charge-pump efficiency (`E_LCP`).
    pub e_lcp: f64,
    /// Enable FPB-IPM iteration-granularity allocation.
    pub ipm: bool,
    /// Maximum Multi-RESET split count (1 disables Multi-RESET; the paper
    /// finds 3 optimal, Fig. 17). Splitting is applied on demand, only to
    /// writes that cannot otherwise be admitted.
    pub multi_reset_splits: u8,
    /// Global charge pump, if present.
    pub gcp: Option<GcpParams>,
    /// RESET-to-SET power ratio `C` (SET costs `1/C` token per cell).
    pub reset_set_ratio: u64,
    /// Number of PCM chips on the DIMM.
    pub chips: u8,
}

impl PowerPolicyConfig {
    /// The Ideal scheme: writes issue whenever their bank is idle.
    pub fn ideal(power: &PowerConfig, chips: u8) -> Self {
        PowerPolicyConfig {
            pt_dimm: None,
            enforce_chip_budget: false,
            chip_budget_scale: 1.0,
            e_lcp: power.e_lcp,
            ipm: false,
            multi_reset_splits: 1,
            gcp: None,
            reset_set_ratio: power.reset_set_power_ratio,
            chips,
        }
    }

    /// Hay et al.'s heuristic with only the DIMM budget enforced.
    pub fn dimm_only(power: &PowerConfig, chips: u8) -> Self {
        PowerPolicyConfig {
            pt_dimm: Some(power.pt_dimm),
            ..Self::ideal(power, chips)
        }
    }

    /// Hay et al.'s heuristic with DIMM *and* chip budgets (the paper's
    /// normalization baseline).
    pub fn dimm_chip(power: &PowerConfig, chips: u8) -> Self {
        PowerPolicyConfig {
            enforce_chip_budget: true,
            ..Self::dimm_only(power, chips)
        }
    }

    /// `DIMM+chip` with the chip budget scaled (the 1.5×/2× local-pump
    /// baselines of §2.2).
    pub fn scaled_local(power: &PowerConfig, chips: u8, scale: f64) -> Self {
        PowerPolicyConfig {
            chip_budget_scale: scale,
            ..Self::dimm_chip(power, chips)
        }
    }

    /// FPB-GCP only (no IPM): chip budgets plus a global charge pump at
    /// the configured `E_GCP`.
    pub fn gcp_only(power: &PowerConfig, chips: u8) -> Self {
        PowerPolicyConfig {
            gcp: Some(GcpParams {
                e_gcp: power.e_gcp,
                capacity_lcps: power.gcp_capacity_lcps,
                per_chip_regulation: false,
            }),
            ..Self::dimm_chip(power, chips)
        }
    }

    /// FPB-GCP + FPB-IPM without Multi-RESET.
    pub fn gcp_ipm(power: &PowerConfig, chips: u8) -> Self {
        PowerPolicyConfig {
            ipm: true,
            ..Self::gcp_only(power, chips)
        }
    }

    /// The full FPB scheme: GCP + IPM + Multi-RESET(3).
    pub fn fpb(power: &PowerConfig, chips: u8) -> Self {
        PowerPolicyConfig {
            multi_reset_splits: 3,
            ..Self::gcp_ipm(power, chips)
        }
    }

    /// Usable per-chip budget in millitokens (Eq. 4, including the scale
    /// factor). Zero when chip budgets are not enforced.
    pub fn chip_budget_millis(&self) -> u64 {
        match self.pt_dimm {
            Some(pt) if self.enforce_chip_budget => {
                Tokens::pt_lcp(pt, self.e_lcp, self.chip_budget_scale, self.chips).millis()
            }
            _ => 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.chips == 0 {
            return Err("chips must be nonzero".into());
        }
        if !(self.e_lcp > 0.0 && self.e_lcp <= 1.0) {
            return Err("e_lcp must be in (0, 1]".into());
        }
        if self.multi_reset_splits == 0 {
            return Err("multi_reset_splits must be >= 1".into());
        }
        if self.reset_set_ratio == 0 {
            return Err("reset_set_ratio must be nonzero".into());
        }
        if self.chip_budget_scale <= 0.0 {
            return Err("chip_budget_scale must be positive".into());
        }
        if let Some(g) = &self.gcp {
            if !(g.e_gcp > 0.0 && g.e_gcp <= 1.0) {
                return Err("gcp.e_gcp must be in (0, 1]".into());
            }
            if g.capacity_lcps <= 0.0 {
                return Err("gcp.capacity_lcps must be positive".into());
            }
            if !self.enforce_chip_budget {
                return Err("a GCP is meaningless without chip budgets".into());
            }
        }
        Ok(())
    }
}

/// Human-readable tags for the schemes compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Unlimited power.
    Ideal,
    /// Hay et al., DIMM budget only.
    DimmOnly,
    /// Hay et al., DIMM + chip budgets.
    DimmChip,
    /// Chip budgets scaled ×1.5.
    Local15,
    /// Chip budgets scaled ×2.
    Local2,
    /// FPB-GCP alone.
    Gcp,
    /// FPB-GCP + FPB-IPM.
    GcpIpm,
    /// FPB-GCP + FPB-IPM + Multi-RESET (the full FPB).
    Fpb,
}

impl SchemeKind {
    /// Builds this scheme's configuration from the system power settings.
    pub fn config(self, power: &PowerConfig, chips: u8) -> PowerPolicyConfig {
        match self {
            SchemeKind::Ideal => PowerPolicyConfig::ideal(power, chips),
            SchemeKind::DimmOnly => PowerPolicyConfig::dimm_only(power, chips),
            SchemeKind::DimmChip => PowerPolicyConfig::dimm_chip(power, chips),
            SchemeKind::Local15 => PowerPolicyConfig::scaled_local(power, chips, 1.5),
            SchemeKind::Local2 => PowerPolicyConfig::scaled_local(power, chips, 2.0),
            SchemeKind::Gcp => PowerPolicyConfig::gcp_only(power, chips),
            SchemeKind::GcpIpm => PowerPolicyConfig::gcp_ipm(power, chips),
            SchemeKind::Fpb => PowerPolicyConfig::fpb(power, chips),
        }
    }

    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Ideal => "Ideal",
            SchemeKind::DimmOnly => "DIMM-only",
            SchemeKind::DimmChip => "DIMM+chip",
            SchemeKind::Local15 => "1.5xlocal",
            SchemeKind::Local2 => "2xlocal",
            SchemeKind::Gcp => "GCP",
            SchemeKind::GcpIpm => "GCP+IPM",
            SchemeKind::Fpb => "GCP+IPM+MR",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power() -> PowerConfig {
        PowerConfig::default()
    }

    #[test]
    fn presets_compose_as_in_the_paper() {
        let p = power();
        let ideal = PowerPolicyConfig::ideal(&p, 8);
        assert!(ideal.pt_dimm.is_none());
        assert!(ideal.validate().is_ok());

        let d = PowerPolicyConfig::dimm_only(&p, 8);
        assert_eq!(d.pt_dimm, Some(560));
        assert!(!d.enforce_chip_budget);

        let dc = PowerPolicyConfig::dimm_chip(&p, 8);
        assert!(dc.enforce_chip_budget);
        // Eq. 4: 560 × 0.95 / 8 = 66.5 tokens.
        assert_eq!(dc.chip_budget_millis(), 66_500);

        let x2 = PowerPolicyConfig::scaled_local(&p, 8, 2.0);
        assert_eq!(x2.chip_budget_millis(), 133_000);

        let fpb = PowerPolicyConfig::fpb(&p, 8);
        assert!(fpb.ipm && fpb.gcp.is_some());
        assert_eq!(fpb.multi_reset_splits, 3);
        assert!(fpb.validate().is_ok());
    }

    #[test]
    fn all_scheme_kinds_validate() {
        let p = power();
        for kind in [
            SchemeKind::Ideal,
            SchemeKind::DimmOnly,
            SchemeKind::DimmChip,
            SchemeKind::Local15,
            SchemeKind::Local2,
            SchemeKind::Gcp,
            SchemeKind::GcpIpm,
            SchemeKind::Fpb,
        ] {
            let cfg = kind.config(&p, 8);
            cfg.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let p = power();
        let mut c = PowerPolicyConfig::fpb(&p, 8);
        c.chips = 0;
        assert!(c.validate().is_err());

        let mut c = PowerPolicyConfig::fpb(&p, 8);
        c.gcp = Some(GcpParams {
            e_gcp: 1.5,
            capacity_lcps: 1.0,
            per_chip_regulation: false,
        });
        assert!(c.validate().is_err());

        let mut c = PowerPolicyConfig::dimm_only(&p, 8);
        c.gcp = Some(GcpParams {
            e_gcp: 0.7,
            capacity_lcps: 1.0,
            per_chip_regulation: false,
        });
        assert!(c.validate().is_err(), "GCP without chip budgets");

        let mut c = PowerPolicyConfig::dimm_chip(&p, 8);
        c.multi_reset_splits = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn chip_budget_zero_when_unenforced() {
        let p = power();
        assert_eq!(PowerPolicyConfig::dimm_only(&p, 8).chip_budget_millis(), 0);
        assert_eq!(PowerPolicyConfig::ideal(&p, 8).chip_budget_millis(), 0);
    }
}
