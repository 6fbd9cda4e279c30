//! The scheme registry: the single source of truth mapping spec strings
//! to [`SchemeSetup`]s. The CLI's `--scheme` flag, the sweep driver, the
//! bench matrix and the figure conversions all resolve schemes here, so
//! the name list can never drift between them.

use std::sync::OnceLock;

use fpb_pcm::CellMapping;
use fpb_types::SystemConfig;

use super::spec::{Modifier, SchemeBase, SchemeSpec};
use super::{Scheme, SchemeError, SchemeSetup};

/// One registered scheme family: a canonical (buildable) spec plus its
/// usage form and a one-line summary for `--scheme help`.
#[derive(Debug, Clone, Copy)]
pub struct SchemeEntry {
    /// Canonical spec that builds a representative of the family.
    pub name: &'static str,
    /// Usage form showing optional arguments.
    pub usage: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

const ENTRIES: &[SchemeEntry] = &[
    SchemeEntry {
        name: "ideal",
        usage: "ideal",
        summary: "unlimited power (Fig. 4 ceiling)",
    },
    SchemeEntry {
        name: "dimm-only",
        usage: "dimm-only",
        summary: "Hay et al., DIMM budget only",
    },
    SchemeEntry {
        name: "dimm-chip",
        usage: "dimm-chip",
        summary: "Hay et al., DIMM + chip budgets (the paper's baseline)",
    },
    SchemeEntry {
        name: "pwl",
        usage: "pwl",
        summary: "DIMM+chip with near-perfect intra-line wear leveling",
    },
    SchemeEntry {
        name: "1.5xlocal",
        usage: "<scale>xlocal",
        summary: "DIMM+chip with the chip budget scaled by <scale>",
    },
    SchemeEntry {
        name: "2xlocal",
        usage: "<scale>xlocal",
        summary: "DIMM+chip with the chip budget doubled",
    },
    SchemeEntry {
        name: "gcp",
        usage: "gcp[:MAPPING[:E_GCP]]",
        summary: "FPB-GCP (defaults: BIM, the config's E_GCP)",
    },
    SchemeEntry {
        name: "gcp-ipm",
        usage: "gcp-ipm",
        summary: "FPB-GCP + FPB-IPM",
    },
    SchemeEntry {
        name: "fpb",
        usage: "fpb",
        summary: "the full FPB scheme: GCP (BIM) + IPM + Multi-RESET",
    },
    SchemeEntry {
        name: "fpb-mr:3",
        usage: "fpb-mr:<splits>",
        summary: "FPB with a custom Multi-RESET split limit (Fig. 17)",
    },
];

/// Every scheme the paper's figures compare, by canonical spec. The
/// registry smoke suite builds, validates and runs each of these.
const PAPER_FIGURE_SPECS: &[&str] = &[
    // Fig. 4 / Fig. 13 baselines.
    "ideal",
    "dimm-only",
    "dimm-chip",
    "pwl",
    "1.5xlocal",
    "2xlocal",
    // GCP across mappings and efficiencies (Figs. 11/12/15/16).
    "gcp:ne:0.5",
    "gcp:vim:0.5",
    "gcp:bim:0.5",
    "gcp:ne:0.95",
    "gcp-ipm",
    // Multi-RESET ablation (Fig. 17).
    "fpb-mr:2",
    "fpb-mr:3",
    "fpb-mr:4",
    // FPB and its read-latency / extension ablations (Figs. 18/21, §6.4.5, §7).
    "fpb",
    "fpb+wc",
    "fpb+wc+wp",
    "fpb+wc+wp+wt8",
    "fpb+preset",
    "gcp+reg",
    "dimm-chip+worstcase",
];

/// Parses scheme specs and builds [`SchemeSetup`]s (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use fpb_sim::scheme::SchemeRegistry;
/// use fpb_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let reg = SchemeRegistry::standard();
/// let s = reg.build("fpb+wc+wt8", &cfg).unwrap();
/// assert_eq!(s.label, "FPB+WC+WT");
/// assert!(reg.build("warp-drive", &cfg).is_err());
/// ```
#[derive(Debug)]
pub struct SchemeRegistry {
    entries: &'static [SchemeEntry],
    paper_figures: &'static [&'static str],
}

impl SchemeRegistry {
    /// The process-wide standard registry.
    pub fn standard() -> &'static SchemeRegistry {
        static REG: OnceLock<SchemeRegistry> = OnceLock::new();
        REG.get_or_init(|| SchemeRegistry {
            entries: ENTRIES,
            paper_figures: PAPER_FIGURE_SPECS,
        })
    }

    /// The registered scheme families.
    pub fn entries(&self) -> &[SchemeEntry] {
        self.entries
    }

    /// Canonical names of the registered families (each buildable as-is).
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Canonical specs of every scheme the paper's figures compare.
    pub fn paper_figure_specs(&self) -> &[&'static str] {
        self.paper_figures
    }

    /// Builds the scheme named by `spec` against `cfg`, validating the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemeError`] for an unknown or malformed spec, a
    /// modifier that does not apply (e.g. `+reg` without a GCP), or a
    /// composition that fails [`Scheme::validate`].
    pub fn build(&self, spec: &str, cfg: &SystemConfig) -> Result<SchemeSetup, SchemeError> {
        self.build_spec(&SchemeSpec::parse(spec)?, cfg)
    }

    /// Builds an already-parsed spec against `cfg` (the registry's single
    /// authoritative base-scheme dispatch).
    ///
    /// # Errors
    ///
    /// See [`SchemeRegistry::build`].
    pub fn build_spec(
        &self,
        spec: &SchemeSpec,
        cfg: &SystemConfig,
    ) -> Result<SchemeSetup, SchemeError> {
        let mut s = match &spec.base {
            SchemeBase::Ideal => SchemeSetup::ideal(cfg),
            SchemeBase::DimmOnly => SchemeSetup::dimm_only(cfg),
            SchemeBase::DimmChip => SchemeSetup::dimm_chip(cfg),
            SchemeBase::Pwl => SchemeSetup::pwl(cfg),
            SchemeBase::Local { scale } => SchemeSetup::scaled_local(cfg, *scale),
            SchemeBase::Gcp { mapping, e_gcp } => SchemeSetup::gcp(
                cfg,
                mapping.unwrap_or(CellMapping::Bim),
                e_gcp.unwrap_or(cfg.power.e_gcp),
            ),
            SchemeBase::GcpIpm => SchemeSetup::gcp_ipm(cfg),
            SchemeBase::Fpb => SchemeSetup::fpb(cfg),
            SchemeBase::FpbMr { splits } => SchemeSetup::fpb_with_splits(cfg, *splits),
        };
        for m in &spec.mods {
            s = match m {
                Modifier::Wc => s.with_wc(),
                Modifier::Wp => s.with_wp(),
                Modifier::Wt(ecc) => s.with_wt(*ecc),
                Modifier::Preset => s.with_preset(),
                Modifier::WorstCase => s.with_worst_case_mc(),
                Modifier::Regulation => s.with_gcp_regulation()?,
                Modifier::Mapping(m) => s.with_mapping(*m),
            };
        }
        s.validate()?;
        Ok(s)
    }

    /// Human-readable listing of the grammar and registered schemes, for
    /// `fpb run --scheme help`.
    pub fn help(&self) -> String {
        let mut out =
            String::from("Scheme specs: BASE[:ARG...][+MOD...]  (case-insensitive)\n\nBases:\n");
        let width = self
            .entries
            .iter()
            .map(|e| e.usage.len())
            .max()
            .unwrap_or(0);
        let mut seen_usage: Vec<&str> = Vec::new();
        for e in self.entries {
            if seen_usage.contains(&e.usage) {
                continue;
            }
            seen_usage.push(e.usage);
            out.push_str(&format!("  {:width$}  {}\n", e.usage, e.summary));
        }
        out.push_str(
            "\nModifiers:\n  \
             wc          write cancellation\n  \
             wp          write pausing\n  \
             wt<N>       write truncation, N ECC-correctable cells (e.g. wt8)\n  \
             preset      PreSET single-RESET writes\n  \
             worstcase   feedback-less worst-case controller\n  \
             reg         per-chip GCP output regulation (needs a GCP)\n  \
             ne|vim|bim  cell-mapping override\n\n\
             Examples: fpb+wc+wt8   gcp:vim:0.5   dimm-chip+worstcase   2xlocal\n",
        );
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn every_registered_name_builds_and_validates() {
        let reg = SchemeRegistry::standard();
        for name in reg.names() {
            let s = reg
                .build(name, &cfg())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!s.label.is_empty());
        }
    }

    #[test]
    fn spec_builds_match_constructors() {
        let c = cfg();
        let reg = SchemeRegistry::standard();
        assert_eq!(reg.build("fpb", &c).unwrap(), SchemeSetup::fpb(&c));
        assert_eq!(reg.build("ideal", &c).unwrap(), SchemeSetup::ideal(&c));
        assert_eq!(reg.build("pwl", &c).unwrap(), SchemeSetup::pwl(&c));
        assert_eq!(
            reg.build("2xlocal", &c).unwrap(),
            SchemeSetup::scaled_local(&c, 2.0)
        );
        assert_eq!(
            reg.build("gcp:vim:0.5", &c).unwrap(),
            SchemeSetup::gcp(&c, CellMapping::Vim, 0.5)
        );
        assert_eq!(
            reg.build("gcp", &c).unwrap(),
            SchemeSetup::gcp(&c, CellMapping::Bim, c.power.e_gcp)
        );
        assert_eq!(
            reg.build("fpb-mr:4", &c).unwrap(),
            SchemeSetup::fpb_with_splits(&c, 4)
        );
        assert_eq!(
            reg.build("fpb+wc+wp+wt8", &c).unwrap(),
            SchemeSetup::fpb(&c).with_wc().with_wp().with_wt(8)
        );
        assert_eq!(
            reg.build("dimm-chip+worstcase", &c).unwrap(),
            SchemeSetup::dimm_chip(&c).with_worst_case_mc()
        );
    }

    #[test]
    fn regulation_requires_gcp() {
        let reg = SchemeRegistry::standard();
        assert_eq!(
            reg.build("dimm-chip+reg", &cfg()).unwrap_err(),
            SchemeError::MissingGcp("per-chip regulation")
        );
        assert!(reg.build("gcp+reg", &cfg()).is_ok());
    }

    #[test]
    fn unknown_scheme_is_reported_with_help_pointer() {
        let err = SchemeRegistry::standard()
            .build("warp-drive", &cfg())
            .unwrap_err();
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn help_mentions_every_family_and_modifier() {
        let help = SchemeRegistry::standard().help();
        for needle in ["fpb", "gcp[:MAPPING[:E_GCP]]", "wt<N>", "worstcase", "reg"] {
            assert!(help.contains(needle), "help missing `{needle}`:\n{help}");
        }
    }

    #[test]
    fn paper_figure_specs_all_build() {
        let reg = SchemeRegistry::standard();
        let mut labels = Vec::new();
        for spec in reg.paper_figure_specs() {
            let s = reg
                .build(spec, &cfg())
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            labels.push(s.label.clone());
        }
        // The figure legends the paper uses must all be constructible.
        for legend in [
            "Ideal",
            "DIMM+chip",
            "PWL",
            "GCP-NE-0.5",
            "IPM+MR4",
            "FPB+WC+WP+WT",
        ] {
            assert!(
                labels.iter().any(|l| l == legend),
                "missing {legend}: {labels:?}"
            );
        }
    }
}
