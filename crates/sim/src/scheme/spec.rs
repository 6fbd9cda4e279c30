//! Scheme spec strings: the textual form of a scheme.
//!
//! Grammar (case-insensitive):
//!
//! ```text
//! spec     := base (":" arg)* ("+" modifier)*
//! base     := ideal | dimm-only | dimm-chip | pwl | <scale>xlocal
//!           | gcp[:mapping[:e_gcp]] | gcp-ipm | fpb | fpb-mr:<splits>
//! modifier := wc | wp | wt<ecc> | preset | worstcase | reg
//!           | ne | vim | bim
//! ```
//!
//! Examples: `fpb`, `fpb+wc+wt8`, `gcp:vim:0.5`, `fpb-mr:4`,
//! `dimm-chip+worstcase`, `gcp+reg`, `1.5xlocal`.
//!
//! [`SchemeSpec::render`] produces the canonical string; parsing a
//! rendered spec yields the identical spec (and hence the identical
//! [`super::SchemeSetup`] — the round-trip property the registry tests
//! enforce).

use std::fmt;
use std::str::FromStr;

use fpb_pcm::CellMapping;

use super::SchemeError;

/// The base scheme a spec starts from (the paper's named schemes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeBase {
    /// Unlimited power.
    Ideal,
    /// Hay et al., DIMM budget only.
    DimmOnly,
    /// Hay et al., DIMM and chip budgets.
    DimmChip,
    /// DIMM+chip with near-perfect intra-line wear leveling.
    Pwl,
    /// DIMM+chip with the chip budget scaled (`1.5xlocal`, `2xlocal`).
    Local {
        /// Chip-budget scale factor.
        scale: f64,
    },
    /// FPB-GCP; defaults to BIM at the config's `E_GCP` when the
    /// arguments are omitted.
    Gcp {
        /// Cell mapping (`None` = BIM).
        mapping: Option<CellMapping>,
        /// GCP efficiency (`None` = the system config's `E_GCP`).
        e_gcp: Option<f64>,
    },
    /// FPB-GCP + FPB-IPM.
    GcpIpm,
    /// The full FPB scheme.
    Fpb,
    /// FPB with a custom Multi-RESET split limit.
    FpbMr {
        /// Maximum RESET splits per round.
        splits: u8,
    },
}

/// A `+modifier` applied on top of a base scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Modifier {
    /// Write cancellation.
    Wc,
    /// Write pausing.
    Wp,
    /// Write truncation with this many ECC-correctable cells.
    Wt(u32),
    /// PreSET single-RESET writes.
    Preset,
    /// Feedback-less worst-case controller.
    WorstCase,
    /// Per-chip GCP output regulation.
    Regulation,
    /// Cell-mapping override.
    Mapping(CellMapping),
}

impl Modifier {
    fn render(&self) -> String {
        match self {
            Modifier::Wc => "wc".into(),
            Modifier::Wp => "wp".into(),
            Modifier::Wt(ecc) => format!("wt{ecc}"),
            Modifier::Preset => "preset".into(),
            Modifier::WorstCase => "worstcase".into(),
            Modifier::Regulation => "reg".into(),
            Modifier::Mapping(m) => m.label().to_ascii_lowercase(),
        }
    }
}

/// A parsed scheme spec: a base plus ordered modifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSpec {
    /// The base scheme.
    pub base: SchemeBase,
    /// Modifiers, in application (and label) order.
    pub mods: Vec<Modifier>,
}

fn parse_float(s: &str, what: &str) -> Result<f64, SchemeError> {
    let v: f64 = s
        .parse()
        .map_err(|_| SchemeError::BadSpec(format!("{what} `{s}` is not a number")))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(SchemeError::BadSpec(format!(
            "{what} `{s}` must be positive and finite"
        )));
    }
    Ok(v)
}

fn parse_base(token: &str) -> Result<SchemeBase, SchemeError> {
    let mut parts = token.split(':');
    let name = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    let no_args = |base: SchemeBase| {
        if args.is_empty() {
            Ok(base)
        } else {
            Err(SchemeError::BadSpec(format!(
                "scheme `{name}` takes no `:` arguments"
            )))
        }
    };
    match name {
        "ideal" => no_args(SchemeBase::Ideal),
        "dimm-only" => no_args(SchemeBase::DimmOnly),
        "dimm-chip" => no_args(SchemeBase::DimmChip),
        "pwl" => no_args(SchemeBase::Pwl),
        "gcp-ipm" => no_args(SchemeBase::GcpIpm),
        "fpb" => no_args(SchemeBase::Fpb),
        "gcp" => {
            if args.len() > 2 {
                return Err(SchemeError::BadSpec(
                    "gcp takes at most `gcp:MAPPING:E_GCP`".into(),
                ));
            }
            let mapping = match args.first() {
                None => None,
                Some(m) => Some(
                    CellMapping::from_str(m).map_err(|e| SchemeError::BadSpec(e.to_string()))?,
                ),
            };
            let e_gcp = match args.get(1) {
                None => None,
                Some(e) => {
                    let v = parse_float(e, "gcp efficiency")?;
                    if v > 1.0 {
                        return Err(SchemeError::BadSpec(format!(
                            "gcp efficiency `{e}` must be in (0, 1]"
                        )));
                    }
                    Some(v)
                }
            };
            Ok(SchemeBase::Gcp { mapping, e_gcp })
        }
        "fpb-mr" => {
            let [splits] = args.as_slice() else {
                return Err(SchemeError::BadSpec(
                    "fpb-mr needs a split count: `fpb-mr:N`".into(),
                ));
            };
            let splits: u8 = splits.parse().map_err(|_| {
                SchemeError::BadSpec(format!("fpb-mr split count `{splits}` is not a u8"))
            })?;
            if splits == 0 {
                return Err(SchemeError::BadSpec(
                    "fpb-mr split count must be at least 1".into(),
                ));
            }
            Ok(SchemeBase::FpbMr { splits })
        }
        other => {
            // `<scale>xlocal`, e.g. `1.5xlocal` / `2xlocal`.
            if let Some(prefix) = other.strip_suffix("xlocal") {
                if args.is_empty() {
                    let scale = parse_float(prefix, "local budget scale")?;
                    return Ok(SchemeBase::Local { scale });
                }
            }
            Err(SchemeError::UnknownScheme(other.to_string()))
        }
    }
}

fn parse_modifier(token: &str) -> Result<Modifier, SchemeError> {
    match token {
        "wc" => Ok(Modifier::Wc),
        "wp" => Ok(Modifier::Wp),
        "preset" => Ok(Modifier::Preset),
        "worstcase" => Ok(Modifier::WorstCase),
        "reg" => Ok(Modifier::Regulation),
        "ne" | "naive" => Ok(Modifier::Mapping(CellMapping::Naive)),
        "vim" => Ok(Modifier::Mapping(CellMapping::Vim)),
        "bim" => Ok(Modifier::Mapping(CellMapping::Bim)),
        _ => {
            if let Some(digits) = token.strip_prefix("wt") {
                let ecc: u32 = digits.parse().map_err(|_| {
                    SchemeError::BadSpec(format!("wt needs a cell count, got `{token}`"))
                })?;
                return Ok(Modifier::Wt(ecc));
            }
            Err(SchemeError::BadSpec(format!("unknown modifier `{token}`")))
        }
    }
}

impl SchemeSpec {
    /// Parses a spec string (case-insensitive; see the module grammar).
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::UnknownScheme`] for an unknown base and
    /// [`SchemeError::BadSpec`] for malformed arguments or modifiers.
    pub fn parse(spec: &str) -> Result<Self, SchemeError> {
        let spec = spec.trim().to_ascii_lowercase();
        let mut parts = spec.split('+');
        let base_token = parts.next().unwrap_or_default();
        if base_token.is_empty() {
            return Err(SchemeError::BadSpec("empty scheme spec".into()));
        }
        let base = parse_base(base_token)?;
        let mods = parts.map(parse_modifier).collect::<Result<Vec<_>, _>>()?;
        Ok(SchemeSpec { base, mods })
    }

    /// Canonical spec string: `parse(render())` yields an identical spec.
    pub fn render(&self) -> String {
        let mut out = match &self.base {
            SchemeBase::Ideal => "ideal".to_string(),
            SchemeBase::DimmOnly => "dimm-only".to_string(),
            SchemeBase::DimmChip => "dimm-chip".to_string(),
            SchemeBase::Pwl => "pwl".to_string(),
            SchemeBase::Local { scale } => format!("{scale}xlocal"),
            SchemeBase::Gcp { mapping, e_gcp } => {
                let mut s = "gcp".to_string();
                match (mapping, e_gcp) {
                    (None, None) => {}
                    (Some(m), None) => {
                        s.push(':');
                        s.push_str(&m.label().to_ascii_lowercase());
                    }
                    (m, Some(e)) => {
                        // An efficiency without a mapping renders the
                        // default mapping explicitly so the arg slots
                        // stay positional.
                        let m = m.unwrap_or(CellMapping::Bim);
                        s.push(':');
                        s.push_str(&m.label().to_ascii_lowercase());
                        s.push_str(&format!(":{e}"));
                    }
                }
                s
            }
            SchemeBase::GcpIpm => "gcp-ipm".to_string(),
            SchemeBase::Fpb => "fpb".to_string(),
            SchemeBase::FpbMr { splits } => format!("fpb-mr:{splits}"),
        };
        for m in &self.mods {
            out.push('+');
            out.push_str(&m.render());
        }
        out
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl FromStr for SchemeSpec {
    type Err = SchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchemeSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bases_and_modifiers() {
        let s = SchemeSpec::parse("fpb+wc+wt8").unwrap();
        assert_eq!(s.base, SchemeBase::Fpb);
        assert_eq!(s.mods, vec![Modifier::Wc, Modifier::Wt(8)]);

        let s = SchemeSpec::parse("gcp:vim:0.5").unwrap();
        assert_eq!(
            s.base,
            SchemeBase::Gcp {
                mapping: Some(CellMapping::Vim),
                e_gcp: Some(0.5)
            }
        );

        let s = SchemeSpec::parse("1.5xlocal").unwrap();
        assert_eq!(s.base, SchemeBase::Local { scale: 1.5 });

        let s = SchemeSpec::parse("fpb-mr:4").unwrap();
        assert_eq!(s.base, SchemeBase::FpbMr { splits: 4 });
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(
            SchemeSpec::parse(" FPB+WC ").unwrap(),
            SchemeSpec::parse("fpb+wc").unwrap()
        );
        assert_eq!(
            SchemeSpec::parse("GCP:VIM").unwrap(),
            SchemeSpec::parse("gcp:vim").unwrap()
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(matches!(
            SchemeSpec::parse("warp-drive"),
            Err(SchemeError::UnknownScheme(_))
        ));
        for bad in [
            "",
            "fpb+warp",
            "fpb+wt",
            "fpb+wtx",
            "gcp:diagonal",
            "gcp:vim:1.5",
            "gcp:vim:0.5:extra",
            "fpb-mr",
            "fpb-mr:0",
            "fpb-mr:999",
            "ideal:5",
            "0xlocal",
            "NaNxlocal",
        ] {
            assert!(SchemeSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn render_round_trips() {
        for spec in [
            "ideal",
            "dimm-chip+worstcase",
            "pwl",
            "1.5xlocal",
            "2xlocal",
            "gcp",
            "gcp:ne",
            "gcp:vim:0.5",
            "gcp+reg",
            "gcp-ipm",
            "fpb",
            "fpb-mr:4",
            "fpb+wc+wp+wt8",
            "fpb+preset",
            "fpb+ne",
        ] {
            let parsed = SchemeSpec::parse(spec).unwrap();
            let rendered = parsed.render();
            assert_eq!(rendered, spec, "canonical spec should render unchanged");
            assert_eq!(SchemeSpec::parse(&rendered).unwrap(), parsed);
        }
    }

    #[test]
    fn efficiency_without_mapping_renders_positionally() {
        let spec = SchemeSpec {
            base: SchemeBase::Gcp {
                mapping: None,
                e_gcp: Some(0.7),
            },
            mods: vec![],
        };
        let rendered = spec.render();
        assert_eq!(rendered, "gcp:bim:0.7");
        // Not spec-identical (the mapping became explicit) but
        // scheme-identical: BIM is the gcp default.
        let reparsed = SchemeSpec::parse(&rendered).unwrap();
        assert_eq!(
            reparsed.base,
            SchemeBase::Gcp {
                mapping: Some(CellMapping::Bim),
                e_gcp: Some(0.7)
            }
        );
    }
}
