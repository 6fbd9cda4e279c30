//! The ratchet baseline: checked-in per-rule debt counts.
//!
//! `lint-baseline.toml` allowlists *existing* violations by rule count.
//! The ratchet accepts a scan iff every rule's current count is at or
//! below its baseline; any increase fails with file:line diagnostics for
//! the regressed rule. Counts may only go down — when debt is burned
//! down, `fpb lint --update-baseline` rewrites the file so the new, lower
//! count becomes the ceiling.
//!
//! The format is a deliberately tiny TOML subset (one `[rules]` table of
//! `name = count` pairs) so the zero-dependency parser stays honest.

use std::collections::BTreeMap;

use crate::rules::{Rule, Violation};

/// Parsed baseline: rule name → allowed violation count. Rules absent
/// from the file have an implicit baseline of zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<String, u64>,
}

impl Baseline {
    /// An empty baseline (every rule must be clean).
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Builds a baseline from explicit counts (rule name → count).
    pub fn from_counts(counts: BTreeMap<String, u64>) -> Self {
        Baseline { counts }
    }

    /// The allowed count for a rule (0 when unlisted).
    pub fn allowed(&self, rule: Rule) -> u64 {
        self.counts.get(rule.name()).copied().unwrap_or(0)
    }

    /// Parses the `lint-baseline.toml` subset: comments, blank lines, one
    /// `[rules]` section of `name = integer` pairs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside
    /// the subset (unknown section, unknown rule, non-integer count) — a
    /// malformed baseline must fail loudly, not silently allow debt.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut counts = BTreeMap::new();
        let mut in_rules = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            if let Some(section) = line.strip_prefix('[') {
                let name = section.strip_suffix(']').ok_or_else(|| {
                    format!("baseline line {lineno}: unterminated section header `{raw}`")
                })?;
                if name.trim() != "rules" {
                    return Err(format!(
                        "baseline line {lineno}: unknown section `[{name}]` (expected [rules])"
                    ));
                }
                in_rules = true;
                continue;
            }
            if !in_rules {
                return Err(format!(
                    "baseline line {lineno}: entry before [rules] section"
                ));
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("baseline line {lineno}: expected `rule = count`, got `{raw}`")
            })?;
            let key = key.trim();
            if Rule::from_name(key).is_none() {
                return Err(format!("baseline line {lineno}: unknown rule `{key}`"));
            }
            let count: u64 = value.trim().parse().map_err(|_| {
                format!(
                    "baseline line {lineno}: count for `{key}` must be an integer, got `{}`",
                    value.trim()
                )
            })?;
            if counts.insert(key.to_string(), count).is_some() {
                return Err(format!("baseline line {lineno}: duplicate rule `{key}`"));
            }
        }
        Ok(Baseline { counts })
    }

    /// Renders the baseline in its canonical checked-in form.
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        s.push_str("# fpb lint ratchet baseline — per-rule allowlisted debt.\n");
        s.push_str("#\n");
        s.push_str("# Counts may only DECREASE. `fpb lint` fails when a rule's violation\n");
        s.push_str("# count exceeds its entry here; after burning debt down, refresh with\n");
        s.push_str("# `fpb lint --update-baseline`. Rules not listed must be clean.\n");
        s.push_str("\n[rules]\n");
        for rule in Rule::ALL {
            if let Some(&n) = self.counts.get(rule.name()) {
                if n > 0 {
                    s.push_str(&format!("{} = {n}\n", rule.name()));
                }
            }
        }
        s
    }
}

/// Per-rule outcome of checking a scan against the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleOutcome {
    /// The rule.
    pub rule: Rule,
    /// Violations found in this scan.
    pub count: u64,
    /// Allowed count from the baseline.
    pub allowed: u64,
    /// The rule's violations (empty when clean).
    pub violations: Vec<Violation>,
}

impl RuleOutcome {
    /// True when this rule regressed past its baseline.
    pub fn regressed(&self) -> bool {
        self.count > self.allowed
    }

    /// True when debt was burned down below the baseline (the baseline
    /// should be tightened).
    pub fn improved(&self) -> bool {
        self.count < self.allowed
    }
}

/// The full ratchet verdict for one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetReport {
    /// One outcome per rule, in [`Rule::ALL`] order.
    pub outcomes: Vec<RuleOutcome>,
}

impl RatchetReport {
    /// True iff no rule regressed. (Improvements pass — with a nudge to
    /// tighten the baseline — so burn-down PRs don't chicken-and-egg.)
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(|o| !o.regressed())
    }

    /// Rules that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &RuleOutcome> {
        self.outcomes.iter().filter(|o| o.regressed())
    }

    /// Rules whose debt shrank below the baseline.
    pub fn improvements(&self) -> impl Iterator<Item = &RuleOutcome> {
        self.outcomes.iter().filter(|o| o.improved())
    }

    /// A baseline exactly matching this scan's counts (what
    /// `--update-baseline` writes).
    pub fn tightened_baseline(&self) -> Baseline {
        Baseline {
            counts: self
                .outcomes
                .iter()
                .filter(|o| o.count > 0)
                .map(|o| (o.rule.name().to_string(), o.count))
                .collect(),
        }
    }
}

/// Checks a scan's violations against the baseline ratchet.
pub fn check_ratchet(violations: &[Violation], baseline: &Baseline) -> RatchetReport {
    let outcomes = Rule::ALL
        .iter()
        .map(|&rule| {
            let vs: Vec<Violation> = violations
                .iter()
                .filter(|v| v.rule == rule)
                .cloned()
                .collect();
            RuleOutcome {
                rule,
                count: vs.len() as u64,
                allowed: baseline.allowed(rule),
                violations: vs,
            }
        })
        .collect();
    RatchetReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(rule: Rule, line: u32) -> Violation {
        Violation {
            rule,
            file: "crates/core/src/x.rs".into(),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn parse_roundtrip() {
        let text = "# comment\n\n[rules]\npanic_freedom = 12 # inline\ntoken_leak = 3\n";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.allowed(Rule::PanicFreedom), 12);
        assert_eq!(b.allowed(Rule::TokenLeak), 3);
        assert_eq!(b.allowed(Rule::FloatEq), 0, "unlisted rules default to 0");
        let b2 = Baseline::parse(&b.to_toml()).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("[rules]\nnot_a_rule = 3\n").is_err());
        assert!(Baseline::parse("[other]\n").is_err());
        assert!(Baseline::parse("panic_freedom = 1\n").is_err(), "before section");
        assert!(Baseline::parse("[rules]\npanic_freedom = lots\n").is_err());
        assert!(Baseline::parse("[rules]\npanic_freedom = 1\npanic_freedom = 2\n").is_err());
        assert!(Baseline::parse("[rules\n").is_err());
    }

    #[test]
    fn ratchet_accepts_at_or_below_and_rejects_above() {
        let mut counts = BTreeMap::new();
        counts.insert("panic_freedom".to_string(), 2);
        let baseline = Baseline::from_counts(counts);

        let at = vec![violation(Rule::PanicFreedom, 1), violation(Rule::PanicFreedom, 2)];
        assert!(check_ratchet(&at, &baseline).ok());

        let below = vec![violation(Rule::PanicFreedom, 1)];
        let r = check_ratchet(&below, &baseline);
        assert!(r.ok());
        assert_eq!(r.improvements().count(), 1);

        let above = vec![
            violation(Rule::PanicFreedom, 1),
            violation(Rule::PanicFreedom, 2),
            violation(Rule::PanicFreedom, 3),
        ];
        let r = check_ratchet(&above, &baseline);
        assert!(!r.ok());
        let reg: Vec<_> = r.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].count, 3);
        assert_eq!(reg[0].allowed, 2);
    }

    #[test]
    fn unlisted_rule_must_be_clean() {
        let baseline = Baseline::empty();
        let r = check_ratchet(&[violation(Rule::FloatEq, 9)], &baseline);
        assert!(!r.ok());
    }

    #[test]
    fn tightened_baseline_matches_current_counts() {
        let vs = vec![violation(Rule::PanicFreedom, 1), violation(Rule::TokenLeak, 2)];
        let r = check_ratchet(&vs, &Baseline::empty());
        let tight = r.tightened_baseline();
        assert_eq!(tight.allowed(Rule::PanicFreedom), 1);
        assert_eq!(tight.allowed(Rule::TokenLeak), 1);
        assert_eq!(tight.allowed(Rule::FloatEq), 0);
        // Round-trips through the TOML form.
        assert_eq!(Baseline::parse(&tight.to_toml()).unwrap(), tight);
    }
}
