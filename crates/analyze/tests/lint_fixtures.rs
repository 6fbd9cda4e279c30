//! Golden tests of the lint engine against the seeded-violation fixture
//! corpus in `tests/fixtures/`.
//!
//! Every fixture line expected to violate a rule carries a trailing
//! `//~ rule_name` marker; the test asserts the scanner reports exactly
//! the marked (rule, line) pairs — nothing missing, nothing extra. That
//! pins both the detectors and the exemptions (test regions, unreachable
//! wrappers, `// ORDER:` proofs) in one place.

use std::path::Path;

use fpb_analyze::rules::Rule;
use fpb_analyze::semantic::scan_semantic;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Expected (rule, line) pairs from `//~ rule_name` markers.
fn markers(src: &str) -> Vec<(Rule, u32)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(idx) = line.find("//~") {
            let name = line[idx + 3..].trim();
            let rule =
                Rule::from_name(name).unwrap_or_else(|| panic!("bad marker `{name}` line {i}"));
            out.push((rule, i as u32 + 1));
        }
    }
    out.sort();
    out
}

/// Runs the full pipeline (item parsing and a single-file link stage)
/// over one fixture and compares with its markers.
fn assert_fixture(name: &str, crate_key: &str) {
    let src = fixture(name);
    let mut got: Vec<(Rule, u32)> = scan_semantic(name, crate_key, &src)
        .iter()
        .map(|v| (v.rule, v.line))
        .collect();
    got.sort();
    assert_eq!(got, markers(&src), "{name} (crate key {crate_key})");
}

#[test]
fn panic_reachability_fixture() {
    assert_fixture("panic_reachability.rs", "sim");
}

#[test]
fn panic_reachability_clean_twin() {
    assert_fixture("panic_reachability_clean.rs", "sim");
}

#[test]
fn atomic_ordering_fixture() {
    assert_fixture("atomic_ordering.rs", "sim");
}

#[test]
fn atomic_ordering_clean_twin() {
    assert_fixture("atomic_ordering_clean.rs", "sim");
}

#[test]
fn fixtures_outside_scoped_crates_are_exempt() {
    // Both rules police the simulation crates only; the same sources
    // under an unscoped crate key report nothing.
    for name in ["panic_reachability.rs", "atomic_ordering.rs"] {
        let src = fixture(name);
        assert!(
            scan_semantic(name, "analyze", &src).is_empty(),
            "{name} should be exempt outside the scoped crates"
        );
    }
}

#[test]
fn every_rule_is_covered_by_a_fixture() {
    let all: std::collections::BTreeSet<Rule> = ["panic_reachability.rs", "atomic_ordering.rs"]
        .iter()
        .flat_map(|name| markers(&fixture(name)).into_iter().map(|(r, _)| r))
        .collect();
    for rule in Rule::ALL {
        assert!(all.contains(&rule), "no fixture covers {rule}");
    }
}
