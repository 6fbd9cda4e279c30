//! Golden tests of the lint engine against the seeded-violation fixture
//! corpus in `tests/fixtures/`.
//!
//! Every fixture line expected to violate a rule carries a trailing
//! `//~ rule_name` marker; the test asserts the scanner reports exactly
//! the marked (rule, line) pairs — nothing missing, nothing extra. That
//! pins both the detectors and the exemptions (test regions, allow
//! directives, macro/ident distinctions) in one place.

use std::path::Path;

use fpb_analyze::report::{render_json, render_text};
use fpb_analyze::rules::{scan_source, Rule};
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

fn assert_fixture(name: &str, crate_key: &str) {
    let src = fixture(name);
    let mut got: Vec<(Rule, u32)> = scan_source(name, crate_key, &src)
        .iter()
        .map(|v| (v.rule, v.line))
        .collect();
    got.sort();
    assert_eq!(got, markers(&src), "{name} (crate key {crate_key})");
}

/// Like [`assert_fixture`] but through the semantic pipeline (item
/// parsing, CFG walks, and a single-file link stage), which the four
/// semantic rules need.
fn assert_semantic_fixture(name: &str, crate_key: &str) {
    let src = fixture(name);
    let mut got: Vec<(Rule, u32)> = scan_semantic(name, crate_key, &src)
        .iter()
        .map(|v| (v.rule, v.line))
        .collect();
    got.sort();
    assert_eq!(got, markers(&src), "{name} (crate key {crate_key})");
}

#[test]
fn panic_freedom_fixture() {
    assert_fixture("panic_freedom.rs", "core");
}

#[test]
fn token_leak_fixture() {
    assert_semantic_fixture("token_leak.rs", "core");
}

#[test]
fn token_leak_clean_twin() {
    assert_semantic_fixture("token_leak_clean.rs", "core");
}

#[test]
fn panic_reachability_fixture() {
    assert_semantic_fixture("panic_reachability.rs", "sim");
}

#[test]
fn panic_reachability_clean_twin() {
    assert_semantic_fixture("panic_reachability_clean.rs", "sim");
}

#[test]
fn nondet_taint_fixture() {
    assert_semantic_fixture("nondet_taint.rs", "sim");
}

#[test]
fn nondet_taint_clean_twin() {
    assert_semantic_fixture("nondet_taint_clean.rs", "sim");
}

#[test]
fn atomic_ordering_fixture() {
    assert_semantic_fixture("atomic_ordering.rs", "sim");
}

#[test]
fn atomic_ordering_clean_twin() {
    assert_semantic_fixture("atomic_ordering_clean.rs", "sim");
}

#[test]
fn semantic_fixtures_outside_scoped_crates_are_exempt() {
    // The semantic rules police the simulation crates only; the same
    // sources under an unscoped crate key report nothing.
    for name in [
        "token_leak.rs",
        "panic_reachability.rs",
        "nondet_taint.rs",
        "atomic_ordering.rs",
    ] {
        let src = fixture(name);
        assert!(
            scan_semantic(name, "analyze", &src).is_empty(),
            "{name} should be exempt outside the scoped crates"
        );
    }
}

#[test]
fn truncating_cast_fixture() {
    assert_fixture("truncating_cast.rs", "types");
}

#[test]
fn float_eq_fixture() {
    assert_fixture("float_eq.rs", "pcm");
}

#[test]
fn scheme_isolation_fixture() {
    assert_fixture("scheme_isolation.rs", "sim");
}

#[test]
fn scheme_isolation_is_exempt_inside_the_scheme_module() {
    // The same mutations under a scheme-module path report nothing: the
    // module is the one place allowed to compose policy.
    let src = fixture("scheme_isolation.rs");
    assert!(
        scan_source("crates/sim/src/scheme/setup.rs", "sim", &src).is_empty(),
        "scheme module paths must be exempt"
    );
}

#[test]
fn allow_file_fixture_is_clean() {
    assert_fixture("allow_file.rs", "core");
}

#[test]
fn fixtures_outside_scoped_crates_are_exempt() {
    // The lexical rules police the simulation crates (and fpb-types); the
    // same sources under an unscoped crate key report nothing.
    for name in [
        "panic_freedom.rs",
        "truncating_cast.rs",
        "float_eq.rs",
        "scheme_isolation.rs",
    ] {
        let src = fixture(name);
        assert!(
            scan_source(name, "analyze", &src).is_empty(),
            "{name} should be exempt outside the scoped crates"
        );
    }
}

#[test]
fn every_rule_is_covered_by_a_fixture() {
    let all: std::collections::BTreeSet<Rule> = [
        "panic_freedom.rs",
        "truncating_cast.rs",
        "float_eq.rs",
        "scheme_isolation.rs",
        "token_leak.rs",
        "panic_reachability.rs",
        "nondet_taint.rs",
        "atomic_ordering.rs",
    ]
    .iter()
    .flat_map(|name| markers(&fixture(name)).into_iter().map(|(r, _)| r))
    .collect();
    for rule in Rule::ALL {
        assert!(all.contains(&rule), "no fixture covers {rule}");
    }
}

#[test]
fn golden_text_report() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let vs = scan_source("crates/core/src/f.rs", "core", src);
    let expected = "\
rule panic_freedom: 1 violation(s)
  rationale: hot paths must degrade gracefully, not panic
  crates/core/src/f.rs:1: panic_freedom: `.unwrap()` can panic; use a typed error path
fpb lint: 1 file(s), 1 violation(s) — FAILED
";
    assert_eq!(render_text(&vs, 1), expected);
}

#[test]
fn golden_json_report_shape() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let vs = scan_source("crates/core/src/f.rs", "core", src);
    let json = render_json(&vs, 1);
    let expected_rule_line = "    {\"rule\": \"panic_freedom\", \"count\": 1, \"violations\": \
                              [{\"file\": \"crates/core/src/f.rs\", \"line\": 1, \"message\": \
                              \"`.unwrap()` can panic; use a typed error path\"}]},";
    assert!(
        json.lines().any(|l| l == expected_rule_line),
        "missing golden rule line in:\n{json}"
    );
    assert!(json.starts_with("{\n  \"schema\": \"fpb-lint/v2\",\n"));
    assert!(json.contains("\"ok\": false"));
}
