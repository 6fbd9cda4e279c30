//! Diagnostic rendering: human-readable text and the machine-readable
//! JSON report CI uploads as an artifact.

use crate::rules::{Rule, Violation};

/// Schema tag of the JSON report.
pub const JSON_SCHEMA: &str = "fpb-lint/v2";

/// The findings of `rule`, in scan order.
fn of_rule(violations: &[Violation], rule: Rule) -> impl Iterator<Item = &Violation> {
    violations.iter().filter(move |v| v.rule == rule)
}

/// Renders a scan's findings as text diagnostics.
///
/// Each rule with findings lists them as `file:line: rule: message` (so
/// editors and CI logs link straight to the source). The scan is OK
/// exactly when there are no findings.
pub fn render_text(violations: &[Violation], files_scanned: usize) -> String {
    let mut s = String::new();
    for rule in Rule::ALL {
        let count = of_rule(violations, rule).count();
        if count == 0 {
            continue;
        }
        s.push_str(&format!("rule {rule}: {count} violation(s)\n"));
        s.push_str(&format!("  rationale: {}\n", rule.rationale()));
        for v in of_rule(violations, rule) {
            s.push_str(&format!(
                "  {}:{}: {}: {}\n",
                v.file, v.line, v.rule, v.message
            ));
        }
    }
    s.push_str(&format!(
        "fpb lint: {} file(s), {} violation(s) — {}\n",
        files_scanned,
        violations.len(),
        if violations.is_empty() {
            "OK"
        } else {
            "FAILED"
        }
    ));
    s
}

/// Renders the machine-readable JSON report. Every rule is listed, clean
/// ones included.
///
/// Layout:
///
/// ```json
/// {
///   "schema": "fpb-lint/v2",
///   "files_scanned": 93,
///   "ok": false,
///   "rules": [
///     {"rule": "panic_freedom", "count": 1,
///      "violations": [{"file": "...", "line": 7, "message": "..."}]}
///   ]
/// }
/// ```
pub fn render_json(violations: &[Violation], files_scanned: usize) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", json_string(JSON_SCHEMA)));
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str(&format!("  \"ok\": {},\n", violations.is_empty()));
    s.push_str("  \"rules\": [\n");
    for (i, rule) in Rule::ALL.into_iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"rule\": {}, ", json_string(rule.name())));
        s.push_str(&format!(
            "\"count\": {}, ",
            of_rule(violations, rule).count()
        ));
        s.push_str("\"violations\": [");
        for (j, v) in of_rule(violations, rule).enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"file\": {}, \"line\": {}, \"message\": {}}}",
                json_string(&v.file),
                v.line,
                json_string(&v.message)
            ));
        }
        s.push_str("]}");
        s.push_str(if i + 1 < Rule::ALL.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Minimal JSON string escaping (paths and messages are ASCII in
/// practice, but escape defensively).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The rule catalog as text (for `fpb lint --rules`).
pub fn render_rule_catalog() -> String {
    let mut s = String::from("fpb lint rules:\n");
    for rule in Rule::ALL {
        s.push_str(&format!("  {:<24} {}\n", rule.name(), rule.rationale()));
    }
    s.push_str(
        "\nsuppress intentional exceptions with `// fpb-lint: allow(rule)` (this \
         line + next)\nor `// fpb-lint: allow-file(rule)`; any other finding fails \
         the scan\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_violations(count: usize) -> Vec<Violation> {
        (0..count)
            .map(|i| Violation {
                rule: Rule::PanicFreedom,
                file: "crates/core/src/ledger.rs".into(),
                line: i as u32 + 1,
                message: "`.unwrap()` can panic; use a typed error path".into(),
            })
            .collect()
    }

    #[test]
    fn text_lists_violations_with_file_line() {
        let text = render_text(&sample_violations(2), 10);
        assert!(text.contains("rule panic_freedom: 2 violation(s)"));
        assert!(text.contains("crates/core/src/ledger.rs:1:"));
        assert!(text.contains("crates/core/src/ledger.rs:2:"));
        assert!(text.ends_with("2 violation(s) — FAILED\n"));
        assert_eq!(
            render_text(&[], 10),
            "fpb lint: 10 file(s), 0 violation(s) — OK\n"
        );
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let j = render_json(&sample_violations(2), 42);
        assert!(j.contains("\"schema\": \"fpb-lint/v2\""));
        assert!(j.contains("\"files_scanned\": 42"));
        assert!(j.contains("\"ok\": false"));
        assert!(j.contains("\"rule\": \"panic_freedom\""));
        assert!(j.contains("\"count\": 2"));
        // Every rule appears, even clean ones.
        for rule in Rule::ALL {
            assert!(
                j.contains(&format!("\"rule\": \"{}\"", rule.name())),
                "{rule}"
            );
        }
        // Crude balance check on braces/brackets (no parser available).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(render_json(&[], 42).contains("\"ok\": true"));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
    }

    #[test]
    fn catalog_names_every_rule() {
        let c = render_rule_catalog();
        for rule in Rule::ALL {
            assert!(c.contains(rule.name()), "{rule}");
        }
    }
}
