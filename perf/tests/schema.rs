//! `BENCHMARK.json` is well formed and agrees with the benchmark's own
//! catalog of workloads and metrics.

use std::collections::BTreeSet;

use fpb_perf::catalog::{self, PER_LAYER};
use fpb_perf::json::{self, Value};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the perf directory");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn list<'a>(b: &'a Value, key: &str) -> &'a [Value] {
    b.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {v:?}"))
}

#[test]
fn top_level_shape() {
    let b = benchmark();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(list(&b, "paths"), [Value::Str("perf".to_string())]);
    let command: Vec<&str> = list(&b, "command")
        .iter()
        .map(|c| c.as_str().expect("string"))
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command
        .iter()
        .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains("..")));
    assert!(
        command.contains(&"perf/Cargo.toml"),
        "the command builds the perf package"
    );
    let secs = b
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

#[test]
fn workloads_match_the_catalog() {
    let b = benchmark();
    let w = list(&b, "workloads");
    assert!((2..=8).contains(&w.len()));
    for (entry, (name, why)) in w.iter().zip(&catalog::WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "why"), *why);
        assert!(is_name(name) && why.len() <= 200 && !why.contains('\n'));
    }
    assert_eq!(w.len(), catalog::WORKLOADS.len());
}

#[test]
fn end_to_end_metrics_match_the_catalog_and_carry_bounds() {
    let b = benchmark();
    let e2e = list(&b, "end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), catalog::END_TO_END.len());
    let mut largest = 0.0f64;
    for (entry, def) in e2e.iter().zip(&catalog::END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.as_str());
        assert!(is_name(def.name) && is_unit(def.unit), "{}", def.name);
        let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        largest = largest.max(bound);
    }
    let setup = e2e
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is listed");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert_eq!(
        setup.get("bound").and_then(Value::as_f64),
        Some(largest),
        "setup_s has the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_the_catalog_and_name_what_they_move() {
    let b = benchmark();
    let layers = list(&b, "per_layer");
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), PER_LAYER.len());
    let e2e: BTreeSet<&str> = catalog::END_TO_END.iter().map(|d| d.name).collect();
    let workloads: BTreeSet<&str> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
    for (entry, def) in layers.iter().zip(&PER_LAYER) {
        let m = &def.metric;
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(m.name.contains('.'), "{} is named <layer>.<metric>", m.name);
        for (metric, workload) in def.moves {
            assert!(
                e2e.contains(metric),
                "{} moves unknown metric {metric}",
                m.name
            );
            assert!(
                workloads.contains(workload),
                "{} names unknown workload {workload}",
                m.name
            );
        }
    }
}

#[test]
fn names_are_unique() {
    let mut seen = BTreeSet::new();
    let names = catalog::WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(catalog::END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.metric.name));
    for n in names {
        assert!(seen.insert(n), "{n} is used twice");
    }
}
