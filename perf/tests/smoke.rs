//! Runs the benchmark end to end at 1 % scale: every workload with its
//! traced pass, the result line of each tracing mode, and `compare` of a
//! results document against itself.

use std::path::PathBuf;
use std::process::Command;

use fpb_perf::catalog::{self, PER_LAYER};
use fpb_perf::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_fpb-perf");

fn bench_json() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string()
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

/// Runs `fpb-perf` with `args`, asserting exit status 0, and returns
/// stdout.
fn fpb_perf(args: &[&str]) -> String {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("fpb-perf starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "fpb-perf {args:?} exited {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn result_line(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("output");
    json::parse(last).expect("the last line is one JSON object")
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let out = tmp("all.json");
    let doc_path = out.to_str().expect("UTF-8 path");
    fpb_perf(&[
        "all",
        "--scale",
        "0.01",
        "--passes",
        "2",
        "--json-out",
        doc_path,
    ]);
    let text = std::fs::read_to_string(&out).expect("document written");
    let doc = json::parse(&text).expect("document parses");
    let entries = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let names: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    let expected: Vec<&str> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    let all_metrics = catalog::END_TO_END
        .iter()
        .chain(PER_LAYER.iter().map(|l| &l.metric));
    for entry in entries {
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("?");
        assert_eq!(
            entry.get("correct"),
            Some(&Value::Bool(true)),
            "{name}: {entry:?}"
        );
        assert_eq!(
            entry.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{name}"
        );
        let metrics = entry.get("metrics").expect("metrics");
        for def in all_metrics.clone() {
            let m = metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", def.name));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{name} {}",
                def.name
            );
            for key in ["median", "q1", "q3", "n"] {
                assert!(
                    m.get(key).and_then(Value::as_f64).is_some(),
                    "{name} {} {key}",
                    def.name
                );
            }
        }
        let e2e_nonzero = catalog::END_TO_END.iter().all(|d| {
            metrics
                .get(d.name)
                .and_then(|m| m.get("median"))
                .and_then(Value::as_f64)
                > Some(0.0)
        });
        assert!(e2e_nonzero, "{name}: an end-to-end metric reads 0");
    }

    // A document compared with itself: every digest and count identical,
    // nothing worse.
    let cmp = fpb_perf(&["compare", doc_path, doc_path, "--bench", &bench_json()]);
    assert!(cmp.contains("0 worse, 0 mismatched"), "{cmp}");
    let _ = std::fs::remove_file(&out);
}

#[test]
fn each_tracing_mode_prints_its_own_metrics() {
    for (trace, expected) in [
        (
            "0",
            catalog::END_TO_END
                .iter()
                .map(|d| (d.name, d.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|l| (l.metric.name, l.metric.unit))
                .collect(),
        ),
    ] {
        let stdout = fpb_perf(&[
            "--workload",
            "compute_bound",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "0.01",
        ]);
        let line = result_line(&stdout);
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(line.get("attempted").and_then(Value::as_f64) >= Some(1.0));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let got: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(k, v)| {
                (
                    k.as_str(),
                    v.get("unit").and_then(Value::as_str).unwrap_or(""),
                )
            })
            .collect();
        assert_eq!(got, expected, "--trace {trace}");
        assert!(metrics
            .iter()
            .all(|(_, v)| v.get("value").and_then(Value::as_f64).is_some()));
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["run", "power_bound", "--passes", "2", "--seconds", "3"],
        &["run", "power_bound", "--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let out = Command::new(EXE)
            .args(args)
            .output()
            .expect("fpb-perf starts");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
