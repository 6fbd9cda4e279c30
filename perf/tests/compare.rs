//! `fpb-perf compare` verdicts.

use fpb_perf::catalog::Better;
use fpb_perf::compare::{compare, verdict, Verdict};
use fpb_perf::json;
use fpb_perf::stats::Summary;

fn s(median: f64, q1: f64, q3: f64) -> Summary {
    Summary {
        median,
        q1,
        q3,
        n: 10,
    }
}

#[test]
fn moves_within_the_bound_are_the_same() {
    let a = s(1.0, 0.99, 1.01);
    assert_eq!(
        verdict(&a, &s(1.05, 1.04, 1.06), 0.10, Better::Lower),
        Verdict::Same
    );
    assert_eq!(
        verdict(&a, &s(0.95, 0.94, 0.96), 0.10, Better::Lower),
        Verdict::Same
    );
    let exact = Summary::exact(3.0);
    assert_eq!(verdict(&exact, &exact, 0.0, Better::Higher), Verdict::Same);
}

#[test]
fn moves_beyond_the_bound_follow_the_metric_direction() {
    let a = s(1.0, 0.99, 1.01);
    let slower = s(1.2, 1.19, 1.21);
    let faster = s(0.8, 0.79, 0.81);
    assert_eq!(verdict(&a, &slower, 0.10, Better::Lower), Verdict::Worse);
    assert_eq!(verdict(&a, &faster, 0.10, Better::Lower), Verdict::Better);
    assert_eq!(verdict(&a, &slower, 0.10, Better::Higher), Verdict::Better);
    assert_eq!(verdict(&a, &faster, 0.10, Better::Higher), Verdict::Worse);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = s(1.0, 0.8, 1.2);
    let quiet = s(1.0, 0.99, 1.01);
    assert_eq!(
        verdict(&noisy, &s(1.15, 1.14, 1.16), 0.10, Better::Lower),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(&quiet, &s(1.15, 0.9, 1.4), 0.10, Better::Lower),
        Verdict::Unresolved
    );
}

#[test]
fn separated_quartiles_resolve_even_when_noisy() {
    let a = s(1.0, 0.8, 1.2);
    // B's worst quartile is 40 % above A's best: worse beyond any doubt.
    assert_eq!(
        verdict(&a, &s(2.0, 1.6, 2.4), 0.10, Better::Lower),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&a, &s(0.3, 0.25, 0.35), 0.10, Better::Lower),
        Verdict::Better
    );
}

#[test]
fn zero_medians_compare_exactly() {
    let zero = Summary::exact(0.0);
    assert_eq!(verdict(&zero, &zero, 0.05, Better::Lower), Verdict::Same);
    assert_eq!(
        verdict(&zero, &Summary::exact(1.0), 0.05, Better::Lower),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&zero, &Summary::exact(1.0), 0.05, Better::Higher),
        Verdict::Better
    );
}

fn doc(wall: f64, digest: &str, steps: f64) -> json::Value {
    let text = format!(
        r#"{{"schema": "fpb-perf/v1", "nproc": 2, "workloads": [{{
            "name": "power_bound", "correct": true, "digest": "{digest}",
            "metrics": {{
                "wall_s": {{"unit": "s", "median": {wall}, "q1": {wall}, "q3": {wall}, "n": 5}},
                "engine.steps": {{"unit": "count", "median": {steps}, "q1": {steps}, "q3": {steps}, "n": 1}}
            }}}}]}}"#
    );
    json::parse(&text).expect("valid test document")
}

fn bench() -> json::Value {
    json::parse(
        r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
    )
    .expect("valid test bounds")
}

#[test]
fn documents_compare_per_workload_and_metric() {
    let same = compare(&doc(2.0, "ab", 7.0), &doc(2.05, "ab", 7.0), &bench()).expect("comparable");
    assert_eq!((same.worse, same.mismatches), (0, 0));
    assert!(same
        .rows
        .iter()
        .any(|r| r.contains("wall_s") && r.contains("same")));

    let slower = compare(&doc(2.0, "ab", 7.0), &doc(2.5, "ab", 7.0), &bench()).expect("comparable");
    assert_eq!((slower.worse, slower.mismatches), (1, 0));

    let drifted =
        compare(&doc(2.0, "ab", 7.0), &doc(2.0, "cd", 8.0), &bench()).expect("comparable");
    assert_eq!(drifted.worse, 0);
    assert_eq!(drifted.mismatches, 2, "digest and step count both differ");
}
