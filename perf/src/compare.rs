//! `fpb-perf compare`: two results documents judged against the bounds in
//! `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::catalog::{self, Better};
use crate::json::Value;
use crate::stats::Summary;

/// How one metric moved from document A to document B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Same,
    /// A's or B's quartile spread exceeds the bound, so a move within it
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the move from `a` to `b` for a metric with regression bound
/// `bound` (a share of A's median). A spread wider than the bound on
/// either side leaves the result unresolved, unless B's whole quartile
/// range clears A's by more than the bound.
pub fn verdict(a: &Summary, b: &Summary, bound: f64, better: Better) -> Verdict {
    let base = a.median.abs();
    let rel = |x: f64| {
        if base > 0.0 {
            (x - a.median) / base
        } else if x == a.median {
            0.0
        } else {
            f64::INFINITY.copysign(x - a.median)
        }
    };
    // Positive gain = improvement.
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let gain = sign * rel(b.median);
    if a.spread() > bound || b.spread() > bound {
        // Even the least favourable quartiles of B beat A's most
        // favourable ones (or the reverse) by more than the bound.
        let (b_worst, b_best) = match better {
            Better::Lower => (b.q3, b.q1),
            Better::Higher => (b.q1, b.q3),
        };
        let (a_worst, a_best) = match better {
            Better::Lower => (a.q3, a.q1),
            Better::Higher => (a.q1, a.q3),
        };
        if sign * rel(b_worst) - sign * rel(a_best) > bound {
            return Verdict::Better;
        }
        if sign * rel(a_worst) - sign * rel(b_best) > bound {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One metric of one workload in a results document.
fn summary_of(doc: &Value, workload: &str, metric: &str) -> Option<Summary> {
    let m = workload_entry(doc, workload)?.get("metrics")?.get(metric)?;
    Some(Summary {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

fn workload_entry<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
}

/// The regression bounds of `BENCHMARK.json`, by end-to-end metric.
///
/// # Errors
///
/// A message if the file does not have the expected shape.
pub fn bounds(bench: &Value) -> Result<Vec<(String, f64)>, String> {
    bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// The outcome of comparing two documents.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// One printed row per (workload, metric) and per digest.
    pub rows: Vec<String>,
    /// Rows judged worse.
    pub worse: usize,
    /// Digests, counts or correctness flags that differ or fail.
    pub mismatches: usize,
}

/// Compares results document `b` against `a` using the bounds in `bench`.
/// End-to-end metrics get a verdict; per-layer counts and the result
/// digests must be identical.
///
/// # Errors
///
/// A message if `bench` has no bounds.
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<Comparison, String> {
    let bounds = bounds(bench)?;
    let mut out = Comparison::default();
    for &(workload, _) in &catalog::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload_entry(a, workload), workload_entry(b, workload))
        else {
            continue;
        };
        for side in [wa, wb] {
            if side.get("correct") != Some(&Value::Bool(true)) {
                out.mismatches += 1;
                out.rows.push(format!(
                    "{workload:<14} correct            NOT CORRECT in one document"
                ));
            }
        }
        let (da, db) = (wa.get("digest"), wb.get("digest"));
        let same_digest = da.is_some() && da == db;
        out.mismatches += usize::from(!same_digest);
        out.rows.push(format!(
            "{workload:<14} {:<32} {}",
            "digest",
            if same_digest { "identical" } else { "DIFFERS" }
        ));
        for (name, bound) in &bounds {
            let (Some(sa), Some(sb), Some(def)) = (
                summary_of(a, workload, name),
                summary_of(b, workload, name),
                catalog::end_to_end(name),
            ) else {
                continue;
            };
            let v = verdict(&sa, &sb, *bound, def.better);
            out.worse += usize::from(v == Verdict::Worse);
            let mut row = String::new();
            let _ = write!(
                row,
                "{workload:<14} {name:<32} {:<10} A {:.6} [{:.6}, {:.6}]  B {:.6} [{:.6}, {:.6}]  bound {:.0}% {}",
                v.as_str(),
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                bound * 100.0,
                def.unit
            );
            out.rows.push(row);
        }
        for layer in &catalog::PER_LAYER {
            let m = &layer.metric;
            if m.unit != "count" {
                continue;
            }
            if let (Some(sa), Some(sb)) = (
                summary_of(a, workload, m.name),
                summary_of(b, workload, m.name),
            ) {
                if sa.median != sb.median {
                    out.mismatches += 1;
                    out.rows.push(format!(
                        "{workload:<14} {:<32} DIFFERS    A {} B {}",
                        m.name, sa.median, sb.median
                    ));
                }
            }
        }
    }
    Ok(out)
}
