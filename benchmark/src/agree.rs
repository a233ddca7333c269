//! `agree`: do two result files of the same commit tell the same story?
//! Host-time metrics must be within their bound of each other; with equal
//! seeds, every simulated-time metric, exact count and digest must be
//! bit-equal; nothing may have failed.

use testkit::json::Value;

use crate::spec::{END_TO_END, PER_LAYER};

fn number(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Every disagreement between result documents `a` and `b`, one line each.
pub fn disagreements(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let same_inputs = number(a, &["seed"]) == number(b, &["seed"])
        && a.get("quick") == b.get("quick")
        && a.get("trace") == b.get("trace");
    let empty = Default::default();
    let (wa, wb) = (
        a.get("workloads").and_then(Value::as_object).unwrap_or(&empty),
        b.get("workloads").and_then(Value::as_object).unwrap_or(&empty),
    );
    for name in wa.keys().chain(wb.keys().filter(|k| !wa.contains_key(*k))) {
        let (Some(ra), Some(rb)) = (wa.get(name), wb.get(name)) else {
            out.push(format!("{name}: present in only one file"));
            continue;
        };
        for (side, r) in [("first", ra), ("second", rb)] {
            if number(r, &["failed"]) != Some(0.0) || r.get("correct") != Some(&Value::Bool(true)) {
                out.push(format!("{name}: the {side} file reports failures"));
            }
        }
        if same_inputs && ra.get("exact") != rb.get("exact") {
            out.push(format!("{name}: digests or event counts differ for the same seed"));
        }
        let value = |r: &Value, metric: &str| number(r, &["metrics", metric, "value"]);
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (value(ra, m.name), value(rb, m.name)) else {
                continue;
            };
            if m.simulated && same_inputs {
                if x.to_bits() != y.to_bits() {
                    out.push(format!(
                        "{name} {}: {x} vs {y}, simulated time must be bit-equal",
                        m.name
                    ));
                }
            } else if (x - y).abs() > m.bound * x.abs().min(y.abs()) {
                out.push(format!(
                    "{name} {}: {x} vs {y} {}, apart by more than the bound of {}",
                    m.name, m.unit, m.bound
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.how == "exact" && same_inputs) {
            let (Some(x), Some(y)) = (value(ra, m.name), value(rb, m.name)) else {
                continue;
            };
            if x.to_bits() != y.to_bits() {
                out.push(format!(
                    "{name} {}: {x} vs {y}, an exact count must be bit-equal",
                    m.name
                ));
            }
        }
    }
    out
}
