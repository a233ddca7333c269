//! Result documents. A child process prints its progress for a human and,
//! as its last line, one rich JSON object; the parent turns that into the
//! strict object the contract asks for and into the result files `agree`
//! compares.

use std::collections::BTreeMap;

use testkit::digest::hex16;
use testkit::json::Value;

use crate::measure::Measured;
use crate::perlayer::PerLayerRun;
use crate::spec;
use crate::workloads::Workload;

fn object(entries: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Object(entries.into_iter().collect::<BTreeMap<_, _>>())
}

fn metric(name: &str, value: f64) -> (String, Value) {
    let unit = spec::unit_of(name).unwrap_or_else(|| panic!("{name} has no unit in spec"));
    let fields = [
        ("value".to_string(), Value::Number(value)),
        ("unit".to_string(), Value::String(unit.to_string())),
    ];
    (name.to_string(), object(fields))
}

fn outcome(
    attempted: u64,
    failed: u64,
    problems: &[String],
    metrics: Value,
) -> Vec<(String, Value)> {
    vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::Number(attempted.max(1) as f64)),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), metrics),
        (
            "problems".to_string(),
            Value::Array(problems.iter().cloned().map(Value::String).collect()),
        ),
    ]
}

/// The rich object of an untraced run.
pub fn untraced(m: &Measured) -> Value {
    let metrics = object(
        m.metrics().into_iter().filter(|(n, _)| *n != "fail_share").map(|(n, v)| metric(n, v)),
    );
    let mut fields = outcome(m.attempted, m.failed, &m.problems, metrics);
    let (q1, _, q3) = m.wall_quartiles();
    fields.push((
        "exact".to_string(),
        object([
            ("digest".to_string(), Value::String(hex16(m.reference.digest))),
            ("events".to_string(), Value::Number(m.reference.events as f64)),
        ]),
    ));
    fields.push((
        "samples".to_string(),
        object([
            ("bodies".to_string(), Value::Number(m.wall_s.len() as f64)),
            ("wall_s_q1".to_string(), Value::Number(q1)),
            ("wall_s_q3".to_string(), Value::Number(q3)),
            ("setups".to_string(), Value::Number(m.setup_s.len() as f64)),
            ("fail_share".to_string(), Value::Number(m.fail_share())),
        ]),
    ));
    object(fields)
}

/// The rich object of a traced run.
pub fn traced(r: &PerLayerRun) -> Value {
    let metrics = object(r.values.iter().map(|(n, &v)| metric(n, v)));
    object(outcome(r.attempted, r.failed, &r.problems, metrics))
}

/// The contract's object — exactly `correct`, `attempted`, `failed` and
/// `metrics` — from a child's rich object.
pub fn strict_line(rich: &Value) -> String {
    let keep = ["correct", "attempted", "failed", "metrics"];
    let fields = rich.as_object().into_iter().flatten();
    testkit::json::canonical(&object(
        fields.filter(|(k, _)| keep.contains(&k.as_str())).map(|(k, v)| (k.clone(), v.clone())),
    ))
}

/// A result file: what `agree` reads.
pub fn result_file(seed: u64, quick: bool, trace: bool, workloads: &[(Workload, Value)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = testkit::json::canonical(&object([
        ("seed".to_string(), Value::Number(seed as f64)),
        ("quick".to_string(), Value::Bool(quick)),
        ("trace".to_string(), Value::Bool(trace)),
        ("nproc".to_string(), Value::Number(nproc as f64)),
        (
            "workloads".to_string(),
            object(workloads.iter().map(|(w, rich)| (w.name().to_string(), rich.clone()))),
        ),
    ]));
    doc.push('\n');
    doc
}

/// Print an untraced run for a human.
pub fn print_untraced(w: Workload, seed: u64, m: &Measured) {
    let (q1, med, q3) = m.wall_quartiles();
    println!(
        "{} seed {seed}: {} bodies timed (wall_s q1 {q1:.4} median {med:.4} q3 {q3:.4}), {} set-ups, digest {}",
        w.name(),
        m.wall_s.len(),
        m.setup_s.len(),
        hex16(m.reference.digest)
    );
    for (name, value) in m.metrics() {
        let unit = spec::unit_of(name).unwrap_or("fraction");
        println!("  {name:<14} {value:>16.6} {unit}");
    }
    println!("  failed: {} of {} {} (a failed check counts as one)", m.failed, m.attempted, w.op());
    for p in &m.problems {
        println!("  PROBLEM {p}");
    }
}

/// Print a traced run for a human.
pub fn print_traced(w: Workload, seed: u64, r: &PerLayerRun) {
    println!("{} seed {seed}: traced, {} {} attempted", w.name(), r.attempted, w.op());
    for m in &spec::PER_LAYER {
        println!("  {:<36} {:>18.6} {:<9} {}", m.name, r.values[m.name], m.unit, m.how);
    }
    println!("  traced body, per span name:");
    for (name, records, calls, busy_ns, self_ns) in &r.span_summary {
        println!(
            "    {name:<16} {records:>6} records {calls:>10} calls  busy {:>10.3} ms  self {:>10.3} ms",
            *busy_ns as f64 / 1e6,
            *self_ns as f64 / 1e6
        );
    }
    for p in &r.problems {
        println!("  PROBLEM {p}");
    }
}
