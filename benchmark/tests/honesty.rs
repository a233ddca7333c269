//! Honesty tests for the benchmark itself, on the quick-size bodies: the
//! names it prints are the names `BENCHMARK.json` declares, the wrappers
//! and rigs count what they claim to count, and a replayed scheduler tape
//! reproduces the recorded verdicts.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use ecf_benchmark::measure::{self, Args};
use ecf_benchmark::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use ecf_benchmark::workloads::{setup, Workload};
use ecf_benchmark::{agree, perlayer, rigs, traced};
use ecf_core::SchedulerKind;
use telemetry::Counter;
use testkit::json::{parse, Value};

fn quick(workload: Workload) -> Args {
    Args { workload, seed: measure::PINNED_SEED, seconds: 1.0, quick: true }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    let rows = doc.get(key).and_then(Value::as_array).expect("an array of objects with a name");
    rows.iter().map(|r| r.get("name").and_then(Value::as_str).expect("name").to_string()).collect()
}

/// The contract's rule for a metric or workload name.
fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The contract's rule for a unit.
fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_limits_meet_the_contract() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(legal_name(name), "{name} is not a legal name");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
        assert!(legal_unit(unit), "{unit} is not a legal unit");
    }
    for w in &WORKLOADS {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(why.len() <= 200, "{}: why has {} characters", w.name, why.len());
        assert_eq!(Workload::from_name(w.name).map(Workload::name), Some(w.name));
    }
    assert!((2..=8).contains(&WORKLOADS.len()) && WORKLOADS.len() == Workload::ALL.len());
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!((1..=60).contains(&spec::RUN_SECONDS));

    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is end to end");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        assert!(m.bound <= setup.bound, "setup_s must have the largest bound");
    }
}

#[test]
fn benchmark_json_is_rendered_from_the_spec() {
    let committed = benchmark_json();
    assert_eq!(committed, parse(&spec::benchmark_json()).expect("the rendering parses"));
    let keys: Vec<&str> =
        committed.as_object().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert!(std::fs::metadata(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .is_ok_and(|m| m.len() <= 64 * 1024));
}

/// Run the built binary the way the driver does and return its last line.
fn last_line(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .arg("--quick")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("some output")).expect("the last line is JSON")
}

#[test]
fn printed_names_equal_the_names_in_benchmark_json() {
    let declared = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = last_line("quic_pages", trace);
        let keys: Vec<&str> =
            line.as_object().expect("an object").keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
        let metrics = line.get("metrics").and_then(Value::as_object).expect("metrics");
        let printed: BTreeSet<String> = metrics.keys().cloned().collect();
        assert_eq!(printed, names(&declared, key), "--trace {trace}");
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has no number");
            assert_eq!(m.get("unit").and_then(Value::as_str), spec::unit_of(name), "{name}");
        }
    }
}

#[test]
fn quick_runs_are_correct_and_reproduce_the_pinned_digests() {
    for w in Workload::ALL {
        let m = measure::run(&quick(w));
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert_eq!(m.failed, 0);
        assert!(m.attempted >= 4);
        assert_eq!(Some(m.reference.digest), measure::expected_digest(w, true), "{}", w.name());
        assert!(m.reference.req_us.len() > 100 && m.reference.ooo_us.total() > 1000);
        for (name, value) in m.metrics() {
            assert!(value.is_finite() && (value > 0.0 || name == "fail_share"), "{name} = {value}");
        }
    }
}

#[test]
fn traced_bodies_count_what_the_system_counts() {
    for w in [Workload::Fig9Grid, Workload::BrowseSharded, Workload::QuicPages] {
        let inputs = setup(w, 5, true);
        let untraced = ecf_benchmark::workloads::body(&inputs);
        let t = traced::body(w, &inputs);
        let problems = traced::honesty_problems(&t, &untraced, w != Workload::QuicPages);
        assert!(problems.is_empty(), "{}: {problems:?}", w.name());
        // The wrapper's own count is the count every in-situ share is
        // divided by; telemetry counts the same calls inside the transport.
        assert!(t.sched.calls > 1000);
        assert_eq!(t.sched.calls, t.tel.counter(Counter::Decisions));
        assert!(t.situ.app_calls > 0 && t.situ.testbeds == untraced.attempted);
        // One root span, one span per simulation, two aggregates under each.
        assert_eq!(t.spans.spans[0].name, "body");
        let sims = t.spans.spans.iter().filter(|s| s.parent == Some(0) && s.count == 1).count();
        assert!(sims as u64 >= untraced.attempted);
        let decide: u64 =
            t.spans.spans.iter().filter(|s| s.name == "core.decide").map(|s| s.count).sum();
        assert_eq!(decide, t.sched.calls);
    }
}

#[test]
fn replayed_scheduler_tapes_reproduce_the_recorded_verdicts() {
    let t = traced::body(Workload::Fig9Grid, &setup(Workload::Fig9Grid, 7, true));
    for kind in SchedulerKind::paper_set() {
        let tape = traced::tape_of(&t, kind.label()).expect("the quick grid runs every scheduler");
        assert!(tape.selects() > 1000, "{}: {} selects", kind.label(), tape.selects());
        assert_eq!(tape.replay(kind.build().as_mut()), 0, "{}", kind.label());
        assert_eq!(rigs::select(kind, tape).ops, tape.selects() as u64);
        // A tape is only honest for the scheduler that recorded it.
        let synthetic = rigs::synthetic_tape(kind);
        assert_eq!(synthetic.replay(kind.build().as_mut()), 0, "{} synthetic", kind.label());
    }
    let ecf = traced::tape_of(&t, "ecf").expect("ecf tape");
    assert!(ecf.replay(SchedulerKind::Default.build().as_mut()) > 0, "ECF must differ from minRTT");
}

#[test]
fn rigs_do_the_work_they_report() {
    let all = [
        ("wheel d16", rigs::wheel(16)),
        ("wheel d4096", rigs::wheel(4096)),
        ("link", rigs::link_enqueue()),
        ("delivery", rigs::delivery()),
        ("rtt", rigs::rtt_sample()),
        ("cc", rigs::cc_ack()),
        ("subflow", rigs::subflow_send_ack()),
        ("connection", rigs::connection_send_ack()),
        ("receiver in order", rigs::receiver(false)),
        ("receiver reorder", rigs::receiver(true)),
        ("mptcp build", rigs::mptcp_build()),
        ("quic conn", rigs::quic_send_ack()),
        ("quic chunk", rigs::quic_chunk()),
        ("quic build", rigs::quic_build()),
        ("telemetry push", rigs::telemetry_push()),
        ("telemetry export", rigs::telemetry_export()),
        ("rng", rigs::rng_next()),
        ("json", rigs::json_parse()),
        ("digest", rigs::digest()),
        ("page", rigs::page_gen()),
    ];
    for (name, rig) in all {
        assert!(rig.balanced, "{name}: bookkeeping did not balance");
        assert!(rig.ops > 0 && rig.ns_per_op.is_finite() && rig.ns_per_op > 0.0, "{name}: {rig:?}");
    }
}

#[test]
fn traced_runs_fill_every_per_layer_name() {
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for w in Workload::ALL {
        let run = perlayer::run(&quick(w), &scratch);
        assert!(run.problems.is_empty(), "{}: {:?}", w.name(), run.problems);
        assert_eq!(run.failed, 0);
        let names: Vec<&str> = run.values.keys().copied().collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(run.values.values().all(|v| v.is_finite()));
        assert!(
            run.values["simnet.engine.events"] > 0.0 && run.values["simnet.wheel.op_ns_d16"] > 0.0
        );
        assert!(run.spans_jsonl.lines().count() > 3);
    }
}

#[test]
fn agree_flags_what_disagrees() {
    let doc = |wall: f64, p50: f64, digest: &str| {
        parse(&format!(
            r#"{{"seed":1,"quick":false,"trace":false,"workloads":{{"fig9_grid":{{"correct":true,"failed":0,
            "exact":{{"digest":"{digest}","events":10}},
            "metrics":{{"wall_s":{{"value":{wall},"unit":"s"}},"req_s_p50":{{"value":{p50},"unit":"s"}}}}}}}}}}"#
        ))
        .expect("valid JSON")
    };
    let base = doc(6.0, 4.7, "00000000000000aa");
    assert!(agree::disagreements(&base, &base).is_empty());
    assert!(agree::disagreements(&base, &doc(6.5, 4.7, "00000000000000aa")).is_empty());
    let host = agree::disagreements(&base, &doc(9.0, 4.7, "00000000000000aa"));
    assert!(host.len() == 1 && host[0].contains("wall_s"), "{host:?}");
    let sim = agree::disagreements(&base, &doc(6.0, 4.7000001, "00000000000000aa"));
    assert!(sim.len() == 1 && sim[0].contains("bit-equal"), "{sim:?}");
    let digest = agree::disagreements(&base, &doc(6.0, 4.7, "00000000000000ab"));
    assert!(digest.len() == 1 && digest[0].contains("digests"), "{digest:?}");
}
