//! Traced runs: `repro <id> --trace DIR` on the registered `trace` spec
//! (the paper's canonical heterogeneous streaming session, 0.3 Mbps WiFi
//! and 8.6 Mbps LTE under ECF). A trace is a stable artifact — the same
//! seed gives a byte-identical JSONL — it is complete, and tracing a cell
//! never changes the result the cache stores for it.

use std::path::{Path, PathBuf};

use ecf_core::{Decision, SchedulerKind, Why};
use experiments::expmatrix::{self, Cache, Spec};
use experiments::{find, run_streaming, Effort, MatrixOptions, StreamingConfig};
use telemetry::{EventKind, TelemetryHandle};

/// The registered `trace` spec at `seed`, with `extra` (`"key": value, `
/// pairs) added to its base.
fn trace_spec(seed: u64, extra: &str) -> Spec {
    let text = find("trace").unwrap().spec;
    let text = text.replace(r#""base": 1"#, &format!(r#""base": {seed}"#));
    let text = text
        .replace(r#""workload": "streaming","#, &format!(r#""workload": "streaming", {extra}"#));
    Spec::from_json(&text).unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One traced run's files.
struct Traced {
    jsonl: String,
    counters: String,
    executed: usize,
}

impl Traced {
    /// One counter, by name.
    fn counter(&self, name: &str) -> u64 {
        let line = self.counters.lines().find_map(|l| l.strip_prefix(&format!("{name}=")));
        line.unwrap_or_else(|| panic!("no {name} counter")).parse().unwrap()
    }
}

/// Run `spec` traced into `<dir>/traces`, caching in `<dir>/cache`.
fn traced(spec: &Spec, effort: Effort, dir: &Path) -> Result<Traced, String> {
    let opts = MatrixOptions {
        effort,
        trace: Some(dir.join("traces")),
        ..MatrixOptions::new(dir.join("cache"))
    };
    let outcome = expmatrix::run_matrix(spec, &opts)?;
    let read = |ext: &str| {
        let path = dir.join(format!("traces/{}-0.{ext}", spec.name));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    Ok(Traced { jsonl: read("jsonl"), counters: read("counters"), executed: outcome.executed })
}

#[test]
fn a_scenario_path_beyond_the_two_interfaces_is_an_error_before_the_run() {
    // Used to panic with an index out of bounds in the harness.
    let scenario = r#""scenario": {"kind": "inline",
        "events": [{"at_ms": 0, "path": 7, "action": "path_down"}]},"#;
    let dir = scratch("path7");
    let err = traced(&trace_spec(1, scenario), Effort::Quick, &dir).err().expect("path 7");
    assert!(err.starts_with("cell 0: events[0]: \"path\" 7"), "{err}");
    assert!(!dir.join("traces").exists() && !dir.join("cache").exists(), "the cell ran");
}

/// Same seed ⇒ byte-identical JSONL: the trace is a stable artifact. Two
/// fresh runs, not a cached string (a traced run never reads the cache).
#[test]
fn same_seed_traces_are_byte_identical() {
    let dir = scratch("same-seed");
    let a = traced(&trace_spec(11, ""), Effort::Quick, &dir.join("a")).unwrap();
    let b = traced(&trace_spec(11, ""), Effort::Quick, &dir.join("a")).unwrap();
    assert_eq!((a.executed, b.executed), (1, 1), "a traced run executes its cell");
    assert!(!a.jsonl.is_empty());
    assert_eq!(a.jsonl, b.jsonl, "trace must be deterministic");
    assert_eq!(a.counters, b.counters);
    // A different seed must actually change the trace, or the equality
    // above proves nothing.
    let c = traced(&trace_spec(12, ""), Effort::Quick, &dir.join("c")).unwrap();
    assert_ne!(a.jsonl, c.jsonl);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default ring holds the whole full-effort session: nothing is lost,
/// and every event counter agrees with the captured log.
#[test]
fn full_effort_trace_is_complete() {
    const EVENT_COUNTERS: [&str; 8] = [
        "decisions",
        "iw_resets",
        "rtos",
        "fast_retx",
        "penalizations",
        "subflow_transitions",
        "link_drops",
        "rate_changes",
    ];
    let dir = scratch("full");
    let t = traced(&trace_spec(7, ""), Effort::Full, &dir).unwrap();
    assert_eq!(t.counter("events_overflowed"), 0);
    let counted: u64 = EVENT_COUNTERS.iter().map(|name| t.counter(name)).sum();
    assert_eq!(t.counter("events_captured"), counted);
    assert_eq!(t.jsonl.lines().count() as u64, counted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tracing observes a cell without perturbing it: the traced run stores
/// exactly the cache entry an untraced run stores, and renders the same
/// report.
#[test]
fn a_traced_cell_caches_what_an_untraced_run_caches() {
    let dir = scratch("parity");
    let spec = trace_spec(1, "");
    let cell = expmatrix::expand(&spec, Effort::Quick).unwrap().cells.remove(0);
    let plain_opts =
        MatrixOptions { effort: Effort::Quick, ..MatrixOptions::new(dir.join("plain")) };
    let plain = expmatrix::run_matrix(&spec, &plain_opts).unwrap();
    let t = traced(&spec, Effort::Quick, &dir.join("traced")).unwrap();
    assert!(t.counter("decisions") > 0);

    let entry =
        |cache: &str| std::fs::read(Cache::new(dir.join(cache)).entry_path(cell.digest)).unwrap();
    assert_eq!(entry("plain"), entry("traced/cache"), "tracing changed the cached result");
    let warm = expmatrix::run_matrix(
        &spec,
        &MatrixOptions { effort: Effort::Quick, ..MatrixOptions::new(dir.join("traced/cache")) },
    )
    .unwrap();
    assert_eq!(warm.executed, 0, "the traced run's entry serves an untraced run");
    assert_eq!(warm.report, plain.report);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The canonical traced run must contain decisions from every event
/// category the streaming path can produce, with ECF provenance.
#[test]
fn trace_has_decisions_with_provenance() {
    let dir = scratch("provenance");
    let t = traced(&trace_spec(11, ""), Effort::Quick, &dir).unwrap();
    let lines: Vec<&str> = t.jsonl.lines().collect();
    assert!(!lines.is_empty());
    for l in &lines {
        assert!(l.starts_with('{') && l.ends_with('}'), "not a JSON object: {l}");
    }
    let decisions = lines.iter().filter(|l| l.contains("\"ev\":\"sched_decision\"")).count();
    assert!(decisions > 100, "expected a rich decision log, got {decisions}");
    assert_eq!(t.counter("decisions"), decisions as u64);
    assert!(t.jsonl.contains("\"sched\":\"ecf\""), "decisions must name the scheduler");
    assert!(t.jsonl.contains("\"srtt_us\""), "decisions must carry path inputs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fig 3's mechanism, checked from the decision log at 0.3/8.6. The
/// paper's pathology is the *LTE-idle window*: the default scheduler
/// ships each chunk's tail onto bufferbloated WiFi, then LTE sits idle
/// behind head-of-line blocking. ECF's fix is to *wait* at exactly those
/// moments. So in an ECF trace:
///
/// * waits must exist, and at each one the lowest-sRTT subflow — LTE,
///   once 0.3 Mbps WiFi bufferbloats past it — is cwnd-limited while the
///   declined WiFi candidate has window space (deliberate idling);
/// * waits must skew to chunk *tails*: the backlog `k` at wait events is
///   clearly below the backlog at an average decision;
/// * the logged inequality terms must re-derive the verdict;
/// * and across the run WiFi must end up carrying only a small minority
///   of segments — the slow path stays nearly idle because of those waits.
#[test]
fn fig3_ecf_waits_cover_the_lte_idle_window() {
    let tel = TelemetryHandle::enabled();
    let cfg = StreamingConfig {
        video_secs: 30.0,
        telemetry: tel.clone(),
        ..StreamingConfig::new(0.3, 8.6, SchedulerKind::Ecf, 1)
    };
    let out = run_streaming(&cfg);

    let mut wait_ks = Vec::new();
    let mut all_ks = Vec::new();
    for ev in tel.events() {
        let EventKind::SchedDecision(d) = ev.kind else { continue };
        all_ks.push(d.queued_pkts);
        let Why::EcfWait(terms) = d.why else { continue };
        wait_ks.push(d.queued_pkts);
        assert_eq!(d.decision, Decision::Wait);

        let paths = &d.paths[..d.n_paths as usize];
        let fast = paths
            .iter()
            .filter(|p| p.usable)
            .min_by_key(|p| p.srtt_us)
            .expect("wait implies a usable path");
        assert_eq!(fast.path, 1, "at 0.3/8.6 the fast-by-sRTT subflow is LTE");
        assert!(fast.inflight >= fast.cwnd, "waited although the fast subflow had space: {d:?}");
        assert!(
            paths.iter().any(|p| p.usable && p.inflight < p.cwnd),
            "waited with no usable alternative (should be blocked): {d:?}"
        );

        // The logged terms must re-derive the verdict: both inequalities
        // held, with a non-negative δ margin folded in.
        assert!(terms.wait_for_fast_s < terms.threshold_s, "{terms:?}");
        assert!(terms.slow_time_s >= terms.slow_floor_s, "{terms:?}");
        assert!(terms.delta_s >= 0.0);
    }
    let waits = wait_ks.len();
    assert!(waits > 50, "0.3/8.6 must trigger ECF waiting, got {waits}");
    let median = |v: &mut Vec<u32>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (wait_med, all_med) = (median(&mut wait_ks), median(&mut all_ks));
    assert!(
        wait_med * 2 < all_med,
        "waits should cluster at chunk tails: median k {wait_med} vs {all_med}"
    );
    assert!(
        out.fast_fraction > 0.8,
        "waiting should keep WiFi nearly idle, fast fraction {}",
        out.fast_fraction
    );
    assert!(tel.counter(telemetry::Counter::WaitDecisions) >= waits as u64);
}
