//! Cell execution: map a resolved cell config onto the shared workload
//! runners and extract a JSON result.
//!
//! This is the only bridge between spec vocabulary and simulator types, so
//! it is deliberately strict: unknown schedulers, congestion controllers,
//! scenario kinds, or workloads are errors, not silent defaults — a typo'd
//! spec must fail loudly instead of caching a wrong-but-plausible result.
//!
//! Each scenario kind fixes its horizon formula, lossy-path index and seed
//! wiring here; `tests/matrix.rs` pins the reports they produce by digest.

use std::collections::BTreeMap;

use dash::PlayerConfig;
use ecf_core::SchedulerKind;
use metrics::Cdf;
use mptcp::{CcKind, RecorderConfig};
use scenario::{GilbertElliott, LossModel, Scenario};
use simnet::Time;
use testkit::json::Value;

use crate::common::{run_browse, run_streaming, secs, StreamingConfig, VARIABLE_BW_SET};
use crate::quicweb::run_quic_web;

/// Execute one cell, returning its result document:
///
/// ```json
/// { "scalars": { "avg_bitrate": .., "avg_throughput": .., "ideal_bitrate": ..,
///                "fast_fraction": .., "fast_iw_resets": .., "events_processed": .. },
///   "series":  { "chunk_throughputs": [[t, mbps], ...],
///                "sndbuf_rows": ["t\twifi\tlte", ...] } }   // when recorded
/// ```
pub fn execute(cfg: &Value) -> Result<Value, String> {
    match str_field(cfg, "workload")? {
        "streaming" => streaming_cell(cfg),
        "quic_web" => quic_web_cell(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One `quic_web` cell: the cnn-like page on *both* transports (one MPQUIC
/// connection with 107 streams vs six MPTCP connections) for one
/// scheduler/bandwidth/seed point, so every cached result is already a
/// paired comparison. Scalars are `<transport>_<observable>`.
fn quic_web_cell(cfg: &Value) -> Result<Value, String> {
    let wifi = rate_field(cfg, "wifi_mbps")?;
    let lte = rate_field(cfg, "lte_mbps")?;
    let seed = num_field(cfg, "seed")? as u64;
    let scheduler = parse_scheduler(str_field(cfg, "scheduler")?)?;

    let mut scalars = BTreeMap::new();
    let mut tb = run_browse(wifi, lte, scheduler, seed);
    let plt = tb.app().page_load_time.filter(|_| tb.app().done());
    let plt = plt.ok_or("mptcp page load did not complete")?;
    let page = PageLoad {
        completions: tb.app().completion_times_secs(),
        ooo: tb.world_mut().recorder.take_ooo_secs(),
        plt,
        events: tb.events_processed(),
    };
    page.put("mptcp", &mut scalars);

    let mut tb = run_quic_web(wifi, lte, scheduler, seed);
    let plt = tb.app().page_load_time.filter(|_| tb.app().done());
    let plt = plt.ok_or("quic page load did not complete")?;
    let page = PageLoad {
        completions: tb
            .world()
            .recorder
            .requests
            .iter()
            .filter_map(|r| Some(r.completion_time()?.as_secs_f64()))
            .collect(),
        ooo: tb.world_mut().recorder.take_ooo_secs(),
        plt,
        events: tb.events_processed(),
    };
    page.put("quic", &mut scalars);

    let mut result = BTreeMap::new();
    result.insert("scalars".to_string(), Value::Object(scalars));
    result.insert("series".to_string(), Value::Object(BTreeMap::new()));
    Ok(Value::Object(result))
}

/// One transport's finished page load.
struct PageLoad {
    completions: Vec<f64>,
    ooo: Vec<f64>,
    plt: Time,
    events: u64,
}

impl PageLoad {
    fn put(self, transport: &str, scalars: &mut BTreeMap<String, Value>) {
        let obj = Cdf::from_samples(self.completions);
        let ooo = Cdf::from_samples(self.ooo);
        for (name, v) in [
            ("obj_mean_s", obj.mean()),
            ("obj_median_s", obj.median()),
            ("obj_p99_s", obj.quantile(0.99)),
            ("plt_s", self.plt.as_secs_f64()),
            ("ooo_mean_s", ooo.mean()),
            ("ooo_p99_s", ooo.quantile(0.99)),
            ("events", self.events as f64),
        ] {
            scalars.insert(format!("{transport}_{name}"), Value::Number(v));
        }
    }
}

fn streaming_cell(cfg: &Value) -> Result<Value, String> {
    let wifi = rate_field(cfg, "wifi_mbps")?;
    let lte = rate_field(cfg, "lte_mbps")?;
    let video_secs = num_field(cfg, "video_secs")?;
    let chunk_secs = PlayerConfig::default().chunk_secs;
    if !(video_secs.is_finite() && video_secs >= chunk_secs) {
        return Err(format!(
            "\"video_secs\" must be at least one {chunk_secs} s chunk, got {video_secs}"
        ));
    }
    let seed = num_field(cfg, "seed")? as u64;
    let scheduler = parse_scheduler(str_field(cfg, "scheduler")?)?;
    let record_sndbuf = cfg
        .get("record_sndbuf")
        .map(|v| v.as_bool().ok_or("\"record_sndbuf\" must be a bool"))
        .transpose()?
        .unwrap_or(false);

    let mut run_cfg = StreamingConfig::new(wifi, lte, scheduler, seed);
    run_cfg.video_secs = video_secs;
    if let Some(cc) = cfg.get("cc") {
        run_cfg.cc = parse_cc(cc.as_str().ok_or("\"cc\" must be a string")?)?;
    }
    if let Some(v) = cfg.get("cwnd_conservation") {
        run_cfg.cwnd_conservation =
            v.as_bool().ok_or("\"cwnd_conservation\" must be a bool")?;
    }
    if let Some(v) = cfg.get("subflows_per_interface") {
        // Two interfaces' subflows must fit telemetry's per-path slots.
        let max = (telemetry::MAX_PATHS / 2) as f64;
        let n = v.as_f64().ok_or("\"subflows_per_interface\" must be a number")?;
        if n.fract() != 0.0 || !(1.0..=max).contains(&n) {
            return Err(format!(
                "\"subflows_per_interface\" must be an integer in 1..={max}, got {n}"
            ));
        }
        run_cfg.subflows_per_interface = n as usize;
    }
    if record_sndbuf {
        run_cfg.recorder = RecorderConfig { sndbuf_traces: true, ..RecorderConfig::default() };
    }
    run_cfg.scenario = build_scenario(cfg, video_secs)?;

    let out = run_streaming(&run_cfg);

    let mut scalars = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        scalars.insert(k.to_string(), Value::Number(v));
    };
    put("avg_bitrate", out.avg_bitrate);
    put("avg_throughput", out.avg_throughput);
    put("ideal_bitrate", out.ideal_bitrate);
    put("fast_fraction", out.fast_fraction);
    put("fast_iw_resets", out.fast_iw_resets as f64);
    put("events_processed", out.events_processed as f64);

    let mut series = BTreeMap::new();
    series.insert(
        "chunk_throughputs".to_string(),
        Value::Array(
            out.chunk_throughputs
                .iter()
                .map(|&(t, v)| Value::Array(vec![Value::Number(t), Value::Number(v)]))
                .collect(),
        ),
    );
    if record_sndbuf {
        // Pre-render Fig 3's rows here: the thinning/lookup pipeline stays
        // beside the recorder types, and the cached form is already the
        // exact figure text (floats can round-trip, but keeping the cache
        // in render space removes the question entirely).
        if out.sndbuf_traces.len() < 2 {
            return Err("sndbuf recording produced fewer than 2 traces".to_string());
        }
        let wifi = out.sndbuf_traces[0].thin(200);
        let lte = &out.sndbuf_traces[1];
        let rows = wifi
            .points
            .iter()
            .map(|&(t, w)| {
                let l = lte.value_at(t).unwrap_or(0.0);
                Value::String(format!("{t:.1}\t{w:.1}\t{l:.1}"))
            })
            .collect();
        series.insert("sndbuf_rows".to_string(), Value::Array(rows));
    }

    let mut result = BTreeMap::new();
    result.insert("scalars".to_string(), Value::Object(scalars));
    result.insert("series".to_string(), Value::Object(series));
    Ok(Value::Object(result))
}

/// Periodic LTE blackouts: every 60 s starting at t=30 s the LTE
/// interface goes dark for `outage_secs`, modelling repeated cell-edge
/// dropouts over a long session. `0` means no outages (static baseline).
fn handover_scenario(outage_secs: u64, wall_horizon_secs: u64) -> Scenario {
    let mut s = Scenario::new();
    if outage_secs == 0 {
        return s;
    }
    let mut t = 30u64;
    while t + outage_secs < wall_horizon_secs {
        s = s.outage(1, Time::from_secs(t), Time::from_secs(t + outage_secs));
        t += 60;
    }
    s
}

/// Build the run's scenario. `None` when the config names neither a
/// scenario nor a loss process (a plain static run); an explicit
/// `{"kind": "static"}` or a zero-average loss yields `Some(empty)`, which
/// runs identically.
fn build_scenario(cfg: &Value, video_secs: f64) -> Result<Option<Scenario>, String> {
    let scenario_doc = cfg.get("scenario");
    let loss_doc = cfg.get("loss");
    if scenario_doc.is_none() && loss_doc.is_none() {
        return Ok(None);
    }

    let mut s = match scenario_doc {
        None => Scenario::new(),
        Some(doc) => match str_field(doc, "kind")? {
            "static" => Scenario::new(),
            "handover" => {
                // Outage cycles across the whole possible run, up to the
                // run_streaming wall horizon; late events on a finished run
                // are harmless.
                let outage = num_field(doc, "outage_secs")? as u64;
                let wall_horizon = (video_secs * 30.0) as u64 + 300;
                handover_scenario(outage, wall_horizon)
            }
            "random_rates" => {
                // §5.3's random-walk process on both interfaces, with the
                // fig16/fig17 horizon formula.
                let wifi_seed = num_field(doc, "wifi_seed")? as u64;
                let lte_seed = num_field(doc, "lte_seed")? as u64;
                let interval = num_field(doc, "mean_interval_secs")? as u64;
                let horizon = Time::from_secs((video_secs * 4.0) as u64 + 300);
                Scenario::new()
                    .random_rates(0, wifi_seed, secs(interval), &VARIABLE_BW_SET, horizon)
                    .random_rates(1, lte_seed, secs(interval), &VARIABLE_BW_SET, horizon)
            }
            other => return Err(format!("unknown scenario kind {other:?}")),
        },
    };

    if let Some(doc) = loss_doc {
        // Gilbert–Elliott loss on the fast (LTE) interface from t=0, the
        // dyn_burstloss regime; zero average loss means no loss process.
        let avg = num_field(doc, "avg")?;
        let burst = num_field(doc, "mean_burst")?;
        if avg > 0.0 {
            s = s.loss(
                Time::ZERO,
                1,
                LossModel::GilbertElliott(GilbertElliott::bursty(avg, burst)),
            );
        }
    }
    Ok(Some(s))
}

fn parse_scheduler(name: &str) -> Result<SchedulerKind, String> {
    Ok(match name {
        "default" => SchedulerKind::Default,
        "ecf" => SchedulerKind::Ecf,
        "daps" => SchedulerKind::Daps,
        "blest" => SchedulerKind::Blest,
        "sttf" => SchedulerKind::Sttf,
        "round_robin" => SchedulerKind::RoundRobin,
        other => return Err(format!("unknown scheduler {other:?}")),
    })
}

fn parse_cc(name: &str) -> Result<CcKind, String> {
    Ok(match name {
        "reno" => CcKind::Reno,
        "lia" => CcKind::Lia,
        "olia" => CcKind::Olia,
        other => return Err(format!("unknown cc {other:?}")),
    })
}

fn str_field<'v>(doc: &'v Value, key: &str) -> Result<&'v str, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("cell config needs a string {key:?}"))
}

fn num_field(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("cell config needs a number {key:?}"))
}

/// A link rate in Mbps: finite and above zero (a zero rate would run on a
/// 1 bps link and cache a result that measures nothing).
fn rate_field(doc: &Value, key: &str) -> Result<f64, String> {
    let mbps = num_field(doc, key)?;
    if mbps.is_finite() && mbps > 0.0 {
        Ok(mbps)
    } else {
        Err(format!("{key:?} must be a finite rate above 0 Mbps, got {mbps}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::json;

    #[test]
    fn minimal_streaming_cell_runs() {
        let cfg = json::parse(
            r#"{"workload": "streaming", "wifi_mbps": 4.2, "lte_mbps": 4.2,
                "scheduler": "ecf", "video_secs": 30, "seed": 1}"#,
        )
        .unwrap();
        let result = execute(&cfg).unwrap();
        let scalars = result.get("scalars").unwrap();
        assert!(scalars.get("avg_bitrate").and_then(Value::as_f64).unwrap() > 0.0);
        assert_eq!(
            scalars.get("ideal_bitrate").and_then(Value::as_f64),
            Some(8.4)
        );
        let chunks = result
            .get("series")
            .and_then(|s| s.get("chunk_throughputs"))
            .and_then(Value::as_array)
            .unwrap();
        assert!(!chunks.is_empty());
    }

    #[test]
    fn typos_fail_loudly() {
        let base = BASE;
        let bad_sched = base.replace("\"ecf\"", "\"ecff\"");
        assert!(execute(&json::parse(&bad_sched).unwrap())
            .unwrap_err()
            .contains("unknown scheduler"));
        let bad_workload = base.replace("streaming", "browsing");
        assert!(execute(&json::parse(&bad_workload).unwrap())
            .unwrap_err()
            .contains("unknown workload"));
        let bad_cc = base.replace("\"seed\": 1", "\"seed\": 1, \"cc\": \"cubic\"");
        assert!(execute(&json::parse(&bad_cc).unwrap())
            .unwrap_err()
            .contains("unknown cc"));
        let bad_kind = base
            .replace("\"seed\": 1", "\"seed\": 1, \"scenario\": {\"kind\": \"warp\"}");
        assert!(execute(&json::parse(&bad_kind).unwrap())
            .unwrap_err()
            .contains("unknown scenario kind"));
    }

    const BASE: &str = r#"{"workload": "streaming", "wifi_mbps": 1.0, "lte_mbps": 2.0,
                           "scheduler": "ecf", "video_secs": 30, "seed": 1}"#;

    /// `BASE` with `field` set to `value` (added if absent), run.
    fn execute_with(workload: &str, field: &str, value: &str) -> Result<Value, String> {
        let mut cfg = json::parse(&BASE.replace("streaming", workload)).unwrap();
        let Value::Object(map) = &mut cfg else { unreachable!() };
        map.insert(field.to_string(), json::parse(value).unwrap());
        execute(&cfg)
    }

    #[test]
    fn video_shorter_than_a_chunk_is_an_error() {
        // Used to panic on the DASH player's constructor assert.
        for secs in ["2", "0", "-5", "1e999"] {
            let err = execute_with("streaming", "video_secs", secs).unwrap_err();
            assert!(err.contains("\"video_secs\""), "{secs}: {err}");
        }
    }

    #[test]
    fn rates_must_be_positive_in_both_cell_kinds() {
        // Used to run on a 1 bps link and return Ok with a meaningless result.
        for workload in ["streaming", "quic_web"] {
            for field in ["wifi_mbps", "lte_mbps"] {
                for rate in ["0", "-1", "1e999"] {
                    let err = execute_with(workload, field, rate).unwrap_err();
                    let named = err.contains(&format!("{field:?}"));
                    assert!(named, "{workload} {field}={rate}: {err}");
                }
            }
        }
    }

    #[test]
    fn subflows_per_interface_must_be_one_or_two() {
        // 2.5 used to truncate silently; 3 per interface overflows the
        // telemetry path slots.
        for n in ["2.5", "0", "3", "-1"] {
            let err = execute_with("streaming", "subflows_per_interface", n).unwrap_err();
            assert!(err.contains("\"subflows_per_interface\""), "{n}: {err}");
        }
    }

    #[test]
    fn scenario_is_none_only_for_pure_static_cells() {
        let plain = json::parse(
            r#"{"workload": "streaming", "wifi_mbps": 1.0, "lte_mbps": 2.0,
                "scheduler": "ecf", "video_secs": 30, "seed": 1}"#,
        )
        .unwrap();
        assert!(build_scenario(&plain, 30.0).unwrap().is_none());
        let loss = json::parse(r#"{"loss": {"avg": 0.01, "mean_burst": 8}}"#).unwrap();
        let s = build_scenario(&loss, 30.0).unwrap().unwrap();
        assert!(!s.is_static());
        // Zero average loss: Some(empty), the static rung of the ladder.
        let zero = json::parse(r#"{"loss": {"avg": 0.0, "mean_burst": 8}}"#).unwrap();
        assert!(build_scenario(&zero, 30.0).unwrap().unwrap().is_static());
    }

    #[test]
    fn handover_scenario_cycles_until_horizon() {
        let s = handover_scenario(10, 200);
        // Cycles at 30, 90, 150 (210 would overrun): 3 outages = 6 events.
        assert_eq!(s.compile().len(), 6);
        assert!(handover_scenario(0, 200).is_static());
    }
}
