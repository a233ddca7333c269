//! Cell execution: map a resolved cell config onto the shared workload
//! runners and extract a JSON result.
//!
//! This is the only bridge between spec vocabulary and simulator types, so
//! it is deliberately strict: unknown schedulers, congestion controllers,
//! scenario kinds, apps or workloads are errors, not silent defaults, and
//! so is an integer field holding anything but a non-negative integer — a
//! typo'd spec must fail loudly instead of caching a wrong-but-plausible
//! result.
//!
//! Each scenario kind fixes its horizon formula, lossy-path index and seed
//! wiring here; `tests/matrix.rs` pins the reports they produce by digest.
//!
//! Workloads:
//!
//! * `streaming` — one DASH session (Figs 1–3, 5–17, the ablations and
//!   the dynamics ladders). Raw per-run observables are opt-in `record_*`
//!   flags, so adding one never moves an existing cell's cache key.
//! * `wget` — one download: completion time and each subflow's sRTT
//!   (Figs 18/19, Table 2).
//! * `browse` — one 6-connection MPTCP page load with its raw completion
//!   and OOO samples (Figs 20/21); `quic_web` runs the same page load
//!   beside one MPQUIC connection.
//! * `wild` — the synthesized §6 paths under the DASH or browser app
//!   (Figs 22/23, Table 4).
//! * `population` — a browse population through [`run_sweep`]: `units`
//!   users of 6 connections each, sharded, or co-simulated behind a shared
//!   LTE backhaul (the `browse_sweep` and `coupled_browse` specs).
//!
//! Only a `streaming` cell reads the `CellEnv` telemetry handle (a
//! traced run); only a `population` cell reads its worker count. Neither
//! changes a result, so neither is part of a cell's config.

use std::collections::BTreeMap;
use std::time::Duration;

use dash::{DashApp, PlayerConfig};
use ecf_core::{EcfConfig, SchedulerKind};
use metrics::Cdf;
use mptcp::{CcKind, ConnSpec, Connection, RecorderConfig, Testbed, TestbedConfig};
use scenario::{GilbertElliott, LossModel, Scenario};
use simnet::{PathConfig, Time};
use telemetry::{Counter, TelemetryHandle};
use testkit::digest;
use testkit::json::{self, Value};
use testkit::Rng;
use webload::{BrowserApp, PageModel};

use crate::common::{
    run_browse, run_streaming, run_wget, secs, streaming_horizon_secs, StreamingConfig,
    VARIABLE_BW_SET,
};
use crate::cosim::COUPLED_BENCH_GROUPS;
use crate::quicweb::run_quic_web;
use crate::sharding::{browse_coupled_population, browse_population, run_sweep, SweepOptions};

/// What a cell runs with besides its config.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellEnv {
    /// Worker threads for a population sweep (`None`: the default).
    pub workers: Option<usize>,
    /// Sink a streaming run records its decisions and lifecycle events in
    /// (off unless the matrix runs traced).
    pub telemetry: TelemetryHandle,
}

/// Execute one cell, returning its result document:
///
/// ```json
/// { "scalars": { "avg_bitrate": .., "avg_throughput": .., ... },
///   "series":  { "chunk_throughputs": [[t, mbps], ...], ... } }
/// ```
pub(crate) fn execute(cfg: &Value, env: &CellEnv) -> Result<Value, String> {
    match json::string(cfg, "workload")? {
        "streaming" => streaming_cell(cfg, &env.telemetry),
        "population" => population_cell(cfg, env.workers),
        "quic_web" => quic_web_cell(cfg),
        "wget" => wget_cell(cfg),
        "browse" => browse_cell(cfg),
        "wild" => wild_cell(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// A result document's two maps, filled by the cell executors.
#[derive(Default)]
struct CellResult {
    scalars: BTreeMap<String, Value>,
    series: BTreeMap<String, Value>,
}

impl CellResult {
    fn scalar(&mut self, key: &str, v: f64) {
        self.scalars.insert(key.to_string(), Value::Number(v));
    }

    fn series(&mut self, key: &str, v: Value) {
        self.series.insert(key.to_string(), v);
    }

    fn into_value(self) -> Value {
        let mut result = BTreeMap::new();
        result.insert("scalars".to_string(), Value::Object(self.scalars));
        result.insert("series".to_string(), Value::Object(self.series));
        Value::Object(result)
    }
}

fn numbers(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

fn points(ps: &[(f64, f64)]) -> Value {
    Value::Array(ps.iter().map(|&(t, v)| numbers(&[t, v])).collect())
}

/// Each subflow's smoothed RTT in ms, in subflow order.
fn srtt_ms(sender: &Connection) -> Value {
    Value::Array(
        sender
            .subflows
            .iter()
            .map(|sf| Value::Number(sf.cc.rtt.srtt().as_secs_f64() * 1e3))
            .collect(),
    )
}

/// One `quic_web` cell: the cnn-like page on *both* transports (one MPQUIC
/// connection with 107 streams vs six MPTCP connections) for one
/// scheduler/bandwidth/seed point, so every cached result is already a
/// paired comparison. Scalars are `<transport>_<observable>`.
fn quic_web_cell(cfg: &Value) -> Result<Value, String> {
    let wifi = rate_field(cfg, "wifi_mbps")?;
    let lte = rate_field(cfg, "lte_mbps")?;
    let seed = json::uint(cfg, "seed")?;
    let scheduler = parse_scheduler(json::field(cfg, "scheduler")?)?;

    let mut result = CellResult::default();
    mptcp_page(wifi, lte, scheduler, seed)?.put("mptcp", &mut result.scalars);

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
    page.put("quic", &mut result.scalars);
    Ok(result.into_value())
}

/// One `browse` cell: the 6-connection MPTCP page load of `quic_web`'s
/// MPTCP side, keeping its raw samples so figures can pool seeds before
/// taking quantiles.
fn browse_cell(cfg: &Value) -> Result<Value, String> {
    let wifi = rate_field(cfg, "wifi_mbps")?;
    let lte = rate_field(cfg, "lte_mbps")?;
    let seed = json::uint(cfg, "seed")?;
    let scheduler = parse_scheduler(json::field(cfg, "scheduler")?)?;
    let page = mptcp_page(wifi, lte, scheduler, seed)?;
    let mut result = CellResult::default();
    result.scalar("plt_s", page.plt.as_secs_f64());
    result.scalar("events", page.events as f64);
    result.series("completions", numbers(&page.completions));
    result.series("ooo_delays", numbers(&page.ooo));
    Ok(result.into_value())
}

/// The MPTCP page load both `browse` and `quic_web` cells extract.
fn mptcp_page(
    wifi: f64,
    lte: f64,
    scheduler: SchedulerKind,
    seed: u64,
) -> Result<PageLoad, String> {
    let mut tb = run_browse(wifi, lte, scheduler, seed);
    let plt = tb.app().page_load_time.filter(|_| tb.app().done());
    let plt = plt.ok_or("mptcp page load did not complete")?;
    Ok(PageLoad {
        completions: tb.app().completion_times_secs(),
        ooo: tb.world_mut().recorder.take_ooo_secs(),
        plt,
        events: tb.events_processed(),
    })
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

/// One `wget` cell: a single download of `bytes`. A download that does
/// not finish within the runner's horizon is an error, not a NaN that the
/// cache would store as `null`.
fn wget_cell(cfg: &Value) -> Result<Value, String> {
    let wifi = rate_field(cfg, "wifi_mbps")?;
    let lte = rate_field(cfg, "lte_mbps")?;
    let seed = json::uint(cfg, "seed")?;
    let scheduler = parse_scheduler(json::field(cfg, "scheduler")?)?;
    let bytes = json::uint(cfg, "bytes")?;
    if bytes == 0 {
        return Err("\"bytes\" must be at least 1".to_string());
    }
    let (completion, tb) = run_wget(wifi, lte, scheduler, bytes, seed);
    if !completion.is_finite() {
        return Err(format!("the {bytes} B download did not complete"));
    }
    let mut result = CellResult::default();
    result.scalar("completion_s", completion);
    result.series("srtt_ms", srtt_ms(tb.world().sender(0)));
    Ok(result.into_value())
}

fn streaming_cell(cfg: &Value, telemetry: &TelemetryHandle) -> Result<Value, String> {
    let wifi = rate_field(cfg, "wifi_mbps")?;
    let lte = rate_field(cfg, "lte_mbps")?;
    let video_secs = video_field(cfg)?;
    let seed = json::uint(cfg, "seed")?;
    let scheduler = parse_scheduler(json::field(cfg, "scheduler")?)?;
    let record_sndbuf = json::flag(cfg, "record_sndbuf")?;
    let record_cwnd = json::flag(cfg, "record_cwnd")?;

    let mut run_cfg = StreamingConfig::new(wifi, lte, scheduler, seed);
    run_cfg.video_secs = video_secs;
    transport_fields(cfg, &mut run_cfg)?;
    run_cfg.recorder = RecorderConfig {
        sndbuf_traces: record_sndbuf,
        cwnd_traces: record_cwnd,
        ..RecorderConfig::default()
    };
    run_cfg.scenario = build_scenario(cfg, video_secs)?;
    run_cfg.telemetry = telemetry.clone();

    let out = run_streaming(&run_cfg);

    let mut result = CellResult::default();
    result.scalar("avg_bitrate", out.avg_bitrate);
    result.scalar("avg_throughput", out.avg_throughput);
    result.scalar("ideal_bitrate", out.ideal_bitrate);
    result.scalar("fast_fraction", out.fast_fraction);
    result.scalar("fast_iw_resets", out.fast_iw_resets as f64);
    result.scalar("events_processed", out.events_processed as f64);
    result.series("chunk_throughputs", points(&out.chunk_throughputs));
    if json::flag(cfg, "record_progress")? {
        result.series("download_progress", points(&out.download_progress));
    }
    if json::flag(cfg, "record_gaps")? {
        result.series("last_packet_gaps", numbers(&out.last_packet_gaps));
    }
    if json::flag(cfg, "record_ooo")? {
        result.series("ooo_delays", numbers(&out.ooo_delays));
    }
    let traces =
        |ts: &[metrics::TimeSeries]| Value::Array(ts.iter().map(|t| points(&t.points)).collect());
    if record_cwnd {
        result.series("cwnd_traces", traces(&out.cwnd_traces));
    }
    if record_sndbuf {
        result.series("sndbuf_traces", traces(&out.sndbuf_traces));
    }
    Ok(result.into_value())
}

/// Connections per population unit (a browser's six parallel
/// connections, as in the `browse` cell).
const POP_CONNS: usize = 6;
/// Each population unit's private WiFi rate, Mbps.
const POP_WIFI: f64 = 1.0;
/// Each unit's private LTE rate without a backhaul, Mbps.
const POP_LTE: f64 = 10.0;
/// Every population connection's scheduler (no spec compares schedulers
/// over a population).
const POP_SCHEDULER: SchedulerKind = SchedulerKind::Ecf;
/// The most units a population cell builds: its paths, connections and
/// pages are allocated up front, so a typo'd count must fail here, not in
/// the allocator.
const MAX_POP_UNITS: u64 = 1_000_000;

/// One `population` cell: `units` browse users, each fetching its own
/// cnn-like page over [`POP_CONNS`] ECF connections on a private WiFi + LTE
/// path pair, run through [`run_sweep`]. Without `backhaul_mbps` every
/// unit is a shard of its own; with it every LTE leg contends for that
/// shared capacity, co-simulated in [`COUPLED_BENCH_GROUPS`] lockstep
/// engine groups. The sweep contract makes the merged digest independent
/// of the shard plan and the worker count, so neither is a field.
///
/// The digest is a 16-hex string (a JSON number cannot hold 64 bits);
/// `groups`, `rounds` and `boundary_msgs` are the engine groups and the
/// co-sim's sync rounds and boundary messages (0 when uncoupled).
fn population_cell(cfg: &Value, workers: Option<usize>) -> Result<Value, String> {
    let units = json::uint(cfg, "units")?;
    if !(1..=MAX_POP_UNITS).contains(&units) {
        return Err(format!("\"units\" must be in 1..={MAX_POP_UNITS}, got {units}"));
    }
    let units = units as usize;
    let seed = json::uint(cfg, "seed")?;
    let backhaul =
        cfg.get("backhaul_mbps").map(|_| rate_field(cfg, "backhaul_mbps")).transpose()?;
    let (pop, max_shards) = match backhaul {
        None => (browse_population(seed, units, POP_CONNS, POP_WIFI, POP_LTE, POP_SCHEDULER), 0),
        Some(mbps) => {
            let pop =
                browse_coupled_population(seed, units, POP_CONNS, POP_WIFI, mbps, POP_SCHEDULER);
            (pop, COUPLED_BENCH_GROUPS)
        }
    };
    // Counters only: shard engines record no events.
    let telemetry = TelemetryHandle::enabled();
    let opts = SweepOptions { max_shards, workers, telemetry: telemetry.clone() };
    let report = run_sweep(&pop, &opts);

    let requests: Vec<f64> =
        report.units.iter().flat_map(|u| u.objects.iter().map(|o| o.completion_secs())).collect();
    let requests = Cdf::from_samples(requests);
    let mut result = CellResult::default();
    result.scalars.insert("digest".to_string(), Value::String(digest::hex16(report.digest)));
    let pages = report.units.iter().filter(|u| u.page_load.is_some()).count();
    result.scalar("pages", pages as f64);
    result.scalar("groups", report.shard_events.len() as f64);
    result.scalar("req_s_p50", requests.median());
    result.scalar("req_s_p99", requests.quantile(0.99));
    result.scalar("rounds", telemetry.counter(Counter::CosimRounds) as f64);
    result.scalar("boundary_msgs", telemetry.counter(Counter::CosimBoundaryMsgs) as f64);
    Ok(result.into_value())
}

/// The nine wild runs' baseline WiFi RTTs, following Fig 22(a)'s sorted
/// spread.
const WILD_WIFI_RTT_MS: [u64; 9] = [70, 80, 120, 180, 260, 380, 520, 700, 950];
/// LTE's stable wild RTT (Fig 22(a): ≈70 ms in every run).
const WILD_LTE_RTT_MS: u64 = 70;

/// Build the two wild paths + delay drift schedules for one run.
///
/// The paper drives a public-WiFi + LTE phone against a Washington-DC
/// cloud server, unregulated (§6). Substitution (DESIGN.md): the paths are
/// synthesized from the paper's own Fig 22(a) measurements — across nine
/// runs the WiFi RTT spans ~60 ms to ~1 s while LTE stays pinned near
/// 70 ms — adding a slow random walk on the WiFi delay and mild rate
/// noise. Bandwidths are unshaped (several Mbps).
fn wild_testbed(run: u64, scheduler: SchedulerKind, seed: u64, horizon: Time) -> TestbedConfig {
    let mut rng = Rng::seed_from_u64(seed ^ (run << 8));
    // Town WiFi: weak and variable; LTE: solid — the paper's public-AP
    // vs AT&T contrast.
    let wifi_mbps = rng.gen_range(1.0..5.0);
    let lte_mbps = rng.gen_range(7.0..10.0);
    let wifi_rtt = Duration::from_millis(WILD_WIFI_RTT_MS[run as usize % WILD_WIFI_RTT_MS.len()]);
    let mut wifi = PathConfig::custom(wifi_mbps, wifi_rtt / 2, 1_500_000);
    wifi.fwd.jitter_max = wifi_rtt / 8 + Duration::from_millis(2);
    let mut lte =
        PathConfig::custom(lte_mbps, Duration::from_millis(WILD_LTE_RTT_MS / 2), 1_500_000);
    lte.fwd.jitter_max = Duration::from_millis(5);

    // WiFi delay random walk: ±25% steps every ~5 s.
    let mut dynamics = Scenario::new();
    let mut t = Time::from_secs(5);
    let base_us = (wifi_rtt / 2).as_micros() as f64;
    let mut cur = base_us;
    while t < horizon {
        let step: f64 = rng.gen_range(-0.25..0.25);
        cur = (cur * (1.0 + step)).clamp(base_us * 0.5, base_us * 2.0);
        dynamics = dynamics.one_way_delay(t, 0, Duration::from_micros(cur as u64));
        t += Duration::from_secs(5);
    }

    TestbedConfig {
        paths: vec![wifi, lte],
        conns: vec![ConnSpec::new(scheduler, vec![0, 1])],
        seed,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: dynamics,
        telemetry: telemetry::TelemetryHandle::off(),
    }
}

/// One `wild` cell: run `run` of the synthesized wild paths under the
/// `dash` app (one streaming session: throughput and both subflows'
/// sRTT) or the `browser` app (the cnn-like page over six connections:
/// raw completion and OOO samples).
fn wild_cell(cfg: &Value) -> Result<Value, String> {
    let run = json::uint(cfg, "run")?;
    let seed = json::uint(cfg, "seed")?;
    let scheduler = parse_scheduler(json::field(cfg, "scheduler")?)?;
    let mut result = CellResult::default();
    match json::string(cfg, "app")? {
        "dash" => {
            let video_secs = video_field(cfg)?;
            let horizon = Time::from_secs(video_secs as u64 * 6 + 120);
            let tb_cfg = wild_testbed(run, scheduler, seed, horizon);
            let player = PlayerConfig { video_secs, ..PlayerConfig::default() };
            let mut tb = Testbed::new(tb_cfg, DashApp::new(player, 0));
            tb.run_until(horizon);
            result.scalar("avg_throughput", tb.app().player.avg_throughput_mbps());
            result.series("srtt_ms", srtt_ms(tb.world().sender(0)));
        }
        "browser" => {
            let horizon = Time::from_secs(900);
            let mut tb_cfg = wild_testbed(run, scheduler, seed, horizon);
            tb_cfg.conns = (0..6).map(|_| ConnSpec::new(scheduler, vec![0, 1])).collect();
            let mut tb = Testbed::new(tb_cfg, BrowserApp::new(PageModel::cnn_like(2014), 6));
            tb.run_until(horizon);
            result.series("completions", numbers(&tb.app().completion_times_secs()));
            result.series("ooo_delays", numbers(&tb.world_mut().recorder.take_ooo_secs()));
        }
        other => return Err(format!("unknown app {other:?}")),
    }
    Ok(result.into_value())
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
        Some(doc) => match json::string(doc, "kind")? {
            "static" => Scenario::new(),
            "handover" => {
                // Outage cycles across the whole possible run, up to the
                // streaming horizon; late events on a finished run are
                // harmless.
                let outage = json::uint(doc, "outage_secs")?;
                handover_scenario(outage, streaming_horizon_secs(video_secs))
            }
            "random_rates" => {
                // §5.3's random-walk process on both interfaces, with the
                // fig16/fig17 horizon formula.
                let wifi_seed = json::uint(doc, "wifi_seed")?;
                let lte_seed = json::uint(doc, "lte_seed")?;
                let interval = json::uint(doc, "mean_interval_secs")?;
                if interval == 0 {
                    // A zero mean interval would generate rate changes forever.
                    return Err("\"mean_interval_secs\" must be at least 1".to_string());
                }
                let horizon = Time::from_secs((video_secs * 4.0) as u64 + 300);
                Scenario::new()
                    .random_rates(0, wifi_seed, secs(interval), &VARIABLE_BW_SET, horizon)
                    .random_rates(1, lte_seed, secs(interval), &VARIABLE_BW_SET, horizon)
            }
            "inline" => {
                // A `Scenario::from_json` document (`events`, `processes`)
                // in interface space: path 0 is WiFi, path 1 LTE.
                let s = Scenario::from_value(doc)?;
                s.check_paths(2)?;
                s
            }
            other => return Err(format!("unknown scenario kind {other:?}")),
        },
    };

    if let Some(doc) = loss_doc {
        // Gilbert–Elliott loss on the fast (LTE) interface from t=0, the
        // dyn_burstloss regime; zero average loss means no loss process.
        let avg = json::number(doc, "avg")?;
        let burst = json::number(doc, "mean_burst")?;
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

/// A scheduler: a name, `{"ecf_with": {..}}` (an ECF variant; omitted
/// fields keep their [`EcfConfig::default`] values) or
/// `{"single_path": i}` (everything on subflow `i`).
fn parse_scheduler(v: &Value) -> Result<SchedulerKind, String> {
    if let Some(name) = v.as_str() {
        return Ok(match name {
            "default" => SchedulerKind::Default,
            "ecf" => SchedulerKind::Ecf,
            "daps" => SchedulerKind::Daps,
            "blest" => SchedulerKind::Blest,
            "sttf" => SchedulerKind::Sttf,
            other => return Err(format!("unknown scheduler {other:?}")),
        });
    }
    let unknown = || format!("unknown scheduler {}", testkit::json::canonical(v));
    let obj = v.as_object().filter(|m| m.len() == 1).ok_or_else(unknown)?;
    let (kind, params) = obj.iter().next().expect("one entry");
    match kind.as_str() {
        "ecf_with" => {
            let params = params.as_object().ok_or("\"ecf_with\" must be an object")?;
            let mut cfg = EcfConfig::default();
            for (key, value) in params {
                let bool_value = || value.as_bool().ok_or(format!("{key:?} must be a bool"));
                match key.as_str() {
                    "beta" => {
                        cfg.beta = value
                            .as_f64()
                            .filter(|b| b.is_finite() && *b >= 0.0)
                            .ok_or("\"beta\" must be a finite number >= 0")?
                    }
                    "use_delta" => cfg.use_delta = bool_value()?,
                    "use_second_inequality" => cfg.use_second_inequality = bool_value()?,
                    other => return Err(format!("unknown ecf_with field {other:?}")),
                }
            }
            Ok(SchedulerKind::EcfWith(cfg))
        }
        "single_path" => Ok(SchedulerKind::SinglePath(json::uint(v, "single_path")? as usize)),
        _ => Err(unknown()),
    }
}

/// The streaming cell's optional transport fields — `cc`,
/// `cwnd_conservation`, `subflows_per_interface` — over `run_cfg`'s
/// defaults.
fn transport_fields(cfg: &Value, run_cfg: &mut StreamingConfig) -> Result<(), String> {
    if let Some(cc) = json::optional(cfg, "cc", json::string)? {
        run_cfg.cc = parse_cc(cc)?;
    }
    // A present flag is a bool field; absent keeps the default (on).
    if let Some(on) = json::optional(cfg, "cwnd_conservation", json::flag)? {
        run_cfg.cwnd_conservation = on;
    }
    if let Some(n) = json::optional(cfg, "subflows_per_interface", json::uint)? {
        // Two interfaces' subflows must fit telemetry's per-path slots.
        let max = (telemetry::MAX_PATHS / 2) as u64;
        if !(1..=max).contains(&n) {
            return Err(format!(
                "\"subflows_per_interface\" must be an integer in 1..={max}, got {n}"
            ));
        }
        run_cfg.subflows_per_interface = n as usize;
    }
    Ok(())
}

fn parse_cc(name: &str) -> Result<CcKind, String> {
    Ok(match name {
        "reno" => CcKind::Reno,
        "lia" => CcKind::Lia,
        "olia" => CcKind::Olia,
        other => return Err(format!("unknown cc {other:?}")),
    })
}

/// `video_secs`: at least one DASH chunk (the player asserts it).
fn video_field(doc: &Value) -> Result<f64, String> {
    let video_secs = json::number(doc, "video_secs")?;
    let chunk_secs = PlayerConfig::default().chunk_secs;
    if video_secs.is_finite() && video_secs >= chunk_secs {
        Ok(video_secs)
    } else {
        Err(format!("\"video_secs\" must be at least one {chunk_secs} s chunk, got {video_secs}"))
    }
}

/// A link rate in Mbps, under the one rate rule of [`simnet::rate_bps`].
fn rate_field(doc: &Value, key: &str) -> Result<f64, String> {
    let mbps = json::number(doc, key)?;
    simnet::rate_bps(mbps, key).map(|_| mbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::json;

    fn run(cfg: &Value) -> Result<Value, String> {
        execute(cfg, &CellEnv::default())
    }

    #[test]
    fn minimal_streaming_cell_runs() {
        let cfg = json::parse(
            r#"{"workload": "streaming", "wifi_mbps": 4.2, "lte_mbps": 4.2,
                "scheduler": "ecf", "video_secs": 30, "seed": 1}"#,
        )
        .unwrap();
        let result = run(&cfg).unwrap();
        let scalars = result.get("scalars").unwrap();
        assert!(scalars.get("avg_bitrate").and_then(Value::as_f64).unwrap() > 0.0);
        assert_eq!(scalars.get("ideal_bitrate").and_then(Value::as_f64), Some(8.4));
        let chunks = result
            .get("series")
            .and_then(|s| s.get("chunk_throughputs"))
            .and_then(Value::as_array)
            .unwrap();
        assert!(!chunks.is_empty());
        // Raw observables are opt-in.
        let series = result.get("series").and_then(Value::as_object).unwrap();
        assert_eq!(series.keys().collect::<Vec<_>>(), ["chunk_throughputs"]);
    }

    #[test]
    fn typos_fail_loudly() {
        let base = BASE;
        let bad_sched = base.replace("\"ecf\"", "\"ecff\"");
        assert!(run(&json::parse(&bad_sched).unwrap()).unwrap_err().contains("unknown scheduler"));
        let bad_workload = base.replace("streaming", "browsing");
        assert!(run(&json::parse(&bad_workload).unwrap())
            .unwrap_err()
            .contains("unknown workload"));
        let bad_cc = base.replace("\"seed\": 1", "\"seed\": 1, \"cc\": \"cubic\"");
        assert!(run(&json::parse(&bad_cc).unwrap()).unwrap_err().contains("unknown cc"));
        let bad_kind =
            base.replace("\"seed\": 1", "\"seed\": 1, \"scenario\": {\"kind\": \"warp\"}");
        assert!(run(&json::parse(&bad_kind).unwrap())
            .unwrap_err()
            .contains("unknown scenario kind"));
        for sched in [r#"{"ecf_with": {"gamma": 1}}"#, r#"{"ecff_with": {}}"#, "3"] {
            let err = execute_with("streaming", "scheduler", sched).unwrap_err();
            assert!(err.contains("unknown"), "{sched}: {err}");
        }
        let err = execute_with("wild", "app", "\"vr\"").unwrap_err();
        assert!(err.contains("unknown app"), "{err}");
    }

    const BASE: &str = r#"{"workload": "streaming", "wifi_mbps": 1.0, "lte_mbps": 2.0,
                           "scheduler": "ecf", "video_secs": 30, "seed": 1,
                           "bytes": 65536, "run": 3, "app": "dash", "units": 2}"#;

    /// `BASE` with `field` set to `value` (added if absent), run.
    fn execute_with(workload: &str, field: &str, value: &str) -> Result<Value, String> {
        let mut cfg = json::parse(&BASE.replace("streaming", workload)).unwrap();
        let Value::Object(map) = &mut cfg else { unreachable!() };
        map.insert(field.to_string(), json::parse(value).unwrap());
        run(&cfg)
    }

    #[test]
    fn random_rates_refuse_a_zero_mean_interval() {
        // Used to generate rate changes until memory ran out.
        let doc = r#"{"kind": "random_rates", "wifi_seed": 1, "lte_seed": 1,
                      "mean_interval_secs": 0}"#;
        let err = execute_with("streaming", "scenario", doc).unwrap_err();
        assert!(err.contains("\"mean_interval_secs\" must be at least 1"), "{err}");
    }

    #[test]
    fn integer_fields_refuse_negative_fractional_and_huge_values() {
        // `-3`, `0.9` and `0` all used to run seed 0 under three cache keys.
        let bad = ["-3", "0.9", "-0.5", "1e300", "\"7\"", "true"];
        for (workload, key) in [
            ("streaming", "seed"),
            ("quic_web", "seed"),
            ("browse", "seed"),
            ("wget", "seed"),
            ("wget", "bytes"),
            ("wild", "seed"),
            ("wild", "run"),
            ("population", "seed"),
            ("population", "units"),
        ] {
            for value in bad {
                let err = execute_with(workload, key, value).unwrap_err();
                assert!(
                    err.contains(&format!("{key:?} must be a non-negative integer")),
                    "{workload} {key}={value}: {err}"
                );
            }
        }
        let scenarios = [
            ("outage_secs", r#"{"kind": "handover", "outage_secs": V}"#),
            (
                "wifi_seed",
                r#"{"kind": "random_rates", "wifi_seed": V, "lte_seed": 1, "mean_interval_secs": 40}"#,
            ),
            (
                "lte_seed",
                r#"{"kind": "random_rates", "wifi_seed": 1, "lte_seed": V, "mean_interval_secs": 40}"#,
            ),
            (
                "mean_interval_secs",
                r#"{"kind": "random_rates", "wifi_seed": 1, "lte_seed": 1, "mean_interval_secs": V}"#,
            ),
        ];
        for (key, doc) in scenarios {
            for value in bad {
                let err =
                    execute_with("streaming", "scenario", &doc.replace('V', value)).unwrap_err();
                assert!(
                    err.contains(&format!("{key:?} must be a non-negative integer")),
                    "{key}={value}: {err}"
                );
            }
        }
        assert!(execute_with("wget", "scheduler", r#"{"single_path": -1}"#).is_err());
    }

    #[test]
    fn video_shorter_than_a_chunk_is_an_error() {
        // Used to panic on the DASH player's constructor assert.
        for workload in ["streaming", "wild"] {
            for secs in ["2", "0", "-5", "1e999"] {
                let err = execute_with(workload, "video_secs", secs).unwrap_err();
                assert!(err.contains("\"video_secs\""), "{workload} {secs}: {err}");
            }
        }
    }

    #[test]
    fn rates_below_one_bps_are_errors_in_every_cell_kind() {
        // Used to run on a 1 bps link and return Ok with a meaningless
        // result; 1e-7 Mbps truncated to such a link too.
        for workload in ["streaming", "quic_web", "browse", "wget"] {
            for field in ["wifi_mbps", "lte_mbps"] {
                for rate in ["0", "-1", "1e999", "1e-7"] {
                    let err = execute_with(workload, field, rate).unwrap_err();
                    let named = err.contains(&format!("{field:?}"));
                    assert!(named, "{workload} {field}={rate}: {err}");
                }
            }
        }
        let err = execute_with("population", "backhaul_mbps", "1e-7").unwrap_err();
        assert!(err.contains("\"backhaul_mbps\" must be a rate of at least 1 bps"), "{err}");
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
    fn transport_fields_are_optional_and_every_error_names_its_key() {
        let fields = |c: StreamingConfig| (c.cc, c.cwnd_conservation, c.subflows_per_interface);
        let defaults = || StreamingConfig::new(1.0, 2.0, SchedulerKind::Ecf, 1);
        let read = |text: &str| {
            let mut run_cfg = defaults();
            transport_fields(&json::parse(text).unwrap(), &mut run_cfg).map(|()| fields(run_cfg))
        };
        // Absent: every default stands.
        assert_eq!(read("{}"), Ok(fields(defaults())));
        let set = r#"{"cc": "olia", "cwnd_conservation": false, "subflows_per_interface": 2}"#;
        assert_eq!(read(set), Ok((CcKind::Olia, false, 2)));
        // Wrong type, then a non-integer number, for each key.
        for (key, bad) in [
            ("cc", ["1", "true", "0.5"]),
            ("cwnd_conservation", ["\"yes\"", "1", "0.5"]),
            ("subflows_per_interface", ["\"2\"", "true", "1.5"]),
        ] {
            for value in bad {
                let err = read(&format!("{{{key:?}: {value}}}")).unwrap_err();
                assert!(err.contains(&format!("{key:?} must be a")), "{key}={value}: {err}");
            }
        }
        for n in ["0", "3"] {
            let err = read(&format!("{{\"subflows_per_interface\": {n}}}")).unwrap_err();
            assert!(err.contains("must be an integer in 1..=2"), "{n}: {err}");
        }
    }

    #[test]
    fn an_unfinished_download_is_a_cell_error() {
        // 64 MB at 0.1 + 0.2 Mbps cannot finish inside the runner's
        // horizon; the cell used to report NaN, which the cache stores as
        // null and a warm run then rejects.
        let mut cfg = json::parse(&BASE.replace("streaming", "wget")).unwrap();
        let Value::Object(map) = &mut cfg else { unreachable!() };
        for (k, v) in [("wifi_mbps", 0.1), ("lte_mbps", 0.2), ("bytes", 64e6)] {
            map.insert(k.to_string(), Value::Number(v));
        }
        let err = run(&cfg).unwrap_err();
        assert!(err.contains("did not complete"), "{err}");
        let err = execute_with("wget", "bytes", "0").unwrap_err();
        assert!(err.contains("\"bytes\""), "{err}");
    }

    #[test]
    fn wget_reports_completion_and_every_subflow_srtt() {
        let result = run(&json::parse(&BASE.replace("streaming", "wget")).unwrap()).unwrap();
        let t = result.get("scalars").and_then(|s| s.get("completion_s")).unwrap();
        assert!(t.as_f64().unwrap() > 0.0);
        let srtt = result.get("series").and_then(|s| s.get("srtt_ms")).unwrap();
        assert_eq!(srtt.as_array().unwrap().len(), 2);
    }

    /// Mean completion time of the Quick `fig18`/`fig19` seeds (100, 101).
    fn mean_completion(wifi: f64, lte: f64, scheduler: &str, bytes: u64) -> f64 {
        let times: Vec<f64> = (100..102)
            .map(|seed| {
                let cfg = json::parse(&format!(
                    r#"{{"workload": "wget", "wifi_mbps": {wifi}, "lte_mbps": {lte},
                         "scheduler": "{scheduler}", "bytes": {bytes}, "seed": {seed}}}"#
                ))
                .unwrap();
                let result = run(&cfg).unwrap();
                result.get("scalars").and_then(|s| s.get("completion_s")).unwrap().as_f64().unwrap()
            })
            .collect();
        metrics::mean(&times)
    }

    #[test]
    fn completion_time_falls_with_more_lte() {
        let slow = mean_completion(1.0, 1.0, "ecf", 512 * 1024);
        let fast = mean_completion(1.0, 10.0, "ecf", 512 * 1024);
        assert!(fast < slow, "more bandwidth must not slow downloads: {fast} vs {slow}");
    }

    #[test]
    fn ecf_is_not_worse_than_default_on_a_heterogeneous_1mb_download() {
        let d = mean_completion(1.0, 10.0, "default", 1024 * 1024);
        let e = mean_completion(1.0, 10.0, "ecf", 1024 * 1024);
        assert!(e <= d * 1.15, "ECF {e}s vs default {d}s");
    }

    #[test]
    fn ecf_variants_parse_with_defaults_for_omitted_fields() {
        let v = json::parse(r#"{"ecf_with": {"use_delta": false}}"#).unwrap();
        let SchedulerKind::EcfWith(cfg) = parse_scheduler(&v).unwrap() else {
            panic!("not an ECF variant")
        };
        assert!(!cfg.use_delta);
        assert!(cfg.use_second_inequality);
        assert_eq!(cfg.beta, EcfConfig::default().beta);
        let v = json::parse(r#"{"single_path": 1}"#).unwrap();
        assert!(matches!(parse_scheduler(&v), Ok(SchedulerKind::SinglePath(1))));
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

    #[test]
    fn wild_testbed_is_reproducible() {
        let h = Time::from_secs(60);
        let a = wild_testbed(3, SchedulerKind::Ecf, 9, h);
        let b = wild_testbed(3, SchedulerKind::Ecf, 9, h);
        assert_eq!(a.paths[0].fwd.rate_bps, b.paths[0].fwd.rate_bps);
        assert_eq!(a.scenario.compile(), b.scenario.compile());
        assert!(!a.scenario.is_static(), "wild runs must drift the WiFi delay");
        // Different run index → different WiFi RTT.
        let c = wild_testbed(8, SchedulerKind::Ecf, 9, h);
        assert!(c.paths[0].base_rtt() > a.paths[0].base_rtt());
    }

    #[test]
    fn wild_runs_span_the_rtt_range() {
        assert!(WILD_WIFI_RTT_MS.first().unwrap() < &100);
        assert!(WILD_WIFI_RTT_MS.last().unwrap() > &900);
        for w in WILD_WIFI_RTT_MS.windows(2) {
            assert!(w[0] < w[1], "runs must be sorted by WiFi RTT");
        }
    }

    #[test]
    fn a_browse_cell_keeps_every_object_of_the_page() {
        let cfg = json::parse(
            r#"{"workload": "browse", "wifi_mbps": 5.0, "lte_mbps": 5.0,
                "scheduler": "default", "seed": 300}"#,
        )
        .unwrap();
        let result = run(&cfg).unwrap();
        let series = |k: &str| {
            result.get("series").and_then(|s| s.get(k)).and_then(Value::as_array).unwrap().len()
        };
        assert_eq!(series("completions"), 107);
        assert!(series("ooo_delays") > 0);
    }

    #[test]
    fn an_inline_scenario_is_parsed_and_applied() {
        let doc = r#"{"kind": "inline", "events": [{"at_ms": 0, "path": 0, "action": "warp"}]}"#;
        let err = execute_with("streaming", "scenario", doc).unwrap_err();
        assert!(err.starts_with("events[0]:"), "{err}");
        let doc =
            r#"{"kind": "inline", "events": [{"at_ms": 5000, "path": 1, "action": "path_down"}]}"#;
        let with_outage = execute_with("streaming", "scenario", doc).unwrap();
        assert_ne!(with_outage, run(&json::parse(BASE).unwrap()).unwrap());
    }

    #[test]
    fn a_population_cell_reports_its_merged_sweep() {
        let scalars = |backhaul: &str| {
            let result = execute_with("population", "backhaul_mbps", backhaul);
            result.map(|r| r.get("scalars").unwrap().clone())
        };
        let plain = run(&json::parse(&BASE.replace("streaming", "population")).unwrap()).unwrap();
        let plain = plain.get("scalars").unwrap();
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(num(plain, "pages"), 2.0);
        assert_eq!(num(plain, "groups"), 2.0, "one shard per unit");
        assert_eq!(num(plain, "rounds"), 0.0, "nothing to co-simulate");
        assert!(num(plain, "req_s_p50") <= num(plain, "req_s_p99"));
        assert_eq!(plain.get("digest").and_then(Value::as_str).map(str::len), Some(16));

        let coupled = scalars("5").unwrap();
        assert_eq!(num(&coupled, "pages"), 2.0);
        assert!(num(&coupled, "rounds") >= 1.0);
        assert!(num(&coupled, "boundary_msgs") >= 1.0);
        assert_ne!(coupled.get("digest"), plain.get("digest"));
        for bad in ["0", "-1", "\"5\""] {
            assert!(scalars(bad).unwrap_err().contains("\"backhaul_mbps\""), "{bad}");
        }
        for units in ["0", "1000001"] {
            let err = execute_with("population", "units", units).unwrap_err();
            assert!(err.contains("\"units\" must be in 1..=1000000"), "{units}: {err}");
        }
    }
}
