//! Shared experiment plumbing: the paper's parameter sets, workload runners,
//! and a small thread fan-out for embarrassingly parallel sweeps.

use std::time::Duration;

use dash::{DashApp, PlayerConfig};
use ecf_core::SchedulerKind;
use mptcp::{ConnConfig, ConnSpec, RecorderConfig, Testbed, TestbedConfig};
use scenario::{Action, ControlEvent, Process, Scenario};
use simnet::{PathConfig, Time};
use webload::{BrowserApp, PageModel, WgetApp};

/// The paper's §3.1 regulated bandwidth set (Mbps), one step above each
/// Table 1 representation.
pub const BW_SET: [f64; 6] = [0.3, 0.7, 1.1, 1.7, 4.2, 8.6];

/// §5.3's random-change rate set.
pub(crate) const VARIABLE_BW_SET: [f64; 5] = [0.3, 1.1, 1.7, 4.2, 8.6];

/// Effort level: `Full` sizes runs for the report harness; `Quick` for
/// benches and smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Report quality: longer videos, multiple seeds.
    Full,
    /// Benchmark/smoke quality: short videos, one seed.
    Quick,
}

impl Effort {
    /// Simulated video duration for streaming runs. Full effort approaches
    /// the paper's 1332 s sessions; Quick keeps benches snappy.
    pub fn video_secs(self) -> f64 {
        match self {
            Effort::Full => 600.0,
            Effort::Quick => 60.0,
        }
    }
}

/// Environment variable overriding the default worker count of sweeps and
/// matrix runs, so CI boxes and laptops can pin parallelism reproducibly.
/// An explicit worker count is never overridden.
const ENV_WORKERS: &str = "TESTKIT_WORKERS";

/// Maximum worker count accepted from [`ENV_WORKERS`].
const MAX_WORKERS: usize = 256;

/// Resolve the default worker count: [`ENV_WORKERS`] if set and parseable
/// (clamped to `1..=`[`MAX_WORKERS`]), else `fallback`. Unparseable values
/// are ignored rather than fatal — a bench box with a stale variable should
/// run, not die.
fn default_workers(env: Option<&str>, fallback: usize) -> usize {
    match env.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(w) => w.clamp(1, MAX_WORKERS),
        None => fallback,
    }
}

/// The worker count a run uses: `explicit` if given, else the
/// [`ENV_WORKERS`] override, else the available cores.
pub(crate) fn resolve_workers(explicit: Option<usize>) -> usize {
    let cores = || std::thread::available_parallelism().map_or(4, |n| n.get());
    explicit.unwrap_or_else(|| default_workers(std::env::var(ENV_WORKERS).ok().as_deref(), cores()))
}

/// Map `f` over `items` on `workers` threads, preserving order. Runs are
/// independent simulations, so this is safe and near-linear.
///
/// Work is claimed lock-free: the only shared hot word is an atomic work
/// index bumped with `fetch_add`, so workers never serialize on a queue
/// mutex. Each input slot is taken exactly once and each output slot
/// written exactly once by the worker that claimed that index, so the
/// per-slot mutexes (needed only to satisfy safe Rust's aliasing rules)
/// are uncontended. `f` runs with no lock held: a panicking item poisons
/// nothing, the other workers drain the remaining items, and the panic
/// resurfaces from `thread::scope` on join — no deadlock.
pub fn parallel_map_workers<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    if n <= 1 || workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let t = inputs[idx]
                    .lock()
                    .expect("input slot")
                    .take()
                    .expect("index claimed exactly once");
                let r = f(t);
                *outputs[idx].lock().expect("output slot") = Some(r);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| m.into_inner().expect("output slot").expect("worker filled every slot"))
        .collect()
}

/// One streaming run's configuration.
#[derive(Clone)]
pub struct StreamingConfig {
    /// WiFi shaped rate, Mbps.
    pub wifi_mbps: f64,
    /// LTE shaped rate, Mbps.
    pub lte_mbps: f64,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Coupled congestion controller (defaults to LIA, the Linux default).
    pub cc: mptcp::CcKind,
    /// Video duration (seconds of content).
    pub video_secs: f64,
    /// Run seed.
    pub seed: u64,
    /// Trace collection.
    pub recorder: RecorderConfig,
    /// Apply idle restart + cwnd validation (Fig 6 toggles this off).
    pub cwnd_conservation: bool,
    /// Subflows per interface (1 = the usual 2-subflow setup; 2 = Fig 15's
    /// four subflows, each shaped to half the interface rate).
    pub subflows_per_interface: usize,
    /// Optional network dynamics, written in *interface* space: path 0 is
    /// the WiFi interface, path 1 LTE. [`run_streaming`] expands it to the
    /// actual subflow paths (splitting rates across subflows when
    /// `subflows_per_interface > 1`).
    pub scenario: Option<Scenario>,
    /// Telemetry sink threaded into the testbed (off by default).
    pub telemetry: telemetry::TelemetryHandle,
}

impl StreamingConfig {
    /// A standard two-subflow streaming run.
    pub fn new(wifi: f64, lte: f64, scheduler: SchedulerKind, seed: u64) -> Self {
        StreamingConfig {
            wifi_mbps: wifi,
            lte_mbps: lte,
            scheduler,
            cc: mptcp::CcKind::default(),
            video_secs: 180.0,
            seed,
            recorder: RecorderConfig::default(),
            cwnd_conservation: true,
            subflows_per_interface: 1,
            scenario: None,
            telemetry: telemetry::TelemetryHandle::off(),
        }
    }
}

/// Everything the streaming figures need from one run.
pub struct StreamingOutcome {
    /// Mean encoded bit rate over the downloaded chunks, Mbps.
    pub avg_bitrate: f64,
    /// Mean per-chunk download throughput, Mbps.
    pub avg_throughput: f64,
    /// The paper's ideal average bit rate for this pair.
    pub ideal_bitrate: f64,
    /// Fraction of sent segments that rode the higher-bandwidth interface.
    pub fast_fraction: f64,
    /// Initial-window resets (idle + RTO) of the *faster* interface's
    /// subflow(s) — Table 3's metric.
    pub fast_iw_resets: u64,
    /// Per-segment out-of-order delays, seconds.
    pub ooo_delays: Vec<f64>,
    /// Per-request gap between last packets on the two interfaces, seconds
    /// (Fig 5).
    pub last_packet_gaps: Vec<f64>,
    /// Per-chunk `(start_time_s, throughput_mbps)` (Fig 17).
    pub chunk_throughputs: Vec<(f64, f64)>,
    /// Per-chunk `(finish_time_s, cumulative_megabytes)` (Fig 1).
    pub download_progress: Vec<(f64, f64)>,
    /// CWND traces `[subflow]` if recorded (Figs 11/12).
    pub cwnd_traces: Vec<metrics::TimeSeries>,
    /// Send-buffer occupancy traces `[subflow]` if recorded (Fig 3).
    pub sndbuf_traces: Vec<metrics::TimeSeries>,
    /// Engine events processed by the run (determinism + throughput metric).
    pub events_processed: u64,
}

/// The horizon, in seconds, a streaming session of `video_secs` runs to:
/// generous, because the slowest pairs stream far below real time. A
/// scenario that spans the whole possible run is built to it too.
pub(crate) fn streaming_horizon_secs(video_secs: f64) -> u64 {
    (video_secs * 30.0) as u64 + 300
}

/// The DASH streaming testbed `cfg` describes, not yet run.
fn streaming_testbed(cfg: &StreamingConfig) -> Testbed<DashApp> {
    let per_if = cfg.subflows_per_interface.max(1);
    let mut paths = Vec::new();
    for _ in 0..per_if {
        paths.push(PathConfig::wifi(cfg.wifi_mbps / per_if as f64));
    }
    for _ in 0..per_if {
        paths.push(PathConfig::lte(cfg.lte_mbps / per_if as f64));
    }
    let mut conn_cfg = ConnConfig::default();
    conn_cfg.tcp.idle_reset = cfg.cwnd_conservation;
    conn_cfg.cc = cfg.cc;

    let scenario = match &cfg.scenario {
        Some(s) => expand_interface_scenario(s, per_if),
        None => Scenario::default(),
    };

    let tb_cfg = TestbedConfig {
        paths,
        conns: vec![ConnSpec {
            cfg: conn_cfg,
            scheduler: cfg.scheduler,
            custom_scheduler: None,
            subflow_paths: (0..2 * per_if).collect(),
        }],
        seed: cfg.seed,
        path_seeds: None,
        recorder: cfg.recorder,
        scenario,
        telemetry: cfg.telemetry.clone(),
    };
    let player = PlayerConfig { video_secs: cfg.video_secs, ..PlayerConfig::default() };
    Testbed::new(tb_cfg, DashApp::new(player, 0))
}

/// Run one DASH streaming session and collect the figure inputs.
pub fn run_streaming(cfg: &StreamingConfig) -> StreamingOutcome {
    let per_if = cfg.subflows_per_interface.max(1);
    let mut tb = streaming_testbed(cfg);
    tb.run_until(Time::from_secs(streaming_horizon_secs(cfg.video_secs)));

    // Move the samples and traces out first: the OOO pool becomes the
    // outcome's vector in place instead of being copied beside itself.
    let recorder = &mut tb.world_mut().recorder;
    let ooo_delays = recorder.take_ooo_secs();
    let cwnd_traces = std::mem::take(&mut recorder.cwnd).into_iter().next().unwrap_or_default();
    let sndbuf_traces = std::mem::take(&mut recorder.sndbuf).into_iter().next().unwrap_or_default();

    let world = tb.world();
    let sender = world.sender(0);
    let wifi_segs: u64 = (0..per_if).map(|s| sender.subflows[s].stats().segs_sent).sum();
    let lte_segs: u64 = (per_if..2 * per_if).map(|s| sender.subflows[s].stats().segs_sent).sum();
    let (fast_segs, slow_segs, fast_range) = if cfg.lte_mbps >= cfg.wifi_mbps {
        (lte_segs, wifi_segs, per_if..2 * per_if)
    } else {
        (wifi_segs, lte_segs, 0..per_if)
    };
    let fast_iw_resets = fast_range.map(|s| sender.subflows[s].cc.stats().iw_resets()).sum();

    let player = &tb.app().player;
    let mut cumulative_mb = 0.0;
    let download_progress = player
        .history
        .iter()
        .map(|c| {
            cumulative_mb += c.bytes as f64 / 1e6;
            (c.finished.as_secs_f64(), cumulative_mb)
        })
        .collect();

    StreamingOutcome {
        avg_bitrate: player.avg_bitrate_mbps(),
        avg_throughput: player.avg_throughput_mbps(),
        ideal_bitrate: dash::ideal_avg_bitrate_mbps(cfg.wifi_mbps + cfg.lte_mbps),
        fast_fraction: fast_segs as f64 / (fast_segs + slow_segs).max(1) as f64,
        fast_iw_resets,
        ooo_delays,
        last_packet_gaps: world
            .recorder
            .completed_requests()
            .filter_map(|r| r.last_packet_gap())
            .map(|d| d.as_secs_f64())
            .collect(),
        chunk_throughputs: player
            .history
            .iter()
            .map(|c| (c.started.as_secs_f64(), c.throughput_mbps()))
            .collect(),
        download_progress,
        cwnd_traces,
        sndbuf_traces,
        events_processed: tb.events_processed(),
    }
}

/// Expand an interface-space scenario (path 0 = WiFi, 1 = LTE) onto the
/// actual subflow paths: interface `i` maps to paths `i*per_if..(i+1)*per_if`
/// and rate actions are split evenly across the interface's subflows, so the
/// interface-level bandwidth matches the scenario regardless of topology.
fn expand_interface_scenario(s: &Scenario, per_if: usize) -> Scenario {
    if per_if == 1 {
        return s.clone();
    }
    let mut out = Scenario::default();
    for ev in &s.events {
        for k in 0..per_if {
            let action = match ev.action {
                Action::RateBps(bps) => Action::RateBps(bps / per_if as u64),
                other => other,
            };
            out.events.push(ControlEvent { at: ev.at, path: ev.path * per_if + k, action });
        }
    }
    for p in &s.processes {
        match p {
            Process::RandomRates { path, seed, mean_interval, rates_mbps, horizon } => {
                for k in 0..per_if {
                    out.processes.push(Process::RandomRates {
                        path: path * per_if + k,
                        seed: *seed,
                        mean_interval: *mean_interval,
                        rates_mbps: rates_mbps.iter().map(|r| r / per_if as f64).collect(),
                        horizon: *horizon,
                    });
                }
            }
        }
    }
    out
}

/// One `wget`-style download; returns completion seconds and the testbed.
pub(crate) fn run_wget(
    wifi: f64,
    lte: f64,
    scheduler: SchedulerKind,
    bytes: u64,
    seed: u64,
) -> (f64, Testbed<WgetApp>) {
    let cfg = TestbedConfig::wifi_lte(wifi, lte, scheduler, seed);
    let mut tb = Testbed::new(cfg, WgetApp::new(bytes));
    tb.run_until(Time::from_secs(300));
    let secs = tb.app().completed_at.map(|t| t.as_secs_f64()).unwrap_or(f64::NAN);
    (secs, tb)
}

/// One browser page-load over six parallel connections sharing both
/// paths. Returns the testbed (object completion times and OOO delays live
/// in the app/recorder).
pub fn run_browse(wifi: f64, lte: f64, scheduler: SchedulerKind, seed: u64) -> Testbed<BrowserApp> {
    let mut cfg = TestbedConfig::wifi_lte(wifi, lte, scheduler, seed);
    cfg.conns = (0..6).map(|_| ConnSpec::new(scheduler, vec![0, 1])).collect();
    // The page content is fixed across runs/schedulers (seed 2014).
    let mut tb = Testbed::new(cfg, BrowserApp::new(PageModel::cnn_like(2014), 6));
    tb.run_until(Time::from_secs(600));
    tb
}

/// Format a bandwidth as the paper writes it ("0.3", "8.6").
pub(crate) fn fmt_bw(mbps: f64) -> String {
    format!("{mbps:.1}")
}

/// Duration helper for schedule construction.
pub fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_session_ends_with_its_last_event() {
        // The periodic sampler must not keep a finished session alive: the
        // traced run drains before the horizon, and its last sample falls
        // within one sampling interval (100 ms) of the untraced twin's last
        // event — sampling reads state, so both runs share every other event.
        let mut cfg = StreamingConfig::new(0.3, 8.6, SchedulerKind::Ecf, 1);
        cfg.video_secs = 60.0;
        let horizon = Time::from_secs(streaming_horizon_secs(cfg.video_secs));
        let mut plain = streaming_testbed(&cfg);
        assert_eq!(plain.run_until(horizon), simnet::RunOutcome::Drained);
        let last_event = plain.now();

        cfg.recorder =
            RecorderConfig { cwnd_traces: true, sndbuf_traces: true, ..RecorderConfig::default() };
        let mut traced = streaming_testbed(&cfg);
        assert_eq!(traced.run_until(horizon), simnet::RunOutcome::Drained);
        assert!(traced.now() < horizon, "the traced run reached its horizon");
        let rec = &traced.world().recorder;
        for trace in rec.cwnd[0].iter().chain(&rec.sndbuf[0]) {
            let &(last_sample, _) = trace.points.last().expect("a trace holds samples");
            let gap = last_sample - last_event.as_secs_f64();
            assert!((0.0..=0.1 + 1e-9).contains(&gap), "last sample {gap} s after the last event");
        }
    }

    #[test]
    fn default_workers_clamps_and_falls_back() {
        assert_eq!(default_workers(None, 4), 4);
        assert_eq!(default_workers(Some("8"), 4), 8);
        assert_eq!(default_workers(Some(" 2 "), 4), 2);
        // Out-of-range values clamp; garbage falls back.
        assert_eq!(default_workers(Some("0"), 4), 1);
        assert_eq!(default_workers(Some("99999"), 4), MAX_WORKERS);
        assert_eq!(default_workers(Some("many"), 4), 4);
        assert_eq!(default_workers(Some(""), 4), 4);
    }

    #[test]
    fn parallel_map_handles_small_inputs() {
        assert_eq!(parallel_map_workers(Vec::<i32>::new(), |x| x, 4), Vec::<i32>::new());
        assert_eq!(parallel_map_workers(vec![7], |x| x + 1, 4), vec![8]);
    }

    #[test]
    fn parallel_map_preserves_order_with_forced_workers() {
        // Force real concurrency even on single-core CI machines, where
        // available_parallelism would take the serial path.
        for workers in [2, 4, 8] {
            let out = parallel_map_workers((0..257).collect::<Vec<_>>(), |x| x * 3, workers);
            assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_workers_exceeding_items_is_fine() {
        let out = parallel_map_workers(vec![1, 2, 3], |x| x + 10, 16);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn parallel_map_panic_propagates_without_deadlock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        // One poisoned item; the scope must join (not hang), the panic must
        // resurface, and the surviving workers must still drain the queue.
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_workers(
                (0..64usize).collect::<Vec<_>>(),
                |x| {
                    if x == 13 {
                        panic!("boom");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    x
                },
                4,
            )
        }));
        assert!(result.is_err(), "worker panic must propagate to the caller");
        assert_eq!(done.load(Ordering::Relaxed), 63, "other items still ran");
    }

    #[test]
    fn streaming_outcome_is_complete() {
        let cfg = StreamingConfig {
            video_secs: 30.0,
            ..StreamingConfig::new(4.2, 4.2, SchedulerKind::Ecf, 1)
        };
        let out = run_streaming(&cfg);
        assert!(out.avg_bitrate > 0.0);
        assert!(out.avg_throughput > 0.0);
        assert_eq!(out.ideal_bitrate, 8.4);
        assert!((0.0..=1.0).contains(&out.fast_fraction));
        assert_eq!(out.chunk_throughputs.len(), 6);
        assert_eq!(out.download_progress.len(), 6);
        assert!(!out.ooo_delays.is_empty());
    }

    #[test]
    fn four_subflow_topology_runs() {
        let cfg = StreamingConfig {
            video_secs: 30.0,
            subflows_per_interface: 2,
            ..StreamingConfig::new(0.3, 4.2, SchedulerKind::Ecf, 2)
        };
        let out = run_streaming(&cfg);
        assert!(out.avg_bitrate > 0.0);
    }

    #[test]
    fn wget_runner_completes() {
        let (secs, _tb) = run_wget(1.0, 5.0, SchedulerKind::Default, 256 * 1024, 3);
        assert!(secs.is_finite() && secs > 0.0);
    }
}
