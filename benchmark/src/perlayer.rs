//! The traced run of one workload: one untraced reference body, one traced
//! body, the rigs, and the whole-run extras the workload owns. Produces a
//! value for every name in `spec::PER_LAYER`; a layer the workload does not
//! execute, or that cannot be observed from outside it, reads 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ecf_core::SchedulerKind;
use experiments::expmatrix::Spec;
use experiments::{
    browse_10k_coupled, parallel_map_workers, run_matrix, run_streaming, run_sweep, Effort,
    MatrixOptions, StreamingConfig, SweepOptions, COUPLED_BENCH_GROUPS,
};
use scenario::Scenario;
use simnet::Time;
use telemetry::{Counter, TelemetryHandle};

use crate::measure::Args;
use crate::rigs::{self, Rig};
use crate::stats::{median, quantile_sorted};
use crate::trace::{clock_overhead_ns, SchedTape};
use crate::traced::{self, Traced};
use crate::workloads::{
    body, setup, sharded_population, BodyOut, Inputs, Workload, HETERO, SHARDED_CHECK_UNITS,
};
use crate::{alloc, spec};

/// The spec `expmatrix.*` runs cold then warm.
const MATRIX_SPEC: &str = include_str!("../../crates/experiments/specs/dyn_burstloss.json");

/// Alternating pairs behind each `*_overhead_pct`.
const OVERHEAD_PAIRS: usize = 11;

/// What a traced run produced.
pub struct PerLayerRun {
    /// One value per `spec::PER_LAYER` name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations the traced body attempted.
    pub attempted: u64,
    /// Operations that failed, plus one per failed check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The traced body's spans, one JSON object per line.
    pub spans_jsonl: String,
    /// The traced body's spans summed per name (`SpanLog::summary`).
    pub span_summary: Vec<(&'static str, u64, u64, u64, u64)>,
}

struct Values {
    map: BTreeMap<&'static str, f64>,
}

impl Values {
    fn new() -> Values {
        Values { map: spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect() }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.map.get_mut(name).unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    fn rig(&mut self, name: &str, rig: Rig, problems: &mut Vec<String>) -> f64 {
        if !rig.balanced {
            problems.push(format!("rig {name}: bookkeeping did not balance over {} ops", rig.ops));
        }
        self.set(name, rig.ns_per_op);
        rig.ns_per_op
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn two_cores() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// Median ratio of `variant` over `base` across alternating runs, as a
/// percentage above 100.
fn overhead_pct(mut base: impl FnMut(), mut variant: impl FnMut()) -> f64 {
    let (mut b, mut v) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        b.push(secs(&mut base));
        v.push(secs(&mut variant));
    }
    (median(&mut v) / median(&mut b) - 1.0) * 100.0
}

/// ns/op of every rig, and the honesty of every replayed tape.
struct RigNs {
    wheel: f64,
    link: f64,
    delivery: f64,
    conn: f64,
    rx_inorder: f64,
    rx_reorder: f64,
    mptcp_build_us: f64,
    quic_conn: f64,
    quic_chunk: f64,
    quic_build_us: f64,
    push: f64,
}

fn run_rigs(v: &mut Values, t: &Traced, coupled: bool, problems: &mut Vec<String>) -> RigNs {
    let d16 = v.rig("simnet.wheel.op_ns_d16", rigs::wheel(16), problems);
    let d4096 = v.rig("simnet.wheel.op_ns_d4096", rigs::wheel(4096), problems);
    v.rig("tcp.rtt.sample_ns", rigs::rtt_sample(), problems);
    v.rig("tcp.cc.ack_ns", rigs::cc_ack(), problems);
    v.rig("mptcp.subflow.send_ack_ns", rigs::subflow_send_ack(), problems);
    v.rig("telemetry.export.jsonl_mb_per_s", rigs::telemetry_export(), problems);
    v.rig("testkit.rng.next_ns", rigs::rng_next(), problems);
    v.rig("testkit.json.parse_mb_per_s", rigs::json_parse(), problems);
    v.rig("testkit.digest.mb_per_s", rigs::digest(), problems);
    v.rig("web.page.gen_us", rigs::page_gen(), problems);
    let out = RigNs {
        wheel: if coupled { d4096 } else { d16 },
        link: v.rig("simnet.link.enqueue_ns", rigs::link_enqueue(), problems),
        delivery: v.rig("simnet.delivery.op_ns", rigs::delivery(), problems),
        conn: v.rig("mptcp.connection.try_send_ns", rigs::connection_send_ack(), problems),
        rx_inorder: v.rig("mptcp.receiver.inorder_ns", rigs::receiver(false), problems),
        rx_reorder: v.rig("mptcp.receiver.reorder_ns", rigs::receiver(true), problems),
        mptcp_build_us: v.rig("mptcp.sim.build_us", rigs::mptcp_build(), problems),
        quic_conn: v.rig("quic.conn.send_ack_ns", rigs::quic_send_ack(), problems),
        quic_chunk: v.rig("quic.receiver.chunk_ns", rigs::quic_chunk(), problems),
        quic_build_us: v.rig("quic.sim.build_us", rigs::quic_build(), problems),
        push: v.rig("telemetry.push_ns", rigs::telemetry_push(), problems),
    };

    // The scheduler rigs replay what the traced body's wrapper recorded for
    // that scheduler; where the body ran no such scheduler (or could not be
    // wrapped) the tape comes from the connection rig's transfer instead.
    for kind in SchedulerKind::paper_set() {
        let recorded = traced::tape_of(t, kind.label());
        let synthetic;
        let tape: &SchedTape = match recorded {
            Some(tape) => tape,
            None => {
                synthetic = rigs::synthetic_tape(kind);
                &synthetic
            }
        };
        let mismatches = tape.replay(kind.build().as_mut());
        if mismatches > 0 {
            problems.push(format!(
                "scheduler tape {}: {mismatches} of {} replayed verdicts differ from the recorded ones",
                kind.label(),
                tape.selects()
            ));
        }
        v.rig(&format!("core.select_ns.{}", kind.label()), rigs::select(kind, tape), problems);
    }
    out
}

/// Everything read or timed during the traced body.
fn in_situ(v: &mut Values, w: Workload, reference: &BodyOut, t: &Traced, rig: &RigNs) {
    let s = &t.situ;
    let tel = |c| t.tel.counter(c);
    let ref_ns = reference.wall_ns as f64;
    let clock = clock_overhead_ns();
    v.set("simnet.engine.events", reference.events as f64);
    v.set("simnet.engine.ns_per_event", ref_ns / reference.events as f64);
    v.set(
        "simnet.wheel.cascades_per_kevent",
        ratio(tel(Counter::QueueCascades), t.out.events) * 1e3,
    );
    v.set("simnet.wheel.ff_jumps", tel(Counter::FfJumps) as f64);
    v.set("simnet.wheel.batch_share", ratio(tel(Counter::BatchDeliveries), t.out.events));
    v.set("simnet.link.drop_share", ratio(s.fwd_dropped, s.fwd_delivered + s.fwd_dropped));
    v.set("mptcp.subflow.retx_share", ratio(s.retransmits, s.segs_sent));
    v.set("mptcp.connection.window_blocked", s.window_blocked as f64);
    v.set("mptcp.connection.reinject_share", ratio(s.reinjections, s.segs_sent));
    v.set("mptcp.receiver.peak_buffered", s.peak_buffered as f64);
    v.set("mptcp.receiver.dup_share", ratio(s.rx_duplicates, s.rx_delivered));
    let pushes = t.tel.events().len() as u64 + t.tel.overflow();
    v.set("telemetry.ring.overflow_share", ratio(t.tel.overflow(), pushes));
    v.set("trace.overhead_pct", (t.out.wall_ns as f64 / ref_ns - 1.0) * 100.0);
    if w == Workload::QuicPages {
        v.set("quic.ns_per_event", ref_ns / reference.events as f64);
    }
    if !t.wrapped {
        return;
    }

    // Wrapper timings, less what reading the clock around each call costs.
    let decide_ns = (t.sched.ns as f64 - t.sched.calls as f64 * clock).max(0.0);
    let app_ns = (s.app_ns as f64 - s.app_calls as f64 * clock).max(0.0);
    v.set("core.decide.calls", t.sched.calls as f64);
    v.set("core.decide.ns", decide_ns / t.sched.calls.max(1) as f64);
    v.set("core.decide.share_pct", decide_ns / ref_ns * 100.0);
    v.set("core.wait_share", ratio(t.sched.waits, t.sched.calls));
    let app_share = app_ns / ref_ns * 100.0;
    if w == Workload::Fig9Grid {
        v.set("dash.app.calls", s.app_calls as f64);
        v.set("dash.app.share_pct", app_share);
    } else {
        v.set("web.app.share_pct", app_share);
    }

    // How much of the traced body the ledger explains: rig ns/op times the
    // in-situ count of each operation, plus what was timed directly. The
    // connection rig already contains scheduler, subflow and tcp time.
    let quic = w == Workload::QuicPages;
    let offered = s.fwd_delivered + s.fwd_dropped + s.rev_delivered + s.rev_dropped;
    let in_order = ratio(t.out.ooo_us.zeros(), t.out.ooo_us.total());
    let (transport, receiver, build_us) = if quic {
        (rig.quic_conn, rig.quic_chunk, rig.quic_build_us)
    } else {
        (
            rig.conn,
            rig.rx_inorder * in_order + rig.rx_reorder * (1.0 - in_order),
            rig.mptcp_build_us,
        )
    };
    let sent = if quic { s.fwd_delivered + s.fwd_dropped } else { s.segs_sent };
    let explained = t.out.events as f64 * rig.wheel
        + offered as f64 * rig.link
        + (s.fwd_delivered + s.rev_delivered) as f64 * rig.delivery
        + sent as f64 * transport
        + s.fwd_delivered as f64 * receiver
        + s.testbeds as f64 * build_us * 1e3
        + pushes as f64 * rig.push
        + s.app_ns as f64
        + t.sched.calls as f64 * clock;
    v.set("attrib.covered_pct", explained / t.out.wall_ns as f64 * 100.0);
}

fn percentile_ms(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    quantile_sorted(&ms, q)
}

/// The re-set-the-same-rate scenario of `sim_throughput/streaming_*_scenario`.
fn noop_scenario(cfg: &StreamingConfig) -> Scenario {
    let mut s = Scenario::new();
    for t in 1..=cfg.video_secs as u64 {
        s = s.rate_mbps(Time::from_secs(t), 0, cfg.wifi_mbps).rate_mbps(
            Time::from_secs(t),
            1,
            cfg.lte_mbps,
        );
    }
    s
}

/// `fig9_grid` owns the streaming-shaped extras.
fn grid_extras(
    v: &mut Values,
    args: &Args,
    cells: &[StreamingConfig],
    reference: &BodyOut,
    t: &Traced,
    scratch: &Path,
    problems: &mut Vec<String>,
) {
    for &(label, resets) in &t.situ.hetero_iw_resets {
        if label == "ecf" || label == "default" {
            v.set(&format!("tcp.iw_resets.{label}"), resets as f64);
        }
    }
    v.set("tcp.rtos", t.situ.hetero_rtos as f64);

    let ratio_of = |kind: SchedulerKind, hetero_only: bool| {
        cells
            .iter()
            .zip(&reference.ratios)
            .filter(move |(c, _)| {
                c.scheduler == kind && (!hetero_only || (c.wifi_mbps, c.lte_mbps) == HETERO)
            })
            .map(|(_, &r)| r)
    };
    let hetero = |kind| ratio_of(kind, true).next().unwrap_or(0.0);
    v.set("core.ecf_vs_default_x", hetero(SchedulerKind::Ecf) / hetero(SchedulerKind::Default));
    v.set("core.ecf_ratio_min", ratio_of(SchedulerKind::Ecf, false).fold(f64::INFINITY, f64::min));
    v.set("experiments.cell_ms_p50", percentile_ms(&reference.parts_ns, 0.5));
    v.set("experiments.cell_ms_p98", percentile_ms(&reference.parts_ns, 0.98));

    if two_cores() {
        let grid: Vec<&StreamingConfig> =
            cells.iter().filter(|c| c.scheduler == SchedulerKind::Ecf).collect();
        let run = |workers| {
            secs(|| {
                let done = parallel_map_workers(
                    grid.clone(),
                    |c| run_streaming(c).events_processed,
                    workers,
                );
                std::hint::black_box(done);
            })
        };
        let one = run(1);
        v.set("experiments.w2_speedup", one / run(2));
    }

    let cell = cells
        .iter()
        .find(|c| c.scheduler == SchedulerKind::Ecf && (c.wifi_mbps, c.lte_mbps) == HETERO)
        .expect("the grid has the heterogeneous ECF cell");
    let run = |cfg: &StreamingConfig| {
        std::hint::black_box(run_streaming(cfg).events_processed);
    };
    // The handle outlives the runs so ring allocation is off the clock, and
    // the ring wraps: the steady-state cost of a long traced run.
    let traced_cell =
        StreamingConfig { telemetry: TelemetryHandle::with_capacity(1 << 10), ..cell.clone() };
    v.set("telemetry.on_overhead_pct", overhead_pct(|| run(cell), || run(&traced_cell)));
    let scenario_cell = StreamingConfig { scenario: Some(noop_scenario(cell)), ..cell.clone() };
    v.set("scenario.noop_overhead_pct", overhead_pct(|| run(cell), || run(&scenario_cell)));

    // The experiment matrix, cold then warm: the cache written, then read.
    let spec = Spec::from_json(MATRIX_SPEC).expect("the in-tree spec parses");
    let cache = scratch.join(format!("expcache-{}", std::process::id()));
    let opts = MatrixOptions {
        effort: if args.quick { Effort::Quick } else { Effort::Full },
        workers: Some(1),
        ..MatrixOptions::new(&cache)
    };
    let mut outcomes = Vec::new();
    let mut timed = || {
        let started = Instant::now();
        outcomes.push(run_matrix(&spec, &opts));
        started.elapsed().as_secs_f64()
    };
    let (cold_s, warm_s) = (timed(), timed());
    match (&outcomes[0], &outcomes[1]) {
        (Ok(cold), Ok(warm)) => {
            let bytes: u64 = std::fs::read_dir(&cache)
                .map(|dir| dir.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
                .unwrap_or(0);
            v.set("expmatrix.cold_s", cold_s);
            v.set("expmatrix.warm_ms", warm_s * 1e3);
            v.set("expmatrix.warm_hit_share", ratio(warm.hits as u64, warm.cells as u64));
            v.set("expmatrix.cache.bytes_per_cell", ratio(bytes, cold.cells as u64));
            if warm.executed != 0 || cold.report != warm.report {
                problems.push(format!(
                    "expmatrix: warm run executed {} cells or rendered a different report",
                    warm.executed
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => problems.push(format!("expmatrix: {e}")),
    }
    // The cache lives under the benchmark's own output directory; a failure
    // to remove it costs disk, not correctness.
    let _ = std::fs::remove_dir_all(&cache);
}

/// `browse_sharded` owns the sweep executor's extras.
fn sharded_extras(
    v: &mut Values,
    args: &Args,
    inputs: &Inputs,
    reference: &BodyOut,
    problems: &mut Vec<String>,
) {
    let Inputs::Sweep(pop, opts) = inputs else {
        return;
    };
    let tel = TelemetryHandle::enabled();
    let mut report = None;
    let sweep_s = secs(|| {
        report = Some(run_sweep(pop, &SweepOptions { telemetry: tel.clone(), ..opts.clone() }))
    });
    let report = report.expect("the sweep ran");
    v.set("sharding.shard_ms_p50", percentile_ms(&report.shard_wall_ns, 0.5));
    v.set("sharding.shard_ms_p99", percentile_ms(&report.shard_wall_ns, 0.99));
    let in_shards: u64 = report.shard_wall_ns.iter().sum();
    v.set("sharding.run_share_pct", in_shards as f64 / (sweep_s * 1e9) * 100.0);
    v.set("sharding.imbalance_permille", tel.counter(Counter::ShardWallImbalancePermille) as f64);
    if two_cores() {
        let two = secs(|| {
            std::hint::black_box(
                run_sweep(pop, &SweepOptions { workers: Some(2), ..opts.clone() }).digest,
            );
        });
        v.set("sharding.w2_speedup", reference.wall_ns as f64 / 1e9 / two);
    }

    let head = sharded_population(args.seed, pop.units.len().min(SHARDED_CHECK_UNITS));
    let mono = SweepOptions { max_shards: 1, ..opts.clone() };
    let (mut sharded_digest, mut mono_digest) = (0, 0);
    let sharded_s = secs(|| sharded_digest = run_sweep(&head, opts).digest);
    let mono_s = secs(|| mono_digest = run_sweep(&head, &mono).digest);
    v.set("sharding.mono_vs_sharded_x", mono_s / sharded_s);
    if sharded_digest != mono_digest {
        problems.push("sharding: one engine per unit and one engine merged differently".into());
    }
}

/// `browse_coupled` owns the co-simulation extras.
fn coupled_extras(
    v: &mut Values,
    args: &Args,
    inputs: &Inputs,
    reference: &BodyOut,
    t: &Traced,
    problems: &mut Vec<String>,
) {
    let Inputs::Sweep(pop, opts) = inputs else {
        return;
    };
    let tel = |c| t.tel.counter(c);
    v.set("cosim.rounds", tel(Counter::CosimRounds) as f64);
    v.set("cosim.boundary_msgs", tel(Counter::CosimBoundaryMsgs) as f64);
    let mut rounds: Vec<f64> = t.round_ns.iter().map(|&n| n as f64).collect();
    v.set("cosim.ns_per_round", median(&mut rounds));
    let stall = tel(Counter::CosimStallNs);
    v.set("cosim.stall_share_pct", ratio(stall, stall + tel(Counter::ShardWallNs)) * 100.0);

    let ref_s = reference.wall_ns as f64 / 1e9;
    let mut mono_digest = 0;
    let mono_s = secs(|| {
        mono_digest = run_sweep(pop, &SweepOptions { max_shards: 1, ..opts.clone() }).digest
    });
    v.set("cosim.vs_mono_x", mono_s / ref_s);
    if mono_digest != reference.digest {
        problems.push("cosim: 8 lockstep groups and the monolith merged differently".into());
    }
    if two_cores() {
        let two = secs(|| {
            std::hint::black_box(
                run_sweep(pop, &SweepOptions { workers: Some(2), ..opts.clone() }).digest,
            );
        });
        v.set("cosim.w2_speedup", ref_s / two);
    }
    if !args.quick {
        let full = browse_10k_coupled(args.seed);
        let opts = SweepOptions { max_shards: COUPLED_BENCH_GROUPS, ..opts.clone() };
        let mut events = 0;
        let full_s = secs(|| events = run_sweep(&full, &opts).events_total());
        v.set("cosim.full_scale_events_per_s", events as f64 / full_s);
    }
}

/// Run `args.workload` traced. `scratch` is a directory of the benchmark's
/// own (created if missing) for the experiment-matrix cache.
pub fn run(args: &Args, scratch: &Path) -> PerLayerRun {
    let w = args.workload;
    let mut v = Values::new();
    let mut problems = Vec::new();
    let inputs = setup(w, args.seed, args.quick);
    std::hint::black_box(body(&setup(w, args.seed, true)).digest);

    alloc::enable();
    let before = alloc::snapshot();
    let reference = body(&inputs);
    let after = alloc::snapshot();
    v.set("alloc.count_per_kevent", ratio(after.0 - before.0, reference.events) * 1e3);
    v.set("alloc.bytes_per_event", ratio(after.1 - before.1, reference.events));

    let t = traced::body(w, &inputs);
    let mptcp = matches!(w, Workload::Fig9Grid | Workload::BrowseSharded);
    problems.extend(traced::honesty_problems(&t, &reference, mptcp));

    let rig = run_rigs(&mut v, &t, w == Workload::BrowseCoupled, &mut problems);
    in_situ(&mut v, w, &reference, &t, &rig);
    match (w, &inputs) {
        (Workload::Fig9Grid, Inputs::Grid(cells)) => {
            grid_extras(&mut v, args, cells, &reference, &t, scratch, &mut problems)
        }
        (Workload::BrowseSharded, _) => {
            sharded_extras(&mut v, args, &inputs, &reference, &mut problems)
        }
        (Workload::BrowseCoupled, _) => {
            coupled_extras(&mut v, args, &inputs, &reference, &t, &mut problems)
        }
        _ => {}
    }

    let failed = t.out.failed + problems.len() as u64;
    PerLayerRun {
        values: v.map,
        attempted: t.out.attempted,
        failed,
        problems,
        spans_jsonl: t.spans.to_jsonl(),
        span_summary: t.spans.summary(),
    }
}
