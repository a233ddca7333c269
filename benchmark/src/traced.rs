//! One traced body per workload: the same simulations as the untraced body,
//! built here through public constructors so the timing wrappers can be
//! installed, with telemetry enabled and every layer's counters read back
//! afterwards. The traced body must reproduce the untraced body's digest —
//! a wrapper that changed an outcome would invalidate every number it took.

use dash::{DashApp, PlayerConfig};
use experiments::sharding::{digest_units, ReqSummary, UnitReport};
use experiments::{
    CoupledRun, OpenAllApp, Population, StreamingConfig, StreamingOutcome, SweepOptions,
};
use mptcp::{ConnConfig, ConnSpec, Testbed, TestbedConfig};
use quic::{QuicTestbed, QuicTestbedConfig};
use scenario::Scenario;
use simnet::{LinkStats, Path, PathConfig, Time};
use telemetry::{Counter, TelemetryHandle};
use testkit::digest::Fnv1a;
use webload::{BrowserApp, PageModel};

use crate::trace::{SchedSink, SchedTape, SharedSink, SpanLog, TimedApp, TimedScheduler};
use crate::workloads::{
    fold_recorder, fold_streaming, fold_sweep, BodyOut, Inputs, PageRun, Workload, HETERO,
};

/// Counters read from the layers after each simulation of a traced body,
/// summed over the body.
#[derive(Debug, Clone, Default)]
pub struct InSitu {
    /// Wheel cascades, from `Testbed::queue()` (MPTCP testbeds built here).
    pub cascades: u64,
    /// Wheel fast-forward jumps, from `Testbed::queue()`.
    pub ff_jumps: u64,
    /// Deliveries dispatched by batched claims, from `Testbed::queue()`.
    pub batch_deliveries: u64,
    /// Packets the forward (data) links accepted.
    pub fwd_delivered: u64,
    /// Packets the forward links dropped (queue overflow + random loss).
    pub fwd_dropped: u64,
    /// Packets the reverse (ACK / request) links accepted.
    pub rev_delivered: u64,
    /// Packets the reverse links dropped.
    pub rev_dropped: u64,
    /// `SubflowStats::segs_sent`.
    pub segs_sent: u64,
    /// `SubflowStats::retransmits`.
    pub retransmits: u64,
    /// `SubflowStats::reinjections`.
    pub reinjections: u64,
    /// `CcStats::idle_resets`.
    pub idle_resets: u64,
    /// `CcStats::rto_events`.
    pub rto_events: u64,
    /// `ConnStats::window_blocked` (`QuicStats::rwnd_blocked` on QUIC).
    pub window_blocked: u64,
    /// `ConnStats::wait_decisions` (`QuicStats::wait_decisions` on QUIC).
    pub wait_decisions: u64,
    /// `ReceiverStats::delivered_segs`.
    pub rx_delivered: u64,
    /// `ReceiverStats::duplicate_segs`.
    pub rx_duplicates: u64,
    /// Largest `ReceiverStats::max_meta_buffered` of any connection.
    pub peak_buffered: u64,
    /// Application callbacks.
    pub app_calls: u64,
    /// Host nanoseconds inside them (clock overhead included).
    pub app_ns: u64,
    /// Testbeds built.
    pub testbeds: u64,
    /// Table 3 on the heterogeneous cells: initial-window resets (idle +
    /// RTO) of the fast subflow, per scheduler label.
    pub hetero_iw_resets: Vec<(&'static str, u64)>,
    /// RTO events on the heterogeneous ECF cell, both subflows.
    pub hetero_rtos: u64,
}

/// What a traced body produced.
pub struct Traced {
    /// Outputs folded exactly like the untraced body's.
    pub out: BodyOut,
    /// Layer counters.
    pub situ: InSitu,
    /// Scheduler wrapper totals and tapes.
    pub sched: SchedSink,
    /// The enabled telemetry handle every simulation shared.
    pub tel: TelemetryHandle,
    /// Spans, rooted at span 0 (`body`).
    pub spans: SpanLog,
    /// The coupled sweep only: host nanoseconds per lockstep round.
    pub round_ns: Vec<u64>,
    /// Whether this body could install the scheduler and application
    /// wrappers (the coupled sweep builds its own connections).
    pub wrapped: bool,
}

struct Ctx {
    tel: TelemetryHandle,
    sink: SharedSink,
    spans: SpanLog,
    situ: InSitu,
    out: BodyOut,
    digest: Fnv1a,
    /// Wrapper totals already attributed to earlier spans.
    seen: (u64, u64),
}

impl Ctx {
    fn scheduler(&self, kind: ecf_core::SchedulerKind, tape: bool) -> Box<TimedScheduler> {
        Box::new(TimedScheduler::new(kind.build(), tape, &self.sink))
    }

    fn links(&mut self, paths: &[Path]) {
        let pkts = |s: LinkStats| (s.delivered_pkts, s.dropped_queue + s.dropped_random);
        for p in paths {
            let (fwd, rev) = (pkts(p.fwd.stats()), pkts(p.rev.stats()));
            self.situ.fwd_delivered += fwd.0;
            self.situ.fwd_dropped += fwd.1;
            self.situ.rev_delivered += rev.0;
            self.situ.rev_dropped += rev.1;
        }
    }

    /// Read every layer's counters off a finished MPTCP testbed.
    fn absorb_mptcp<A: mptcp::Application>(&mut self, tb: &Testbed<TimedApp<A>>) {
        let q = tb.queue();
        self.situ.cascades += q.cascaded_total();
        self.situ.ff_jumps += q.ff_jumps();
        self.situ.batch_deliveries += q.batch_deliveries();
        let world = tb.world();
        self.links(&world.paths);
        for c in 0..world.conn_count() {
            let sender = world.sender(c);
            for sf in &sender.subflows {
                let (st, cc) = (sf.stats(), sf.cc.stats());
                self.situ.segs_sent += st.segs_sent;
                self.situ.retransmits += st.retransmits;
                self.situ.reinjections += st.reinjections;
                self.situ.idle_resets += cc.idle_resets;
                self.situ.rto_events += cc.rto_events;
            }
            self.situ.window_blocked += sender.stats().window_blocked;
            self.situ.wait_decisions += sender.stats().wait_decisions;
            let rx = world.receiver(c).stats();
            self.situ.rx_delivered += rx.delivered_segs;
            self.situ.rx_duplicates += rx.duplicate_segs;
            self.situ.peak_buffered = self.situ.peak_buffered.max(rx.max_meta_buffered);
        }
        self.app(tb.app());
    }

    fn app<A>(&mut self, app: &TimedApp<A>) {
        self.situ.app_calls += app.calls;
        self.situ.app_ns += app.ns;
        self.situ.testbeds += 1;
    }

    /// Close a simulation's span and hang the wrapper totals it caused
    /// under it (scheduler totals arrive when the testbed is dropped, so
    /// call this after the drop).
    fn close(&mut self, span: u32, app: (u64, u64)) -> u64 {
        let ns = self.spans.close(span);
        let (calls, busy) = {
            let sink = self.sink.lock().expect("no wrapper panicked");
            (sink.calls, sink.ns)
        };
        self.spans.aggregate("core.decide", span, calls - self.seen.0, busy - self.seen.1);
        self.seen = (calls, busy);
        self.spans.aggregate("app", span, app.0, app.1);
        self.out.parts_ns.push(ns);
        ns
    }
}

/// `run_streaming` with the wrappers installed: the same testbed, the same
/// horizon, the same extraction.
fn traced_cell(ctx: &mut Ctx, cfg: &StreamingConfig) {
    let span = ctx.spans.open("cell", Some(0));
    let hetero = (cfg.wifi_mbps, cfg.lte_mbps) == HETERO;
    let mut conn = ConnConfig::default();
    conn.tcp.idle_reset = cfg.cwnd_conservation;
    conn.cc = cfg.cc;
    let tb_cfg = TestbedConfig {
        paths: vec![PathConfig::wifi(cfg.wifi_mbps), PathConfig::lte(cfg.lte_mbps)],
        conns: vec![ConnSpec {
            cfg: conn,
            scheduler: cfg.scheduler,
            custom_scheduler: Some(ctx.scheduler(cfg.scheduler, hetero)),
            subflow_paths: vec![0, 1],
        }],
        seed: cfg.seed,
        path_seeds: None,
        recorder: cfg.recorder,
        scenario: Scenario::default(),
        telemetry: ctx.tel.clone(),
    };
    let player = PlayerConfig { video_secs: cfg.video_secs, ..PlayerConfig::default() };
    let mut tb = Testbed::new(tb_cfg, TimedApp::new(DashApp::new(player, 0)));
    tb.run_until(Time::from_secs((cfg.video_secs * 30.0) as u64 + 300));

    let world = tb.world();
    let sender = world.sender(0);
    let segs = |s: usize| sender.subflows[s].stats().segs_sent;
    let fast = usize::from(cfg.lte_mbps >= cfg.wifi_mbps);
    let fast_iw_resets = sender.subflows[fast].cc.stats().iw_resets();
    let player = &tb.app().inner.player;
    let mut cumulative_mb = 0.0;
    let outcome = StreamingOutcome {
        avg_bitrate: player.avg_bitrate_mbps(),
        avg_throughput: player.avg_throughput_mbps(),
        ideal_bitrate: dash::ideal_avg_bitrate_mbps(cfg.wifi_mbps + cfg.lte_mbps),
        fast_fraction: segs(fast) as f64 / (segs(0) + segs(1)).max(1) as f64,
        fast_iw_resets,
        ooo_delays: world.recorder.ooo_delays_secs(),
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
        download_progress: player
            .history
            .iter()
            .map(|c| {
                cumulative_mb += c.bytes as f64 / 1e6;
                (c.finished.as_secs_f64(), cumulative_mb)
            })
            .collect(),
        cwnd_traces: Vec::new(),
        sndbuf_traces: Vec::new(),
        events_processed: tb.events_processed(),
    };
    if hetero {
        ctx.situ.hetero_iw_resets.push((cfg.scheduler.label(), fast_iw_resets));
        if cfg.scheduler == ecf_core::SchedulerKind::Ecf {
            ctx.situ.hetero_rtos = sender.subflows.iter().map(|sf| sf.cc.stats().rto_events).sum();
        }
    }
    ctx.absorb_mptcp(&tb);
    let app = (tb.app().calls, tb.app().ns);
    drop(tb);
    ctx.close(span, app);
    fold_streaming(&mut ctx.digest, &mut ctx.out, cfg, &outcome);
}

/// One unit of a browse population on its own engine, as the sweep
/// executor's `build_shard` builds it: link seeds keyed by global path
/// index, connection ids local to the unit.
fn traced_unit(ctx: &mut Ctx, pop: &Population, u: usize) -> UnitReport {
    let span = ctx.spans.open("unit", Some(0));
    let unit = &pop.units[u];
    let mut globals: Vec<usize> =
        unit.conns.iter().flat_map(|c| c.subflow_paths.iter().copied()).collect();
    globals.sort_unstable();
    globals.dedup();
    let local = |g: usize| globals.binary_search(&g).expect("path belongs to the unit");
    let tb_cfg = TestbedConfig {
        paths: globals.iter().map(|&g| pop.paths[g].clone()).collect(),
        conns: unit
            .conns
            .iter()
            .enumerate()
            .map(|(c, pc)| ConnSpec {
                cfg: pc.cfg,
                scheduler: pc.scheduler,
                custom_scheduler: Some(ctx.scheduler(pc.scheduler, u == 0 && c == 0)),
                subflow_paths: pc.subflow_paths.iter().map(|&g| local(g)).collect(),
            })
            .collect(),
        seed: pop.seed,
        path_seeds: Some(globals.iter().map(|&g| simnet::path_seed(pop.seed, g)).collect()),
        recorder: pop.recorder,
        scenario: Scenario::default(),
        telemetry: ctx.tel.clone(),
    };
    let n = unit.conns.len();
    let mut tb = Testbed::new(tb_cfg, TimedApp::new(BrowserApp::new(unit.page.clone(), n)));
    tb.run_until(pop.horizon);

    let rec = &tb.world().recorder;
    let report = UnitReport {
        unit: u,
        objects: tb.app().inner.objects.clone(),
        page_load: tb.app().inner.page_load_time,
        requests: rec
            .requests
            .iter()
            .map(|r| ReqSummary {
                conn: r.conn,
                bytes: r.bytes,
                segs: r.segs,
                first_dsn: r.first_dsn,
                last_dsn: r.last_dsn,
                issued: r.issued,
                server_arrival: r.server_arrival,
                completed: r.completed,
                last_arrival_per_sub: r.last_arrival_per_sub.clone(),
                arrivals_per_sub: r.arrivals_per_sub.clone(),
            })
            .collect(),
        ooo_us_per_conn: (0..n)
            .map(|c| rec.ooo_delays_us_per_conn.get(c).cloned().unwrap_or_default())
            .collect(),
    };
    ctx.out.events += tb.events_processed();
    ctx.absorb_mptcp(&tb);
    let app = (tb.app().calls, tb.app().ns);
    drop(tb);
    ctx.close(span, app);
    report
}

/// `run_quic_web` with the wrappers installed.
fn traced_page(ctx: &mut Ctx, p: &PageRun, first: bool) {
    let span = ctx.spans.open("page", Some(0));
    let page = PageModel::cnn_like(2014);
    let cfg = QuicTestbedConfig {
        custom_scheduler: Some(ctx.scheduler(p.kind, first)),
        telemetry: ctx.tel.clone(),
        ..QuicTestbedConfig::wifi_lte(p.wifi, p.lte, p.kind, p.seed)
    };
    let mut tb = QuicTestbed::new(cfg, TimedApp::new(OpenAllApp::new(&page)));
    tb.run_until(Time::from_secs(600));

    let world = tb.world();
    ctx.links(&world.paths);
    ctx.situ.window_blocked += world.sender.stats.rwnd_blocked;
    ctx.situ.wait_decisions += world.sender.stats.wait_decisions;
    ctx.situ.rto_events += world.sender.stats.ptos;
    ctx.app(tb.app());
    fold_recorder(&mut ctx.digest, &mut ctx.out, tb.events_processed(), &world.recorder);
    ctx.out.attempted += 1;
    ctx.out.failed += u64::from(!tb.app().inner.done());
    let app = (tb.app().calls, tb.app().ns);
    drop(tb);
    ctx.close(span, app);
}

/// Run `inputs` traced.
pub fn body(w: Workload, inputs: &Inputs) -> Traced {
    // The ring wraps: a traced body pays the steady-state push cost of a
    // long traced run, and what it loses is reported as overflow.
    let tel = TelemetryHandle::with_capacity(1 << 10);
    let mut ctx = Ctx {
        tel: tel.clone(),
        sink: SharedSink::default(),
        spans: SpanLog::new(w.name()),
        situ: InSitu::default(),
        out: BodyOut::default(),
        digest: Fnv1a::new(),
        seen: (0, 0),
    };
    let root = ctx.spans.open("body", None);
    let mut round_ns = Vec::new();
    let mut wrapped = true;
    match inputs {
        Inputs::Grid(cells) => {
            for cfg in cells {
                traced_cell(&mut ctx, cfg);
            }
            ctx.out.digest = ctx.digest.finish();
        }
        Inputs::Sweep(pop, _) if pop.couplings.is_empty() => {
            let units: Vec<UnitReport> =
                (0..pop.units.len()).map(|u| traced_unit(&mut ctx, pop, u)).collect();
            let merge = ctx.spans.open("sharding.merge", Some(root));
            let digest = digest_units(&units);
            ctx.out.parts_ns.push(ctx.spans.close(merge));
            let shard_events = vec![ctx.out.events];
            let report =
                experiments::SweepReport { units, digest, shard_events, shard_wall_ns: Vec::new() };
            fold_sweep(&mut ctx.out, &report);
        }
        Inputs::Sweep(pop, opts) => {
            wrapped = false;
            let opts = SweepOptions { telemetry: tel.clone(), ..opts.clone() };
            let build = ctx.spans.open("cosim.build", Some(root));
            let mut run = CoupledRun::new(pop, &opts);
            ctx.out.parts_ns.push(ctx.spans.close(build));
            loop {
                let round = ctx.spans.open("cosim.round", Some(root));
                let more = run.step();
                round_ns.push(ctx.spans.close(round));
                if !more {
                    break;
                }
            }
            ctx.out.parts_ns.extend_from_slice(&round_ns);
            let finish = ctx.spans.open("cosim.finish", Some(root));
            let report = run.finish();
            ctx.out.parts_ns.push(ctx.spans.close(finish));
            fold_sweep(&mut ctx.out, &report);
        }
        Inputs::Pages(pages) => {
            for (i, p) in pages.iter().enumerate() {
                traced_page(&mut ctx, p, i == 0);
            }
            ctx.out.digest = ctx.digest.finish();
        }
    }
    ctx.spans.close(root);
    // As in the untraced body, the harness's own folding is off the clock.
    ctx.out.wall_ns = ctx.out.parts_ns.iter().sum();
    let Ctx { sink, spans, situ, out, .. } = ctx;
    let sched = std::mem::take(&mut *sink.lock().expect("no wrapper panicked"));
    Traced { out, situ, sched, tel, spans, round_ns, wrapped }
}

/// Cross-checks between counts taken by different observers of the same
/// traced body. Empty when they all agree.
pub fn honesty_problems(t: &Traced, untraced: &BodyOut, mptcp: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let mut same = |what: &str, a: u64, b: u64| {
        if a != b {
            problems.push(format!("{what}: {a} != {b}"));
        }
    };
    same("traced vs untraced digest", t.out.digest, untraced.digest);
    same("traced vs untraced events", t.out.events, untraced.events);
    same("traced vs untraced operations", t.out.attempted, untraced.attempted);
    if t.wrapped {
        let tel = |c| t.tel.counter(c);
        same("wrapper calls vs telemetry decisions", t.sched.calls, tel(Counter::Decisions));
        same("wrapper waits vs telemetry waits", t.sched.waits, tel(Counter::WaitDecisions));
        same("wrapper waits vs connection stats", t.sched.waits, t.situ.wait_decisions);
        let dropped = t.situ.fwd_dropped + t.situ.rev_dropped;
        same("link stats vs telemetry drops", dropped, tel(Counter::LinkDrops));
        if mptcp {
            same("queue vs telemetry ff jumps", t.situ.ff_jumps, tel(Counter::FfJumps));
            same("queue vs telemetry cascades", t.situ.cascades, tel(Counter::QueueCascades));
            let batched = tel(Counter::BatchDeliveries);
            same("queue vs telemetry batched deliveries", t.situ.batch_deliveries, batched);
            same("subflow vs telemetry rtos", t.situ.rto_events, tel(Counter::Rtos));
            same("cc vs telemetry idle resets", t.situ.idle_resets, tel(Counter::IwResets));
        }
    }
    problems
}

/// The tape the scheduler `name` recorded in this body, if any.
pub fn tape_of<'a>(t: &'a Traced, name: &str) -> Option<&'a SchedTape> {
    t.sched.tapes.iter().find(|tape| tape.scheduler == name)
}
