//! The MPTCP testbed: [`Mptcp`], the [`Transport`] the generic harness
//! ([`crate::harness`]) drives — connection state, the payload and timer
//! alphabets, and the data / ACK / RTO handlers — plus the flat
//! [`TestbedConfig`] it is built from and the [`Application`] trait MPTCP
//! workloads (a DASH player, a `wget` download, a browser) implement.

use std::ops::Range;
use std::time::Duration;

use ecf_core::SchedulerKind;
use scenario::Scenario;
use simnet::{PathConfig, Time};
use tcp_model::MSS;
use telemetry::{Counter, EventKind, TelemetryHandle};

use crate::connection::{ConnConfig, Connection, Transmission};
use crate::harness::{self, Ctx, Net};
use crate::receiver::{Delivered, Receiver};
use crate::segment::{segs_for_bytes, AckInfo, ConnId, ReqId, Segment, SubId};
use crate::subflow::Subflow;
use crate::trace::{Recorder, RecorderConfig};
use crate::transport::{Drive, Transport};

/// Linux delayed-ACK timeout.
const DELACK_TIMEOUT: Duration = Duration::from_millis(40);

/// Events of the MPTCP testbed model.
pub type Event = harness::Event<Timer>;
/// Mutable simulation state: paths, recorder and the [`Mptcp`] connections.
pub type World = harness::World<Mptcp>;
/// The application's handle into the running world.
pub type Api<'a> = harness::Api<'a, Mptcp>;
/// A ready-to-run MPTCP testbed.
pub type Testbed<A> = harness::Testbed<Mptcp, A>;

/// MPTCP's protocol timers.
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    /// A delayed-ACK timer fires at the receiver.
    DelAck { conn: u32, sub: u16 },
    /// A subflow's lazy RTO timer fires.
    Rto { conn: u32, sub: u16 },
}

/// A data segment parked on a forward link, headed for the client: 24 B, so
/// a forward delivery slot is 40 (pinned by test).
#[derive(Debug, Clone, Copy)]
pub struct Data {
    conn: u32,
    sub: u16,
    seg: Segment,
}

/// A packet parked on a reverse link, headed for the server.
#[derive(Debug, Clone, Copy)]
pub enum Ctrl {
    /// A subflow's ACK.
    Ack { conn: u32, sub: u16, ack: AckInfo },
    /// An HTTP GET.
    Request { conn: u32, req: ReqId, segs: u64 },
}

/// The workload driver, running at the client. Implementations issue
/// requests through [`Api`] and react to completions and timers.
pub trait Application {
    /// Called once at t=0.
    fn on_start(&mut self, now: Time, api: &mut Api<'_>);
    /// The full response to `req` has been delivered in order.
    fn on_response_complete(&mut self, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_>);
    /// A timer set through [`Api::set_timer`] fired.
    fn on_timer(&mut self, _now: Time, _token: u64, _api: &mut Api<'_>) {}
}

impl<A: Application> Drive<A> for Mptcp {
    fn start(app: &mut A, now: Time, api: &mut Api<'_>) {
        app.on_start(now, api);
    }
    fn response_complete(app: &mut A, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_>) {
        app.on_response_complete(now, conn, req, api);
    }
    fn timer(app: &mut A, now: Time, token: u64, api: &mut Api<'_>) {
        app.on_timer(now, token, api);
    }
}

/// Specification of one MPTCP connection in the testbed.
pub struct ConnSpec {
    /// Connection parameters.
    pub cfg: ConnConfig,
    /// Which scheduler this connection runs.
    pub scheduler: SchedulerKind,
    /// A custom scheduler instance overriding `scheduler` — the plug-in
    /// point for schedulers defined outside this crate.
    pub custom_scheduler: Option<Box<dyn ecf_core::Scheduler + Send>>,
    /// Path index (into [`TestbedConfig::paths`]) per subflow; index 0 is the
    /// primary subflow (carries requests), WiFi in the paper's setup.
    pub subflow_paths: Vec<usize>,
}

impl ConnSpec {
    /// A connection with default parameters running a built-in scheduler.
    pub fn new(scheduler: SchedulerKind, subflow_paths: Vec<usize>) -> Self {
        ConnSpec { cfg: ConnConfig::default(), scheduler, custom_scheduler: None, subflow_paths }
    }

    /// A connection running a user-provided scheduler implementation.
    pub fn with_custom(
        scheduler: Box<dyn ecf_core::Scheduler + Send>,
        subflow_paths: Vec<usize>,
    ) -> Self {
        ConnSpec {
            cfg: ConnConfig::default(),
            scheduler: SchedulerKind::Default,
            custom_scheduler: Some(scheduler),
            subflow_paths,
        }
    }
}

/// Full testbed specification.
pub struct TestbedConfig {
    /// The physical paths.
    pub paths: Vec<PathConfig>,
    /// The connections (one per HTTP connection; a browser opens six).
    pub conns: Vec<ConnSpec>,
    /// Seed for link jitter/loss.
    pub seed: u64,
    /// Explicit per-path RNG seeds overriding the derivation from `seed`.
    /// By default path `i` seeds with [`simnet::path_seed`]; a sharded sweep
    /// passes the seeds the paths would have received at their *global*
    /// indices in the monolithic run, which is what makes a shard's link
    /// behavior bit-identical to the monolith's. Length must match `paths`
    /// when present.
    pub path_seeds: Option<Vec<u64>>,
    /// What to record.
    pub recorder: RecorderConfig,
    /// Network dynamics for the run: rate/delay traces, stochastic rate
    /// walks, loss-model swaps, and path outages. The default (empty)
    /// scenario is a fully static network.
    pub scenario: Scenario,
    /// Telemetry sink shared by every component of the testbed. The default
    /// (off) handle records nothing and adds no per-packet work; an enabled
    /// handle collects scheduler decisions, transport lifecycle events, link
    /// drops and counters for trace export.
    pub telemetry: TelemetryHandle,
}

impl TestbedConfig {
    /// A two-path (WiFi + LTE) testbed with one connection, the common case.
    pub fn wifi_lte(wifi_mbps: f64, lte_mbps: f64, scheduler: SchedulerKind, seed: u64) -> Self {
        TestbedConfig {
            paths: vec![PathConfig::wifi(wifi_mbps), PathConfig::lte(lte_mbps)],
            conns: vec![ConnSpec::new(scheduler, vec![0, 1])],
            seed,
            path_seeds: None,
            recorder: RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: TelemetryHandle::off(),
        }
    }
}

pub(crate) struct ConnState {
    sender: Connection,
    receiver: Receiver,
}

/// The MPTCP transport: every connection's sender and receiver.
pub struct Mptcp {
    conns: Vec<ConnState>,
    /// Scratch transmission plan reused across send opportunities.
    plan_buf: Vec<Transmission>,
    /// Scratch delivery list reused across data arrivals.
    delivered_buf: Vec<Delivered>,
}

impl World {
    /// Give back the buffer capacity of connections `conns` and of the
    /// paths their subflows ride, at simulated time `now` (between runs, no
    /// later than any pending event): the subflows' retransmission rings,
    /// both reorder levels, the reinjection queue, the response bounds, and
    /// each path's link FIFOs and delivery queues. Only capacity moves —
    /// every entry stays where it was, and a buffer touched again grows
    /// back — so the run goes on exactly as it would have. Meant for
    /// connections whose traffic is over ([`Connection::all_acked`]); a path
    /// another connection still uses just grows back.
    pub fn release_conns(&mut self, conns: Range<ConnId>, now: Time) {
        for c in conns {
            let cs = &mut self.transport_mut().conns[c];
            cs.sender.release_buffers();
            cs.receiver.release_buffers();
            for sub in 0..cs.sender.subflows.len() {
                let path = self.conns[c].sender.subflows[sub].path;
                self.release_path(path, now);
            }
        }
    }
}

/// Arm `sf`'s lazy RTO timer unless one is already pending.
fn arm_rto(sf: &mut Subflow, conn: ConnId, sub: SubId, cx: &mut Ctx<'_, Mptcp>) {
    if !sf.rto_scheduled && sf.rto_deadline != Time::MAX {
        sf.rto_scheduled = true;
        cx.set_timer(sf.rto_deadline, Timer::Rto { conn: conn as u32, sub: sub as u16 });
    }
}

impl Mptcp {
    /// The sender side of connection `c`.
    pub fn sender(&self, c: ConnId) -> &Connection {
        &self.conns[c].sender
    }

    /// The receiver side of connection `c`.
    pub fn receiver(&self, c: ConnId) -> &Receiver {
        &self.conns[c].receiver
    }

    /// Number of connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Run a send opportunity on `conn` and put the resulting segments on
    /// the wire, reusing the scratch plan buffer.
    fn pump_send(&mut self, conn: ConnId, cx: &mut Ctx<'_, Self>) {
        let sender = &mut self.conns[conn].sender;
        let mut plan = std::mem::take(&mut self.plan_buf);
        plan.clear();
        sender.try_send_into(cx.now, &mut plan);
        // Most ACKs clock in with nothing new to send; skip the counter add
        // (a no-op of value 0) and the loop setup entirely.
        if !plan.is_empty() {
            // The subflows are borrowed once for the whole plan: `PerSub`
            // resolves its representation on every index.
            let subflows = &mut sender.subflows[..];
            for t in &plan {
                let sf = &mut subflows[t.sub];
                cx.send_data(sf.path, Data { conn: conn as u32, sub: t.sub as u16, seg: t.seg });
                // Dropped segments stay in the retransmission queue;
                // dupacks or the RTO recover them.
                arm_rto(sf, conn, t.sub, cx);
            }
            cx.tel.add(Counter::SegsSent, plan.len() as u64);
        }
        self.plan_buf = plan;
    }

    fn send_ack(&mut self, conn: ConnId, sub: SubId, ack: AckInfo, cx: &mut Ctx<'_, Self>) {
        let path = self.conns[conn].sender.subflows[sub].path;
        cx.send_ack(path, Ctrl::Ack { conn: conn as u32, sub: sub as u16, ack });
    }

    fn on_ack(&mut self, conn: ConnId, sub: SubId, ack: AckInfo, cx: &mut Ctx<'_, Self>) {
        let sender = &mut self.conns[conn].sender;
        if let Some(seg) = sender.on_ack(cx.now, sub, &ack) {
            let data = Data { conn: conn as u32, sub: sub as u16, seg };
            cx.send_data(sender.subflows[sub].path, data);
        }
        self.pump_send(conn, cx);
        arm_rto(&mut self.conns[conn].sender.subflows[sub], conn, sub, cx);
    }

    fn on_rto(&mut self, conn: ConnId, sub: SubId, cx: &mut Ctx<'_, Self>) {
        let sf = &mut self.conns[conn].sender.subflows[sub];
        sf.rto_scheduled = false;
        if let Some(seg) = sf.on_rto_fire(cx.now) {
            cx.tel.emit(cx.now.as_nanos(), EventKind::Rto { conn: conn as u32, path: sub as u16 });
            cx.send_data(sf.path, Data { conn: conn as u32, sub: sub as u16, seg });
        }
        arm_rto(sf, conn, sub, cx);
    }
}

impl Transport for Mptcp {
    type Config = TestbedConfig;
    type Data = Data;
    type Ctrl = Ctrl;
    type Timer = Timer;

    fn build(mut cfg: TestbedConfig) -> (Self, Net) {
        let conns: Vec<ConnState> = cfg
            .conns
            .iter_mut()
            .enumerate()
            .map(|(ci, spec)| {
                let subflow_paths: Vec<(usize, Duration)> =
                    spec.subflow_paths.iter().map(|&p| (p, cfg.paths[p].base_rtt())).collect();
                let scheduler: Box<dyn ecf_core::Scheduler> = match spec.custom_scheduler.take() {
                    Some(custom) => custom,
                    None => spec.scheduler.build(),
                };
                let mut sender = Connection::new(spec.cfg, scheduler, &subflow_paths);
                sender.set_telemetry(cfg.telemetry.clone(), ci as u32);
                let receiver = Receiver::new(spec.subflow_paths.len(), spec.cfg.rwnd_segs);
                ConnState { sender, receiver }
            })
            .collect();
        let transport = Mptcp {
            conns,
            plan_buf: Vec::with_capacity(64),
            delivered_buf: Vec::with_capacity(64),
        };
        let subflows: Vec<usize> = cfg.conns.iter().map(|c| c.subflow_paths.len()).collect();
        let net = Net {
            recorder: Recorder::new(cfg.recorder, &subflows),
            paths: cfg.paths,
            seed: cfg.seed,
            path_seeds: cfg.path_seeds,
            scenario: cfg.scenario,
            telemetry: cfg.telemetry,
        };
        (transport, net)
    }

    fn issue_request(&mut self, conn: ConnId, bytes: u64, cx: &mut Ctx<'_, Self>) -> ReqId {
        let segs = segs_for_bytes(bytes);
        let subflows = &self.conns[conn].sender.subflows;
        let req = cx.recorder.new_request(conn, bytes, segs, cx.now, subflows.len());
        let payload = Ctrl::Request { conn: conn as u32, req, segs };
        // Requests ride the primary subflow's path (index 0, WiFi in the
        // paper's setup) while it is up.
        cx.send_request(subflows[0].path, subflows.iter().map(|sf| sf.path), payload);
        req
    }

    fn on_data(&mut self, _path: usize, Data { conn, sub, seg }: Data, cx: &mut Ctx<'_, Self>) {
        let (conn, sub) = (conn as usize, usize::from(sub));
        let cs = &mut self.conns[conn];
        // Map the dsn to its request for last-packet bookkeeping. Response
        // ranges are assigned sequentially, so the bounds deque is sorted by
        // `last` with disjoint ranges: the first entry whose `last` covers
        // the dsn is the only candidate, and a single record lookup rules
        // out dsns below its range (a retransmission of already-completed
        // data). In-order traffic matches the front entry immediately.
        let owner = cs.sender.response_bounds.iter().find(|&&(_, last)| seg.dsn <= last).and_then(
            |&(req, _)| (seg.dsn >= cx.recorder.requests[req as usize].first_dsn).then_some(req),
        );
        if let Some(req) = owner {
            cx.recorder.note_arrival(req, sub, cx.now);
        }

        self.delivered_buf.clear();
        let out = cs.receiver.on_segment_into(cx.now, sub, seg, &mut self.delivered_buf);
        for d in &self.delivered_buf {
            cx.recorder.note_ooo(conn, d.ooo_delay);
        }

        // Complete responses whose last dsn is now delivered.
        let meta_next = cs.receiver.meta_next();
        while let Some(&(req, last)) = cs.sender.response_bounds.front() {
            if last >= meta_next {
                break;
            }
            cs.sender.response_bounds.pop_front();
            cx.complete(conn, req);
        }

        // ACK back on the same path's reverse link (possibly delayed).
        if let Some(ack) = out.ack {
            self.send_ack(conn, sub, ack, cx);
        } else if out.arm_delack {
            let timer = Timer::DelAck { conn: conn as u32, sub: sub as u16 };
            cx.set_timer(cx.now + DELACK_TIMEOUT, timer);
        }
    }

    fn on_ctrl(&mut self, _path: usize, ctrl: Ctrl, cx: &mut Ctx<'_, Self>) {
        match ctrl {
            Ctrl::Ack { conn, sub, ack } => {
                self.on_ack(conn as usize, usize::from(sub), ack, cx);
            }
            Ctrl::Request { conn, req, segs } => {
                let (first, last) = self.conns[conn as usize].sender.server_write(req, segs);
                let rec = &mut cx.recorder.requests[req as usize];
                rec.server_arrival = Some(cx.now);
                rec.first_dsn = first;
                rec.last_dsn = last;
                self.pump_send(conn as usize, cx);
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, cx: &mut Ctx<'_, Self>) {
        match timer {
            Timer::DelAck { conn, sub } => {
                let (conn, sub) = (conn as usize, usize::from(sub));
                if let Some(ack) = self.conns[conn].receiver.take_delayed_ack(sub) {
                    self.send_ack(conn, sub, ack, cx);
                }
            }
            Timer::Rto { conn, sub } => self.on_rto(conn as usize, usize::from(sub), cx),
        }
    }

    fn on_path_state(&mut self, path: usize, up: bool, cx: &mut Ctx<'_, Self>) {
        for c in 0..self.conns.len() {
            let sender = &mut self.conns[c].sender;
            let mut on_path = false;
            for sub in 0..sender.subflows.len() {
                if sender.subflows[sub].path != path {
                    continue;
                }
                on_path = true;
                if up {
                    sender.on_subflow_up(sub);
                } else {
                    sender.on_subflow_down(sub);
                }
                cx.subflow_state(c, sub, up);
            }
            // Reinjections (down) or fresh capacity (up) may unblock sends.
            // Connections with no subflow on this path are untouched — no
            // capacity of theirs changed, so they get no extra send poll.
            // (Sharded populations rely on this: a path event is then a
            // no-op for every unit not on the path, wherever it runs.)
            if on_path {
                self.pump_send(c, cx);
            }
        }
    }

    fn all_drained(&self) -> bool {
        self.conns.iter().all(|c| c.sender.all_acked())
    }

    fn sample(&self, now: Time, recorder: &mut Recorder) {
        let t = now.as_secs_f64();
        for (ci, cs) in self.conns.iter().enumerate() {
            for (si, sf) in cs.sender.subflows.iter().enumerate() {
                if let Some(series) = recorder.cwnd.get_mut(ci) {
                    series[si].push(t, f64::from(sf.cc.cwnd_pkts()));
                }
                if let Some(series) = recorder.sndbuf.get_mut(ci) {
                    let kb = f64::from(sf.inflight_count()) * f64::from(MSS) / 1024.0;
                    series[si].push(t, kb);
                }
            }
        }
    }
}
