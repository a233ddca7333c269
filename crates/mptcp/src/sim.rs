//! The testbed: wires connections, paths and an application into a
//! `simnet` discrete-event model. This plays the role of the paper's lab —
//! server and mobile client, WiFi + LTE paths shaped with `tc`, and a
//! workload application driving HTTP requests.
//!
//! Data flows server → client on each path's `fwd` link (shaped); requests
//! and ACKs ride the unshaped `rev` link. The client application
//! ([`Application`]) issues requests and reacts to completed responses,
//! which is all a DASH player, a `wget` download, or a browser needs.

use std::time::Duration;

use ecf_core::SchedulerKind;
use scenario::{Action, ControlEvent, Scenario};
use simnet::{
    DeliveryQueue, Engine, EventQueue, Model, Path, PathConfig, RunOutcome, Time, Verdict,
};
use tcp_model::{wire_size, MSS};
use telemetry::{Counter, EventKind, LinkDir, TelemetryHandle};

use crate::connection::{ConnConfig, Connection, Transmission};
use crate::receiver::Receiver;
use crate::segment::{segs_for_bytes, AckInfo, ConnId, ReqId, Segment, SubId};
use crate::subflow::Subflow;
use crate::trace::{Recorder, RecorderConfig};

/// Wire size of an HTTP GET (request line + headers, single packet).
const REQUEST_WIRE_BYTES: u32 = 300;
/// Wire size of a pure ACK.
const ACK_WIRE_BYTES: u32 = 72;
/// Linux delayed-ACK timeout.
const DELACK_TIMEOUT: Duration = Duration::from_millis(40);

/// Events of the testbed model.
///
/// Deliberately slim (≤ 24 bytes): each pending event is one slab node of
/// the engine's calendar wheel (`simnet::wheel`), moved once into the
/// wheel's sorted ready queue when its quantum comes up and once out on
/// pop, so its width is the wheel's footprint per pending event. Per-packet
/// payloads (data segments, ACKs, requests) do *not* ride in the wheel at
/// all — they wait in per-link [`DeliveryQueue`]s and the wheel only
/// carries the one-per-link-direction
/// [`Event::FwdDeliver`]/[`Event::RevDeliver`] wakeups (see DESIGN.md,
/// "Event coalescing on FIFO links").
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Kick the application's `on_start` at t=0.
    AppStart,
    /// The head of `paths[path]`'s *forward* (data) delivery queue arrives
    /// at the client.
    FwdDeliver {
        /// Path index.
        path: u32,
    },
    /// The head of `paths[path]`'s *reverse* (ACK/request) delivery queue
    /// arrives at the server.
    RevDeliver {
        /// Path index.
        path: u32,
    },
    /// A delayed-ACK timer fires at the receiver.
    DelAck {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        sub: u16,
    },
    /// A subflow's lazy RTO timer fires.
    Rto {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        sub: u16,
    },
    /// An application timer fires.
    AppTimer {
        /// Opaque token the application chose.
        token: u64,
    },
    /// A scenario control event fires: `idx` indexes the compiled
    /// [`ControlEvent`] table held in [`World`]. Keeping the payload out
    /// of the heap keeps this variant pointer-sized even for fat actions
    /// (a Gilbert–Elliott loss model is four `f64`s).
    Control {
        /// Index into `World::controls`.
        idx: u32,
    },
    /// Periodic trace sampling tick.
    Sample,
}

/// A packet parked in a per-link [`DeliveryQueue`], waiting for its
/// direction's wakeup. This is where the fat payloads live instead of the
/// heap; a deque push/pop is `O(1)` and touches no other entries.
#[derive(Debug, Clone, Copy)]
enum LinkPayload {
    /// A data segment headed for the client.
    Data { conn: u32, sub: u16, seg: Segment },
    /// An ACK headed back to the server.
    Ack { conn: u32, sub: u16, ack: AckInfo },
    /// An HTTP GET headed for the server.
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
        ConnSpec {
            cfg: ConnConfig::default(),
            scheduler,
            custom_scheduler: None,
            subflow_paths,
        }
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
    pub fn wifi_lte(
        wifi_mbps: f64,
        lte_mbps: f64,
        scheduler: SchedulerKind,
        seed: u64,
    ) -> Self {
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

struct ConnState {
    sender: Connection,
    receiver: Receiver,
    /// Path carrying requests (the primary subflow's path).
    primary_path: usize,
}

/// Mutable simulation state (everything except the application).
pub struct World {
    /// Live paths, indexed as in the config.
    pub paths: Vec<Path>,
    conns: Vec<ConnState>,
    /// Collected measurements.
    pub recorder: Recorder,
    /// Per-path liveness (down paths drop everything offered to them).
    path_up: Vec<bool>,
    /// In-flight data packets per path (forward direction), head-scheduled.
    fwd_inflight: Vec<DeliveryQueue<LinkPayload>>,
    /// In-flight ACKs/requests per path (reverse direction), head-scheduled.
    rev_inflight: Vec<DeliveryQueue<LinkPayload>>,
    /// Compiled scenario events, indexed by [`Event::Control`]. The heap
    /// carries only the index; the fat action payload lives here.
    controls: Vec<ControlEvent>,
    /// Scratch transmission plan reused across send opportunities.
    plan_buf: Vec<Transmission>,
    /// Scratch delivery list reused across data arrivals.
    delivered_buf: Vec<crate::receiver::Delivered>,
    /// Requests completed by the data arrival being dispatched.
    completed_buf: Vec<ReqId>,
    sample_every: Duration,
    sampling: bool,
    /// Telemetry sink for world-level events (rates, path state, RTOs).
    tel: TelemetryHandle,
}

/// The application's handle into the running world.
pub struct Api<'a> {
    /// Current simulation time.
    pub now: Time,
    world: &'a mut World,
    queue: &'a mut EventQueue<Event>,
}

impl Api<'_> {
    /// Issue an HTTP GET for `bytes` of response payload on `conn`.
    pub fn request(&mut self, conn: ConnId, bytes: u64) -> ReqId {
        self.world.issue_request(self.now, conn, bytes, self.queue)
    }

    /// Arrange for [`Application::on_timer`] to fire at `at`.
    pub fn set_timer(&mut self, at: Time, token: u64) {
        self.queue.schedule(at, Event::AppTimer { token });
    }

    /// Read-only world access (counters, receiver state...).
    pub fn world(&self) -> &World {
        self.world
    }
}

impl World {
    fn build(cfg: &mut TestbedConfig) -> Self {
        if let Some(seeds) = &cfg.path_seeds {
            assert_eq!(seeds.len(), cfg.paths.len(), "one seed per path");
        }
        let paths: Vec<Path> = cfg
            .paths
            .iter()
            .enumerate()
            .map(|(i, pc)| {
                let seed = match &cfg.path_seeds {
                    Some(seeds) => seeds[i],
                    None => simnet::path_seed(cfg.seed, i),
                };
                let mut p = Path::new(pc, seed);
                p.attach_telemetry(&cfg.telemetry, i as u16);
                p
            })
            .collect();
        let path_cfgs = cfg.paths.clone();
        let conns: Vec<ConnState> = cfg
            .conns
            .iter_mut()
            .enumerate()
            .map(|(ci, spec)| {
                assert!(!spec.subflow_paths.is_empty());
                let subflow_paths: Vec<(usize, Duration)> = spec
                    .subflow_paths
                    .iter()
                    .map(|&p| (p, path_cfgs[p].base_rtt()))
                    .collect();
                let scheduler: Box<dyn ecf_core::Scheduler> = match spec.custom_scheduler.take()
                {
                    Some(custom) => custom,
                    None => spec.scheduler.build(),
                };
                let mut sender = Connection::new(spec.cfg, scheduler, &subflow_paths);
                sender.set_telemetry(cfg.telemetry.clone(), ci as u32);
                ConnState {
                    sender,
                    receiver: Receiver::new(spec.subflow_paths.len(), spec.cfg.rwnd_segs),
                    primary_path: spec.subflow_paths[0],
                }
            })
            .collect();
        let subflow_counts: Vec<usize> =
            cfg.conns.iter().map(|c| c.subflow_paths.len()).collect();
        let recorder = Recorder::new(cfg.recorder, &subflow_counts);
        let n_paths = paths.len();
        World {
            paths,
            conns,
            recorder,
            path_up: vec![true; n_paths],
            fwd_inflight: (0..n_paths).map(|_| DeliveryQueue::new()).collect(),
            rev_inflight: (0..n_paths).map(|_| DeliveryQueue::new()).collect(),
            controls: cfg.scenario.compile(),
            plan_buf: Vec::with_capacity(64),
            delivered_buf: Vec::with_capacity(64),
            completed_buf: Vec::with_capacity(8),
            sample_every: cfg.recorder.sample_every,
            sampling: cfg.recorder.cwnd_traces || cfg.recorder.sndbuf_traces,
            tel: cfg.telemetry.clone(),
        }
    }

    /// Park a forward-direction (data) delivery and, when the link was
    /// idle, schedule its wakeup under the seq reserved for this packet.
    /// Takes the delivery queues rather than the world, so a handler can
    /// keep its connection's subflows borrowed across the call.
    fn park_fwd(
        fwd_inflight: &mut [DeliveryQueue<LinkPayload>],
        arrival: Time,
        path: usize,
        payload: LinkPayload,
        q: &mut EventQueue<Event>,
    ) {
        let seq = q.reserve_seq();
        if let Some((at, s)) = fwd_inflight[path].push(arrival, seq, payload) {
            q.schedule_reserved(at, s, Event::FwdDeliver { path: path as u32 });
        }
    }

    /// Reverse-direction (ACK/request) counterpart of [`World::park_fwd`].
    fn park_rev(
        &mut self,
        arrival: Time,
        path: usize,
        payload: LinkPayload,
        q: &mut EventQueue<Event>,
    ) {
        let seq = q.reserve_seq();
        if let Some((at, s)) = self.rev_inflight[path].push(arrival, seq, payload) {
            q.schedule_reserved(at, s, Event::RevDeliver { path: path as u32 });
        }
    }

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

    /// True when every connection has delivered everything written to it.
    pub fn all_drained(&self) -> bool {
        self.conns.iter().all(|c| c.sender.all_acked())
    }

    fn issue_request(
        &mut self,
        now: Time,
        conn: ConnId,
        bytes: u64,
        q: &mut EventQueue<Event>,
    ) -> ReqId {
        let segs = segs_for_bytes(bytes);
        let n_subs = self.conns[conn].sender.subflows.len();
        let req = self.recorder.new_request(conn, bytes, segs, now, n_subs);
        let path = self.conns[conn].primary_path;
        // Requests ride the primary path if it is up, else any live path of
        // *this connection* — a real client retries the GET over its own
        // surviving interface, never over some other host's radio. (Sharded
        // populations rely on the conn-local scan: a whole-world scan would
        // pick a foreign unit's path in the monolith and break partition
        // invariance the moment an outage fires.)
        let path = if self.path_up[path] {
            path
        } else {
            let mut own = self.conns[conn].sender.subflows.iter().map(|sf| sf.path);
            match own.find(|&p| self.path_up[p]) {
                Some(p) => p,
                // Total blackout: the request is lost (the application will
                // observe a stall until it retries on recovery).
                None => return req,
            }
        };
        let arrival = match self.paths[path].rev.enqueue(now, REQUEST_WIRE_BYTES) {
            Verdict::Deliver { arrival } => arrival,
            // The reverse link is engineered lossless, but stay robust.
            _ => now + self.paths[path].rev.prop_delay(),
        };
        self.park_rev(arrival, path, LinkPayload::Request { conn: conn as u32, req, segs }, q);
        req
    }

    fn transmit(
        &mut self,
        now: Time,
        conn: ConnId,
        plan: &[Transmission],
        q: &mut EventQueue<Event>,
    ) {
        if plan.is_empty() {
            // Most ACKs clock in with nothing new to send; skip the counter
            // add (a no-op of value 0) and the loop setup entirely.
            return;
        }
        // The subflows are borrowed once for the whole plan: `PerSub`
        // resolves its representation on every index.
        let World { conns, paths, path_up, fwd_inflight, .. } = self;
        let subflows = &mut conns[conn].sender.subflows[..];
        for t in plan {
            let sf = &mut subflows[t.sub];
            // A down path swallows everything (radio gone); recovery runs
            // through RTO and reinjection exactly as for tail loss.
            if path_up[sf.path] {
                if let Verdict::Deliver { arrival } =
                    paths[sf.path].fwd.enqueue(now, wire_size(MSS))
                {
                    let payload =
                        LinkPayload::Data { conn: conn as u32, sub: t.sub as u16, seg: t.seg };
                    Self::park_fwd(fwd_inflight, arrival, sf.path, payload, q);
                }
            }
            // Dropped segments stay in the retransmission queue; dupacks or
            // the RTO recover them.
            Self::arm_rto(sf, conn, t.sub, q);
        }
        self.tel.add(Counter::SegsSent, plan.len() as u64);
    }

    fn arm_rto(sf: &mut Subflow, conn: ConnId, sub: SubId, q: &mut EventQueue<Event>) {
        if !sf.rto_scheduled && sf.rto_deadline != Time::MAX {
            sf.rto_scheduled = true;
            q.schedule(sf.rto_deadline, Event::Rto { conn: conn as u32, sub: sub as u16 });
        }
    }

    /// Run a send opportunity on `conn` and put the resulting segments on
    /// the wire, reusing the scratch plan buffer.
    fn pump_send(&mut self, now: Time, conn: ConnId, q: &mut EventQueue<Event>) {
        // Cross-layer sample: expose each subflow path's droptail backlog to
        // the scheduler snapshot. `Link::queued_bytes` expires the queue at
        // `now` first — a mutation the next enqueue/expiry at a later time
        // would perform anyway, so sampling here cannot change link behavior
        // (the golden digests pin this). Skipped when nothing is waiting to
        // be assigned: `link_queue_bytes` is only consulted by the phase-2
        // scheduler select, which never runs with zero unassigned segments
        // (reinjection reads srtt/cwnd only), so a stale sample is unread
        // and the deferred expiry is performed by the next enqueue anyway.
        let sender = &mut self.conns[conn].sender;
        if sender.unassigned_segs() > 0 {
            for sf in sender.subflows.iter_mut() {
                sf.link_queue_bytes = if self.path_up[sf.path] {
                    self.paths[sf.path].fwd.queued_bytes(now)
                } else {
                    0
                };
            }
        }
        let mut plan = std::mem::take(&mut self.plan_buf);
        plan.clear();
        sender.try_send_into(now, &mut plan);
        self.transmit(now, conn, &plan, q);
        self.plan_buf = plan;
    }

    fn on_request(&mut self, now: Time, conn: ConnId, req: ReqId, segs: u64, q: &mut EventQueue<Event>) {
        let rec = &mut self.recorder.requests[req as usize];
        rec.server_arrival = Some(now);
        let (first, last) = self.conns[conn].sender.server_write(req, segs);
        let rec = &mut self.recorder.requests[req as usize];
        rec.first_dsn = first;
        rec.last_dsn = last;
        self.pump_send(now, conn, q);
    }

    /// Handle a data arrival. Requests completed by this segment are pushed
    /// onto `completed_buf` (cleared here); the dispatcher notifies the
    /// application from that buffer.
    fn on_data(
        &mut self,
        now: Time,
        conn: ConnId,
        sub: SubId,
        seg: Segment,
        q: &mut EventQueue<Event>,
    ) {
        self.completed_buf.clear();
        // Map the dsn to its request for last-packet bookkeeping. Response
        // ranges are assigned sequentially, so the bounds deque is sorted by
        // `last` with disjoint ranges: the first entry whose `last` covers
        // the dsn is the only candidate, and a single record lookup rules
        // out dsns below its range (a retransmission of already-completed
        // data). In-order traffic matches the front entry immediately.
        let owner = self.conns[conn]
            .sender
            .response_bounds
            .iter()
            .find(|&&(_, last)| seg.dsn <= last)
            .and_then(|&(req, _)| {
                (seg.dsn >= self.recorder.requests[req as usize].first_dsn).then_some(req)
            });
        if let Some(req) = owner {
            self.recorder.note_arrival(req, sub, now);
        }

        let mut delivered = std::mem::take(&mut self.delivered_buf);
        delivered.clear();
        let out = self.conns[conn].receiver.on_segment_into(now, sub, seg, &mut delivered);
        for d in &delivered {
            self.recorder.note_ooo(conn, d.ooo_delay);
        }
        self.delivered_buf = delivered;

        // Complete responses whose last dsn is now delivered.
        let meta_next = self.conns[conn].receiver.meta_next();
        while let Some(&(req, last)) = self.conns[conn].sender.response_bounds.front() {
            if last < meta_next {
                self.conns[conn].sender.response_bounds.pop_front();
                self.recorder.requests[req as usize].completed = Some(now);
                self.completed_buf.push(req);
            } else {
                break;
            }
        }

        // ACK back on the same path's reverse link (possibly delayed).
        if let Some(ack) = out.ack {
            self.send_ack(now, conn, sub, ack, q);
        } else if out.arm_delack {
            q.schedule(
                now + DELACK_TIMEOUT,
                Event::DelAck { conn: conn as u32, sub: sub as u16 },
            );
        }
    }

    fn send_ack(
        &mut self,
        now: Time,
        conn: ConnId,
        sub: SubId,
        ack: AckInfo,
        q: &mut EventQueue<Event>,
    ) {
        let path_idx = self.conns[conn].sender.subflows[sub].path;
        // A down path is a dead radio in both directions.
        if !self.path_up[path_idx] {
            return;
        }
        if let Verdict::Deliver { arrival } = self.paths[path_idx].rev.enqueue(now, ACK_WIRE_BYTES)
        {
            let payload = LinkPayload::Ack { conn: conn as u32, sub: sub as u16, ack };
            self.park_rev(arrival, path_idx, payload, q);
        }
    }

    fn on_delack(&mut self, now: Time, conn: ConnId, sub: SubId, q: &mut EventQueue<Event>) {
        if let Some(ack) = self.conns[conn].receiver.take_delayed_ack(sub) {
            self.send_ack(now, conn, sub, ack, q);
        }
    }

    fn on_ack(&mut self, now: Time, conn: ConnId, sub: SubId, ack: AckInfo, q: &mut EventQueue<Event>) {
        let sender = &mut self.conns[conn].sender;
        if let Some(seg) = sender.on_ack(now, sub, &ack) {
            let path_idx = sender.subflows[sub].path;
            if self.path_up[path_idx] {
                if let Verdict::Deliver { arrival } =
                    self.paths[path_idx].fwd.enqueue(now, wire_size(MSS))
                {
                    let payload =
                        LinkPayload::Data { conn: conn as u32, sub: sub as u16, seg };
                    Self::park_fwd(&mut self.fwd_inflight, arrival, path_idx, payload, q);
                }
            }
        }
        self.pump_send(now, conn, q);
        Self::arm_rto(&mut self.conns[conn].sender.subflows[sub], conn, sub, q);
    }

    fn on_rto(&mut self, now: Time, conn: ConnId, sub: SubId, q: &mut EventQueue<Event>) {
        let sf = &mut self.conns[conn].sender.subflows[sub];
        sf.rto_scheduled = false;
        if let Some(seg) = sf.on_rto_fire(now) {
            self.tel
                .emit(now.as_nanos(), EventKind::Rto { conn: conn as u32, path: sub as u16 });
            self.tel.incr(Counter::Rtos);
            if self.path_up[sf.path] {
                if let Verdict::Deliver { arrival } =
                    self.paths[sf.path].fwd.enqueue(now, wire_size(MSS))
                {
                    let payload =
                        LinkPayload::Data { conn: conn as u32, sub: sub as u16, seg };
                    Self::park_fwd(&mut self.fwd_inflight, arrival, sf.path, payload, q);
                }
            }
        }
        Self::arm_rto(sf, conn, sub, q);
    }

    /// Apply a compiled scenario event: rate and delay changes act on the
    /// links directly; liveness changes run the full subflow up/down
    /// machinery; loss swaps install the new model on the forward link.
    fn apply_control(&mut self, now: Time, ev: ControlEvent, q: &mut EventQueue<Event>) {
        match ev.action {
            Action::RateBps(bps) => {
                self.paths[ev.path].fwd.set_rate_bps(bps);
                self.tel.emit(
                    now.as_nanos(),
                    EventKind::RateChange {
                        path: ev.path as u16,
                        dir: LinkDir::Forward,
                        rate_bps: bps,
                    },
                );
                self.tel.incr(Counter::RateChanges);
            }
            Action::OneWayDelay(d) => {
                self.paths[ev.path].fwd.set_prop_delay(d);
                self.paths[ev.path].rev.set_prop_delay(d);
            }
            Action::PathUp(up) => self.on_path_state(now, ev.path, up, q),
            Action::Loss(model) => self.paths[ev.path].fwd.set_loss_model(model),
        }
    }

    fn on_path_state(&mut self, now: Time, path: usize, up: bool, q: &mut EventQueue<Event>) {
        self.path_up[path] = up;
        for c in 0..self.conns.len() {
            let mut on_path = false;
            for sub in 0..self.conns[c].sender.subflows.len() {
                if self.conns[c].sender.subflows[sub].path != path {
                    continue;
                }
                on_path = true;
                if up {
                    self.conns[c].sender.on_subflow_up(sub);
                    self.tel.emit(
                        now.as_nanos(),
                        EventKind::SubflowUp { conn: c as u32, path: sub as u16 },
                    );
                } else {
                    self.conns[c].sender.on_subflow_down(sub);
                    self.tel.emit(
                        now.as_nanos(),
                        EventKind::SubflowDown { conn: c as u32, path: sub as u16 },
                    );
                }
                self.tel.incr(Counter::SubflowTransitions);
            }
            // Reinjections (down) or fresh capacity (up) may unblock sends.
            // Connections with no subflow on this path are untouched — no
            // capacity of theirs changed, so they get no extra send poll.
            // (Sharded populations rely on this: a path event is then a
            // no-op for every unit not on the path, wherever it runs.)
            if on_path {
                self.pump_send(now, c, q);
            }
        }
    }

    fn record_samples(&mut self, now: Time) {
        let t = now.as_secs_f64();
        for (ci, cs) in self.conns.iter().enumerate() {
            for (si, sf) in cs.sender.subflows.iter().enumerate() {
                if let Some(series) = self.recorder.cwnd.get_mut(ci) {
                    series[si].push(t, f64::from(sf.cc.cwnd_pkts()));
                }
                if let Some(series) = self.recorder.sndbuf.get_mut(ci) {
                    let kb = f64::from(sf.inflight_count()) * f64::from(MSS) / 1024.0;
                    series[si].push(t, kb);
                }
            }
        }
    }
}

/// The complete model: world + application.
pub struct Sim<A: Application> {
    /// Simulation state.
    pub world: World,
    /// The workload driver.
    pub app: A,
}

impl<A: Application> Sim<A> {
    /// Hand a just-arrived link payload to the right protocol handler.
    fn dispatch(&mut self, now: Time, payload: LinkPayload, q: &mut EventQueue<Event>) {
        match payload {
            LinkPayload::Data { conn, sub, seg } => {
                let conn = conn as usize;
                self.world.on_data(now, conn, usize::from(sub), seg, q);
                if !self.world.completed_buf.is_empty() {
                    // on_data is never re-entered while the application runs
                    // (it is only called from this dispatcher), so taking
                    // the buffer is safe and keeps its capacity.
                    let completed = std::mem::take(&mut self.world.completed_buf);
                    for &req in &completed {
                        let mut api = Api { now, world: &mut self.world, queue: q };
                        self.app.on_response_complete(now, conn, req, &mut api);
                    }
                    self.world.completed_buf = completed;
                }
            }
            LinkPayload::Ack { conn, sub, ack } => {
                self.world.on_ack(now, conn as usize, usize::from(sub), ack, q);
            }
            LinkPayload::Request { conn, req, segs } => {
                self.world.on_request(now, conn as usize, req, segs, q);
            }
        }
    }
}

impl<A: Application> Model for Sim<A> {
    type Event = Event;

    fn handle(&mut self, now: Time, ev: Event, q: &mut EventQueue<Event>) {
        match ev {
            Event::AppStart => {
                let mut api = Api { now, world: &mut self.world, queue: q };
                self.app.on_start(now, &mut api);
            }
            Event::AppTimer { token } => {
                let mut api = Api { now, world: &mut self.world, queue: q };
                self.app.on_timer(now, token, &mut api);
            }
            Event::FwdDeliver { path } => {
                let p = path as usize;
                if let Some((payload, mut next)) = self.world.fwd_inflight[p].pop() {
                    self.dispatch(now, payload, q);
                    // Batched drain (see `simnet::delivery` docs): keep
                    // dispatching parked heads while the queue proves that
                    // nothing else — nor the run deadline — comes first.
                    // Each claim replaces a wakeup the unbatched engine
                    // would schedule and immediately pop, so order and
                    // event counts are bit-identical.
                    while let Some((at, s)) = next {
                        if !q.claim_dispatch(at, s) {
                            q.schedule_reserved(at, s, Event::FwdDeliver { path });
                            break;
                        }
                        let (payload, n) = self.world.fwd_inflight[p]
                            .pop()
                            .expect("claimed delivery vanished");
                        self.dispatch(at, payload, q);
                        next = n;
                    }
                }
            }
            Event::RevDeliver { path } => {
                let p = path as usize;
                if let Some((payload, mut next)) = self.world.rev_inflight[p].pop() {
                    self.dispatch(now, payload, q);
                    while let Some((at, s)) = next {
                        if !q.claim_dispatch(at, s) {
                            q.schedule_reserved(at, s, Event::RevDeliver { path });
                            break;
                        }
                        let (payload, n) = self.world.rev_inflight[p]
                            .pop()
                            .expect("claimed delivery vanished");
                        self.dispatch(at, payload, q);
                        next = n;
                    }
                }
            }
            Event::DelAck { conn, sub } => {
                self.world.on_delack(now, conn as usize, usize::from(sub), q);
            }
            Event::Rto { conn, sub } => {
                self.world.on_rto(now, conn as usize, usize::from(sub), q);
            }
            Event::Control { idx } => {
                let ev = self.world.controls[idx as usize];
                self.world.apply_control(now, ev, q);
                // Chain-schedule the successor instead of pre-loading every
                // control into the heap: compiled controls are time-sorted,
                // so this fires them in the same order while keeping the
                // heap at most one control deep (far-future controls would
                // otherwise tax every heap op for the whole run).
                let next = idx as usize + 1;
                if let Some(n) = self.world.controls.get(next) {
                    q.schedule(n.at, Event::Control { idx: next as u32 });
                }
            }
            Event::Sample => {
                self.world.record_samples(now);
                if self.world.sampling {
                    q.schedule(now + self.world.sample_every, Event::Sample);
                }
            }
        }
    }
}

/// A ready-to-run testbed: engine + model, with control events pre-scheduled.
pub struct Testbed<A: Application> {
    /// `None` only after [`Testbed::into_queue`] — every accessor may
    /// assume `Some` while the testbed is alive.
    engine: Option<Engine<Sim<A>>>,
}

impl<A: Application> Testbed<A> {
    /// Build the world from `cfg`, install `app`, and schedule the start
    /// event plus the compiled scenario's first control event (each
    /// control chain-schedules its successor when it fires).
    pub fn new(cfg: TestbedConfig, app: A) -> Self {
        Testbed::new_with_queue(cfg, app, EventQueue::new())
    }

    /// Like [`Testbed::new`], but recycling an event queue recovered from a
    /// previous run via [`Testbed::into_queue`]. The queue is reset but
    /// keeps its slab, so a shard worker running many short simulations
    /// pays the queue's growth cost once instead of per run.
    pub fn new_with_queue(mut cfg: TestbedConfig, app: A, queue: EventQueue<Event>) -> Self {
        let world = World::build(&mut cfg);
        let sampling = world.sampling;
        let first_control = world.controls.first().map(|e| e.at);
        let mut engine = Engine::with_queue(Sim { world, app }, queue);
        engine.queue_mut().schedule(Time::ZERO, Event::AppStart);
        if sampling {
            engine.queue_mut().schedule(Time::ZERO, Event::Sample);
        }
        if let Some(at) = first_control {
            engine.queue_mut().schedule(at, Event::Control { idx: 0 });
        }
        Testbed { engine: Some(engine) }
    }

    fn eng(&self) -> &Engine<Sim<A>> {
        self.engine.as_ref().expect("testbed engine taken")
    }

    fn eng_mut(&mut self) -> &mut Engine<Sim<A>> {
        self.engine.as_mut().expect("testbed engine taken")
    }

    /// Run until `deadline` (or the event queue drains).
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        self.engine.as_mut().expect("testbed engine taken").run_until(deadline)
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.eng().now()
    }

    /// Events processed so far (diagnostic).
    pub fn events_processed(&self) -> u64 {
        self.eng().processed()
    }

    /// A lower bound on the time of the next pending event (`None` when
    /// drained). Read-only — safe for a co-sim driver to poll between
    /// lockstep windows without perturbing engine state.
    pub fn next_event_time(&self) -> Option<Time> {
        self.eng().next_event_time()
    }

    /// Deliveries dispatched inline via batched claims so far (diagnostic;
    /// a subset of [`Testbed::events_processed`]).
    pub fn batched_deliveries(&self) -> u64 {
        self.eng().queue().batch_deliveries()
    }

    /// Read-only view of the event queue, for callers that read its
    /// diagnostics (cascades, fast-forward and batching totals) off a live
    /// testbed.
    pub fn queue(&self) -> &EventQueue<Event> {
        self.eng().queue()
    }

    /// The world (measurements, connections, paths).
    pub fn world(&self) -> &World {
        &self.eng().model.world
    }

    /// Mutable world access, for co-simulation drivers that re-shape
    /// links *between* lockstep windows (never during event dispatch —
    /// the engine is quiescent when this is called).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.eng_mut().model.world
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.eng().model.app
    }

    /// Mutable application access, for drivers that move results out of a
    /// finished run instead of cloning them.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.eng_mut().model.app
    }

    /// Tear the testbed down, recovering the event queue for a later
    /// [`Testbed::new_with_queue`]. Queue diagnostics are flushed to
    /// telemetry exactly as on drop.
    pub fn into_queue(mut self) -> EventQueue<Event> {
        let engine = self.engine.take().expect("testbed engine taken");
        flush_queue_stats(&engine);
        engine.into_queue()
    }
}

/// Flush the event-queue diagnostics (cascade count, peak depth,
/// fast-forward and batch-delivery totals) to the telemetry counters. Done
/// once at teardown like the connection decision counters: the queue keeps
/// plain fields on its hot path and the sink sees the totals when the run
/// is over.
fn flush_queue_stats<A: Application>(engine: &Engine<Sim<A>>) {
    let tel = &engine.model.world.tel;
    if !tel.is_enabled() {
        return;
    }
    let q = engine.queue();
    tel.add(Counter::QueueCascades, q.cascaded_total());
    tel.add(Counter::QueuePeakDepth, q.peak_len() as u64);
    tel.add(Counter::FfJumps, q.ff_jumps());
    tel.add(Counter::FfSkippedNs, q.ff_skipped_ns());
    tel.add(Counter::BatchDeliveries, q.batch_deliveries());
    tel.set_max(Counter::BatchMaxLen, q.batch_max_len());
}

impl<A: Application> Drop for Testbed<A> {
    fn drop(&mut self) {
        if let Some(engine) = &self.engine {
            flush_queue_stats(engine);
        }
    }
}
