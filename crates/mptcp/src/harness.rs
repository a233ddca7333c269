//! The testbed harness: everything around a multipath transport that is
//! not the transport. It wires [`simnet`] paths, a [`Transport`] and a
//! workload application into one discrete-event model — the paper's lab of
//! server, mobile client and `tc`-shaped WiFi + LTE paths.
//!
//! Data flows server → client on each path's shaped `fwd` link; requests
//! and ACKs ride the unshaped `rev` link. Per-packet payloads wait in
//! per-link [`DeliveryQueue`]s — the transport's [`Transport::Data`] on
//! forward links, its [`Transport::Ctrl`] on reverse ones — and the event
//! wheel carries one wakeup per link direction (DESIGN.md, "Event
//! coalescing on FIFO links"). The
//! harness owns paths, liveness, both queue sets, the compiled scenario,
//! the recorder and the telemetry flush; a transport sees them only through
//! the split-borrowed [`Ctx`], so it can keep its own connection state
//! borrowed across a whole handler.

use std::ops::Deref;

use scenario::{Action, ControlEvent, Scenario};
use simnet::{
    DeliveryQueue, Engine, EventQueue, Model, Path, PathConfig, RunOutcome, Time, Verdict,
};
use tcp_model::{wire_size, MSS};
use telemetry::{Counter, EventKind, LinkDir, TelemetryHandle};

use crate::segment::{ConnId, ReqId, SubId};
use crate::trace::Recorder;
use crate::transport::{Drive, Transport};

/// Wire size of a request (HTTP GET / stream open, single packet).
const REQUEST_WIRE_BYTES: u32 = 300;
/// Wire size of a pure ACK.
const ACK_WIRE_BYTES: u32 = 72;

/// The event queue of a testbed over transport `T`.
type Queue<T> = EventQueue<Event<<T as Transport>::Timer>>;

/// Events of the testbed model, generic over the transport's timer type.
///
/// Deliberately slim (16 bytes for both in-tree transports, pinned by
/// test): each pending event is one slab node of the engine's calendar
/// wheel (`simnet::wheel`), so its width is the wheel's footprint per
/// pending event. Packets do not ride the wheel at all — only the
/// one-per-link-direction `FwdDeliver`/`RevDeliver` wakeups do.
#[derive(Debug, Clone, Copy)]
pub enum Event<Tm> {
    /// Kick the application's start callback at t=0.
    AppStart,
    /// The head of `path`'s forward (data) delivery queue reaches the client.
    FwdDeliver {
        /// Path index.
        path: u32,
    },
    /// The head of `path`'s reverse (ACK/request) queue reaches the server.
    RevDeliver {
        /// Path index.
        path: u32,
    },
    /// A transport timer fires.
    Timer(Tm),
    /// An application timer fires.
    AppTimer {
        /// Opaque token the application chose.
        token: u64,
    },
    /// A scenario control fires: `idx` indexes the compiled table held in
    /// [`World`], which keeps this variant slim even for fat actions (a
    /// Gilbert–Elliott loss model is four `f64`s).
    Control {
        /// Index into the compiled controls.
        idx: u32,
    },
    /// Periodic trace sampling tick.
    Sample,
}

/// The harness-owned part of a testbed configuration, split off the
/// transport's flat config by [`Transport::build`].
pub struct Net {
    /// The physical paths.
    pub paths: Vec<PathConfig>,
    /// Seed for link jitter/loss; path `i` seeds with [`simnet::path_seed`].
    pub seed: u64,
    /// Explicit per-path seeds overriding the derivation from `seed`.
    pub path_seeds: Option<Vec<u64>>,
    /// The recorder, sized for the transport's connections and subflows.
    pub recorder: Recorder,
    /// Network dynamics for the run.
    pub scenario: Scenario,
    /// Sink for harness-level events (rates, path state, queue totals).
    pub telemetry: TelemetryHandle,
}

/// Mutable simulation state: the network, the measurements and the
/// transport. Derefs to the transport, so `world.sender(c)` (MPTCP) and
/// `world.sender` (QUIC) both read naturally.
pub struct World<T: Transport> {
    /// Live paths, indexed as in the config.
    pub paths: Vec<Path>,
    /// Collected measurements.
    pub recorder: Recorder,
    transport: T,
    /// Per-path liveness (down paths drop everything offered to them).
    path_up: Vec<bool>,
    /// In-flight packets per path and direction, head-scheduled.
    fwd: Vec<DeliveryQueue<T::Data>>,
    rev: Vec<DeliveryQueue<T::Ctrl>>,
    /// Compiled scenario events, indexed by [`Event::Control`].
    controls: Vec<ControlEvent>,
    /// Requests completed by the payload being dispatched.
    completed: Vec<(ConnId, ReqId)>,
    tel: TelemetryHandle,
}

impl<T: Transport> Deref for World<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.transport
    }
}

impl<T: Transport> World<T> {
    fn build(cfg: T::Config) -> Self {
        let (transport, net) = T::build(cfg);
        if let Err(e) = net.scenario.check_paths(net.paths.len()) {
            panic!("{e}");
        }
        if let Some(seeds) = &net.path_seeds {
            assert_eq!(seeds.len(), net.paths.len(), "one seed per path");
        }
        let paths: Vec<Path> = net
            .paths
            .iter()
            .enumerate()
            .map(|(i, pc)| {
                let seed = match &net.path_seeds {
                    Some(seeds) => seeds[i],
                    None => simnet::path_seed(net.seed, i),
                };
                let mut p = Path::new(pc, seed);
                p.attach_telemetry(&net.telemetry, i as u16);
                p
            })
            .collect();
        let n = paths.len();
        World {
            paths,
            recorder: net.recorder,
            transport,
            path_up: vec![true; n],
            fwd: (0..n).map(|_| DeliveryQueue::new()).collect(),
            rev: (0..n).map(|_| DeliveryQueue::new()).collect(),
            controls: net.scenario.compile(),
            completed: Vec::with_capacity(8),
            tel: net.telemetry,
        }
    }

    /// The transport, for upkeep between runs (buffer release).
    pub(crate) fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Give back path `path`'s spare queue capacity — both links' departure
    /// FIFOs and both delivery queues — keeping every queued entry, at
    /// simulated time `now` (no later than any pending event).
    pub(crate) fn release_path(&mut self, path: usize, now: Time) {
        self.paths[path].release_buffers(now);
        self.fwd[path].shrink_to_fit();
        self.rev[path].shrink_to_fit();
    }

    /// Split into the transport and the context its handlers work through.
    fn split<'a>(&'a mut self, now: Time, q: &'a mut Queue<T>) -> (&'a mut T, Ctx<'a, T>) {
        let cx = Ctx {
            now,
            recorder: &mut self.recorder,
            tel: &self.tel,
            paths: &mut self.paths,
            path_up: &self.path_up,
            fwd: &mut self.fwd,
            rev: &mut self.rev,
            completed: &mut self.completed,
            q,
        };
        (&mut self.transport, cx)
    }

    /// Apply a compiled scenario event: rate and delay changes act on the
    /// links directly, liveness changes run the transport's subflow
    /// machinery, loss swaps install the new model on the forward link.
    fn apply_control(&mut self, now: Time, ev: ControlEvent, q: &mut Queue<T>) {
        let path = &mut self.paths[ev.path];
        match ev.action {
            Action::RateBps(bps) => {
                path.fwd.set_rate_bps(bps);
                self.tel.emit(
                    now.as_nanos(),
                    EventKind::RateChange {
                        path: ev.path as u16,
                        dir: LinkDir::Forward,
                        rate_bps: bps,
                    },
                );
            }
            Action::OneWayDelay(d) => {
                path.fwd.set_prop_delay(d);
                path.rev.set_prop_delay(d);
            }
            Action::PathUp(up) => {
                self.path_up[ev.path] = up;
                let (transport, mut cx) = self.split(now, q);
                transport.on_path_state(ev.path, up, &mut cx);
            }
            Action::Loss(model) => path.fwd.set_loss_model(model),
        }
    }
}

/// What a transport handler sees of the world around it: the clock, the
/// recorder, the telemetry sink, and the links — the latter only through
/// methods, each of which performs its queue operations in a fixed order
/// (see the call-order rule on [`Transport`]).
pub struct Ctx<'a, T: Transport> {
    /// Time of the event being handled.
    pub now: Time,
    /// Collected measurements.
    pub recorder: &'a mut Recorder,
    /// Telemetry sink for transport-level events (RTOs, retransmits).
    pub tel: &'a TelemetryHandle,
    paths: &'a mut [Path],
    path_up: &'a [bool],
    fwd: &'a mut [DeliveryQueue<T::Data>],
    rev: &'a mut [DeliveryQueue<T::Ctrl>],
    completed: &'a mut Vec<(ConnId, ReqId)>,
    q: &'a mut Queue<T>,
}

/// Park a delivery on its link's queue and, when the link was idle,
/// schedule its wakeup under the seq reserved for this packet.
fn park<P, Tm>(
    inflight: &mut DeliveryQueue<P>,
    q: &mut EventQueue<Event<Tm>>,
    arrival: Time,
    payload: P,
    wakeup: Event<Tm>,
) {
    let seq = q.reserve_seq();
    if let Some((at, s)) = inflight.push(arrival, seq, payload) {
        q.schedule_reserved(at, s, wakeup);
    }
}

impl<T: Transport> Ctx<'_, T> {
    /// Put one full-sized data packet on `path`'s forward link. A down path
    /// swallows everything (radio gone) and a full queue drops; recovery is
    /// the transport's loss machinery either way.
    pub fn send_data(&mut self, path: usize, payload: T::Data) {
        if !self.path_up[path] {
            return;
        }
        let verdict = self.paths[path].fwd.enqueue(self.now, wire_size(MSS));
        if let Verdict::Deliver { arrival } = verdict {
            let wakeup = Event::FwdDeliver { path: path as u32 };
            park(&mut self.fwd[path], self.q, arrival, payload, wakeup);
        }
    }

    /// Put one ACK on `path`'s reverse link (a down path is a dead radio in
    /// both directions).
    pub fn send_ack(&mut self, path: usize, payload: T::Ctrl) {
        if !self.path_up[path] {
            return;
        }
        let verdict = self.paths[path].rev.enqueue(self.now, ACK_WIRE_BYTES);
        if let Verdict::Deliver { arrival } = verdict {
            let wakeup = Event::RevDeliver { path: path as u32 };
            park(&mut self.rev[path], self.q, arrival, payload, wakeup);
        }
    }

    /// Send a request on `primary` if it is up, else on the first live path
    /// of `own` — the issuing connection's own paths: a real client retries
    /// over its own surviving interface, never over another host's radio.
    /// (Sharded populations rely on the conn-local scan: a whole-world scan
    /// would pick a foreign unit's path in the monolith and break partition
    /// invariance the moment an outage fires.) In a total blackout the
    /// request is lost; the application stalls until it retries.
    pub fn send_request(
        &mut self,
        primary: usize,
        mut own: impl Iterator<Item = usize>,
        payload: T::Ctrl,
    ) {
        let path = if self.path_up[primary] {
            primary
        } else {
            match own.find(|&p| self.path_up[p]) {
                Some(p) => p,
                None => return,
            }
        };
        let rev = &mut self.paths[path].rev;
        let arrival = match rev.enqueue(self.now, REQUEST_WIRE_BYTES) {
            Verdict::Deliver { arrival } => arrival,
            // The reverse link is engineered lossless, but stay robust.
            _ => self.now + rev.prop_delay(),
        };
        let wakeup = Event::RevDeliver { path: path as u32 };
        park(&mut self.rev[path], self.q, arrival, payload, wakeup);
    }

    /// Arrange for [`Transport::on_timer`] to see `timer` at `at`.
    pub fn set_timer(&mut self, at: Time, timer: T::Timer) {
        self.q.schedule(at, Event::Timer(timer));
    }

    /// The cross-layer sample: `path`'s droptail backlog in bytes (0 when
    /// down). `Link::queued_bytes` expires the queue at `now` first — a
    /// mutation the next enqueue would perform anyway, so sampling cannot
    /// change link behavior (the golden digests pin this).
    pub fn fwd_backlog(&mut self, path: usize) -> u64 {
        if self.path_up[path] {
            self.paths[path].fwd.queued_bytes(self.now)
        } else {
            0
        }
    }

    /// Mark `req` on `conn` complete; the application hears of it when the
    /// current handler returns.
    pub fn complete(&mut self, conn: ConnId, req: ReqId) {
        self.recorder.requests[req as usize].completed = Some(self.now);
        self.completed.push((conn, req));
    }

    /// Report that subflow `sub` of `conn` followed its path up or down.
    pub fn subflow_state(&mut self, conn: ConnId, sub: SubId, up: bool) {
        let (conn, path) = (conn as u32, sub as u16);
        let kind = if up {
            EventKind::SubflowUp { conn, path }
        } else {
            EventKind::SubflowDown { conn, path }
        };
        self.tel.emit(self.now.as_nanos(), kind);
    }
}

/// The application's handle into the running world.
pub struct Api<'a, T: Transport> {
    /// Current simulation time.
    pub now: Time,
    world: &'a mut World<T>,
    queue: &'a mut Queue<T>,
}

impl<T: Transport> Api<'_, T> {
    /// Issue a request for `bytes` of response payload on `conn`.
    pub fn request(&mut self, conn: ConnId, bytes: u64) -> ReqId {
        let (transport, mut cx) = self.world.split(self.now, self.queue);
        transport.issue_request(conn, bytes, &mut cx)
    }

    /// Arrange for the application's timer callback to fire at `at`.
    pub fn set_timer(&mut self, at: Time, token: u64) {
        self.queue.schedule(at, Event::AppTimer { token });
    }

    /// Read-only world access (counters, receiver state...).
    pub fn world(&self) -> &World<T> {
        self.world
    }
}

/// The complete model: world + application.
struct Sim<T: Transport, A> {
    world: World<T>,
    app: A,
}

impl<T: Drive<A>, A> Sim<T, A> {
    /// Hand a just-arrived payload to the transport through `on` (its data
    /// or its control handler), then tell the application about every
    /// request it completed.
    fn dispatch<P>(
        &mut self,
        now: Time,
        path: usize,
        payload: P,
        q: &mut Queue<T>,
        on: impl Fn(&mut T, usize, P, &mut Ctx<'_, T>),
    ) {
        let (transport, mut cx) = self.world.split(now, q);
        on(transport, path, payload, &mut cx);
        if !self.world.completed.is_empty() {
            // Payload handlers are never re-entered while the application
            // runs, so taking the buffer is safe and keeps its capacity.
            let mut completed = std::mem::take(&mut self.world.completed);
            for &(conn, req) in &completed {
                let mut api = Api { now, world: &mut self.world, queue: q };
                T::response_complete(&mut self.app, now, conn, req, &mut api);
            }
            completed.clear();
            self.world.completed = completed;
        }
    }

    /// A link-direction wakeup: dispatch the head of the queue `pop` takes
    /// from, then keep dispatching parked heads while the event queue proves
    /// that nothing else — nor the run deadline — comes first (see
    /// `simnet::delivery`); `wakeup` re-arms the direction when it cannot.
    /// Each claim replaces a wakeup the unbatched engine would schedule and
    /// immediately pop, so order and event counts are bit-identical.
    fn deliver<P>(
        &mut self,
        now: Time,
        path: u32,
        q: &mut Queue<T>,
        wakeup: Event<T::Timer>,
        pop: impl Fn(&mut World<T>) -> Option<(P, Option<(Time, u64)>)>,
        on: impl Fn(&mut T, usize, P, &mut Ctx<'_, T>) + Copy,
    ) {
        let p = path as usize;
        let Some((payload, mut next)) = pop(&mut self.world) else { return };
        self.dispatch(now, p, payload, q, on);
        while let Some((at, s)) = next {
            if !q.claim_dispatch(at, s) {
                q.schedule_reserved(at, s, wakeup);
                break;
            }
            let (payload, n) = pop(&mut self.world).expect("claimed delivery vanished");
            self.dispatch(at, p, payload, q, on);
            next = n;
        }
    }
}

impl<T: Drive<A>, A> Model for Sim<T, A> {
    type Event = Event<T::Timer>;

    fn handle(&mut self, now: Time, ev: Self::Event, q: &mut EventQueue<Self::Event>) {
        match ev {
            Event::AppStart => {
                let mut api = Api { now, world: &mut self.world, queue: q };
                T::start(&mut self.app, now, &mut api);
            }
            Event::AppTimer { token } => {
                let mut api = Api { now, world: &mut self.world, queue: q };
                T::timer(&mut self.app, now, token, &mut api);
            }
            Event::FwdDeliver { path } => {
                let pop = |w: &mut World<T>| w.fwd[path as usize].pop();
                self.deliver(now, path, q, ev, pop, T::on_data);
            }
            Event::RevDeliver { path } => {
                let pop = |w: &mut World<T>| w.rev[path as usize].pop();
                self.deliver(now, path, q, ev, pop, T::on_ctrl);
            }
            Event::Timer(timer) => {
                let (transport, mut cx) = self.world.split(now, q);
                transport.on_timer(timer, &mut cx);
            }
            Event::Control { idx } => {
                let ev = self.world.controls[idx as usize];
                self.world.apply_control(now, ev, q);
                // Chain-schedule the successor instead of pre-loading every
                // control: compiled controls are time-sorted, so this fires
                // them in the same order while keeping the wheel at most
                // one control deep.
                let next = idx as usize + 1;
                if let Some(n) = self.world.controls.get(next) {
                    q.schedule(n.at, Event::Control { idx: next as u32 });
                }
            }
            Event::Sample => {
                let world = &mut self.world;
                world.transport.sample(now, &mut world.recorder);
                q.schedule(now + crate::trace::SAMPLE_EVERY, Event::Sample);
            }
        }
    }
}

/// A ready-to-run testbed: engine + model, with control events pre-scheduled.
pub struct Testbed<T: Drive<A>, A> {
    /// `None` only after [`Testbed::into_queue`] — every accessor may
    /// assume `Some` while the testbed is alive.
    engine: Option<Engine<Sim<T, A>>>,
}

impl<T: Drive<A>, A> Testbed<T, A> {
    /// Build the world from `cfg`, install `app`, and schedule the start
    /// event plus the compiled scenario's first control event (each
    /// control chain-schedules its successor when it fires).
    ///
    /// Panics, with [`scenario::Scenario::check_paths`]'s message, before
    /// anything is scheduled when the scenario names a path the
    /// configuration does not have.
    pub fn new(cfg: T::Config, app: A) -> Self {
        Testbed::new_with_queue(cfg, app, EventQueue::new())
    }

    /// Like [`Testbed::new`], but recycling an event queue recovered from a
    /// previous run via [`Testbed::into_queue`]. The queue is reset but
    /// keeps its slab, so a shard worker running many short simulations
    /// pays the queue's growth cost once instead of per run.
    pub fn new_with_queue(cfg: T::Config, app: A, queue: Queue<T>) -> Self {
        let world = World::build(cfg);
        let traces = world.recorder.cfg.cwnd_traces || world.recorder.cfg.sndbuf_traces;
        let first_control = world.controls.first().map(|e| e.at);
        let mut engine = Engine::with_queue(Sim { world, app }, queue);
        engine.queue_mut().schedule(Time::ZERO, Event::AppStart);
        if traces {
            engine.queue_mut().schedule(Time::ZERO, Event::Sample);
        }
        if let Some(at) = first_control {
            engine.queue_mut().schedule(at, Event::Control { idx: 0 });
        }
        Testbed { engine: Some(engine) }
    }

    fn eng(&self) -> &Engine<Sim<T, A>> {
        self.engine.as_ref().expect("testbed engine taken")
    }

    fn eng_mut(&mut self) -> &mut Engine<Sim<T, A>> {
        self.engine.as_mut().expect("testbed engine taken")
    }

    /// Run until `deadline` (or the event queue drains).
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        self.eng_mut().run_until(deadline)
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

    /// Read-only view of the event queue, for callers that read its
    /// diagnostics (cascades, fast-forward and batching totals) off a live
    /// testbed.
    pub fn queue(&self) -> &Queue<T> {
        self.eng().queue()
    }

    /// The world (measurements, transport, paths).
    pub fn world(&self) -> &World<T> {
        &self.eng().model.world
    }

    /// Mutable world access, for co-simulation drivers that re-shape
    /// links *between* lockstep windows (never during event dispatch —
    /// the engine is quiescent when this is called), and for drivers that
    /// move results out of the recorder of a finished run.
    pub fn world_mut(&mut self) -> &mut World<T> {
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
    pub fn into_queue(mut self) -> Queue<T> {
        let engine = self.engine.take().expect("testbed engine taken");
        flush_queue_stats(&engine.model.world.tel, engine.queue());
        engine.into_queue()
    }
}

/// Flush an event queue's diagnostics to the telemetry counters: cascades,
/// fast-forward and batch-delivery totals summed, peak depth and longest
/// batch as high-water marks. Done once at teardown — the queue keeps plain
/// fields on its hot path. A sweep calls this per recovered shard queue on
/// its own handle (the shards' handles are off: their ids are shard-local).
pub fn flush_queue_stats<E>(tel: &TelemetryHandle, q: &EventQueue<E>) {
    if !tel.is_enabled() {
        return;
    }
    tel.add(Counter::QueueCascades, q.cascaded_total());
    tel.set_max(Counter::QueuePeakDepth, q.peak_len() as u64);
    tel.add(Counter::FfJumps, q.ff_jumps());
    tel.add(Counter::FfSkippedNs, q.ff_skipped_ns());
    tel.add(Counter::BatchDeliveries, q.batch_deliveries());
    tel.set_max(Counter::BatchMaxLen, q.batch_max_len());
}

impl<T: Drive<A>, A> Drop for Testbed<T, A> {
    fn drop(&mut self) {
        if let Some(engine) = &self.engine {
            flush_queue_stats(&engine.model.world.tel, engine.queue());
        }
    }
}
