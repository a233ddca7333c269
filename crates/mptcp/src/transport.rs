//! The transport-facing seam between a multipath transport and the
//! scheduler machinery.
//!
//! Two transports consume the `ecf-core` schedulers: the MPTCP model in this
//! crate ([`crate::Connection`]) and the multipath-QUIC model in the `quic`
//! crate. Everything scheduler-adjacent that is *not* transport-specific
//! lives here so both share one implementation and one telemetry format:
//!
//! * [`SchedDriver`] — owns the scheduler instance, the reusable
//!   [`PathSnapshot`] buffer, and the `sched_decision` telemetry provenance
//!   (one event per decision, which also bumps the decision counters). A
//!   transport builds snapshots with [`SchedDriver::push_path`] and calls
//!   [`SchedDriver::decide`] once per segment/packet it wants to place; the
//!   emitted events are byte-identical across transports, so the exporters
//!   and figure tooling need no per-transport code.
//! * [`Transport`] / [`Drive`] — what a transport implements to run under
//!   the one generic testbed harness ([`crate::harness`]), which owns
//!   everything around it: links, delivery queues, scenario controls, the
//!   recorder, the event loop and queue recycling.
//! * [`TransportApi`] / [`TransportApp`] — the application byte-stream
//!   seam: a workload driver written against these traits (issue a request,
//!   arm a timer, react to completions) sees only the API handle, not the
//!   transport behind it.
//!
//! The extraction is value-neutral by construction: the MPTCP golden
//! digests (`experiments/tests/golden.rs`, the same constants the expmatrix
//! cache contract pins) are bit-identical before and after, which
//! `transport_refactor_guard` in the experiments crate asserts.

use ecf_core::{Decision, PathId, PathSnapshot, SchedInput, Scheduler, Why};
use simnet::Time;
use tcp_model::TcpCc;
use telemetry::{EventKind, PathObs, SchedDecision, TelemetryHandle, MAX_PATHS};

use crate::harness::{Api, Ctx, Net};
use crate::segment::{ConnId, ReqId};
use crate::trace::Recorder;

/// Scheduler invocation + decision provenance, shared by every transport.
///
/// Owns the pluggable [`Scheduler`] and the scratch snapshot buffer the
/// transport fills before each decision. Every decision goes through
/// [`Scheduler::select_explained`]; with telemetry enabled it is recorded
/// with its full inputs, which also counts it in the decision counters.
pub struct SchedDriver {
    /// The scheduler under evaluation.
    scheduler: Box<dyn Scheduler>,
    /// Scratch per-decision path snapshots. The transport rebuilds this
    /// when path state changed (ACKs, penalization, reinjection) and may
    /// update it in place for the one field a send moves (`inflight`).
    pub snap_buf: Vec<PathSnapshot>,
    tel: TelemetryHandle,
    tel_conn: u32,
}

impl SchedDriver {
    /// Wrap `scheduler` for a connection with `n_paths` paths.
    pub fn new(scheduler: Box<dyn Scheduler>, n_paths: usize) -> Self {
        SchedDriver {
            scheduler,
            snap_buf: Vec::with_capacity(n_paths),
            tel: TelemetryHandle::off(),
            tel_conn: 0,
        }
    }

    /// Attach a telemetry sink; decision events are stamped with connection
    /// index `conn`.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, conn: u32) {
        self.tel = tel;
        self.tel_conn = conn;
    }

    /// Append the next path's snapshot to [`SchedDriver::snap_buf`], its
    /// `id` the path's position: the sender's RTT and window from `cc`,
    /// plus what the transport knows beside it — packets in flight and
    /// whether the path is up.
    pub fn push_path(&mut self, cc: &TcpCc, inflight: u32, usable: bool) {
        self.snap_buf.push(PathSnapshot {
            id: PathId(self.snap_buf.len()),
            srtt: cc.rtt.srtt(),
            rtt_dev: cc.rtt.rttvar(),
            cwnd: cc.cwnd_pkts(),
            inflight,
            usable,
        });
    }

    /// Forward a connection-level send-window stall to the scheduler
    /// (BLEST adapts its scale factor on this).
    pub fn on_window_blocked(&mut self) {
        self.scheduler.on_window_blocked();
    }

    /// Run the scheduler over the current [`SchedDriver::snap_buf`] for one
    /// segment. With an enabled telemetry sink the decision is recorded
    /// with full inputs and provenance; a silent run drops the provenance
    /// behind one predictable branch.
    pub fn decide(&mut self, now: Time, queued_pkts: u64, send_window_free_pkts: u64) -> Decision {
        let input = SchedInput { paths: &self.snap_buf, queued_pkts, send_window_free_pkts };
        let (d, why) = self.scheduler.select_explained(&input);
        self.emit_decision(now, d, why, queued_pkts, send_window_free_pkts);
        d
    }

    /// Record one scheduler verdict with its full inputs (from `snap_buf`)
    /// and provenance; a no-op when the sink is disabled. Hot when it is
    /// enabled — one event per decision — so it stays inline-friendly and
    /// sticks to u64 arithmetic (no `Duration::as_micros` u128 division).
    fn emit_decision(&self, now: Time, decision: Decision, why: Why, k: u64, swnd_free: u64) {
        self.tel.emit_with(|| {
            let micros = |d: std::time::Duration| {
                u32::try_from(d.as_secs() * 1_000_000 + u64::from(d.subsec_micros()))
                    .unwrap_or(u32::MAX)
            };
            let sat32 = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            let mut paths = [PathObs::default(); MAX_PATHS];
            let n = self.snap_buf.len().min(MAX_PATHS);
            for (obs, s) in paths.iter_mut().zip(self.snap_buf.iter()) {
                *obs = PathObs {
                    path: s.id.0 as u16,
                    usable: s.usable,
                    srtt_us: micros(s.srtt),
                    rttvar_us: micros(s.rtt_dev),
                    cwnd: s.cwnd,
                    inflight: s.inflight,
                    queue_bytes: 0,
                };
            }
            telemetry::Event {
                t_ns: now.as_nanos(),
                kind: EventKind::SchedDecision(SchedDecision {
                    conn: self.tel_conn,
                    scheduler: self.scheduler.name(),
                    decision,
                    why,
                    queued_pkts: sat32(k),
                    send_window_free_pkts: sat32(swnd_free),
                    n_paths: n as u8,
                    paths,
                }),
            }
        });
    }
}

/// A multipath transport under the testbed harness ([`crate::harness`]):
/// the protocol state of every connection plus the handlers the harness
/// calls, each with a [`Ctx`] through which packets are put on the wire and
/// timers armed.
///
/// **Call-order rule.** Every `Ctx::send_*` that reaches a link and every
/// `Ctx::set_timer` takes the next event sequence number; `(time, seq)` is
/// the engine's total order and feeds every golden digest. Reordering those
/// calls within a handler is a behaviour change, not a refactor.
pub trait Transport: Sized {
    /// The flat testbed configuration this transport is built from.
    type Config;
    /// A packet parked on a forward link: server → client data. Every data
    /// packet in flight is one slot of a forward delivery queue, so this is
    /// kept apart from (and no wider than) what the reverse links carry.
    type Data: Copy;
    /// A packet parked on a reverse link: client → server ACKs and requests.
    type Ctrl: Copy;
    /// A protocol timer (RTO, delayed ACK, PTO) riding the event wheel.
    type Timer: Copy;

    /// Build the protocol state from `cfg`, handing back the part of the
    /// configuration the harness owns.
    fn build(cfg: Self::Config) -> (Self, Net);
    /// The client application asks for `bytes` on connection `conn`:
    /// record the request and send it through [`Ctx::send_request`].
    fn issue_request(&mut self, conn: ConnId, bytes: u64, cx: &mut Ctx<'_, Self>) -> ReqId;
    /// `data` came off `path`'s forward link, at the client, at `cx.now`.
    fn on_data(&mut self, path: usize, data: Self::Data, cx: &mut Ctx<'_, Self>);
    /// `ctrl` came off `path`'s reverse link, at the server, at `cx.now`.
    fn on_ctrl(&mut self, path: usize, ctrl: Self::Ctrl, cx: &mut Ctx<'_, Self>);
    /// `timer` fired at `cx.now`.
    fn on_timer(&mut self, timer: Self::Timer, cx: &mut Ctx<'_, Self>);
    /// `path` went up or down (`cx` already knows): run the subflow
    /// machinery, reporting each affected subflow to [`Ctx::subflow_state`].
    fn on_path_state(&mut self, path: usize, up: bool, cx: &mut Ctx<'_, Self>);
    /// True when everything written has been delivered and acknowledged.
    fn all_drained(&self) -> bool;
    /// Periodic tick, scheduled when the recorder wants cwnd/sndbuf traces.
    fn sample(&self, _now: Time, _recorder: &mut Recorder) {}
}

/// Bridges a crate's own application trait to the harness: implemented
/// once per transport, for every `A` implementing that trait.
pub trait Drive<A>: Transport {
    /// Deliver the t=0 start callback.
    fn start(app: &mut A, now: Time, api: &mut Api<'_, Self>);
    /// Deliver a response-complete callback.
    fn response_complete(app: &mut A, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_, Self>);
    /// Deliver an application-timer callback.
    fn timer(app: &mut A, now: Time, token: u64, api: &mut Api<'_, Self>);
}

/// What a workload driver may ask of any multipath transport testbed:
/// issue an application request and arm a timer. The harness's [`Api`]
/// implements this for every transport.
pub trait TransportApi {
    /// Issue a request for `bytes` of response payload on connection
    /// `conn`. On MPTCP this is an HTTP GET on one of several connections;
    /// on QUIC it opens a new stream on the (single) connection.
    fn request(&mut self, conn: ConnId, bytes: u64) -> ReqId;
    /// Arrange for the application's timer callback to fire at `at`.
    fn set_timer(&mut self, at: Time, token: u64);
}

/// A transport-agnostic workload driver: [`crate::Application`] generalized
/// over the API handle. The quic testbed drives these; MPTCP workloads
/// implement [`crate::Application`].
pub trait TransportApp {
    /// Called once at t=0.
    fn on_start(&mut self, now: Time, api: &mut dyn TransportApi);
    /// The full response to `req` has been delivered in order.
    fn on_response_complete(
        &mut self,
        now: Time,
        conn: ConnId,
        req: ReqId,
        api: &mut dyn TransportApi,
    );
    /// A timer armed through [`TransportApi::set_timer`] fired.
    fn on_timer(&mut self, _now: Time, _token: u64, _api: &mut dyn TransportApi) {}
}

impl<T: Transport> TransportApi for Api<'_, T> {
    fn request(&mut self, conn: ConnId, bytes: u64) -> ReqId {
        Api::request(self, conn, bytes)
    }
    fn set_timer(&mut self, at: Time, token: u64) {
        Api::set_timer(self, at, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;
    use std::time::Duration;
    use telemetry::Counter;

    fn snap(id: usize, srtt_ms: u64, cwnd: u32, inflight: u32) -> PathSnapshot {
        PathSnapshot {
            id: PathId(id),
            srtt: Duration::from_millis(srtt_ms),
            rtt_dev: Duration::ZERO,
            cwnd,
            inflight,
            usable: true,
        }
    }

    #[test]
    fn decide_matches_bare_scheduler() {
        let mut driver = SchedDriver::new(SchedulerKind::Default.build(), 2);
        driver.snap_buf = vec![snap(0, 20, 10, 0), snap(1, 100, 10, 0)];
        let mut bare = SchedulerKind::Default.build();
        let paths = driver.snap_buf.clone();
        let want =
            bare.select(&SchedInput { paths: &paths, queued_pkts: 5, send_window_free_pkts: 100 });
        assert_eq!(driver.decide(Time::ZERO, 5, 100), want);
    }

    #[test]
    fn telemetry_records_decisions_with_their_inputs() {
        let tel = TelemetryHandle::with_capacity(16);
        let mut driver = SchedDriver::new(SchedulerKind::Ecf.build(), 2);
        driver.set_telemetry(tel.clone(), 3);
        driver.snap_buf = vec![snap(0, 20, 10, 0), snap(1, 100, 10, 0)];
        driver.snap_buf[1].inflight = 7;
        let d = driver.decide(Time::from_millis(5), 10, 1000);
        assert!(matches!(d, Decision::Send(_)));
        let events = tel.events();
        assert_eq!(events.len(), 1);
        match events[0].kind {
            EventKind::SchedDecision(sd) => {
                assert_eq!(sd.conn, 3);
                assert_eq!(sd.scheduler, "ecf");
                assert_eq!(sd.n_paths, 2);
                assert_eq!(sd.paths[1].inflight, 7);
            }
            _ => panic!("expected a sched_decision event"),
        }
        assert_eq!(tel.counter(Counter::Decisions), 1);
    }
}
