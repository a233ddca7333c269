//! The multipath-QUIC testbed: [`Quic`], the second [`Transport`] under
//! the generic harness (`mptcp::harness`), which owns links, delivery
//! queues, scenario controls and the event loop exactly as for MPTCP.
//!
//! What differs is the transport: *one* connection multiplexes every
//! request as its own stream, the receiver reorders per-stream (no
//! cross-stream head-of-line blocking), and every ACK is immediate per
//! packet (QUIC-style, no delayed-ACK timer). Stream ids double as request
//! ids: receiver and sender stream state is opened from the request
//! metadata, keeping the wire format down to `(stream, chunk, pn)` triples.
//! Workloads implement [`TransportApp`]; results land in the same
//! [`mptcp::Recorder`] as MPTCP runs, one "connection" with a subflow per
//! path.

use ecf_core::SchedulerKind;
use mptcp::harness::{self, Api, Ctx, Net};
use mptcp::{
    segs_for_bytes, ConnId, Drive, Recorder, RecorderConfig, ReqId, Transport, TransportApp,
};
use scenario::Scenario;
use simnet::{PathConfig, Time};
use telemetry::{Counter, EventKind, TelemetryHandle};

use crate::connection::{QuicConfig, QuicConn, QuicTx};
use crate::receiver::{DeliveredChunk, QuicReceiver};

/// The one connection's id, in the recorder, telemetry and app callbacks.
const CONN: ConnId = 0;

/// Events of the quic testbed model.
pub type Event = harness::Event<Pto>;
/// A ready-to-run quic testbed.
pub type QuicTestbed<A> = harness::Testbed<Quic, A>;

/// The one protocol timer: a path's lazy probe timeout.
#[derive(Debug, Clone, Copy)]
pub struct Pto {
    path: u32,
}

/// One stream chunk parked on a forward link, headed for the client.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    stream: u32,
    chunk: u64,
    pn: u64,
}

/// A packet parked on a reverse link, headed for the server.
#[derive(Debug, Clone, Copy)]
pub enum Ctrl {
    /// A per-packet ACK.
    Ack { pn: u64, rwnd_free: u64 },
    /// A stream-open request.
    Request { req: ReqId, chunks: u64 },
}

/// Full testbed specification.
pub struct QuicTestbedConfig {
    /// The physical paths.
    pub paths: Vec<PathConfig>,
    /// Which scheduler places packets.
    pub scheduler: SchedulerKind,
    /// A custom scheduler instance overriding `scheduler`.
    pub custom_scheduler: Option<Box<dyn ecf_core::Scheduler + Send>>,
    /// Connection parameters.
    pub conn: QuicConfig,
    /// Seed for link jitter/loss.
    pub seed: u64,
    /// Explicit per-path RNG seeds overriding the [`simnet::path_seed`]
    /// derivation from `seed` (same contract as the MPTCP testbed).
    pub path_seeds: Option<Vec<u64>>,
    /// What to record.
    pub recorder: RecorderConfig,
    /// Network dynamics for the run.
    pub scenario: Scenario,
    /// Telemetry sink shared by every component.
    pub telemetry: TelemetryHandle,
}

impl QuicTestbedConfig {
    /// A two-path (WiFi + LTE) testbed, the common case.
    pub fn wifi_lte(wifi_mbps: f64, lte_mbps: f64, scheduler: SchedulerKind, seed: u64) -> Self {
        QuicTestbedConfig {
            paths: vec![PathConfig::wifi(wifi_mbps), PathConfig::lte(lte_mbps)],
            scheduler,
            custom_scheduler: None,
            conn: QuicConfig::default(),
            seed,
            path_seeds: None,
            recorder: RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: TelemetryHandle::off(),
        }
    }
}

/// The multipath-QUIC transport: the one connection's two endpoints.
pub struct Quic {
    /// The sender (server) side of the one connection.
    pub sender: QuicConn,
    /// The receiver (client) side.
    pub receiver: QuicReceiver,
    plan_buf: Vec<QuicTx>,
    delivered_buf: Vec<DeliveredChunk>,
}

impl<A: TransportApp> Drive<A> for Quic {
    fn start(app: &mut A, now: Time, api: &mut Api<'_, Self>) {
        app.on_start(now, api);
    }
    fn response_complete(app: &mut A, now: Time, c: ConnId, req: ReqId, api: &mut Api<'_, Self>) {
        app.on_response_complete(now, c, req, api);
    }
    fn timer(app: &mut A, now: Time, token: u64, api: &mut Api<'_, Self>) {
        app.on_timer(now, token, api);
    }
}

impl Quic {
    fn arm_pto(&mut self, path: usize, cx: &mut Ctx<'_, Self>) {
        let p = &mut self.sender.paths[path];
        if !p.rto_scheduled && p.rto_deadline != Time::MAX {
            p.rto_scheduled = true;
            cx.set_timer(p.rto_deadline, Pto { path: path as u32 });
        }
    }

    /// Run a send opportunity and put the resulting packets on the wire.
    fn pump_send(&mut self, cx: &mut Ctx<'_, Self>) {
        self.plan_buf.clear();
        self.sender.try_send_into(cx.now, &mut self.plan_buf);
        if !self.plan_buf.is_empty() {
            // Packets a down path swallows are recovered through the PTO
            // and pn-gap detection like any tail loss.
            for t in &self.plan_buf {
                cx.send_data(t.path, Data { stream: t.stream, chunk: t.chunk, pn: t.pn });
            }
            cx.tel.add(Counter::SegsSent, self.plan_buf.len() as u64);
        }
        for path in 0..self.sender.paths.len() {
            self.arm_pto(path, cx);
        }
    }

    fn on_ack(&mut self, path: usize, pn: u64, rwnd_free: u64, cx: &mut Ctx<'_, Self>) {
        if self.sender.on_ack(cx.now, path, pn, rwnd_free).fast_retx {
            let kind = EventKind::FastRetx { conn: CONN as u32, path: path as u16 };
            cx.tel.emit(cx.now.as_nanos(), kind);
        }
        self.pump_send(cx);
    }
}

impl Transport for Quic {
    type Config = QuicTestbedConfig;
    type Data = Data;
    type Ctrl = Ctrl;
    type Timer = Pto;

    fn build(cfg: QuicTestbedConfig) -> (Self, Net) {
        let handshake_rtts: Vec<std::time::Duration> =
            cfg.paths.iter().map(PathConfig::base_rtt).collect();
        let scheduler: Box<dyn ecf_core::Scheduler> = match cfg.custom_scheduler {
            Some(custom) => custom,
            None => cfg.scheduler.build(),
        };
        let mut sender = QuicConn::new(cfg.conn, scheduler, &handshake_rtts);
        sender.set_telemetry(cfg.telemetry.clone(), CONN as u32);
        let transport = Quic {
            sender,
            receiver: QuicReceiver::new(cfg.conn.rwnd_chunks),
            plan_buf: Vec::with_capacity(64),
            delivered_buf: Vec::with_capacity(64),
        };
        let net = Net {
            recorder: Recorder::new(cfg.recorder, &[cfg.paths.len()]),
            paths: cfg.paths,
            seed: cfg.seed,
            path_seeds: cfg.path_seeds,
            scenario: cfg.scenario,
            telemetry: cfg.telemetry,
        };
        (transport, net)
    }

    /// Open a new stream requesting `bytes`. `conn` is ignored: a QUIC
    /// client multiplexes everything onto the one connection, which is
    /// exactly the point of comparison with N-connection MPTCP workloads.
    fn issue_request(&mut self, _conn: ConnId, bytes: u64, cx: &mut Ctx<'_, Self>) -> ReqId {
        let chunks = segs_for_bytes(bytes);
        let n_paths = self.sender.paths.len();
        let req = cx.recorder.new_request(CONN, bytes, chunks, cx.now, n_paths);
        // The client computed the stream id; open receive state eagerly so
        // reassembly bounds are known before the first chunk lands.
        self.receiver.open_stream(req as u32, chunks);
        // Stream-opens ride path 0 if up, else any live path.
        cx.send_request(0, 0..n_paths, Ctrl::Request { req, chunks });
        req
    }

    fn on_data(&mut self, path: usize, Data { stream, chunk, pn }: Data, cx: &mut Ctx<'_, Self>) {
        let req = ReqId::from(stream);
        cx.recorder.note_arrival(req, path, cx.now);

        self.delivered_buf.clear();
        self.receiver.on_chunk(cx.now, stream, chunk, &mut self.delivered_buf);
        for d in &self.delivered_buf {
            cx.recorder.note_ooo(CONN, d.ooo_delay);
        }
        if self.receiver.stream_complete(stream)
            && cx.recorder.requests[req as usize].completed.is_none()
        {
            cx.complete(CONN, req);
        }
        // QUIC-style immediate per-packet ACK, back on the same path.
        cx.send_ack(path, Ctrl::Ack { pn, rwnd_free: self.receiver.rwnd_free() });
    }

    fn on_ctrl(&mut self, path: usize, ctrl: Ctrl, cx: &mut Ctx<'_, Self>) {
        match ctrl {
            Ctrl::Ack { pn, rwnd_free } => self.on_ack(path, pn, rwnd_free, cx),
            Ctrl::Request { req, chunks } => {
                cx.recorder.requests[req as usize].server_arrival = Some(cx.now);
                self.sender.open_stream(req as u32, chunks);
                self.pump_send(cx);
            }
        }
    }

    fn on_timer(&mut self, Pto { path }: Pto, cx: &mut Ctx<'_, Self>) {
        let path = path as usize;
        self.sender.paths[path].rto_scheduled = false;
        let deadline = self.sender.paths[path].rto_deadline;
        if deadline == Time::MAX {
            return; // nothing inflight anymore
        }
        if cx.now < deadline {
            // The deadline moved (acks arrived); re-arm lazily.
            self.arm_pto(path, cx);
            return;
        }
        if self.sender.on_pto(path) {
            let kind = EventKind::Rto { conn: CONN as u32, path: path as u16 };
            cx.tel.emit(cx.now.as_nanos(), kind);
        }
        self.pump_send(cx);
    }

    fn on_path_state(&mut self, path: usize, up: bool, cx: &mut Ctx<'_, Self>) {
        if up {
            self.sender.on_path_up(path);
        } else {
            self.sender.on_path_down(path);
        }
        cx.subflow_state(CONN, path, up);
        // Requeued chunks (down) or fresh capacity (up) may unblock sends.
        self.pump_send(cx);
    }

    fn all_drained(&self) -> bool {
        self.sender.all_acked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp::TransportApi;

    /// Download `sizes` as one stream each, all opened at t=0.
    struct Burst {
        sizes: Vec<u64>,
        done: usize,
        finished_at: Option<Time>,
    }

    impl Burst {
        fn new(sizes: Vec<u64>) -> Self {
            Burst { sizes, done: 0, finished_at: None }
        }
    }

    impl TransportApp for Burst {
        fn on_start(&mut self, _now: Time, api: &mut dyn TransportApi) {
            for &b in &self.sizes {
                api.request(0, b);
            }
        }
        fn on_response_complete(
            &mut self,
            now: Time,
            _conn: usize,
            _req: ReqId,
            _api: &mut dyn TransportApi,
        ) {
            self.done += 1;
            if self.done == self.sizes.len() {
                self.finished_at = Some(now);
            }
        }
    }

    #[test]
    fn one_request_completes_quickly() {
        let cfg = QuicTestbedConfig::wifi_lte(2.0, 8.0, SchedulerKind::Ecf, 1);
        let mut tb = QuicTestbed::new(cfg, Burst::new(vec![256 * 1024]));
        tb.run_until(Time::from_secs(30));
        assert_eq!(tb.app().done, 1);
        let req = &tb.world().recorder.requests[0];
        assert!(req.completion_time().unwrap().as_secs_f64() < 5.0);
        assert!(tb.world().all_drained());
    }

    #[test]
    fn many_streams_multiplex_on_one_connection() {
        let cfg = QuicTestbedConfig::wifi_lte(2.0, 8.0, SchedulerKind::Ecf, 7);
        let sizes: Vec<u64> = (0..40).map(|i| 8 * 1024 + 1024 * i).collect();
        let mut tb = QuicTestbed::new(cfg, Burst::new(sizes.clone()));
        tb.run_until(Time::from_secs(60));
        assert_eq!(tb.app().done, sizes.len());
        assert_eq!(tb.world().recorder.requests.len(), sizes.len());
        assert!(tb.world().all_drained());
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run = || {
            let cfg = QuicTestbedConfig::wifi_lte(0.5, 6.0, SchedulerKind::Ecf, 42);
            let sizes: Vec<u64> = (0..20).map(|i| 4 * 1024 + 3000 * i).collect();
            let mut tb = QuicTestbed::new(cfg, Burst::new(sizes));
            tb.run_until(Time::from_secs(60));
            let times: Vec<Option<Time>> =
                tb.world().recorder.requests.iter().map(|r| r.completed).collect();
            (tb.events_processed(), times, tb.app().finished_at)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn survives_a_path_outage() {
        let mut cfg = QuicTestbedConfig::wifi_lte(1.0, 8.0, SchedulerKind::Ecf, 3);
        cfg.scenario = Scenario::new().outage(1, Time::from_secs(1), Time::from_secs(4));
        let sizes: Vec<u64> = vec![2_000_000, 2_000_000];
        let mut tb = QuicTestbed::new(cfg, Burst::new(sizes));
        tb.run_until(Time::from_secs(120));
        assert_eq!(tb.app().done, 2, "streams must finish despite the outage");
    }

    #[test]
    #[should_panic(expected = "events[0]: \"path\" 7 is not one of the run's 2 paths")]
    fn a_scenario_path_outside_the_config_is_refused_before_the_run() {
        let mut cfg = QuicTestbedConfig::wifi_lte(1.0, 8.0, SchedulerKind::Ecf, 3);
        cfg.scenario = Scenario::new().outage(7, Time::from_secs(1), Time::from_secs(4));
        QuicTestbed::new(cfg, Burst::new(vec![1024]));
    }
}
