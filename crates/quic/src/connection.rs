//! Sender-side multipath-QUIC connection: per-path packet-number spaces
//! with their own TCP-style congestion controllers, per-stream send queues,
//! and stream-aware retransmission — all placed packet-by-packet by a
//! pluggable [`ecf_core::Scheduler`] through the shared
//! [`mptcp::SchedDriver`] seam.
//!
//! Differences to the MPTCP sender (`mptcp::Connection`) that matter for
//! the scheduling story:
//!
//! * There is no connection-level data sequence. Each path numbers its own
//!   packets (monotonic `pn`, never reused), and each stream tracks which
//!   of its chunks are unsent or need retransmission. A retransmitted chunk
//!   goes back through the scheduler and may ride a *different* path —
//!   QUIC's stream-aware retransmission, vs MPTCP's same-subflow fast
//!   retransmit + reinjection machinery.
//! * Loss detection is by packet-number gap: paths are FIFO links, so an
//!   ACK for `pn` proves every unacked packet with a smaller number on that
//!   path was dropped. One congestion response covers a whole loss episode
//!   (NewReno-style: losses with `pn` below the episode's recovery point
//!   don't trigger another window cut).
//! * Congestion control is uncoupled per path (plain Reno per packet-number
//!   space): QUIC paths do not share a window the way LIA/OLIA couple
//!   MPTCP subflows.

use std::collections::VecDeque;

use ecf_core::{Decision, PathId, Scheduler};
use mptcp::SchedDriver;
use simnet::Time;
use tcp_model::{TcpCc, TcpConfig};
use telemetry::TelemetryHandle;

/// Connection parameters. Every path's congestion controller runs the
/// default [`TcpConfig`].
#[derive(Debug, Clone, Copy)]
pub struct QuicConfig {
    /// Receive window advertised by the peer at handshake, in chunks.
    pub rwnd_chunks: u64,
}

impl Default for QuicConfig {
    fn default() -> Self {
        QuicConfig { rwnd_chunks: 1024 }
    }
}

/// One packet placed on the wire by [`QuicConn::try_send_into`].
#[derive(Debug, Clone, Copy)]
pub struct QuicTx {
    /// Path the packet rides.
    pub path: usize,
    /// Stream the carried chunk belongs to.
    pub stream: u32,
    /// Chunk offset within the stream.
    pub chunk: u64,
    /// Per-path packet number.
    pub pn: u64,
}

/// An unacknowledged packet in a path's packet-number space.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    pn: u64,
    stream: u32,
    chunk: u64,
    sent_at: Time,
}

/// One path's packet-number space: congestion controller, inflight queue,
/// and the lazy PTO deadline the testbed arms timers from.
pub(crate) struct PathSpace {
    /// The path's own (uncoupled) congestion controller + RTT estimator.
    pub cc: TcpCc,
    /// Next packet number to assign (monotonic, never reused).
    next_pn: u64,
    /// Unacked packets, in send (= packet-number) order.
    inflight: VecDeque<SentPacket>,
    /// When the probe-timeout should fire; `Time::MAX` while nothing is
    /// inflight. The testbed checks this lazily, like the MPTCP RTO.
    pub rto_deadline: Time,
    /// Whether a PTO event for this path is already in the event heap.
    pub rto_scheduled: bool,
    /// Path liveness (a down path is a dead radio).
    pub up: bool,
    /// NewReno-style recovery point: losses of packets numbered below this
    /// belong to an already-answered loss episode.
    recovery_until: u64,
}

impl PathSpace {
    fn new(handshake_rtt: std::time::Duration) -> Self {
        let mut cc = TcpCc::new(TcpConfig::default());
        // Like `mptcp::Subflow::new`: the handshake provides the first RTT
        // sample, so the scheduler never sees a zero srtt.
        cc.rtt.on_sample(handshake_rtt);
        PathSpace {
            cc,
            next_pn: 0,
            inflight: VecDeque::with_capacity(64),
            rto_deadline: Time::MAX,
            rto_scheduled: false,
            up: true,
            recovery_until: 0,
        }
    }

    fn rearm_deadline(&mut self) {
        self.rto_deadline = match self.inflight.front() {
            Some(s) => s.sent_at + self.cc.rto(),
            None => Time::MAX,
        };
    }
}

/// Send state of one stream: the fresh frontier plus chunks queued for
/// retransmission (retransmissions have priority within the stream).
#[derive(Debug, Default)]
struct StreamTx {
    total: u64,
    next_fresh: u64,
    retx: VecDeque<u64>,
}

/// What one ACK did to the connection, for the testbed's telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckOutcome {
    /// The acked packet was still inflight (fresh RTT sample taken).
    pub newly_acked: bool,
    /// Packets declared lost by the packet-number gap.
    pub lost: u64,
    /// This ACK opened a new loss episode (one window cut).
    pub fast_retx: bool,
}

/// Aggregate sender counters (beyond the per-path [`TcpCc`] stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuicStats {
    /// Scheduler returned `Wait` with queued data.
    pub wait_decisions: u64,
    /// Send opportunities cut short by the connection receive window.
    pub rwnd_blocked: u64,
    /// Packets declared lost (pn gap), summed over all paths.
    pub lost_packets: u64,
    /// Loss episodes answered with a window cut.
    pub fast_retx_episodes: u64,
    /// Probe timeouts fired.
    pub ptos: u64,
}

/// The multipath-QUIC sender: one connection, many streams, one packet
/// scheduler deciding path placement for every packet.
pub struct QuicConn {
    /// Connection parameters.
    pub cfg: QuicConfig,
    /// Per-path packet-number spaces, indexed like the testbed's paths.
    pub(crate) paths: Vec<PathSpace>,
    streams: Vec<StreamTx>,
    /// One bit per stream (word `i / 64`, bit `i % 64`), set while the
    /// stream has a retransmission queued or fresh chunks left. The chunk
    /// picker reads the next set bit instead of visiting streams: at the
    /// tail of a 107-stream page nearly every stream is finished.
    sendable: Vec<u64>,
    /// Scheduler invocation + decision provenance (shared with MPTCP).
    pub driver: SchedDriver,
    /// Latest connection-level receive window advertised by the peer.
    rwnd_adv: u64,
    /// Round-robin cursor over streams for chunk selection.
    rr_cursor: usize,
    /// Chunks not yet on the wire (fresh + retransmit), across all streams.
    pending_total: u64,
    /// Packets inflight across all paths.
    inflight_total: u64,
    /// Aggregate counters.
    pub stats: QuicStats,
}

impl QuicConn {
    /// A connection over paths with the given handshake RTTs, placing
    /// packets with `scheduler`.
    pub fn new(
        cfg: QuicConfig,
        scheduler: Box<dyn Scheduler>,
        handshake_rtts: &[std::time::Duration],
    ) -> Self {
        assert!(!handshake_rtts.is_empty(), "a connection needs at least one path");
        let paths: Vec<PathSpace> = handshake_rtts.iter().map(|&rtt| PathSpace::new(rtt)).collect();
        let n = paths.len();
        QuicConn {
            cfg,
            paths,
            streams: Vec::new(),
            sendable: Vec::new(),
            driver: SchedDriver::new(scheduler, n),
            rwnd_adv: cfg.rwnd_chunks,
            rr_cursor: 0,
            pending_total: 0,
            inflight_total: 0,
            stats: QuicStats::default(),
        }
    }

    /// Attach a telemetry sink (decision events are stamped `conn`).
    pub fn set_telemetry(&mut self, tel: TelemetryHandle, conn: u32) {
        self.driver.set_telemetry(tel, conn);
    }

    /// Open stream `stream` carrying `total_chunks` chunks of response.
    pub fn open_stream(&mut self, stream: u32, total_chunks: u64) {
        let i = stream as usize;
        if self.streams.len() <= i {
            self.streams.resize_with(i + 1, StreamTx::default);
            self.sendable.resize(i / 64 + 1, 0);
        }
        let s = &mut self.streams[i];
        assert_eq!(s.total, 0, "stream {stream} opened twice");
        s.total = total_chunks;
        self.pending_total += total_chunks;
        if total_chunks > 0 {
            self.sendable[i / 64] |= 1 << (i % 64);
        }
    }

    /// Queue `chunk` of `stream` for retransmission (its packet was lost or
    /// its path died); it goes back through the scheduler on any path.
    fn requeue(&mut self, stream: u32, chunk: u64) {
        let i = stream as usize;
        self.streams[i].retx.push_back(chunk);
        self.sendable[i / 64] |= 1 << (i % 64);
        self.pending_total += 1;
    }

    /// Chunks not yet (re)transmitted, across all streams.
    pub fn pending_chunks(&self) -> u64 {
        self.pending_total
    }

    /// Packets unacknowledged across all paths.
    pub fn inflight_packets(&self) -> u64 {
        self.inflight_total
    }

    /// Everything opened has been sent and acknowledged.
    pub fn all_acked(&self) -> bool {
        self.pending_total == 0 && self.inflight_total == 0
    }

    /// Mark `path` dead: its inflight packets are requeued on their streams
    /// (they may retransmit on any surviving path) and its timer disarmed.
    pub(crate) fn on_path_down(&mut self, path: usize) {
        self.paths[path].up = false;
        while let Some(s) = self.paths[path].inflight.pop_front() {
            self.inflight_total -= 1;
            self.requeue(s.stream, s.chunk);
        }
        self.paths[path].rto_deadline = Time::MAX;
    }

    /// Mark `path` live again.
    pub(crate) fn on_path_up(&mut self, path: usize) {
        self.paths[path].up = true;
    }

    /// The first sendable stream at or after `rr_cursor`, wrapping around.
    /// Caller guarantees `pending_total > 0`, so a bit is set.
    fn next_sendable(&self) -> usize {
        let (w0, b0) = (self.rr_cursor / 64, self.rr_cursor % 64);
        let at = |w: usize, bits: u64| w * 64 + bits.trailing_zeros() as usize;
        let head = self.sendable[w0] & (!0 << b0);
        if head != 0 {
            return at(w0, head);
        }
        // Then the words after the cursor's, then around to the cursor's
        // own word for the bits below it (those at or above are clear).
        let n = self.sendable.len();
        (w0 + 1..n)
            .chain(0..=w0)
            .find(|&w| self.sendable[w] != 0)
            .map(|w| at(w, self.sendable[w]))
            .expect("take_next_chunk with pending_total == 0")
    }

    /// Pick the next chunk to place: round-robin over the streams that have
    /// one, stream-local retransmissions first. Caller guarantees
    /// `pending_total > 0`.
    fn take_next_chunk(&mut self) -> (u32, u64) {
        let i = self.next_sendable();
        let s = &mut self.streams[i];
        let chunk = match s.retx.pop_front() {
            Some(chunk) => chunk,
            None => {
                s.next_fresh += 1;
                s.next_fresh - 1
            }
        };
        if s.retx.is_empty() && s.next_fresh == s.total {
            self.sendable[i / 64] &= !(1 << (i % 64));
        }
        self.rr_cursor = if i + 1 == self.streams.len() { 0 } else { i + 1 };
        self.pending_total -= 1;
        (i as u32, chunk)
    }

    fn rebuild_snapshots(&mut self) {
        self.driver.snap_buf.clear();
        for p in &self.paths {
            self.driver.push_path(&p.cc, p.inflight.len() as u32, p.up);
        }
    }

    /// Run one send opportunity: ask the scheduler per packet until it
    /// says wait, the window closes, or the queue drains. Packets to put on
    /// the wire are appended to `out`.
    pub fn try_send_into(&mut self, now: Time, out: &mut Vec<QuicTx>) {
        for p in self.paths.iter_mut() {
            if p.up {
                p.cc.maybe_idle_reset(now);
            }
        }
        if self.pending_total > 0 {
            self.rebuild_snapshots();
            let mut swnd_free = self.rwnd_adv.saturating_sub(self.inflight_total);
            while self.pending_total > 0 {
                if swnd_free == 0 {
                    self.driver.on_window_blocked();
                    self.stats.rwnd_blocked += 1;
                    break;
                }
                match self.driver.decide(now, self.pending_total, swnd_free) {
                    Decision::Send(PathId(pi)) => {
                        let (stream, chunk) = self.take_next_chunk();
                        let p = &mut self.paths[pi];
                        if p.inflight.is_empty() {
                            p.rto_deadline = now + p.cc.rto();
                        }
                        let pn = p.next_pn;
                        p.next_pn += 1;
                        p.cc.note_send(now);
                        p.inflight.push_back(SentPacket { pn, stream, chunk, sent_at: now });
                        self.inflight_total += 1;
                        self.driver.snap_buf[pi].inflight += 1;
                        out.push(QuicTx { path: pi, stream, chunk, pn });
                        swnd_free -= 1;
                    }
                    Decision::Wait => {
                        self.stats.wait_decisions += 1;
                        break;
                    }
                    Decision::Blocked => break,
                }
            }
        }
        for p in self.paths.iter_mut() {
            if p.up {
                p.cc.validate_app_limited(now, p.inflight.len() as u32);
            }
        }
    }

    /// Process an ACK for packet `pn` on `path`, carrying the peer's
    /// current free receive window. Unacked packets with smaller numbers on
    /// the same path are declared lost (FIFO links cannot reorder) and
    /// their chunks requeued for stream-aware retransmission.
    pub fn on_ack(&mut self, now: Time, path: usize, pn: u64, rwnd_free: u64) -> AckOutcome {
        self.rwnd_adv = rwnd_free;
        let mut out = AckOutcome::default();
        let mut first_lost_pn = None;
        while self.paths[path].inflight.front().is_some_and(|f| f.pn < pn) {
            let s = self.paths[path].inflight.pop_front().expect("front checked");
            self.inflight_total -= 1;
            if first_lost_pn.is_none() {
                first_lost_pn = Some(s.pn);
            }
            self.requeue(s.stream, s.chunk);
            out.lost += 1;
        }
        self.stats.lost_packets += out.lost;
        if self.paths[path].inflight.front().is_some_and(|f| f.pn == pn) {
            let s = self.paths[path].inflight.pop_front().expect("front checked");
            self.inflight_total -= 1;
            let p = &mut self.paths[path];
            // Packet numbers are never reused, so the sample is unambiguous
            // (no Karn problem even for retransmitted chunks).
            p.cc.rtt.on_sample(now.since(s.sent_at));
            p.cc.clear_rto_backoff();
            if p.cc.in_slow_start() {
                p.cc.on_ack_slow_start(1);
                p.cc.maybe_hystart_exit();
            } else {
                // Uncoupled per-path Reno: +1/cwnd per acked packet.
                let w = f64::from(p.cc.cwnd_pkts()).max(1.0);
                p.cc.apply_ca_increase(1.0 / w);
            }
            out.newly_acked = true;
        }
        // Else: stale ACK for a packet already resolved (e.g. by a PTO);
        // per-path pns are monotonic so there is nothing to do.
        if let Some(first) = first_lost_pn {
            let p = &mut self.paths[path];
            if first >= p.recovery_until {
                p.cc.on_fast_retransmit();
                p.recovery_until = p.next_pn;
                self.stats.fast_retx_episodes += 1;
                out.fast_retx = true;
            }
        }
        self.paths[path].rearm_deadline();
        out
    }

    /// Probe timeout on `path`: declare the oldest inflight packet lost,
    /// requeue its chunk, and back the controller off. Returns false when
    /// nothing was inflight (stale timer).
    pub(crate) fn on_pto(&mut self, path: usize) -> bool {
        let Some(s) = self.paths[path].inflight.pop_front() else {
            self.paths[path].rearm_deadline();
            return false;
        };
        self.inflight_total -= 1;
        self.requeue(s.stream, s.chunk);
        let p = &mut self.paths[path];
        p.cc.on_rto();
        p.recovery_until = p.next_pn;
        p.rearm_deadline();
        self.stats.ptos += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;
    use std::time::Duration;

    fn conn(n_paths: usize) -> QuicConn {
        let rtts: Vec<Duration> =
            (0..n_paths).map(|i| Duration::from_millis(20 + 60 * i as u64)).collect();
        QuicConn::new(QuicConfig::default(), SchedulerKind::Default.build(), &rtts)
    }

    #[test]
    fn sends_respect_cwnd_and_count_pending() {
        let mut c = conn(2);
        c.open_stream(0, 100);
        assert_eq!(c.pending_chunks(), 100);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        // Two IW=10 paths can carry at most 20 packets before acks.
        assert!(!out.is_empty() && out.len() <= 20, "sent {}", out.len());
        assert_eq!(c.inflight_packets(), out.len() as u64);
        assert_eq!(c.pending_chunks(), 100 - out.len() as u64);
    }

    #[test]
    fn pn_gap_declares_loss_and_requeues_chunks_once() {
        let mut c = conn(1);
        c.open_stream(0, 10);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        let sent = out.len() as u64;
        assert!(sent >= 3);
        // ACK pn=2: packets 0 and 1 were dropped by the FIFO link.
        let ack = c.on_ack(Time::from_millis(30), 0, 2, 1024);
        assert_eq!(ack.lost, 2);
        assert!(ack.newly_acked);
        assert!(ack.fast_retx, "first loss episode cuts the window");
        assert_eq!(c.pending_chunks(), (10 - sent) + 2);
        // A later ACK revealing more loss from the same episode must not
        // cut the window again.
        let ack2 = c.on_ack(Time::from_millis(31), 0, 4, 1024);
        assert_eq!(ack2.lost, 1);
        assert!(!ack2.fast_retx);
    }

    #[test]
    fn retransmissions_may_switch_paths() {
        let mut c = conn(2);
        c.open_stream(0, 4);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        assert_eq!(c.pending_chunks(), 0);
        // Kill path 0: its inflight chunks requeue...
        let on_p0 = out.iter().filter(|t| t.path == 0).count();
        assert!(on_p0 > 0, "default scheduler should use the fast path");
        c.on_path_down(0);
        assert_eq!(c.pending_chunks(), on_p0 as u64);
        // ...and the next opportunity places them on the surviving path.
        let mut out2 = Vec::new();
        c.try_send_into(Time::from_millis(1), &mut out2);
        assert!(out2.iter().all(|t| t.path == 1));
        assert_eq!(out2.len(), on_p0);
    }

    #[test]
    fn pto_requeues_the_oldest_packet_and_backs_off() {
        let mut c = conn(1);
        c.open_stream(0, 5);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        let rto_events_before = c.paths[0].cc.stats().rto_events;
        assert!(c.on_pto(0));
        assert_eq!(c.paths[0].cc.stats().rto_events, rto_events_before + 1);
        assert_eq!(c.pending_chunks(), 1);
        assert!(c.paths[0].rto_deadline != Time::MAX, "still inflight, rearmed");
    }

    #[test]
    fn rwnd_limits_inflight() {
        let mut c = QuicConn::new(
            QuicConfig { rwnd_chunks: 5 },
            SchedulerKind::Default.build(),
            &[Duration::from_millis(20)],
        );
        c.open_stream(0, 100);
        let mut out = Vec::new();
        c.try_send_into(Time::ZERO, &mut out);
        assert_eq!(out.len(), 5, "window of 5 chunks caps the burst");
        assert_eq!(c.stats.rwnd_blocked, 1);
    }

    /// The picker the bitmap replaced, as the reference: visit every stream
    /// round-robin from the cursor until one has a chunk. Inflight packets
    /// are mirrored per path so the model requeues what the connection
    /// requeues, in the same order.
    #[derive(Default)]
    struct ScanModel {
        streams: Vec<StreamTx>,
        rr_cursor: usize,
        inflight: Vec<VecDeque<(u64, u32, u64)>>,
    }

    impl ScanModel {
        fn open_stream(&mut self, stream: usize, total: u64) {
            if self.streams.len() <= stream {
                self.streams.resize_with(stream + 1, StreamTx::default);
            }
            self.streams[stream].total = total;
        }

        fn take_next_chunk(&mut self) -> (u32, u64) {
            let n = self.streams.len();
            for k in 0..n {
                let i = (self.rr_cursor + k) % n;
                let s = &mut self.streams[i];
                if let Some(chunk) = s.retx.pop_front() {
                    self.rr_cursor = (i + 1) % n;
                    return (i as u32, chunk);
                }
                if s.next_fresh < s.total {
                    let chunk = s.next_fresh;
                    s.next_fresh += 1;
                    self.rr_cursor = (i + 1) % n;
                    return (i as u32, chunk);
                }
            }
            unreachable!("the connection sent a chunk the model does not have")
        }

        /// Requeue the oldest `n` inflight packets of `path`.
        fn lose(&mut self, path: usize, n: usize) {
            for (_, stream, chunk) in self.inflight[path].drain(..n) {
                self.streams[stream as usize].retx.push_back(chunk);
            }
        }
    }

    #[test]
    fn bitmap_picker_matches_the_round_robin_scan() {
        use testkit::prop::{check, vec_of};

        // (op selector, stream-size / path / ack-depth draw)
        check(256, vec_of((0u32..100, 0u64..200), 1..300), |ops| {
            let mut c = conn(2);
            let mut model = ScanModel { inflight: vec![VecDeque::new(); 2], ..Default::default() };
            let mut now = Time::ZERO;
            let mut next_stream = 0usize;
            let mut out = Vec::new();
            for (op, draw) in ops {
                now += Duration::from_millis(1);
                let path = (draw % 2) as usize;
                match op {
                    // Open a stream: mostly the next id, sometimes past a
                    // gap (ids the client skipped), sometimes empty.
                    0..=24 => {
                        next_stream += if draw % 7 == 0 { 1 + (draw % 70) as usize } else { 0 };
                        let total = if draw % 11 == 0 { 0 } else { 1 + draw % 9 };
                        c.open_stream(next_stream as u32, total);
                        model.open_stream(next_stream, total);
                        next_stream += 1;
                    }
                    // A send opportunity: every packet must carry the chunk
                    // the scan would have picked.
                    25..=59 => {
                        out.clear();
                        c.try_send_into(now, &mut out);
                        for tx in &out {
                            assert_eq!((tx.stream, tx.chunk), model.take_next_chunk());
                            model.inflight[tx.path].push_back((tx.pn, tx.stream, tx.chunk));
                        }
                    }
                    // ACK the packet `depth` into the path's inflight queue:
                    // everything older is lost by packet-number gap.
                    60..=84 => {
                        let depth = (draw / 2 % 4) as usize;
                        if let Some(&(pn, ..)) = model.inflight[path].get(depth) {
                            c.on_ack(now, path, pn, 1024);
                            model.lose(path, depth);
                            model.inflight[path].pop_front();
                        }
                    }
                    85..=94 => {
                        if c.on_pto(path) {
                            model.lose(path, 1);
                        }
                    }
                    _ => {
                        c.on_path_down(path);
                        let n = model.inflight[path].len();
                        model.lose(path, n);
                        c.on_path_up(path);
                    }
                }
                let model_pending: u64 = model
                    .streams
                    .iter()
                    .map(|s| s.retx.len() as u64 + s.total - s.next_fresh)
                    .sum();
                assert_eq!(c.pending_chunks(), model_pending);
            }
        });
    }
}
