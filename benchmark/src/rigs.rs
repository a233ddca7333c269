//! Per-layer rigs: ns/op timed around public calls of one layer at a time,
//! on inputs shaped like what the workloads feed it (delay mixes, window
//! depths, the 0.3/8.6 reordering pattern, a recorded scheduler tape).
//!
//! Every rig reports how many operations it performed and whether its own
//! bookkeeping balanced (everything sent was acked, everything fed was
//! delivered), so a rig that silently stops doing the work cannot report a
//! flattering number.

use std::time::{Duration, Instant};

use ecf_core::{Decision, PathId, SchedulerKind, Why};
use experiments::OpenAllApp;
use mptcp::{
    AckInfo, ConnConfig, ConnSpec, Connection, Receiver, RecorderConfig, Segment, Subflow, Testbed,
    TestbedConfig,
};
use quic::{QuicConfig, QuicConn, QuicReceiver, QuicTestbed, QuicTestbedConfig};
use scenario::Scenario;
use simnet::{DeliveryQueue, EventQueue, Link, PathConfig, Time, Verdict};
use tcp_model::{wire_size, RttEstimator, TcpCc, TcpConfig, MSS};
use telemetry::{EventKind, PathObs, SchedDecision, TelemetryHandle, MAX_PATHS};
use testkit::json::Value;
use testkit::Rng;
use webload::{BrowserApp, PageModel};

use crate::stats::median;
use crate::trace::{SchedTape, SharedSink, TimedScheduler};
use crate::workloads::HETERO;

/// Timed runs per rig; the median is reported.
const REPS: usize = 5;

/// One rig's result.
#[derive(Debug, Clone, Copy)]
pub struct Rig {
    /// Median host nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations one timed run performed.
    pub ops: u64,
    /// The rig's own bookkeeping balanced on every run.
    pub balanced: bool,
}

/// Run `once` (which times its own measured region and returns
/// `(nanoseconds, operations, balanced)`) [`REPS`] times.
fn repeat(mut once: impl FnMut() -> (u64, u64, bool)) -> Rig {
    let mut samples = Vec::with_capacity(REPS);
    let (mut ops, mut balanced) = (0, true);
    for _ in 0..REPS {
        let (ns, n, ok) = once();
        samples.push(ns as f64 / n.max(1) as f64);
        ops = n;
        balanced &= ok;
    }
    Rig { ns_per_op: median(&mut samples), ops, balanced }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// The simulator's measured delay mix: ~97 % link deliveries a few hundred
/// µs out, ~3 % delayed-ACK timers, a few per mille RTO-range timers.
fn delay(rng: &mut Rng) -> Duration {
    match rng.gen_range(0..1000u32) {
        0..=966 => Duration::from_micros(rng.gen_range(150..900u64)),
        967..=996 => Duration::from_micros(rng.gen_range(10_000..60_000u64)),
        _ => Duration::from_micros(rng.gen_range(200_000..800_000u64)),
    }
}

/// `simnet.wheel`: pop-one/schedule-one with `depth` events pending.
pub fn wheel(depth: usize) -> Rig {
    const CHURN: usize = 1 << 17;
    repeat(|| {
        let mut rng = Rng::seed_from_u64(24);
        let mut q = EventQueue::new();
        for i in 0..depth {
            q.schedule(Time::ZERO + delay(&mut rng), i as u64);
        }
        let delays: Vec<Duration> = (0..CHURN).map(|_| delay(&mut rng)).collect();
        let mut acc = 0u64;
        let started = Instant::now();
        for d in &delays {
            let (at, ev) = q.pop().expect("depth stays constant");
            acc ^= ev;
            q.schedule(at + *d, ev);
        }
        let ns = elapsed_ns(started);
        std::hint::black_box(acc);
        (ns, CHURN as u64, q.len() == depth)
    })
}

/// `simnet.link`: `Link::enqueue` of full-size packets offered at 1.25× the
/// shaped rate, so the droptail queue fills and a fifth are dropped.
/// Averaged over the two ends of the heterogeneous pair.
pub fn link_enqueue() -> Rig {
    const PKTS: u64 = 200_000;
    let one = |cfg: PathConfig| {
        repeat(|| {
            let mut link = Link::new(cfg.fwd.clone(), 7);
            let wire = wire_size(MSS);
            let gap = simnet::serialization_nanos(cfg.fwd.rate_bps, wire) * 4 / 5;
            let mut now = Time::ZERO;
            let mut delivered = 0u64;
            let started = Instant::now();
            for _ in 0..PKTS {
                delivered += u64::from(matches!(link.enqueue(now, wire), Verdict::Deliver { .. }));
                now += Duration::from_nanos(gap);
            }
            let ns = elapsed_ns(started);
            let s = link.stats();
            let balanced = s.delivered_pkts == delivered
                && delivered + s.dropped_queue + s.dropped_random == PKTS
                && s.dropped_queue > 0;
            (ns, PKTS, balanced)
        })
    };
    let (slow, fast) = (one(PathConfig::wifi(HETERO.0)), one(PathConfig::lte(HETERO.1)));
    Rig {
        ns_per_op: (slow.ns_per_op + fast.ns_per_op) / 2.0,
        ops: slow.ops + fast.ops,
        balanced: slow.balanced && fast.balanced,
    }
}

/// `simnet.delivery`: one push plus one pop on a queue a window deep.
pub fn delivery() -> Rig {
    const OPS: u64 = 1 << 20;
    const DEPTH: u64 = 32;
    repeat(|| {
        let mut q: DeliveryQueue<[u64; 4]> = DeliveryQueue::with_capacity(512);
        for i in 0..DEPTH {
            let _ = q.push(Time::from_nanos(i), i, [i; 4]);
        }
        let mut acc = 0u64;
        let started = Instant::now();
        for i in DEPTH..DEPTH + OPS {
            let _ = q.push(Time::from_nanos(i), i, [i; 4]);
            let (payload, _) = q.pop().expect("queue is never empty");
            acc ^= payload[0];
        }
        let ns = elapsed_ns(started);
        std::hint::black_box(acc);
        (ns, OPS, q.len() as u64 == DEPTH)
    })
}

/// `tcp.rtt`: one RTT sample folded in, RTO read back.
pub fn rtt_sample() -> Rig {
    const OPS: u64 = 1 << 20;
    repeat(|| {
        let mut rtt = RttEstimator::new();
        let mut acc = Duration::ZERO;
        let started = Instant::now();
        for i in 0..OPS {
            rtt.on_sample(Duration::from_micros(60_000 + ((i * 37) & 0x3fff)));
            acc += rtt.rto();
        }
        let ns = elapsed_ns(started);
        std::hint::black_box(acc);
        (ns, OPS, rtt.samples() == OPS)
    })
}

/// `tcp.cc`: what one ACK does to a subflow's congestion state (send note,
/// slow start / HyStart or congestion avoidance, window validation), with
/// a multiplicative decrease every 4096 ACKs to keep the window in range.
pub fn cc_ack() -> Rig {
    const OPS: u64 = 1 << 20;
    repeat(|| {
        let mut cc = TcpCc::new(TcpConfig::default());
        cc.rtt.on_sample(Duration::from_millis(60));
        let mut now = Time::ZERO;
        let started = Instant::now();
        for i in 0..OPS {
            now += Duration::from_micros(100);
            cc.note_send(now);
            if cc.in_slow_start() {
                cc.maybe_hystart_exit();
                cc.on_ack_slow_start(1);
            } else {
                cc.apply_ca_increase(1.0 / cc.cwnd());
            }
            cc.validate_app_limited(now, cc.cwnd_pkts());
            if i & 0xfff == 0xfff {
                cc.on_fast_retransmit();
            }
        }
        let ns = elapsed_ns(started);
        (ns, OPS, cc.stats().fast_retransmits == OPS >> 12)
    })
}

/// `mptcp.subflow`: `register_send` then the cumulative `on_ack` that
/// retires it, a 64-segment window per round trip, delayed-ACK pairs.
pub fn subflow_send_ack() -> Rig {
    const ROUNDS: u64 = 4096;
    repeat(|| {
        let mut sf = Subflow::new(0, TcpConfig::default(), Duration::from_millis(60), 2896);
        sf.cc.on_ack_slow_start(54);
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        let mut acked = 0u64;
        let started = Instant::now();
        for _ in 0..ROUNDS {
            while sf.has_space() {
                sf.register_send(now, sent, false);
                sent += 1;
            }
            now += Duration::from_millis(60);
            while acked < sent {
                acked = (acked + 2).min(sent);
                let ack = AckInfo { sub_next_ssn: acked, data_next_dsn: acked, rwnd_free: 2896 };
                std::hint::black_box(sf.on_ack(now, &ack));
            }
        }
        let ns = elapsed_ns(started);
        (ns, sent, sf.inflight_count() == 0 && sf.stats().segs_sent == sent)
    })
}

/// Move `segs` segments over a two-subflow connection (20 ms and 60 ms
/// handshakes) run by `scheduler`, a real receiver producing the ACKs off
/// the clock. Returns the nanoseconds inside the connection's send and ACK
/// paths, the segments sent, and whether every one was acknowledged.
fn transfer(scheduler: Box<dyn ecf_core::Scheduler>, segs: u64) -> (u64, u64, bool) {
    let mut conn = Connection::new(
        ConnConfig::default(),
        scheduler,
        &[(0, Duration::from_millis(20)), (1, Duration::from_millis(60))],
    );
    let mut rx = Receiver::new(2, ConnConfig::default().rwnd_segs);
    conn.server_write(0, segs);
    let mut now = Time::ZERO;
    let mut plan = Vec::with_capacity(256);
    let mut acks = Vec::with_capacity(256);
    let mut delivered = Vec::with_capacity(256);
    let (mut ns, mut sent, mut idle_rounds) = (0u64, 0u64, 0);
    while !conn.all_acked() && idle_rounds < 4 {
        plan.clear();
        let started = Instant::now();
        conn.try_send_into(now, &mut plan);
        ns += elapsed_ns(started);
        sent += plan.len() as u64;
        idle_rounds = if plan.is_empty() { idle_rounds + 1 } else { 0 };
        for tx in &plan {
            delivered.clear();
            let sig = rx.on_segment_into(now, tx.sub, tx.seg, &mut delivered);
            acks.extend(sig.ack.map(|a| (tx.sub, a)));
        }
        for sub in 0..2 {
            acks.extend(rx.take_delayed_ack(sub).map(|a| (sub, a)));
        }
        now += Duration::from_millis(20);
        let started = Instant::now();
        for (sub, ack) in acks.drain(..) {
            std::hint::black_box(conn.on_ack(now, sub, &ack));
        }
        ns += elapsed_ns(started);
    }
    (ns, sent, conn.all_acked() && sent == segs)
}

/// `mptcp.connection`: the send path and the ACK path of a two-subflow
/// connection under ECF. Scheduler, subflow and tcp time are inside, as
/// they are in the simulator.
pub fn connection_send_ack() -> Rig {
    repeat(|| transfer(SchedulerKind::Ecf.build(), 200_000))
}

/// `mptcp.receiver`: `on_segment_into`, either fully in order on one
/// subflow, or in the 0.3/8.6 shape — 29 fast-path segments run ahead for
/// every slow-path segment, which lands three blocks late and releases
/// everything buffered behind it.
pub fn receiver(reorder: bool) -> Rig {
    const BLOCKS: u64 = 8192;
    const BLOCK: u64 = 30;
    const LAG: u64 = 3;
    repeat(|| {
        let mut rx = Receiver::new(2, ConnConfig::default().rwnd_segs);
        let mut out = Vec::with_capacity(256);
        let mut now = Time::ZERO;
        let mut delivered = 0u64;
        let mut feed = |rx: &mut Receiver, sub, dsn, ssn| {
            now += Duration::from_micros(1400);
            out.clear();
            std::hint::black_box(rx.on_segment_into(now, sub, Segment { dsn, ssn }, &mut out));
            delivered += out.len() as u64;
        };
        let started = Instant::now();
        if reorder {
            for b in 0..BLOCKS + LAG {
                if b < BLOCKS {
                    for j in 1..BLOCK {
                        feed(&mut rx, 1, b * BLOCK + j, b * (BLOCK - 1) + j - 1);
                    }
                }
                if b >= LAG {
                    feed(&mut rx, 0, (b - LAG) * BLOCK, b - LAG);
                }
            }
        } else {
            for i in 0..BLOCKS * BLOCK {
                feed(&mut rx, 0, i, i);
            }
        }
        let ns = elapsed_ns(started);
        let balanced = delivered == BLOCKS * BLOCK
            && rx.stats().duplicate_segs == 0
            && (rx.stats().max_meta_buffered > BLOCK) == reorder;
        (ns, BLOCKS * BLOCK, balanced)
    })
}

fn browse_cfg(seed: u64) -> TestbedConfig {
    TestbedConfig {
        paths: vec![PathConfig::wifi(1.0), PathConfig::lte(10.0)],
        conns: (0..6).map(|_| ConnSpec::new(SchedulerKind::Ecf, vec![0, 1])).collect(),
        seed,
        path_seeds: None,
        recorder: RecorderConfig { ooo_per_conn: true, ..RecorderConfig::default() },
        scenario: Scenario::default(),
        telemetry: TelemetryHandle::off(),
    }
}

/// `mptcp.sim`: build and drop the six-connection browse testbed a sharded
/// sweep builds once per unit. Microseconds per build.
pub fn mptcp_build() -> Rig {
    const BUILDS: u64 = 200;
    let page = PageModel::cnn_like(2014);
    let mut r = repeat(|| {
        let started = Instant::now();
        for i in 0..BUILDS {
            let tb = Testbed::new(browse_cfg(i), BrowserApp::new(page.clone(), 6));
            std::hint::black_box(tb.world().conn_count());
        }
        (elapsed_ns(started), BUILDS, true)
    });
    r.ns_per_op /= 1e3;
    r
}

/// `core`: replay `tape` into a fresh `kind`. Timing only — whether the
/// verdicts match the recorded ones is [`SchedTape::replay`]'s return
/// value, which callers check for the scheduler that recorded the tape.
pub fn select(kind: SchedulerKind, tape: &SchedTape) -> Rig {
    repeat(|| {
        let mut sched = kind.build();
        let started = Instant::now();
        std::hint::black_box(tape.replay(sched.as_mut()));
        (elapsed_ns(started), tape.selects() as u64, !tape.ops.is_empty())
    })
}

/// `quic.connection`: the send path and the per-packet ACK path of a
/// two-path connection carrying 107 streams.
pub fn quic_send_ack() -> Rig {
    const STREAMS: u32 = 107;
    const CHUNKS: u64 = 1000;
    repeat(|| {
        let mut conn = QuicConn::new(
            QuicConfig::default(),
            SchedulerKind::Ecf.build(),
            &[Duration::from_millis(20), Duration::from_millis(60)],
        );
        for s in 0..STREAMS {
            conn.open_stream(s, CHUNKS);
        }
        let rwnd = QuicConfig::default().rwnd_chunks;
        let mut now = Time::ZERO;
        let mut out = Vec::with_capacity(256);
        let (mut sent, mut idle_rounds) = (0u64, 0);
        let started = Instant::now();
        while !conn.all_acked() && idle_rounds < 4 {
            out.clear();
            conn.try_send_into(now, &mut out);
            sent += out.len() as u64;
            idle_rounds = if out.is_empty() { idle_rounds + 1 } else { 0 };
            now += Duration::from_millis(20);
            for tx in &out {
                std::hint::black_box(conn.on_ack(now, tx.path, tx.pn, rwnd));
            }
        }
        let total = u64::from(STREAMS) * CHUNKS;
        (elapsed_ns(started), sent, conn.all_acked() && sent == total)
    })
}

/// `quic.receiver`: `on_chunk` across 107 streams, round-robin, in order
/// within each stream (the shape the connection's chunk selection makes).
pub fn quic_chunk() -> Rig {
    const STREAMS: u32 = 107;
    const CHUNKS: u64 = 1000;
    repeat(|| {
        let mut rx = QuicReceiver::new(QuicConfig::default().rwnd_chunks);
        for s in 0..STREAMS {
            rx.open_stream(s, CHUNKS);
        }
        let mut out = Vec::with_capacity(16);
        let mut delivered = 0u64;
        let started = Instant::now();
        for c in 0..CHUNKS {
            for s in 0..STREAMS {
                out.clear();
                rx.on_chunk(Time::from_micros(c), s, c, &mut out);
                delivered += out.len() as u64;
            }
        }
        let ns = elapsed_ns(started);
        let total = u64::from(STREAMS) * CHUNKS;
        (ns, total, delivered == total && (0..STREAMS).all(|s| rx.stream_complete(s)))
    })
}

/// `quic.sim`: build and drop the page-load testbed. Microseconds per build.
pub fn quic_build() -> Rig {
    const BUILDS: u64 = 200;
    let page = PageModel::cnn_like(2014);
    let mut r = repeat(|| {
        let started = Instant::now();
        for i in 0..BUILDS {
            let cfg = QuicTestbedConfig::wifi_lte(1.0, 5.0, SchedulerKind::Ecf, i);
            let tb = QuicTestbed::new(cfg, OpenAllApp::new(&page));
            std::hint::black_box(tb.events_processed());
        }
        (elapsed_ns(started), BUILDS, true)
    });
    r.ns_per_op /= 1e3;
    r
}

fn decision_event(i: u64) -> EventKind {
    let mut paths = [PathObs::default(); MAX_PATHS];
    for (p, obs) in paths.iter_mut().enumerate().take(2) {
        *obs = PathObs {
            path: p as u16,
            usable: true,
            srtt_us: 20_000 + i as u32,
            rttvar_us: 5_000,
            cwnd: 10,
            inflight: 3,
            queue_bytes: 0,
        };
    }
    EventKind::SchedDecision(SchedDecision {
        conn: 0,
        scheduler: "ecf",
        decision: Decision::Send(PathId(0)),
        why: Why::Unspecified,
        queued_pkts: i as u32,
        send_window_free_pkts: 100,
        n_paths: 2,
        paths,
    })
}

/// `telemetry`: one decision event pushed into a wrapping 1 Ki ring (the
/// steady state of a long traced run).
pub fn telemetry_push() -> Rig {
    const OPS: u64 = 1 << 20;
    repeat(|| {
        let tel = TelemetryHandle::with_capacity(1 << 10);
        let started = Instant::now();
        for i in 0..OPS {
            tel.emit(i, decision_event(i));
        }
        let ns = elapsed_ns(started);
        (ns, OPS, tel.events().len() as u64 + tel.overflow() == OPS)
    })
}

/// Turn a rig that processed `bytes_per_op` bytes per operation into MB/s.
fn mb_per_s(r: Rig, bytes_per_op: usize) -> Rig {
    Rig { ns_per_op: bytes_per_op as f64 * 1e3 / r.ns_per_op, ..r }
}

/// `telemetry.export`: JSONL serialization of decision events, MB/s.
pub fn telemetry_export() -> Rig {
    let tel = TelemetryHandle::with_capacity(1 << 12);
    for i in 0..1 << 12 {
        tel.emit(i, decision_event(i));
    }
    let events = tel.events();
    let bytes = telemetry::export::to_jsonl(&events).len();
    let r = repeat(|| {
        let started = Instant::now();
        let out = telemetry::export::to_jsonl(&events);
        (elapsed_ns(started), 1, out.len() == bytes)
    });
    mb_per_s(r, bytes)
}

/// `testkit.rng`: one `next_u64`.
pub fn rng_next() -> Rig {
    const OPS: u64 = 1 << 22;
    repeat(|| {
        let mut rng = Rng::seed_from_u64(1);
        let mut acc = 0u64;
        let started = Instant::now();
        for _ in 0..OPS {
            acc ^= rng.next_u64();
        }
        let ns = elapsed_ns(started);
        (ns, OPS, std::hint::black_box(acc) != 0)
    })
}

/// `testkit.json`: parse a cache-entry-shaped document (nested objects of
/// number arrays), MB/s.
pub fn json_parse() -> Rig {
    let mut rng = Rng::seed_from_u64(2);
    let cells: Vec<Value> = (0..64)
        .map(|i| {
            let series = (0..120).map(|_| Value::Number(rng.f64() * 1e3)).collect();
            let mut cell = std::collections::BTreeMap::new();
            cell.insert("seed".to_string(), Value::Number(f64::from(i)));
            cell.insert("scheduler".to_string(), Value::String("ecf".to_string()));
            cell.insert("chunk_throughputs".to_string(), Value::Array(series));
            Value::Object(cell)
        })
        .collect();
    let doc = Value::Array(cells);
    let text = testkit::json::canonical(&doc);
    let r = repeat(|| {
        let started = Instant::now();
        let parsed = testkit::json::parse(&text);
        (elapsed_ns(started), 1, parsed.as_ref() == Ok(&doc))
    });
    mb_per_s(r, text.len())
}

/// `testkit.digest`: FNV-1a over 1 MiB, MB/s.
pub fn digest() -> Rig {
    let mut rng = Rng::seed_from_u64(3);
    let buf: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    let want = testkit::digest::fnv1a(&buf);
    let r = repeat(|| {
        let started = Instant::now();
        let got = testkit::digest::fnv1a(std::hint::black_box(&buf));
        (elapsed_ns(started), 1, got == want)
    });
    mb_per_s(r, buf.len())
}

/// `web.page`: generate one 107-object page model. Microseconds per page.
pub fn page_gen() -> Rig {
    const PAGES: u64 = 2000;
    let mut r = repeat(|| {
        let mut objects = 0usize;
        let started = Instant::now();
        for seed in 0..PAGES {
            objects += PageModel::cnn_like(seed).object_sizes.len();
        }
        (elapsed_ns(started), PAGES, objects == 107 * PAGES as usize)
    });
    r.ns_per_op /= 1e3;
    r
}

/// A scheduler tape for workloads whose traced body cannot install the
/// wrapper (the sweep executor builds its own connections): the decisions
/// `kind` makes over a 20 000-segment [`transfer`].
pub fn synthetic_tape(kind: SchedulerKind) -> SchedTape {
    let sink = SharedSink::default();
    transfer(Box::new(TimedScheduler::new(kind.build(), true, &sink)), 20_000);
    let mut sink = sink.lock().expect("no wrapper panicked");
    sink.tapes.pop().expect("the wrapper recorded a tape")
}
