//! What the traced run installs around the simulator: a span log, a timing
//! [`Scheduler`] wrapper that also records a replayable input tape, and
//! timing application wrappers for both transports. Everything here sits
//! outside the crates under test and reaches them through public traits.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ecf_core::{Decision, PathSnapshot, SchedInput, Scheduler, Why};
use mptcp::{Api, Application, ConnId, ReqId, TransportApi, TransportApp};
use simnet::Time;

/// Decisions kept per tape. A tape is the prefix of one scheduler
/// instance's life, so replaying it into a fresh instance must reproduce
/// every verdict.
pub const TAPE_CAP: usize = 1 << 16;

/// One recorded span or aggregate.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the log.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer-boundary name (`body`, `cell`, `core.decide`, ...).
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
    /// Calls folded into this record (1 for a plain span).
    pub count: u64,
    /// Host nanoseconds busy inside the layer: `end_ns - start_ns` for a
    /// plain span, the summed call time for an aggregate.
    pub busy_ns: u64,
}

/// Spans of one traced workload, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    workload: &'static str,
    origin: Instant,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new(workload: &'static str) -> SpanLog {
        SpanLog { workload, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.busy_ns
    }

    /// Record `count` calls into a layer that together took `busy_ns`
    /// inside `parent` (per-packet layers are far too hot for one span per
    /// call: a `fig9_grid` body makes 28 M scheduler decisions).
    pub fn aggregate(&mut self, name: &'static str, parent: u32, count: u64, busy_ns: u64) {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns)
        };
        self.spans.push(Span { id, parent: Some(parent), name, start_ns, end_ns, count, busy_ns });
    }

    /// Per span name, in first-seen order: `(name, records, calls, busy
    /// nanoseconds, self nanoseconds)`. A span's self time is its busy time
    /// minus the part its children cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.busy_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64, u64)> = Vec::new();
        for s in &self.spans {
            let own = s.busy_ns.saturating_sub(covered[s.id as usize]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => *r = (r.0, r.1 + 1, r.2 + s.count, r.3 + s.busy_ns, r.4 + own),
                None => rows.push((s.name, 1, s.count, s.busy_ns, own)),
            }
        }
        rows
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"workload":"{}","id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"count":{},"busy_ns":{}}}"#,
                self.workload, s.id, parent, s.name, s.start_ns, s.end_ns, s.count, s.busy_ns
            );
        }
        out
    }
}

/// What reading the clock around an empty call measures, in nanoseconds —
/// subtracted from every in-situ timing so the wrappers report the layer,
/// not `clock_gettime`.
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u64;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t.elapsed().as_nanos() as u64);
    }
    total as f64 / f64::from(N)
}

/// One step of a scheduler's recorded life.
#[derive(Debug, Clone, Copy)]
pub enum TapeOp {
    /// A `select` call over `snaps[first..first + n]`.
    Select {
        /// Offset of the call's path snapshots in [`SchedTape::snaps`].
        first: u32,
        /// Paths offered.
        n: u8,
        /// `SchedInput::queued_pkts`.
        queued_pkts: u64,
        /// `SchedInput::send_window_free_pkts`.
        send_window_free_pkts: u64,
        /// What the scheduler answered.
        verdict: Decision,
    },
    /// An `on_window_blocked` notification (BLEST adapts on these).
    WindowBlocked,
}

/// The inputs one scheduler instance saw, from its creation.
#[derive(Debug, Clone, Default)]
pub struct SchedTape {
    /// The scheduler's [`Scheduler::name`].
    pub scheduler: &'static str,
    /// Path snapshots of every recorded call, concatenated.
    pub snaps: Vec<PathSnapshot>,
    /// The calls, in order.
    pub ops: Vec<TapeOp>,
}

impl SchedTape {
    /// `select` calls on the tape.
    pub fn selects(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, TapeOp::Select { .. })).count()
    }

    /// Feed the tape to `sched` (a fresh instance). Returns how many
    /// verdicts differed from the recorded ones.
    pub fn replay(&self, sched: &mut dyn Scheduler) -> usize {
        let mut mismatches = 0;
        for op in &self.ops {
            match *op {
                TapeOp::Select { first, n, queued_pkts, send_window_free_pkts, verdict } => {
                    let paths = &self.snaps[first as usize..first as usize + usize::from(n)];
                    let got =
                        sched.select(&SchedInput { paths, queued_pkts, send_window_free_pkts });
                    mismatches += usize::from(std::hint::black_box(got) != verdict);
                }
                TapeOp::WindowBlocked => sched.on_window_blocked(),
            }
        }
        mismatches
    }
}

/// Totals of every wrapped scheduler, merged when each is dropped.
#[derive(Debug, Default)]
pub struct SchedSink {
    /// `select` / `select_explained` calls.
    pub calls: u64,
    /// Of those, `Wait` verdicts.
    pub waits: u64,
    /// Host nanoseconds inside the calls (clock overhead included).
    pub ns: u64,
    /// Tapes handed in by the wrappers that recorded one.
    pub tapes: Vec<SchedTape>,
}

/// Shared handle to a [`SchedSink`].
pub type SharedSink = Arc<Mutex<SchedSink>>;

/// A [`Scheduler`] that times the scheduler it wraps. Counts and times stay
/// in plain fields on the hot path and reach the sink once, on drop.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    calls: u64,
    waits: u64,
    ns: u64,
    tape: Option<SchedTape>,
    sink: SharedSink,
}

impl TimedScheduler {
    /// Wrap `inner`; with `record_tape` the first [`TAPE_CAP`] calls are
    /// also kept for replay.
    pub fn new(inner: Box<dyn Scheduler>, record_tape: bool, sink: &SharedSink) -> TimedScheduler {
        let tape =
            record_tape.then(|| SchedTape { scheduler: inner.name(), ..SchedTape::default() });
        TimedScheduler { inner, calls: 0, waits: 0, ns: 0, tape, sink: Arc::clone(sink) }
    }

    fn note(&mut self, input: &SchedInput<'_>, verdict: Decision, started: Instant) {
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.waits += u64::from(verdict == Decision::Wait);
        if let Some(tape) = self.tape.as_mut().filter(|t| t.ops.len() < TAPE_CAP) {
            let first = tape.snaps.len() as u32;
            tape.snaps.extend_from_slice(input.paths);
            tape.ops.push(TapeOp::Select {
                first,
                n: input.paths.len() as u8,
                queued_pkts: input.queued_pkts,
                send_window_free_pkts: input.send_window_free_pkts,
                verdict,
            });
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, input: &SchedInput<'_>) -> Decision {
        let started = Instant::now();
        let verdict = self.inner.select(input);
        self.note(input, verdict, started);
        verdict
    }

    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, Why) {
        let started = Instant::now();
        let (verdict, why) = self.inner.select_explained(input);
        self.note(input, verdict, started);
        (verdict, why)
    }

    fn on_window_blocked(&mut self) {
        if let Some(tape) = self.tape.as_mut().filter(|t| t.ops.len() < TAPE_CAP) {
            tape.ops.push(TapeOp::WindowBlocked);
        }
        self.inner.on_window_blocked();
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        // A poisoned sink means another thread already panicked; the totals
        // are lost either way and Drop must not panic on top of it.
        if let Ok(mut sink) = self.sink.lock() {
            sink.calls += self.calls;
            sink.waits += self.waits;
            sink.ns += self.ns;
            sink.tapes.extend(self.tape.take());
        }
    }
}

/// Times every callback into the application it wraps, on either transport.
pub struct TimedApp<A> {
    /// The wrapped application.
    pub inner: A,
    /// Callbacks delivered.
    pub calls: u64,
    /// Host nanoseconds inside them (clock overhead included). Requests the
    /// application issues from a callback run inside it and are counted.
    pub ns: u64,
}

impl<A> TimedApp<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> TimedApp<A> {
        TimedApp { inner, calls: 0, ns: 0 }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        let started = Instant::now();
        let r = f(&mut self.inner);
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl<A: Application> Application for TimedApp<A> {
    fn on_start(&mut self, now: Time, api: &mut Api<'_>) {
        self.timed(|a| a.on_start(now, api));
    }
    fn on_response_complete(&mut self, now: Time, conn: ConnId, req: ReqId, api: &mut Api<'_>) {
        self.timed(|a| a.on_response_complete(now, conn, req, api));
    }
    fn on_timer(&mut self, now: Time, token: u64, api: &mut Api<'_>) {
        self.timed(|a| a.on_timer(now, token, api));
    }
}

impl<A: TransportApp> TransportApp for TimedApp<A> {
    fn on_start(&mut self, now: Time, api: &mut dyn TransportApi) {
        self.timed(|a| a.on_start(now, api));
    }
    fn on_response_complete(
        &mut self,
        now: Time,
        conn: ConnId,
        req: ReqId,
        api: &mut dyn TransportApi,
    ) {
        self.timed(|a| a.on_response_complete(now, conn, req, api));
    }
    fn on_timer(&mut self, now: Time, token: u64, api: &mut dyn TransportApi) {
        self.timed(|a| a.on_timer(now, token, api));
    }
}
