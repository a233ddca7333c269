//! Zero-cost-when-off observability for the MPTCP/ECF testbed.
//!
//! The paper's central claims are *mechanistic*: ECF outperforms minRTT
//! because it declines to use the slow subflow at specific moments. A
//! throughput number cannot confirm that mechanism — a decision log can.
//! This crate provides the plumbing:
//!
//! * [`TelemetryHandle`] — a cheap, cloneable handle threaded through the
//!   simulator, transport, and schedulers. A disabled handle (the default)
//!   holds no allocation and every emit is a single predictable
//!   `Option`-discriminant branch; an enabled one shares one sink — a
//!   bounded event ring that keeps the most recent events and counts the
//!   rest as [`TelemetryHandle::overflow`], plus the counters — behind a
//!   lock that one engine on one thread never contends.
//! * [`SchedDecision`] events carrying each scheduler verdict with its full
//!   inputs and typed provenance ([`ecf_core::Why`]), plus slim transport
//!   and link lifecycle events ([`EventKind`]).
//! * [`Counter`] — monotonic named counters, truthful even when the ring has
//!   wrapped. Recording an event bumps the counters its kind maps to; the
//!   rest are added by the layers that own them.
//! * [`export`] — deterministic JSONL serialization: same seed ⇒
//!   byte-identical trace files.
//!
//! Dependency position: only `ecf-core` below this crate; `simnet`, `mptcp`
//! and the experiment binaries sit above it. Events therefore timestamp with
//! raw nanoseconds (`t_ns`), not the simulator's clock type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
pub mod export;
mod ring;

pub use counters::Counter;
pub use event::{DropKind, Event, EventKind, LinkDir, PathObs, SchedDecision, MAX_PATHS};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ring::Ring;

/// Default event capacity when enabling telemetry. The longest in-tree
/// traced run, the full-effort `trace` spec (180 s at 0.3/8.6, ECF) at
/// seed 7, records 220 105 events; 2^20 keeps that run complete with
/// room to spare. The ring grows as events arrive, so a run touches memory
/// only for what it records (about 46 MB for that session).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Everything an enabled handle records.
#[derive(Debug)]
struct Sink {
    ring: Ring,
    counters: [u64; Counter::COUNT],
}

impl Sink {
    #[inline]
    fn record(&mut self, build: impl FnOnce() -> Event) {
        let (c, also) = self.ring.push_with(build).kind.counters();
        self.counters[c as usize] += 1;
        if let Some(c) = also {
            self.counters[c as usize] += 1;
        }
    }
}

/// Handle to a telemetry sink, or a no-op if disabled.
///
/// `Clone` is one `Arc` bump (or a copy of `None`); every component in the
/// stack holds its own handle. The disabled handle is the `Default`, so
/// plumbing telemetry through a constructor costs nothing for callers that
/// never ask for it.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Mutex<Sink>>>,
}

impl TelemetryHandle {
    /// The disabled handle: no allocation, every operation a no-op.
    pub fn off() -> TelemetryHandle {
        TelemetryHandle { inner: None }
    }

    /// An enabled handle with a 2^20-event ring, which keeps the longest
    /// in-tree traced run (the full-effort `trace` spec) complete.
    pub fn enabled() -> TelemetryHandle {
        TelemetryHandle::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled handle retaining up to `capacity` events (rounded up to a
    /// power of two, at least 1).
    pub fn with_capacity(capacity: usize) -> TelemetryHandle {
        let sink = Sink { ring: Ring::with_capacity(capacity), counters: [0; Counter::COUNT] };
        TelemetryHandle { inner: Some(Arc::new(Mutex::new(sink))) }
    }

    /// The sink, if enabled. A lock poisoned by a panicking holder is
    /// taken over as is: every update leaves the sink consistent (an event
    /// builder that panics changes nothing).
    #[inline]
    fn sink(&self) -> Option<MutexGuard<'_, Sink>> {
        self.inner.as_ref().map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether events are being recorded. Callers with non-trivial event
    /// construction cost (e.g. building a [`SchedDecision`]) should check
    /// this first and skip the work entirely when off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event at `t_ns` nanoseconds and bump its counters. No-op
    /// when disabled.
    #[inline]
    pub fn emit(&self, t_ns: u64, kind: EventKind) {
        self.emit_with(|| Event { t_ns, kind });
    }

    /// Record the event returned by `build` and bump its counters. No-op
    /// when disabled. The closure runs only when enabled and its result is
    /// written straight into the ring slot — the cheapest way to emit a
    /// large event like a [`SchedDecision`](EventKind::SchedDecision).
    // Always inlined: left to itself the compiler outlines this lock-holding
    // body, and the event is then built on the caller's stack and copied
    // with a `memcpy` call (about 2 ns more on `telemetry.push_ns`).
    #[inline(always)]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(mut sink) = self.sink() {
            sink.record(build);
        }
    }

    /// Add `n` to a counter. No-op when disabled.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(mut sink) = self.sink() {
            sink.counters[c as usize] += n;
        }
    }

    /// Raise a counter to `n` if it is currently lower (running maximum).
    /// No-op when disabled. Used for high-water marks like the per-sweep
    /// shard imbalance ratios, where the worst case matters, not the sum.
    #[inline]
    pub fn set_max(&self, c: Counter, n: u64) {
        if let Some(mut sink) = self.sink() {
            let v = &mut sink.counters[c as usize];
            *v = (*v).max(n);
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        self.sink().map_or(0, |s| s.counters[c as usize])
    }

    /// Snapshot of every [`Counter`], in stable report order (empty when
    /// disabled).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.sink().map_or_else(Vec::new, |s| {
            Counter::ALL.iter().map(|&c| (c.name(), s.counters[c as usize])).collect()
        })
    }

    /// Copy out the retained events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.sink().map_or_else(Vec::new, |s| s.ring.snapshot())
    }

    /// Events lost to ring wraparound (0 when disabled or nothing lost).
    pub fn overflow(&self) -> u64 {
        self.sink().map_or(0, |s| s.ring.overflow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rto(t_ns: u64) -> Event {
        Event { t_ns, kind: EventKind::Rto { conn: 0, path: 0 } }
    }

    #[test]
    fn off_handle_is_inert() {
        let h = TelemetryHandle::off();
        assert!(!h.is_enabled());
        h.emit(1, EventKind::Rto { conn: 0, path: 0 });
        h.add(Counter::Decisions, 1);
        h.set_max(Counter::ShardEvents, 9);
        assert_eq!(h.events().len(), 0);
        assert_eq!(h.counter(Counter::Decisions), 0);
        assert_eq!(h.counter(Counter::ShardEvents), 0);
        assert!(h.counters().is_empty());
        assert_eq!(h.overflow(), 0);
        // Default is off — constructors plumbed with `Default` stay no-op.
        assert!(!TelemetryHandle::default().is_enabled());
    }

    #[test]
    fn clones_share_the_sink() {
        let h = TelemetryHandle::with_capacity(16);
        let h2 = h.clone();
        h.emit(5, EventKind::Rto { conn: 0, path: 1 });
        h2.emit(6, EventKind::SubflowDown { conn: 0, path: 1 });
        assert_eq!(h.events().len(), 2);
        assert_eq!(h2.events().len(), 2);
        // `emit` counts by itself: one bump per event, on the kind's counter.
        assert_eq!(h2.counter(Counter::Rtos), 1);
        assert_eq!(h.counter(Counter::SubflowTransitions), 1);
        assert_eq!(h.counter(Counter::Decisions), 0);
    }

    #[test]
    fn counters_survive_overflow() {
        let h = TelemetryHandle::with_capacity(2);
        for t in 0..5 {
            h.emit_with(|| rto(t));
        }
        let kept: Vec<u64> = h.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.counter(Counter::Rtos), 5);
    }

    #[test]
    fn set_max_is_a_running_maximum() {
        let h = TelemetryHandle::with_capacity(16);
        h.add(Counter::ShardEvents, 40);
        h.add(Counter::ShardEvents, 2);
        h.set_max(Counter::ShardEventsImbalancePermille, 1500);
        h.set_max(Counter::ShardEventsImbalancePermille, 1100);
        assert_eq!(h.counter(Counter::ShardEvents), 42);
        assert_eq!(h.counter(Counter::ShardEventsImbalancePermille), 1500);
        let snap = h.counters();
        assert_eq!(snap.len(), Counter::COUNT);
        assert_eq!(snap[0], ("decisions", 0));
    }

    #[test]
    fn concurrent_emits_through_clones_lose_nothing() {
        const PER_THREAD: u64 = 10_000;
        let h = TelemetryHandle::with_capacity(1 << 10);
        // All four start together, so their pushes interleave.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let (h, start) = (h.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        h.emit_with(|| rto(tid * 1_000_000 + i));
                    }
                });
            }
        });
        let events = h.events();
        assert_eq!(events.len() as u64 + h.overflow(), 4 * PER_THREAD);
        assert_eq!(events.len(), 1 << 10);
        assert_eq!(h.counter(Counter::Rtos), 4 * PER_THREAD);
        // Every retained event is intact, and each thread's survive in order.
        let mut last = [None; 4];
        for e in &events {
            assert!(matches!(e.kind, EventKind::Rto { conn: 0, path: 0 }));
            let (tid, i) = ((e.t_ns / 1_000_000) as usize, e.t_ns % 1_000_000);
            assert!(tid < 4 && i < PER_THREAD, "{}", e.t_ns);
            assert!(last[tid] < Some(i), "thread {tid} out of order");
            last[tid] = Some(i);
        }
    }

    #[test]
    fn a_poisoned_sink_keeps_recording() {
        let h = TelemetryHandle::with_capacity(16);
        let h2 = h.clone();
        let panicked = std::thread::spawn(move || {
            h2.emit_with(|| panic!("builder panics while the lock is held"))
        })
        .join();
        assert!(panicked.is_err());
        h.emit(1, EventKind::Rto { conn: 0, path: 0 });
        assert_eq!(h.events().len(), 1);
        assert_eq!(h.counter(Counter::Rtos), 1);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TelemetryHandle>();
    }
}
