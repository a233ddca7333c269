//! Property test: [`quic::QuicReceiver`] against a naive per-stream oracle
//! under arbitrary loss, reordering, and duplication.
//!
//! The oracle stores every stream as a plain `Vec<Option<Time>>` of
//! first-arrival times and rescans from the in-order frontier on each
//! arrival — obviously correct, O(n²), and structurally unlike the
//! receiver's BTreeMap reorder buffer, so a bug in either shows up as a
//! divergence. Inputs shrink through `testkit::prop` (a failure prints a
//! `TESTKIT_SEED=<n>` replay handle).

use std::time::Duration;

use quic::{DeliveredChunk, QuicReceiver};
use simnet::Time;
use testkit::prop::{check, vec_of, Gen};

/// Per-stream oracle: first-arrival times plus the delivery frontier.
struct OracleStream {
    total: u64,
    next: u64,
    arrived: Vec<Option<Time>>,
}

struct Oracle {
    streams: Vec<OracleStream>,
    rwnd_chunks: u64,
}

impl Oracle {
    fn new(totals: &[u64], rwnd_chunks: u64) -> Self {
        Oracle {
            streams: totals
                .iter()
                .map(|&t| OracleStream { total: t, next: 0, arrived: vec![None; t as usize] })
                .collect(),
            rwnd_chunks,
        }
    }

    fn on_chunk(&mut self, now: Time, stream: u32, chunk: u64, out: &mut Vec<DeliveredChunk>) {
        let s = &mut self.streams[stream as usize];
        if chunk >= s.total {
            return;
        }
        let slot = &mut s.arrived[chunk as usize];
        if slot.is_none() {
            *slot = Some(now);
        }
        // Deliver the longest contiguous run from the frontier. A chunk's
        // OOO delay is the gap between its own (first) arrival and the
        // arrival that unblocked it — zero for the unblocking chunk itself.
        while s.next < s.total {
            let Some(arrived) = s.arrived[s.next as usize] else { break };
            out.push(DeliveredChunk { stream, chunk: s.next, ooo_delay: now.since(arrived) });
            s.next += 1;
        }
    }

    /// Chunks arrived but undeliverable: held in the reorder buffer.
    fn held_total(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.arrived[s.next as usize..].iter().filter(|a| a.is_some()).count() as u64)
            .sum()
    }

    fn rwnd_free(&self) -> u64 {
        self.rwnd_chunks.saturating_sub(self.held_total())
    }

    fn stream_complete(&self, stream: u32) -> bool {
        let s = &self.streams[stream as usize];
        s.next == s.total
    }
}

/// A generated arrival: (stream index, chunk offset, time-delta ms).
/// Chunk offsets beyond a stream's length model duplicates/junk; repeated
/// (stream, chunk) pairs model duplicated packets.
type RawArrival = (usize, u64, u64);

fn arrivals() -> impl Gen<Value = Vec<RawArrival>> {
    vec_of((0usize..4, 0u64..24, 0u64..50), 0..160)
}

#[test]
fn receiver_matches_naive_oracle() {
    // Stream lengths are fixed per case shape; arrival schedules vary.
    let totals = [20u64, 1, 7, 13];
    check(400, arrivals(), |raw| {
        let mut rx = QuicReceiver::new(64);
        let mut oracle = Oracle::new(&totals, 64);
        for (i, &t) in totals.iter().enumerate() {
            rx.open_stream(i as u32, t);
        }
        let mut now_ms = 0u64;
        let mut got = Vec::new();
        let mut want = Vec::new();
        for &(stream, chunk, dt) in &raw {
            now_ms += dt;
            let now = Time::from_millis(now_ms);
            got.clear();
            want.clear();
            rx.on_chunk(now, stream as u32, chunk, &mut got);
            oracle.on_chunk(now, stream as u32, chunk, &mut want);
            assert_eq!(got, want, "delivery divergence at t={now_ms}ms");
            assert_eq!(rx.held_chunks(), oracle.held_total(), "held-chunk divergence");
            assert_eq!(rx.rwnd_free(), oracle.rwnd_free(), "rwnd divergence");
            for s in 0..totals.len() as u32 {
                assert_eq!(
                    rx.stream_complete(s),
                    oracle.stream_complete(s),
                    "completion divergence on stream {s}"
                );
            }
        }
    });
}

/// Feeding every chunk of every stream (in any generated order, with
/// duplicates) must complete all streams with no chunks left held.
#[test]
fn full_feed_always_completes() {
    let totals = [6u64, 3, 9];
    check(200, arrivals(), |raw| {
        let mut rx = QuicReceiver::new(64);
        for (i, &t) in totals.iter().enumerate() {
            rx.open_stream(i as u32, t);
        }
        let mut out = Vec::new();
        let mut now_ms = 0u64;
        // Generated (possibly partial) prefix...
        for &(stream, chunk, dt) in &raw {
            if stream >= totals.len() {
                continue;
            }
            now_ms += dt;
            rx.on_chunk(Time::from_millis(now_ms), stream as u32, chunk, &mut out);
        }
        // ...then a sweep of everything, in order.
        for (i, &t) in totals.iter().enumerate() {
            for c in 0..t {
                now_ms += 1;
                rx.on_chunk(Time::from_millis(now_ms), i as u32, c, &mut out);
            }
        }
        for s in 0..totals.len() as u32 {
            assert!(rx.stream_complete(s));
        }
        assert_eq!(rx.held_chunks(), 0);
        assert_eq!(rx.rwnd_free(), 64);
        let delivered: u64 = totals.iter().sum();
        assert_eq!(out.len() as u64, delivered, "each chunk delivered exactly once");
        assert!(out.iter().all(|d| d.ooo_delay >= Duration::ZERO));
    });
}
