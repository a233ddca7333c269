//! Receiver-side stream reassembly: per-stream in-order delivery with no
//! cross-stream head-of-line blocking.
//!
//! This is the structural difference to the MPTCP receiver
//! (`mptcp::Receiver`): there, a hole in the connection-level data sequence
//! stalls *every* response behind it; here each stream reorders
//! independently, so a lost chunk on stream 3 never delays stream 7. The
//! out-of-order delay recorded per chunk (time between a chunk's arrival
//! and the arrival of the packet that unblocked it) is therefore a
//! per-stream quantity, directly comparable to the MPTCP testbed's
//! connection-level OOO delays. Each stream holds its out-of-order chunks
//! in the same [`ReorderRing`] the MPTCP receiver reassembles with.

use std::time::Duration;

use mptcp::ReorderRing;
use simnet::Time;

/// One chunk released to the application, with its reordering delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredChunk {
    /// Stream the chunk belongs to.
    pub stream: u32,
    /// Chunk offset within the stream.
    pub chunk: u64,
    /// How long the chunk waited in the reorder buffer (zero when it
    /// arrived exactly in order).
    pub ooo_delay: Duration,
}

/// Reassembly state for one stream.
#[derive(Debug, Default)]
struct StreamRx {
    /// Total chunks the stream will carry; 0 until the stream is opened.
    total: u64,
    /// Next chunk offset the application expects.
    next: u64,
    /// Out-of-order chunks held for reassembly, keyed by `chunk - next`,
    /// valued by first-arrival time (duplicates keep the original
    /// timestamp).
    held: ReorderRing<Time>,
    /// Whether [`QuicReceiver::open_stream`] ran for this id.
    opened: bool,
}

/// The connection's receive side: per-stream reassembly plus the shared
/// flow-control budget advertised back to the sender.
///
/// Chunks are MSS-sized frames (the testbed's packetization unit); the
/// receive window is counted in chunks held out-of-order, mirroring how the
/// MPTCP model counts its window in segments.
#[derive(Debug)]
pub struct QuicReceiver {
    streams: Vec<StreamRx>,
    /// Total chunks across all streams currently held out of order.
    held_total: u64,
    /// Connection-level receive budget, in chunks.
    rwnd_chunks: u64,
}

impl QuicReceiver {
    /// A receiver advertising a `rwnd_chunks`-chunk connection window.
    pub fn new(rwnd_chunks: u64) -> Self {
        QuicReceiver { streams: Vec::new(), held_total: 0, rwnd_chunks }
    }

    /// Declare stream `stream` and its length. Must run before any of its
    /// chunks arrive; opening the same stream twice is a logic error.
    pub fn open_stream(&mut self, stream: u32, total_chunks: u64) {
        let i = stream as usize;
        if self.streams.len() <= i {
            self.streams.resize_with(i + 1, StreamRx::default);
        }
        let s = &mut self.streams[i];
        assert!(!s.opened, "stream {stream} opened twice");
        s.opened = true;
        s.total = total_chunks;
    }

    /// Process one arriving chunk. Chunks released to the application (the
    /// arrival itself when in order, plus any held chunks it unblocks) are
    /// appended to `out` in delivery order. Duplicates and out-of-range
    /// offsets are ignored.
    pub fn on_chunk(&mut self, now: Time, stream: u32, chunk: u64, out: &mut Vec<DeliveredChunk>) {
        let s = &mut self.streams[stream as usize];
        debug_assert!(s.opened, "chunk for unopened stream {stream}");
        if chunk < s.next || chunk >= s.total {
            return; // duplicate of delivered data, or junk past the end
        }
        if chunk == s.next {
            s.next += 1;
            s.held.advance_empty_head();
            out.push(DeliveredChunk { stream, chunk, ooo_delay: Duration::ZERO });
            // Drain the run of held chunks this arrival unblocked.
            while let Some(arrived) = s.held.take_head() {
                self.held_total -= 1;
                out.push(DeliveredChunk { stream, chunk: s.next, ooo_delay: now.since(arrived) });
                s.next += 1;
            }
        } else if s.held.insert(chunk - s.next, now) {
            self.held_total += 1;
        }
    }

    /// Has `stream` delivered every chunk it was opened with?
    pub fn stream_complete(&self, stream: u32) -> bool {
        let s = &self.streams[stream as usize];
        s.opened && s.next == s.total
    }

    /// Free receive window, in chunks: the advertised budget minus
    /// everything parked in reorder buffers.
    pub fn rwnd_free(&self) -> u64 {
        self.rwnd_chunks.saturating_sub(self.held_total)
    }

    /// Chunks currently held out of order, across all streams.
    pub fn held_chunks(&self) -> u64 {
        self.held_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn in_order_chunks_deliver_with_zero_delay() {
        let mut rx = QuicReceiver::new(64);
        rx.open_stream(0, 3);
        let mut out = Vec::new();
        for c in 0..3 {
            rx.on_chunk(t(c), 0, c, &mut out);
        }
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.ooo_delay == Duration::ZERO));
        assert!(rx.stream_complete(0));
        assert_eq!(rx.rwnd_free(), 64);
    }

    #[test]
    fn reordered_chunk_waits_and_reports_its_delay() {
        let mut rx = QuicReceiver::new(64);
        rx.open_stream(0, 3);
        let mut out = Vec::new();
        rx.on_chunk(t(0), 0, 0, &mut out);
        rx.on_chunk(t(10), 0, 2, &mut out); // held
        assert_eq!(out.len(), 1);
        assert_eq!(rx.held_chunks(), 1);
        assert_eq!(rx.rwnd_free(), 63);
        rx.on_chunk(t(25), 0, 1, &mut out); // unblocks chunk 2
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].ooo_delay, Duration::ZERO); // chunk 1 itself in order
        assert_eq!(out[2].chunk, 2);
        assert_eq!(out[2].ooo_delay, Duration::from_millis(15));
        assert!(rx.stream_complete(0));
    }

    #[test]
    fn no_cross_stream_head_of_line_blocking() {
        let mut rx = QuicReceiver::new(64);
        rx.open_stream(0, 2);
        rx.open_stream(1, 2);
        let mut out = Vec::new();
        rx.on_chunk(t(0), 0, 1, &mut out); // stream 0 blocked on chunk 0
        assert!(out.is_empty());
        rx.on_chunk(t(1), 1, 0, &mut out); // stream 1 flows regardless
        rx.on_chunk(t(2), 1, 1, &mut out);
        assert_eq!(out.len(), 2);
        assert!(rx.stream_complete(1));
        assert!(!rx.stream_complete(0));
    }

    #[test]
    fn duplicates_are_ignored_and_keep_first_arrival_time() {
        let mut rx = QuicReceiver::new(64);
        rx.open_stream(0, 2);
        let mut out = Vec::new();
        rx.on_chunk(t(5), 0, 1, &mut out); // held at t=5
        rx.on_chunk(t(9), 0, 1, &mut out); // duplicate, no second hold
        assert_eq!(rx.held_chunks(), 1);
        rx.on_chunk(t(20), 0, 0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].ooo_delay, Duration::from_millis(15)); // from t=5
                                                                 // Duplicate of delivered data: silently dropped.
        rx.on_chunk(t(30), 0, 0, &mut out);
        assert_eq!(out.len(), 2);
    }
}
