//! Per-link delivery coalescing.
//!
//! A [`crate::Link`] never reorders: arrival times handed out by
//! `Link::enqueue` are clamped monotonic (FIFO pipe). That invariant means
//! the global event heap never needs more than *one* pending delivery entry
//! per link direction — the head. Everything behind the head waits in a
//! [`DeliveryQueue`], a plain `VecDeque`, and is promoted when the head
//! fires. Per-packet cost drops from an `O(log n)` heap push/pop of a full
//! event entry to an `O(1)` deque push/pop, and the heap stays small, which
//! in turn makes the remaining heap operations cheaper.
//!
//! Determinism is preserved *exactly*, not just statistically: each parked
//! delivery carries a seq reserved from [`crate::EventQueue::reserve_seq`]
//! at the moment the all-heap design would have scheduled it, and the
//! wakeup entry is inserted with that seq via
//! [`crate::EventQueue::schedule_reserved`]. The heap therefore pops the
//! same `(time, seq)` keys in the same order as if every delivery had been
//! scheduled individually — proven by the golden-digest and property tests
//! (`crates/simnet/tests/prop.rs`, `crates/experiments/tests/golden.rs`).
//!
//! Protocol (the caller is the [`crate::Model`]):
//!
//! 1. On `Verdict::Deliver { arrival }`: reserve a seq, then
//!    [`DeliveryQueue::push`]. If it returns a `(time, seq)` pair, the
//!    queue was idle — schedule the wakeup under that reserved key.
//! 2. On the wakeup event: [`DeliveryQueue::pop`] the head payload and
//!    dispatch it, then *batch*: while the returned next `(time, seq)` key
//!    wins an [`crate::EventQueue::claim_dispatch`] (nothing else pending
//!    orders before it and the run deadline allows it), pop and dispatch it
//!    in the same handler activation; on the first refused claim, schedule
//!    the follow-up wakeup under that reserved key and stop.
//!
//! The batch loop is order-exact by construction: a claim succeeds only in
//! the precise state where the unbatched engine's next pop would have been
//! that wakeup, and the claim check re-runs after every dispatch so events
//! scheduled *by* a batched delivery (app timers, cross-path ACKs)
//! interrupt the batch just as they would have interleaved unbatched.
//! Pushes during a dispatch stay consistent too: while later entries remain
//! parked, `push` returns `None` (no wakeup to schedule), and once the
//! queue drains the next push correctly requests a fresh wakeup.

use std::collections::VecDeque;

use crate::time::Time;

/// A FIFO of in-flight deliveries for one link direction, of which only the
/// head has a wakeup entry in the engine's heap. See the module docs.
pub struct DeliveryQueue<P> {
    q: VecDeque<(Time, u64, P)>,
}

impl<P> Default for DeliveryQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> DeliveryQueue<P> {
    /// An empty queue.
    pub fn new() -> Self {
        DeliveryQueue { q: VecDeque::new() }
    }

    /// An empty queue with room for `cap` in-flight deliveries.
    pub fn with_capacity(cap: usize) -> Self {
        DeliveryQueue { q: VecDeque::with_capacity(cap) }
    }

    /// Park a delivery arriving at `arrival` under reserved seq `seq`.
    ///
    /// Returns `Some((arrival, seq))` when the queue was idle, i.e. the
    /// caller must now schedule the wakeup for this head; `None` when a
    /// wakeup is already in flight for an earlier delivery.
    #[must_use]
    pub fn push(&mut self, arrival: Time, seq: u64, payload: P) -> Option<(Time, u64)> {
        debug_assert!(
            self.q.back().is_none_or(|&(t, s, _)| t <= arrival && s < seq),
            "FIFO link handed out a reordered arrival"
        );
        let was_idle = self.q.is_empty();
        self.q.push_back((arrival, seq, payload));
        was_idle.then_some((arrival, seq))
    }

    /// Take the head payload on wakeup. Also returns the next head's
    /// `(arrival, seq)` when one is waiting — the caller must schedule its
    /// wakeup immediately, before acting on the payload.
    pub fn pop(&mut self) -> Option<(P, Option<(Time, u64)>)> {
        let (_, _, payload) = self.q.pop_front()?;
        Some((payload, self.q.front().map(|&(t, s, _)| (t, s))))
    }

    /// Number of parked deliveries (including the head).
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is in flight on this link direction.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Give back the spare capacity, keeping every parked delivery in
    /// order; the next push grows the ring back. Called once the
    /// connections on the link have drained, when it is usually empty.
    pub fn shrink_to_fit(&mut self) {
        self.q.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_reports_idle_transitions_only() {
        let mut dq = DeliveryQueue::new();
        assert_eq!(dq.push(Time::from_millis(1), 0, "a"), Some((Time::from_millis(1), 0)));
        assert_eq!(dq.push(Time::from_millis(2), 1, "b"), None);
        assert_eq!(dq.push(Time::from_millis(2), 2, "c"), None);
        assert_eq!(dq.len(), 3);
    }

    #[test]
    fn pop_returns_payloads_in_fifo_order_with_next_wakeup() {
        let mut dq = DeliveryQueue::new();
        let _ = dq.push(Time::from_millis(1), 0, 10);
        let _ = dq.push(Time::from_millis(3), 1, 20);
        assert_eq!(dq.pop(), Some((10, Some((Time::from_millis(3), 1)))));
        assert_eq!(dq.pop(), Some((20, None)));
        assert_eq!(dq.pop(), None);
        assert!(dq.is_empty());
    }

    #[test]
    fn idle_again_after_drain() {
        let mut dq = DeliveryQueue::new();
        let _ = dq.push(Time::from_millis(1), 0, ());
        let _ = dq.pop();
        // Drained: the next push must request a fresh wakeup.
        assert_eq!(dq.push(Time::from_millis(9), 5, ()), Some((Time::from_millis(9), 5)));
    }
}
