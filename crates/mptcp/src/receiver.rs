//! Receiver-side MPTCP model.
//!
//! Two levels of reassembly, exactly as in the kernel:
//!
//! 1. **Subflow level** — links are FIFO, so gaps within a subflow only come
//!    from drops; out-of-order subflow segments are buffered and duplicate
//!    ACKs generated until a retransmission fills the hole.
//! 2. **Connection (meta) level** — segments from different subflows
//!    interleave arbitrarily; the data-sequence reorder buffer holds them
//!    until the in-order prefix extends, which is where the paper's
//!    *out-of-order delay* is measured (delivery time − arrival time, per
//!    segment).
//!
//! Every data arrival produces one [`AckInfo`] carrying the subflow
//! cumulative ACK, the DATA_ACK, and the advertised receive window
//! (buffer capacity minus out-of-order segments held — the application
//! consumes in-order data immediately, as a streaming/browser client does).

use std::collections::VecDeque;
use std::time::Duration;

use simnet::Time;

use crate::persub::PerSub;
use crate::segment::{AckInfo, Segment, SubId};

/// Per-segment delivery record produced when the in-order prefix advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The data sequence number delivered.
    pub dsn: u64,
    /// How long it sat in the meta reorder buffer (0 for in-order arrivals).
    pub ooo_delay: Duration,
}

/// What processing one arriving data segment signals back, returned by
/// [`Receiver::on_segment_into`]; deliveries land in the caller's buffer.
#[derive(Debug, Clone, Copy)]
pub struct RxSignal {
    /// The ACK to send back on the arrival subflow now, if one is due.
    /// `None` when the ACK is delayed (RFC 1122) and rides the subflow's
    /// delayed-ACK timer.
    pub ack: Option<AckInfo>,
    /// True when the caller must start a delayed-ACK timer for this subflow:
    /// the ACK was delayed and no timer is outstanding. The receiver counts
    /// the timer as running from here until the caller reports it fired by
    /// calling [`Receiver::take_delayed_ack`].
    pub arm_delack: bool,
}

/// Lifetime receiver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// Segments accepted and eventually delivered.
    pub delivered_segs: u64,
    /// Meta-level duplicates discarded (reinjection copies).
    pub duplicate_segs: u64,
    /// Maximum occupancy ever seen in the meta reorder buffer.
    pub max_meta_buffered: u64,
}

/// A reorder buffer: a sparse ring of out-of-order arrivals, indexed by
/// their offset past the next in-order position (slot 0 ↔ the next
/// expected sequence number). The span a receiver may hold is dense and
/// bounded by its advertised window, so a ring gives O(1)
/// insert/contains/drain, allocation-free once it has grown to its
/// high-water width, where an ordered map paid a node walk and an
/// allocation per buffered entry — a measurable slice of the simulator's
/// per-packet budget on heterogeneous paths, where reordering is common.
///
/// Both reassembly levels of the MPTCP [`Receiver`] and every stream of the
/// QUIC receiver hold their out-of-order data in one of these.
///
/// Invariant between calls: slot 0 is empty (the owner drains the filled
/// prefix with [`ReorderRing::take_head`] after every in-order arrival).
#[derive(Debug, Clone)]
pub struct ReorderRing<T: Copy> {
    slots: VecDeque<Option<T>>,
    held: u64,
}

impl<T: Copy> Default for ReorderRing<T> {
    fn default() -> Self {
        ReorderRing { slots: VecDeque::new(), held: 0 }
    }
}

impl<T: Copy> ReorderRing<T> {
    /// Number of buffered (out-of-order) entries.
    pub fn len(&self) -> u64 {
        self.held
    }

    /// True when nothing is buffered (no open hole).
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Record `v` for the entry `offset` slots past the next in-order
    /// position. A duplicate keeps the first arrival and returns false.
    pub fn insert(&mut self, offset: u64, v: T) -> bool {
        let idx = offset as usize;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, None);
        }
        if self.slots[idx].is_some() {
            return false;
        }
        self.slots[idx] = Some(v);
        self.held += 1;
        true
    }

    /// Take the head slot's value if it is filled; leaves the ring alone
    /// when the head is a hole. The caller advances its next in-order
    /// position on `Some`.
    pub fn take_head(&mut self) -> Option<T> {
        match self.slots.front() {
            Some(Some(_)) => {
                let v = self.slots.pop_front().flatten();
                self.held -= 1;
                v
            }
            _ => None,
        }
    }

    /// Shift the ring base past an empty head slot: called when the next
    /// in-order position advances through an arrival that was never
    /// buffered.
    pub fn advance_empty_head(&mut self) {
        if let Some(front) = self.slots.pop_front() {
            debug_assert!(front.is_none(), "slot 0 must be empty between calls");
        }
    }

    /// Give back the spare slots, keeping every buffered entry at its
    /// offset; the next insert past the end grows the ring back.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
    }
}

/// Receive state of one subflow, kept together so an arrival touches one
/// run of memory instead of one heap chunk per field.
#[derive(Debug, Clone, Default)]
struct SubRx {
    /// Next expected ssn.
    next: u64,
    /// Out-of-order buffer: `(dsn, arrival)` per ssn past `next`. Subflow
    /// gaps only come from drops, so it is short-lived and narrow.
    buf: ReorderRing<(u64, Time)>,
    /// In-order segments not yet acknowledged (delayed-ACK state).
    pending_ack: u32,
    /// Whether the caller has a delayed-ACK timer outstanding.
    delack_armed: bool,
}

/// The connection receiver.
pub struct Receiver {
    rwnd_cap: u64,
    /// Per-subflow receive state.
    subs: PerSub<SubRx>,
    /// Total segments held across all subflow buffers, so the advertised
    /// window is O(1) to compute (it rides on every ACK).
    sub_held: u64,
    /// Next data sequence number expected in order.
    meta_next: u64,
    /// Meta reorder buffer: earliest arrival per dsn past `meta_next`.
    meta_buf: ReorderRing<Time>,
    stats: ReceiverStats,
}

impl Receiver {
    /// A receiver for `n_subflows` subflows with an `rwnd_cap`-segment
    /// reorder buffer.
    pub fn new(n_subflows: usize, rwnd_cap: u64) -> Self {
        Receiver {
            rwnd_cap,
            subs: PerSub::from_elem(SubRx::default(), n_subflows),
            sub_held: 0,
            meta_next: 0,
            meta_buf: ReorderRing::default(),
            stats: ReceiverStats::default(),
        }
    }

    /// Data sequence number up to which everything has been delivered.
    pub fn meta_next(&self) -> u64 {
        self.meta_next
    }

    /// Current advertised window (free reorder-buffer space). Segments held
    /// at either reassembly level occupy the buffer. O(1): both levels keep
    /// occupancy counters, and this is computed for every ACK sent.
    pub fn rwnd_free(&self) -> u64 {
        debug_assert_eq!(
            self.sub_held,
            self.subs.iter().map(|s| s.buf.len()).sum::<u64>(),
            "sub_held out of sync with the subflow rings"
        );
        self.rwnd_cap.saturating_sub(self.meta_buf.len() + self.sub_held)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Segments a receiver lets accumulate before acking (RFC 1122 allows
    /// one ACK per two full-size segments).
    const DELACK_SEGS: u32 = 2;

    /// Process a data segment arriving on `sub` at `now`, appending any
    /// newly deliverable segments to `delivered` (not cleared here).
    pub fn on_segment_into(
        &mut self,
        now: Time,
        sub: SubId,
        seg: Segment,
        delivered: &mut Vec<Delivered>,
    ) -> RxSignal {
        debug_assert!(sub < self.subs.len(), "unknown subflow {sub}");
        let mut duplicate = false;
        // Out-of-order, gap-filling and duplicate segments must be
        // acknowledged immediately (they feed dupack counting and recovery);
        // only the clean in-order case may be delayed.
        let mut ack_now = true;

        if seg.ssn == self.subs[sub].next {
            let rx = &mut self.subs[sub];
            let filled_gap = !rx.buf.is_empty();
            rx.next += 1;
            rx.buf.advance_empty_head();
            if seg.dsn == self.meta_next {
                // Fast path: in order at both levels. Deliver directly,
                // sparing the reorder buffer an insert/remove round trip.
                // The buffer never holds `meta_next` (the drain below
                // consumes the full prefix every call), so this is exactly
                // the admit-then-drain outcome: zero ooo delay, and the
                // same transient +1 in the peak-occupancy stat.
                delivered.push(Delivered { dsn: seg.dsn, ooo_delay: Duration::ZERO });
                self.meta_next += 1;
                self.meta_buf.advance_empty_head();
                self.stats.delivered_segs += 1;
                self.stats.max_meta_buffered =
                    self.stats.max_meta_buffered.max(self.meta_buf.len() + 1);
            } else {
                duplicate |= !self.admit_meta(seg.dsn, now);
            }
            // Drain any subflow-level buffered continuation.
            while let Some((dsn, arrival)) = self.subs[sub].buf.take_head() {
                self.sub_held -= 1;
                self.subs[sub].next += 1;
                self.admit_meta(dsn, arrival);
            }
            if !filled_gap && !duplicate {
                let rx = &mut self.subs[sub];
                rx.pending_ack += 1;
                ack_now = rx.pending_ack >= Self::DELACK_SEGS;
            }
        } else if seg.ssn > self.subs[sub].next {
            // Hole on this subflow (a drop): buffer and dup-ack. A second
            // copy of an already-buffered ssn keeps the first arrival.
            let rx = &mut self.subs[sub];
            if rx.buf.insert(seg.ssn - rx.next, (seg.dsn, now)) {
                self.sub_held += 1;
            }
        } else {
            // Old ssn: spurious subflow retransmission.
            duplicate = true;
        }

        // Deliver the extended in-order prefix at the meta level.
        while let Some(arrival) = self.meta_buf.take_head() {
            delivered.push(Delivered { dsn: self.meta_next, ooo_delay: now.since(arrival) });
            self.meta_next += 1;
            self.stats.delivered_segs += 1;
        }

        if duplicate {
            self.stats.duplicate_segs += 1;
        }
        let (ack, arm_delack) = if ack_now {
            self.subs[sub].pending_ack = 0;
            (Some(self.ack_info(sub)), false)
        } else {
            // A timer started for an earlier segment stays outstanding even
            // if that segment has since been acknowledged; it covers this
            // one too.
            (None, !std::mem::replace(&mut self.subs[sub].delack_armed, true))
        };
        RxSignal { ack, arm_delack }
    }

    /// Current cumulative ACK for `sub`.
    fn ack_info(&self, sub: SubId) -> AckInfo {
        AckInfo {
            sub_next_ssn: self.subs[sub].next,
            data_next_dsn: self.meta_next,
            rwnd_free: self.rwnd_free(),
        }
    }

    /// The delayed-ACK timer for `sub` fired (it is no longer outstanding):
    /// emit the pending cumulative ACK if any segments are still
    /// unacknowledged.
    pub fn take_delayed_ack(&mut self, sub: SubId) -> Option<AckInfo> {
        let rx = &mut self.subs[sub];
        rx.delack_armed = false;
        if rx.pending_ack > 0 {
            rx.pending_ack = 0;
            Some(self.ack_info(sub))
        } else {
            None
        }
    }

    /// Give back both reassembly levels' spare slots (see
    /// [`ReorderRing::shrink_to_fit`]); nothing buffered moves.
    pub(crate) fn release_buffers(&mut self) {
        for rx in self.subs.iter_mut() {
            rx.buf.shrink_to_fit();
        }
        self.meta_buf.shrink_to_fit();
    }

    /// Insert a dsn into the meta buffer unless already delivered/buffered.
    /// Returns false on duplicate.
    fn admit_meta(&mut self, dsn: u64, arrival: Time) -> bool {
        if dsn < self.meta_next || !self.meta_buf.insert(dsn - self.meta_next, arrival) {
            return false;
        }
        self.stats.max_meta_buffered = self.stats.max_meta_buffered.max(self.meta_buf.len());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(dsn: u64, ssn: u64) -> Segment {
        Segment { dsn, ssn }
    }

    /// One arrival through [`Receiver::on_segment_into`], with the
    /// segments it made deliverable.
    fn on_segment(
        rx: &mut Receiver,
        now: Time,
        sub: SubId,
        seg: Segment,
    ) -> (RxSignal, Vec<Delivered>) {
        let mut delivered = Vec::new();
        let sig = rx.on_segment_into(now, sub, seg, &mut delivered);
        (sig, delivered)
    }

    #[test]
    fn in_order_delivery_with_delayed_acks() {
        let mut rx = Receiver::new(1, 100);
        // First in-order segment: delivered, but the ACK is delayed.
        let (out, delivered) = on_segment(&mut rx, Time::from_millis(0), 0, seg(0, 0));
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].ooo_delay, Duration::ZERO);
        assert!(out.ack.is_none());
        assert!(out.arm_delack);
        // Second: the every-2-segments ACK fires.
        let (out, _) = on_segment(&mut rx, Time::from_millis(1), 0, seg(1, 1));
        let ack = out.ack.expect("ack every second segment");
        assert_eq!(ack.sub_next_ssn, 2);
        assert_eq!(ack.data_next_dsn, 2);
        assert_eq!(rx.stats().delivered_segs, 2);
    }

    #[test]
    fn delayed_ack_timer_flushes_pending() {
        let mut rx = Receiver::new(1, 100);
        on_segment(&mut rx, Time::from_millis(0), 0, seg(0, 0));
        let ack = rx.take_delayed_ack(0).expect("one segment pending");
        assert_eq!(ack.sub_next_ssn, 1);
        // Nothing pending afterwards.
        assert!(rx.take_delayed_ack(0).is_none());
    }

    #[test]
    fn one_delayed_ack_timer_outstanding_per_subflow() {
        let mut rx = Receiver::new(2, 100);
        assert!(on_segment(&mut rx, Time::from_millis(0), 0, seg(0, 0)).0.arm_delack);
        // The second segment is acknowledged at once; the timer started for
        // the first keeps running and covers the third.
        assert!(on_segment(&mut rx, Time::from_millis(1), 0, seg(1, 1)).0.ack.is_some());
        let (out, _) = on_segment(&mut rx, Time::from_millis(2), 0, seg(2, 2));
        assert!(out.ack.is_none() && !out.arm_delack);
        // The other subflow has its own timer.
        assert!(on_segment(&mut rx, Time::from_millis(3), 1, seg(3, 0)).0.arm_delack);
        // Once it fires, the next delayed ACK needs a new one.
        assert!(rx.take_delayed_ack(0).is_some());
        assert!(on_segment(&mut rx, Time::from_millis(4), 0, seg(4, 3)).0.arm_delack);
    }

    #[test]
    fn interleaved_subflows_meta_reordering() {
        let mut rx = Receiver::new(2, 100);
        // dsn 1 arrives first (on the fast subflow), dsn 0 later (slow).
        let (_, delivered) = on_segment(&mut rx, Time::from_millis(10), 1, seg(1, 0));
        assert!(delivered.is_empty());
        assert_eq!(rx.rwnd_free(), 99); // one segment parked

        let (_, delivered) = on_segment(&mut rx, Time::from_millis(60), 0, seg(0, 0));
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].dsn, 0);
        assert_eq!(delivered[0].ooo_delay, Duration::ZERO);
        assert_eq!(delivered[1].dsn, 1);
        // dsn 1 waited 50 ms in the reorder buffer.
        assert_eq!(delivered[1].ooo_delay, Duration::from_millis(50));
        assert_eq!(rx.meta_next(), 2);
        assert_eq!(rx.rwnd_free(), 100);
        // The delayed data-ack now reflects full delivery.
        let ack = rx.take_delayed_ack(0).expect("pending");
        assert_eq!(ack.data_next_dsn, 2);
    }

    #[test]
    fn subflow_hole_generates_immediate_dupacks() {
        let mut rx = Receiver::new(1, 100);
        on_segment(&mut rx, Time::from_millis(0), 0, seg(0, 0));
        // ssn 1 lost; ssn 2 and 3 arrive: both must ACK immediately with the
        // duplicate cumulative value (these drive fast retransmit).
        let (out, delivered) = on_segment(&mut rx, Time::from_millis(1), 0, seg(2, 2));
        assert_eq!(out.ack.expect("ooo acks immediately").sub_next_ssn, 1);
        assert!(delivered.is_empty());
        let (out, _) = on_segment(&mut rx, Time::from_millis(2), 0, seg(3, 3));
        assert_eq!(out.ack.expect("ooo acks immediately").sub_next_ssn, 1);
        // Retransmission of ssn 1 fills the hole → everything drains, ACK now.
        let (out, delivered) = on_segment(&mut rx, Time::from_millis(30), 0, seg(1, 1));
        let ack = out.ack.expect("gap fill acks immediately");
        assert_eq!(ack.sub_next_ssn, 4);
        assert_eq!(delivered.len(), 3);
        assert_eq!(ack.data_next_dsn, 4);
        // Buffered segments' ooo delay counts from their own arrival.
        assert_eq!(delivered[1].ooo_delay, Duration::from_millis(29));
    }

    #[test]
    fn meta_duplicate_from_reinjection_discarded() {
        let mut rx = Receiver::new(2, 100);
        // dsn 5 delayed on subflow 0... sender reinjects it on subflow 1.
        on_segment(&mut rx, Time::from_millis(5), 1, seg(5, 0));
        assert_eq!(rx.stats().duplicate_segs, 0);
        // Original copy arrives later on subflow 0 (ssn 0 there).
        let (out, _) = on_segment(&mut rx, Time::from_millis(50), 0, seg(5, 0));
        assert_eq!(rx.stats().duplicate_segs, 1);
        // Duplicates are acknowledged immediately; the subflow stream is
        // intact, so the cumulative ack advances.
        assert_eq!(out.ack.expect("dup acks immediately").sub_next_ssn, 1);
    }

    #[test]
    fn spurious_subflow_retransmission_ignored() {
        let mut rx = Receiver::new(1, 100);
        on_segment(&mut rx, Time::from_millis(0), 0, seg(0, 0));
        let (out, delivered) = on_segment(&mut rx, Time::from_millis(1), 0, seg(0, 0));
        assert_eq!(rx.stats().duplicate_segs, 1);
        assert_eq!(out.ack.expect("dup acks immediately").sub_next_ssn, 1);
        assert_eq!(delivered.len(), 0);
    }

    #[test]
    fn rwnd_shrinks_with_buffered_segments() {
        let mut rx = Receiver::new(2, 10);
        for i in 1..=10 {
            on_segment(&mut rx, Time::from_millis(i), 1, seg(i, i - 1));
        }
        assert_eq!(rx.rwnd_free(), 0);
        // Filling dsn 0 releases all 11.
        let (_, delivered) = on_segment(&mut rx, Time::from_millis(100), 0, seg(0, 0));
        assert_eq!(delivered.len(), 11);
        assert_eq!(rx.rwnd_free(), 10);
        // dsn 0 transits the buffer before the drain, so the peak is 11.
        assert_eq!(rx.stats().max_meta_buffered, 11);
    }

    #[test]
    fn two_subflow_streams_independent_ssn_spaces() {
        let mut rx = Receiver::new(2, 100);
        on_segment(&mut rx, Time::from_millis(0), 0, seg(0, 0));
        on_segment(&mut rx, Time::from_millis(1), 1, seg(1, 0));
        assert_eq!(rx.take_delayed_ack(0).expect("pending").sub_next_ssn, 1);
        let ack1 = rx.take_delayed_ack(1).expect("pending");
        assert_eq!(ack1.sub_next_ssn, 1); // subflow 1's own counter
        assert_eq!(ack1.data_next_dsn, 2);
    }
}
