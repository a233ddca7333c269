//! Hierarchical calendar-wheel future-event list.
//!
//! The [`EventQueue`] behind [`crate::Engine`]. PR 2 left the queue a
//! `BinaryHeap`, whose `O(log n)` push/pop and comparator cost dominate the
//! engine loop once many connections share one engine. This module replaces
//! it with a classic hashed hierarchical timing wheel (Varghese & Lauck):
//!
//! * Time is bucketed into quanta of `2^16` ns ≈ 65.5 µs. Level 0 has 256
//!   slots covering one quantum each (span ≈ 16.8 ms — RTT-scale delays land
//!   here directly); each higher level's slot covers the full span of the
//!   level below (level 1 ≈ 4.3 s for delayed-ACK/RTO timers, level 2 ≈ 18.3
//!   min, level 3 ≈ 78 h). Events beyond the total span go to an unsorted
//!   `overflow` list that is reconsidered only when the wheel drains — in
//!   practice only `Time::MAX`-style "never" sentinels live there.
//! * `schedule` is O(1): compute the level from the highest differing digit
//!   between the event's quantum index and the wheel cursor, push onto that
//!   slot's intrusive list (nodes live in a slab with an internal free list,
//!   so the steady state allocates nothing). Each event cascades down at
//!   most `LEVELS - 1` times before it is popped, so `pop` is amortized O(1).
//! * Occupancy bitmaps (one bit per slot) make "next non-empty slot" a
//!   masked `trailing_zeros` scan instead of a walk over 256 heads.
//!
//! # The `(time, seq)` determinism contract
//!
//! Pop order must stay **bit-identical** to the old heap: strictly ascending
//! `(time, seq)`, where `seq` is the insertion sequence number (also reserved
//! out-of-band via [`EventQueue::reserve_seq`] for the delivery-queue
//! coalescing protocol). Wheel slots are unordered, so ordering is
//! re-established at the last moment: when the cursor reaches a slot, the
//! slot is drained, sorted by `(time, seq)` (a handful of entries — one
//! 65.5 µs quantum's worth), and moved into the `ready` FIFO. `ready` always
//! holds *every* pending event earlier than `ready_horizon` (the cursor's
//! left edge), so a later `schedule`/`schedule_reserved` targeting an
//! already-drained quantum binary-inserts into `ready` at its `(time, seq)`
//! position and the global order is preserved exactly. `(time, seq)` keys are
//! unique, so "sorted" is a total order and two runs with the same inputs pop
//! the same sequence — the golden-digest tests pin this.
//!
//! # Scheduling into the past
//!
//! `schedule` with `at` earlier than the last popped event's time cannot be
//! honored — that instant has already been simulated. The old heap silently
//! accepted such entries and popped them "in the past" (tripping a
//! `debug_assert` in the engine only once already interleaved wrongly). The
//! wheel makes the contract explicit: a `debug_assert!` flags the bug in
//! debug builds, and release builds **clamp** `at` to the last popped time,
//! i.e. the event fires as soon as possible, after everything already
//! scheduled at that instant.

use std::collections::VecDeque;

use crate::time::Time;

/// log2 of the bucket quantum in nanoseconds (2^16 ns ≈ 65.5 µs).
const QUANTUM_BITS: u32 = 16;
/// log2 of the slot count per level (256 slots = one 8-bit digit each).
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; an event's relative delay beyond `SLOT_BITS * LEVELS`
/// quantum bits (≈ 78 hours) overflows to the unsorted far-future list.
const LEVELS: usize = 4;
/// Occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Null slab index (empty list / end of list).
const NIL: u32 = u32::MAX;

/// Slab node: one pending event plus an intrusive slot-list link.
struct Node<E> {
    at: Time,
    seq: u64,
    next: u32,
    /// `Some` while pending; taken on drain. The free list reuses `next`.
    event: Option<E>,
}

/// A deterministic future-event list (hierarchical calendar wheel).
///
/// Events at equal times are delivered in the order they were scheduled.
pub struct EventQueue<E> {
    /// Slab of pending nodes; freed nodes chain through `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Slot list heads, `LEVELS * SLOTS` flat (level-major).
    heads: Vec<u32>,
    /// One occupancy bit per slot.
    occ: [[u64; WORDS]; LEVELS],
    /// Events beyond the wheel span, unsorted; pulled back into the wheel
    /// once the cursor advances to within span of the earliest of them.
    overflow: Vec<u32>,
    /// Cached minimum quantum index in `overflow` (`u64::MAX` when empty).
    overflow_min_q: u64,
    /// Drained, `(time, seq)`-sorted events awaiting `pop`. Invariant: every
    /// pending event with `at < ready_horizon` is here; the wheel and
    /// `overflow` only hold events at or beyond the horizon.
    ready: VecDeque<(Time, u64, E)>,
    /// Reused sort buffer for slot drains.
    scratch: Vec<(Time, u64, E)>,
    /// Current wheel position in quantum units; never decreases, and never
    /// passes the quantum of a pending wheel event.
    cursor: u64,
    /// `cursor` expressed in nanoseconds (`cursor << QUANTUM_BITS`, saturating).
    ready_horizon: Time,
    /// Time of the last popped event; the clamp floor for new schedules.
    popped_horizon: Time,
    /// Inclusive upper bound for [`EventQueue::claim_dispatch`]; the engine
    /// sets it to the current `run_until` deadline so batched dispatches can
    /// never cross a co-sim window barrier.
    run_deadline: Time,
    len: usize,
    /// Sequence numbers handed out so far: the number of events ever
    /// scheduled.
    next_seq: u64,
    cascaded_total: u64,
    peak_len: usize,
    /// Cursor advances that crossed at least one empty quantum (diagnostic).
    ff_jumps: u64,
    /// Total simulated dead air the cursor jumped over, in ns (diagnostic).
    ff_skipped_ns: u64,
    /// Events dispatched via [`EventQueue::claim_dispatch`] (diagnostic).
    batch_claims: u64,
    /// Consecutive claims since the last real pop (resets on pop).
    claim_streak: u64,
    /// Longest observed batch: head pop plus its consecutive claims.
    batch_max: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the cursor at t=0.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; LEVELS * SLOTS],
            occ: [[0; WORDS]; LEVELS],
            overflow: Vec::new(),
            overflow_min_q: u64::MAX,
            ready: VecDeque::new(),
            scratch: Vec::new(),
            cursor: 0,
            ready_horizon: Time::ZERO,
            popped_horizon: Time::ZERO,
            run_deadline: Time::MAX,
            len: 0,
            next_seq: 0,
            cascaded_total: 0,
            peak_len: 0,
            ff_jumps: 0,
            ff_skipped_ns: 0,
            batch_claims: 0,
            claim_streak: 0,
            batch_max: 0,
        }
    }

    /// Return the queue to its pristine t=0 state while keeping every
    /// allocation: the node slab, slot-head table, overflow/ready/scratch
    /// buffers all retain their capacity and only their contents are
    /// dropped. This is the engine-reuse hook for sharded sweeps — a worker
    /// that runs many short simulations back to back pays the slab's growth
    /// once instead of once per shard.
    ///
    /// Diagnostics (`cascaded_total`, `peak_len`, and the
    /// fast-forward/batch counters) restart from zero: after a reset the
    /// queue is indistinguishable from [`EventQueue::new`] except for its
    /// capacity.
    pub fn reset(&mut self) {
        // Drop pending payloads and rebuild the free list over the whole
        // slab; chaining every slot is O(capacity), the same order of work
        // the drain that preceded a reset already did.
        self.free = NIL;
        for (i, n) in self.nodes.iter_mut().enumerate().rev() {
            n.event = None;
            n.next = self.free;
            self.free = i as u32;
        }
        self.heads.iter_mut().for_each(|h| *h = NIL);
        self.occ = [[0; WORDS]; LEVELS];
        self.overflow.clear();
        self.overflow_min_q = u64::MAX;
        self.ready.clear();
        self.scratch.clear();
        self.cursor = 0;
        self.ready_horizon = Time::ZERO;
        self.popped_horizon = Time::ZERO;
        self.run_deadline = Time::MAX;
        self.len = 0;
        self.next_seq = 0;
        self.cascaded_total = 0;
        self.peak_len = 0;
        self.ff_jumps = 0;
        self.ff_skipped_ns = 0;
        self.batch_claims = 0;
        self.claim_streak = 0;
        self.batch_max = 0;
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// `at` earlier than the time of the last popped event is a model bug:
    /// it trips a `debug_assert!` in debug builds and is clamped to that
    /// time in release builds (the event fires as soon as possible, ordered
    /// after everything already scheduled at that instant).
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.reserve_seq();
        self.insert(at, seq, event);
    }

    /// Allocate the next tie-break sequence number *without* inserting an
    /// entry.
    ///
    /// This is the coalescing hook (see [`crate::DeliveryQueue`]): a model
    /// that parks a delivery in a per-link FIFO instead of the queue reserves
    /// its seq at the moment the old code would have called [`schedule`],
    /// then materializes the entry later via [`schedule_reserved`]. Because
    /// the counter advances in exactly the same program order either way, the
    /// `(time, seq)` keys — and therefore the engine's total event order —
    /// are bit-identical to scheduling every delivery individually.
    ///
    /// [`schedule`]: EventQueue::schedule
    /// [`schedule_reserved`]: EventQueue::schedule_reserved
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Insert an event under a seq previously obtained from
    /// [`EventQueue::reserve_seq`]. Does not advance the counter. Applies
    /// the same past-time clamp as [`EventQueue::schedule`].
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.insert(at, seq, event);
    }

    fn insert(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(
            at >= self.popped_horizon,
            "event scheduled in the past: at {at:?} < last popped {:?}",
            self.popped_horizon
        );
        let at = at.max(self.popped_horizon);
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        // `q < cursor` ⟺ `at < ready_horizon`, but stays exact when the
        // horizon saturates at Time::MAX.
        let q = at.as_nanos() >> QUANTUM_BITS;
        if q >= self.cursor {
            // At or past the horizon: O(1) slot filing. The cursor only
            // ever moves in `advance` (and only while `ready` is empty),
            // never here — an insert that extended the horizon would force
            // every later insert into the gap to pay a sorted-buffer move
            // below, turning a dense burst into O(n) memmoves per schedule.
            let idx = self.alloc(at, seq, event);
            self.place(idx);
            return;
        }
        // Already-drained quantum: keep `ready` sorted. The engine only
        // schedules at or after `now`, which sits inside the drained
        // quantum, so these inserts target at most one quantum's worth of
        // pending events — the binary search + shift stays small.
        match self.ready.back() {
            Some(&(bt, bs, _)) if (bt, bs) > (at, seq) => {
                let pos = self.ready.partition_point(|e| (e.0, e.1) < (at, seq));
                self.ready.insert(pos, (at, seq, event));
            }
            _ => self.ready.push_back((at, seq, event)),
        }
    }

    /// Time of the next pending event, if any.
    ///
    /// Takes `&mut self` because peeking may advance the wheel cursor and
    /// drain the next slot into the sorted `ready` buffer; the observable
    /// state (pending set and pop order) is unchanged.
    pub(crate) fn peek_time(&mut self) -> Option<Time> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        self.ready.front().map(|e| e.0)
    }

    /// Remove and return the next (earliest `(time, seq)`) event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Remove and return the next event if its time is `<= deadline`;
    /// `None` when the queue is empty *or* the next event is later (callers
    /// distinguish via [`EventQueue::is_empty`]). This is the engine-loop
    /// primitive: one call replaces the peek-then-pop pair, so the ready
    /// front is located once per event instead of twice.
    ///
    /// The wheel walk is deadline-bounded: when every pending event lies
    /// beyond `deadline` the cursor fast-forwards at most to the earliest
    /// occupied slot and nothing is drained, so a queue holding only
    /// far-future events (e.g. `Time::MAX` "never" sentinels) costs O(levels
    /// × words) per call instead of a full cascade chase.
    pub(crate) fn pop_at_or_before(&mut self, deadline: Time) -> Option<(Time, E)> {
        if self.ready.is_empty() {
            if self.len == 0 {
                return None;
            }
            if !self.advance_within(deadline.as_nanos() >> QUANTUM_BITS) {
                return None;
            }
        }
        if self.ready.front().map(|e| e.0)? > deadline {
            return None;
        }
        let (at, _seq, event) = self.ready.pop_front()?;
        self.len -= 1;
        self.popped_horizon = at;
        self.claim_streak = 0;
        Some((at, event))
    }

    /// Set the inclusive time bound for [`EventQueue::claim_dispatch`]. The
    /// engine calls this on entry to `run_until` with the run deadline so a
    /// batched dispatch can never cross it — in co-simulation the window
    /// barrier `run_until(k·W)` must observe every event up to `k·W` and
    /// nothing later, batched or not.
    pub(crate) fn set_run_deadline(&mut self, deadline: Time) {
        self.run_deadline = deadline;
    }

    /// Attempt to dispatch the *reserved* key `(at, seq)` directly, without
    /// a schedule/pop round-trip through the wheel.
    ///
    /// Succeeds iff `at` is within the run deadline (the engine sets it to
    /// its current `run_until` deadline) **and** no pending event orders
    /// before `(at, seq)` — i.e. exactly when an unbatched engine's very
    /// next pop would have been this key. On success the queue state is as
    /// if the event had been filed via [`EventQueue::schedule_reserved`] and
    /// immediately popped: `popped_horizon` advances to `at` and the claim
    /// is counted in [`EventQueue::batch_deliveries`]. On failure nothing
    /// changes and the caller must `schedule_reserved` the event as usual.
    ///
    /// This is the batched-delivery primitive (see [`crate::DeliveryQueue`]):
    /// a model holding the next parked delivery for a link direction asks
    /// the queue whether anything else comes first, and if not dispatches it
    /// in the same handler activation. The check re-runs per delivery, so an
    /// event scheduled *by* a batched dispatch (an app timer, an ACK on the
    /// other path) correctly interrupts the batch.
    pub fn claim_dispatch(&mut self, at: Time, seq: u64) -> bool {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        debug_assert!(
            at >= self.popped_horizon,
            "claim in the past: at {at:?} < last popped {:?}",
            self.popped_horizon
        );
        if at > self.run_deadline {
            return false;
        }
        loop {
            if let Some(front) = self.ready.front() {
                if (front.0, front.1) < (at, seq) {
                    return false;
                }
                break;
            }
            if self.len == 0 {
                break;
            }
            // Drain up to the claim's quantum; a `false` return proves every
            // pending event sits in a strictly later quantum than `at`.
            if !self.advance_within(at.as_nanos() >> QUANTUM_BITS) {
                break;
            }
        }
        self.popped_horizon = at;
        self.batch_claims += 1;
        self.claim_streak += 1;
        self.batch_max = self.batch_max.max(self.claim_streak + 1);
        true
    }

    /// A lower bound on the time of the next pending event: exact when the
    /// next event is already drained into `ready`, otherwise the start of
    /// the earliest occupied wheel quantum (or the overflow minimum).
    /// `None` iff the queue is empty.
    ///
    /// Read-only — unlike [`EventQueue::pop`] this never moves the
    /// cursor or drains a slot, so a co-sim driver can poll every engine in
    /// a lockstep group without perturbing wheel state. The bound is safe
    /// for idle fast-forward: the true next event never fires before it.
    pub fn next_event_time(&self) -> Option<Time> {
        if let Some(front) = self.ready.front() {
            return Some(front.0);
        }
        if self.len == 0 {
            return None;
        }
        let mut q = u64::MAX;
        let cur0 = (self.cursor & (SLOTS as u64 - 1)) as usize;
        if let Some(s0) = self.next_occupied(0, cur0) {
            q = (self.cursor & !(SLOTS as u64 - 1)) | s0 as u64;
        } else {
            // Occupied higher-level slots lower-bound their contents by the
            // span start; scanning low levels first finds the earliest.
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let cur = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as usize;
                if let Some(sl) = self.next_occupied(level, cur) {
                    let keep = SLOT_BITS * (level as u32 + 1);
                    let c = if keep >= 64 {
                        (sl as u64) << shift
                    } else {
                        (self.cursor >> keep << keep) | ((sl as u64) << shift)
                    };
                    q = c.max(self.cursor);
                    break;
                }
            }
        }
        q = q.min(self.overflow_min_q);
        Some(Time::from_nanos(q.saturating_mul(1 << QUANTUM_BITS)))
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of slot cascades performed (events re-filed from a
    /// higher wheel level toward level 0). Diagnostic; each event cascades
    /// at most `LEVELS - 1` times, so this bounds the non-O(1) work done.
    pub fn cascaded_total(&self) -> u64 {
        self.cascaded_total
    }

    /// High-water mark of pending events (diagnostic).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Cursor advances that fast-forwarded over at least one empty quantum
    /// (diagnostic; dense workloads stay near zero).
    pub fn ff_jumps(&self) -> u64 {
        self.ff_jumps
    }

    /// Total simulated dead air the cursor jumped over, in nanoseconds
    /// (diagnostic).
    pub fn ff_skipped_ns(&self) -> u64 {
        self.ff_skipped_ns
    }

    /// Events dispatched via [`EventQueue::claim_dispatch`], i.e. deliveries
    /// that skipped the schedule/pop round-trip (diagnostic).
    pub fn batch_deliveries(&self) -> u64 {
        self.batch_claims
    }

    /// Longest observed dispatch batch — one popped wakeup plus its run of
    /// consecutive claims. Zero when batching never engaged (diagnostic).
    pub fn batch_max_len(&self) -> u64 {
        self.batch_max
    }

    // ---- internals ------------------------------------------------------

    fn alloc(&mut self, at: Time, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.nodes[idx as usize];
            self.free = n.next;
            n.at = at;
            n.seq = seq;
            n.next = NIL;
            n.event = Some(event);
            idx
        } else {
            assert!(self.nodes.len() < NIL as usize, "event queue slab full");
            self.nodes.push(Node { at, seq, next: NIL, event: Some(event) });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Unlink a node's payload and return the slot to the free list.
    fn release(&mut self, idx: u32) -> (Time, u64, E) {
        let n = &mut self.nodes[idx as usize];
        let ev = n.event.take().expect("releasing a free node");
        let out = (n.at, n.seq, ev);
        n.next = self.free;
        self.free = idx;
        out
    }

    fn set_cursor(&mut self, c: u64) {
        debug_assert!(c >= self.cursor, "wheel cursor went backwards");
        self.cursor = c;
        // Saturating: the quantum after Time::MAX's is the end of time.
        self.ready_horizon = Time::from_nanos(c.saturating_mul(1 << QUANTUM_BITS));
    }

    /// File a slab node (with `at >= ready_horizon`) into the wheel. O(1).
    fn place(&mut self, idx: u32) {
        let q = self.nodes[idx as usize].at.as_nanos() >> QUANTUM_BITS;
        debug_assert!(q >= self.cursor, "placing an event behind the cursor");
        let diff = q ^ self.cursor;
        let level = if diff == 0 { 0 } else { ((63 - diff.leading_zeros()) / SLOT_BITS) as usize };
        if level >= LEVELS {
            self.overflow_min_q = self.overflow_min_q.min(q);
            self.overflow.push(idx);
            return;
        }
        let slot = ((q >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let cell = level * SLOTS + slot;
        self.nodes[idx as usize].next = self.heads[cell];
        self.heads[cell] = idx;
        self.occ[level][slot / 64] |= 1u64 << (slot % 64);
    }

    /// Lowest occupied slot index `>= from` at `level`, via the bitmap.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let occ = &self.occ[level];
        let mut w = from / 64;
        let mut word = occ[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = occ[w];
        }
    }

    /// Advance the cursor to the next occupied slot and drain it — sorted —
    /// into `ready`. Precondition: `ready` is empty and `len > 0`, so at
    /// least one event is in the wheel or the overflow list.
    fn advance(&mut self) {
        let drained = self.advance_within(u64::MAX);
        debug_assert!(drained, "unbounded advance must drain");
    }

    /// Record a fast-forward: the cursor moved from `from` to its current
    /// position without draining anything in between.
    fn note_jump(&mut self, from: u64) {
        let skipped = self.cursor - from;
        if skipped > 0 {
            self.ff_jumps += 1;
            self.ff_skipped_ns += skipped.saturating_mul(1 << QUANTUM_BITS);
        }
    }

    /// Advance the cursor toward the next occupied slot and, if that slot
    /// can hold an event at or before quantum `limit_q`, drain it — sorted —
    /// into `ready` and return `true`. When every pending event provably
    /// lies in a quantum after `limit_q`, return `false` without draining:
    /// the cursor fast-forwards over empty quanta only (never past a pending
    /// event) and parks. Parking rules keep pop order intact:
    ///
    /// * At a level-0 slot of the current rotation the cursor may move right
    ///   up to the slot (all quanta before it are empty, no cascades due).
    /// * At a higher-level cascade candidate or the overflow list the cursor
    ///   stays put — stepping into a rotation without cascading its
    ///   newly-current slots would let later level-0 inserts pop ahead of
    ///   older events still filed above (the `enter_rotations` invariant).
    ///
    /// Precondition: `ready` is empty and `len > 0`.
    fn advance_within(&mut self, limit_q: u64) -> bool {
        debug_assert!(self.ready.is_empty());
        let entry = self.cursor;
        loop {
            // Pull the far-future list back in if the cursor caught up: an
            // overflow event now within the wheel span must be filed before
            // any slot scan, or a nearer wheel event could pop ahead of it.
            // The cached min makes the common case (no overflow, or still
            // far away) a single compare.
            if self.overflow_min_q >> (SLOT_BITS * LEVELS as u32)
                == self.cursor >> (SLOT_BITS * LEVELS as u32)
            {
                let far = std::mem::take(&mut self.overflow);
                self.overflow_min_q = u64::MAX;
                for idx in far {
                    self.place(idx); // re-files; far stragglers go back
                }
            }
            // Next occupied level-0 slot in the current rotation.
            let cur0 = (self.cursor & (SLOTS as u64 - 1)) as usize;
            if let Some(s0) = self.next_occupied(0, cur0) {
                let c = (self.cursor & !(SLOTS as u64 - 1)) | s0 as u64;
                self.set_cursor(c);
                self.note_jump(entry);
                if c > limit_q {
                    // Deadline-bounded: park at the occupied slot without
                    // draining it. Same rotation, so no cascades are due and
                    // the fast-forward over the empty prefix is safe.
                    return false;
                }
                self.drain_level0(s0);
                // Step past the drained slot. If that carries into a new
                // rotation at any level, eagerly cascade the slots that just
                // became current — otherwise later inserts targeting the new
                // rotation would file into level 0 while its older events
                // still sat one level up, and the scan would pop them out
                // of order.
                self.set_cursor(c + 1);
                if (c + 1) >> SLOT_BITS != c >> SLOT_BITS {
                    self.enter_rotations(c ^ (c + 1));
                }
                return true;
            }
            // Rotation exhausted: cascade the earliest occupied slot of the
            // lowest non-empty higher level down one level. Scanning low
            // levels first is correct because a level-l slot at or after the
            // cursor digit covers strictly earlier time than any occupied
            // level-(l+1) slot after its digit.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let cur = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as usize;
                if let Some(sl) = self.next_occupied(level, cur) {
                    let keep = SLOT_BITS * (level as u32 + 1);
                    let c = if keep >= 64 {
                        (sl as u64) << shift
                    } else {
                        (self.cursor >> keep << keep) | ((sl as u64) << shift)
                    };
                    debug_assert!(c >= self.cursor, "cascade moved cursor back");
                    if c.max(self.cursor) > limit_q {
                        // Everything pending sits at or beyond this slot's
                        // span start, past the limit. Park without moving —
                        // see the method doc for why the cursor must not
                        // enter an un-cascaded rotation.
                        return false;
                    }
                    self.set_cursor(c.max(self.cursor));
                    self.cascade(level, sl);
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Whole wheel span exhausted: jump the cursor to the earliest
            // far-future event; the refile at the top of the loop picks it
            // up on the next iteration.
            debug_assert!(!self.overflow.is_empty(), "len > 0 but nothing pending");
            if self.overflow_min_q > limit_q {
                // Only far-future events remain (e.g. Time::MAX sentinels);
                // don't chase them through the cascade chain.
                return false;
            }
            self.set_cursor(self.overflow_min_q.max(self.cursor));
        }
    }

    /// After the cursor carried into a new rotation at one or more levels
    /// (`changed` = old XOR new cursor), cascade each newly-current slot so
    /// its events are filed below before anything else happens at this
    /// position. Top-down: a level-3 cascade may fill level-2/1 slots, never
    /// a newly-current one (an event only files at level `l` when its
    /// level-`l` digit differs from the cursor's).
    fn enter_rotations(&mut self, changed: u64) {
        for level in (1..LEVELS).rev() {
            let shift = SLOT_BITS * level as u32;
            if (changed >> shift) & (SLOTS as u64 - 1) != 0 {
                let cur = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as usize;
                if self.occ[level][cur / 64] & (1u64 << (cur % 64)) != 0 {
                    self.cascade(level, cur);
                }
            }
        }
    }

    /// Drain level-0 slot `slot` into `ready` in `(time, seq)` order.
    fn drain_level0(&mut self, slot: usize) {
        debug_assert!(self.scratch.is_empty());
        let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
        self.occ[0][slot / 64] &= !(1u64 << (slot % 64));
        // Sparse workloads put one event per slot; skip the sort buffer.
        if idx != NIL && self.nodes[idx as usize].next == NIL {
            let entry = self.release(idx);
            self.ready.push_back(entry);
            return;
        }
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let entry = self.release(idx);
            self.scratch.push(entry);
            idx = next;
        }
        self.scratch.sort_unstable_by_key(|a| (a.0, a.1));
        self.ready.extend(self.scratch.drain(..));
    }

    /// Re-file every event in `(level, slot)` one level down (or lower).
    fn cascade(&mut self, level: usize, slot: usize) {
        let cell = level * SLOTS + slot;
        let mut idx = std::mem::replace(&mut self.heads[cell], NIL);
        self.occ[level][slot / 64] &= !(1u64 << (slot % 64));
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.nodes[idx as usize].next = NIL;
            self.place(idx);
            self.cascaded_total += 1;
            idx = next;
        }
    }
}

/// The pre-PR-5 `BinaryHeap` queue, kept as the ordering oracle for the
/// wheel's property tests: same API, trivially correct `(time, seq)` order.
#[cfg(test)]
pub mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::Time;

    struct Entry<E> {
        at: Time,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap; invert so the earliest (time, seq) pops first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// Reference event queue: a binary heap ordered by `(time, seq)`.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        last_popped: Time,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), next_seq: 0, last_popped: Time::ZERO }
        }

        pub fn schedule(&mut self, at: Time, event: E) {
            let seq = self.reserve_seq();
            self.schedule_reserved(at, seq, event);
        }

        pub fn reserve_seq(&mut self) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        }

        pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: E) {
            // Mirror the wheel's past-time clamp so the oracle agrees on it.
            let at = at.max(self.last_popped);
            self.heap.push(Entry { at, seq, event });
        }

        pub fn pop(&mut self) -> Option<(Time, u64, E)> {
            self.heap.pop().map(|e| {
                self.last_popped = e.at;
                (e.at, e.seq, e.event)
            })
        }

        /// Oracle for [`super::EventQueue::claim_dispatch`] (no run-deadline
        /// bound — the deadline clamp has its own deterministic tests):
        /// succeed iff no pending entry orders before `(at, seq)`.
        pub fn claim_dispatch(&mut self, at: Time, seq: u64) -> bool {
            if self.heap.peek().is_some_and(|e| (e.at, e.seq) < (at, seq)) {
                return false;
            }
            self.last_popped = at;
            true
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapQueue;
    use super::*;
    use std::time::Duration;

    /// Drain both queues fully and assert identical (time, event) pops.
    fn assert_pops_match(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>) {
        assert_eq!(wheel.len(), heap.len(), "pending-count mismatch");
        let mut n = 0u64;
        loop {
            let w = wheel.pop();
            let h = heap.pop().map(|(at, _seq, ev)| (at, ev));
            assert_eq!(w, h, "pop #{n} diverged");
            if w.is_none() {
                break;
            }
            n += 1;
        }
    }

    #[test]
    fn same_instant_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..10u64 {
            q.schedule(t, i);
        }
        for i in 0..10u64 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn spans_all_levels_and_overflow() {
        // One event per wheel level plus one beyond the span and one at
        // Time::MAX; pops must come back in time order.
        let delays_ns = [
            1u64,                          // level 0
            5 << QUANTUM_BITS,             // level 0, later slot
            300 << QUANTUM_BITS,           // level 1
            70_000u64 << QUANTUM_BITS,     // level 2
            18_000_000u64 << QUANTUM_BITS, // level 3
            1u64 << 52,                    // overflow
        ];
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (i, &d) in delays_ns.iter().enumerate() {
            q.schedule(Time::from_nanos(d), i as u64);
            heap.schedule(Time::from_nanos(d), i as u64);
        }
        q.schedule(Time::MAX, 99);
        heap.schedule(Time::MAX, 99);
        assert_pops_match(&mut q, &mut heap);
    }

    #[test]
    fn schedule_into_drained_quantum_keeps_order() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(10);
        q.schedule(t, 0);
        q.schedule(Time::from_secs(1), 9);
        // Peeking drains the first slot into `ready`...
        assert_eq!(q.peek_time(), Some(t));
        // ...and a later schedule into that same (already drained) quantum
        // must still pop in (time, seq) order.
        q.schedule(t + Duration::from_nanos(1), 1);
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t + Duration::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((Time::from_secs(1), 9)));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "event scheduled in the past"))]
    fn schedule_in_past_is_flagged_and_clamped() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(10), 0);
        q.schedule(Time::from_millis(20), 1);
        assert_eq!(q.pop(), Some((Time::from_millis(10), 0)));
        // A model bug: schedule earlier than the last popped event. Debug
        // builds panic on the debug_assert above; release builds clamp to
        // the last popped time, firing after events already at that instant.
        q.schedule(Time::from_millis(3), 2);
        assert_eq!(q.pop(), Some((Time::from_millis(10), 2)));
        assert_eq!(q.pop(), Some((Time::from_millis(20), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_and_totals_track() {
        let mut q: EventQueue<u64> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::from_millis(1), 1);
        let s = q.reserve_seq();
        assert_eq!(q.len(), 1);
        q.schedule_reserved(Time::from_millis(2), s, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_seq, 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.next_seq, 2);
        assert!(q.peak_len() >= 2);
    }

    /// Random interleavings of schedule / reserve+schedule_reserved / pop
    /// with same-instant bursts and delays spanning every wheel level must
    /// pop bit-identically to the BinaryHeap reference.
    #[test]
    fn wheel_matches_heap_for_random_schedules() {
        use testkit::prop::{check, vec_of};

        // (op selector, delay selector, delay payload, burst size)
        check(256, vec_of((0u32..100, 0u32..6, 0u64..1 << 17, 1u32..4), 1..200), |ops| {
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut now = Time::ZERO;
            let mut next_ev = 0u64;
            // Reserved-but-unfilled seqs, filled by later ops (the
            // delivery-queue coalescing pattern).
            let mut parked: Vec<(u64, Time)> = Vec::new();

            for (op, dsel, draw, burst) in ops {
                // Delay distribution deliberately covers: same-instant
                // (0), sub-quantum, level 0/1/2 spans, and far-future
                // jumps past the whole wheel (rollover cascades).
                let delay_ns = match dsel {
                    0 => 0,
                    1 => draw & 0xFFFF,    // < 1 quantum
                    2 => draw,             // level 0/1
                    3 => draw << 14,       // level 1/2
                    4 => draw << 24,       // level 2/3
                    _ => (draw << 33) | 1, // deep rollover
                };
                let at = now + Duration::from_nanos(delay_ns);
                match op {
                    // Plain schedule, occasionally a same-time burst.
                    0..=49 => {
                        for _ in 0..burst {
                            wheel.schedule(at, next_ev);
                            heap.schedule(at, next_ev);
                            next_ev += 1;
                        }
                    }
                    // Reserve now, materialize later.
                    50..=64 => {
                        let sw = wheel.reserve_seq();
                        let sh = heap.reserve_seq();
                        assert_eq!(sw, sh);
                        parked.push((sw, at));
                    }
                    // Fill the oldest parked reservation.
                    65..=79 => {
                        if let Some((seq, t)) = parked.first().copied() {
                            parked.remove(0);
                            let t = t.max(now);
                            wheel.schedule_reserved(t, seq, seq << 32);
                            heap.schedule_reserved(t, seq, seq << 32);
                        }
                    }
                    // Pop one event; simulated time advances to it.
                    _ => {
                        let w = wheel.pop();
                        let h = heap.pop().map(|(t, _s, e)| (t, e));
                        assert_eq!(w, h, "pop diverged mid-run");
                        if let Some((t, _)) = w {
                            now = t;
                        }
                    }
                }
            }
            // Fill any leftover reservations, then drain both.
            for (seq, t) in parked {
                let t = t.max(now);
                wheel.schedule_reserved(t, seq, seq << 32);
                heap.schedule_reserved(t, seq, seq << 32);
            }
            assert_pops_match(&mut wheel, &mut heap);
        });
    }

    /// The batched-delivery flow against the heap oracle: random schedules
    /// interleaved with reserve → claim-or-fallback, covering past-clamp
    /// edges (parked time below the pop horizon), overflow-list residents
    /// (deep-rollover delays pending during claims), and zero-gap claims
    /// (`at == now`). Both queues must agree on every claim verdict and pop
    /// bit-identically afterwards.
    #[test]
    fn claims_match_heap_for_random_schedules() {
        use testkit::prop::{check, vec_of};

        check(256, vec_of((0u32..100, 0u32..6, 0u64..1 << 17, 1u32..4), 1..200), |ops| {
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut now = Time::ZERO;
            let mut next_ev = 0u64;
            // Parked reservations, claimed or materialized later.
            let mut parked: Vec<(u64, Time)> = Vec::new();
            let mut claims = 0u64;

            for (op, dsel, draw, burst) in ops {
                let delay_ns = match dsel {
                    0 => 0,
                    1 => draw & 0xFFFF,    // < 1 quantum
                    2 => draw,             // level 0/1
                    3 => draw << 14,       // level 1/2
                    4 => draw << 24,       // level 2/3
                    _ => (draw << 33) | 1, // deep rollover
                };
                let at = now + Duration::from_nanos(delay_ns);
                match op {
                    0..=39 => {
                        for _ in 0..burst {
                            wheel.schedule(at, next_ev);
                            heap.schedule(at, next_ev);
                            next_ev += 1;
                        }
                    }
                    40..=59 => {
                        let sw = wheel.reserve_seq();
                        let sh = heap.reserve_seq();
                        assert_eq!(sw, sh);
                        parked.push((sw, at));
                    }
                    // The DeliveryQueue pattern: try to dispatch the
                    // oldest parked key inline; on refusal file it the
                    // classic way. Clamping to `now` models a parked
                    // arrival whose wakeup time has already been popped
                    // past (the past-clamp edge; delay 0 gives the
                    // zero-gap `at == now` case).
                    60..=79 => {
                        if let Some((seq, t)) = parked.first().copied() {
                            parked.remove(0);
                            let t = t.max(now);
                            let w = wheel.claim_dispatch(t, seq);
                            let h = heap.claim_dispatch(t, seq);
                            assert_eq!(w, h, "claim verdict diverged");
                            if w {
                                now = t;
                                claims += 1;
                            } else {
                                wheel.schedule_reserved(t, seq, seq << 32);
                                heap.schedule_reserved(t, seq, seq << 32);
                            }
                        }
                    }
                    _ => {
                        let w = wheel.pop();
                        let h = heap.pop().map(|(t, _s, e)| (t, e));
                        assert_eq!(w, h, "pop diverged mid-run");
                        if let Some((t, _)) = w {
                            now = t;
                        }
                    }
                }
            }
            for (seq, t) in parked {
                let t = t.max(now);
                wheel.schedule_reserved(t, seq, seq << 32);
                heap.schedule_reserved(t, seq, seq << 32);
            }
            assert_eq!(wheel.batch_deliveries(), claims);
            assert_pops_match(&mut wheel, &mut heap);
        });
    }

    /// `reset` must zero the fast-forward / batching diagnostics and lift a
    /// run deadline left behind by the previous run — a recycled shard
    /// queue reporting a prior run's jumps (or refusing claims against a
    /// stale deadline) would corrupt sweep telemetry and batching.
    #[test]
    fn reset_clears_ff_and_batch_diagnostics() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Provoke a fast-forward jump (far-apart events) and a claim.
        q.schedule(Time::from_nanos(100), 0);
        q.schedule(Time::from_secs(2), 1);
        while q.pop().is_some() {}
        let s = q.reserve_seq();
        assert!(q.claim_dispatch(Time::from_secs(3), s));
        q.set_run_deadline(Time::from_secs(4));
        assert!(q.ff_jumps() > 0, "setup never fast-forwarded");
        assert_eq!(q.batch_deliveries(), 1);
        assert!(q.batch_max_len() > 0);

        q.reset();
        assert_eq!(q.ff_jumps(), 0);
        assert_eq!(q.ff_skipped_ns(), 0);
        assert_eq!(q.batch_deliveries(), 0);
        assert_eq!(q.batch_max_len(), 0);
        assert_eq!(q.next_seq, 0);
        assert_eq!(q.cascaded_total(), 0);
        // The stale 4 s deadline must be gone: a fresh reservation claims
        // fine at 5 s on an empty queue.
        let s = q.reserve_seq();
        assert!(
            q.claim_dispatch(Time::from_secs(5), s),
            "reset left the previous run deadline in place"
        );
    }

    /// After `reset`, the queue behaves exactly like a fresh one (same pop
    /// order for the same schedule sequence) but keeps its slab capacity.
    #[test]
    fn reset_is_pristine_but_keeps_capacity() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Grow the slab across several levels, pop some, leave some pending.
        for i in 0..64u64 {
            q.schedule(Time::from_nanos(i * 77_777), i);
        }
        for _ in 0..20 {
            q.pop();
        }
        let cap = q.nodes.len();
        assert!(cap > 0);

        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_seq, 0);
        assert_eq!(q.peak_len(), 0);
        assert_eq!(q.nodes.len(), cap, "reset must keep the slab");

        // Replay a schedule sequence on the reset queue and on a fresh one;
        // pops (and the seq-sensitive same-instant order) must match.
        let mut fresh: EventQueue<u64> = EventQueue::new();
        let t = Time::from_millis(3);
        for i in 0..40u64 {
            let at = if i % 3 == 0 { t } else { Time::from_nanos(i * 99_999) };
            q.schedule(at, i);
            fresh.schedule(at, i);
        }
        loop {
            let a = q.pop();
            let b = fresh.pop();
            assert_eq!(a, b, "reset queue diverged from fresh queue");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.nodes.len(), cap, "replay within capacity must not grow");
    }

    /// A long chain of pops with re-schedules crossing every rotation
    /// boundary (the cascade path) stays sorted.
    #[test]
    fn rollover_chain_stays_sorted() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        // Steps sized to straddle level-0 (16.8ms) and level-1 (4.3s)
        // rotation boundaries repeatedly.
        let steps_ns = [60_000u64, 16_800_000, 120_000, 4_300_000_000, 65_537, 1 << 34];
        let mut t = Time::ZERO;
        for (i, &s) in steps_ns.iter().cycle().take(500).enumerate() {
            t += Duration::from_nanos(s);
            q.schedule(t, i as u32);
            heap.schedule(t, i as u32);
        }
        let mut wheel64: Vec<(Time, u32)> = Vec::new();
        while let Some(p) = q.pop() {
            wheel64.push(p);
        }
        let mut heap64: Vec<(Time, u32)> = Vec::new();
        while let Some((at, _, e)) = heap.pop() {
            heap64.push((at, e));
        }
        assert_eq!(wheel64, heap64);
        assert!(q.cascaded_total() > 0, "chain never exercised a cascade");
    }
}
