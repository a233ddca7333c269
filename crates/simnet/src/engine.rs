//! Discrete-event engine.
//!
//! The engine is deliberately minimal, in the spirit of event-driven stacks
//! like smoltcp: a model is a plain state machine that receives events and may
//! schedule more. Determinism comes from a strict ordering of the event queue
//! (a calendar wheel, see [`crate::wheel`]) — ties in time are broken by
//! insertion sequence number, so two runs with the same inputs pop events in
//! exactly the same order.

use crate::time::Time;
use crate::wheel::EventQueue;

/// A state machine driven by the [`Engine`].
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at simulated time `now`, scheduling any follow-ups
    /// through `sched`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut EventQueue<Self::Event>);
}

/// Outcome of [`Engine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained before the deadline.
    Drained,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The configured event budget was exhausted (runaway-model guard).
    BudgetExhausted,
}

/// Drives a [`Model`] until a deadline, the queue drains, or an event budget
/// is exhausted.
pub struct Engine<M: Model> {
    /// The model under simulation.
    pub model: M,
    queue: EventQueue<M::Event>,
    now: Time,
    processed: u64,
    /// Stop after this many events as a guard against runaway models.
    pub event_budget: u64,
}

impl<M: Model> Engine<M> {
    /// Wrap `model` with an empty event queue at t=0.
    pub fn new(model: M) -> Self {
        Engine::with_queue(model, EventQueue::new())
    }

    /// Wrap `model` with a recycled queue, resetting it to t=0 first. The
    /// queue keeps its slab capacity across the reset, so a worker running
    /// many short simulations (one engine allocation per worker, see
    /// [`EventQueue::reset`]) skips the per-run growth entirely.
    pub fn with_queue(model: M, mut queue: EventQueue<M::Event>) -> Self {
        queue.reset();
        Engine { model, queue, now: Time::ZERO, processed: 0, event_budget: u64::MAX }
    }

    /// Tear the engine down, recovering the queue for reuse by a later
    /// [`Engine::with_queue`]. Pending events are dropped with it.
    pub fn into_queue(self) -> EventQueue<M::Event> {
        self.queue
    }

    /// Current simulation time (time of the last handled event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events handled so far, including deliveries dispatched in
    /// batch via [`EventQueue::claim_dispatch`] — each claim stands for an
    /// event the unbatched engine would have popped, so this count (which
    /// feeds golden digests and bench throughput) is independent of whether
    /// batching engaged.
    pub fn processed(&self) -> u64 {
        self.processed + self.queue.batch_deliveries()
    }

    /// A lower bound on the time of the next pending event (`None` when the
    /// queue is drained). Read-only; see [`EventQueue::next_event_time`].
    /// Co-sim drivers use it to fast-forward over windows in which no group
    /// has anything to do.
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.next_event_time()
    }

    /// Read-only access to the queue, e.g. for diagnostics
    /// ([`EventQueue::cascaded_total`], [`EventQueue::peak_len`]).
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Access the queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Run until `deadline` (inclusive). Events scheduled exactly at the
    /// deadline are processed.
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        // Claims (batched dispatches inside model handlers) are bounded by
        // the same deadline as pops, so a batch can never cross a co-sim
        // window barrier.
        self.queue.set_run_deadline(deadline);
        loop {
            if self.processed + self.queue.batch_deliveries() >= self.event_budget {
                // Budget exhaustion only reports when another event would
                // actually have run before the deadline.
                return match self.queue.peek_time() {
                    None => RunOutcome::Drained,
                    Some(at) if at > deadline => {
                        self.now = deadline;
                        RunOutcome::DeadlineReached
                    }
                    Some(_) => RunOutcome::BudgetExhausted,
                };
            }
            // One combined queue operation per event instead of peek + pop.
            let Some((at, ev)) = self.queue.pop_at_or_before(deadline) else {
                if self.queue.is_empty() {
                    return RunOutcome::Drained;
                }
                self.now = deadline;
                return RunOutcome::DeadlineReached;
            };
            debug_assert!(at >= self.now, "event scheduled in the past");
            self.now = at;
            self.processed += 1;
            self.model.handle(at, ev, &mut self.queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Records the order events are seen in; re-schedules chains.
    struct Recorder {
        seen: Vec<(Time, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, sched: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            // Event 100 spawns a chain of two more.
            if ev == 100 {
                sched.schedule(now + Duration::from_millis(1), 101);
                sched.schedule(now + Duration::from_millis(1), 102);
            }
        }
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        let t = Time::from_millis(5);
        eng.queue_mut().schedule(t, 1);
        eng.queue_mut().schedule(t, 2);
        eng.queue_mut().schedule(t, 3);
        assert_eq!(eng.run_until(Time::MAX), RunOutcome::Drained);
        let evs: Vec<u32> = eng.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![1, 2, 3]);
    }

    #[test]
    fn time_ordering_dominates_insertion() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(Time::from_millis(9), 1);
        eng.queue_mut().schedule(Time::from_millis(3), 2);
        eng.run_until(Time::MAX);
        let evs: Vec<u32> = eng.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![2, 1]);
    }

    #[test]
    fn chained_events_run() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(Time::from_millis(1), 100);
        eng.run_until(Time::MAX);
        let evs: Vec<u32> = eng.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![100, 101, 102]);
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn deadline_stops_early() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(Time::from_millis(1), 1);
        eng.queue_mut().schedule(Time::from_millis(10), 2);
        let out = eng.run_until(Time::from_millis(5));
        assert_eq!(out, RunOutcome::DeadlineReached);
        assert_eq!(eng.model.seen.len(), 1);
        assert_eq!(eng.now(), Time::from_millis(5));
        // Resume to the end.
        assert_eq!(eng.run_until(Time::MAX), RunOutcome::Drained);
        assert_eq!(eng.model.seen.len(), 2);
    }

    #[test]
    fn deadline_inclusive() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(Time::from_millis(5), 7);
        assert_eq!(eng.run_until(Time::from_millis(5)), RunOutcome::Drained);
        assert_eq!(eng.model.seen.len(), 1);
    }

    #[test]
    fn recycled_queue_runs_like_fresh() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        eng.queue_mut().schedule(Time::from_millis(1), 100);
        eng.run_until(Time::MAX);
        let first = eng.model.seen.clone();

        // Recycle the queue into a second engine; the run must be
        // indistinguishable from the first.
        let queue = eng.into_queue();
        let mut eng2 = Engine::with_queue(Recorder { seen: vec![] }, queue);
        assert_eq!(eng2.now(), Time::ZERO);
        assert_eq!(eng2.processed(), 0);
        eng2.queue_mut().schedule(Time::from_millis(1), 100);
        eng2.run_until(Time::MAX);
        assert_eq!(eng2.model.seen, first);
    }

    /// The batching pattern: each event chains the next one 1 ms later and
    /// claims it inline when the queue allows (events stop at id 3).
    struct Claimer {
        seen: Vec<(Time, u32)>,
        claimed: u32,
    }

    impl Model for Claimer {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, q: &mut EventQueue<u32>) {
            let (mut now, mut ev) = (now, ev);
            loop {
                self.seen.push((now, ev));
                if ev >= 3 {
                    return;
                }
                let at = now + Duration::from_millis(1);
                let seq = q.reserve_seq();
                if q.claim_dispatch(at, seq) {
                    self.claimed += 1;
                    (now, ev) = (at, ev + 1);
                    continue;
                }
                q.schedule_reserved(at, seq, ev + 1);
                return;
            }
        }
    }

    #[test]
    fn claims_counted_in_processed() {
        let mut eng = Engine::new(Claimer { seen: vec![], claimed: 0 });
        eng.queue_mut().schedule(Time::from_millis(1), 0);
        assert_eq!(eng.run_until(Time::MAX), RunOutcome::Drained);
        let times: Vec<_> =
            eng.model.seen.iter().map(|&(t, e)| (t.as_nanos() / 1_000_000, e)).collect();
        assert_eq!(times, vec![(1, 0), (2, 1), (3, 2), (4, 3)]);
        assert_eq!(eng.model.claimed, 3, "empty queue must allow every claim");
        // One wheel pop + three claims: each claim stands for an event the
        // unbatched engine would have popped, so all four count.
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn run_deadline_clamps_claims() {
        let mut eng = Engine::new(Claimer { seen: vec![], claimed: 0 });
        eng.queue_mut().schedule(Time::from_millis(1), 0);
        // The 3 ms successor lies past the 2.5 ms window: the batch must
        // break there and fall back to a scheduled wakeup, exactly like the
        // unbatched engine stopping at the barrier.
        assert_eq!(eng.run_until(Time::from_micros(2_500)), RunOutcome::DeadlineReached);
        assert_eq!(eng.model.seen.len(), 2);
        assert_eq!(eng.model.claimed, 1);
        assert_eq!(eng.now(), Time::from_micros(2_500));
        // Resuming observes the parked event and re-batches the tail.
        assert_eq!(eng.run_until(Time::MAX), RunOutcome::Drained);
        assert_eq!(eng.model.seen.len(), 4);
        assert_eq!(eng.model.claimed, 2);
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn budget_guard() {
        struct Looper;
        impl Model for Looper {
            type Event = ();
            fn handle(&mut self, now: Time, _: (), sched: &mut EventQueue<()>) {
                sched.schedule(now + Duration::from_nanos(1), ());
            }
        }
        let mut eng = Engine::new(Looper);
        eng.event_budget = 1000;
        eng.queue_mut().schedule(Time::ZERO, ());
        assert_eq!(eng.run_until(Time::MAX), RunOutcome::BudgetExhausted);
        assert_eq!(eng.processed(), 1000);
    }
}
