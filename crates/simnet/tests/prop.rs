//! Property tests for the link model: FIFO delivery, queue conservation and
//! latency bounds must hold for arbitrary traffic patterns.
//!
//! Run under `testkit::prop`; replay a failure with `TESTKIT_SEED=<n>`.

use std::time::Duration;

use simnet::{DeliveryQueue, Engine, EventQueue, Link, LinkConfig, Model, Time, Verdict};
use testkit::prop::{check, vec_of};

#[test]
fn arrivals_are_fifo_for_any_traffic() {
    check(
        128,
        (1u32..100, 0u64..200, 0u64..50, vec_of((0u64..10_000, 200u32..1500), 1..200)),
        |(mbps, delay_ms, jitter_ms, offers)| {
            let mut cfg =
                LinkConfig::shaped(f64::from(mbps), Duration::from_millis(delay_ms), 256 * 1024);
            cfg.jitter_max = Duration::from_millis(jitter_ms);
            let mut link = Link::new(cfg, 42);
            let mut t = Time::ZERO;
            let mut last_arrival = Time::ZERO;
            for (gap_us, bytes) in offers {
                t += Duration::from_micros(gap_us);
                if let Verdict::Deliver { arrival } = link.enqueue(t, bytes) {
                    assert!(arrival >= last_arrival, "FIFO violated");
                    assert!(arrival >= t, "arrival before send");
                    last_arrival = arrival;
                }
            }
        },
    );
}

#[test]
fn accepted_plus_dropped_equals_offered() {
    check(128, (1u32..20, 4u64..64, vec_of(500u32..1500, 1..300)), |(mbps, queue_kb, offers)| {
        let mut link = Link::new(
            LinkConfig::shaped(f64::from(mbps), Duration::from_millis(10), queue_kb * 1024),
            7,
        );
        let n = offers.len() as u64;
        let mut delivered = 0u64;
        for bytes in offers {
            // All at t=0: worst-case burst into the queue.
            if matches!(link.enqueue(Time::ZERO, bytes), Verdict::Deliver { .. }) {
                delivered += 1;
            }
        }
        let stats = link.stats();
        assert_eq!(stats.delivered_pkts, delivered);
        assert_eq!(stats.delivered_pkts + stats.dropped_queue, n);
    });
}

#[test]
fn latency_bounded_by_queue_plus_serialization() {
    check(128, (1u32..50, 8u64..128, 200u32..1500), |(mbps, queue_kb, bytes)| {
        // A packet accepted at time t arrives no later than
        // t + (queue + own size)/rate + propagation (no jitter configured).
        let prop_delay = Duration::from_millis(20);
        let mut link =
            Link::new(LinkConfig::shaped(f64::from(mbps), prop_delay, queue_kb * 1024), 1);
        // Pre-fill the queue.
        for _ in 0..200 {
            link.enqueue(Time::ZERO, 1500);
        }
        if let Verdict::Deliver { arrival } = link.enqueue(Time::ZERO, bytes) {
            let max_backlog_bits = (queue_kb * 1024 + u64::from(bytes)) * 8;
            let bound = Duration::from_secs_f64(max_backlog_bits as f64 / (f64::from(mbps) * 1e6))
                + prop_delay
                + Duration::from_millis(1);
            assert!(arrival <= Time::ZERO + bound, "arrival {arrival:?} beyond bound {bound:?}");
        }
    });
}

/// Offer schedule shared by both scheduling strategies below:
/// `(link index, wire bytes)` per offer id, offers pre-scheduled on the heap.
type Offers = Vec<(usize, u32)>;

fn make_links(mbps: (u32, u32), jitter_ms: u64) -> Vec<Link> {
    [(mbps.0, 11u64), (mbps.1, 22u64)]
        .into_iter()
        .map(|(m, seed)| {
            let mut cfg = LinkConfig::shaped(f64::from(m), Duration::from_millis(15), 96 * 1024);
            cfg.jitter_max = Duration::from_millis(jitter_ms);
            Link::new(cfg, seed)
        })
        .collect()
}

/// Reference semantics: every delivery is its own heap entry.
struct AllHeap {
    links: Vec<Link>,
    offers: Offers,
    delivered: Vec<(Time, u32)>,
}

enum RefEv {
    Offer(u32),
    Deliver(u32),
}

impl Model for AllHeap {
    type Event = RefEv;
    fn handle(&mut self, now: Time, ev: RefEv, q: &mut EventQueue<RefEv>) {
        match ev {
            RefEv::Offer(id) => {
                let (link, bytes) = self.offers[id as usize];
                if let Verdict::Deliver { arrival } = self.links[link].enqueue(now, bytes) {
                    q.schedule(arrival, RefEv::Deliver(id));
                }
            }
            RefEv::Deliver(id) => self.delivered.push((now, id)),
        }
    }
}

/// Coalesced semantics: per-link [`DeliveryQueue`] with one wakeup in the
/// heap, seqs reserved at the moment the reference would have scheduled.
struct Coalesced {
    links: Vec<Link>,
    inflight: Vec<DeliveryQueue<u32>>,
    offers: Offers,
    delivered: Vec<(Time, u32)>,
}

enum CoalEv {
    Offer(u32),
    Wake(u32),
}

impl Model for Coalesced {
    type Event = CoalEv;
    fn handle(&mut self, now: Time, ev: CoalEv, q: &mut EventQueue<CoalEv>) {
        match ev {
            CoalEv::Offer(id) => {
                let (link, bytes) = self.offers[id as usize];
                if let Verdict::Deliver { arrival } = self.links[link].enqueue(now, bytes) {
                    let seq = q.reserve_seq();
                    if let Some((at, s)) = self.inflight[link].push(arrival, seq, id) {
                        q.schedule_reserved(at, s, CoalEv::Wake(link as u32));
                    }
                }
            }
            CoalEv::Wake(link) => {
                if let Some((id, next)) = self.inflight[link as usize].pop() {
                    if let Some((at, s)) = next {
                        q.schedule_reserved(at, s, CoalEv::Wake(link));
                    }
                    self.delivered.push((now, id));
                }
            }
        }
    }
}

#[test]
fn coalesced_delivery_equals_all_heap_scheduling() {
    // The engine invariant behind mptcp's per-link delivery queues: parking
    // payloads in a FIFO with reserved seqs must reproduce the exact
    // (arrival time, payload) sequence of scheduling every delivery
    // individually — same ties, same interleaving across links, same
    // total event count.
    check(
        96,
        ((1u32..60, 1u32..60), 0u64..4, vec_of((0u64..2_000, 0u32..2, 100u32..1500), 1..250)),
        |(mbps, jitter_ms, pattern)| {
            let offers: Offers =
                pattern.iter().map(|&(_, link, bytes)| (link as usize, bytes)).collect();
            let mut offer_times = Vec::with_capacity(pattern.len());
            let mut t = Time::ZERO;
            for &(gap_us, _, _) in &pattern {
                t += Duration::from_micros(gap_us);
                offer_times.push(t);
            }

            let mut reference = Engine::new(AllHeap {
                links: make_links(mbps, jitter_ms),
                offers: offers.clone(),
                delivered: Vec::new(),
            });
            for (id, &at) in offer_times.iter().enumerate() {
                reference.queue_mut().schedule(at, RefEv::Offer(id as u32));
            }
            reference.run_until(Time::MAX);

            let mut coalesced = Engine::new(Coalesced {
                links: make_links(mbps, jitter_ms),
                inflight: (0..2).map(|_| DeliveryQueue::new()).collect(),
                offers,
                delivered: Vec::new(),
            });
            for (id, &at) in offer_times.iter().enumerate() {
                coalesced.queue_mut().schedule(at, CoalEv::Offer(id as u32));
            }
            coalesced.run_until(Time::MAX);

            assert_eq!(
                reference.model.delivered, coalesced.model.delivered,
                "coalesced scheduling reordered deliveries"
            );
            assert_eq!(reference.processed(), coalesced.processed());
        },
    );
}

#[test]
fn rate_changes_never_break_fifo() {
    check(128, vec_of(1u32..50, 2..10), |rates| {
        let mut link = Link::new(
            LinkConfig::shaped(f64::from(rates[0]), Duration::from_millis(10), 128 * 1024),
            3,
        );
        let mut last = Time::ZERO;
        let mut t = Time::ZERO;
        for (i, &r) in rates.iter().enumerate() {
            link.set_rate_bps(u64::from(r) * 1_000_000);
            for _ in 0..20 {
                t += Duration::from_micros(300 + i as u64);
                if let Verdict::Deliver { arrival } = link.enqueue(t, 1200) {
                    assert!(arrival >= last);
                    last = arrival;
                }
            }
        }
    });
}
