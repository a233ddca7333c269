//! Shaped link model.
//!
//! A [`Link`] is one direction of a path: a droptail FIFO queue draining at a
//! configurable rate, followed by a fixed propagation delay (plus optional
//! bounded jitter). This is exactly the shape produced by the paper's `tc`
//! token-bucket regulation on the server egress: serialization at the shaped
//! rate, bufferbloat in the queue, then the physical path delay.
//!
//! The link is *passive*: `enqueue` computes the arrival time analytically and
//! the caller schedules the delivery event. Packets on a link never reorder
//! (arrival times are clamped monotonic), which mirrors a real FIFO pipe and
//! is what lets the TCP model detect loss purely from sequence gaps.

use std::collections::VecDeque;
use std::time::Duration;

use telemetry::{DropKind, EventKind, LinkDir, TelemetryHandle};
use testkit::Rng;

use crate::loss::LossModel;
use crate::time::Time;

/// Static configuration of one link direction.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Drain rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: Duration,
    /// Droptail queue capacity in bytes. Packets that would overflow it are
    /// dropped. Use a large value to model an effectively unbuffered pipe.
    pub queue_limit_bytes: u64,
    /// Maximum additional per-packet delay, drawn uniformly in
    /// `[0, jitter_max]`. Arrivals are clamped to stay FIFO.
    pub jitter_max: Duration,
}

impl LinkConfig {
    /// A link shaped to `mbps` with the given propagation delay and queue,
    /// no jitter.
    pub fn shaped(mbps: f64, prop_delay: Duration, queue_limit_bytes: u64) -> Self {
        LinkConfig {
            rate_bps: (mbps * 1e6) as u64,
            prop_delay,
            queue_limit_bytes,
            jitter_max: Duration::ZERO,
        }
    }

    /// An effectively unshaped reverse path: line-rate drain, generous queue.
    /// Used for the ACK direction, which the paper does not regulate.
    pub fn reverse(prop_delay: Duration) -> Self {
        LinkConfig {
            rate_bps: 1_000_000_000, // 1 Gbps
            prop_delay,
            queue_limit_bytes: 16 * 1024 * 1024,
            jitter_max: Duration::ZERO,
        }
    }
}

/// `mbps` in bits per second, as [`LinkConfig::shaped`] converts it, or an
/// error naming `key` when the rate is not finite or is below 1 bps. Every
/// loader of user-typed rates goes through this one rule: a smaller rate
/// truncates to a 0 bps link, which then runs at 1 bps and measures nothing.
pub fn rate_bps(mbps: f64, key: &str) -> Result<u64, String> {
    let bps = (mbps * 1e6) as u64;
    if mbps.is_finite() && bps >= 1 {
        Ok(bps)
    } else {
        Err(format!("{key:?} must be a rate of at least 1 bps, got {mbps} Mbps"))
    }
}

/// Result of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The packet will arrive at the far end at this time.
    Deliver {
        /// Arrival time at the far end of the link.
        arrival: Time,
    },
    /// Dropped: the droptail queue was full.
    DropQueue,
    /// Dropped: random loss.
    DropRandom,
}

/// Counters accumulated over the life of a link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets accepted and delivered.
    pub delivered_pkts: u64,
    /// Bytes accepted and delivered.
    pub delivered_bytes: u64,
    /// Packets dropped by queue overflow.
    pub dropped_queue: u64,
    /// Packets dropped by random loss.
    pub dropped_random: u64,
}

/// Initial slots of `Link::in_queue`; it doubles to its high-water mark.
const QUEUE_INIT: usize = 16;
/// Fractional bits of the serialization reciprocal (Q32 fixed point).
const RECIP_SHIFT: u32 = 32;
/// Nanoseconds of serialization per byte, numerator: 8 bits × 1e9 ns.
const BIT_NANOS_PER_BYTE: u128 = 8 * 1_000_000_000;

/// Precomputed `ceil(8e9 × 2^32 / rate)`: multiplying by wire bytes and
/// shifting right by [`RECIP_SHIFT`] approximates the serialization nanos
/// without the per-packet `u128` division (see [`Link::serialization`]).
fn serialization_recip(rate_bps: u64) -> u128 {
    let rate = u128::from(rate_bps.max(1));
    (BIT_NANOS_PER_BYTE << RECIP_SHIFT).div_ceil(rate)
}

/// Exact serialization delay of `wire_bytes` at `rate_bps`:
/// `floor(bytes × 8e9 / rate)` nanoseconds — the same quantity a live
/// [`Link`] computes through its Q32 reciprocal. Exposed for *horizon math*:
/// conservative co-simulation derives its lookahead window from a
/// cross-boundary link's propagation delay plus this serialization floor,
/// and the window must be exact (an optimistic horizon would deliver a
/// boundary message into an engine's past).
pub fn serialization_nanos(rate_bps: u64, wire_bytes: u32) -> u64 {
    let exact = u128::from(wire_bytes) * BIT_NANOS_PER_BYTE / u128::from(rate_bps.max(1));
    u64::try_from(exact).unwrap_or(u64::MAX)
}

/// One direction of a network path. See the module docs.
pub struct Link {
    cfg: LinkConfig,
    /// Completion time of the serialization of the last accepted packet.
    busy_until: Time,
    /// (serialization completion, size) of packets still occupying the queue.
    in_queue: VecDeque<(Time, u32)>,
    /// Bytes currently in `in_queue` (kept incrementally).
    queued_bytes: u64,
    /// Latest arrival handed out, for FIFO clamping under jitter.
    last_arrival: Time,
    /// Q32 nanos-per-byte reciprocal, recomputed on every rate change.
    recip_q32: u128,
    /// One-entry serialization memo `(wire_bytes, delay)`. Traffic on a link
    /// is dominated by a single packet size (MTU data forward, fixed-size
    /// ACKs reverse), so most enqueues skip the u128 reciprocal math.
    /// `(0, ZERO)` is always a valid entry; invalidated on rate change.
    ser_memo: (u32, Duration),
    /// Active random-loss process: none until a scenario sets one through
    /// [`Link::set_loss_model`].
    loss: LossModel,
    /// Gilbert–Elliott chain state (false = good). Meaningless for the
    /// other models.
    loss_bad_state: bool,
    /// True when the config has neither jitter nor random loss — the common
    /// case, which then skips the per-packet RNG branches entirely.
    deterministic: bool,
    rng: Rng,
    stats: LinkStats,
    /// Bytes offered since the last [`Link::take_offered_bytes`] — the
    /// windowed demand signal a co-simulation contention controller divides
    /// shared capacity by. Counted on every `enqueue`, drops included:
    /// demand on a bottleneck exists whether or not the packet survived.
    offered_bytes: u64,
    /// Telemetry sink (off by default) plus this link's trace identity.
    tel: TelemetryHandle,
    tel_path: u16,
    tel_dir: LinkDir,
}

impl Link {
    /// Create a link; `seed` drives jitter and random loss only.
    pub fn new(cfg: LinkConfig, seed: u64) -> Self {
        let recip_q32 = serialization_recip(cfg.rate_bps);
        let deterministic = cfg.jitter_max == Duration::ZERO;
        Link {
            cfg,
            busy_until: Time::ZERO,
            in_queue: VecDeque::with_capacity(QUEUE_INIT),
            queued_bytes: 0,
            last_arrival: Time::ZERO,
            recip_q32,
            ser_memo: (0, Duration::ZERO),
            loss: LossModel::None,
            loss_bad_state: false,
            deterministic,
            rng: Rng::seed_from_u64(seed),
            stats: LinkStats::default(),
            offered_bytes: 0,
            tel: TelemetryHandle::off(),
            tel_path: 0,
            tel_dir: LinkDir::Forward,
        }
    }

    /// Attach a telemetry sink; drops on this link will be reported as
    /// `link_drop` events under the given path index and direction.
    pub fn attach_telemetry(&mut self, tel: TelemetryHandle, path: u16, dir: LinkDir) {
        self.tel = tel;
        self.tel_path = path;
        self.tel_dir = dir;
    }

    /// Current drain rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.cfg.rate_bps
    }

    /// Change the drain rate (models `tc` re-regulation / wild variation).
    ///
    /// Packets already accepted keep their computed departure times: a rate
    /// change affects subsequent arrivals only, so its effect settles within
    /// one queue drain. This is documented in DESIGN.md as an approximation.
    pub fn set_rate_bps(&mut self, rate_bps: u64) {
        self.cfg.rate_bps = rate_bps.max(1);
        self.recip_q32 = serialization_recip(self.cfg.rate_bps);
        self.ser_memo = (0, Duration::ZERO);
    }

    /// One-way propagation delay.
    pub fn prop_delay(&self) -> Duration {
        self.cfg.prop_delay
    }

    /// Update the propagation delay (wild RTT drift model).
    pub fn set_prop_delay(&mut self, d: Duration) {
        self.cfg.prop_delay = d;
    }

    /// Swap the random-loss process (scenario impairment hook). Resets the
    /// Gilbert–Elliott chain to the good state; the zero-loss/zero-jitter
    /// fast path is restored automatically when `model` can never drop.
    pub fn set_loss_model(&mut self, model: LossModel) {
        self.loss = model;
        self.loss_bad_state = false;
        self.deterministic = self.loss.is_none() && self.cfg.jitter_max == Duration::ZERO;
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Bytes offered to the link since the last call, resetting the
    /// accumulator — the per-window load report of a co-simulated shared
    /// bottleneck (see [`serialization_nanos`] for the matching horizon
    /// math). Plain-field accounting: reading it never perturbs the link.
    pub fn take_offered_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.offered_bytes)
    }

    /// Bytes currently waiting in (or being serialized out of) the queue.
    #[cfg(test)]
    fn queued_bytes(&mut self, now: Time) -> u64 {
        self.expire(now);
        self.queued_bytes
    }

    /// Give back the departure FIFO's spare capacity once the link has gone
    /// quiet: entries already departed by `now` are expired first (the next
    /// enqueue, at `now` or later, would expire them anyway), then the ring shrinks to what is left. Contents and order
    /// are kept, and a later enqueue grows the ring back, so no verdict or
    /// arrival time changes.
    pub(crate) fn release_buffers(&mut self, now: Time) {
        self.expire(now);
        self.in_queue.shrink_to_fit();
    }

    fn expire(&mut self, now: Time) {
        while let Some(&(dep, bytes)) = self.in_queue.front() {
            if dep <= now {
                self.in_queue.pop_front();
                self.queued_bytes -= u64::from(bytes);
            } else {
                break;
            }
        }
    }

    /// Serialization delay of `wire_bytes` at the current rate:
    /// `floor(bytes × 8e9 / rate)` nanoseconds, computed via the
    /// precomputed Q32 reciprocal instead of a `u128` division.
    ///
    /// The ceiling reciprocal overshoots by strictly less than
    /// `bytes / 2^32 ≤ 1`, so the candidate is at most `floor + 1` (+1 more
    /// only at the unreachable `bytes = 2^32` corner); one multiply-compare
    /// correction per excess unit restores the exact quotient, keeping every
    /// arrival time bit-identical to the division it replaces.
    fn serialization(&self, wire_bytes: u32) -> Duration {
        let exact_num = u128::from(wire_bytes) * BIT_NANOS_PER_BYTE;
        let mut nanos = (u128::from(wire_bytes) * self.recip_q32) >> RECIP_SHIFT;
        let rate = u128::from(self.cfg.rate_bps.max(1));
        while nanos * rate > exact_num {
            nanos -= 1;
        }
        debug_assert_eq!(nanos, exact_num / rate);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    #[cold]
    fn drop_event(&self, now: Time, kind: DropKind) {
        self.tel.emit(
            now.as_nanos(),
            EventKind::LinkDrop { path: self.tel_path, dir: self.tel_dir, kind },
        );
    }

    /// Offer a packet of `wire_bytes` to the link at time `now`.
    pub fn enqueue(&mut self, now: Time, wire_bytes: u32) -> Verdict {
        self.offered_bytes += u64::from(wire_bytes);
        self.expire(now);
        // Hot path: deterministic links (no loss, no jitter) skip both RNG
        // branches. The stochastic path below consumes the RNG in exactly
        // the order the flag-free code did (loss draw first, then jitter),
        // so seeded verdict sequences are unchanged — see the
        // `lossy_jittery_verdicts_match_golden` test.
        if !self.deterministic {
            let loss = self.loss;
            if loss.drop_packet(&mut self.loss_bad_state, &mut self.rng) {
                self.stats.dropped_random += 1;
                self.drop_event(now, DropKind::Random);
                return Verdict::DropRandom;
            }
        }
        if self.queued_bytes + u64::from(wire_bytes) > self.cfg.queue_limit_bytes {
            self.stats.dropped_queue += 1;
            self.drop_event(now, DropKind::Queue);
            return Verdict::DropQueue;
        }
        let start = self.busy_until.max(now);
        if self.ser_memo.0 != wire_bytes {
            self.ser_memo = (wire_bytes, self.serialization(wire_bytes));
        }
        let departure = start + self.ser_memo.1;
        self.busy_until = departure;
        self.in_queue.push_back((departure, wire_bytes));
        self.queued_bytes += u64::from(wire_bytes);

        let mut arrival = departure + self.cfg.prop_delay;
        if !self.deterministic && self.cfg.jitter_max > Duration::ZERO {
            let max = crate::time::dur_nanos(self.cfg.jitter_max);
            arrival += Duration::from_nanos(self.rng.gen_range(0..=max));
        }
        // FIFO: never hand out an arrival earlier than a previous one. The
        // batched-delivery protocol leans on this clamp: `DeliveryQueue`
        // parks arrivals in the order this method hands them out, and
        // `EventQueue::claim_dispatch` may fast-forward its pop horizon to
        // a parked head's `(time, seq)` — sound only because no later
        // enqueue on the same link can produce an earlier arrival.
        if arrival < self.last_arrival {
            arrival = self.last_arrival;
        }
        self.last_arrival = arrival;
        self.stats.delivered_pkts += 1;
        self.stats.delivered_bytes += u64::from(wire_bytes);
        Verdict::Deliver { arrival }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::GilbertElliott;

    const MTU: u32 = 1500;

    fn mk(mbps: f64, delay_ms: u64, queue: u64) -> Link {
        Link::new(LinkConfig::shaped(mbps, Duration::from_millis(delay_ms), queue), 1)
    }

    #[test]
    fn single_packet_latency() {
        // 1500B at 12 Mbps = 1 ms serialization + 10 ms prop.
        let mut l = mk(12.0, 10, 1_000_000);
        match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => assert_eq!(arrival, Time::from_millis(11)),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let mut l = mk(12.0, 10, 1_000_000);
        let a1 = match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => arrival,
            _ => unreachable!(),
        };
        let a2 = match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => arrival,
            _ => unreachable!(),
        };
        assert_eq!(a2 - a1, Duration::from_millis(1));
    }

    #[test]
    fn droptail_overflow() {
        // Queue fits exactly two MTU packets.
        let mut l = mk(1.0, 5, u64::from(MTU) * 2);
        assert!(matches!(l.enqueue(Time::ZERO, MTU), Verdict::Deliver { .. }));
        assert!(matches!(l.enqueue(Time::ZERO, MTU), Verdict::Deliver { .. }));
        assert_eq!(l.enqueue(Time::ZERO, MTU), Verdict::DropQueue);
        assert_eq!(l.stats().dropped_queue, 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = mk(12.0, 5, u64::from(MTU) * 2);
        l.enqueue(Time::ZERO, MTU);
        l.enqueue(Time::ZERO, MTU);
        assert_eq!(l.enqueue(Time::ZERO, MTU), Verdict::DropQueue);
        // After 1 ms the first packet has fully serialized out.
        assert!(matches!(l.enqueue(Time::from_millis(1), MTU), Verdict::Deliver { .. }));
    }

    #[test]
    fn released_queue_keeps_every_verdict() {
        // Two twins fed the same offers; one gives its FIFO back twice — once
        // mid-backlog, once long idle — and must answer every offer alike.
        let (mut a, mut b) = (mk(12.0, 5, u64::from(MTU) * 40), mk(12.0, 5, u64::from(MTU) * 40));
        let offers = (0..200u64).map(|i| Time::from_micros(i * 300 + (i / 50) * 40_000));
        for (i, t) in offers.enumerate() {
            if i == 60 || i == 150 {
                b.release_buffers(t);
                assert!(b.in_queue.capacity() <= a.in_queue.capacity());
            }
            assert_eq!(a.enqueue(t, MTU), b.enqueue(t, MTU), "offer {i}");
            assert_eq!(a.queued_bytes(t), b.queued_bytes(t), "offer {i}");
        }
        b.release_buffers(Time::from_secs(10));
        assert_eq!(b.in_queue.capacity(), 0, "a drained FIFO keeps no slots");
    }

    #[test]
    fn idle_link_resets_busy() {
        let mut l = mk(12.0, 10, 1_000_000);
        l.enqueue(Time::ZERO, MTU);
        // Long after the first packet, latency is again 11 ms end to end.
        let t = Time::from_secs(5);
        match l.enqueue(t, MTU) {
            Verdict::Deliver { arrival } => assert_eq!(arrival - t, Duration::from_millis(11)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rate_change_applies_to_new_packets() {
        let mut l = mk(12.0, 0, 10_000_000);
        l.set_rate_bps(1_200_000); // 10x slower
        match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => assert_eq!(arrival, Time::from_millis(10)),
            _ => unreachable!(),
        }
    }

    /// Pins the flush-at-old-rate contract scenario rate traces rely on:
    /// a mid-flight `set_rate_bps` must not retroactively reprice packets
    /// already accepted into the queue. Departures computed before the
    /// change stand; only packets offered *after* it see the new rate.
    #[test]
    fn rate_change_does_not_reprice_queued_packets() {
        // 12 Mbps: 1500B serializes in 1 ms.
        let mut l = mk(12.0, 0, 10_000_000);
        let a1 = match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => arrival,
            _ => unreachable!(),
        };
        let a2 = match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => arrival,
            _ => unreachable!(),
        };
        assert_eq!(a1, Time::from_millis(1));
        assert_eq!(a2, Time::from_millis(2));

        // Drop to 1.2 Mbps while both packets are still queued. Their
        // departures are already fixed; the next packet starts serializing
        // only after the old-rate backlog fully flushes at t = 2 ms.
        l.set_rate_bps(1_200_000);
        let a3 = match l.enqueue(Time::ZERO, MTU) {
            Verdict::Deliver { arrival } => arrival,
            _ => unreachable!(),
        };
        assert_eq!(a3, Time::from_millis(2) + Duration::from_millis(10));

        // The queue also drains on the old schedule: at t = 2 ms both
        // original packets are gone, not stretched out by the new rate.
        assert_eq!(l.queued_bytes(Time::from_millis(2)), u64::from(MTU));
    }

    /// Gilbert–Elliott with p(good→bad) = 0 never leaves the good state and
    /// must consume the RNG exactly like Bernoulli(loss_good): the full
    /// verdict sequences (drops, arrivals, jitter draws) are bit-identical.
    #[test]
    fn gilbert_elliott_degenerate_matches_bernoulli_bit_identically() {
        let run = |model: LossModel| {
            let mut cfg = LinkConfig::shaped(4.0, Duration::from_millis(12), 128 * 1024);
            cfg.jitter_max = Duration::from_millis(2);
            let mut l = Link::new(cfg, 4242);
            l.set_loss_model(model);
            (0..4_000u64)
                .map(|i| l.enqueue(Time::from_micros(i * 311), 80 + (i % 1420) as u32))
                .collect::<Vec<_>>()
        };
        let degenerate = LossModel::GilbertElliott(GilbertElliott {
            p_good_bad: 0.0,
            p_bad_good: 0.5,
            loss_good: 0.07,
            loss_bad: 1.0,
        });
        let ge = run(degenerate);
        let bern = run(LossModel::Bernoulli(0.07));
        assert_eq!(ge, bern);
        assert!(ge.iter().any(|v| matches!(v, Verdict::DropRandom)));
    }

    #[test]
    fn random_loss_rate_roughly_respected() {
        let cfg = LinkConfig::shaped(100.0, Duration::ZERO, u64::MAX);
        let mut l = Link::new(cfg, 42);
        l.set_loss_model(LossModel::Bernoulli(0.3));
        let mut dropped = 0;
        for i in 0..10_000 {
            if matches!(l.enqueue(Time::from_millis(i), 100), Verdict::DropRandom) {
                dropped += 1;
            }
        }
        assert!((2_500..3_500).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn jitter_preserves_fifo() {
        let mut cfg = LinkConfig::shaped(100.0, Duration::from_millis(10), u64::MAX);
        cfg.jitter_max = Duration::from_millis(5);
        let mut l = Link::new(cfg, 7);
        let mut last = Time::ZERO;
        for i in 0..1_000 {
            if let Verdict::Deliver { arrival } = l.enqueue(Time::from_micros(i * 50), MTU) {
                assert!(arrival >= last, "reordered at pkt {i}");
                last = arrival;
            }
        }
    }

    /// The Q32 reciprocal must reproduce `floor(bytes × 8e9 / rate)`
    /// exactly — arrival times feed the determinism goldens, so "close"
    /// is not good enough.
    #[test]
    fn reciprocal_serialization_matches_division_exactly() {
        let rates = [
            1u64,
            3,
            7,
            999,
            300_000,
            1_000_000,
            8_600_000,
            299_999_999,
            1_000_000_000,
            987_654_321_987,
            u64::MAX,
        ];
        let sizes = [0u32, 1, 40, 72, 300, 1499, 1500, 1540, 9000, 65_535, u32::MAX];
        for &rate in &rates {
            let mut cfg = LinkConfig::shaped(1.0, Duration::ZERO, u64::MAX);
            cfg.rate_bps = rate;
            let l = Link::new(cfg, 0);
            for &bytes in &sizes {
                let exact = (u128::from(bytes) * 8 * 1_000_000_000) / u128::from(rate.max(1));
                let expect = Duration::from_nanos(u64::try_from(exact).unwrap_or(u64::MAX));
                assert_eq!(l.serialization(bytes), expect, "rate={rate} bytes={bytes}");
            }
        }
    }

    /// Golden digest of the full verdict sequence for a lossy + jittery
    /// config, captured before the serialization-reciprocal and
    /// fast-path-hoist changes. Those optimizations must not disturb the
    /// RNG consumption order or any computed arrival time.
    #[test]
    fn lossy_jittery_verdicts_match_golden() {
        let mut cfg = LinkConfig::shaped(2.5, Duration::from_millis(15), 96 * 1024);
        cfg.jitter_max = Duration::from_millis(3);
        let mut l = Link::new(cfg, 2017);
        l.set_loss_model(LossModel::Bernoulli(0.05));
        let mut d: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |d: &mut u64, x: u64| {
            for b in x.to_le_bytes() {
                *d ^= u64::from(b);
                *d = d.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..5_000u64 {
            let v = l.enqueue(Time::from_micros(i * 431), 100 + (i % 1400) as u32);
            match v {
                Verdict::Deliver { arrival } => fold(&mut d, arrival.as_nanos()),
                Verdict::DropQueue => fold(&mut d, u64::MAX - 1),
                Verdict::DropRandom => fold(&mut d, u64::MAX),
            }
        }
        println!("lossy/jittery verdict digest: {d:#018x}");
        assert_eq!(d, 0xab2a_a11c_9c46_fcc3);
    }

    #[test]
    fn offered_bytes_counts_demand_including_drops() {
        let mut l = mk(1.0, 5, u64::from(MTU) * 2);
        l.enqueue(Time::ZERO, MTU);
        l.enqueue(Time::ZERO, MTU);
        assert_eq!(l.enqueue(Time::ZERO, MTU), Verdict::DropQueue);
        assert_eq!(l.take_offered_bytes(), u64::from(MTU) * 3);
        // The take resets the accumulator: next window counts fresh demand.
        assert_eq!(l.take_offered_bytes(), 0);
        l.enqueue(Time::from_secs(10), MTU);
        assert_eq!(l.take_offered_bytes(), u64::from(MTU));
    }

    #[test]
    fn serialization_floor_matches_link_math() {
        // The free helper must agree exactly with the Q32 path for any
        // (rate, size) — co-sim horizon math depends on it.
        for &rate in &[1u64, 999, 1_000_000, 8_600_000, 1_000_000_000] {
            let mut cfg = LinkConfig::shaped(1.0, Duration::ZERO, u64::MAX);
            cfg.rate_bps = rate;
            let l = Link::new(cfg, 0);
            for &bytes in &[1u32, 72, 300, 1500, 65_535] {
                assert_eq!(
                    Duration::from_nanos(super::serialization_nanos(rate, bytes)),
                    l.serialization(bytes),
                    "rate={rate} bytes={bytes}"
                );
            }
        }
        // Degenerate: an effectively infinite rate has a zero floor.
        assert_eq!(super::serialization_nanos(u64::MAX, 1500), 0);
    }

    #[test]
    fn drops_emit_telemetry_events() {
        let tel = TelemetryHandle::with_capacity(64);
        let mut l = mk(1.0, 5, u64::from(MTU) * 2);
        l.attach_telemetry(tel.clone(), 3, LinkDir::Forward);
        l.enqueue(Time::ZERO, MTU);
        l.enqueue(Time::ZERO, MTU);
        l.enqueue(Time::from_micros(7), MTU); // overflow → queue drop
        let evs = tel.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t_ns, 7_000);
        assert!(matches!(
            evs[0].kind,
            EventKind::LinkDrop { path: 3, dir: LinkDir::Forward, kind: DropKind::Queue }
        ));
        assert_eq!(tel.counter(telemetry::Counter::LinkDrops), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = LinkConfig::shaped(10.0, Duration::from_millis(10), u64::MAX);
        cfg.jitter_max = Duration::from_millis(2);
        let run = |seed| {
            let mut l = Link::new(cfg.clone(), seed);
            l.set_loss_model(LossModel::Bernoulli(0.01));
            (0..500).map(|i| l.enqueue(Time::from_micros(i * 777), MTU)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
