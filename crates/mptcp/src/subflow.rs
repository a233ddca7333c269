//! Sender-side subflow: one TCP flow inside an MPTCP connection.
//!
//! Owns the congestion state ([`tcp_model::TcpCc`]), the retransmission
//! queue, duplicate-ACK accounting with NewReno-style recovery, and a lazy
//! RTO timer. Everything here is pure state-machine logic; actually placing
//! packets on links is the testbed's job, so this module is unit-testable in
//! isolation.

use std::collections::VecDeque;
use std::time::Duration;

use simnet::Time;
use tcp_model::{TcpCc, TcpConfig};

use crate::segment::{AckInfo, InflightSeg, Segment};

/// Duplicate ACKs that trigger fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;
/// Initial slots of the inflight deque; it doubles to its high-water mark.
const INFLIGHT_INIT: usize = 16;
/// `recovery_high` outside NewReno recovery.
const NO_RECOVERY: u64 = u64::MAX;

/// Lifetime counters for one subflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubflowStats {
    /// Segments handed to the link, including retransmissions/reinjections.
    pub segs_sent: u64,
    /// Retransmissions (fast retransmit + RTO).
    pub retransmits: u64,
    /// Reinjections of data originally sent on another subflow.
    pub reinjections: u64,
}

/// What an ACK did to the subflow; the connection applies window growth and
/// schedules any retransmission.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// Segments newly removed from the retransmission queue.
    pub newly_acked: u32,
    /// A segment to fast-retransmit now.
    pub fast_retx: Option<Segment>,
    /// True when the window was full at ACK arrival — growth is only applied
    /// when the flow was actually cwnd-limited (RFC 2861 spirit).
    pub was_cwnd_limited: bool,
    /// True when the flow is in loss recovery (no window growth).
    pub in_recovery: bool,
}

/// One subflow's sender state.
pub struct Subflow {
    /// Index of the `simnet` path this subflow rides on.
    pub path: usize,
    /// Congestion control machinery.
    pub cc: TcpCc,
    next_ssn: u64,
    snd_una: u64,
    /// Unacknowledged transmissions, ssns `snd_una..next_ssn` in order.
    inflight: VecDeque<InflightSeg>,
    dupacks: u32,
    /// Karn's rule for the front of `inflight`: it was retransmitted, so its
    /// ACK yields no RTT sample. Fast retransmit, partial ACK and RTO only
    /// ever retransmit the front, so no other entry can carry the mark.
    front_retransmitted: bool,
    /// NewReno recovery: highest ssn outstanding when loss was detected;
    /// recovery ends once it is cumulatively ACKed. [`NO_RECOVERY`] outside
    /// recovery.
    recovery_high: u64,
    /// Lazy RTO timer: the deadline moves on every ACK; at most one timer
    /// event is outstanding (tracked by the testbed via `rto_scheduled`).
    pub rto_deadline: Time,
    /// Whether an RTO event is currently scheduled.
    pub rto_scheduled: bool,
    /// Last time this subflow was penalized (rate-limits penalization to
    /// once per RTT, as in the Linux implementation).
    pub last_penalty: Time,
    /// False while the underlying path is down (handover, radio loss); the
    /// scheduler sees this via its snapshot and the send path skips it.
    pub usable: bool,
    /// Bytes queued in the path's forward droptail queue, sampled by the
    /// testbed just before each send opportunity. Pure observability: copied
    /// into [`ecf_core::PathSnapshot::queue_bytes`] for cross-layer
    /// (QAware-style) schedulers; nothing in-tree reads it yet.
    pub link_queue_bytes: u64,
    stats: SubflowStats,
}

impl Subflow {
    /// Create a subflow on `path`. `handshake_rtt` seeds the RTT estimator,
    /// standing in for the SYN/SYN-ACK measurement a real connection gets.
    /// `inflight_cap` is the most unacked segments the connection's meta
    /// buffers will ever let this subflow hold; it caps the inflight deque's
    /// *initial* capacity only — a ring cycles through every slot it owns,
    /// so reserving the bound would keep all of it resident (DESIGN.md §9).
    pub fn new(path: usize, tcp: TcpConfig, handshake_rtt: Duration, inflight_cap: usize) -> Self {
        let mut cc = TcpCc::new(tcp);
        cc.rtt.on_sample(handshake_rtt);
        Subflow {
            path,
            cc,
            next_ssn: 0,
            snd_una: 0,
            inflight: VecDeque::with_capacity(inflight_cap.min(INFLIGHT_INIT)),
            dupacks: 0,
            front_retransmitted: false,
            recovery_high: NO_RECOVERY,
            rto_deadline: Time::MAX,
            rto_scheduled: false,
            last_penalty: Time::ZERO,
            usable: true,
            link_queue_bytes: 0,
            stats: SubflowStats::default(),
        }
    }

    /// Segments currently unacknowledged.
    pub fn inflight_count(&self) -> u32 {
        self.inflight.len() as u32
    }

    /// True when one more segment fits in the congestion window.
    pub fn has_space(&self) -> bool {
        self.usable && self.inflight_count() < self.cc.cwnd_pkts()
    }

    /// All data sequence numbers currently unacknowledged here (drained for
    /// reinjection when the path dies).
    pub(crate) fn inflight_dsns(&self) -> impl Iterator<Item = u64> + '_ {
        self.inflight.iter().map(|s| s.dsn)
    }

    /// True while in NewReno loss recovery.
    fn in_recovery(&self) -> bool {
        self.recovery_high != NO_RECOVERY
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SubflowStats {
        self.stats
    }

    /// Give back the retransmission ring's spare slots, keeping every
    /// unacknowledged entry in order; the next send grows it back.
    pub(crate) fn release_buffers(&mut self) {
        self.inflight.shrink_to_fit();
    }

    /// True if any in-flight transmission on this subflow carries `dsn`.
    pub(crate) fn carries_dsn(&self, dsn: u64) -> bool {
        self.inflight.iter().any(|s| s.dsn == dsn)
    }

    /// Retransmit the front of the queue at `now`: Karn-mark it, restamp it
    /// and count it. Its ssn is `snd_una`.
    fn retransmit_front(&mut self, now: Time) -> Segment {
        let front = self.inflight.front_mut().expect("retransmit with nothing in flight");
        front.sent_at = now;
        self.front_retransmitted = true;
        self.stats.retransmits += 1;
        Segment { dsn: front.dsn, ssn: self.snd_una }
    }

    /// Register a fresh transmission of `dsn` at `now`; returns the segment
    /// (with its new ssn) for the caller to enqueue on the link, and updates
    /// the lazy RTO deadline.
    pub fn register_send(&mut self, now: Time, dsn: u64, reinjection: bool) -> Segment {
        debug_assert!(self.has_space(), "register_send without window space");
        let seg = Segment { dsn, ssn: self.next_ssn };
        self.next_ssn += 1;
        self.inflight.push_back(InflightSeg { dsn, sent_at: now });
        self.cc.note_send(now);
        self.stats.segs_sent += 1;
        if reinjection {
            self.stats.reinjections += 1;
        }
        self.rto_deadline = now + self.cc.rto();
        seg
    }

    /// Process a subflow-level cumulative ACK.
    pub fn on_ack(&mut self, now: Time, ack: &AckInfo) -> AckOutcome {
        let mut out = AckOutcome {
            was_cwnd_limited: self.inflight_count() >= self.cc.cwnd_pkts(),
            ..AckOutcome::default()
        };
        if ack.sub_next_ssn > self.snd_una {
            // Cumulative advance. The queue holds ssns `snd_una..next_ssn`,
            // so the ACK covers its first `sub_next_ssn - snd_una` entries.
            debug_assert!(ack.sub_next_ssn <= self.next_ssn, "ACK beyond the last ssn sent");
            let n = ((ack.sub_next_ssn - self.snd_una) as usize).min(self.inflight.len());
            out.newly_acked = n as u32;
            // Karn's rule applied to the whole cumulative jump: if this ACK
            // covers the retransmitted front, the un-retransmitted segments
            // it also covers were stalled behind the recovered hole and
            // their send-to-ack spans grossly overstate the path RTT. Else
            // the newest segment it covers gives the sample.
            let sample = (n > 0 && !self.front_retransmitted)
                .then(|| now.since(self.inflight[n - 1].sent_at));
            self.inflight.drain(..n);
            // The new front, if any, has not been retransmitted.
            self.front_retransmitted = false;
            self.snd_una = ack.sub_next_ssn;
            self.dupacks = 0;
            // Any cumulative advance proves the path is delivering again:
            // clear the exponential RTO backoff even when window growth is
            // suppressed (app-limited or in recovery).
            self.cc.clear_rto_backoff();
            if self.in_recovery() {
                if self.snd_una > self.recovery_high {
                    self.recovery_high = NO_RECOVERY;
                } else if !self.inflight.is_empty() {
                    // NewReno partial ACK: the cumulative point moved but is
                    // still inside the recovery window, so the new front is
                    // the next hole — retransmit it immediately rather than
                    // waiting out an RTO.
                    out.fast_retx = Some(self.retransmit_front(now));
                }
            }
            if let Some(sample) = sample {
                self.cc.rtt.on_sample(sample);
            }
            // Restart (or disarm) the lazy RTO.
            self.rto_deadline =
                if self.inflight.is_empty() { Time::MAX } else { now + self.cc.rto() };
        } else if ack.sub_next_ssn == self.snd_una && !self.inflight.is_empty() {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == DUPACK_THRESHOLD && !self.in_recovery() {
                self.recovery_high = self.next_ssn.saturating_sub(1);
                self.cc.on_fast_retransmit();
                out.fast_retx = Some(self.retransmit_front(now));
                self.rto_deadline = now + self.cc.rto();
            }
        }
        out.in_recovery = self.in_recovery();
        out
    }

    /// The lazy RTO timer fired. Returns what to do:
    /// `None` — nothing outstanding (or deadline moved; caller re-schedules
    /// at [`Self::rto_deadline`] if it is not `Time::MAX`).
    /// `Some(seg)` — a genuine timeout: the window collapsed and `seg` must
    /// be retransmitted.
    pub(crate) fn on_rto_fire(&mut self, now: Time) -> Option<Segment> {
        if self.inflight.is_empty() {
            self.rto_deadline = Time::MAX;
            return None;
        }
        if now < self.rto_deadline {
            // ACKs pushed the deadline; caller re-arms.
            return None;
        }
        self.cc.on_rto();
        self.dupacks = 0;
        // A timeout ends any fast-recovery episode and starts a fresh one
        // pinned at the current highest ssn.
        self.recovery_high = self.next_ssn.saturating_sub(1);
        let seg = self.retransmit_front(now);
        self.rto_deadline = now + self.cc.rto();
        Some(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf() -> Subflow {
        Subflow::new(0, TcpConfig::default(), Duration::from_millis(50), 64)
    }

    fn ack(ssn: u64) -> AckInfo {
        AckInfo { sub_next_ssn: ssn, data_next_dsn: 0, rwnd_free: 1000 }
    }

    #[test]
    fn handshake_seeds_rtt() {
        let s = sf();
        assert_eq!(s.cc.rtt.srtt(), Duration::from_millis(50));
    }

    #[test]
    fn send_and_cumulative_ack() {
        let mut s = sf();
        let t0 = Time::from_millis(0);
        for i in 0..5 {
            let seg = s.register_send(t0, 100 + i, false);
            assert_eq!(seg.ssn, i);
            assert_eq!(seg.dsn, 100 + i);
        }
        assert_eq!(s.inflight_count(), 5);
        let out = s.on_ack(Time::from_millis(60), &ack(3));
        assert_eq!(out.newly_acked, 3);
        assert_eq!(s.inflight_count(), 2);
        assert_eq!(s.snd_una, 3);
        // The 60 ms sample moved srtt: 7/8·50 + 1/8·60 = 51.25 ms.
        assert_eq!(s.cc.rtt.srtt(), Duration::from_micros(51_250));
    }

    #[test]
    fn window_space_respects_cwnd() {
        let mut s = sf();
        let cwnd = s.cc.cwnd_pkts() as u64;
        for i in 0..cwnd {
            assert!(s.has_space());
            s.register_send(Time::ZERO, i, false);
        }
        assert!(!s.has_space());
    }

    #[test]
    fn triple_dupack_fast_retransmits_once() {
        let mut s = sf();
        for i in 0..10 {
            s.register_send(Time::ZERO, i, false);
        }
        let cwnd_before = s.cc.cwnd_pkts();
        let t = Time::from_millis(100);
        assert!(s.on_ack(t, &ack(0)).fast_retx.is_none());
        assert!(s.on_ack(t, &ack(0)).fast_retx.is_none());
        let third = s.on_ack(t, &ack(0));
        let seg = third.fast_retx.expect("fast retransmit on 3rd dupack");
        assert_eq!(seg.ssn, 0);
        assert!(s.in_recovery());
        assert_eq!(s.cc.cwnd_pkts(), cwnd_before / 2);
        // Further dupacks do not retransmit again.
        assert!(s.on_ack(t, &ack(0)).fast_retx.is_none());
        assert_eq!(s.stats().retransmits, 1);
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut s = sf();
        for i in 0..10 {
            s.register_send(Time::ZERO, i, false);
        }
        let t = Time::from_millis(100);
        for _ in 0..3 {
            s.on_ack(t, &ack(0));
        }
        assert!(s.in_recovery());
        // Partial ack: still in recovery.
        let out = s.on_ack(Time::from_millis(150), &ack(5));
        assert!(out.in_recovery);
        // Full ack past recovery_high (ssn 9): out.
        let out = s.on_ack(Time::from_millis(200), &ack(10));
        assert!(!out.in_recovery);
        assert_eq!(s.inflight_count(), 0);
    }

    #[test]
    fn karn_no_rtt_sample_from_retransmitted() {
        let mut s = sf();
        s.register_send(Time::ZERO, 0, false);
        for _ in 0..3 {
            s.register_send(Time::ZERO, 1, false);
        }
        // Kick ssn 0 into retransmission via dupacks.
        let t = Time::from_millis(10);
        s.on_ack(t, &ack(0));
        s.on_ack(t, &ack(0));
        s.on_ack(t, &ack(0));
        let srtt_before = s.cc.rtt.srtt();
        // Cumulative ack of the retransmitted head: no sample (newest acked
        // is the retransmitted ssn 0 only).
        s.on_ack(Time::from_millis(500), &ack(1));
        assert_eq!(s.cc.rtt.srtt(), srtt_before);
    }

    #[test]
    fn lazy_rto_rearm_vs_fire() {
        let mut s = sf();
        s.register_send(Time::ZERO, 0, false);
        let deadline = s.rto_deadline;
        assert!(deadline > Time::ZERO && deadline < Time::MAX);
        // Fire early: nothing happens, deadline unchanged.
        assert!(s.on_rto_fire(Time::from_millis(1)).is_none());
        assert_eq!(s.rto_deadline, deadline);
        // Fire on time: genuine timeout.
        let seg = s.on_rto_fire(deadline).expect("timeout retransmit");
        assert_eq!(seg.ssn, 0);
        assert_eq!(s.cc.cwnd_pkts(), 1);
        assert_eq!(s.stats().retransmits, 1);
        // Deadline pushed out with backoff.
        assert!(s.rto_deadline > deadline);
    }

    #[test]
    fn rto_with_empty_queue_disarms() {
        let mut s = sf();
        s.register_send(Time::ZERO, 0, false);
        s.on_ack(Time::from_millis(50), &ack(1));
        assert_eq!(s.rto_deadline, Time::MAX);
        assert!(s.on_rto_fire(Time::from_secs(10)).is_none());
    }

    #[test]
    fn dupacks_ignored_when_nothing_inflight() {
        let mut s = sf();
        s.register_send(Time::ZERO, 0, false);
        s.on_ack(Time::from_millis(50), &ack(1));
        for _ in 0..5 {
            let out = s.on_ack(Time::from_millis(60), &ack(1));
            assert!(out.fast_retx.is_none());
        }
        assert!(!s.in_recovery());
    }

    #[test]
    fn cwnd_limited_flag() {
        let mut s = sf();
        let cwnd = s.cc.cwnd_pkts() as u64;
        for i in 0..cwnd {
            s.register_send(Time::ZERO, i, false);
        }
        let out = s.on_ack(Time::from_millis(50), &ack(1));
        assert!(out.was_cwnd_limited);
        let out = s.on_ack(Time::from_millis(51), &ack(2));
        assert!(!out.was_cwnd_limited);
    }

    #[test]
    fn carries_and_oldest_dsn() {
        let mut s = sf();
        s.register_send(Time::ZERO, 42, false);
        s.register_send(Time::ZERO, 43, false);
        assert!(s.carries_dsn(42));
        assert!(!s.carries_dsn(99));
        assert_eq!(s.inflight_dsns().next(), Some(42));
        s.on_ack(Time::from_millis(50), &ack(1));
        assert_eq!(s.inflight_dsns().next(), Some(43));
    }

    /// The retransmission queue as it was laid out before the ssn became
    /// positional: every entry keeps its own ssn and Karn mark. The
    /// congestion calls are the subflow's, in the same order.
    struct RefSubflow {
        cc: TcpCc,
        next_ssn: u64,
        snd_una: u64,
        /// `(ssn, dsn, sent_at, retransmitted)`.
        inflight: VecDeque<(u64, u64, Time, bool)>,
        dupacks: u32,
        recovery_high: Option<u64>,
        rto_deadline: Time,
        stats: SubflowStats,
    }

    impl RefSubflow {
        fn new() -> Self {
            let mut cc = TcpCc::new(TcpConfig::default());
            cc.rtt.on_sample(Duration::from_millis(50));
            RefSubflow {
                cc,
                next_ssn: 0,
                snd_una: 0,
                inflight: VecDeque::new(),
                dupacks: 0,
                recovery_high: None,
                rto_deadline: Time::MAX,
                stats: SubflowStats::default(),
            }
        }

        fn register_send(&mut self, now: Time, dsn: u64) -> Segment {
            let seg = Segment { dsn, ssn: self.next_ssn };
            self.next_ssn += 1;
            self.inflight.push_back((seg.ssn, dsn, now, false));
            self.cc.note_send(now);
            self.stats.segs_sent += 1;
            self.rto_deadline = now + self.cc.rto();
            seg
        }

        fn retransmit_front(&mut self, now: Time) -> Segment {
            let front = self.inflight.front_mut().expect("non-empty");
            front.2 = now;
            front.3 = true;
            self.stats.retransmits += 1;
            Segment { dsn: front.1, ssn: front.0 }
        }

        fn on_ack(&mut self, now: Time, ack: &AckInfo) -> AckOutcome {
            let mut out = AckOutcome {
                was_cwnd_limited: self.inflight.len() as u32 >= self.cc.cwnd_pkts(),
                ..AckOutcome::default()
            };
            if ack.sub_next_ssn > self.snd_una {
                let (mut sample, mut covers_retransmit) = (None, false);
                while let Some(&(ssn, _, sent_at, retransmitted)) = self.inflight.front() {
                    if ssn >= ack.sub_next_ssn {
                        break;
                    }
                    self.inflight.pop_front();
                    out.newly_acked += 1;
                    if retransmitted {
                        covers_retransmit = true;
                    } else {
                        sample = Some(now.since(sent_at));
                    }
                }
                if covers_retransmit {
                    sample = None;
                }
                self.snd_una = ack.sub_next_ssn;
                self.dupacks = 0;
                self.cc.clear_rto_backoff();
                if let Some(high) = self.recovery_high {
                    if self.snd_una > high {
                        self.recovery_high = None;
                    } else if self.inflight.front().is_some_and(|f| !f.3) {
                        out.fast_retx = Some(self.retransmit_front(now));
                    }
                }
                if let Some(sample) = sample {
                    self.cc.rtt.on_sample(sample);
                }
                self.rto_deadline =
                    if self.inflight.is_empty() { Time::MAX } else { now + self.cc.rto() };
            } else if ack.sub_next_ssn == self.snd_una && !self.inflight.is_empty() {
                self.dupacks += 1;
                if self.dupacks == DUPACK_THRESHOLD && self.recovery_high.is_none() {
                    self.recovery_high = Some(self.next_ssn.saturating_sub(1));
                    self.cc.on_fast_retransmit();
                    out.fast_retx = Some(self.retransmit_front(now));
                    self.rto_deadline = now + self.cc.rto();
                }
            }
            out.in_recovery = self.recovery_high.is_some();
            out
        }

        fn on_rto_fire(&mut self, now: Time) -> Option<Segment> {
            if self.inflight.is_empty() {
                self.rto_deadline = Time::MAX;
                return None;
            }
            if now < self.rto_deadline {
                return None;
            }
            self.cc.on_rto();
            self.dupacks = 0;
            self.recovery_high = Some(self.next_ssn.saturating_sub(1));
            let seg = self.retransmit_front(now);
            self.rto_deadline = now + self.cc.rto();
            Some(seg)
        }
    }

    fn assert_same_state(s: &Subflow, r: &RefSubflow, step: usize) {
        assert_eq!(s.snd_una, r.snd_una, "snd_una at step {step}");
        assert_eq!(s.next_ssn, r.next_ssn, "next_ssn at step {step}");
        assert!(s.inflight_dsns().eq(r.inflight.iter().map(|e| e.1)), "dsns at step {step}");
        assert_eq!(s.in_recovery(), r.recovery_high.is_some(), "recovery at step {step}");
        assert_eq!(s.rto_deadline, r.rto_deadline, "rto deadline at step {step}");
        assert_eq!(s.cc.rtt.samples(), r.cc.rtt.samples(), "rtt samples at step {step}");
        assert_eq!(s.cc.rtt.srtt(), r.cc.rtt.srtt(), "srtt at step {step}");
        assert_eq!(s.cc.rtt.rttvar(), r.cc.rtt.rttvar(), "rttvar at step {step}");
        assert_eq!(s.cc.cwnd().to_bits(), r.cc.cwnd().to_bits(), "cwnd at step {step}");
        let (a, b) = (s.stats(), r.stats);
        assert_eq!(
            (a.segs_sent, a.retransmits, a.reinjections),
            (b.segs_sent, b.retransmits, b.reinjections),
            "stats at step {step}"
        );
    }

    /// The positional retransmission queue (ssn = `snd_una` + position, one
    /// Karn mark for the front) against the per-entry layout, over random
    /// sends, cumulative / duplicate / partial / stale ACKs and RTO fires:
    /// identical outcomes, segments, RTT samples and counters at every step.
    #[test]
    fn retransmission_queue_matches_per_entry_model() {
        use testkit::prop::{check, vec_of};
        // (op, amount, ms to advance before it)
        check(256, vec_of((0u8..6, 0u64..16, 0u64..120), 1..300), |ops| {
            let mut s = sf();
            let mut r = RefSubflow::new();
            let mut now = Time::ZERO;
            let mut dsn = 0;
            for (step, &(op, amount, dt)) in ops.iter().enumerate() {
                now += Duration::from_millis(dt);
                match op {
                    0 | 1 => {
                        for _ in 0..=amount % 4 {
                            if !s.has_space() {
                                break;
                            }
                            let got = s.register_send(now, dsn, false);
                            assert_eq!(got, r.register_send(now, dsn), "send at step {step}");
                            dsn += 1;
                        }
                    }
                    2..=4 => {
                        let outstanding = s.next_ssn - s.snd_una;
                        let ssn = match op {
                            // Cumulative (partial while in recovery).
                            2 if outstanding > 0 => s.snd_una + 1 + amount % outstanding,
                            // Stale: behind the cumulative point.
                            4 => s.snd_una.saturating_sub(amount),
                            // Duplicate.
                            _ => s.snd_una,
                        };
                        let a = ack(ssn);
                        let (got, want) = (s.on_ack(now, &a), r.on_ack(now, &a));
                        assert_eq!(got.newly_acked, want.newly_acked, "acked at step {step}");
                        assert_eq!(got.fast_retx, want.fast_retx, "retx at step {step}");
                        assert_eq!(got.was_cwnd_limited, want.was_cwnd_limited, "step {step}");
                        assert_eq!(got.in_recovery, want.in_recovery, "step {step}");
                    }
                    _ => {
                        // Half the fires land exactly on the deadline.
                        if amount % 2 == 0 && s.rto_deadline != Time::MAX {
                            now = now.max(s.rto_deadline);
                        }
                        assert_eq!(s.on_rto_fire(now), r.on_rto_fire(now), "rto at step {step}");
                    }
                }
                assert_same_state(&s, &r, step);
            }
        });
    }

    #[test]
    fn reinjection_counted() {
        let mut s = sf();
        s.register_send(Time::ZERO, 7, true);
        assert_eq!(s.stats().reinjections, 1);
        assert_eq!(s.stats().segs_sent, 1);
    }
}
