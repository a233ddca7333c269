//! STTF — Shortest Transfer Time First (Hurtig et al., "Low-Latency
//! Scheduling in MPTCP", ToN 2018). Not part of the paper's comparison set,
//! included as an extension: it is the other published completion-time-aware
//! scheduler, and contrasts nicely with ECF.
//!
//! STTF estimates, per path, when the *next* segment would finish if placed
//! there — queueing behind the path's in-flight backlog — and picks the
//! minimum, waiting for that path if its window is currently full. Unlike
//! ECF it reasons per segment rather than about the whole remaining backlog
//! `k`, so it keeps low per-packet latency but misses ECF's "don't start
//! what the fast path could finish" insight for chunked transfers.

use crate::types::{secs, Decision, SchedInput, Scheduler};

/// The STTF scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sttf;

impl Sttf {
    /// A fresh STTF instance.
    pub fn new() -> Self {
        Sttf
    }

    /// Estimated delivery time of one more segment on this path: half an
    /// RTT of propagation plus one window-round per `cwnd` segments of
    /// backlog ahead of it.
    fn estimate(p: &crate::types::PathSnapshot) -> f64 {
        let rtt = secs(p.srtt).max(1e-6);
        let cwnd = f64::from(p.cwnd.max(1));
        let backlog_rounds = (f64::from(p.inflight) + 1.0) / cwnd;
        rtt * (0.5 + backlog_rounds)
    }
}

impl Scheduler for Sttf {
    fn name(&self) -> &'static str {
        "sttf"
    }

    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why) {
        let usable = input.paths.iter().filter(|p| p.usable);
        let best = usable.min_by(|a, b| {
            Self::estimate(a)
                .partial_cmp(&Self::estimate(b))
                .expect("estimates are finite")
                .then(a.id.cmp(&b.id))
        });
        match best {
            Some(p) if p.has_space() => {
                (Decision::Send(p.id), crate::Why::SttfBest { estimate_s: Self::estimate(p) })
            }
            Some(p) => {
                // The best path is full; sending elsewhere would finish later
                // by construction, so wait for it — unless nothing could send
                // anyway.
                if input.paths.iter().any(|q| q.has_space()) {
                    (Decision::Wait, crate::Why::SttfWaitBest { estimate_s: Self::estimate(p) })
                } else {
                    (Decision::Blocked, crate::Why::NoCapacity)
                }
            }
            None => (Decision::Blocked, crate::Why::NoCapacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testutil::path;
    use crate::types::PathId;

    fn inp<'a>(paths: &'a [crate::types::PathSnapshot]) -> SchedInput<'a> {
        SchedInput { paths, queued_pkts: 50, send_window_free_pkts: 1 << 20 }
    }

    #[test]
    fn prefers_empty_fast_path() {
        let paths = [path(0, 10, 10, 0), path(1, 100, 10, 0)];
        assert_eq!(Sttf::new().select(&inp(&paths)), Decision::Send(PathId(0)));
    }

    #[test]
    fn backlog_shifts_the_estimate() {
        // Fast path with a deep backlog: est = 10ms·(0.5 + 10/10) = 15 ms...
        // still beats the slow path's 100ms·0.5 = 50+ ms — but once the fast
        // backlog is extreme relative to cwnd, the slow path wins.
        let paths = [path(0, 10, 2, 9), path(1, 100, 10, 0)];
        // est_fast = 10·(0.5 + 10/2) = 55 ms ; est_slow = 100·(0.5+0.1) = 60.
        assert_eq!(Sttf::new().select(&inp(&paths)), Decision::Wait); // fast full but best
        let paths = [path(0, 10, 2, 12), path(1, 100, 10, 0)];
        // est_fast = 10·(0.5+6.5) = 70 ms > 60 → slow path chosen and free.
        assert_eq!(Sttf::new().select(&inp(&paths)), Decision::Send(PathId(1)));
    }

    #[test]
    fn waits_for_best_full_path() {
        let paths = [path(0, 10, 10, 10), path(1, 1000, 10, 0)];
        // est_fast = 10·(0.5+1.1) = 16 ms « est_slow = 550 ms → wait for fast.
        assert_eq!(Sttf::new().select(&inp(&paths)), Decision::Wait);
    }

    #[test]
    fn blocked_when_nothing_usable() {
        let mut a = path(0, 10, 10, 10);
        let b = path(1, 100, 10, 10);
        assert_eq!(Sttf::new().select(&inp(&[a, b])), Decision::Blocked);
        a.usable = false;
        assert_eq!(Sttf::new().select(&inp(&[a])), Decision::Blocked);
    }
}
