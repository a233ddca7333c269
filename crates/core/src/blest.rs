//! BLEST — BLocking ESTimation-based scheduler (Ferlin et al., IFIP
//! Networking 2016), one of the paper's two published comparators.
//!
//! BLEST targets *sender-side head-of-line blocking*: when the MPTCP
//! connection-level send window is mostly occupied by segments in flight on a
//! slow subflow, the window can fill and stall the fast subflow. Before
//! placing a segment on the slow path, BLEST estimates how much the fast path
//! could transmit during one slow-path RTT; if that projected amount no
//! longer fits into the remaining send window, sending on the slow path now
//! is predicted to block, and BLEST waits instead.
//!
//! The difference to ECF (paper §5.1): BLEST reasons about *send-window
//! space* and out-of-order avoidance, ECF about the *amount of queued data*
//! and completion time. With roomy windows BLEST rarely waits, which is why
//! the paper finds it only slightly better than the default scheduler.

use crate::types::{secs, Decision, SchedInput, Scheduler};

/// Initial value of the adaptive scale factor λ.
const LAMBDA0: f64 = 1.0;
/// Additive increase applied to λ on each observed send-window stall.
const LAMBDA_STEP: f64 = 0.1;
/// Multiplicative decay of the λ *excess* applied per decision, slowly
/// relaxing back toward 1 when blocking stops.
const LAMBDA_DECAY: f64 = 0.999;

/// The BLEST scheduler.
#[derive(Debug, Clone)]
pub struct Blest {
    lambda: f64,
}

impl Default for Blest {
    fn default() -> Self {
        Self::new()
    }
}

impl Blest {
    /// A fresh BLEST scheduler.
    pub fn new() -> Self {
        Blest { lambda: LAMBDA0 }
    }
}

impl Scheduler for Blest {
    fn name(&self) -> &'static str {
        "blest"
    }

    /// The BLEST rule, with its terms as provenance.
    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why) {
        // Relax λ toward 1.
        self.lambda = 1.0 + (self.lambda - 1.0) * LAMBDA_DECAY;

        let Some(xf) = input.fastest() else {
            return (Decision::Blocked, crate::Why::NoCapacity);
        };
        if xf.has_space() {
            return (Decision::Send(xf.id), crate::Why::FastestFree);
        }
        let Some(xs) = input.fastest_available() else {
            return (Decision::Blocked, crate::Why::NoCapacity);
        };

        // Segments the fast subflow could send during one slow-path RTT:
        // X window rounds with congestion-avoidance growth of one segment per
        // round — X·(cwnd_f + (X−1)/2), per the BLEST paper.
        let rtt_f = secs(xf.srtt).max(1e-9);
        let rtt_s = secs(xs.srtt);
        let rounds = (rtt_s / rtt_f).max(1.0);
        let fast_during_slow_rtt = rounds * (f64::from(xf.cwnd.max(1)) + (rounds - 1.0) / 2.0);

        // If that projection (scaled by λ) exceeds what is left of the
        // connection-level send window, a segment parked on the slow path is
        // predicted to cause blocking → wait for the fast path.
        let projected_pkts = fast_during_slow_rtt * self.lambda;
        if projected_pkts > input.send_window_free_pkts as f64 {
            return (Decision::Wait, crate::Why::BlestWait { projected_pkts, lambda: self.lambda });
        }
        (Decision::Send(xs.id), crate::Why::BlestFits { projected_pkts, lambda: self.lambda })
    }

    fn on_window_blocked(&mut self) {
        self.lambda += LAMBDA_STEP;
    }

    fn reset(&mut self) {
        self.lambda = LAMBDA0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testutil::path;
    use crate::types::{PathId, PathSnapshot};

    fn inp<'a>(paths: &'a [PathSnapshot], window_free: u64) -> SchedInput<'a> {
        SchedInput { paths, queued_pkts: 100, send_window_free_pkts: window_free }
    }

    #[test]
    fn fast_path_used_when_available() {
        let paths = [path(0, 10, 10, 0), path(1, 100, 10, 0)];
        assert_eq!(Blest::new().select(&inp(&paths, 1000)), Decision::Send(PathId(0)));
    }

    #[test]
    fn waits_when_window_tight() {
        // Fast full; during 100 ms the 10 ms path sends ≈ 10·(10+4.5) = 145
        // segments — far more than the 50 free slots → predicted blocking.
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        assert_eq!(Blest::new().select(&inp(&paths, 50)), Decision::Wait);
    }

    #[test]
    fn sends_on_slow_when_window_roomy() {
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        assert_eq!(Blest::new().select(&inp(&paths, 100_000)), Decision::Send(PathId(1)));
    }

    #[test]
    fn lambda_adapts_on_blocking() {
        let mut b = Blest::new();
        let l0 = b.lambda;
        b.on_window_blocked();
        b.on_window_blocked();
        assert!(b.lambda > l0 + 0.19);
        // Borderline window: 10·(10+4.5)=145 < 150 free → send without λ
        // inflation, wait with it.
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        assert_eq!(Blest::new().select(&inp(&paths, 150)), Decision::Send(PathId(1)));
        assert_eq!(b.select(&inp(&paths, 150)), Decision::Wait);
    }

    #[test]
    fn lambda_decays_back() {
        let mut b = Blest::new();
        for _ in 0..10 {
            b.on_window_blocked();
        }
        let inflated = b.lambda;
        let paths = [path(0, 10, 10, 0), path(1, 100, 10, 0)];
        for _ in 0..5_000 {
            b.select(&inp(&paths, 1000));
        }
        assert!(b.lambda < inflated * 0.2 + 1.0);
        b.reset();
        assert_eq!(b.lambda, 1.0);
    }

    #[test]
    fn blocked_when_all_full() {
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 10)];
        assert_eq!(Blest::new().select(&inp(&paths, 1000)), Decision::Blocked);
    }
}
