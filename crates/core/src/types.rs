//! Scheduler-facing types.
//!
//! These are deliberately transport-agnostic: nothing here references the
//! simulator or the MPTCP model, so the schedulers are portable to any
//! multipath transport (e.g. a multipath QUIC stack) that can produce a
//! [`PathSnapshot`] per path.

use std::time::Duration;

/// Identifies one path (subflow) within a connection. Values are small dense
/// indices assigned by the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub usize);

/// Everything a scheduler may know about one path at decision time.
///
/// All fields mirror state a real MPTCP sender has on hand, and they are
/// exactly what the kernel's scheduling decision reads: smoothed RTT and its
/// deviation from the RTT estimator, the congestion window and segments in
/// flight (in whole segments), and whether the path may be used.
#[derive(Debug, Clone, Copy)]
pub struct PathSnapshot {
    /// Which path this is.
    pub id: PathId,
    /// Smoothed round-trip time estimate.
    pub srtt: Duration,
    /// RTT deviation estimate (the σ in ECF's δ = max(σf, σs) margin).
    pub rtt_dev: Duration,
    /// Congestion window, in segments.
    pub cwnd: u32,
    /// Unacknowledged segments currently in flight.
    pub inflight: u32,
    /// False when the path must not be used (not established, dead, ...).
    pub usable: bool,
}

impl PathSnapshot {
    /// True when the transport could place one more segment on this path.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.usable && self.inflight < self.cwnd
    }
}

/// The decision context for scheduling one segment.
#[derive(Debug, Clone, Copy)]
pub struct SchedInput<'a> {
    /// Snapshots of all paths of the connection, in stable id order.
    pub paths: &'a [PathSnapshot],
    /// `k`: segments sitting in the connection-level send buffer that have
    /// not yet been assigned to any subflow (the quantity ECF reasons about).
    pub queued_pkts: u64,
    /// Free space, in segments, in the connection-level send window
    /// (min of peer receive window and send buffer). BLEST reasons about
    /// this.
    pub send_window_free_pkts: u64,
}

impl<'a> SchedInput<'a> {
    /// The usable path with the smallest sRTT, regardless of window space.
    pub fn fastest(&self) -> Option<&PathSnapshot> {
        self.paths.iter().filter(|p| p.usable).min_by_key(|p| p.srtt)
    }

    /// The path with the smallest sRTT *among those with window space* —
    /// the choice of the default minRTT scheduler.
    pub fn fastest_available(&self) -> Option<&PathSnapshot> {
        self.paths.iter().filter(|p| p.has_space()).min_by_key(|p| p.srtt)
    }
}

/// A scheduler's verdict for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Send the segment on this path now.
    Send(PathId),
    /// Capacity exists on some path, but the scheduler declines to use it and
    /// waits for a better path to free up (ECF/BLEST waiting states). The
    /// transport re-polls on the next ACK or timer.
    Wait,
    /// No usable path has congestion-window space; nothing can be sent.
    Blocked,
}

/// A multipath packet scheduler.
///
/// [`Scheduler::select_explained`] is called once per segment the transport
/// wants to place and is the one decision method a scheduler implements: it
/// returns the verdict together with *why* it was reached (see
/// [`crate::Why`]). [`Scheduler::select`] is the verdict alone. The
/// scheduler may keep internal state (hysteresis bits, deficit counters);
/// feedback hooks let the transport report events some schedulers adapt to.
///
/// `Send` is required so whole engines (which own their schedulers) can
/// migrate across lockstep worker threads in co-simulated sweeps; scheduler
/// state is plain data, so this costs implementors nothing.
pub trait Scheduler: Send {
    /// Stable short name used in reports ("default", "ecf", ...).
    fn name(&self) -> &'static str;

    /// Decide where the next segment goes, and report which rule decided.
    /// A scheduler with no finer provenance reports
    /// [`crate::Why::Unspecified`]; its decision events still carry the
    /// full inputs.
    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why);

    /// Decide where the next segment goes: [`Scheduler::select_explained`]'s
    /// verdict without its provenance.
    fn select(&mut self, input: &SchedInput<'_>) -> Decision {
        self.select_explained(input).0
    }

    /// The transport observed a connection-level send-window stall
    /// (head-of-line blocking). BLEST adapts its scale factor on this.
    fn on_window_blocked(&mut self) {}

    /// Reset per-connection state (new connection reusing the scheduler).
    fn reset(&mut self) {}
}

/// Convert a `Duration` to f64 seconds for decision arithmetic.
#[inline]
pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Shorthand snapshot constructor for scheduler unit tests.
    pub fn path(id: usize, srtt_ms: u64, cwnd: u32, inflight: u32) -> PathSnapshot {
        PathSnapshot {
            id: PathId(id),
            srtt: Duration::from_millis(srtt_ms),
            rtt_dev: Duration::ZERO,
            cwnd,
            inflight,
            usable: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::path;
    use super::*;

    #[test]
    fn has_space_logic() {
        let mut p = path(0, 10, 10, 9);
        assert!(p.has_space());
        p.inflight = 10;
        assert!(!p.has_space());
        p.inflight = 5;
        p.usable = false;
        assert!(!p.has_space());
    }

    #[test]
    fn fastest_ignores_space_but_not_usable() {
        let mut fast = path(0, 10, 10, 10); // full
        let slow = path(1, 100, 10, 0);
        let input = [fast, slow];
        let inp = SchedInput { paths: &input, queued_pkts: 1, send_window_free_pkts: 100 };
        assert_eq!(inp.fastest().unwrap().id, PathId(0));
        assert_eq!(inp.fastest_available().unwrap().id, PathId(1));

        fast.usable = false;
        let input = [fast, slow];
        let inp = SchedInput { paths: &input, queued_pkts: 1, send_window_free_pkts: 100 };
        assert_eq!(inp.fastest().unwrap().id, PathId(1));
    }

    #[test]
    fn no_paths_no_fastest() {
        let inp = SchedInput { paths: &[], queued_pkts: 0, send_window_free_pkts: 0 };
        assert!(inp.fastest().is_none());
        assert!(inp.fastest_available().is_none());
    }
}
