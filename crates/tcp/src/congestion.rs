//! Congestion-window state machine for one subflow.
//!
//! This models the sender-side variables a Linux TCP socket keeps: cwnd
//! (fractionally, so coupled controllers can apply sub-segment increases),
//! ssthresh, slow start vs congestion avoidance, RTO backoff, and — central
//! to the paper — the RFC 5681 §4.1 *idle restart*: a connection idle for
//! longer than one RTO resets cwnd to the initial window. The paper shows
//! this reset is what cripples the fast subflow under the default scheduler
//! (Table 3 counts these events; Fig 6 toggles the mechanism).
//!
//! The *increase policy* is split out: in slow start the window grows here,
//! but congestion-avoidance increments are computed by the connection-level
//! congestion controller (Reno, LIA, OLIA — see the `mptcp` crate) and
//! applied through [`TcpCc::apply_ca_increase`], because coupled controllers
//! need cross-subflow state.

use std::time::Duration;

use simnet::Time;

use crate::rtt::{RttEstimator, MAX_RTO_NANOS};

/// Initial window in segments: RFC 6928's IW 10, the Linux default.
const INITIAL_CWND: u32 = 10;
/// Window floor after loss events (Linux's ssthresh floor of 2 segments).
const MIN_CWND: u32 = 2;

/// Static per-subflow TCP parameters. The initial window (10 segments), the
/// loss-event window floor (2) and the RTO bounds (Linux `TCP_RTO_MIN`
/// 200 ms to 60 s, see [`RttEstimator`]) are constants of the model.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Apply the RFC 5681 idle restart and RFC 2861 congestion-window
    /// validation (`false` reproduces Fig 6's "w/o CWND reset" mode).
    pub idle_reset: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig { idle_reset: true }
    }
}

/// Lifetime counters for one subflow's congestion controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcStats {
    /// Idle restarts back to the initial window (the paper's Table 3 metric,
    /// which also counts timeout-driven resets; see [`CcStats::iw_resets`]).
    pub idle_resets: u64,
    /// RTO-driven window collapses.
    pub rto_events: u64,
    /// Fast-retransmit (triple-dupack) halvings.
    pub fast_retransmits: u64,
    /// RFC 2861 application-limited decays applied.
    pub app_limited_decays: u64,
}

impl CcStats {
    /// Events that return the window to the initial value / slow start —
    /// idle restarts plus RTO collapses, matching Table 3's counting.
    pub fn iw_resets(&self) -> u64 {
        self.idle_resets + self.rto_events
    }
}

/// The congestion state machine.
#[derive(Debug, Clone)]
pub struct TcpCc {
    /// [`TcpConfig::idle_reset`].
    idle_reset: bool,
    /// Congestion window in segments, kept fractionally.
    cwnd: f64,
    /// `cwnd_pkts()` precomputed at mutation time: the scheduler and the ACK
    /// path read whole-segment cwnd far more often than it changes, and the
    /// f64 floor/convert chain is not free on that path.
    cwnd_pkts: u32,
    /// Slow-start threshold in segments.
    ssthresh: f64,
    /// RTT estimator for this subflow.
    pub rtt: RttEstimator,
    /// Exponential RTO backoff factor (power of two).
    backoff: u32,
    /// Last time a segment was sent (for idle detection).
    last_send: Time,
    /// Whether anything has been sent yet.
    started: bool,
    /// RFC 2861: the window actually used since the flow last filled cwnd.
    cwnd_used: u32,
    /// RFC 2861: when the flow was last cwnd-limited (or last decayed).
    cwnd_stamp: Time,
    stats: CcStats,
}

impl TcpCc {
    /// Fresh state with the given parameters.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpCc {
            idle_reset: cfg.idle_reset,
            cwnd: f64::from(INITIAL_CWND),
            cwnd_pkts: INITIAL_CWND,
            ssthresh: f64::INFINITY,
            rtt: RttEstimator::new(),
            backoff: 0,
            last_send: Time::ZERO,
            started: false,
            cwnd_used: 0,
            cwnd_stamp: Time::ZERO,
            stats: CcStats::default(),
        }
    }

    /// Current window, whole segments (≥ 1).
    pub fn cwnd_pkts(&self) -> u32 {
        debug_assert_eq!(self.cwnd_pkts, (self.cwnd.floor() as u32).max(1));
        self.cwnd_pkts
    }

    /// Refresh the whole-segment cache; call after every `cwnd` write.
    fn sync_cwnd_pkts(&mut self) {
        self.cwnd_pkts = (self.cwnd.floor() as u32).max(1);
    }

    /// Current window, fractional (for controllers).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// True while cwnd is below ssthresh.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Effective retransmission timeout including exponential backoff,
    /// clamped to the 60 s ceiling.
    pub fn rto(&self) -> Duration {
        let base = self.rtt.rto_nanos();
        // Multiplying by 2^0 is identity work; only the ceiling clamp matters
        // then (the pre-sample initial RTO is not bounds-clamped).
        let backed_off =
            if self.backoff == 0 { base } else { base.saturating_mul(1 << self.backoff.min(6)) };
        Duration::from_nanos(backed_off.min(MAX_RTO_NANOS))
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CcStats {
        self.stats
    }

    /// Record a transmission at `now` (updates idle tracking).
    pub fn note_send(&mut self, now: Time) {
        if !self.started {
            // First transmission starts the validation clock.
            self.cwnd_stamp = now;
        }
        self.last_send = now;
        self.started = true;
    }

    /// RFC 2861 congestion-window validation, Linux's
    /// `tcp_cwnd_application_limited`: call at the end of every send
    /// opportunity with the flow's current in-flight count. While the flow
    /// is *application-limited* (window open but nothing to send), the
    /// window decays halfway toward what was actually used, once per RTO,
    /// and ssthresh banks 3/4 of the forgotten window.
    ///
    /// This — not just the after-idle restart — is what drains a fast
    /// subflow's window while the default scheduler leaves it starved
    /// behind a slow subflow's stragglers.
    pub fn validate_app_limited(&mut self, now: Time, inflight: u32) -> bool {
        if !self.idle_reset || !self.started {
            return false;
        }
        if inflight >= self.cwnd_pkts() {
            // Network-limited: usage is honest, restart the clock.
            self.cwnd_used = 0;
            self.cwnd_stamp = now;
            return false;
        }
        self.cwnd_used = self.cwnd_used.max(inflight);
        if now.since(self.cwnd_stamp) >= self.rto() && self.cwnd > f64::from(INITIAL_CWND) {
            self.ssthresh = self.ssthresh.max(0.75 * self.cwnd);
            let used = f64::from(self.cwnd_used.max(INITIAL_CWND));
            self.cwnd = ((self.cwnd + used) / 2.0).max(f64::from(MIN_CWND));
            self.sync_cwnd_pkts();
            self.cwnd_stamp = now;
            self.cwnd_used = 0;
            self.stats.app_limited_decays += 1;
            return true;
        }
        false
    }

    /// RFC 5681 §4.1: called before transmitting after a potential idle gap.
    /// If the subflow has been quiet for more than one RTO, collapse the
    /// window back to the initial value and return `true`.
    pub fn maybe_idle_reset(&mut self, now: Time) -> bool {
        if !self.idle_reset || !self.started {
            return false;
        }
        if now.since(self.last_send) > self.rto() && self.cwnd > f64::from(INITIAL_CWND) {
            self.cwnd = f64::from(INITIAL_CWND);
            self.sync_cwnd_pkts();
            // ssthresh is left in place: restart ramps via slow start up to
            // the previously learned threshold (RFC 2861 behaviour).
            self.stats.idle_resets += 1;
            return true;
        }
        false
    }

    /// HyStart-style delay-increase slow-start exit (Linux has shipped this
    /// since 2.6.29): once the smoothed RTT has risen clearly above the
    /// propagation floor, the pipe is full and further exponential growth
    /// only builds queue — exit into congestion avoidance at the current
    /// window. Returns true if slow start was exited.
    ///
    /// Deliberately conservative: the comparison uses the lifetime sRTT, so
    /// a restart that begins while the estimator still remembers bufferbloat
    /// exits early and climbs via congestion avoidance. Real HyStart samples
    /// per round and would ramp slightly faster; the conservative form is
    /// part of this model's calibration (see DESIGN.md §3).
    pub fn maybe_hystart_exit(&mut self) -> bool {
        if !self.in_slow_start() {
            return false;
        }
        // Threshold is min_rtt + max(min_rtt/4, 8 ms), cached by the
        // estimator (Duration::MAX before any sample, so the comparison
        // below also covers the no-sample case).
        let threshold = self.rtt.hystart_threshold();
        if self.rtt.srtt() > threshold && self.cwnd > f64::from(INITIAL_CWND) {
            self.ssthresh = self.cwnd;
            return true;
        }
        false
    }

    /// Clear the exponential RTO backoff (a cumulative ACK arrived).
    pub fn clear_rto_backoff(&mut self) {
        self.backoff = 0;
    }

    /// An ACK advanced the window during slow start: exponential growth.
    pub fn on_ack_slow_start(&mut self, newly_acked_pkts: u32) {
        debug_assert!(self.in_slow_start());
        self.cwnd += f64::from(newly_acked_pkts);
        self.sync_cwnd_pkts();
        self.backoff = 0;
    }

    /// Congestion-avoidance increase computed by the (possibly coupled)
    /// controller; `inc` is in segments and is typically ≤ 1/cwnd per ACK.
    pub fn apply_ca_increase(&mut self, inc: f64) {
        debug_assert!(inc >= 0.0, "CA increase must be non-negative");
        self.cwnd += inc;
        self.sync_cwnd_pkts();
        self.backoff = 0;
    }

    /// Triple-dupack fast retransmit: multiplicative decrease.
    pub fn on_fast_retransmit(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(f64::from(MIN_CWND));
        self.cwnd = self.ssthresh;
        self.sync_cwnd_pkts();
        self.stats.fast_retransmits += 1;
    }

    /// Retransmission timeout: collapse to one segment, halve ssthresh,
    /// back off the timer exponentially.
    pub fn on_rto(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(f64::from(MIN_CWND));
        self.cwnd = 1.0;
        self.sync_cwnd_pkts();
        self.backoff += 1;
        self.stats.rto_events += 1;
    }

    /// Externally force the window down (the opportunistic-retransmission
    /// *penalization* of Raiciu et al. halves the slow subflow's window).
    pub fn penalize(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(f64::from(MIN_CWND));
        self.cwnd = self.ssthresh;
        self.sync_cwnd_pkts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> TcpCc {
        TcpCc::new(TcpConfig::default())
    }

    #[test]
    fn starts_at_initial_window_in_slow_start() {
        let c = cc();
        assert_eq!(c.cwnd_pkts(), 10);
        assert!(c.in_slow_start());
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = cc();
        // Ack a full window: 10 acks of 1 packet → cwnd 20.
        for _ in 0..10 {
            c.on_ack_slow_start(1);
        }
        assert_eq!(c.cwnd_pkts(), 20);
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut c = cc();
        for _ in 0..30 {
            c.on_ack_slow_start(1);
        }
        let before = c.cwnd_pkts();
        c.on_fast_retransmit();
        assert_eq!(c.cwnd_pkts(), before / 2);
        assert!(!c.in_slow_start());
        assert_eq!(c.stats().fast_retransmits, 1);
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut c = cc();
        for _ in 0..30 {
            c.on_ack_slow_start(1);
        }
        c.on_rto();
        assert_eq!(c.cwnd_pkts(), 1);
        assert!(c.in_slow_start());
        assert_eq!(c.stats().rto_events, 1);
        assert_eq!(c.stats().iw_resets(), 1);
    }

    #[test]
    fn rto_backoff_doubles_and_acks_clear_it() {
        let mut c = cc();
        c.rtt.on_sample(Duration::from_millis(100));
        let base = c.rto();
        c.on_rto();
        assert_eq!(c.rto(), base * 2);
        c.on_rto();
        assert_eq!(c.rto(), base * 4);
        c.apply_ca_increase(0.1);
        assert_eq!(c.rto(), base);
    }

    #[test]
    fn idle_reset_fires_after_rto_of_silence() {
        let mut c = cc();
        c.rtt.on_sample(Duration::from_millis(100));
        for _ in 0..50 {
            c.on_ack_slow_start(1);
        }
        assert_eq!(c.cwnd_pkts(), 60);
        c.note_send(Time::from_secs(1));
        // 250 ms later: not idle (RTO is 300 ms with rttvar=50).
        assert!(!c.maybe_idle_reset(Time::from_millis(1_250)));
        assert_eq!(c.cwnd_pkts(), 60);
        // 2 s later: idle → reset to IW.
        assert!(c.maybe_idle_reset(Time::from_secs(3)));
        assert_eq!(c.cwnd_pkts(), 10);
        assert!(c.in_slow_start());
        assert_eq!(c.stats().idle_resets, 1);
        assert_eq!(c.stats().iw_resets(), 1);
    }

    #[test]
    fn idle_reset_disabled_by_config() {
        let mut c = TcpCc::new(TcpConfig { idle_reset: false });
        c.rtt.on_sample(Duration::from_millis(50));
        for _ in 0..50 {
            c.on_ack_slow_start(1);
        }
        c.note_send(Time::from_secs(1));
        assert!(!c.maybe_idle_reset(Time::from_secs(100)));
        assert_eq!(c.cwnd_pkts(), 60);
    }

    #[test]
    fn idle_reset_never_inflates_small_window() {
        // A window already at/below IW must not be touched (nor counted).
        let mut c = cc();
        c.rtt.on_sample(Duration::from_millis(50));
        c.note_send(Time::from_secs(1));
        assert!(!c.maybe_idle_reset(Time::from_secs(50)));
        assert_eq!(c.stats().idle_resets, 0);
    }

    #[test]
    fn idle_reset_noop_before_first_send() {
        let mut c = cc();
        assert!(!c.maybe_idle_reset(Time::from_secs(100)));
    }

    #[test]
    fn penalize_halves_like_loss_but_counts_nothing() {
        let mut c = cc();
        for _ in 0..30 {
            c.on_ack_slow_start(1);
        }
        let before = c.cwnd_pkts();
        c.penalize();
        assert_eq!(c.cwnd_pkts(), before / 2);
        assert_eq!(c.stats().fast_retransmits, 0);
    }

    #[test]
    fn app_limited_decay_halves_toward_usage() {
        let mut c = cc();
        c.rtt.on_sample(Duration::from_millis(100));
        for _ in 0..100 {
            c.on_ack_slow_start(1);
        }
        assert_eq!(c.cwnd_pkts(), 110);
        c.note_send(Time::from_secs(1));
        // Flow becomes app-limited with only ~12 segments in use.
        assert!(!c.validate_app_limited(Time::from_secs(1), 12));
        // One RTO later the window decays halfway toward max(used, IW).
        assert!(c.validate_app_limited(Time::from_secs(3), 12));
        assert_eq!(c.cwnd_pkts(), (110 + 12) / 2);
        // ssthresh banked 3/4 of the forgotten window.
        assert!(c.ssthresh >= 0.75 * 110.0);
        assert_eq!(c.stats().app_limited_decays, 1);
        // Repeated idling keeps decaying toward usage.
        assert!(c.validate_app_limited(Time::from_secs(6), 12));
        assert_eq!(c.cwnd_pkts(), (61 + 12) / 2);
    }

    #[test]
    fn network_limited_flow_never_decays() {
        let mut c = cc();
        c.rtt.on_sample(Duration::from_millis(100));
        for _ in 0..50 {
            c.on_ack_slow_start(1);
        }
        c.note_send(Time::from_secs(1));
        let cwnd = c.cwnd_pkts();
        for t in 1..20 {
            assert!(!c.validate_app_limited(Time::from_secs(t), cwnd));
        }
        assert_eq!(c.cwnd_pkts(), cwnd);
        assert_eq!(c.stats().app_limited_decays, 0);
    }

    #[test]
    fn validation_respects_disable_flag() {
        let mut c = TcpCc::new(TcpConfig { idle_reset: false });
        c.rtt.on_sample(Duration::from_millis(100));
        for _ in 0..50 {
            c.on_ack_slow_start(1);
        }
        c.note_send(Time::from_secs(1));
        assert!(!c.validate_app_limited(Time::from_secs(30), 2));
        assert_eq!(c.cwnd_pkts(), 60);
    }

    #[test]
    fn hystart_exits_on_delay_increase() {
        let mut c = cc();
        // Propagation floor 60 ms...
        c.rtt.on_sample(Duration::from_millis(60));
        for _ in 0..40 {
            c.on_ack_slow_start(1);
        }
        assert!(c.in_slow_start());
        // ...sRTT still near the floor: no exit.
        assert!(!c.maybe_hystart_exit());
        // Queue builds: samples well above floor + 25%.
        for _ in 0..20 {
            c.rtt.on_sample(Duration::from_millis(140));
        }
        assert!(c.maybe_hystart_exit());
        assert!(!c.in_slow_start());
        assert_eq!(c.ssthresh, c.cwnd());
        // Idempotent once exited.
        assert!(!c.maybe_hystart_exit());
    }

    #[test]
    fn hystart_never_fires_at_initial_window() {
        let mut c = cc();
        c.rtt.on_sample(Duration::from_millis(60));
        for _ in 0..20 {
            c.rtt.on_sample(Duration::from_millis(200));
        }
        // cwnd still at IW: exiting would pin ssthresh at 10 forever.
        assert!(!c.maybe_hystart_exit());
    }

    #[test]
    fn cwnd_floor_is_one_segment() {
        let mut c = cc();
        c.on_rto();
        c.on_rto();
        assert_eq!(c.cwnd_pkts(), 1);
        c.on_fast_retransmit();
        assert!(c.cwnd_pkts() >= 1);
    }
}
