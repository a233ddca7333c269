//! ECF — Earliest Completion First (the paper's contribution, Algorithm 1).
//!
//! The default minRTT scheduler falls back to a slower path the moment the
//! fastest path's window is full. ECF instead asks: *given the `k` segments
//! still queued, would waiting for the fast path complete the transfer sooner
//! than using the slow path right now?* If so it idles rather than committing
//! bytes to the slow path — keeping the fast path busy across request
//! boundaries and avoiding the idle-timeout CWND resets the paper identifies
//! as the root cause of fast-path under-utilization.

use crate::explain::{EcfTerms, Why};
use crate::types::{secs, Decision, SchedInput, Scheduler};

/// Default hysteresis factor β; the paper sets 0.25 throughout its evaluation
/// and reports other values behave similarly (we regenerate that claim in the
/// `ablation_beta` experiment).
const DEFAULT_BETA: f64 = 0.25;

/// Configuration knobs for [`Ecf`]. The defaults reproduce the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcfConfig {
    /// Hysteresis factor β applied to the waiting threshold once waiting.
    pub beta: f64,
    /// Include the δ = max(σf, σs) variability margin. Disabling this is the
    /// `ablation_delta` experiment, not a paper mode.
    pub use_delta: bool,
    /// Apply the second inequality (k/CWNDs)·RTTs ≥ 2·RTTf + δ that guards
    /// against waiting when the slow path would finish quickly anyway.
    /// Disabling this is the `ablation_second_ineq` experiment.
    pub use_second_inequality: bool,
}

impl Default for EcfConfig {
    fn default() -> Self {
        EcfConfig { beta: DEFAULT_BETA, use_delta: true, use_second_inequality: true }
    }
}

/// The ECF scheduler. See the module docs and the paper's Algorithm 1.
#[derive(Debug, Clone, Default)]
pub struct Ecf {
    cfg: EcfConfig,
    /// The `waiting` hysteresis bit from Algorithm 1: set while we have
    /// decided to hold segments back for the fast subflow. A decision shows
    /// it as [`EcfTerms::beta_applied`].
    ///
    /// * It is **set** the moment `select` returns [`Decision::Wait`] and
    ///   stays set across later `Wait` verdicts; while set, the first
    ///   inequality's threshold gains the `(1 + β)` bonus, so leaving the
    ///   waiting state needs a larger backlog than entering it.
    /// * It is **cleared** when the first inequality fails and ECF sends on
    ///   the slow path ([`Why::EcfBacklogSend`]), and by `reset`.
    /// * It is **unchanged** by fast-path sends ([`Why::FastestFree`]), by
    ///   second-inequality sends ([`Why::EcfSecondInequalitySend`]) and by
    ///   `Blocked` verdicts.
    ///
    /// `waiting_bit_across_transitions` in this module's tests is the
    /// executable version of this contract.
    waiting: bool,
}

impl Ecf {
    /// ECF with the paper's parameters (β = 0.25).
    pub fn new() -> Self {
        Self::default()
    }

    /// ECF with explicit configuration (ablations, β sweeps).
    pub(crate) fn with_config(cfg: EcfConfig) -> Self {
        Ecf { cfg, waiting: false }
    }
}

impl Scheduler for Ecf {
    fn name(&self) -> &'static str {
        "ecf"
    }

    /// Algorithm 1, with the terms of its comparison as provenance.
    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, Why) {
        // Fastest subflow by sRTT, regardless of window space.
        let Some(xf) = input.fastest() else {
            return (Decision::Blocked, Why::NoCapacity);
        };
        if xf.has_space() {
            // Algorithm 1: the fast subflow is available — just use it.
            return (Decision::Send(xf.id), Why::FastestFree);
        }
        // Fast subflow is cwnd-limited. The candidate is whatever the default
        // scheduler would pick among the remaining paths.
        let Some(xs) = input.fastest_available() else {
            return (Decision::Blocked, Why::NoCapacity);
        };

        let k = input.queued_pkts.max(1) as f64;
        let rtt_f = secs(xf.srtt);
        let rtt_s = secs(xs.srtt);
        let cwnd_f = f64::from(xf.cwnd.max(1));
        let cwnd_s = f64::from(xs.cwnd.max(1));
        let delta = if self.cfg.use_delta { secs(xf.rtt_dev.max(xs.rtt_dev)) } else { 0.0 };

        // (1 + k/CWNDf)·RTTf: wait one RTTf for the window to open, then
        // k/CWNDf rounds of transfer.
        let wait_for_fast = (1.0 + k / cwnd_f) * rtt_f;
        let beta_applied = self.waiting;
        let beta = if beta_applied { self.cfg.beta } else { 0.0 };
        let threshold = (1.0 + beta) * (rtt_s + delta);
        // The second inequality's terms: segments transfer in whole
        // windows, hence the ceil on the round count (this also matches the
        // paper's worked 11-packet example, where k=1 on the slow path
        // costs a full RTTs).
        let slow_time = (k / cwnd_s).ceil().max(1.0) * rtt_s;
        let terms = EcfTerms {
            wait_for_fast_s: wait_for_fast,
            threshold_s: threshold,
            slow_time_s: slow_time,
            slow_floor_s: 2.0 * rtt_f + delta,
            delta_s: delta,
            beta_applied,
        };

        if wait_for_fast < threshold {
            // Waiting for the fast subflow is predicted to complete earlier
            // than handing this segment to xs. The second inequality insists
            // that xs really would be slower than the ≥ 2·RTTf floor of the
            // waiting option.
            if !self.cfg.use_second_inequality || slow_time >= terms.slow_floor_s {
                self.waiting = true;
                return (Decision::Wait, Why::EcfWait(terms));
            }
            return (Decision::Send(xs.id), Why::EcfSecondInequalitySend(terms));
        }
        // Plenty of backlog: using the extra bandwidth of xs shortens the
        // completion time. Clear the hysteresis bit.
        self.waiting = false;
        (Decision::Send(xs.id), Why::EcfBacklogSend(terms))
    }

    fn reset(&mut self) {
        self.waiting = false;
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::types::testutil::path;
    use crate::types::{PathId, PathSnapshot};

    fn input<'a>(paths: &'a [PathSnapshot], k: u64) -> SchedInput<'a> {
        SchedInput { paths, queued_pkts: k, send_window_free_pkts: 1 << 20 }
    }

    /// The `waiting` bit as a decision reports it: whether a probe with the
    /// fast path full (run on a clone) applies the β bonus.
    fn waiting(ecf: &Ecf) -> bool {
        let probe = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let (_, why) = ecf.clone().select_explained(&input(&probe, 1));
        why.ecf_terms().expect("fast path full: an ECF rule fires").beta_applied
    }

    #[test]
    fn uses_fast_path_when_available() {
        let paths = [path(0, 10, 10, 3), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&paths, 50)), Decision::Send(PathId(0)));
    }

    #[test]
    fn paper_example_waits_for_fast_path() {
        // The §3.2 motivating example: RTTs 10 ms vs 100 ms, both cwnd 10,
        // 11 packets to send. After the fast path absorbs 10, k=1 remains and
        // the fast window is full. Waiting costs ≈20 ms; the slow path costs
        // 100 ms. ECF must wait.
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&paths, 1)), Decision::Wait);
        assert!(waiting(&ecf));
    }

    #[test]
    fn large_backlog_uses_slow_path() {
        // Enough queued data to keep both pipes busy: first inequality fails
        // ((1 + 200/10)·10ms = 210ms ≥ 100ms), so ECF uses the slow path.
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&paths, 200)), Decision::Send(PathId(1)));
        assert!(!waiting(&ecf));
    }

    #[test]
    fn second_inequality_prevents_pointless_waiting() {
        // Slow path barely slower: rtt_s = 30 ms vs rtt_f = 20 ms, k small.
        // First inequality: (1 + 1/10)·20 = 22 < 30 → would wait, but the
        // slow path finishes in 30 ms < 2·20 = 40 ms, so ECF sends on it.
        let paths = [path(0, 20, 10, 10), path(1, 30, 10, 0)];
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&paths, 1)), Decision::Send(PathId(1)));
    }

    #[test]
    fn hysteresis_beta_keeps_waiting() {
        // Construct a borderline case that only passes the first inequality
        // with the waiting-state β bonus.
        let paths = [path(0, 48, 10, 10), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        // k=11: (1 + 11/10)·48 = 100.8 ≥ 100 → not waiting without β.
        assert_eq!(ecf.select(&input(&paths, 11)), Decision::Send(PathId(1)));
        // Enter waiting with a smaller backlog...
        assert_eq!(ecf.select(&input(&paths, 1)), Decision::Wait);
        // ...now the same k=11 call stays waiting: threshold is 1.25·100 = 125.
        assert_eq!(ecf.select(&input(&paths, 11)), Decision::Wait);
    }

    #[test]
    fn delta_margin_widens_threshold() {
        // k=16: without δ, (1 + 16/10)·40 = 104 ≥ 100 → send on slow.
        // With δ = 30 ms deviation: 104 < 130 and the second inequality holds
        // (ceil(16/10)·100 = 200 ≥ 2·40 + 30), so ECF waits.
        let mut fast = path(0, 40, 10, 10);
        let slow = path(1, 100, 10, 0);
        fast.rtt_dev = Duration::from_millis(30);

        let paths = [fast, slow];
        let mut with_delta = Ecf::new();
        assert_eq!(with_delta.select(&input(&paths, 16)), Decision::Wait);

        let mut without = Ecf::with_config(EcfConfig { use_delta: false, ..EcfConfig::default() });
        assert_eq!(without.select(&input(&paths, 16)), Decision::Send(PathId(1)));
    }

    #[test]
    fn blocked_when_nothing_usable() {
        let mut a = path(0, 10, 10, 10);
        let mut b = path(1, 100, 10, 10);
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&[a, b], 5)), Decision::Blocked);
        a.usable = false;
        b.usable = false;
        assert_eq!(ecf.select(&input(&[a, b], 5)), Decision::Blocked);
    }

    #[test]
    fn reset_clears_waiting() {
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        ecf.select(&input(&paths, 1));
        assert!(waiting(&ecf));
        ecf.reset();
        assert!(!waiting(&ecf));
    }

    #[test]
    fn three_paths_waits_on_best_candidate() {
        // Fast full; two slower candidates — the decision must be made
        // against the *best available* (50 ms), and with k=1 ECF waits since
        // ceil(1/10)·50 = 50 ≥ 2·10.
        let paths = [path(0, 10, 10, 10), path(1, 50, 10, 0), path(2, 200, 10, 0)];
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&paths, 1)), Decision::Wait);
    }

    #[test]
    fn no_starvation_backlog_growth_exits_waiting() {
        // From the waiting state, growing the backlog k past the
        // first-inequality threshold must flip back to Send on the slow path:
        // waiting may never starve the connection once there is enough data
        // to fill both pipes. With RTTs 10/100 ms, cwnd 10, and the β = 0.25
        // bonus active, the threshold is (1 + k/10)·10 ≥ 1.25·100 → k ≥ 115.
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        assert_eq!(ecf.select(&input(&paths, 1)), Decision::Wait);
        assert!(waiting(&ecf));

        // Below the hysteresis threshold the decision must stay Wait...
        assert_eq!(ecf.select(&input(&paths, 114)), Decision::Wait);
        assert!(waiting(&ecf));
        // ...and the first k at/above it exits waiting onto the slow path.
        assert_eq!(ecf.select(&input(&paths, 115)), Decision::Send(PathId(1)));
        assert!(!waiting(&ecf));

        // The exit is monotone: every larger backlog also sends.
        for k in [116, 200, 1_000, 100_000] {
            let mut e = Ecf::new();
            e.select(&input(&paths, 1)); // enter waiting
            assert_eq!(e.select(&input(&paths, k)), Decision::Send(PathId(1)), "k={k}");
        }
    }

    /// Executable version of the `waiting` contract: how the hysteresis
    /// bit behaves across every kind of transition, including wait→send.
    #[test]
    fn waiting_bit_across_transitions() {
        let full_fast = path(0, 10, 10, 10);
        let free_fast = path(0, 10, 10, 3);
        let slow = path(1, 100, 10, 0);
        let mut ecf = Ecf::new();

        // Enter waiting: tail case, both inequalities hold.
        assert_eq!(ecf.select(&input(&[full_fast, slow], 1)), Decision::Wait);
        assert!(waiting(&ecf));

        // A fast-path send does NOT clear the bit: the episode survives the
        // window momentarily opening.
        assert_eq!(ecf.select(&input(&[free_fast, slow], 1)), Decision::Send(PathId(0)));
        assert!(waiting(&ecf));

        // Blocked leaves it untouched.
        let full_slow = path(1, 100, 10, 10);
        assert_eq!(ecf.select(&input(&[full_fast, full_slow], 1)), Decision::Blocked);
        assert!(waiting(&ecf));

        // The wait→send transition that DOES clear it: backlog grows past
        // the β-boosted threshold and ECF commits to the slow path.
        assert_eq!(ecf.select(&input(&[full_fast, slow], 200)), Decision::Send(PathId(1)));
        assert!(!waiting(&ecf));

        // A second-inequality send leaves the bit as-is (never entered
        // waiting here): slow barely slower than fast.
        let near_fast = path(0, 20, 10, 10);
        let near_slow = path(1, 30, 10, 0);
        let mut e2 = Ecf::new();
        assert_eq!(e2.select(&input(&[near_fast, near_slow], 1)), Decision::Send(PathId(1)));
        assert!(!waiting(&e2));
    }

    /// select_explained reports the rule that fired and must agree with
    /// select for identical state and input.
    #[test]
    fn provenance_matches_decision() {
        use crate::explain::Why;
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];

        let mut ecf = Ecf::new();
        let (d, why) = ecf.select_explained(&input(&paths, 1));
        assert_eq!(d, Decision::Wait);
        assert!(matches!(why, Why::EcfWait(_)), "{why:?}");

        let (d, why) = ecf.select_explained(&input(&paths, 200));
        assert_eq!(d, Decision::Send(PathId(1)));
        assert!(matches!(why, Why::EcfBacklogSend(_)), "{why:?}");

        let free = [path(0, 10, 10, 3), path(1, 100, 10, 0)];
        let (d, why) = ecf.select_explained(&input(&free, 5));
        assert_eq!(d, Decision::Send(PathId(0)));
        assert_eq!(why, Why::FastestFree);

        let near = [path(0, 20, 10, 10), path(1, 30, 10, 0)];
        let (d, why) = Ecf::new().select_explained(&input(&near, 1));
        assert_eq!(d, Decision::Send(PathId(1)));
        assert!(matches!(why, Why::EcfSecondInequalitySend(_)), "{why:?}");

        let blocked = [path(0, 10, 10, 10), path(1, 100, 10, 10)];
        let (d, why) = Ecf::new().select_explained(&input(&blocked, 1));
        assert_eq!(d, Decision::Blocked);
        assert_eq!(why, Why::NoCapacity);
    }

    /// The decision event carries the δ the scheduler *used*, not a value
    /// callers must recompute: with `use_delta` off it reads zero even
    /// though the snapshots have non-zero deviations.
    #[test]
    fn provenance_exposes_computed_delta() {
        let mut fast = path(0, 40, 10, 10);
        let mut slow = path(1, 100, 10, 0);
        fast.rtt_dev = Duration::from_millis(30);
        slow.rtt_dev = Duration::from_millis(10);
        let paths = [fast, slow];

        let (_, why) = Ecf::new().select_explained(&input(&paths, 16));
        let terms = why.ecf_terms().expect("ecf rule fired");
        assert!((terms.delta_s - 0.030).abs() < 1e-12);
        assert!(!terms.beta_applied);

        let mut no_delta = Ecf::with_config(EcfConfig { use_delta: false, ..EcfConfig::default() });
        let (_, why) = no_delta.select_explained(&input(&paths, 16));
        assert_eq!(why.ecf_terms().expect("ecf rule fired").delta_s, 0.0);

        // Once waiting, the β bonus is reported as applied.
        let tail = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let mut ecf = Ecf::new();
        ecf.select(&input(&tail, 1));
        let (_, why) = ecf.select_explained(&input(&tail, 1));
        assert!(why.ecf_terms().unwrap().beta_applied);
    }
}
