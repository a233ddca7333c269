//! Decision provenance: *why* a scheduler chose what it chose.
//!
//! The paper's claims are mechanistic — ECF wins because it idles the slow
//! subflow at precise moments — so a throughput number alone cannot confirm
//! the mechanism. [`Why`] is the typed record a scheduler attaches to each
//! [`crate::Decision`]: which inequality fired, with what numeric terms, or
//! which waiting state held. The `telemetry` crate embeds it verbatim in
//! `SchedDecision` events, so a trace of a run is a complete decision log.
//!
//! Schedulers report provenance through
//! [`Scheduler::select_explained`](crate::Scheduler::select_explained), their
//! one decision method. A third-party scheduler with no finer provenance
//! returns [`Why::Unspecified`] and still gets fully populated decision
//! events (inputs + verdict) for free.

/// The numeric terms of ECF's two inequalities at one decision, in seconds.
///
/// Inequality 1 (wait pays off): `wait_for_fast < threshold`, i.e.
/// `(1 + k/cwnd_F)·rtt_F < (1 + β?)·(rtt_S + δ)`.
/// Inequality 2 (the slow path really is slow): `slow_time ≥ slow_floor`,
/// i.e. `ceil(k/cwnd_S)·rtt_S ≥ 2·rtt_F + δ`.
///
/// `delta_s` is the δ = max(σ_F, σ_S) variability margin *as computed by the
/// scheduler* — consumers must read it from here rather than recomputing it
/// from the path snapshots (the `ablation_delta` configuration zeroes it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EcfTerms {
    /// LHS of inequality 1: `(1 + k/cwnd_F)·rtt_F`.
    pub wait_for_fast_s: f64,
    /// RHS of inequality 1: `(1 + β?)·(rtt_S + δ)`.
    pub threshold_s: f64,
    /// LHS of inequality 2: `ceil(k/cwnd_S)·rtt_S`.
    pub slow_time_s: f64,
    /// RHS of inequality 2: `2·rtt_F + δ`.
    pub slow_floor_s: f64,
    /// The δ margin the scheduler actually used (0 when disabled).
    pub delta_s: f64,
    /// True when the β hysteresis bonus was applied (already waiting).
    pub beta_applied: bool,
}

/// Scheduler-specific provenance for one decision.
///
/// Every variant names the *rule* that produced the verdict; rule-specific
/// numeric inputs ride along so a trace consumer can re-check the
/// arithmetic without re-running the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Why {
    /// The scheduler did not report provenance (for third-party
    /// implementations with no finer rule to name).
    Unspecified,
    /// The lowest-sRTT usable path had window space, so there was nothing
    /// to decide (ECF's and BLEST's trivial case).
    FastestFree,
    /// minRTT's rule: the lowest-sRTT path *among those with space*.
    FastestAvailable,
    /// No usable path had congestion-window space.
    NoCapacity,
    /// ECF waits: inequality 1 held and inequality 2 confirmed that the
    /// slow path would finish later than the ≥ 2·RTT_F floor.
    EcfWait(EcfTerms),
    /// ECF sends on the slow path because inequality 2 failed: the slow
    /// path finishes soon enough that waiting buys nothing.
    EcfSecondInequalitySend(EcfTerms),
    /// ECF sends on the slow path because inequality 1 failed: the backlog
    /// is large enough that the slow path's extra bandwidth wins. Clears
    /// the waiting hysteresis.
    EcfBacklogSend(EcfTerms),
    /// BLEST waits: the fast path's projected transmission during one
    /// slow-path RTT (scaled by λ) no longer fits the free send window.
    BlestWait {
        /// Segments the fast path could move in one slow RTT, λ-scaled.
        projected_pkts: f64,
        /// Current adaptive scale factor λ.
        lambda: f64,
    },
    /// BLEST sends on the slow path: the projection fits the window.
    BlestFits {
        /// Segments the fast path could move in one slow RTT, λ-scaled.
        projected_pkts: f64,
        /// Current adaptive scale factor λ.
        lambda: f64,
    },
    /// DAPS sends on the path holding the largest deficit credit.
    DapsDesignated {
        /// The chosen path's credit after this segment's deposit.
        credit: f64,
    },
    /// DAPS holds the segment for its designated path (window full there).
    DapsHold {
        /// The designated path's credit (deposit rolled back).
        credit: f64,
    },
    /// STTF sends on the path with the minimum estimated delivery time.
    SttfBest {
        /// The winning estimate, seconds.
        estimate_s: f64,
    },
    /// STTF waits for the minimum-estimate path whose window is full.
    SttfWaitBest {
        /// The winning (but window-full) estimate, seconds.
        estimate_s: f64,
    },
    /// Single-path: traffic is pinned here.
    Pinned,
}

impl Why {
    /// Stable lowercase label for reports and trace files.
    pub fn label(&self) -> &'static str {
        match self {
            Why::Unspecified => "unspecified",
            Why::FastestFree => "fastest_free",
            Why::FastestAvailable => "fastest_available",
            Why::NoCapacity => "no_capacity",
            Why::EcfWait(_) => "ecf_wait",
            Why::EcfSecondInequalitySend(_) => "ecf_second_ineq_send",
            Why::EcfBacklogSend(_) => "ecf_backlog_send",
            Why::BlestWait { .. } => "blest_wait",
            Why::BlestFits { .. } => "blest_fits",
            Why::DapsDesignated { .. } => "daps_designated",
            Why::DapsHold { .. } => "daps_hold",
            Why::SttfBest { .. } => "sttf_best",
            Why::SttfWaitBest { .. } => "sttf_wait_best",
            Why::Pinned => "pinned",
        }
    }

    /// The ECF inequality terms, when this is an ECF-rule decision.
    pub fn ecf_terms(&self) -> Option<&EcfTerms> {
        match self {
            Why::EcfWait(t) | Why::EcfSecondInequalitySend(t) | Why::EcfBacklogSend(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            Why::Unspecified,
            Why::FastestFree,
            Why::FastestAvailable,
            Why::NoCapacity,
            Why::EcfWait(EcfTerms::default()),
            Why::EcfSecondInequalitySend(EcfTerms::default()),
            Why::EcfBacklogSend(EcfTerms::default()),
            Why::BlestWait { projected_pkts: 0.0, lambda: 1.0 },
            Why::BlestFits { projected_pkts: 0.0, lambda: 1.0 },
            Why::DapsDesignated { credit: 0.0 },
            Why::DapsHold { credit: 0.0 },
            Why::SttfBest { estimate_s: 0.0 },
            Why::SttfWaitBest { estimate_s: 0.0 },
            Why::Pinned,
        ];
        let mut labels: Vec<&str> = all.iter().map(|w| w.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn ecf_terms_accessor() {
        let t = EcfTerms { delta_s: 0.5, ..EcfTerms::default() };
        assert_eq!(Why::EcfWait(t).ecf_terms().unwrap().delta_s, 0.5);
        assert!(Why::FastestFree.ecf_terms().is_none());
    }
}
