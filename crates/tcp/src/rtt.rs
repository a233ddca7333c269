//! RTT estimation per RFC 6298, with the Linux 200 ms RTO floor.
//!
//! Besides sRTT/RTTVAR this estimator is what feeds ECF's δ margin: the
//! paper's δ = max(σf, σs) uses the per-path RTT deviation, for which RTTVAR
//! (a smoothed mean absolute deviation) is the standard in-kernel proxy.

use std::time::Duration;

/// Nanoseconds in a second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `d` in nanoseconds, saturating (a `Duration` beyond 584 years is "never").
fn nanos(d: Duration) -> u64 {
    d.as_secs().saturating_mul(NANOS_PER_SEC).saturating_add(u64::from(d.subsec_nanos()))
}

/// [`RttEstimator::DEFAULT_MIN_RTO`] in nanoseconds.
const MIN_RTO_NANOS: u64 = RttEstimator::DEFAULT_MIN_RTO.as_nanos() as u64;
/// [`RttEstimator::DEFAULT_MAX_RTO`] in nanoseconds.
pub(crate) const MAX_RTO_NANOS: u64 = RttEstimator::DEFAULT_MAX_RTO.as_nanos() as u64;

/// Smoothed RTT / deviation / RTO state for one subflow.
///
/// Every field is a `u64` of nanoseconds: one estimator per connection-path
/// is alive for the whole run, so it is kept at its information size (40 B,
/// where `Duration` fields take 120; the RTO bounds are constants). The
/// RFC 6298 updates divide by 2, 4 and 8, which divide a second's
/// nanoseconds exactly, so integer nanoseconds round exactly as `Duration`
/// arithmetic does; the getters hand out `Duration`s.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: u64,
    rttvar: u64,
    /// `u64::MAX` before the first sample.
    min_rtt: u64,
    samples: u64,
    /// HyStart delay threshold `min + max(min/4, 8 ms)` precomputed whenever
    /// `min_rtt` improves (rare) instead of on every slow-start ACK, where
    /// the `mul_f64` chain would otherwise run. `u64::MAX` until the first
    /// sample.
    hystart_thresh: u64,
}

impl RttEstimator {
    /// The RTO floor: Linux `TCP_RTO_MIN`, 200 ms.
    const DEFAULT_MIN_RTO: Duration = Duration::from_millis(200);
    /// A practical RTO ceiling (RFC 6298 allows ≥ 60 s; we keep 60 s).
    const DEFAULT_MAX_RTO: Duration = Duration::from_secs(60);
    /// RTO used before the first RTT sample (RFC 6298 §2.1 says 1 s).
    const INITIAL_RTO: Duration = Duration::from_secs(1);

    /// A fresh estimator; its RTO is clamped between 200 ms and 60 s.
    pub fn new() -> Self {
        RttEstimator { srtt: 0, rttvar: 0, min_rtt: u64::MAX, samples: 0, hystart_thresh: u64::MAX }
    }

    /// Feed one RTT measurement (RFC 6298 §2.2–2.3).
    pub fn on_sample(&mut self, rtt: Duration) {
        let r = nanos(rtt);
        if r < self.min_rtt {
            self.min_rtt = r;
            // `mul_f64` stays in `Duration`, whose rounding the threshold has
            // always had.
            self.hystart_thresh = nanos(rtt + rtt.mul_f64(0.25).max(Duration::from_millis(8)));
        }
        if self.samples == 0 {
            self.srtt = r;
            self.rttvar = r / 2;
        } else {
            let err = self.srtt.abs_diff(r);
            // RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − R|
            self.rttvar = (self.rttvar * 3 + err) / 4;
            // SRTT ← 7/8·SRTT + 1/8·R
            self.srtt = (self.srtt * 7 + r) / 8;
        }
        self.samples += 1;
    }

    /// Smoothed RTT (zero until the first sample).
    pub fn srtt(&self) -> Duration {
        Duration::from_nanos(self.srtt)
    }

    /// RTT deviation estimate — σ for ECF's δ margin.
    pub fn rttvar(&self) -> Duration {
        Duration::from_nanos(self.rttvar)
    }

    /// Number of samples fed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current RTO: SRTT + 4·RTTVAR, clamped to [200 ms, 60 s]; 1 s before
    /// any sample.
    pub fn rto(&self) -> Duration {
        Duration::from_nanos(self.rto_nanos())
    }

    /// [`Self::rto`] in nanoseconds. Derived on read: a few integer ops,
    /// where caching it cost a field.
    pub(crate) fn rto_nanos(&self) -> u64 {
        if self.samples == 0 {
            return nanos(Self::INITIAL_RTO);
        }
        (self.srtt + self.rttvar * 4).clamp(MIN_RTO_NANOS, MAX_RTO_NANOS)
    }

    /// HyStart delay-increase threshold, `min_rtt + max(min_rtt/4, 8 ms)`
    /// ([`Duration::MAX`] before any sample — compares as "never exceeded").
    pub(crate) fn hystart_threshold(&self) -> Duration {
        if self.hystart_thresh == u64::MAX {
            Duration::MAX
        } else {
            Duration::from_nanos(self.hystart_thresh)
        }
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_one_second() {
        assert_eq!(RttEstimator::new().rto(), Duration::from_secs(1));
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.on_sample(Duration::from_millis(100));
        assert_eq!(e.srtt(), Duration::from_millis(100));
        assert_eq!(e.rttvar(), Duration::from_millis(50));
        // 100 + 4·50 = 300 ms.
        assert_eq!(e.rto(), Duration::from_millis(300));
    }

    #[test]
    fn steady_samples_converge() {
        let mut e = RttEstimator::new();
        for _ in 0..200 {
            e.on_sample(Duration::from_millis(80));
        }
        assert_eq!(e.srtt(), Duration::from_millis(80));
        assert!(e.rttvar() < Duration::from_millis(1));
        // RTO floors at 200 ms even for small variance.
        assert_eq!(e.rto(), Duration::from_millis(200));
    }

    #[test]
    fn variance_tracks_jitter() {
        let mut e = RttEstimator::new();
        for i in 0..400 {
            let ms = if i % 2 == 0 { 50 } else { 150 };
            e.on_sample(Duration::from_millis(ms));
        }
        // Mean ~100 ms, deviation on the order of 50 ms.
        assert!((80..=120).contains(&(e.srtt().as_millis() as u64)), "{:?}", e.srtt());
        assert!((30..=80).contains(&(e.rttvar().as_millis() as u64)), "{:?}", e.rttvar());
    }

    #[test]
    fn rto_clamped_to_max() {
        let mut e = RttEstimator::new();
        e.on_sample(Duration::from_secs(30));
        // 30 + 4·15 = 90 s, above the 60 s ceiling.
        assert_eq!(e.rto(), RttEstimator::DEFAULT_MAX_RTO);
    }

    #[test]
    fn smoothing_weights_follow_rfc() {
        let mut e = RttEstimator::new();
        e.on_sample(Duration::from_millis(100));
        e.on_sample(Duration::from_millis(200));
        // SRTT = 7/8·100 + 1/8·200 = 112.5 ms
        assert_eq!(e.srtt(), Duration::from_micros(112_500));
        // RTTVAR = 3/4·50 + 1/4·100 = 62.5 ms
        assert_eq!(e.rttvar(), Duration::from_micros(62_500));
    }
}
