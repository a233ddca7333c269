//! Time-varying bandwidth schedules.
//!
//! Section 5.3 of the paper varies the two interfaces' shaped rates at
//! exponentially distributed intervals (mean 40 s), drawing each new rate
//! uniformly from a fixed set. [`RateSchedule::random`] regenerates exactly
//! that process from a seed, so "scenario 6" is a stable, nameable object.

use std::time::Duration;

use simnet::Time;
use testkit::Rng;

/// A piecewise-constant bandwidth plan for one link.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(when, new rate in bps)`, strictly increasing in time. The rate before
    /// the first entry is whatever the link was configured with.
    pub changes: Vec<(Time, u64)>,
}

impl RateSchedule {
    /// The paper's §5.3 process: change points at exponentially distributed
    /// intervals with the given mean, each new rate drawn uniformly from
    /// `rates_mbps`, covering `[0, horizon]`. A zero mean interval would
    /// never reach the horizon, so it panics, as an empty rate set does.
    pub(crate) fn random(
        seed: u64,
        mean_interval: Duration,
        rates_mbps: &[f64],
        horizon: Time,
    ) -> Self {
        assert!(!rates_mbps.is_empty(), "need at least one candidate rate");
        assert!(mean_interval > Duration::ZERO, "the mean interval must be positive");
        let mut rng = Rng::seed_from_u64(seed);
        let mut changes = Vec::new();
        let mut t = Time::ZERO;
        loop {
            // Inverse-transform sample of Exp(1/mean).
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = Duration::from_secs_f64(-u.ln() * mean_interval.as_secs_f64());
            t += gap;
            if t > horizon {
                break;
            }
            let mbps = rates_mbps[rng.gen_range(0..rates_mbps.len())];
            changes.push((t, (mbps * 1e6) as u64));
        }
        RateSchedule { changes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let mk = |seed| {
            RateSchedule::random(
                seed,
                Duration::from_secs(40),
                &[0.3, 1.1, 1.7, 4.2, 8.6],
                Time::from_secs(600),
            )
        };
        assert_eq!(mk(6), mk(6));
        assert_ne!(mk(6), mk(7));
    }

    #[test]
    fn random_changes_are_sorted_and_bounded() {
        let s = RateSchedule::random(3, Duration::from_secs(40), &[0.3, 8.6], Time::from_secs(600));
        for w in s.changes.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(t, r) in &s.changes {
            assert!(t <= Time::from_secs(600));
            assert!(r == 300_000 || r == 8_600_000);
        }
    }

    #[test]
    fn mean_interval_roughly_respected() {
        // Over a long horizon the number of change points ≈ horizon / mean.
        let s = RateSchedule::random(11, Duration::from_secs(40), &[1.0], Time::from_secs(40_000));
        let n = s.changes.len() as f64;
        assert!((700.0..1300.0).contains(&n), "n={n}");
    }

    #[test]
    #[should_panic(expected = "mean interval must be positive")]
    fn random_refuses_a_zero_interval() {
        RateSchedule::random(1, Duration::ZERO, &[1.0], Time::from_secs(1));
    }
}
