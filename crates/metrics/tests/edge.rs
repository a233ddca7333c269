//! Edge-case coverage for the measurement utilities: empty and single-sample
//! distributions must not panic and must return their documented values
//! (0 for every statistic of an empty set; the sample itself for every
//! order statistic of a singleton).

use metrics::{mean, stddev, Cdf};
use testkit::prop::{check, vec_of};

#[test]
fn empty_cdf_returns_documented_zeroes() {
    let c = Cdf::from_samples(Vec::new());
    assert!(c.is_empty());
    assert_eq!(c.len(), 0);
    // Every quantile of an empty distribution is the documented 0.
    for q in [0.0, 0.25, 0.5, 0.75, 0.999, 1.0] {
        assert_eq!(c.quantile(q), 0.0, "quantile({q})");
    }
    assert_eq!(c.median(), 0.0);
    assert_eq!(c.mean(), 0.0);
    assert_eq!(c.max(), 0.0);
    assert_eq!(c.cdf_at(0.0), 0.0);
    assert_eq!(c.ccdf_at(0.0), 1.0);
    // Series evaluation stays well-formed on no data.
    let s = c.ccdf_series(10.0, 5);
    assert_eq!(s.len(), 5);
    assert!(s.iter().all(|&(_, p)| p == 1.0));
}

#[test]
fn all_nan_input_collapses_to_empty() {
    let c = Cdf::from_samples(vec![f64::NAN, f64::NAN]);
    assert!(c.is_empty());
    assert_eq!(c.quantile(0.5), 0.0);
}

#[test]
fn single_sample_cdf_is_a_step_function() {
    let c = Cdf::from_samples(vec![3.5]);
    assert_eq!(c.len(), 1);
    // Every quantile of a singleton is the sample itself.
    for q in [0.0, 0.001, 0.5, 0.95, 1.0] {
        assert_eq!(c.quantile(q), 3.5, "quantile({q})");
    }
    assert_eq!(c.median(), 3.5);
    assert_eq!(c.mean(), 3.5);
    assert_eq!(c.max(), 3.5);
    // Step at the sample: P(X ≤ x) jumps 0 → 1 exactly at 3.5.
    assert_eq!(c.cdf_at(3.4), 0.0);
    assert_eq!(c.cdf_at(3.5), 1.0);
    assert_eq!(c.ccdf_at(3.5), 0.0);
    assert_eq!(c.ccdf_at(3.6), 0.0);
}

#[test]
fn empty_summary_stats_are_zero() {
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(stddev(&[]), 0.0);
}

#[test]
fn single_sample_summary_is_degenerate() {
    assert_eq!(mean(&[-2.5]), -2.5);
    // The deviation of a single observation is documented as 0, not NaN.
    assert_eq!(stddev(&[-2.5]), 0.0);
}

#[test]
fn quantiles_are_monotone_and_within_sample_range() {
    // Property sweep: for any non-empty sample set, quantiles are monotone
    // in q and bounded by the sample extremes — including the singleton case.
    check(128, vec_of(-1_000.0f64..1_000.0, 1..40), |xs| {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let c = Cdf::from_samples(xs);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = c.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}");
            assert!((lo..=hi).contains(&v), "quantile({q})={v} outside [{lo}, {hi}]");
            prev = v;
        }
    });
}
