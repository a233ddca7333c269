//! Empirical distributions: CDF / CCDF over collected samples.
//!
//! The paper reports most per-packet results as CDFs (Fig 5) or log-scale
//! CCDFs (Figs 13, 14, 20, 21, 23). [`Cdf`] owns a sorted sample vector and
//! answers the quantile / tail-probability queries those plots are built from.

/// An empirical distribution over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples (NaNs are discarded).
    pub fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| !x.is_nan());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Cdf { sorted: xs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// P(X > x) — the CCDF the paper plots on log axes.
    pub fn ccdf_at(&self, x: f64) -> f64 {
        1.0 - self.cdf_at(x)
    }

    /// The q-quantile (q in \[0, 1\]) by nearest-rank; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        crate::summary::mean(&self.sorted)
    }

    /// Largest sample (0 for an empty set).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Evaluate the CCDF at `n` evenly spaced points across `[0, hi]`,
    /// returning `(x, ccdf(x))` rows ready for printing/plotting.
    pub fn ccdf_series(&self, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two points");
        (0..n)
            .map(|i| {
                let x = hi * i as f64 / (n - 1) as f64;
                (x, self.ccdf_at(x))
            })
            .collect()
    }

    /// Evaluate the CDF at `n` evenly spaced points across `[0, hi]`.
    pub fn cdf_series(&self, hi: f64, n: usize) -> Vec<(f64, f64)> {
        self.ccdf_series(hi, n).into_iter().map(|(x, c)| (x, 1.0 - c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Cdf {
        Cdf::from_samples((1..=100).map(f64::from).collect())
    }

    #[test]
    fn cdf_endpoints() {
        let c = unit();
        assert_eq!(c.cdf_at(0.0), 0.0);
        assert_eq!(c.cdf_at(100.0), 1.0);
        assert_eq!(c.ccdf_at(100.0), 0.0);
        assert!((c.cdf_at(50.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let c = unit();
        assert_eq!(c.median(), 50.0);
        assert_eq!(c.quantile(0.99), 99.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_safe() {
        let c = Cdf::from_samples(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.median(), 0.0);
        assert_eq!(c.cdf_at(1.0), 0.0);
        assert_eq!(c.max(), 0.0);
    }

    #[test]
    fn nan_discarded() {
        let c = Cdf::from_samples(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.max(), 3.0);
    }

    #[test]
    fn series_shapes() {
        let c = unit();
        let s = c.ccdf_series(100.0, 11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[10].0, 100.0);
        // Monotone non-increasing.
        for w in s.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        let cs = c.cdf_series(100.0, 11);
        for (a, b) in s.iter().zip(&cs) {
            assert!((a.1 + b.1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unsorted_input_ok() {
        let c = Cdf::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!(c.median(), 3.0);
        assert_eq!(c.max(), 5.0);
    }
}
