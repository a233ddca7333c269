//! Order statistics for host timings and a fixed-memory histogram for the
//! simulated-time samples (a `fig9_grid` body produces 28 M out-of-order
//! delays; storing them would dominate the process's peak RSS, which is
//! itself a reported metric).

/// Median of `v` (mean of the two middle values when `v.len()` is even).
/// Sorts `v`. Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(v, 0.5)
}

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile of `v`. Sorts `v`.
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    (quantile_sorted(v, 0.25), quantile_sorted(v, 0.5), quantile_sorted(v, 0.75))
}

/// log2 of the sub-buckets per octave: values below `2^SUB_BITS` are
/// counted exactly, larger ones to a relative precision of `2^-SUB_BITS`.
const SUB_BITS: u32 = 13;

/// Log-linear histogram over `u64` samples (microseconds here). The bucket
/// of a value, and therefore every percentile read back, is a pure
/// function of the sample multiset, so a fixed seed reproduces the same
/// reported number bit for bit on any machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < (1 << SUB_BITS) {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(e) << SUB_BITS) + (v >> e)) as usize
    }

    /// Smallest value that lands in bucket `idx`.
    fn lower_bound(idx: usize) -> u64 {
        if idx < (1 << SUB_BITS) {
            return idx as u64;
        }
        let e = (idx >> SUB_BITS) - 1;
        (((idx & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) as u64) << e
    }

    /// Count one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Samples counted so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that were exactly zero.
    pub fn zeros(&self) -> u64 {
        self.counts.first().map_or(0, |&c| u64::from(c))
    }

    /// Nearest-rank percentile `p` in `(0, 100]`: the lower bound of the
    /// bucket holding the sample of rank `ceil(p/100 × n)`. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::lower_bound(i);
            }
        }
        unreachable!("rank {rank} beyond {} counted samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quartiles(&mut v), (1.75, 2.5, 3.25));
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn hist_buckets_round_trip() {
        for v in
            [0u64, 1, 8191, 8192, 8193, 16383, 16384, 16385, 32767, 32768, 123_456_789, 1 << 40]
        {
            let lb = Hist::lower_bound(Hist::index(v));
            assert!(lb <= v, "{v} -> {lb}");
            assert!((v - lb) as f64 <= v as f64 / 8192.0, "{v} -> {lb}");
            assert_eq!(Hist::index(lb), Hist::index(v));
        }
    }

    #[test]
    fn hist_percentiles_are_nearest_rank() {
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(Hist::default().percentile(99.0), 0);
    }
}
