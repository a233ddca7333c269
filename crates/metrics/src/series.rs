//! Time series collection.
//!
//! Used by the trace experiments: CWND over time (Figs 11, 12), send-buffer
//! occupancy (Fig 3), cumulative download amount (Fig 1), per-chunk
//! throughput (Fig 17).

/// A `(t, value)` series in seconds.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Samples in insertion order; time should be non-decreasing.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append one sample.
    pub fn push(&mut self, t: f64, v: f64) {
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value at or before `t` (step interpolation), or `None` before the
    /// first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// Downsample to at most `max_points` by keeping every k-th point
    /// (always keeping the last). For readable text reports of long traces.
    pub fn thin(&self, max_points: usize) -> TimeSeries {
        assert!(max_points >= 2);
        if self.points.len() <= max_points {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(max_points);
        let mut points: Vec<(f64, f64)> = self.points.iter().step_by(stride).copied().collect();
        if points.last() != self.points.last() {
            points.push(*self.points.last().expect("non-empty"));
        }
        TimeSeries { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        let mut s = TimeSeries::new();
        for i in 0..n {
            s.push(i as f64, (i * 2) as f64);
        }
        s
    }

    #[test]
    fn value_at_steps() {
        let s = ramp(10);
        assert_eq!(s.value_at(-1.0), None);
        assert_eq!(s.value_at(0.0), Some(0.0));
        assert_eq!(s.value_at(3.5), Some(6.0));
        assert_eq!(s.value_at(100.0), Some(18.0));
    }

    #[test]
    fn thin_keeps_endpoints() {
        let s = ramp(1000);
        let t = s.thin(50);
        assert!(t.len() <= 51);
        assert_eq!(t.points[0], s.points[0]);
        assert_eq!(t.points.last(), s.points.last());
    }

    #[test]
    fn thin_noop_when_small() {
        let s = ramp(5);
        assert_eq!(s.thin(10).len(), 5);
    }
}
