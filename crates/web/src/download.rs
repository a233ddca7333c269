//! Single-object download (the paper's `wget` workload, §5.4): one MPTCP
//! connection, one GET, measure completion time.

use mptcp::{Api, Application, ConnId, ReqId};
use simnet::Time;

/// Downloads one object of a fixed size on connection 0 and stops.
pub struct WgetApp {
    bytes: u64,
    /// Set when the download completes.
    pub completed_at: Option<Time>,
    req: Option<ReqId>,
}

impl WgetApp {
    /// Download `bytes` once.
    pub fn new(bytes: u64) -> Self {
        WgetApp { bytes, completed_at: None, req: None }
    }
}

impl Application for WgetApp {
    fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
        self.req = Some(api.request(0, self.bytes));
    }

    fn on_response_complete(&mut self, now: Time, _conn: ConnId, req: ReqId, _api: &mut Api<'_>) {
        debug_assert_eq!(Some(req), self.req);
        self.completed_at = Some(now);
    }
}

/// Downloads a list of objects back-to-back on one persistent connection
/// (idle gaps optional) — the repeated-GET pattern §5.5 builds on.
pub struct SequentialApp {
    sizes: Vec<u64>,
    /// Pause inserted between completing one object and requesting the next.
    gap: std::time::Duration,
    next: usize,
    /// Completion time per object, in order.
    pub completions: Vec<Time>,
}

impl SequentialApp {
    /// Download `sizes` in order with `gap` idle time between objects.
    pub fn new(sizes: Vec<u64>, gap: std::time::Duration) -> Self {
        SequentialApp { sizes, gap, next: 0, completions: Vec::new() }
    }

    /// True when every object finished.
    pub fn done(&self) -> bool {
        self.completions.len() == self.sizes.len()
    }

    fn issue(&mut self, api: &mut Api<'_>) {
        if self.next < self.sizes.len() {
            api.request(0, self.sizes[self.next]);
            self.next += 1;
        }
    }
}

impl Application for SequentialApp {
    fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
        self.issue(api);
    }

    fn on_response_complete(&mut self, now: Time, _c: ConnId, _r: ReqId, api: &mut Api<'_>) {
        self.completions.push(now);
        if self.gap.is_zero() {
            self.issue(api);
        } else if self.next < self.sizes.len() {
            api.set_timer(now + self.gap, 0);
        }
    }

    fn on_timer(&mut self, _now: Time, _token: u64, api: &mut Api<'_>) {
        self.issue(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;
    use mptcp::{Testbed, TestbedConfig};
    use std::time::Duration;

    #[test]
    fn wget_completes_and_reports_time() {
        let cfg = TestbedConfig::wifi_lte(1.0, 5.0, SchedulerKind::Default, 1);
        let mut tb = Testbed::new(cfg, WgetApp::new(512 * 1024));
        tb.run_until(Time::from_secs(60));
        let t = tb.app().completed_at.expect("download finishes");
        // 512 KB over ≤6 Mbps aggregate: at least 0.7 s, at most a few s.
        let secs = t.as_secs_f64();
        assert!((0.5..10.0).contains(&secs), "took {secs}s");
    }

    #[test]
    fn sequential_with_gaps_idles_the_connection() {
        // Gaps longer than the RTO force idle restarts on the fast subflow —
        // the precondition for the paper's Web-browsing findings.
        let cfg = TestbedConfig::wifi_lte(0.3, 8.6, SchedulerKind::Default, 2);
        let sizes = vec![256 * 1024; 5];
        let mut tb = Testbed::new(cfg, SequentialApp::new(sizes, Duration::from_secs(2)));
        tb.run_until(Time::from_secs(120));
        assert!(tb.app().done());
        let resets: u64 =
            (0..2).map(|s| tb.world().sender(0).subflows[s].cc.stats().idle_resets).sum();
        assert!(resets > 0, "expected idle CWND resets with 2 s gaps");
    }

    #[test]
    fn back_to_back_no_gap() {
        let cfg = TestbedConfig::wifi_lte(2.0, 2.0, SchedulerKind::Ecf, 3);
        let mut tb =
            Testbed::new(cfg, SequentialApp::new(vec![64 * 1024, 128 * 1024], Duration::ZERO));
        tb.run_until(Time::from_secs(60));
        assert!(tb.app().done());
        assert!(tb.app().completions[0] < tb.app().completions[1]);
    }
}
