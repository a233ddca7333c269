//! DAPS — Delay-Aware Packet Scheduling (Kuhn et al., IEEE ICC 2014), the
//! paper's second published comparator.
//!
//! DAPS aims for in-order arrival by spreading segments over paths in
//! proportion to the inverse of their RTTs ("assigns traffic to each subflow
//! inversely proportional to RTT", paper §5.1), and *holds* a segment for
//! its designated path when that path's window is full (the precomputed
//! schedule is what achieves in-order arrival). It is bandwidth-blind: two
//! paths with similar RTTs but very different shaped rates receive similar
//! shares, which is why the paper finds DAPS the weakest scheduler — it
//! keeps committing traffic to slow paths and stalls behind them.
//!
//! We realize the allocation with deterministic deficit counters (a weighted
//! round-robin): each scheduled segment deposits one segment's worth of
//! credit split by weight 1/RTT, and the available path with the largest
//! accumulated credit sends and is debited.

use crate::types::{secs, Decision, SchedInput, Scheduler};

/// The DAPS scheduler.
#[derive(Debug, Clone, Default)]
pub struct Daps {
    /// Deficit credit per path id (indexed by `PathId.0`).
    credits: Vec<f64>,
    /// Scratch: this call's 1/RTT weight per usable path, in input order.
    weights: Vec<f64>,
}

impl Daps {
    /// A fresh DAPS instance.
    pub fn new() -> Self {
        Daps::default()
    }
}

impl Daps {
    /// The DAPS rule with full provenance; `select` and `select_explained`
    /// both run through here.
    fn decide(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why) {
        // A fresh filter per pass instead of a collected `Vec`: this runs per
        // segment and must not allocate. Every pass visits paths in input
        // order, which fixes the f64 summation order.
        let usable = || input.paths.iter().filter(|p| p.usable);
        if !usable().any(|p| p.has_space()) {
            return (Decision::Blocked, crate::Why::NoCapacity);
        }

        // Each usable path's weight once, and the credit table sized once,
        // for the deposit, the designation and a rollback. The weights go
        // to scratch kept across calls: it allocates only when a call has
        // more usable paths than any before it.
        self.weights.clear();
        self.weights.extend(usable().map(|p| 1.0 / secs(p.srtt).max(1e-6)));
        let top = usable().map(|p| p.id.0).max().expect("a usable path has space");
        if self.credits.len() <= top {
            self.credits.resize(top + 1, 0.0);
        }

        // Deposit one segment of credit, split ∝ 1/RTT over usable paths.
        let total_w: f64 = self.weights.iter().sum();
        for (p, &w) in usable().zip(&self.weights) {
            self.credits[p.id.0] += w / total_w;
        }

        // The most-owed path is the *designated* one for this segment. DAPS
        // schedules for in-order arrival, so if the designated path has no
        // window space the segment waits for it rather than diverting — the
        // head-of-line behaviour that makes DAPS fragile on heterogeneous
        // paths (and that the paper measures as the weakest scheduler).
        let chosen = usable()
            .max_by(|a, b| {
                let ca = self.credits[a.id.0];
                let cb = self.credits[b.id.0];
                ca.partial_cmp(&cb).expect("credits are finite").then(b.id.cmp(&a.id))
            })
            .expect("a usable path has space");
        if !chosen.has_space() {
            let id = chosen.id;
            // Roll back this call's deposit so waiting does not inflate the
            // designated path's debt.
            for (p, &w) in usable().zip(&self.weights) {
                self.credits[p.id.0] -= w / total_w;
            }
            let credit = self.credits[id.0];
            return (Decision::Wait, crate::Why::DapsHold { credit });
        }
        let id = chosen.id;
        self.credits[id.0] -= 1.0;
        let credit = self.credits[id.0];
        (Decision::Send(id), crate::Why::DapsDesignated { credit })
    }
}

impl Scheduler for Daps {
    fn name(&self) -> &'static str {
        "daps"
    }

    fn select(&mut self, input: &SchedInput<'_>) -> Decision {
        self.decide(input).0
    }

    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why) {
        self.decide(input)
    }

    fn reset(&mut self) {
        self.credits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testutil::path;
    use crate::types::{PathId, PathSnapshot};

    fn inp<'a>(paths: &'a [PathSnapshot]) -> SchedInput<'a> {
        SchedInput { paths, queued_pkts: 100, send_window_free_pkts: 1 << 20 }
    }

    /// Run n selections and count how many land on each of two paths.
    fn split(paths: &[PathSnapshot], n: usize) -> (usize, usize) {
        let mut daps = Daps::new();
        let (mut a, mut b) = (0, 0);
        for _ in 0..n {
            match daps.select(&inp(paths)) {
                Decision::Send(PathId(0)) => a += 1,
                Decision::Send(PathId(1)) => b += 1,
                d => panic!("unexpected {d:?}"),
            }
        }
        (a, b)
    }

    #[test]
    fn splits_inverse_to_rtt() {
        // RTTs 10 ms vs 40 ms → weights 0.8 / 0.2.
        let paths = [path(0, 10, 1000, 0), path(1, 40, 1000, 0)];
        let (a, b) = split(&paths, 1000);
        assert!((790..=810).contains(&a), "a={a}");
        assert!((190..=210).contains(&b), "b={b}");
    }

    #[test]
    fn equal_rtts_split_evenly() {
        let paths = [path(0, 20, 1000, 0), path(1, 20, 1000, 0)];
        let (a, b) = split(&paths, 1000);
        assert!((a as i64 - b as i64).abs() <= 2, "a={a} b={b}");
    }

    #[test]
    fn bandwidth_blind() {
        // Identical RTTs, wildly different windows (i.e. bandwidths): DAPS
        // still splits ~50/50 — the defect the paper demonstrates.
        let paths = [path(0, 20, 100, 0), path(1, 20, 4, 0)];
        let mut daps = Daps::new();
        let (mut a, mut b) = (0, 0);
        for _ in 0..100 {
            match daps.select(&inp(&paths)) {
                Decision::Send(PathId(0)) => a += 1,
                Decision::Send(PathId(1)) => b += 1,
                _ => {}
            }
        }
        assert!((40..=60).contains(&b), "slow path got {b} of 100");
        let _ = a;
    }

    #[test]
    fn waits_for_designated_path_when_full() {
        // The 10 ms path is designated first (largest weight); with it full,
        // DAPS holds the segment for it instead of diverting to the slow
        // path — and the rolled-back credits keep the designation stable.
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 0)];
        let mut daps = Daps::new();
        for _ in 0..100 {
            assert_eq!(daps.select(&inp(&paths)), Decision::Wait);
        }
    }

    #[test]
    fn slow_path_sends_when_designated() {
        // Both free: after ~10 sends the slow path's credit tops and it gets
        // its segment even though the fast path also has space.
        let paths = [path(0, 10, 1000, 0), path(1, 100, 1000, 0)];
        let mut daps = Daps::new();
        let mut saw_slow = false;
        for _ in 0..30 {
            if daps.select(&inp(&paths)) == Decision::Send(PathId(1)) {
                saw_slow = true;
            }
        }
        assert!(saw_slow);
    }

    #[test]
    fn blocked_when_all_full() {
        let paths = [path(0, 10, 10, 10), path(1, 100, 10, 10)];
        assert_eq!(Daps::new().select(&inp(&paths)), Decision::Blocked);
    }

    #[test]
    fn reset_clears_credit_debt() {
        let paths = [path(0, 10, 10, 0), path(1, 100, 10, 0)];
        let mut daps = Daps::new();
        for _ in 0..500 {
            daps.select(&inp(&paths));
        }
        daps.reset();
        assert!(daps.credits.is_empty());
    }
}
