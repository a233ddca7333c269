//! The default MPTCP scheduler: lowest-RTT path with available window space.
//!
//! This is the baseline the paper evaluates against (its §2.1): among the
//! subflows with congestion-window space, pick the one with the smallest
//! smoothed RTT. It never waits — if the fastest path is full it immediately
//! spills onto the next-fastest available path, which is exactly the
//! behaviour that under-utilizes fast paths under heterogeneity.

use crate::types::{Decision, SchedInput, Scheduler};

/// The default minRTT scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinRtt;

impl MinRtt {
    /// Construct the default scheduler.
    pub fn new() -> Self {
        MinRtt
    }
}

impl Scheduler for MinRtt {
    fn name(&self) -> &'static str {
        "default"
    }

    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why) {
        match input.fastest_available() {
            Some(p) => (Decision::Send(p.id), crate::Why::FastestAvailable),
            None => (Decision::Blocked, crate::Why::NoCapacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testutil::path;
    use crate::types::PathId;

    fn inp<'a>(paths: &'a [crate::types::PathSnapshot]) -> SchedInput<'a> {
        SchedInput { paths, queued_pkts: 10, send_window_free_pkts: 1 << 20 }
    }

    #[test]
    fn picks_lowest_rtt_with_space() {
        let paths = [path(0, 50, 10, 0), path(1, 10, 10, 0)];
        assert_eq!(MinRtt::new().select(&inp(&paths)), Decision::Send(PathId(1)));
    }

    #[test]
    fn spills_to_second_fastest_when_full() {
        let paths = [path(0, 10, 10, 10), path(1, 50, 10, 2)];
        assert_eq!(MinRtt::new().select(&inp(&paths)), Decision::Send(PathId(1)));
    }

    #[test]
    fn blocked_when_all_full() {
        let paths = [path(0, 10, 10, 10), path(1, 50, 10, 10)];
        assert_eq!(MinRtt::new().select(&inp(&paths)), Decision::Blocked);
    }

    #[test]
    fn skips_unusable_paths() {
        let mut fast = path(0, 10, 10, 0);
        fast.usable = false;
        let paths = [fast, path(1, 50, 10, 0)];
        assert_eq!(MinRtt::new().select(&inp(&paths)), Decision::Send(PathId(1)));
    }

    #[test]
    fn never_waits() {
        // Unlike ECF, minRTT has no waiting state: any available path is used.
        let paths = [path(0, 10, 10, 10), path(1, 500, 10, 0)];
        assert_eq!(MinRtt::new().select(&inp(&paths)), Decision::Send(PathId(1)));
    }
}
