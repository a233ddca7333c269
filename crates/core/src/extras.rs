//! A baseline beyond the paper's comparison set: [`SinglePath`] pins all
//! traffic to one path (the "WiFi-only" / "LTE-only" single-path TCP
//! baselines the ideal-throughput comparisons are built from).

use crate::types::{Decision, PathId, SchedInput, Scheduler};

/// Send everything on one fixed path; block if it has no space.
#[derive(Debug, Clone, Copy)]
pub struct SinglePath {
    /// The pinned path.
    pub path: PathId,
}

impl SinglePath {
    /// Pin to `path`.
    pub fn new(path: PathId) -> Self {
        SinglePath { path }
    }
}

impl Scheduler for SinglePath {
    fn name(&self) -> &'static str {
        "single"
    }

    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, crate::Why) {
        match input.paths.iter().find(|p| p.id == self.path) {
            Some(p) if p.has_space() => (Decision::Send(p.id), crate::Why::Pinned),
            _ => (Decision::Blocked, crate::Why::NoCapacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testutil::path;

    #[test]
    fn single_path_pins() {
        let paths = [path(0, 10, 10, 0), path(1, 100, 10, 0)];
        let inp = SchedInput { paths: &paths, queued_pkts: 10, send_window_free_pkts: 100 };
        let mut sp = SinglePath::new(PathId(1));
        assert_eq!(sp.select(&inp), Decision::Send(PathId(1)));
    }

    #[test]
    fn single_path_blocks_when_pinned_full() {
        let paths = [path(0, 10, 10, 0), path(1, 100, 10, 10)];
        let inp = SchedInput { paths: &paths, queued_pkts: 10, send_window_free_pkts: 100 };
        let mut sp = SinglePath::new(PathId(1));
        assert_eq!(sp.select(&inp), Decision::Blocked);
        let mut missing = SinglePath::new(PathId(9));
        assert_eq!(missing.select(&inp), Decision::Blocked);
    }
}
