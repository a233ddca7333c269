//! Scheduler factory used by the experiment sweeps.

use crate::blest::Blest;
use crate::daps::Daps;
use crate::ecf::{Ecf, EcfConfig};
use crate::extras::SinglePath;
use crate::minrtt::MinRtt;
use crate::types::{PathId, Scheduler};

/// A nameable scheduler choice, convertible into a boxed instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// The default minRTT scheduler.
    Default,
    /// ECF with the paper's parameters.
    Ecf,
    /// ECF with an explicit configuration (β sweeps, ablations).
    EcfWith(EcfConfig),
    /// DAPS.
    Daps,
    /// BLEST.
    Blest,
    /// STTF (extension, Hurtig et al.).
    Sttf,
    /// Pin to a single path.
    SinglePath(usize),
}

impl SchedulerKind {
    /// Instantiate the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::Default => Box::new(MinRtt::new()),
            SchedulerKind::Ecf => Box::new(Ecf::new()),
            SchedulerKind::EcfWith(cfg) => Box::new(Ecf::with_config(cfg)),
            SchedulerKind::Daps => Box::new(Daps::new()),
            SchedulerKind::Blest => Box::new(Blest::new()),
            SchedulerKind::Sttf => Box::new(crate::sttf::Sttf::new()),
            SchedulerKind::SinglePath(i) => Box::new(SinglePath::new(PathId(i))),
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Default => "default",
            SchedulerKind::Ecf => "ecf",
            SchedulerKind::EcfWith(_) => "ecf*",
            SchedulerKind::Daps => "daps",
            SchedulerKind::Blest => "blest",
            SchedulerKind::Sttf => "sttf",
            SchedulerKind::SinglePath(_) => "single",
        }
    }

    /// The four schedulers of the paper's main comparison (Fig 9 order).
    pub fn paper_set() -> [SchedulerKind; 4] {
        [SchedulerKind::Default, SchedulerKind::Ecf, SchedulerKind::Daps, SchedulerKind::Blest]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_label() {
        for kind in SchedulerKind::paper_set() {
            let s = kind.build();
            assert_eq!(s.name(), kind.label());
        }
    }

    #[test]
    fn paper_set_has_four_distinct() {
        let set = SchedulerKind::paper_set();
        assert_eq!(set.len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(set[i], set[j]);
            }
        }
    }
}
