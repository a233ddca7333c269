//! # ecf-benchmark — the repo's benchmark of record
//!
//! End-to-end metrics of four long workloads, measured from one process on
//! one worker thread, and a per-layer ledger measured from outside the
//! crates under test, through their public functions. `README.md` beside
//! this crate documents every name, unit and bound.

#![warn(missing_docs)]

pub mod agree;
pub mod alloc;
pub mod measure;
pub mod perlayer;
pub mod report;
pub mod rigs;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
