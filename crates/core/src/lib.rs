//! # ecf-core — multipath packet schedulers
//!
//! The primary contribution of *"ECF: An MPTCP Path Scheduler to Manage
//! Heterogeneous Paths"* (Lim et al., CoNEXT 2017), plus every scheduler the
//! paper compares against, implemented from scratch:
//!
//! | Scheduler | Idea | Source |
//! |---|---|---|
//! | [`MinRtt`]  | lowest-RTT path with window space (MPTCP default) | RFC 6824 Linux impl |
//! | [`Ecf`]     | wait for the fast path when that finishes sooner  | this paper, Alg. 1 |
//! | [`Blest`]   | wait when the slow path would stall the send window | Ferlin et al. 2016 |
//! | [`Daps`]    | split traffic ∝ 1/RTT | Kuhn et al. 2014 |
//! | [`Sttf`]    | per-segment shortest-transfer-time (extension) | Hurtig et al. 2018 |
//! | [`SinglePath`] | single-path baseline | — |
//!
//! The crate is **transport-agnostic**: schedulers consume a
//! [`PathSnapshot`] per subflow (sRTT, RTT deviation, CWND, in-flight) and the
//! connection-level backlog, and return a [`Decision`]. Nothing here depends
//! on the simulator, so the same code can schedule a real multipath
//! transport (e.g. multipath QUIC).
//!
//! ```
//! use ecf_core::{Ecf, Scheduler, SchedInput, PathSnapshot, PathId, Decision};
//! use std::time::Duration;
//!
//! let wifi = PathSnapshot {
//!     id: PathId(0), srtt: Duration::from_millis(10),
//!     rtt_dev: Duration::from_millis(1), cwnd: 10, inflight: 10,
//!     in_slow_start: false, usable: true, queue_bytes: 0,
//! };
//! let lte = PathSnapshot { id: PathId(1), srtt: Duration::from_millis(100), ..wifi };
//! let lte = PathSnapshot { inflight: 0, ..lte };
//!
//! // One straggler packet left: ECF holds it for the (full) fast path
//! // instead of burning 100 ms on the slow one.
//! let mut ecf = Ecf::new();
//! let input = [wifi, lte];
//! let decision = ecf.select(&SchedInput {
//!     paths: &input, queued_pkts: 1, send_window_free_pkts: 1000,
//! });
//! assert_eq!(decision, Decision::Wait);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blest;
mod daps;
mod ecf;
mod explain;
mod extras;
mod kind;
mod minrtt;
mod sttf;
mod types;

pub use blest::Blest;
pub use daps::Daps;
pub use ecf::{Ecf, EcfConfig};
pub use explain::{EcfTerms, Why};
pub use extras::SinglePath;
pub use kind::SchedulerKind;
pub use minrtt::MinRtt;
pub use sttf::Sttf;
pub use types::{Decision, PathId, PathSnapshot, SchedInput, Scheduler};
