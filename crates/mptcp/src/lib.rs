//! # mptcp — a sender/receiver MPTCP model with pluggable path schedulers
//!
//! A from-scratch model of everything in the Linux MPTCP stack that the
//! paper's scheduling story touches: subflows with full TCP sender machinery
//! (slow start, congestion avoidance, fast retransmit, RTO, idle restart),
//! coupled congestion control (LIA/OLIA), the connection-level send buffer
//! and data-sequence mapping, receiver-side two-level reordering with
//! out-of-order-delay measurement, and the opportunistic-retransmission +
//! penalization mitigations — all driven by any [`ecf_core::Scheduler`].
//!
//! The [`Testbed`] ties connections and [`simnet`] paths together with a
//! workload [`Application`] (DASH player, file download, browser — see the
//! `dash` and `webload` crates).
//!
//! ```
//! use mptcp::{Application, Api, Testbed, TestbedConfig};
//! use ecf_core::SchedulerKind;
//! use simnet::Time;
//!
//! /// Download one 256 KB object, then stop.
//! struct OneShot { done: bool }
//! impl Application for OneShot {
//!     fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
//!         api.request(0, 256 * 1024);
//!     }
//!     fn on_response_complete(&mut self, _n: Time, _c: usize, _r: u64, _a: &mut Api<'_>) {
//!         self.done = true;
//!     }
//! }
//!
//! let cfg = TestbedConfig::wifi_lte(2.0, 8.0, SchedulerKind::Ecf, 1);
//! let mut tb = Testbed::new(cfg, OneShot { done: false });
//! tb.run_until(Time::from_secs(30));
//! assert!(tb.app().done);
//! let req = &tb.world().recorder.requests[0];
//! assert!(req.completion_time().unwrap().as_secs_f64() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cc;
mod connection;
pub mod harness;
mod persub;
mod receiver;
mod segment;
mod sim;
mod subflow;
mod trace;
pub mod transport;

pub use cc::{ca_increase, CcKind, CcView};
pub use connection::{ConnConfig, ConnStats, Connection, Transmission};
pub use persub::PerSub;
pub use receiver::{Delivered, Receiver, ReceiverStats, ReorderRing, RxSignal};
pub use segment::{segs_for_bytes, AckInfo, ConnId, ReqId, Segment, SubId};
pub use sim::{Api, Application, ConnSpec, Event, Mptcp, Testbed, TestbedConfig, World};
pub use subflow::{AckOutcome, Subflow, SubflowStats};
pub use trace::{OooIter, OooPool, Recorder, RecorderConfig, RequestRecord};
pub use transport::{Drive, SchedDriver, Transport, TransportApi, TransportApp};
