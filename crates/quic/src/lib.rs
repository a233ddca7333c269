//! # quic — a multipath-QUIC transport model behind the shared seam
//!
//! A second consumer of the `ecf-core` schedulers beside the MPTCP model:
//! one connection multiplexing many streams, per-path packet-number spaces
//! with uncoupled congestion control, per-stream in-order delivery with
//! **no cross-stream head-of-line blocking**, and stream-aware
//! retransmission (a lost chunk may retransmit on a different path).
//!
//! The crate shares the transport seam from `mptcp::transport`: packets are
//! placed by [`mptcp::SchedDriver`] (so scheduler decision telemetry is
//! byte-identical across transports), [`Quic`] runs under the same generic
//! testbed harness as MPTCP ([`QuicTestbed`] is `mptcp::harness::Testbed`
//! over it), workloads implement [`mptcp::TransportApp`], and results land
//! in the same [`mptcp::Recorder`]. See DESIGN.md §12 for how this
//! model simplifies RFC 9000 and why those simplifications don't touch the
//! scheduling story.
//!
//! ```
//! use ecf_core::SchedulerKind;
//! use mptcp::{ReqId, TransportApi, TransportApp};
//! use quic::{QuicTestbed, QuicTestbedConfig};
//! use simnet::Time;
//!
//! /// Fetch two objects as two streams on one connection.
//! struct TwoStreams { done: usize }
//! impl TransportApp for TwoStreams {
//!     fn on_start(&mut self, _now: Time, api: &mut dyn TransportApi) {
//!         api.request(0, 64 * 1024);
//!         api.request(0, 256 * 1024);
//!     }
//!     fn on_response_complete(
//!         &mut self, _n: Time, _c: usize, _r: ReqId, _a: &mut dyn TransportApi,
//!     ) {
//!         self.done += 1;
//!     }
//! }
//!
//! let cfg = QuicTestbedConfig::wifi_lte(2.0, 8.0, SchedulerKind::Ecf, 1);
//! let mut tb = QuicTestbed::new(cfg, TwoStreams { done: 0 });
//! tb.run_until(Time::from_secs(30));
//! assert_eq!(tb.app().done, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connection;
mod receiver;
mod sim;

pub use connection::{AckOutcome, QuicConfig, QuicConn, QuicStats, QuicTx};
pub use receiver::{DeliveredChunk, QuicReceiver};
pub use sim::{Event, Quic, QuicTestbed, QuicTestbedConfig};
