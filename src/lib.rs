//! # mptcp-ecf — a reproduction of "ECF: An MPTCP Path Scheduler to Manage
//! # Heterogeneous Paths" (Lim et al., CoNEXT 2017)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`scheduler`] ([`ecf_core`]) — the paper's contribution: the ECF
//!   scheduler and every baseline it is compared against, written
//!   transport-agnostically so they can drive any multipath stack;
//! * [`transport`] ([`mptcp`]) — a full MPTCP sender/receiver model
//!   (subflows, coupled congestion control, reordering, mitigations) plus
//!   the simulated WiFi+LTE testbed;
//! * [`net`] ([`simnet`]) — the deterministic discrete-event network
//!   simulator underneath;
//! * [`telemetry`] — zero-cost-when-off observability: scheduler decision
//!   provenance, counters, and deterministic JSONL trace export;
//! * [`video`] ([`dash`]) and [`web`] ([`webload`]) — the paper's workloads;
//! * [`experiments`] — one declarative spec per table/figure of the paper,
//!   run through the cached experiment matrix.
//!
//! ## Quickstart
//!
//! ```
//! use mptcp_ecf::prelude::*;
//!
//! // One MPTCP connection over heterogeneous WiFi+LTE, scheduled by ECF.
//! struct OneDownload(Option<Time>);
//! impl Application for OneDownload {
//!     fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
//!         api.request(0, 512 * 1024);
//!     }
//!     fn on_response_complete(&mut self, now: Time, _c: usize, _r: u64, _a: &mut Api<'_>) {
//!         self.0 = Some(now);
//!     }
//! }
//!
//! let cfg = TestbedConfig::wifi_lte(0.3, 8.6, SchedulerKind::Ecf, 1);
//! let mut tb = Testbed::new(cfg, OneDownload(None));
//! tb.run_until(Time::from_secs(60));
//! assert!(tb.app().0.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dash as video;
pub use ecf_core as scheduler;
pub use experiments;
pub use metrics;
pub use mptcp as transport;
pub use scenario as dynamics;
pub use simnet as net;
pub use tcp_model as tcp;
pub use telemetry;
pub use webload as web;

/// The most common imports in one place.
pub mod prelude {
    pub use dash::{DashApp, Player, PlayerConfig};
    pub use ecf_core::{
        Decision, Ecf, EcfConfig, EcfTerms, PathId, PathSnapshot, SchedInput, Scheduler,
        SchedulerKind, Why,
    };
    pub use mptcp::{
        Api, Application, CcKind, ConnConfig, ConnSpec, RecorderConfig, Testbed, TestbedConfig,
    };
    pub use scenario::{GilbertElliott, LossModel, RateSchedule, Scenario};
    pub use simnet::{PathConfig, Time};
    pub use telemetry::{Counter, Event, EventKind, TelemetryHandle};
    pub use webload::{BrowserApp, PageModel, SequentialApp, WgetApp};
}
