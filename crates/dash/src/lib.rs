//! # dash — DASH adaptive-bit-rate streaming client model
//!
//! The video workload of the paper's evaluation: a DASH session with the
//! Table-1 representation ladder, 5-second chunks, initial buffering, the
//! steady ON-OFF download cycle and rebuffering (§2.2), driven by the
//! buffer-based ABR BBA-0 (Huang et al. \[12\]) over a 30 s buffer.
//!
//! [`Player`] is a pure state machine; [`DashApp`] runs it over an
//! [`mptcp::Testbed`] connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abr;
mod app;
mod player;

pub use abr::{ideal_avg_bitrate_mbps, select, BITRATE_LADDER_MBPS, RESOLUTIONS};
pub use app::DashApp;
pub use player::{ChunkRecord, Player, PlayerConfig};
