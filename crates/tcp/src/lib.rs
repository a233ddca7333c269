//! # tcp-model — sender-side TCP machinery for subflows
//!
//! The per-subflow state a Linux MPTCP sender keeps, modelled at segment
//! granularity: RFC 6298 RTT estimation ([`RttEstimator`]), and the
//! congestion state machine ([`TcpCc`]) with slow start, congestion
//! avoidance, fast retransmit, RTO backoff, and the RFC 5681 §4.1 idle
//! restart whose interaction with the default scheduler the paper dissects.
//!
//! Congestion-avoidance *increase policies* (Reno, coupled LIA, OLIA) live in
//! the `mptcp` crate because coupled controllers need cross-subflow state;
//! this crate exposes the mechanics they drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congestion;
mod rtt;

pub use congestion::{CcStats, TcpCc, TcpConfig};
pub use rtt::RttEstimator;

/// Segment payload size used throughout the reproduction (typical Ethernet
/// MSS with timestamps).
pub const MSS: u32 = 1448;
/// On-the-wire size of a full segment (payload + TCP/IP/MPTCP overhead).
const WIRE_OVERHEAD: u32 = 52;

/// Wire size of a segment carrying `payload` bytes.
pub const fn wire_size(payload: u32) -> u32 {
    payload + WIRE_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_adds_overhead() {
        assert_eq!(wire_size(MSS), 1500);
        assert_eq!(wire_size(0), 52);
    }
}
