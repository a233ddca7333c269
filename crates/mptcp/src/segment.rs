//! Wire-level units exchanged between the MPTCP sender and receiver models.
//!
//! The model works at *segment granularity*: sequence numbers count whole
//! MSS-sized segments rather than bytes. Application sizes are converted with
//! [`segs_for_bytes`]; the sub-MSS rounding this introduces is far below the
//! effects the paper measures (documented in DESIGN.md).

use simnet::Time;

/// Index of a connection within a testbed.
pub type ConnId = usize;
/// Index of a subflow within its connection.
pub type SubId = usize;
/// Identifier of one application request (HTTP GET) on a connection.
pub type ReqId = u64;

/// Number of MSS-sized segments needed to carry `bytes` of payload.
pub fn segs_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(u64::from(tcp_model::MSS)).max(1)
}

/// A data segment in flight from sender to receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Data sequence number: index of this segment in the connection-level
    /// stream (the MPTCP DSS mapping).
    pub dsn: u64,
    /// Subflow sequence number: index of this transmission on its subflow.
    pub ssn: u64,
}

/// The acknowledgement a receiver emits for every arriving data segment.
///
/// Carries both levels of MPTCP feedback: the subflow-level cumulative ACK
/// and the connection-level DATA_ACK, plus the advertised receive window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Next subflow sequence number expected (cumulative subflow-level ACK).
    pub sub_next_ssn: u64,
    /// Next data sequence number expected in order (DATA_ACK).
    pub data_next_dsn: u64,
    /// Free receive-window space, in segments, at ACK emission time.
    pub rwnd_free: u64,
}

/// State the sender keeps for each unacknowledged transmission.
///
/// Its ssn is not stored: the retransmission queue holds ssns `snd_una..`
/// contiguously, so an entry's ssn is `snd_una` plus its position. Karn's
/// "retransmitted" mark lives on the subflow, because only the queue's
/// front is ever retransmitted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightSeg {
    /// Data sequence number the transmission carries.
    pub dsn: u64,
    /// When the most recent transmission of it left the sender.
    pub sent_at: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segs_for_bytes_rounds_up() {
        let mss = u64::from(tcp_model::MSS);
        assert_eq!(segs_for_bytes(1), 1);
        assert_eq!(segs_for_bytes(mss), 1);
        assert_eq!(segs_for_bytes(mss + 1), 2);
        assert_eq!(segs_for_bytes(10 * mss), 10);
        // Zero-byte responses still occupy one segment (headers).
        assert_eq!(segs_for_bytes(0), 1);
    }
}
