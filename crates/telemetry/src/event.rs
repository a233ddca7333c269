//! Typed telemetry events.
//!
//! Every event is `Copy` with a fixed memory footprint, so the ring stores
//! events inline and a recorded event costs one slot, never a heap object.
//! Times are raw nanoseconds (`t_ns`) rather than `simnet::Time`: this crate
//! sits *below* the simulator in the dependency graph (ecf-core ← telemetry
//! ← simnet ← mptcp), so any clock that counts nanoseconds can feed it.

use ecf_core::{Decision, Why};

use crate::counters::Counter;

/// Maximum paths captured per decision event. The paper's scenarios use two
/// (WiFi + LTE); four leaves room for the multi-subflow experiments without
/// making the event struct heap-allocated.
pub const MAX_PATHS: usize = 4;

/// One path's state as the scheduler saw it at decision time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathObs {
    /// Path (subflow) index within the connection.
    pub path: u16,
    /// Whether the scheduler was allowed to use the path.
    pub usable: bool,
    /// Smoothed RTT, microseconds. `u32` spans over an hour of RTT — far
    /// beyond anything a scheduler will see — and keeps the event compact.
    pub srtt_us: u32,
    /// RTT deviation estimate (ECF's σ), microseconds.
    pub rttvar_us: u32,
    /// Congestion window, segments.
    pub cwnd: u32,
    /// Segments in flight.
    pub inflight: u32,
    /// Always 0, and not exported: no scheduler reads a queue sample, so no
    /// transport takes one. The field stays only because the benchmark's
    /// rigs (`benchmark/src/rigs.rs`) construct a `PathObs` field by field.
    pub queue_bytes: u32,
}

/// One scheduler decision with its complete inputs and provenance.
#[derive(Debug, Clone, Copy)]
pub struct SchedDecision {
    /// Connection index within the testbed.
    pub conn: u32,
    /// Scheduler short name ("ecf", "default", ...).
    pub scheduler: &'static str,
    /// The verdict.
    pub decision: Decision,
    /// Why the verdict was reached (which inequality/rule fired).
    pub why: Why,
    /// `k`: unassigned segments in the connection-level send buffer
    /// (saturated to `u32::MAX`; real backlogs are orders of magnitude
    /// smaller — the narrow field keeps the hot-path copy short).
    pub queued_pkts: u32,
    /// Free segments in the connection-level send window (saturated).
    pub send_window_free_pkts: u32,
    /// Number of valid entries in `paths`.
    pub n_paths: u8,
    /// Per-path observations, `[0..n_paths]` valid.
    pub paths: [PathObs; MAX_PATHS],
}

/// Direction of a simulated link (relative to the sender under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Data direction: sender → receiver.
    Forward,
    /// ACK direction: receiver → sender.
    Reverse,
}

impl LinkDir {
    /// Stable label for trace files.
    pub fn label(self) -> &'static str {
        match self {
            LinkDir::Forward => "fwd",
            LinkDir::Reverse => "rev",
        }
    }
}

/// Why a simulated link dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Bottleneck queue overflow (tail drop).
    Queue,
    /// Random loss per the configured loss rate.
    Random,
}

impl DropKind {
    /// Stable label for trace files.
    pub fn label(self) -> &'static str {
        match self {
            DropKind::Queue => "queue",
            DropKind::Random => "random",
        }
    }
}

/// The event payload. Scheduler decisions carry full inputs; transport and
/// link lifecycle events are slim id-stamped records.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A scheduler ran and produced a verdict.
    SchedDecision(SchedDecision),
    /// A congestion controller reset its window after an idle period
    /// (RFC 2861-style restart; the paper's §4.1 ECF interaction).
    IwReset {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        path: u16,
    },
    /// A retransmission timeout fired and retransmitted a segment.
    Rto {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        path: u16,
    },
    /// Fast retransmit triggered by duplicate ACKs.
    FastRetx {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        path: u16,
    },
    /// The subflow was penalized for causing receive-window blocking.
    Penalization {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        path: u16,
    },
    /// A subflow became usable.
    SubflowUp {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        path: u16,
    },
    /// A subflow went down.
    SubflowDown {
        /// Connection index.
        conn: u32,
        /// Subflow index.
        path: u16,
    },
    /// A simulated link dropped a packet.
    LinkDrop {
        /// Path index the link belongs to.
        path: u16,
        /// Link direction.
        dir: LinkDir,
        /// Drop cause.
        kind: DropKind,
    },
    /// A link's shaped rate changed (scenario dynamics).
    RateChange {
        /// Path index the link belongs to.
        path: u16,
        /// Link direction.
        dir: LinkDir,
        /// New rate, bits per second.
        rate_bps: u64,
    },
}

/// A timestamped telemetry event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event time, nanoseconds since simulation start.
    pub t_ns: u64,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// Stable lowercase event-type label, used as the `ev` field in traces.
    pub fn label(&self) -> &'static str {
        match self.kind {
            EventKind::SchedDecision(_) => "sched_decision",
            EventKind::IwReset { .. } => "iw_reset",
            EventKind::Rto { .. } => "rto",
            EventKind::FastRetx { .. } => "fast_retx",
            EventKind::Penalization { .. } => "penalization",
            EventKind::SubflowUp { .. } => "subflow_up",
            EventKind::SubflowDown { .. } => "subflow_down",
            EventKind::LinkDrop { .. } => "link_drop",
            EventKind::RateChange { .. } => "rate_change",
        }
    }
}

impl EventKind {
    /// The counters that recording one event of this kind bumps by 1: one
    /// always, a second for some kinds. This is the only place those
    /// counters are incremented, so each equals the number of its events
    /// recorded, whether or not the ring still holds them.
    pub(crate) fn counters(&self) -> (Counter, Option<Counter>) {
        match self {
            EventKind::SchedDecision(d) => {
                let wait = d.decision == Decision::Wait;
                (Counter::Decisions, wait.then_some(Counter::WaitDecisions))
            }
            EventKind::IwReset { .. } => (Counter::IwResets, None),
            EventKind::Rto { .. } => (Counter::Rtos, None),
            EventKind::FastRetx { .. } => (Counter::FastRetx, None),
            EventKind::Penalization { .. } => (Counter::Penalizations, None),
            EventKind::SubflowUp { .. } | EventKind::SubflowDown { .. } => {
                (Counter::SubflowTransitions, None)
            }
            EventKind::LinkDrop { .. } => (Counter::LinkDrops, None),
            EventKind::RateChange { .. } => (Counter::RateChanges, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_compact() {
        // The ring stores one of these per retained event; keep the
        // footprint in check so a complete full-effort trace stays tens of
        // MB and a push touches as few cache lines as possible. (Raised from
        // 192 when PathObs gained a fifth 4-byte field: 4 path slots × 4
        // bytes.)
        assert!(std::mem::size_of::<Event>() <= 224, "{}", std::mem::size_of::<Event>());
    }

    #[test]
    fn labels_are_stable() {
        let ev = Event { t_ns: 0, kind: EventKind::Rto { conn: 0, path: 1 } };
        assert_eq!(ev.label(), "rto");
        assert_eq!(LinkDir::Forward.label(), "fwd");
        assert_eq!(DropKind::Queue.label(), "queue");
    }
}
