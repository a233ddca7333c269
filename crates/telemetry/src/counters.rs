//! Monotonic named counters.
//!
//! A fixed enum of counters, kept in the telemetry sink beside the event
//! ring. Unlike the ring they never drop or wrap, so they stay truthful even
//! when the ring has overflowed.

/// All counters the transport and simulator maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Scheduler invocations (one per segment placement attempt).
    Decisions = 0,
    /// Decisions that came back `Wait` (ECF/BLEST holding back).
    WaitDecisions,
    /// Segments handed to a subflow for (re)transmission.
    SegsSent,
    /// Packets dropped by simulated links (queue + random).
    LinkDrops,
    /// Retransmission timeouts that fired.
    Rtos,
    /// Fast retransmits triggered by duplicate ACKs.
    FastRetx,
    /// Receive-window penalizations applied to subflows.
    Penalizations,
    /// Post-idle congestion-window resets.
    IwResets,
    /// Subflow up/down transitions.
    SubflowTransitions,
    /// Link rate changes applied by scenario dynamics.
    RateChanges,
    /// Event-queue slot cascades (calendar-wheel events re-filed from a
    /// higher level toward level 0; bounds the queue's non-O(1) work).
    QueueCascades,
    /// High-water mark of pending events in the engine's event queue.
    QueuePeakDepth,
    /// Experiment-matrix cells served from the content-addressed cache.
    MatrixCacheHits,
    /// Experiment-matrix cells executed because no valid entry existed.
    MatrixCacheMisses,
    /// Cache entries rejected as corrupt/stale (digest re-check failed);
    /// always also counted as misses.
    MatrixCacheInvalid,
    /// Simulation shards executed by sharded sweeps (one per shard engine).
    ShardRuns,
    /// Engine events processed across all shard runs (aggregate).
    ShardEvents,
    /// Wall-clock nanoseconds spent inside shard runs, summed over shards
    /// (CPU-time, not sweep latency: shards on different workers overlap).
    ShardWallNs,
    /// Worst observed per-sweep shard load imbalance, in permille:
    /// `max(events per shard) * 1000 / min(events per shard)`. 1000 means
    /// perfectly balanced; updated with a running max across sweeps.
    ShardEventsImbalancePermille,
    /// Worst observed per-sweep shard wall-time imbalance, in permille
    /// (same ratio over per-shard wall-ns); running max across sweeps.
    ShardWallImbalancePermille,
    /// Co-simulation lockstep windows completed (one per global sync round
    /// across all engine groups).
    CosimRounds,
    /// Boundary messages exchanged between co-simulated engine groups
    /// (one per shared-bottleneck member per sync round).
    CosimBoundaryMsgs,
    /// Wall-clock nanoseconds engine groups spent stalled at the window
    /// barrier waiting for the slowest group (sum over groups of
    /// `slowest − own` per round).
    CosimStallNs,
    /// Worst observed per-round engine-group wall-time imbalance, in
    /// permille (`max * 1000 / min` over per-group round wall-ns);
    /// running max across rounds and sweeps.
    CosimRoundImbalancePermille,
    /// Populations that collapsed to a single engine because no safe
    /// lookahead exists (literal link sharing or a zero-window coupling).
    ShardCollapses,
    /// Event-queue cursor fast-forwards: advances that jumped over at least
    /// one empty wheel quantum instead of visiting it.
    FfJumps,
    /// Total simulated dead air (ns) the event-queue cursor jumped over.
    FfSkippedNs,
    /// Link deliveries dispatched in batch via the claim protocol,
    /// bypassing a schedule/pop round-trip through the wheel.
    BatchDeliveries,
    /// Longest observed delivery batch (head pop + consecutive claims);
    /// running max across engines and runs.
    BatchMaxLen,
}

impl Counter {
    /// Number of counters.
    pub(crate) const COUNT: usize = 29;

    /// Every counter, in stable report order.
    pub(crate) const ALL: [Counter; Counter::COUNT] = [
        Counter::Decisions,
        Counter::WaitDecisions,
        Counter::SegsSent,
        Counter::LinkDrops,
        Counter::Rtos,
        Counter::FastRetx,
        Counter::Penalizations,
        Counter::IwResets,
        Counter::SubflowTransitions,
        Counter::RateChanges,
        Counter::QueueCascades,
        Counter::QueuePeakDepth,
        Counter::MatrixCacheHits,
        Counter::MatrixCacheMisses,
        Counter::MatrixCacheInvalid,
        Counter::ShardRuns,
        Counter::ShardEvents,
        Counter::ShardWallNs,
        Counter::ShardEventsImbalancePermille,
        Counter::ShardWallImbalancePermille,
        Counter::CosimRounds,
        Counter::CosimBoundaryMsgs,
        Counter::CosimStallNs,
        Counter::CosimRoundImbalancePermille,
        Counter::ShardCollapses,
        Counter::FfJumps,
        Counter::FfSkippedNs,
        Counter::BatchDeliveries,
        Counter::BatchMaxLen,
    ];

    /// Stable snake_case name for reports and trace digests.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Decisions => "decisions",
            Counter::WaitDecisions => "wait_decisions",
            Counter::SegsSent => "segs_sent",
            Counter::LinkDrops => "link_drops",
            Counter::Rtos => "rtos",
            Counter::FastRetx => "fast_retx",
            Counter::Penalizations => "penalizations",
            Counter::IwResets => "iw_resets",
            Counter::SubflowTransitions => "subflow_transitions",
            Counter::RateChanges => "rate_changes",
            Counter::QueueCascades => "queue_cascades",
            Counter::QueuePeakDepth => "queue_peak_depth",
            Counter::MatrixCacheHits => "matrix_cache_hits",
            Counter::MatrixCacheMisses => "matrix_cache_misses",
            Counter::MatrixCacheInvalid => "matrix_cache_invalid",
            Counter::ShardRuns => "shard_runs",
            Counter::ShardEvents => "shard_events",
            Counter::ShardWallNs => "shard_wall_ns",
            Counter::ShardEventsImbalancePermille => "shard_events_imbalance_permille",
            Counter::ShardWallImbalancePermille => "shard_wall_imbalance_permille",
            Counter::CosimRounds => "cosim_sync_rounds",
            Counter::CosimBoundaryMsgs => "cosim_boundary_msgs",
            Counter::CosimStallNs => "cosim_stall_ns",
            Counter::CosimRoundImbalancePermille => "cosim_round_imbalance_permille",
            Counter::ShardCollapses => "shard_collapses",
            Counter::FfJumps => "ff_jumps",
            Counter::FfSkippedNs => "ff_skipped_ns",
            Counter::BatchDeliveries => "batch_deliveries",
            Counter::BatchMaxLen => "batch_max_len",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant_with_unique_names() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }
}
