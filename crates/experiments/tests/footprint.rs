//! Footprint regression guard: bytes requested per connection.
//!
//! A ring buffer used as a FIFO cycles through every slot it owns, so a
//! per-connection or per-link deque reserved to its protocol bound keeps
//! the whole bound resident however few entries it holds. When
//! `Subflow::inflight`, `Link::in_queue` and the per-link delivery queues
//! were reserved that way (2896 segments, up to 11 585 packets, 512
//! deliveries), this population requested 306 KB per connection and the
//! coupled benchmark ran 25 % slower on three times the memory (DESIGN.md
//! §9). Sized by occupancy it requests 41 KB, recorder output included.
//!
//! The bound sits between the two, a factor of three below the reserved
//! figure and above twice the present one: re-introducing a bound-sized
//! reservation in any per-connection or per-link struct fails it.
//! Requested bytes are a pure function of the population, so the check is
//! exact, not a timing.

mod support;

use ecf_core::SchedulerKind;
use experiments::{browse_coupled_population, run_coupled, SweepOptions, COUPLED_BENCH_GROUPS};

#[global_allocator]
static COUNTER: support::CountingAlloc = support::CountingAlloc;

/// Requested bytes per connection over build + run + report extraction.
const BYTES_PER_CONN_BOUND: u64 = 100_000;

#[test]
fn coupled_population_stays_under_100_kb_per_connection() {
    const UNITS: usize = 20;
    const CONNS_PER_UNIT: usize = 6;

    // The benchmark's quick `browse_coupled` body: 20 units × 6 connections
    // behind one shared LTE bottleneck, 8 lockstep groups, one worker.
    let bytes_before = support::snapshot().1;
    let pop = browse_coupled_population(1, UNITS, CONNS_PER_UNIT, 1.0, 6.0, SchedulerKind::Ecf);
    let report = run_coupled(
        &pop,
        &SweepOptions { max_shards: COUPLED_BENCH_GROUPS, workers: Some(1), ..Default::default() },
    );
    let bytes = support::snapshot().1 - bytes_before;

    assert_eq!(report.units.len(), UNITS);
    assert!(
        report.units.iter().all(|u| u.page_load.is_some()),
        "a unit did not finish its page; the footprint would be of a different run"
    );
    let per_conn = bytes / (UNITS * CONNS_PER_UNIT) as u64;
    assert!(
        per_conn < BYTES_PER_CONN_BOUND,
        "build + run requested {per_conn} bytes per connection (bound \
         {BYTES_PER_CONN_BOUND}): is a per-connection or per-link buffer \
         reserved to its protocol bound again?"
    );
}
