//! Footprint regression guard: bytes requested, and bytes live at the peak,
//! per connection.
//!
//! **Requested.** A ring buffer used as a FIFO cycles through every slot it
//! owns, so a per-connection or per-link deque reserved to its protocol
//! bound keeps the whole bound resident however few entries it holds. When
//! `Subflow::inflight`, `Link::in_queue` and the per-link delivery queues
//! were reserved that way (2896 segments, up to 11 585 packets, 512
//! deliveries), this population requested 306 KB per connection and the
//! coupled benchmark ran 25 % slower on three times the memory (DESIGN.md
//! §9). Sized by occupancy it requested 41 KB; with each result kept once
//! (below) it requests 28 KB, recorder output included.
//!
//! **Live at the peak.** A sweep's peak is its merge: every engine group
//! finished, every report being assembled. While each OOO delay was pushed
//! into a shared pool *and* a per-connection pool, then cloned into the
//! report with all engines still alive, the same samples were held three
//! times and the run peaked at 27.6 KB live per connection. One pool,
//! results moved out of an engine that is then dropped: 15.2 KB. Bringing
//! back the second pool alone reads 19.8 KB, clone-based extraction alone
//! 20.5 KB — the bound fails either.
//!
//! Requested and live bytes are a pure function of the population, so both
//! checks are exact, not timings.

mod support;

use ecf_core::SchedulerKind;
use experiments::{browse_coupled_population, run_coupled, SweepOptions, COUPLED_BENCH_GROUPS};

#[global_allocator]
static COUNTER: support::CountingAlloc = support::CountingAlloc;

/// Requested bytes per connection over build + run + report extraction
/// (28 450 when written; 37 733 with the second OOO pool back).
const BYTES_PER_CONN_BOUND: u64 = 35_000;
/// Most bytes live at once per connection, population and merged report
/// included (15 178 when written).
const PEAK_LIVE_PER_CONN_BOUND: u64 = 17_500;

#[test]
fn coupled_population_footprint_per_connection() {
    const UNITS: usize = 20;
    const CONNS_PER_UNIT: usize = 6;

    // The benchmark's quick `browse_coupled` body: 20 units × 6 connections
    // behind one shared LTE bottleneck, 8 lockstep groups, one worker.
    let bytes_before = support::snapshot().1;
    let live_before = support::live_and_peak().0;
    let pop = browse_coupled_population(1, UNITS, CONNS_PER_UNIT, 1.0, 6.0, SchedulerKind::Ecf);
    let report = run_coupled(
        &pop,
        &SweepOptions { max_shards: COUPLED_BENCH_GROUPS, workers: Some(1), ..Default::default() },
    );
    let bytes = support::snapshot().1 - bytes_before;
    let peak_live = support::live_and_peak().1 - live_before;

    assert_eq!(report.units.len(), UNITS);
    assert!(
        report.units.iter().all(|u| u.page_load.is_some()),
        "a unit did not finish its page; the footprint would be of a different run"
    );
    let conns = (UNITS * CONNS_PER_UNIT) as u64;
    println!("requested {} B/conn, peak live {} B/conn", bytes / conns, peak_live / conns);
    let per_conn = bytes / conns;
    assert!(
        per_conn < BYTES_PER_CONN_BOUND,
        "build + run requested {per_conn} bytes per connection (bound \
         {BYTES_PER_CONN_BOUND}): is a per-connection or per-link buffer \
         reserved to its protocol bound again?"
    );
    let live_per_conn = peak_live / conns;
    assert!(
        live_per_conn < PEAK_LIVE_PER_CONN_BOUND,
        "the run peaked at {live_per_conn} live bytes per connection (bound \
         {PEAK_LIVE_PER_CONN_BOUND}): does the merge hold a result twice — a second \
         OOO pool, reports cloned out of engines that are still alive?"
    );
}
