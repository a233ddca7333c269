//! Footprint regression guard: bytes requested, and bytes live at the peak,
//! per connection — bytes requested per unit when every unit has its own
//! engine, and bytes live per out-of-order (OOO) sample of a streaming run.
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
//! 20.5 KB — the bound fails either. Optional timestamps at 8 bytes, 32-bit
//! `conn`/`segs` in the request records and OOO pools grown by the announced
//! response instead of by doubling: 12.1 KB (13.0 KB with doubling back,
//! which the pool-slack test in `cosim.rs` catches). Engine records at their
//! information size — a 16 B retransmission entry, a 40 B forward delivery
//! slot, a 264 B subflow — 11.0 KB. A run of in-order deliveries (OOO
//! delay 0) stored as one pool entry, not one `u64` per sample, and 24 B
//! object records: 8.8 KB; the bound here sits 10 % above the reading, so
//! raw pools fail it.
//!
//! **Requested per unit, one engine each.** A sharded sweep builds and tears
//! down an engine per unit, so anything an engine reserves on a guess is
//! paid once per unit: the recorder's 256 request records "for a long DASH
//! session" were 35 KB of every 107-request browse unit's 205 KB. The shard
//! now reserves the request count its pages announce (14.5 KB): 185 KB.
//! With zero runs stored as one entry: 139 KB.
//!
//! **Live per OOO sample, one streaming run.** A 600 s `fig9_grid` cell at
//! 0.3/8.6 Mbps under ECF keeps 418 328 out-of-order samples. With OOO
//! collection off the run peaks at 197 353 B live (engine, player, request
//! records). The recorder's pool adds 4 194 304 B (2^19 `u64` slots after
//! doubling). Converting it into the outcome's `Vec<f64>` as a copy, with
//! the pool still alive, added 3 346 624 B more: 7 738 281 B, 18.5 B per
//! sample. The pool handed over and converted in place: 4 391 657 B,
//! 10.5 B per sample.
//!
//! Requested and live bytes are a pure function of the workload, so all
//! four checks are exact, not timings.

mod support;

use ecf_core::SchedulerKind;
use experiments::{
    browse_coupled_population, browse_population, run_streaming, run_sweep, Effort,
    StreamingConfig, SweepOptions, COUPLED_BENCH_GROUPS,
};

#[global_allocator]
static COUNTER: support::CountingAlloc = support::CountingAlloc;

/// Requested bytes per connection over build + run + report extraction
/// (28 450 when written, 26 280 with the request records reserved once,
/// 26 731 with the OOO pools grown per response, 25 461 with the engine
/// records slimmed, 18 827 with zero runs stored as one entry; 37 733 with
/// the second OOO pool back, 38 366 with a `reserve_exact` per request).
/// The bound was 35 000 before the zero runs, and sits 10 % above the
/// reading.
const BYTES_PER_CONN_BOUND: u64 = 20_700;
/// Most bytes live at once per connection, population and merged report
/// included (15 178 when written, 13 798 with reports built after their
/// engine is dropped, 12 054 with 104 B request records and the pool
/// slack rule, 12 036 with one sweep executor, 11 046 with a 16 B
/// retransmission entry, a 40 B forward delivery slot and a 264 B subflow,
/// 8 787 with zero runs stored as one entry and 24 B object records; the
/// bound was 13 250, then 12 150, and sits 10 % above the reading).
const PEAK_LIVE_PER_CONN_BOUND: u64 = 9_670;

/// Requested bytes per unit of a sharded sweep, one engine per unit
/// (185 115 when written, 180 603 with the pool slack rule, 181 164 with
/// one sweep executor, 168 978 with the engine records slimmed, 138 896
/// with zero runs stored as one entry; 205 339 with the recorder reserving
/// 256 records). The bound was 195 000 before the zero runs, and sits 10 %
/// above the reading.
const BYTES_PER_SHARDED_UNIT_BOUND: u64 = 152_800;

/// Most bytes live at once per OOO sample over one streaming run, outcome
/// included (10.5 with the pool handed over; 18.5 with a copy beside it).
const STREAMING_PEAK_PER_SAMPLE_BOUND: f64 = 12.0;

#[test]
fn population_footprint_per_connection_and_per_unit() {
    const UNITS: usize = 20;
    const CONNS_PER_UNIT: usize = 6;

    // The benchmark's quick `browse_coupled` body: 20 units × 6 connections
    // behind one shared LTE bottleneck, 8 lockstep groups, one worker.
    let bytes_before = support::snapshot().1;
    let live_before = support::live_and_peak().0;
    let pop = browse_coupled_population(1, UNITS, CONNS_PER_UNIT, 1.0, 6.0, SchedulerKind::Ecf);
    let report = run_sweep(
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
         OOO pool, reports cloned out of engines that are still alive — or a pool one \
         slot per OOO sample?"
    );

    // The benchmark's quick `browse_sharded` body: the same 20 units on
    // private paths, one engine per unit, one worker.
    let bytes_before = support::snapshot().1;
    let pop = browse_population(1, UNITS, CONNS_PER_UNIT, 1.0, 10.0, SchedulerKind::Ecf);
    let report =
        run_sweep(&pop, &SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() });
    let per_unit = (support::snapshot().1 - bytes_before) / UNITS as u64;

    assert_eq!(report.shard_events.len(), UNITS, "one engine per unit");
    assert!(report.units.iter().all(|u| u.page_load.is_some()));
    println!("sharded: requested {per_unit} B/unit");
    assert!(
        per_unit < BYTES_PER_SHARDED_UNIT_BOUND,
        "a one-unit engine requested {per_unit} bytes (bound \
         {BYTES_PER_SHARDED_UNIT_BOUND}): does the recorder, or anything else built per \
         engine, reserve on a guess again?"
    );

    // One full-length `fig9_grid` cell at its most reordered pair. Last:
    // its peak is several times the populations', so it raises the
    // high-water mark the reading depends on.
    let live_before = support::live_and_peak().0;
    let cfg = StreamingConfig {
        video_secs: Effort::Full.video_secs(),
        ..StreamingConfig::new(0.3, 8.6, SchedulerKind::Ecf, 1)
    };
    let out = run_streaming(&cfg);
    let peak_live = support::live_and_peak().1 - live_before;
    let samples = out.ooo_delays.len() as u64;
    assert!(samples > 100_000, "{samples} OOO samples: not the long cell this guards");
    let per_sample = peak_live as f64 / samples as f64;
    println!(
        "streaming: peak live {peak_live} B over {samples} OOO samples, {per_sample:.1} B/sample"
    );
    assert!(
        per_sample <= STREAMING_PEAK_PER_SAMPLE_BOUND,
        "a streaming run peaked at {per_sample:.1} live bytes per OOO sample (bound \
         {STREAMING_PEAK_PER_SAMPLE_BOUND}): is the outcome's sample vector a copy of the \
         recorder's pool again instead of the pool itself?"
    );
}
