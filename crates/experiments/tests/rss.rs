//! Fragmentation guard: what a sharded sweep costs the OS over what it
//! keeps.
//!
//! `footprint.rs` bounds the bytes a sweep *requests* and holds *live*; the
//! benchmark of record reads `VmHWM`, and the two can part ways. A sweep of
//! one-unit engines builds, runs and tears down an engine per unit, and
//! every unit leaves a report behind. A report vector that is allocated
//! among the engine's rings and scratch — or grew there and is shrunk in
//! place afterwards — stays between the engine's blocks and pins the hole
//! the engine leaves, once per unit: a `browse_sharded` body grew the
//! resident set by 67.9 MB for the 59.3 MB it kept that way (DESIGN.md §9).
//! `sharding::extract_reports` therefore moves the raw outputs out, drops
//! the engine, and only then allocates what is kept, copying any vector
//! that has slack.
//!
//! The check is the ratio of RSS growth over the sweep to the bytes still
//! live when it returns. When written: 1.030; 1.153 with the extraction it
//! replaced (buckets allocated with the engine alive, pools `shrink_to_fit`
//! in place), 1.150 with the in-place shrink alone, 1.041 with today's
//! copies made before the engine is dropped — the order is worth one
//! percent, which the bound does not try to resolve. Live bytes are exact
//! and the RSS reading repeated to the page here, but resident pages depend
//! on the platform's allocator, so the bound leaves room and the test is
//! Linux-only. It is its own binary with one `#[test]`, like the other
//! allocator audits.
//!
//! The test also bounds what a sweep keeps per unit. The merge folds each
//! unit's request summaries into the digest as the unit arrives in global
//! order, then drops them (DESIGN.md §11): 20 827 B live per unit after the
//! sweep, where keeping the 107 summaries of 104 B read 31 955 B. The ratio
//! above went 1.047 → 1.064 with that change — the freed summary blocks are
//! reused by the next engine, not returned to the OS — while both of its
//! terms fell. Most of what was left were OOO samples of 0: with each run
//! of them stored as one entry (`mptcp::OooPool`) and 24 B object records
//! a unit keeps 10 718 B, and the ratio reads 1.057.

#![cfg(target_os = "linux")]

mod support;

use ecf_core::SchedulerKind;
use experiments::{browse_population, run_sweep, SweepOptions};

#[global_allocator]
static COUNTER: support::CountingAlloc = support::CountingAlloc;

/// RSS growth over the sweep / bytes live after it.
const RSS_PER_LIVE_BOUND: f64 = 1.10;

/// Bytes live after the sweep, per unit (20 827 with raw OOO pools and
/// 32 B object records, bound 23 000; 10 718 with zero runs stored as one
/// entry and 24 B records, and the bound sits 10 % above that).
const LIVE_PER_UNIT_BOUND: u64 = 11_790;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"));
    kb * 1024
}

#[test]
fn sharded_sweep_rss_stays_near_its_live_bytes() {
    const UNITS: usize = 400;
    let opts = SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() };

    // The benchmark's `browse_sharded` population at a quarter of its size.
    // A few units first, so code pages and the allocator's own bookkeeping
    // are resident before the measured window opens.
    let warm = run_sweep(&browse_population(1, 4, 6, 1.0, 10.0, SchedulerKind::Ecf), &opts);
    drop(warm);
    let pop = browse_population(1, UNITS, 6, 1.0, 10.0, SchedulerKind::Ecf);

    let rss_before = status_bytes("VmRSS:");
    let live_before = support::live_and_peak().0;
    let report = run_sweep(&pop, &opts);
    let live = support::live_and_peak().0 - live_before;
    let rss = status_bytes("VmHWM:").saturating_sub(rss_before);

    assert_eq!(report.units.len(), UNITS);
    assert!(
        report.units.iter().all(|u| u.page_load.is_some()),
        "a unit did not finish its page; the footprint would be of a different run"
    );
    let ratio = rss as f64 / live as f64;
    println!("rss growth {rss} B / live {live} B = {ratio:.3}");
    assert!(
        ratio <= RSS_PER_LIVE_BOUND,
        "the sweep grew RSS by {rss} B for {live} B kept (ratio {ratio:.3}, bound \
         {RSS_PER_LIVE_BOUND}): does a report vector keep the block it grew in inside \
         its engine (`shrink_to_fit`), or get allocated while the engine is alive?"
    );
    let per_unit = live / UNITS as u64;
    println!("live per unit {per_unit} B (bound {LIVE_PER_UNIT_BOUND})");
    assert!(
        per_unit <= LIVE_PER_UNIT_BOUND,
        "the sweep keeps {per_unit} B per unit (bound {LIVE_PER_UNIT_BOUND}): does the merge \
         still hold each unit's request summaries after folding them into the digest, or a \
         pool one slot per OOO sample?"
    );
}
