//! Allocation audit for the deliver loop.
//!
//! The contract is that once a run's occupancy has plateaued — connections
//! established, windows opened, the event wheel, link queues and inflight
//! deques grown to their working set — the pop-event/handle/schedule loop
//! performs **zero** heap allocations. Segments recycle through the slab
//! arena, wheel nodes through the queue's free list, and every scratch
//! buffer is reused. FIFOs are sized by occupancy, not reserved to their
//! protocol bounds (DESIGN.md §9), so while a window is still opening the
//! loop may allocate — once per capacity doubling, never per event.
//!
//! This test pins both halves with a counting `#[global_allocator]`:
//!
//! * **growth phase** — the first minute of an unlimited bulk download,
//!   whose cwnd is still climbing at t = 60 s, runs 140 k events on fewer
//!   than 64 allocations (45 when written: the request plus ring, wheel
//!   and reorder-buffer doublings);
//! * **steady state** — a window-limited download (128-segment receive
//!   window, so every ring reaches its high-water mark within seconds)
//!   warms for ten simulated seconds, then runs seventy more at exactly
//!   zero allocations, on a fresh and on a recycled event queue.
//!
//! A per-event allocation anywhere in the loop fails both.
//!
//! * **handover** — the same window-limited download with the LTE path
//!   blacked out for a second every ten: two outages inside the warm-up
//!   (the reinjection queue grows to its working set there), seven inside
//!   the measured window. Taking a subflow down and up, reinjecting its
//!   unacknowledged data and recovering through RTOs must allocate nothing
//!   either — `World::on_path_state` once collected a `Vec` per connection
//!   per path event, `Connection::on_subflow_down` one per outage.
//!
//! * **four subflows** — the Fig 15 shape (two subflows per interface, each
//!   path at half rate), past the two entries `mptcp::PerSub` holds inline.
//!   Per-subflow state lives on the heap there, but it is sized at
//!   construction: coupled congestion avoidance overwrites its `CcView`
//!   scratch in place and must not collect a fresh one per ACK.
//!
//! The recorder's OOO-delay trace is switched off: it appends one entry per
//! delivered segment by design (a measurement buffer, not hot-loop state),
//! which is exactly the kind of unbounded growth this audit must exclude.

mod support;

use mptcp::{RecorderConfig, Testbed, TestbedConfig};
use scenario::Scenario;
use simnet::{PathConfig, Time};
use webload::WgetApp;

#[global_allocator]
static COUNTER: support::CountingAlloc = support::CountingAlloc;

fn allocs() -> u64 {
    support::snapshot().0
}

/// A 200 MB download — still in full flight at t = 80 s — whose receive
/// window holds `window_segs` segments.
fn wget(window_segs: u64) -> (TestbedConfig, WgetApp) {
    let mut cfg = TestbedConfig::wifi_lte(8.6, 9.6, ecf_core::SchedulerKind::Ecf, 7);
    cfg.recorder = RecorderConfig { ooo_delays: false, ..RecorderConfig::default() };
    cfg.conns[0].cfg.rwnd_segs = window_segs;
    (cfg, WgetApp::new(200 * 1024 * 1024))
}

/// Warm `tb` to t = 10 s, then assert the next seventy simulated seconds
/// allocate nothing.
fn assert_steady_state_allocates_nothing(tb: &mut Testbed<WgetApp>, what: &str) {
    tb.run_until(Time::from_secs(10));
    let events_before = tb.events_processed();
    let batched_before = tb.queue().batch_deliveries();
    let allocs_before = allocs();

    tb.run_until(Time::from_secs(80));

    let allocs = allocs() - allocs_before;
    let events = tb.events_processed() - events_before;
    let batched = tb.queue().batch_deliveries() - batched_before;

    // Make sure the window actually exercised the hot loop: seventy seconds
    // of a window-limited two-path download is well over a hundred thousand
    // deliveries, ACKs, and timers.
    assert!(
        events > 100_000,
        "{what}: steady-state window processed only {events} events; workload mis-sized"
    );
    // ... including the batched claim path: a full-flight bulk download on
    // FIFO links must dispatch some deliveries inline, or this audit has
    // silently stopped covering the batching fast path.
    assert!(
        batched > 0,
        "{what}: steady-state window dispatched no batched deliveries; audit no \
         longer covers the claim path"
    );
    assert_eq!(
        allocs, 0,
        "{what}: steady-state deliver loop allocated {allocs} times over {events} events"
    );
}

/// The default 2896-segment buffers never bind on this download, so cwnd —
/// and with it every ring's occupancy — is still climbing when the minute
/// ends; what may allocate is the one request and each ring's doublings, a
/// count that does not scale with events.
fn assert_growth_phase_allocates_per_doubling() {
    let (cfg, app) = wget(mptcp::ConnConfig::default().rwnd_segs);
    let mut tb = Testbed::new(cfg, app);
    let start = allocs();
    tb.run_until(Time::from_secs(60));
    let growth_allocs = allocs() - start;
    let events = tb.events_processed();
    assert!(events > 100_000, "growth phase processed only {events} events");
    assert!(
        growth_allocs < 64,
        "60 s of an opening window allocated {growth_allocs} times over {events} \
         events — more than occupancy doublings explain"
    );
}

#[test]
fn steady_state_deliver_loop_allocates_nothing() {
    assert_growth_phase_allocates_per_doubling();

    // Steady state, cold: a window-limited flow plateaus inside the warm-up.
    let cold_start = allocs();
    let (cfg, app) = wget(128);
    let mut tb = Testbed::new(cfg, app);
    assert_steady_state_allocates_nothing(&mut tb, "cold run");
    let cold_allocs = allocs() - cold_start;

    // Second run on the recycled event queue — the shard-worker reuse path
    // (`Testbed::into_queue` → `new_with_queue`). The recovered slab must
    // (a) cut the run's allocator traffic against the cold run above and
    // (b) reach the same zero-allocation steady state.
    let queue = tb.into_queue();
    let warm_start = allocs();
    let (cfg, app) = wget(128);
    let mut tb = Testbed::new_with_queue(cfg, app, queue);
    assert_steady_state_allocates_nothing(&mut tb, "recycled-queue run");
    let warm_allocs = allocs() - warm_start;
    assert!(
        warm_allocs < cold_allocs,
        "recycled-queue run allocated {warm_allocs} times, \
         not cheaper than the cold run's {cold_allocs}"
    );

    // Handover: LTE (path 1) down during [3, 4), [6, 7), then [13, 14),
    // [23, 24), ... [73, 74) — the first two inside the warm-up.
    let (mut cfg, app) = wget(128);
    cfg.scenario = [3, 6, 13, 23, 33, 43, 53, 63, 73]
        .into_iter()
        .fold(Scenario::new(), |s, t| s.outage(1, Time::from_secs(t), Time::from_secs(t + 1)));
    let mut tb = Testbed::new(cfg, app);
    assert_steady_state_allocates_nothing(&mut tb, "handover run");
    let reinjected: u64 =
        tb.world().sender(0).subflows.iter().map(|sf| sf.stats().reinjections).sum();
    assert!(reinjected > 0, "handover run reinjected nothing; the outages did not bite");

    // Four subflows, two per interface (Fig 15): past `PerSub`'s inline width.
    let (mut cfg, app) = wget(128);
    cfg.paths = vec![
        PathConfig::wifi(4.3),
        PathConfig::wifi(4.3),
        PathConfig::lte(4.8),
        PathConfig::lte(4.8),
    ];
    cfg.conns[0].subflow_paths = vec![0, 1, 2, 3];
    let mut tb = Testbed::new(cfg, app);
    assert_steady_state_allocates_nothing(&mut tb, "four-subflow run");
    let sender = tb.world().sender(0);
    assert_eq!(sender.subflows.len(), 4);
    assert!(
        sender.subflows.iter().all(|sf| sf.stats().segs_sent > 0),
        "four-subflow run left a subflow idle"
    );
}
