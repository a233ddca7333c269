//! Steady-state allocation audit for the co-simulation lockstep loop.
//!
//! PR 5 pinned the single-engine deliver loop at zero steady-state heap
//! allocations; the co-sim layer must not regress that. Once a coupled run
//! is warmed up, each lockstep window is: advance every engine group
//! (`run_until` on recycled slabs), read each member's offered bytes,
//! sort the reused boundary-message buffer, and apply rate shares — none
//! of which may touch the allocator. This audit drives [`CoupledRun`]
//! window by window through its stepwise API on the sequential
//! (`workers = 1`) path, which is the zero-alloc contract; the threaded
//! path spawns a scope per window by design.
//!
//! Same rules as the single-engine audit (`tests/alloc.rs`): its own
//! integration-test binary so no sibling test pollutes the counter, and
//! the recorder's OOO-delay trace off (it appends one entry per delivered
//! segment by design).

mod support;

use ecf_core::SchedulerKind;
use experiments::{browse_coupled_population, CoupledRun, SweepOptions};
use mptcp::RecorderConfig;
use simnet::Time;
use webload::PageModel;

#[global_allocator]
static COUNTER: support::CountingAlloc = support::CountingAlloc;

#[test]
fn steady_state_lockstep_loop_allocates_nothing() {
    // Two units, one connection each, their LTE legs coupled through a
    // shared 50 Mbps bottleneck. One giant fixed-size object per unit
    // keeps both engines in full flight well past t = 30 s, so the
    // measurement window sees only the hot loop: every request (the sole
    // per-request allocation) is issued during warm-up. The connections
    // are window-limited (64-segment receive windows) so that every
    // occupancy-sized ring reaches its high-water mark inside the warm-up
    // too — the last doubling lands at t = 6 s; the 1 Mbps WiFi leg opens
    // slowly, and at 128 segments it is still doubling at t = 16 s.
    // `tests/alloc.rs` bounds what an opening window may allocate.
    let mut pop = browse_coupled_population(3, 2, 1, 1.0, 50.0, SchedulerKind::Ecf);
    pop.recorder = RecorderConfig { ooo_delays: false, ..RecorderConfig::default() };
    pop.horizon = Time::from_secs(40);
    for (u, unit) in pop.units.iter_mut().enumerate() {
        unit.page = PageModel::lognormal(3 ^ u as u64, 1, 2e8, 0.0, 200_000_000, 200_000_000);
        for conn in &mut unit.conns {
            conn.cfg.rwnd_segs = 64;
        }
    }

    let mut run = CoupledRun::new(
        &pop,
        &SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() },
    );
    assert_eq!(run.n_groups(), 2, "the coupled units must span two engine groups");

    while run.now() < Time::from_secs(10) {
        assert!(run.step(), "run drained during warm-up; workload mis-sized");
    }
    let allocs_before = support::snapshot().0;
    let events_before = run.events_total();

    while run.now() < Time::from_secs(30) {
        assert!(run.step(), "run drained mid-measurement; workload mis-sized");
    }

    let allocs = support::snapshot().0 - allocs_before;
    let events = run.events_total() - events_before;
    assert!(
        events > 20_000,
        "steady-state window processed only {events} events; workload mis-sized"
    );
    assert_eq!(allocs, 0, "co-sim lockstep loop allocated {allocs} times over {events} events");
}
