//! Co-simulation equivalence: a population with a *forced shared
//! bottleneck* — the topology PR 7 could only run collapsed on one engine
//! — must now span engine groups in conservative-lookahead lockstep and
//! still merge to a result bit-identical to the monolithic run, at every
//! shard count and every worker count (DESIGN.md §13). Degenerate
//! couplings (zero lookahead window) must fall back to the collapsed
//! single-engine run: reported, terminating, never diverging.

use std::time::Duration;

use ecf_core::SchedulerKind;
use experiments::{
    browse_coupled_population, browse_population, partition, plan_shards, run_sweep, CoupledRun,
    Population, SharedBottleneck, SweepOptions,
};
use scenario::{GilbertElliott, LossModel};
use simnet::Time;
use telemetry::{Counter, TelemetryHandle};
use testkit::prop::{any_u64, check, choice};
use webload::PageModel;

/// A small coupled population with tiny pages so each property case stays
/// cheap: every leg's LTE contends for one shared bottleneck.
fn small_coupled(
    seed: u64,
    n_units: usize,
    conns_per_unit: usize,
    capacity_mbps: f64,
    prop_delay: Duration,
) -> Population {
    let mut pop = browse_coupled_population(
        seed,
        n_units,
        conns_per_unit,
        1.0,
        capacity_mbps,
        SchedulerKind::Ecf,
    );
    pop.couplings[0].prop_delay = prop_delay;
    for (u, unit) in pop.units.iter_mut().enumerate() {
        unit.page = PageModel::lognormal(seed ^ u as u64, 6, 8192.0, 1.6, 200, 30_000);
    }
    pop
}

#[test]
fn prop_cosim_merge_is_bit_identical_to_monolith() {
    // (seed, units, conns/unit, capacity, prop delay, max_shards 1..=8):
    // the monolith is max_shards = 1 (one engine group, same windowed
    // semantics); every other shard count must merge to the same digest
    // AND the same field-for-field unit reports. Zero propagation delay is
    // included: the serialization floor alone must carry the lookahead.
    check(
        18,
        (
            any_u64(),
            2_usize..=5,
            1_usize..=2,
            choice(&[2.0_f64, 10.0, 50.0]),
            choice(&[0_u64, 10, 30]),
            2_usize..=8,
        ),
        |(seed, units, conns, capacity, prop_ms, k)| {
            let pop = small_coupled(seed, units, conns, capacity, Duration::from_millis(prop_ms));
            assert!(pop.couplings[0].window_nanos() > 0, "coupling must have a safe horizon");
            let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
            let sharded = run_sweep(&pop, &SweepOptions { max_shards: k, ..Default::default() });
            assert!(
                sharded.shard_events.len() >= 2,
                "coupled population must actually span engines at max_shards={k}"
            );
            assert_eq!(
                sharded.digest, mono.digest,
                "digest diverged at max_shards={k} for seed {seed}"
            );
            assert_eq!(sharded.units, mono.units, "unit reports diverged at max_shards={k}");
        },
    );
}

#[test]
fn worker_count_is_invisible_in_the_cosim_merge() {
    let pop = small_coupled(0xC0, 6, 2, 10.0, Duration::from_millis(30));
    let reference =
        run_sweep(&pop, &SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() });
    assert_eq!(reference.shard_events.len(), 6, "one engine group per unit expected");
    for workers in [2, 8] {
        let run = run_sweep(
            &pop,
            &SweepOptions { max_shards: 0, workers: Some(workers), ..Default::default() },
        );
        assert_eq!(run.digest, reference.digest, "workers={workers}");
        assert_eq!(run.units, reference.units, "workers={workers}");
    }
}

#[test]
fn cosim_counters_flush_at_teardown() {
    let pop = small_coupled(7, 4, 1, 10.0, Duration::from_millis(30));
    let tel = TelemetryHandle::enabled();
    let run =
        run_sweep(&pop, &SweepOptions { max_shards: 0, workers: Some(2), telemetry: tel.clone() });
    let rounds = tel.counter(Counter::CosimRounds);
    assert!(rounds > 0, "lockstep windows must be counted");
    // One message per coupling member per round, every member in use.
    assert_eq!(tel.counter(Counter::CosimBoundaryMsgs), rounds * 4);
    // Load-balance accounting rides along as in plain sweeps.
    assert_eq!(tel.counter(Counter::ShardRuns), 4);
    assert_eq!(tel.counter(Counter::ShardEvents), run.events_total());
    assert!(tel.counter(Counter::ShardWallNs) > 0);
    // ... and so do the group engines' wheel diagnostics.
    assert!(tel.counter(Counter::QueuePeakDepth) > 0);

    // The monolithic reference exchanges nothing across boundaries.
    let tel_mono = TelemetryHandle::enabled();
    run_sweep(&pop, &SweepOptions { max_shards: 1, workers: Some(1), telemetry: tel_mono.clone() });
    assert!(tel_mono.counter(Counter::CosimRounds) > 0);
    assert_eq!(tel_mono.counter(Counter::CosimBoundaryMsgs), 0);
    assert_eq!(tel_mono.counter(Counter::CosimStallNs), 0);
}

#[test]
fn degenerate_zero_window_coupling_collapses_never_deadlocks() {
    // No propagation delay AND an effectively infinite capacity: the
    // serialization floor is zero, so no safe horizon exists. The
    // partitioner must union the members (collapse), the run must
    // terminate, and the result must equal the explicit monolith.
    let mut pop = small_coupled(11, 4, 1, 10.0, Duration::ZERO);
    pop.couplings[0].capacity_bps = u64::MAX;
    assert_eq!(pop.couplings[0].window_nanos(), 0);
    assert_eq!(partition(&pop).len(), 1, "zero-window coupling must union its members");
    assert_eq!(plan_shards(&pop, 8).len(), 1);

    let tel = TelemetryHandle::enabled();
    let sharded =
        run_sweep(&pop, &SweepOptions { max_shards: 8, workers: Some(2), telemetry: tel.clone() });
    let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
    assert_eq!(sharded.digest, mono.digest);
    assert_eq!(sharded.units, mono.units);
    assert_eq!(sharded.shard_events.len(), 1, "must have run collapsed");
    // The collapse is reported, not silent.
    assert_eq!(tel.counter(Counter::ShardCollapses), 1);
    assert_eq!(tel.counter(Counter::CosimRounds), 0, "no lockstep loop after collapse");
}

#[test]
fn population_scenario_matches_monolith_uncoupled() {
    // Population-level dynamics on the global clock: rate steps, an
    // outage, and burst loss aimed at *global* path indices must re-target
    // per shard and still merge bit-identically.
    let mut pop = experiments::browse_population(21, 5, 2, 1.0, 10.0, SchedulerKind::Ecf);
    for (u, unit) in pop.units.iter_mut().enumerate() {
        unit.page = PageModel::lognormal(21 ^ u as u64, 6, 8192.0, 1.6, 200, 30_000);
    }
    pop.scenario = pop
        .scenario
        .clone()
        .rate_mbps(Time::from_millis(300), 3, 2.0) // unit 1's LTE
        .rate_mbps(Time::from_millis(900), 3, 10.0)
        .outage(4, Time::from_millis(200), Time::from_millis(700)) // unit 2's WiFi
        .loss(
            Time::ZERO,
            7,
            scenario::LossModel::Bernoulli(0.02), // unit 3's LTE
        );
    let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
    for max_shards in [2, 3, 0] {
        let sharded = run_sweep(&pop, &SweepOptions { max_shards, ..Default::default() });
        assert_eq!(sharded.digest, mono.digest, "max_shards={max_shards}");
        assert_eq!(sharded.units, mono.units, "max_shards={max_shards}");
    }
    // The dynamics were not dropped outright: the outage must delay unit
    // 2's WiFi-path traffic relative to a static run.
    let mut still = pop.clone();
    still.scenario = scenario::Scenario::new();
    let baseline = run_sweep(&still, &SweepOptions { max_shards: 1, ..Default::default() });
    assert_ne!(mono.digest, baseline.digest, "scenario must change the run");
}

#[test]
fn population_scenario_matches_monolith_coupled() {
    let mut pop = small_coupled(33, 4, 1, 10.0, Duration::from_millis(30));
    pop.scenario = pop
        .scenario
        .clone()
        .rate_mbps(Time::from_millis(250), 0, 0.5) // unit 0's WiFi
        .outage(2, Time::from_millis(100), Time::from_millis(600)); // unit 1's WiFi
    let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
    for max_shards in [2, 0] {
        let sharded = run_sweep(&pop, &SweepOptions { max_shards, ..Default::default() });
        assert!(sharded.shard_events.len() >= 2);
        assert_eq!(sharded.digest, mono.digest, "max_shards={max_shards}");
        assert_eq!(sharded.units, mono.units, "max_shards={max_shards}");
    }
}

#[test]
fn stepwise_driver_reports_progress() {
    let pop = small_coupled(5, 3, 1, 10.0, Duration::from_millis(30));
    let mut run = CoupledRun::new(
        &pop,
        &SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() },
    );
    assert_eq!(run.n_groups(), 3);
    assert!(run.window_nanos() > 0);
    assert_eq!(run.now(), Time::ZERO);
    assert!(run.step(), "a fresh coupled run has work to do");
    assert_eq!(run.now().as_nanos(), run.window_nanos());
    let report = run.finish();
    let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
    assert_eq!(report.digest, mono.digest);
}

/// A small uncoupled population: private WiFi + LTE per unit, tiny pages.
fn small_uncoupled(seed: u64, n_units: usize, conns_per_unit: usize) -> Population {
    let mut pop = browse_population(seed, n_units, conns_per_unit, 1.0, 10.0, SchedulerKind::Ecf);
    for (u, unit) in pop.units.iter_mut().enumerate() {
        unit.page = PageModel::lognormal(seed ^ u as u64, 6, 8192.0, 1.6, 200, 30_000);
    }
    pop
}

/// `pop` plus a coupling with no members and a positive window: it steps
/// in lockstep windows of that size, but no rate ever changes.
fn windowed(pop: &Population, capacity_bps: u64, prop_delay: Duration) -> Population {
    let mut pop = pop.clone();
    pop.couplings.push(SharedBottleneck { members: vec![], capacity_bps, prop_delay });
    assert!(pop.couplings[0].window_nanos() > 0);
    pop
}

#[test]
fn prop_windowed_run_equals_a_run_to_the_horizon() {
    // The one executor steps an uncoupled population once, at the horizon,
    // and a coupled one window by window. Cutting a run into windows must
    // not change it: the same population with an empty coupling merges to
    // the plain run's digest and reports at every shard count.
    check(
        24,
        (
            any_u64(),
            2_usize..=5,
            1_usize..=2,
            choice(&[1_000_000_u64, 10_000_000, 100_000_000]),
            choice(&[0_u64, 10, 30]),
        ),
        |(seed, units, conns, capacity_bps, prop_ms)| {
            let plain = small_uncoupled(seed, units, conns);
            let mono = SweepOptions { max_shards: 1, ..Default::default() };
            let reference = run_sweep(&plain, &mono);
            let pop = windowed(&plain, capacity_bps, Duration::from_millis(prop_ms));
            for max_shards in [1, 2, 0] {
                let run = run_sweep(&pop, &SweepOptions { max_shards, ..Default::default() });
                assert_eq!(run.digest, reference.digest, "max_shards={max_shards}, seed {seed}");
                assert_eq!(run.units, reference.units, "max_shards={max_shards}, seed {seed}");
            }
        },
    );
}

#[test]
fn windowed_run_with_dynamics_equals_a_run_to_the_horizon() {
    // Rate steps, an outage and burst loss fire inside windows, not only at
    // their edges.
    let mut plain = small_uncoupled(8, 4, 2);
    plain.scenario = plain
        .scenario
        .clone()
        .rate_mbps(Time::from_millis(150), 1, 2.0) // unit 0's LTE
        .rate_mbps(Time::from_millis(700), 1, 10.0)
        .outage(2, Time::from_millis(100), Time::from_millis(450)) // unit 1's WiFi
        .loss(
            Time::ZERO,
            5, // unit 2's LTE
            LossModel::GilbertElliott(GilbertElliott::bursty(0.05, 4.0)),
        );
    let reference = run_sweep(&plain, &SweepOptions { max_shards: 1, ..Default::default() });
    for prop_ms in [0, 7, 30] {
        let pop = windowed(&plain, 10_000_000, Duration::from_millis(prop_ms));
        for max_shards in [1, 0] {
            let tel = TelemetryHandle::enabled();
            let opts = SweepOptions { max_shards, workers: None, telemetry: tel.clone() };
            let run = run_sweep(&pop, &opts);
            assert!(tel.counter(Counter::CosimRounds) > 1, "the run was not cut into windows");
            assert_eq!(run.digest, reference.digest, "prop {prop_ms} ms, max_shards={max_shards}");
            assert_eq!(run.units, reference.units, "prop {prop_ms} ms, max_shards={max_shards}");
        }
    }
}

#[test]
fn an_uncoupled_population_is_one_round_at_the_horizon() {
    let pop = small_uncoupled(13, 3, 2);
    let tel = TelemetryHandle::enabled();
    let opts = SweepOptions { max_shards: 0, workers: Some(1), telemetry: tel.clone() };
    let mut run = CoupledRun::new(&pop, &opts);
    assert_eq!(run.window_nanos(), pop.horizon.as_nanos());
    assert_eq!(run.n_groups(), plan_shards(&pop, 0).len());
    assert!(!run.step(), "one round reaches the horizon");
    let report = run.finish();
    let swept = run_sweep(&pop, &SweepOptions { max_shards: 0, ..Default::default() });
    assert_eq!(report.digest, swept.digest);
    assert_eq!(tel.counter(Counter::CosimRounds), 0, "no controller ran");
}
