//! Shard-vs-monolith equivalence: the sweep contract (DESIGN.md §11) says a
//! sharded population run merges to a result *bit-identical* to the
//! monolithic single-engine run, at every shard count and every worker
//! count. The property test explores random populations and shard counts;
//! the golden test pins the standard ~1k-connection browse sweep digest so
//! a seeded-behavior change cannot slip through as "still self-consistent".

use ecf_core::SchedulerKind;
use experiments::{browse_1k, browse_population, run_sweep, Population, SweepOptions};
use testkit::prop::{any_u64, check};
use webload::PageModel;

/// The standard browse_1k population, seed 1: digest of the merged per-unit
/// reports. Pinned here (not in `ENGINE_CONTRACT`) so adding the sweep does
/// not invalidate existing matrix caches; regenerate after a deliberate
/// engine change with `repro matrix` on a copy of `specs/browse_sweep.json`
/// whose `units` is 167 (the report's `digest` column).
const BROWSE_1K_SEED_1: u64 = 0x111c_1778_5569_441a;

/// A small population with tiny pages so each property case stays cheap:
/// unit count, connections per unit and page shape all derive from the
/// case's seed material.
fn small_pop(seed: u64, n_units: usize, conns_per_unit: usize) -> Population {
    let mut pop = browse_population(seed, n_units, conns_per_unit, 1.0, 10.0, SchedulerKind::Ecf);
    for (u, unit) in pop.units.iter_mut().enumerate() {
        unit.page = PageModel::lognormal(seed ^ u as u64, 6, 8192.0, 1.6, 200, 30_000);
    }
    pop
}

#[test]
fn prop_shard_merge_is_bit_identical_to_monolith() {
    // (seed, units, conns/unit, max_shards 1..=8): the monolith is
    // max_shards = 1; every other shard count must merge to the same
    // digest AND the same field-for-field unit reports.
    check(24, (any_u64(), 2_usize..=6, 1_usize..=3, 1_usize..=8), |(seed, units, conns, k)| {
        let pop = small_pop(seed, units, conns);
        let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
        let sharded = run_sweep(&pop, &SweepOptions { max_shards: k, ..Default::default() });
        assert_eq!(
            sharded.digest, mono.digest,
            "digest diverged at max_shards={k} for seed {seed}"
        );
        assert_eq!(sharded.units, mono.units, "unit reports diverged at max_shards={k}");
    });
}

#[test]
fn worker_count_is_invisible_in_the_merge() {
    let pop = small_pop(0xECF, 12, 2);
    let reference =
        run_sweep(&pop, &SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() });
    assert_eq!(reference.shard_events.len(), 12, "one shard per unit expected");
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
fn browse_1k_sweep_digest_is_golden() {
    let pop = browse_1k(1);
    let n_conns: usize = pop.units.iter().map(|u| u.conns.len()).sum();
    assert_eq!(n_conns, 1002);
    let report = run_sweep(&pop, &SweepOptions::default());
    assert!(report.units.iter().all(|u| u.page_load.is_some()), "every page must finish");
    assert_eq!(
        report.digest, BROWSE_1K_SEED_1,
        "browse_1k seed-1 sweep digest moved: seeded engine behavior changed \
         (got {:#018x})",
        report.digest
    );
}
