//! The experiment-matrix suite: each spec-backed figure reproduces its
//! pinned Quick report, the registry entry and the spec file are the same
//! experiment, caching never changes output, merge order is independent of
//! shard count, and corrupt cache entries are contained.

use std::path::PathBuf;

use experiments::expmatrix::{self, Lookup, MatrixOptions, Spec};
use experiments::{registry, Effort, Source};
use telemetry::{Counter, TelemetryHandle};
use testkit::digest::{canonical_digest, fnv1a};

/// FNV-1a of each spec-backed figure's Quick report, captured from the
/// figure's imperative generator before it was deleted in favour of the
/// spec. Full effort runs the same renderer over a wider grid.
const QUICK_REPORTS: [(&str, u64); 6] = [
    ("fig3", 0xbf5d_a6c4_42df_c436),
    ("fig16", 0x01df_c291_6f70_7708),
    ("fig17", 0xa0eb_261f_0817_3c62),
    ("dyn_handover", 0x703a_4256_1998_e193),
    ("dyn_burstloss", 0x297d_a370_9f86_d3a6),
    ("quic_web", 0xf820_f050_ecfc_16b2),
];

fn spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("specs/{name}.json"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("expmatrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_opts(cache_dir: &PathBuf) -> MatrixOptions {
    let mut opts = MatrixOptions::new(cache_dir);
    opts.effort = Effort::Quick;
    opts
}

/// Cold run, warm run, and `--force` run of one spec must agree with each
/// other, and the warm run must execute nothing. Returns the report.
fn assert_equivalent(name: &str) -> String {
    let dir = scratch(name);
    let spec = Spec::from_file(spec_path(name)).unwrap();
    let opts = quick_opts(&dir);

    let cold = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(cold.executed, cold.cells, "{name}: cold run must execute everything");
    assert_eq!(cold.hits, 0, "{name}: cold run can't hit an empty cache");

    let warm = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(warm.executed, 0, "{name}: warm run must execute nothing");
    assert_eq!(warm.hits, warm.cells, "{name}: warm run must be 100% hits");
    assert_eq!(warm.report, cold.report, "{name}: warm output differs from cold");

    let mut forced = quick_opts(&dir);
    forced.force = true;
    let force = expmatrix::run_matrix(&spec, &forced).unwrap();
    assert_eq!(force.executed, force.cells, "{name}: --force must re-execute");
    assert_eq!(force.report, cold.report, "{name}: forced output differs from cold");

    let _ = std::fs::remove_dir_all(&dir);
    cold.report
}

#[test]
fn spec_backed_figures_reproduce_their_pinned_quick_reports() {
    for (name, expected) in QUICK_REPORTS {
        let report = assert_equivalent(name);
        assert_eq!(fnv1a(report.as_bytes()), expected, "{name} report moved:\n{report}");
    }
}

#[test]
fn every_spec_file_is_a_registered_spec_backed_entry() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut ids: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|id| id != "smoke")
        .collect();
    ids.sort();
    let mut registered: Vec<&str> =
        registry().iter().filter(|e| matches!(e.source, Source::Spec(_))).map(|e| e.id).collect();
    registered.sort_unstable();
    assert_eq!(ids, registered, "a spec file without its entry, or the reverse");
    let mut pinned: Vec<&str> = QUICK_REPORTS.iter().map(|(id, _)| *id).collect();
    pinned.sort_unstable();
    assert_eq!(pinned, registered, "every spec-backed entry has a pinned report");
}

#[test]
fn the_registry_entry_and_its_spec_file_produce_the_same_report() {
    for (id, _) in QUICK_REPORTS {
        let dir = scratch(&format!("registry-{id}"));
        let opts = quick_opts(&dir);
        let from_file = Spec::from_file(spec_path(id)).unwrap();
        assert_eq!(from_file.name, id, "results/<id>.txt is named by the spec");
        let file_report = expmatrix::run_matrix(&from_file, &opts).unwrap().report;
        let registry_report = experiments::find(id).unwrap().run(&opts).unwrap();
        assert_eq!(registry_report, file_report, "{id}: registry path differs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_streaming_cell_keeps_its_cache_key() {
    // Adding the quic goldens to quic_web keys must leave every MPTCP-only
    // cell where existing caches already hold it.
    let spec = Spec::from_file(spec_path("fig17")).unwrap();
    let exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
    assert_eq!(exp.cells[0].digest, 0x622c_3a80_d3f5_7ecc);
}

#[test]
fn shard_count_never_changes_output_or_digests() {
    let spec = Spec::from_file(spec_path("smoke")).unwrap();
    let baseline_exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
    let baseline_digests: Vec<u64> =
        baseline_exp.cells.iter().map(|c| c.digest).collect();

    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        // Fresh cache per worker count: every run executes every cell, so
        // any shard-order leakage into the merge would show up.
        let dir = scratch(&format!("shards-{workers}"));
        let mut opts = quick_opts(&dir);
        opts.workers = Some(workers);
        let outcome = expmatrix::run_matrix(&spec, &opts).unwrap();
        assert_eq!(outcome.executed, outcome.cells);

        let exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
        let digests: Vec<u64> = exp.cells.iter().map(|c| c.digest).collect();
        assert_eq!(
            digests, baseline_digests,
            "per-cell digests changed at {workers} workers"
        );
        reports.push(outcome.report);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(reports[0], reports[1], "1-thread vs 2-thread output differs");
    assert_eq!(reports[0], reports[2], "1-thread vs 8-thread output differs");
}

#[test]
fn truncated_cache_entry_is_a_counted_miss_and_gets_repaired() {
    let dir = scratch("corrupt");
    let spec = Spec::from_file(spec_path("fig17")).unwrap();
    let opts = quick_opts(&dir);
    let cold = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(cold.cells, 2);

    // Truncate one entry in place (a crash mid-write, bit-rot, a partial
    // copy — the hygiene cases).
    let exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
    let victim = expmatrix::Cache::new(&dir).entry_path(exp.cells[0].digest);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let mut opts = quick_opts(&dir);
    opts.telemetry = TelemetryHandle::enabled();
    let repaired = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(repaired.invalid, 1, "truncation must be detected");
    assert_eq!(repaired.hits, 1, "the intact entry must still hit");
    assert_eq!(repaired.executed, 1, "only the corrupt cell re-executes");
    assert_eq!(repaired.report, cold.report, "output must not change");
    assert_eq!(opts.telemetry.counter(Counter::MatrixCacheHits), 1);
    assert_eq!(opts.telemetry.counter(Counter::MatrixCacheMisses), 1);
    assert_eq!(opts.telemetry.counter(Counter::MatrixCacheInvalid), 1);

    // The re-execution rewrote the entry: a third run is fully warm.
    let warm = expmatrix::run_matrix(&spec, &quick_opts(&dir)).unwrap();
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.report, cold.report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dry_run_probes_without_executing() {
    let dir = scratch("dry");
    let spec = Spec::from_file(spec_path("smoke")).unwrap();
    let mut opts = quick_opts(&dir);
    opts.dry_run = true;
    let dry = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(dry.executed, 0);
    assert_eq!(dry.misses, dry.cells);
    assert!(dry.report.contains("dry run"), "report: {}", dry.report);
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "dry run must not write cache entries"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quick_and_full_cells_never_share_cache_keys() {
    // Effort resolution happens before digesting, so a Quick run can never
    // poison a Full figure (and vice versa).
    let spec = Spec::from_file(spec_path("dyn_burstloss")).unwrap();
    let quick = expmatrix::expand(&spec, Effort::Quick).unwrap();
    let full = expmatrix::expand(&spec, Effort::Full).unwrap();
    let quick_digests: std::collections::HashSet<u64> =
        quick.cells.iter().map(|c| c.digest).collect();
    assert!(full.cells.iter().all(|c| !quick_digests.contains(&c.digest)));
    assert_eq!(quick.cells.len(), 27);
    assert_eq!(full.cells.len(), (5 + 4) * 3 * 5);
}

#[test]
fn engine_contract_changes_invalidate_cached_cells() {
    // Simulate an engine-behavior change by probing with a key whose
    // contract differs: the stored entry must be rejected, not served.
    let dir = scratch("contract");
    let cache = expmatrix::Cache::new(&dir);
    let spec = Spec::from_file(spec_path("smoke")).unwrap();
    let exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
    let cell = &exp.cells[0];
    let result = testkit::json::parse(r#"{"scalars":{"avg_bitrate":1.0}}"#).unwrap();
    cache.store(cell.digest, &cell.key, &result).unwrap();
    assert_eq!(cache.load(cell.digest, &cell.key), Lookup::Hit(result));

    let mut new_key = cell.key.clone();
    if let testkit::json::Value::Object(m) = &mut new_key {
        m.insert(
            "contract".to_string(),
            testkit::json::Value::String("next-engine".into()),
        );
    }
    let new_digest = canonical_digest(&new_key);
    assert_ne!(new_digest, cell.digest, "contract must be part of the key");
    assert_eq!(
        cache.load(new_digest, &new_key),
        Lookup::Miss,
        "a new contract addresses a different entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
