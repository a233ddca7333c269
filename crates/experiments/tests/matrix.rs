//! The experiment-matrix suite: every registry entry reproduces its pinned
//! Quick report, the registry's embedded specs are the spec files, caching
//! never changes output, merge order is independent of shard count, and
//! corrupt cache entries are contained.

use std::collections::HashMap;
use std::path::PathBuf;

use experiments::expmatrix::{self, Lookup, MatrixOptions, Spec};
use experiments::{find, registry, Effort};
use telemetry::{Counter, TelemetryHandle};
use testkit::digest::{canonical_digest, fnv1a};

/// FNV-1a of every registry entry's Quick report, captured from the
/// figure's imperative generator before it was deleted in favour of its
/// spec (the last three: from the `repro sweep` / `repro --trace` runs
/// their specs replaced, at equal digests and trace bytes). Full effort
/// runs the same renderer over a wider grid.
const QUICK_REPORTS: [(&str, u64); 35] = [
    ("tab1", 0xc5f1_b45a_a1a1_55b8),
    ("fig1", 0x87f1_2f8e_58f3_0f45),
    ("fig2", 0xda11_3bfb_6095_f6bd),
    ("fig3", 0xf403_887c_8390_0d8c),
    ("fig5", 0x6466_4253_f1ce_791f),
    ("fig6", 0x7ea5_dcdc_af0f_e167),
    ("fig7", 0x7d00_836d_dbf0_eee2),
    ("tab2", 0x4a91_078f_7417_692f),
    ("fig9", 0x3d9e_6442_2c0b_1d91),
    ("fig10", 0x7d00_836d_dbf0_eee2),
    ("fig11", 0x2fd3_3dd3_2dc1_a272),
    ("fig12", 0x2fd3_3dd3_2dc1_a272),
    ("tab3", 0x9029_446f_e506_07fe),
    ("fig13", 0xb94f_3dee_2ed7_5ecb),
    ("fig14", 0xf747_ab6a_39e1_bb5f),
    ("fig15", 0xeb26_882c_df3c_e43c),
    ("fig16", 0x01df_c291_6f70_7708),
    ("fig17", 0xa0eb_261f_0817_3c62),
    ("fig18", 0xe63e_067c_7e51_5131),
    ("fig19", 0x806e_a47a_9dcb_f92b),
    ("fig20", 0xeae5_b374_a9de_26ef),
    ("fig21", 0x0be8_55cb_2af9_1a31),
    ("fig22", 0xf5fa_e781_6ede_8369),
    ("fig23", 0xa490_950e_fae4_825c),
    ("tab4", 0xa490_950e_fae4_825c),
    ("ablation_beta", 0xf931_2394_6fbf_b7c0),
    ("ablation_components", 0x38f1_4f65_8fd8_44fc),
    ("ablation_cc", 0xcb28_2370_a89e_081f),
    ("extension_sttf", 0x3046_9b25_61b6_bff9),
    ("dyn_handover", 0x703a_4256_1998_e193),
    ("dyn_burstloss", 0x297d_a370_9f86_d3a6),
    ("quic_web", 0xf820_f050_ecfc_16b2),
    ("browse_sweep", 0x8c5f_d417_37e2_b374),
    ("coupled_browse", 0x9055_4993_ae9a_3761),
    ("trace", 0x158e_fea4_618a_1be9),
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

/// One registry entry's Quick report from a throwaway cache.
fn quick_report(id: &str) -> String {
    let dir = scratch(&format!("report-{id}"));
    let report = find(id).unwrap().run(&quick_opts(&dir)).unwrap_or_else(|e| panic!("{id}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Cold run, warm run, and `--force` run of one spec must agree with each
/// other, and the warm run must execute nothing. Returns the report.
fn assert_equivalent(spec: &Spec) -> String {
    let name = &spec.name;
    let dir = scratch(name);
    let opts = quick_opts(&dir);

    let cold = expmatrix::run_matrix(spec, &opts).unwrap();
    assert_eq!(cold.executed, cold.cells, "{name}: cold run must execute everything");
    assert_eq!(cold.hits, 0, "{name}: cold run can't hit an empty cache");

    let warm = expmatrix::run_matrix(spec, &opts).unwrap();
    assert_eq!(warm.executed, 0, "{name}: warm run must execute nothing");
    assert_eq!(warm.hits, warm.cells, "{name}: warm run must be 100% hits");
    assert_eq!(warm.report, cold.report, "{name}: warm output differs from cold");

    let mut forced = quick_opts(&dir);
    forced.force = true;
    let force = expmatrix::run_matrix(spec, &forced).unwrap();
    assert_eq!(force.executed, force.cells, "{name}: --force must re-execute");
    assert_eq!(force.report, cold.report, "{name}: forced output differs from cold");

    let _ = std::fs::remove_dir_all(&dir);
    cold.report
}

#[test]
fn every_registry_entry_reproduces_its_pinned_quick_report() {
    let mut pinned: Vec<&str> = QUICK_REPORTS.iter().map(|(id, _)| *id).collect();
    let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    pinned.sort_unstable();
    ids.sort_unstable();
    assert_eq!(pinned, ids, "every registry entry has exactly one pinned report");

    // Aliases share a spec: run each spec once, check every id against it.
    let mut reports: HashMap<String, String> = HashMap::new();
    for (id, expected) in QUICK_REPORTS {
        let spec = find(id).unwrap().spec().unwrap();
        let report = match reports.get(&spec.name) {
            Some(r) => r.clone(),
            None => {
                let r = assert_equivalent(&spec);
                assert!(!r.trim().is_empty(), "{id} produced an empty report");
                reports.insert(spec.name.clone(), r.clone());
                r
            }
        };
        assert_eq!(fnv1a(report.as_bytes()), expected, "{id} report moved:\n{report}");
    }
}

#[test]
fn the_registry_embeds_exactly_the_spec_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|id| id != "smoke")
        .collect();
    files.sort();
    let mut embedded = Vec::new();
    for e in registry() {
        let spec = e.spec().unwrap();
        let on_disk = std::fs::read_to_string(spec_path(&spec.name))
            .unwrap_or_else(|err| panic!("{}: spec {:?} has no file: {err}", e.id, spec.name));
        assert_eq!(e.spec, on_disk, "{}: results/<name>.txt is named by the spec", e.id);
        embedded.push(spec.name);
    }
    embedded.sort();
    embedded.dedup();
    assert_eq!(files, embedded, "a spec file without its entry, or the reverse");
}

#[test]
fn tab1_lists_the_six_rungs_of_the_ladder() {
    let t = quick_report("tab1");
    for needle in ["144p", "1080p", "0.26", "8.47"] {
        assert!(t.contains(needle), "tab1 missing {needle}:\n{t}");
    }
    assert_eq!(t.lines().count(), 4 + 6);
}

#[test]
fn fig1_download_progress_is_monotone() {
    let s = quick_report("fig1");
    let points: Vec<f64> =
        s.lines().skip(4).filter_map(|l| l.split('\t').nth(1)?.parse().ok()).collect();
    assert!(points.len() >= 5);
    for w in points.windows(2) {
        assert!(w[1] >= w[0], "progress went backwards");
    }
}

#[test]
fn tab3_shows_ecf_with_no_more_resets_than_default() {
    let t = quick_report("tab3");
    let counts: HashMap<&str, u64> = t
        .lines()
        .skip(6)
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            Some((parts.next()?, parts.next()?.parse().ok()?))
        })
        .collect();
    let (ecf, def) = (counts["ecf"], counts["default"]);
    assert!(ecf <= def, "ECF must not reset the fast subflow more than default ({ecf} vs {def})");
}

#[test]
fn the_beta_report_covers_every_value() {
    let s = quick_report("ablation_beta");
    for beta in ["0.00", "0.10", "0.25", "0.50", "1.00"] {
        assert!(s.contains(beta), "missing β={beta}");
    }
}

#[test]
fn a_streaming_cell_keeps_its_cache_key() {
    // Adding the quic goldens to quic_web keys must leave every MPTCP-only
    // cell where existing caches already hold it. The key moves only with a
    // deliberate schema bump (`RESULT_SCHEMA` 2: traces end with the session).
    let spec = Spec::from_file(spec_path("fig17")).unwrap();
    let exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
    assert_eq!(exp.cells[0].digest, 0x5ade_1580_d035_30ed);
}

#[test]
fn shard_count_never_changes_output_or_digests() {
    let spec = Spec::from_file(spec_path("smoke")).unwrap();
    let baseline_exp = expmatrix::expand(&spec, Effort::Quick).unwrap();
    let baseline_digests: Vec<u64> = baseline_exp.cells.iter().map(|c| c.digest).collect();

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
        assert_eq!(digests, baseline_digests, "per-cell digests changed at {workers} workers");
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
        m.insert("contract".to_string(), testkit::json::Value::String("next-engine".into()));
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
