//! Smoke tests over the experiment harness: every registry entry resolves
//! and runs, and the cheap reports generate with their expected structure.

use experiments::{find, registry, Effort, MatrixOptions};

/// Run one entry at Quick effort; spec-backed entries cache into a
/// throwaway directory, so every run executes its cells.
fn quick_report(id: &str) -> String {
    let dir = std::env::temp_dir().join(format!("smoke-{id}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = MatrixOptions { effort: Effort::Quick, ..MatrixOptions::new(&dir) };
    let report = find(id).expect("registered").run(&opts).unwrap_or_else(|e| panic!("{id}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn registry_is_complete_and_unique() {
    let reg = registry();
    assert!(reg.len() >= 25, "expected ≥25 experiments, got {}", reg.len());
    let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "duplicate experiment ids");
}

#[test]
fn every_registered_experiment_runs_at_quick_effort() {
    // Aliases (fig7/fig10 etc.) share a title and a generator; run each once.
    let mut seen = std::collections::HashSet::new();
    for e in registry() {
        if seen.insert(e.title) {
            let report = quick_report(e.id);
            assert!(!report.trim().is_empty(), "{} produced an empty report", e.id);
        }
    }
}

#[test]
fn tab1_report_matches_the_ladder() {
    let report = quick_report("tab1");
    for needle in ["144p", "1080p", "0.26", "8.47"] {
        assert!(report.contains(needle), "tab1 missing {needle}:\n{report}");
    }
}

#[test]
fn fig1_report_shows_progress_series() {
    let report = quick_report("fig1");
    assert!(report.contains("cumulative_MB"));
    assert!(report.lines().count() > 8, "fig1 too short:\n{report}");
}

#[test]
fn fig5_report_has_all_pairs() {
    let report = quick_report("fig5");
    for pair in ["0.3-8.6", "0.7-8.6", "1.1-8.6", "4.2-8.6"] {
        assert!(report.contains(pair), "fig5 missing {pair}");
    }
}

#[test]
fn tab3_reports_all_schedulers() {
    let report = quick_report("tab3");
    for sched in ["default", "ecf", "daps", "blest"] {
        assert!(report.contains(sched), "tab3 missing {sched}");
    }
}

#[test]
fn ablation_components_orders_variants() {
    let report = quick_report("ablation_components");
    assert!(report.contains("full ECF"));
    assert!(report.contains("no delta margin"));
    assert!(report.contains("no second inequality"));
    assert!(report.contains("default (reference)"));
}
