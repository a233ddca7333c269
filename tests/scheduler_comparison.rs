//! Cross-crate integration tests asserting the paper's headline *shapes*:
//! who wins, where, and by direction — the properties EXPERIMENTS.md reports
//! quantitatively.

use mptcp_ecf::prelude::*;

fn stream(wifi: f64, lte: f64, kind: SchedulerKind, seed: u64) -> Testbed<DashApp> {
    let cfg = TestbedConfig::wifi_lte(wifi, lte, kind, seed);
    let player = PlayerConfig { video_secs: 120.0, ..PlayerConfig::default() };
    let mut tb = Testbed::new(cfg, DashApp::new(player, 0));
    tb.run_until(Time::from_secs(4000));
    assert!(tb.app().finished_at().is_some(), "video must finish");
    tb
}

#[test]
fn ecf_beats_default_under_heterogeneity() {
    // The paper's central claim (Fig 9): at 0.3/8.6 the default scheduler
    // falls far below the ideal bit rate while ECF stays close.
    let ecf = stream(0.3, 8.6, SchedulerKind::Ecf, 4).app().player.avg_bitrate_mbps();
    let def = stream(0.3, 8.6, SchedulerKind::Default, 4).app().player.avg_bitrate_mbps();
    assert!(ecf > def * 1.3, "ECF ({ecf:.2} Mbps) must clearly beat default ({def:.2} Mbps)");
    // And ECF lands in the ideal's neighbourhood.
    assert!(ecf > 0.6 * 8.47, "ECF only reached {ecf:.2} of 8.47 Mbps ideal");
}

#[test]
fn schedulers_converge_on_symmetric_paths() {
    // Fig 9 diagonal: with homogeneous paths every scheduler performs alike.
    let ecf = stream(8.6, 8.6, SchedulerKind::Ecf, 4).app().player.avg_bitrate_mbps();
    let def = stream(8.6, 8.6, SchedulerKind::Default, 4).app().player.avg_bitrate_mbps();
    let ratio = ecf / def;
    assert!(
        (0.85..=1.18).contains(&ratio),
        "expected parity on symmetric paths, got ecf={ecf:.2} default={def:.2}"
    );
}

#[test]
fn daps_is_weakest_under_heterogeneity() {
    // Fig 9(c): DAPS trails even the default scheduler when paths diverge.
    let daps = stream(0.3, 8.6, SchedulerKind::Daps, 4).app().player.avg_bitrate_mbps();
    let ecf = stream(0.3, 8.6, SchedulerKind::Ecf, 4).app().player.avg_bitrate_mbps();
    assert!(daps < ecf, "DAPS ({daps:.2}) must trail ECF ({ecf:.2})");
}

#[test]
fn ecf_preserves_the_fast_subflow_window() {
    // Table 3: ECF incurs an order of magnitude fewer IW resets on the fast
    // (LTE) subflow than the default scheduler.
    let ecf_tb = stream(0.3, 8.6, SchedulerKind::Ecf, 4);
    let def_tb = stream(0.3, 8.6, SchedulerKind::Default, 4);
    let ecf_resets = ecf_tb.world().sender(0).subflows[1].cc.stats().iw_resets();
    let def_resets = def_tb.world().sender(0).subflows[1].cc.stats().iw_resets();
    assert!(
        ecf_resets * 3 <= def_resets,
        "ECF resets ({ecf_resets}) should be far below default's ({def_resets})"
    );
}

#[test]
fn ecf_reduces_out_of_order_delay() {
    // Figs 13/14: the reordering tail shrinks under ECF at 0.3/8.6.
    let mean = |kind| {
        let xs = stream(0.3, 8.6, kind, 4).world_mut().recorder.take_ooo_secs();
        metrics::mean(&xs.to_vec())
    };
    let (e, d) = (mean(SchedulerKind::Ecf), mean(SchedulerKind::Default));
    assert!(e < d, "mean OOO delay: ecf {e:.4}s vs default {d:.4}s");
}

#[test]
fn ecf_never_loses_badly_on_simple_downloads() {
    // Fig 19's "never worse": across sizes and pairs ECF's completion time
    // stays within noise of the default's or beats it.
    for (wifi, lte) in [(1.0, 1.0), (1.0, 5.0), (1.0, 10.0), (5.0, 5.0)] {
        for bytes in [128 * 1024u64, 512 * 1024, 1024 * 1024] {
            let run = |kind| {
                let cfg = TestbedConfig::wifi_lte(wifi, lte, kind, 3);
                let mut tb = Testbed::new(cfg, WgetApp::new(bytes));
                tb.run_until(Time::from_secs(300));
                tb.app().completed_at.expect("download completes").as_secs_f64()
            };
            let d = run(SchedulerKind::Default);
            let e = run(SchedulerKind::Ecf);
            assert!(e <= d * 1.25, "{bytes}B at {wifi}/{lte}: ecf {e:.2}s vs default {d:.2}s");
        }
    }
}

#[test]
fn web_page_load_improves_with_ecf_under_heterogeneity() {
    // Fig 20 (1-10 Mbps): mean object completion shrinks under ECF.
    let load = |kind| {
        let conns = (0..6).map(|_| ConnSpec::new(kind, vec![0, 1])).collect();
        let cfg = TestbedConfig {
            paths: vec![PathConfig::wifi(1.0), PathConfig::lte(10.0)],
            conns,
            seed: 7,
            path_seeds: None,
            recorder: RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: TelemetryHandle::off(),
        };
        let mut tb = Testbed::new(cfg, BrowserApp::new(PageModel::cnn_like(2014), 6));
        tb.run_until(Time::from_secs(600));
        assert!(tb.app().done());
        metrics::mean(&tb.app().completion_times_secs())
    };
    let d = load(SchedulerKind::Default);
    let e = load(SchedulerKind::Ecf);
    assert!(e <= d * 1.05, "mean object completion: ecf {e:.3}s vs default {d:.3}s");
}

#[test]
fn seeded_regression_ecf_completes_no_later_than_minrtt() {
    // Pinned (config, seed) regression for the paper's headline ordering:
    // at a heterogeneous 1/10 Mbps WiFi/LTE pair, ECF's download completion
    // time never exceeds minRTT's. Deliberately asserts the *ordering*, not
    // exact times: the random streams feeding jitter/loss may change when
    // the PRNG evolves (as in the rand → testkit::rng swap), but the
    // ordering is the paper's claim and must survive any reseeding.
    for seed in [1u64, 7, 20170707] {
        let run = |kind| {
            let cfg = TestbedConfig::wifi_lte(1.0, 10.0, kind, seed);
            let mut tb = Testbed::new(cfg, WgetApp::new(512 * 1024));
            tb.run_until(Time::from_secs(300));
            tb.app().completed_at.expect("download completes").as_secs_f64()
        };
        let minrtt = run(SchedulerKind::Default);
        let ecf = run(SchedulerKind::Ecf);
        assert!(ecf <= minrtt, "seed {seed}: ecf {ecf:.3}s must not exceed minRTT {minrtt:.3}s");
    }
}

#[test]
fn four_subflows_keep_the_ecf_advantage() {
    // Fig 15: two subflows per interface, 0.3 Mbps WiFi / 8.6 Mbps LTE.
    let run = |kind| {
        let paths = vec![
            PathConfig::wifi(0.15),
            PathConfig::wifi(0.15),
            PathConfig::lte(4.3),
            PathConfig::lte(4.3),
        ];
        let cfg = TestbedConfig {
            paths,
            conns: vec![ConnSpec::new(kind, vec![0, 1, 2, 3])],
            seed: 4,
            path_seeds: None,
            recorder: RecorderConfig::default(),
            scenario: Scenario::default(),
            telemetry: TelemetryHandle::off(),
        };
        let player = PlayerConfig { video_secs: 90.0, ..PlayerConfig::default() };
        let mut tb = Testbed::new(cfg, DashApp::new(player, 0));
        tb.run_until(Time::from_secs(3000));
        tb.app().player.avg_bitrate_mbps()
    };
    let e = run(SchedulerKind::Ecf);
    let d = run(SchedulerKind::Default);
    assert!(e >= d, "4-subflow: ecf {e:.2} vs default {d:.2}");
}
