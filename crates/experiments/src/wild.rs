//! "In the wild" experiments (§6): the paper drives a public-WiFi + LTE
//! phone against a Washington-DC cloud server, unregulated.
//!
//! Substitution (DESIGN.md): we synthesize wild paths from the paper's own
//! Fig 22(a) measurements — across nine runs the WiFi RTT spans ~60 ms to
//! ~1 s while LTE stays pinned near 70 ms — adding a slow random walk on the
//! WiFi delay and mild rate noise. Bandwidths are unshaped (several Mbps).

use std::time::Duration;

use dash::{DashApp, PlayerConfig};
use ecf_core::SchedulerKind;
use metrics::{render_table, Cdf};
use mptcp::{ConnConfig, ConnSpec, RecorderConfig, Testbed, TestbedConfig};
use scenario::Scenario;
use testkit::Rng;
use simnet::{PathConfig, Time};
use webload::{BrowserApp, PageModel};

use crate::common::Effort;

/// The nine runs' baseline WiFi RTTs, following Fig 22(a)'s sorted spread.
pub const WILD_WIFI_RTT_MS: [u64; 9] = [70, 80, 120, 180, 260, 380, 520, 700, 950];
/// LTE's stable wild RTT (Fig 22(a): ≈70 ms in every run).
pub const WILD_LTE_RTT_MS: u64 = 70;

/// Build the two wild paths + delay drift schedules for one run.
fn wild_testbed(
    run: usize,
    scheduler: SchedulerKind,
    seed: u64,
    horizon: Time,
) -> TestbedConfig {
    let mut rng = Rng::seed_from_u64(seed ^ (run as u64) << 8);
    // Town WiFi: weak and variable; LTE: solid — the paper's public-AP
    // vs AT&T contrast.
    let wifi_mbps = rng.gen_range(1.0..5.0);
    let lte_mbps = rng.gen_range(7.0..10.0);
    let wifi_rtt = Duration::from_millis(WILD_WIFI_RTT_MS[run % WILD_WIFI_RTT_MS.len()]);
    let mut wifi = PathConfig::custom("wifi", wifi_mbps, wifi_rtt / 2, 1_500_000);
    wifi.fwd.jitter_max = wifi_rtt / 8 + Duration::from_millis(2);
    let mut lte = PathConfig::custom(
        "lte",
        lte_mbps,
        Duration::from_millis(WILD_LTE_RTT_MS / 2),
        1_500_000,
    );
    lte.fwd.jitter_max = Duration::from_millis(5);

    // WiFi delay random walk: ±25% steps every ~5 s.
    let mut dynamics = Scenario::new();
    let mut t = Time::from_secs(5);
    let base_us = (wifi_rtt / 2).as_micros() as f64;
    let mut cur = base_us;
    while t < horizon {
        let step: f64 = rng.gen_range(-0.25..0.25);
        cur = (cur * (1.0 + step)).clamp(base_us * 0.5, base_us * 2.0);
        dynamics = dynamics.one_way_delay(t, 0, Duration::from_micros(cur as u64));
        t += Duration::from_secs(5);
    }

    TestbedConfig {
        paths: vec![wifi, lte],
        conns: vec![ConnSpec {
            cfg: ConnConfig::default(),
            scheduler,
            custom_scheduler: None,
            subflow_paths: vec![0, 1],
        }],
        seed,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: dynamics,
        telemetry: telemetry::TelemetryHandle::off(),
    }
}

/// Fig 22: wild streaming — per-run measured RTTs and throughput for the
/// default and ECF schedulers.
pub fn fig22(effort: Effort) -> String {
    let mut s = String::from(
        "Fig 22: Streaming in the wild — 9 runs sorted by WiFi RTT\n\
         (paper: parity when RTTs are similar; ECF pulls ahead as WiFi RTT\n\
          diverges; overall +16% average throughput)\n\n",
    );
    let video = match effort {
        Effort::Full => 120.0,
        Effort::Quick => 45.0,
    };
    let results = crate::common::parallel_map((0..9usize).collect(), |run| {
        let per_sched = [SchedulerKind::Default, SchedulerKind::Ecf].map(|kind| {
            let horizon = Time::from_secs(video as u64 * 6 + 120);
            let cfg = wild_testbed(run, kind, 42 + run as u64, horizon);
            let player = PlayerConfig { video_secs: video, ..PlayerConfig::default() };
            let mut tb = Testbed::new(cfg, DashApp::new(player, 0));
            tb.run_until(horizon);
            let tp = tb.app().player.avg_throughput_mbps();
            let wifi_rtt = tb.world().sender(0).subflows[0].cc.rtt.srtt();
            let lte_rtt = tb.world().sender(0).subflows[1].cc.rtt.srtt();
            (tp, wifi_rtt.as_secs_f64() * 1e3, lte_rtt.as_secs_f64() * 1e3)
        });
        per_sched
    });
    let mut rows = Vec::new();
    let (mut sum_d, mut sum_e) = (0.0, 0.0);
    for (run, [(d_tp, d_wifi, d_lte), (e_tp, _, _)]) in results.iter().enumerate() {
        sum_d += d_tp;
        sum_e += e_tp;
        rows.push(vec![
            format!("{}", run + 1),
            format!("{d_wifi:.0}"),
            format!("{d_lte:.0}"),
            format!("{d_tp:.2}"),
            format!("{e_tp:.2}"),
        ]);
    }
    s.push_str(&render_table(
        &["run", "wifi_rtt_ms", "lte_rtt_ms", "default_Mbps", "ecf_Mbps"],
        &rows,
    ));
    s.push_str(&format!(
        "\nmeans: default={:.2} Mbps, ecf={:.2} Mbps, improvement={:.0}%\n",
        sum_d / 9.0,
        sum_e / 9.0,
        (sum_e / sum_d - 1.0) * 100.0
    ));
    s
}

/// Fig 23 + Table 4: wild Web browsing — object completion times and OOO
/// delay, default vs ECF.
pub fn fig23_tab4(effort: Effort) -> String {
    let runs = match effort {
        Effort::Full => 8usize,
        Effort::Quick => 2,
    };
    let mut s = String::from(
        "Fig 23 / Table 4: Web browsing in the wild (CNN-like page)\n\
         (paper: ECF 26% faster object completion, 71% lower OOO delay)\n\n",
    );
    let results = crate::common::parallel_map(
        (0..runs * 2).collect::<Vec<usize>>(),
        |job| {
            let run = job / 2;
            let kind = if job % 2 == 0 { SchedulerKind::Default } else { SchedulerKind::Ecf };
            // Wild web runs hit the mid-heterogeneity regime most often.
            let horizon = Time::from_secs(900);
            let mut cfg = wild_testbed(3 + run % 5, kind, 77 + run as u64, horizon);
            cfg.conns = (0..6)
                .map(|_| ConnSpec {
                    cfg: ConnConfig::default(),
                    scheduler: kind,
                    custom_scheduler: None,
                    subflow_paths: vec![0, 1],
                })
                .collect();
            let mut tb = Testbed::new(cfg, BrowserApp::new(PageModel::cnn_like(2014), 6));
            tb.run_until(horizon);
            (
                tb.app().completion_times_secs(),
                tb.world_mut().recorder.take_ooo_secs(),
            )
        },
    );
    let mut def_completions = Vec::new();
    let mut ecf_completions = Vec::new();
    let mut def_ooo = Vec::new();
    let mut ecf_ooo = Vec::new();
    for (job, (completions, ooo)) in results.into_iter().enumerate() {
        if job % 2 == 0 {
            def_completions.extend(completions);
            def_ooo.extend(ooo);
        } else {
            ecf_completions.extend(completions);
            ecf_ooo.extend(ooo);
        }
    }
    let dc = Cdf::from_samples(def_completions);
    let ec = Cdf::from_samples(ecf_completions);
    let doo = Cdf::from_samples(def_ooo);
    let eoo = Cdf::from_samples(ecf_ooo);
    let rows = vec![
        vec![
            "default".to_string(),
            format!("{:.3}", dc.mean()),
            format!("{:.3}", dc.quantile(0.999)),
            format!("{:.4}", doo.mean()),
        ],
        vec![
            "ecf".to_string(),
            format!("{:.3}", ec.mean()),
            format!("{:.3}", ec.quantile(0.999)),
            format!("{:.4}", eoo.mean()),
        ],
    ];
    s.push_str(&render_table(
        &["scheduler", "mean_completion_s", "p99.9_completion_s", "mean_ooo_s"],
        &rows,
    ));
    s.push_str(&format!(
        "\nECF improvement: completion {:.0}% shorter, OOO delay {:.0}% shorter\n",
        (1.0 - ec.mean() / dc.mean()) * 100.0,
        (1.0 - eoo.mean() / doo.mean()) * 100.0
    ));
    s.push_str("\nCompletion-time CCDF (x_s, P[T>x]):\nx\tdefault\tecf\n");
    for i in 0..=12 {
        let x = i as f64 * 0.5;
        s.push_str(&format!("{x:.1}\t{:.4}\t{:.4}\n", dc.ccdf_at(x), ec.ccdf_at(x)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wild_testbed_is_reproducible() {
        let h = Time::from_secs(60);
        let a = wild_testbed(3, SchedulerKind::Ecf, 9, h);
        let b = wild_testbed(3, SchedulerKind::Ecf, 9, h);
        assert_eq!(a.paths[0].fwd.rate_bps, b.paths[0].fwd.rate_bps);
        assert_eq!(a.scenario.compile(), b.scenario.compile());
        assert!(!a.scenario.is_static(), "wild runs must drift the WiFi delay");
        // Different run index → different WiFi RTT.
        let c = wild_testbed(8, SchedulerKind::Ecf, 9, h);
        assert!(c.paths[0].base_rtt() > a.paths[0].base_rtt());
    }

    #[test]
    fn wild_runs_span_the_rtt_range() {
        assert!(WILD_WIFI_RTT_MS.first().unwrap() < &100);
        assert!(WILD_WIFI_RTT_MS.last().unwrap() > &900);
        for w in WILD_WIFI_RTT_MS.windows(2) {
            assert!(w[0] < w[1], "runs must be sorted by WiFi RTT");
        }
    }
}
