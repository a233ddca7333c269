//! Streaming through bandwidth churn: both interfaces change rate at random
//! exponentially-spaced instants (the paper's §5.3), and the schedulers race
//! the same scenario.
//!
//! ```text
//! cargo run --release --example variable_bandwidth [scenario_seed]
//! ```

use std::time::Duration;

use mptcp_ecf::prelude::*;

fn main() {
    let scenario: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(6);
    let rates = [0.3, 1.1, 1.7, 4.2, 8.6];
    let horizon = Time::from_secs(900);

    println!("Random-bandwidth scenario {scenario} (mean change interval 40 s)\n");

    for kind in [SchedulerKind::Default, SchedulerKind::Blest, SchedulerKind::Ecf] {
        let mut cfg = TestbedConfig::wifi_lte(1.7, 1.7, kind, scenario);
        // Both interfaces walk the §5.3 random-rate process, each under
        // its own seed, so every scheduler races the identical scenario.
        cfg.scenario = Scenario::new()
            .random_rates(0, scenario * 2, Duration::from_secs(40), &rates, horizon)
            .random_rates(1, scenario * 2 + 1, Duration::from_secs(40), &rates, horizon);

        let player = PlayerConfig { video_secs: 180.0, ..PlayerConfig::default() };
        let mut tb = Testbed::new(cfg, DashApp::new(player, 0));
        tb.run_until(horizon);

        let p = &tb.app().player;
        println!(
            "{:>8}: avg throughput {:5.2} Mbps, avg bitrate {:5.2} Mbps, {} chunks, {} stalls",
            kind.label(),
            p.avg_throughput_mbps(),
            p.avg_bitrate_mbps(),
            p.history.len(),
            p.rebuffer_events,
        );
    }

    println!(
        "\nThe paper's Fig 16 shape: ECF tops every scenario because it\n\
         re-exploits whichever path is currently fast without committing\n\
         chunk tails to the slow one."
    );
}
