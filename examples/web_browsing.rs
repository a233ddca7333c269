//! Web browsing over MPTCP: load a CNN-like 107-object page over six
//! parallel persistent connections (the paper's §5.5 setup) and compare
//! object completion times and reordering per scheduler.
//!
//! ```text
//! cargo run --release --example web_browsing
//! ```

use metrics::Cdf;
use mptcp_ecf::prelude::*;

fn main() {
    let page = PageModel::cnn_like(2014);
    println!(
        "Loading a {}-object, {:.1} MB page over 1.0 Mbps WiFi + 10.0 Mbps LTE\n",
        page.object_sizes.len(),
        page.total_bytes() as f64 / 1e6
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "scheduler", "load_time", "mean_obj", "p99_obj", "mean_ooo_ms", "p99_ooo_ms"
    );

    for kind in SchedulerKind::paper_set() {
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
        let mut tb = Testbed::new(cfg, BrowserApp::new(page.clone(), 6));
        tb.run_until(Time::from_secs(600));
        assert!(tb.app().done(), "page load did not finish");

        let completions = Cdf::from_samples(tb.app().completion_times_secs());
        let ooo = Cdf::from_samples(tb.world_mut().recorder.take_ooo_secs().to_vec());
        println!(
            "{:>10} {:>8.2} s {:>8.3} s {:>8.3} s {:>12.1} {:>12.1}",
            kind.label(),
            tb.app().page_load_time.expect("done").as_secs_f64(),
            completions.mean(),
            completions.quantile(0.99),
            ooo.mean() * 1e3,
            ooo.quantile(0.99) * 1e3,
        );
    }

    println!(
        "\nThe paper's Fig 20/21 shape: ECF completes objects sooner and with\n\
         less reordering than the default scheduler once paths are heterogeneous."
    );
}
