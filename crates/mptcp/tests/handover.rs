//! Path-failure (handover) scenarios: a path dies mid-transfer, its
//! unacknowledged data is reinjected on the survivors, and service resumes
//! when the path returns — the WiFi↔LTE mobility story the paper's
//! introduction motivates.

use ecf_core::SchedulerKind;
use mptcp::{Api, Application, ConnSpec, RecorderConfig, Testbed, TestbedConfig};
use scenario::Scenario;
use simnet::{PathConfig, Time};

struct OneShot {
    bytes: u64,
    done: Option<Time>,
}

impl Application for OneShot {
    fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
        api.request(0, self.bytes);
    }
    fn on_response_complete(&mut self, now: Time, _c: usize, _r: u64, _a: &mut Api<'_>) {
        self.done = Some(now);
    }
}

fn testbed(dynamics: Scenario, kind: SchedulerKind) -> TestbedConfig {
    TestbedConfig {
        paths: vec![PathConfig::wifi(4.0), PathConfig::lte(4.0)],
        conns: vec![ConnSpec::new(kind, vec![0, 1])],
        seed: 3,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: dynamics,
        telemetry: Default::default(),
    }
}

#[test]
#[should_panic(expected = "events[0]: \"path\" 7 is not one of the run's 2 paths")]
fn a_scenario_path_outside_the_config_is_refused_before_the_run() {
    let outage = Scenario::new().outage(7, Time::from_secs(1), Time::from_secs(2));
    Testbed::new(testbed(outage, SchedulerKind::Ecf), OneShot { bytes: 1024, done: None });
}

#[test]
fn transfer_survives_losing_one_path() {
    // WiFi dies 500 ms in and never returns: the 4 MB transfer must finish
    // over LTE alone, with the stranded WiFi data reinjected.
    for kind in SchedulerKind::paper_set() {
        let cfg = testbed(Scenario::new().path_down(Time::from_millis(500), 0), kind);
        let mut tb = Testbed::new(cfg, OneShot { bytes: 4 * 1024 * 1024, done: None });
        tb.run_until(Time::from_secs(120));
        let done = tb
            .app()
            .done
            .unwrap_or_else(|| panic!("{}: transfer must survive path death", kind.label()));
        // LTE-alone floor: 4 MB over 4 Mbps ≈ 8.4 s (+ recovery overhead).
        assert!(done.as_secs_f64() < 60.0, "{}: took {done} after handover", kind.label());
        // The stranded data really was reinjected.
        let reinjections = tb.world().sender(0).subflows[1].stats().reinjections;
        assert!(reinjections > 0, "{}: no reinjection after path death", kind.label());
    }
}

#[test]
fn dead_path_is_not_scheduled() {
    let cfg = testbed(Scenario::new().path_down(Time::from_millis(200), 0), SchedulerKind::Ecf);
    let mut tb = Testbed::new(cfg, OneShot { bytes: 2 * 1024 * 1024, done: None });
    tb.run_until(Time::from_secs(60));
    assert!(tb.app().done.is_some());
    // Nothing arrives over WiFi after the cutoff: its delivered count stays
    // whatever made it through the first 200 ms.
    let wifi_sent = tb.world().sender(0).subflows[0].stats().segs_sent;
    let lte_sent = tb.world().sender(0).subflows[1].stats().segs_sent;
    assert!(
        lte_sent > wifi_sent * 5,
        "LTE must carry the load after WiFi death ({wifi_sent} vs {lte_sent})"
    );
}

#[test]
fn path_recovery_restores_aggregation() {
    // WiFi blinks off between t=1 s and t=6 s; with a long transfer the
    // recovered path must be used again afterwards.
    let cfg = testbed(
        Scenario::new().outage(0, Time::from_secs(1), Time::from_secs(6)),
        SchedulerKind::Default,
    );
    let mut tb = Testbed::new(cfg, OneShot { bytes: 8 * 1024 * 1024, done: None });
    tb.run_until(Time::from_millis(5_900));
    let wifi_before = tb.world().sender(0).subflows[0].stats().segs_sent;
    tb.run_until(Time::from_secs(120));
    assert!(tb.app().done.is_some(), "transfer finishes after recovery");
    let wifi_after = tb.world().sender(0).subflows[0].stats().segs_sent;
    assert!(
        wifi_after > wifi_before + 50,
        "recovered WiFi must be re-used ({wifi_before} -> {wifi_after})"
    );
}

#[test]
fn total_outage_stalls_then_recovers() {
    // Both paths down for 3 s: nothing delivers during the blackout, the
    // transfer still completes afterwards.
    let cfg = testbed(
        Scenario::new().outage(0, Time::from_secs(1), Time::from_secs(4)).outage(
            1,
            Time::from_secs(1),
            Time::from_secs(4),
        ),
        SchedulerKind::Ecf,
    );
    let mut tb = Testbed::new(cfg, OneShot { bytes: 4 * 1024 * 1024, done: None });
    tb.run_until(Time::from_millis(3_900));
    let mid = tb.world().receiver(0).meta_next();
    tb.run_until(Time::from_millis(3_990));
    // Blackout: no progress at the tail of the outage window.
    assert_eq!(tb.world().receiver(0).meta_next(), mid);
    tb.run_until(Time::from_secs(120));
    assert!(tb.app().done.is_some(), "transfer must finish after the blackout");
}
