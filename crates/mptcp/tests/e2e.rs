//! End-to-end tests of the MPTCP testbed: full transfers over simulated
//! WiFi+LTE paths, exercising every scheduler, loss recovery, determinism
//! and conservation invariants.

use ecf_core::SchedulerKind;
use mptcp::{Api, Application, ConnConfig, ConnSpec, Testbed, TestbedConfig, Transport};
use scenario::{LossModel, Scenario};
use simnet::{PathConfig, Time};
use testkit::digest::Fnv1a;

use mptcp::RecorderConfig;

/// Digest everything a run recorded — event count, request lifecycles with
/// their per-subflow arrival vectors, the OOO-delay pool and per-subflow
/// send counters — so the 1- and 4-subflow shapes are pinned bit for bit,
/// not just by shape assertions (the goldens only run two subflows).
fn recorder_digest<A: Application>(tb: &Testbed<A>) -> u64 {
    let mut d = Fnv1a::new();
    d.write_u64(tb.events_processed());
    let w = tb.world();
    for r in &w.recorder.requests {
        d.write_u64(r.conn as u64);
        d.write_u64(r.bytes);
        d.write_u64(u64::from(r.segs));
        d.write_u64(r.first_dsn);
        d.write_u64(r.last_dsn);
        d.write_u64(r.issued.as_nanos());
        d.write_u64(r.server_arrival.map_or(u64::MAX, |t| t.as_nanos()));
        d.write_u64(r.completed.map_or(u64::MAX, |t| t.as_nanos()));
        d.write_u64(r.last_arrival_per_sub.len() as u64);
        for a in &r.last_arrival_per_sub {
            d.write_u64(a.map_or(u64::MAX, |t| t.as_nanos()));
        }
        d.write_u64(r.arrivals_per_sub.len() as u64);
        for &n in &r.arrivals_per_sub {
            d.write_u64(n);
        }
    }
    d.write_u64(w.recorder.ooo_delays_us.len() as u64);
    for &us in &w.recorder.ooo_delays_us {
        d.write_u64(us);
    }
    for c in 0..w.conn_count() {
        for sf in &w.sender(c).subflows {
            d.write_u64(sf.stats().segs_sent);
            d.write_u64(sf.stats().retransmits);
        }
    }
    d.finish()
}

/// Downloads a fixed list of object sizes sequentially on connection 0.
struct SequentialDownloads {
    sizes: Vec<u64>,
    next: usize,
    completed: Vec<u64>,
}

impl SequentialDownloads {
    fn new(sizes: Vec<u64>) -> Self {
        SequentialDownloads { sizes, next: 0, completed: Vec::new() }
    }
    fn kick(&mut self, api: &mut Api<'_>) {
        if self.next < self.sizes.len() {
            api.request(0, self.sizes[self.next]);
            self.next += 1;
        }
    }
}

impl Application for SequentialDownloads {
    fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
        self.kick(api);
    }
    fn on_response_complete(&mut self, _now: Time, _c: usize, req: u64, api: &mut Api<'_>) {
        self.completed.push(req);
        self.kick(api);
    }
}

fn run_download(
    wifi: f64,
    lte: f64,
    kind: SchedulerKind,
    bytes: u64,
    seed: u64,
) -> (f64, Testbed<SequentialDownloads>) {
    let cfg = TestbedConfig::wifi_lte(wifi, lte, kind, seed);
    let mut tb = Testbed::new(cfg, SequentialDownloads::new(vec![bytes]));
    tb.run_until(Time::from_secs(120));
    let t = tb.world().recorder.requests[0]
        .completion_time()
        .expect("download completes")
        .as_secs_f64();
    (t, tb)
}

#[test]
fn every_scheduler_completes_a_download() {
    for kind in SchedulerKind::paper_set() {
        let (t, tb) = run_download(2.0, 8.0, kind, 512 * 1024, 3);
        assert!(t < 10.0, "{} took {t}s", kind.label());
        assert_eq!(tb.app().completed, vec![0]);
        // Conservation: receiver delivered exactly the written segments.
        let w = tb.world();
        assert_eq!(w.receiver(0).meta_next(), w.sender(0).next_dsn());
        assert!(w.all_drained());
    }
}

#[test]
fn throughput_bounded_by_aggregate_bandwidth() {
    // A 2 MB transfer over 1+2 Mbps cannot beat 3 Mbps aggregate.
    let bytes = 2 * 1024 * 1024;
    let (t, _) = run_download(1.0, 2.0, SchedulerKind::Ecf, bytes, 5);
    let mbps = bytes as f64 * 8.0 / t / 1e6;
    assert!(mbps <= 3.0, "impossible throughput {mbps}");
    // And a sane scheduler should realize a decent fraction of it.
    assert!(mbps > 1.5, "only {mbps} Mbps of 3 available");
}

#[test]
fn single_path_baseline_matches_link_rate() {
    let cfg = TestbedConfig {
        paths: vec![PathConfig::wifi(4.0)],
        conns: vec![ConnSpec {
            cfg: ConnConfig::default(),
            scheduler: SchedulerKind::SinglePath(0),
            custom_scheduler: None,
            subflow_paths: vec![0],
        }],
        seed: 1,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: Scenario::default(),
        telemetry: Default::default(),
    };
    let bytes = 4 * 1024 * 1024;
    let mut tb = Testbed::new(cfg, SequentialDownloads::new(vec![bytes]));
    tb.run_until(Time::from_secs(60));
    let t = tb.world().recorder.requests[0].completion_time().unwrap().as_secs_f64();
    let mbps = bytes as f64 * 8.0 / t / 1e6;
    // Within (slow start + header overhead) of the 4 Mbps shaped rate.
    assert!((2.8..=4.0).contains(&mbps), "got {mbps} Mbps");
    // Pinned on the commit before per-subflow state moved inline.
    assert_eq!(recorder_digest(&tb), 0xb194_7f6d_04d9_6034, "1-subflow run moved");
}

#[test]
fn deterministic_given_seed() {
    let (t1, tb1) = run_download(1.0, 8.0, SchedulerKind::Ecf, 1024 * 1024, 42);
    let (t2, tb2) = run_download(1.0, 8.0, SchedulerKind::Ecf, 1024 * 1024, 42);
    assert_eq!(t1, t2);
    assert_eq!(tb1.world().recorder.ooo_delays_us, tb2.world().recorder.ooo_delays_us);
    let (t3, _) = run_download(1.0, 8.0, SchedulerKind::Ecf, 1024 * 1024, 43);
    assert_ne!(t1, t3, "different seeds should perturb jitter");
}

#[test]
fn survives_random_loss() {
    let cfg = TestbedConfig {
        paths: vec![PathConfig::wifi(2.0), PathConfig::lte(8.0)],
        conns: vec![ConnSpec {
            cfg: ConnConfig::default(),
            scheduler: SchedulerKind::Default,
            custom_scheduler: None,
            subflow_paths: vec![0, 1],
        }],
        seed: 7,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: Scenario::new().loss(Time::ZERO, 0, LossModel::Bernoulli(0.02)).loss(
            Time::ZERO,
            1,
            LossModel::Bernoulli(0.02),
        ),
        telemetry: Default::default(),
    };
    let mut tb = Testbed::new(cfg, SequentialDownloads::new(vec![1024 * 1024]));
    tb.run_until(Time::from_secs(120));
    assert_eq!(tb.app().completed.len(), 1, "transfer must survive 2% loss");
    let w = tb.world();
    let retx: u64 = (0..2).map(|s| w.sender(0).subflows[s].stats().retransmits).sum();
    assert!(retx > 0, "2% loss must force retransmissions");
}

#[test]
fn sequential_downloads_complete_in_order() {
    let cfg = TestbedConfig::wifi_lte(2.0, 4.0, SchedulerKind::Ecf, 9);
    let sizes = vec![64 * 1024, 256 * 1024, 128 * 1024, 512 * 1024];
    let mut tb = Testbed::new(cfg, SequentialDownloads::new(sizes));
    tb.run_until(Time::from_secs(60));
    assert_eq!(tb.app().completed, vec![0, 1, 2, 3]);
    // Completion times are non-decreasing in issue order.
    let times: Vec<_> = tb.world().recorder.requests.iter().map(|r| r.completed.unwrap()).collect();
    for w in times.windows(2) {
        assert!(w[0] <= w[1]);
    }
}

#[test]
fn four_subflows_two_per_interface() {
    // Fig 15 topology: two subflows per interface, each shaped to half.
    let cfg = TestbedConfig {
        paths: vec![
            PathConfig::wifi(0.15),
            PathConfig::wifi(0.15),
            PathConfig::lte(4.3),
            PathConfig::lte(4.3),
        ],
        conns: vec![ConnSpec {
            cfg: ConnConfig::default(),
            scheduler: SchedulerKind::Ecf,
            custom_scheduler: None,
            subflow_paths: vec![0, 1, 2, 3],
        }],
        seed: 11,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: Scenario::default(),
        telemetry: Default::default(),
    };
    let mut tb = Testbed::new(cfg, SequentialDownloads::new(vec![1024 * 1024]));
    tb.run_until(Time::from_secs(60));
    assert_eq!(tb.app().completed.len(), 1);
    // The fast subflows must carry the bulk of the traffic under ECF.
    let w = tb.world();
    let sent: Vec<u64> = (0..4).map(|s| w.sender(0).subflows[s].stats().segs_sent).collect();
    let slow: u64 = sent[0] + sent[1];
    let fast: u64 = sent[2] + sent[3];
    assert!(fast > slow * 3, "fast {fast} vs slow {slow}");
    // Pinned on the commit before per-subflow state moved inline.
    assert_eq!(recorder_digest(&tb), 0xcdcc_821a_e430_a67e, "4-subflow run moved");
}

#[test]
fn parallel_connections_share_paths() {
    // Six connections like a browser; all complete, paths are shared.
    let conns = (0..6)
        .map(|_| ConnSpec {
            cfg: ConnConfig::default(),
            scheduler: SchedulerKind::Ecf,
            custom_scheduler: None,
            subflow_paths: vec![0, 1],
        })
        .collect();
    let cfg = TestbedConfig {
        paths: vec![PathConfig::wifi(2.0), PathConfig::lte(8.0)],
        conns,
        seed: 13,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: Scenario::default(),
        telemetry: Default::default(),
    };

    /// Issues one download per connection at start.
    struct FanOut {
        done: usize,
    }
    impl Application for FanOut {
        fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
            for c in 0..6 {
                api.request(c, 200 * 1024);
            }
        }
        fn on_response_complete(&mut self, _n: Time, _c: usize, _r: u64, _a: &mut Api<'_>) {
            self.done += 1;
        }
    }

    let mut tb = Testbed::new(cfg, FanOut { done: 0 });
    tb.run_until(Time::from_secs(60));
    assert_eq!(tb.app().done, 6);
}

#[test]
fn rate_change_mid_transfer_slows_progress() {
    // Start at 8 Mbps on both; collapse to 0.3 Mbps at t=1s.
    let mk = |with_drop: bool| {
        let mut cfg = TestbedConfig::wifi_lte(8.0, 8.0, SchedulerKind::Default, 21);
        if with_drop {
            cfg.scenario = Scenario::new().rate_bps(Time::from_secs(1), 0, 300_000).rate_bps(
                Time::from_secs(1),
                1,
                300_000,
            );
        }
        let mut tb = Testbed::new(cfg, SequentialDownloads::new(vec![4 * 1024 * 1024]));
        tb.run_until(Time::from_secs(300));
        tb.world().recorder.requests[0].completion_time().unwrap().as_secs_f64()
    };
    let fast = mk(false);
    let slow = mk(true);
    assert!(slow > fast * 2.0, "rate drop must slow the transfer: {fast} vs {slow}");
}

#[test]
fn ooo_delays_recorded_under_heterogeneity() {
    let (_, tb) = run_download(0.3, 8.6, SchedulerKind::Default, 1024 * 1024, 2);
    let rec = &tb.world().recorder;
    assert!(!rec.ooo_delays_us.is_empty());
    // With a 0.3 vs 8.6 Mbps split some segments must see real reordering.
    let max_us = *rec.ooo_delays_us.iter().max().unwrap();
    assert!(max_us > 50_000, "max ooo delay only {max_us} us");
}
