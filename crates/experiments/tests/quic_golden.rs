//! Golden-digest regression tests for the multipath-QUIC testbed.
//!
//! The expected values live in [`experiments::expmatrix::QUIC_CONTRACT`],
//! which the experiment matrix folds into the cache key of every cell that
//! runs the quic transport — so the change that fails these tests also
//! invalidates those cached cells (and only those) once the constants are
//! regenerated with
//! `cargo test -p experiments --test quic_golden -- --nocapture`.

use ecf_core::SchedulerKind;
use experiments::expmatrix::QUIC_CONTRACT;
use experiments::{run_quic_web, OpenAllApp};
use quic::{QuicTestbed, QuicTestbedConfig};
use simnet::Time;
use telemetry::{Counter, TelemetryHandle};
use testkit::digest::Fnv1a;
use webload::PageModel;

/// Digest every deterministic observable of one quic page load: engine
/// event count, full request lifecycles (with per-path arrival stats), and
/// the pooled out-of-order delays.
fn quic_web_digest(seed: u64) -> u64 {
    digest(&run_quic_web(0.3, 8.6, SchedulerKind::Ecf, seed))
}

fn digest(tb: &QuicTestbed<OpenAllApp>) -> u64 {
    let mut d = Fnv1a::new();
    d.write_u64(tb.events_processed());
    let rec = &tb.world().recorder;
    for r in &rec.requests {
        d.write_u64(r.bytes);
        d.write_u64(r.issued.as_nanos());
        d.write_u64(r.server_arrival.map_or(u64::MAX, |t| t.as_nanos()));
        d.write_u64(r.completed.map_or(u64::MAX, |t| t.as_nanos()));
        for a in &r.last_arrival_per_sub {
            d.write_u64(a.map_or(u64::MAX, |t| t.as_nanos()));
        }
        for &n in &r.arrivals_per_sub {
            d.write_u64(n);
        }
    }
    for &us in &rec.ooo_delays_us {
        d.write_u64(us);
    }
    d.finish()
}

/// Expected digest of the quic browse run at 0.3/8.6 Mbps with ECF — the
/// heterogeneous-path shape every other golden uses.
fn golden(seed: u64) -> u64 {
    let name = format!("quic_web_seed_{seed}");
    QUIC_CONTRACT
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("QUIC_CONTRACT lacks {name}"))
        .1
}

#[test]
fn quic_web_seed_1_is_bit_identical() {
    let d = quic_web_digest(1);
    println!("quic_web seed 1 digest: {d:#018x}");
    assert_eq!(d, golden(1));
}

#[test]
fn quic_web_seed_2_is_bit_identical() {
    let d = quic_web_digest(2);
    println!("quic_web seed 2 digest: {d:#018x}");
    assert_eq!(d, golden(2));
}

#[test]
fn quic_web_seed_2014_is_bit_identical() {
    let d = quic_web_digest(2014);
    println!("quic_web seed 2014 digest: {d:#018x}");
    assert_eq!(d, golden(2014));
}

/// A testbed built on a queue recovered from a finished run (the shard
/// worker's reuse path, `into_queue` → `new_with_queue`) is the same
/// simulation as one on a fresh queue.
#[test]
fn quic_web_on_a_recycled_queue_is_bit_identical() {
    let used = run_quic_web(1.0, 5.0, SchedulerKind::Default, 9).into_queue();
    let cfg = QuicTestbedConfig::wifi_lte(0.3, 8.6, SchedulerKind::Ecf, 1);
    let app = OpenAllApp::new(&PageModel::cnn_like(2014));
    let mut tb = QuicTestbed::new_with_queue(cfg, app, used);
    tb.run_until(Time::from_secs(600));
    assert_eq!(digest(&tb), golden(1));
}

/// Telemetry observes a run without perturbing it: with an enabled sink
/// every decision is recorded, and the run is the untraced golden run.
#[test]
fn quic_web_with_telemetry_on_is_bit_identical() {
    let tel = TelemetryHandle::with_capacity(1 << 12);
    let mut cfg = QuicTestbedConfig::wifi_lte(0.3, 8.6, SchedulerKind::Ecf, 1);
    cfg.telemetry = tel.clone();
    let mut tb = QuicTestbed::new(cfg, OpenAllApp::new(&PageModel::cnn_like(2014)));
    tb.run_until(Time::from_secs(600));
    assert!(tel.counter(Counter::Decisions) > 0, "the sink saw no decision");
    assert_eq!(digest(&tb), golden(1));
}
