//! Golden-digest regression tests for the multipath-QUIC testbed, plus the
//! cold==warm byte-identity check for the `quic_web` experiment matrix.
//!
//! The pinned digests are deliberately kept **out** of
//! [`experiments::expmatrix::ENGINE_CONTRACT`]: that contract is folded
//! into every matrix cache key, and the quic model is a *consumer* of the
//! engine, not part of it — re-tuning the quic transport must not
//! invalidate every cached MPTCP streaming cell. The quic digests live
//! here instead, pinned with the same regeneration workflow
//! (`cargo test -p experiments --test quic_golden -- --nocapture`).

use ecf_core::SchedulerKind;
use experiments::expmatrix::{self, MatrixOptions, Spec};
use experiments::{run_quic_web, Effort, OpenAllApp};
use quic::{QuicTestbed, QuicTestbedConfig};
use simnet::Time;
use testkit::digest::Fnv1a;
use webload::PageModel;

/// Expected digests of the quic browse run at 0.3/8.6 Mbps with ECF —
/// the heterogeneous-path shape every other golden uses.
const QUIC_WEB_GOLDEN: [(u64, u64); 3] = [
    (1, 0xb7f9_ea63_e85e_1127),
    (2, 0x8c81_a219_39d4_ec30),
    (2014, 0x9de2_0bea_5f14_b9b5),
];

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

fn golden(seed: u64) -> u64 {
    QUIC_WEB_GOLDEN
        .iter()
        .find(|(s, _)| *s == seed)
        .unwrap_or_else(|| panic!("no quic_web golden for seed {seed}"))
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

/// The `quic_web` matrix spec must be byte-identical between a cold run
/// (every cell executed) and a warm run (every cell from cache).
#[test]
fn quic_web_matrix_cold_equals_warm() {
    let dir = std::env::temp_dir()
        .join(format!("expmatrix-quicweb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("specs/quic_web.json");
    let spec = Spec::from_file(spec_path).unwrap();
    let mut opts = MatrixOptions::new(&dir);
    opts.effort = Effort::Quick;

    let cold = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(cold.executed, cold.cells, "cold run must execute everything");
    assert_eq!(cold.hits, 0);

    let warm = expmatrix::run_matrix(&spec, &opts).unwrap();
    assert_eq!(warm.executed, 0, "warm run must execute nothing");
    assert_eq!(warm.hits, warm.cells, "warm run must be 100% hits");
    assert_eq!(warm.report, cold.report, "cold and warm output must be byte-identical");
    assert!(cold.report.contains("quic_plt_s"), "report must carry the comparison");

    let _ = std::fs::remove_dir_all(&dir);
}
