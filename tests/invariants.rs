//! Whole-stack invariants, including property-based sweeps over random
//! configurations: whatever the bandwidths, scheduler and workload, data is
//! conserved, delivery is in order, and runs are reproducible.
//!
//! Run under `testkit::prop`; replay a failure with `TESTKIT_SEED=<n>`.

use mptcp::harness::{self, World};
use mptcp::{Drive, Mptcp, ReqId, TransportApi, TransportApp};
use mptcp_ecf::prelude::*;
use quic::{Quic, QuicTestbedConfig};
use testkit::prop::{check, vec_of};

/// Fixed list of downloads, one at a time, on either transport.
struct Fetch {
    sizes: Vec<u64>,
    next: usize,
    done: usize,
}

impl Fetch {
    fn new(sizes: Vec<u64>) -> Self {
        Fetch { sizes, next: 0, done: 0 }
    }

    fn fetch_next(&mut self, api: &mut dyn TransportApi) {
        if let Some(&bytes) = self.sizes.get(self.next) {
            api.request(0, bytes);
            self.next += 1;
        }
    }
}

impl Application for Fetch {
    fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
        self.fetch_next(api);
    }
    fn on_response_complete(&mut self, _n: Time, _c: usize, _r: ReqId, api: &mut Api<'_>) {
        self.done += 1;
        self.fetch_next(api);
    }
}

impl TransportApp for Fetch {
    fn on_start(&mut self, _now: Time, api: &mut dyn TransportApi) {
        self.fetch_next(api);
    }
    fn on_response_complete(&mut self, _n: Time, _c: usize, _r: ReqId, api: &mut dyn TransportApi) {
        self.done += 1;
        self.fetch_next(api);
    }
}

/// A transport the generic properties below run over.
trait Subject: Drive<Fetch> {
    /// The two-path WiFi + LTE testbed config.
    fn wifi_lte(wifi: f64, lte: f64, kind: SchedulerKind, seed: u64) -> Self::Config;
    /// The receiver delivered exactly what the sender wrote.
    fn assert_conserved(world: &World<Self>);
    /// The config's scenario and telemetry sink.
    fn dynamics(cfg: &mut Self::Config) -> (&mut Scenario, &mut TelemetryHandle);
}

impl Subject for Mptcp {
    fn wifi_lte(wifi: f64, lte: f64, kind: SchedulerKind, seed: u64) -> TestbedConfig {
        TestbedConfig::wifi_lte(wifi, lte, kind, seed)
    }
    fn assert_conserved(world: &World<Self>) {
        assert_eq!(world.receiver(0).meta_next(), world.sender(0).next_dsn());
        let delivered = world.receiver(0).stats().delivered_segs;
        assert_eq!(world.recorder.ooo_delays_us.len() as u64, delivered);
    }
    fn dynamics(cfg: &mut TestbedConfig) -> (&mut Scenario, &mut TelemetryHandle) {
        (&mut cfg.scenario, &mut cfg.telemetry)
    }
}

impl Subject for Quic {
    fn wifi_lte(wifi: f64, lte: f64, kind: SchedulerKind, seed: u64) -> QuicTestbedConfig {
        QuicTestbedConfig::wifi_lte(wifi, lte, kind, seed)
    }
    fn assert_conserved(world: &World<Self>) {
        assert_eq!(world.sender.pending_chunks(), 0);
        assert_eq!(world.sender.inflight_packets(), 0);
        assert_eq!(world.receiver.held_chunks(), 0);
    }
    fn dynamics(cfg: &mut QuicTestbedConfig) -> (&mut Scenario, &mut TelemetryHandle) {
        (&mut cfg.scenario, &mut cfg.telemetry)
    }
}

fn run<T: Subject>(
    wifi: f64,
    lte: f64,
    kind: SchedulerKind,
    sizes: Vec<u64>,
    seed: u64,
) -> harness::Testbed<T, Fetch> {
    run_cfg(T::wifi_lte(wifi, lte, kind, seed), sizes)
}

fn run_cfg<T: Subject>(cfg: T::Config, sizes: Vec<u64>) -> harness::Testbed<T, Fetch> {
    let n = sizes.len();
    let mut tb = harness::Testbed::new(cfg, Fetch::new(sizes));
    tb.run_until(Time::from_secs(600));
    assert_eq!(tb.app().done, n, "all downloads must finish");
    tb
}

fn conservation_and_order<T: Subject>() {
    check(
        12,
        (0usize..6, 0usize..6, 0usize..4, vec_of(1024u64..1_500_000, 1..4), 0u64..1000),
        |(wifi_idx, lte_idx, kind_idx, sizes, seed)| {
            let bw = [0.3, 0.7, 1.1, 1.7, 4.2, 8.6];
            let kind = SchedulerKind::paper_set()[kind_idx];
            let tb = run::<T>(bw[wifi_idx], bw[lte_idx], kind, sizes.clone(), seed);
            let world = tb.world();

            // Conservation: the receiver delivered exactly what was written.
            T::assert_conserved(world);
            assert!(world.all_drained());

            // Every request completed after it was issued, in issue order.
            let recs = &world.recorder.requests;
            assert_eq!(recs.len(), sizes.len());
            let mut last_completed = Time::ZERO;
            for r in recs {
                let completed = r.completed.expect("completed");
                assert!(completed > r.issued);
                assert!(completed >= last_completed);
                last_completed = completed;
            }

            // The recorder saw every written segment delivered exactly once.
            let written: u64 = recs.iter().map(|r| u64::from(r.segs)).sum();
            assert_eq!(world.recorder.ooo_delays_us.len() as u64, written);
        },
    );
}

#[test]
fn conservation_and_order_hold_for_any_config() {
    conservation_and_order::<Mptcp>();
    conservation_and_order::<Quic>();
}

fn reproducible<T: Subject>() {
    check(12, (0usize..4, 0u64..50), |(kind_idx, seed)| {
        let kind = SchedulerKind::paper_set()[kind_idx];
        let a = run::<T>(0.7, 4.2, kind, vec![300_000, 700_000], seed);
        let b = run::<T>(0.7, 4.2, kind, vec![300_000, 700_000], seed);
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(&a.world().recorder.ooo_delays_us, &b.world().recorder.ooo_delays_us);
        let t = |tb: &harness::Testbed<T, Fetch>| {
            tb.world().recorder.requests.last().unwrap().completed.unwrap()
        };
        assert_eq!(t(&a), t(&b));
    });
}

#[test]
fn runs_are_reproducible() {
    reproducible::<Mptcp>();
    reproducible::<Quic>();
}

/// An outage of path 1 reports one `SubflowDown` and one `SubflowUp` per
/// (connection, subflow on that path) — `pairs`, in connection order — and
/// the transition counter agrees with the event log.
fn outage_is_reported_per_subflow<T: Subject>(mut cfg: T::Config, pairs: &[(u32, u16)]) {
    let tel = TelemetryHandle::with_capacity(1 << 15);
    let (scenario, telemetry) = T::dynamics(&mut cfg);
    *scenario = Scenario::new().outage(1, Time::from_secs(1), Time::from_secs(4));
    *telemetry = tel.clone();
    drop(run_cfg::<T>(cfg, vec![2_000_000, 2_000_000]));
    assert_eq!(tel.overflow(), 0, "ring too small for the run");
    let seen: Vec<(bool, u32, u16)> = tel
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SubflowDown { conn, path } => Some((false, conn, path)),
            EventKind::SubflowUp { conn, path } => Some((true, conn, path)),
            _ => None,
        })
        .collect();
    let expected: Vec<(bool, u32, u16)> = [false, true]
        .into_iter()
        .flat_map(|up| pairs.iter().map(move |&(conn, sub)| (up, conn, sub)))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(tel.counter(Counter::SubflowTransitions), seen.len() as u64);
}

#[test]
fn outage_telemetry_is_the_same_on_both_transports() {
    // Two MPTCP connections, each with its second subflow on path 1.
    let mut cfg = Mptcp::wifi_lte(1.0, 8.0, SchedulerKind::Ecf, 3);
    cfg.conns.push(ConnSpec::new(SchedulerKind::Ecf, vec![0, 1]));
    outage_is_reported_per_subflow::<Mptcp>(cfg, &[(0, 1), (1, 1)]);
    let cfg = Quic::wifi_lte(1.0, 8.0, SchedulerKind::Ecf, 3);
    outage_is_reported_per_subflow::<Quic>(cfg, &[(0, 1)]);
}

/// The decision counters are live: read mid-run, with the testbed (and its
/// scheduler) still alive, they equal the decision events logged so far.
fn decision_counters_are_live<T: Subject>() {
    let tel = TelemetryHandle::with_capacity(1 << 15);
    let mut cfg = T::wifi_lte(0.3, 8.6, SchedulerKind::Ecf, 4);
    *T::dynamics(&mut cfg).1 = tel.clone();
    let mut tb = harness::Testbed::<T, _>::new(cfg, Fetch::new(vec![4_000_000]));
    tb.run_until(Time::from_secs(2));
    assert_eq!(tb.app().done, 0, "the download must still be running");
    assert_eq!(tel.overflow(), 0, "ring too small for the run");
    let (mut decisions, mut waits) = (0, 0);
    for e in tel.events() {
        if let EventKind::SchedDecision(d) = e.kind {
            decisions += 1;
            waits += u64::from(d.decision == Decision::Wait);
        }
    }
    assert!(decisions > 0);
    assert_eq!(tel.counter(Counter::Decisions), decisions);
    assert_eq!(tel.counter(Counter::WaitDecisions), waits);
    drop(tb);
}

#[test]
fn decision_counters_are_live_on_both_transports() {
    decision_counters_are_live::<Mptcp>();
    decision_counters_are_live::<Quic>();
}

/// `QueuePeakDepth` is a high-water mark: a handle that outlives several
/// testbeds (a traced sweep, the benchmark's traced run) reads the deepest
/// queue any of them saw, not the sum.
#[test]
fn queue_peak_depth_is_a_peak_across_testbeds() {
    let tel = TelemetryHandle::with_capacity(1 << 15);
    let mut cfg = Mptcp::wifi_lte(1.1, 4.2, SchedulerKind::Ecf, 5);
    cfg.telemetry = tel.clone();
    let a = run_cfg::<Mptcp>(cfg, vec![500_000]);
    let mut cfg = Quic::wifi_lte(1.1, 4.2, SchedulerKind::Ecf, 5);
    cfg.telemetry = tel.clone();
    let b = run_cfg::<Quic>(cfg, vec![500_000]);
    let (peak_a, peak_b) = (a.queue().peak_len() as u64, b.queue().peak_len() as u64);
    assert!(peak_a > 0 && peak_b > 0);
    drop((a, b));
    assert_eq!(tel.counter(Counter::QueuePeakDepth), peak_a.max(peak_b));
}

/// The wheel stores one event per pending slab node; both transports'
/// alphabets stay at the 16 bytes the `AppTimer` token alone requires.
#[test]
fn pending_event_footprint_is_pinned() {
    assert_eq!(std::mem::size_of::<mptcp::Event>(), 16);
    assert_eq!(std::mem::size_of::<quic::Event>(), 16);
}

#[test]
fn segment_accounting_balances_per_subflow() {
    let tb = run::<Mptcp>(1.1, 4.2, SchedulerKind::Ecf, vec![2_000_000], 9);
    let world = tb.world();
    let sent: u64 = (0..2).map(|s| world.sender(0).subflows[s].stats().segs_sent).sum();
    let delivered = world.receiver(0).stats().delivered_segs;
    let dups = world.receiver(0).stats().duplicate_segs;
    // Every sent segment was either delivered as new data, discarded as a
    // duplicate, or dropped on a link.
    let dropped: u64 = (0..2)
        .map(|p| {
            world.paths[p].fwd.stats().dropped_queue + world.paths[p].fwd.stats().dropped_random
        })
        .sum();
    assert_eq!(sent, delivered + dups + dropped, "segment ledger must balance");
}

#[test]
fn stats_snapshot_is_self_consistent() {
    let tb = run::<Mptcp>(0.3, 8.6, SchedulerKind::Default, vec![1_000_000], 2);
    let world = tb.world();
    for s in 0..2 {
        let sf = &world.sender(0).subflows[s];
        assert!(sf.stats().retransmits <= sf.stats().segs_sent);
        assert_eq!(sf.inflight_count(), 0, "drained run leaves nothing in flight");
    }
    // Receiver window fully restored once everything is consumed.
    assert_eq!(world.receiver(0).rwnd_free(), 2896);
}
