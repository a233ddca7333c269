//! Property-based tests over the scheduler implementations: invariants that
//! must hold for *any* path state, not just the hand-picked unit cases.
//!
//! Inputs are generated by `testkit::prop`; a failing case prints a
//! `TESTKIT_SEED=<n>` replay handle (see DESIGN.md, "Hermetic test substrate").

use std::time::Duration;

use ecf_core::{
    Blest, Daps, Decision, Ecf, MinRtt, PathId, PathSnapshot, SchedInput, Scheduler, SchedulerKind,
};
use testkit::prop::{bools, check, vec_of, Gen};

/// Raw generated path state: (srtt_ms, dev_ms, cwnd, inflight, usable).
/// Kept primitive so shrinking stays effective; assembled into
/// [`PathSnapshot`]s inside each property.
type RawPath = (u64, u64, u32, u32, bool);

fn raw_paths() -> impl Gen<Value = Vec<RawPath>> {
    vec_of((1u64..2_000, 0u64..200, 1u32..500, 0u32..600, bools()), 1..5)
}

fn build_paths(raw: &[RawPath]) -> Vec<PathSnapshot> {
    raw.iter()
        .enumerate()
        .map(|(i, &(srtt_ms, dev_ms, cwnd, inflight, usable))| PathSnapshot {
            id: PathId(i),
            srtt: Duration::from_millis(srtt_ms),
            rtt_dev: Duration::from_millis(dev_ms),
            cwnd,
            inflight,
            usable,
        })
        .collect()
}

/// Every scheduler must respect the two structural invariants:
/// a `Send` targets a usable path with window space, and `Blocked` is
/// returned only when no path has space.
fn check_structural(sched: &mut dyn Scheduler, paths: &[PathSnapshot], k: u64, window: u64) {
    let input = SchedInput { paths, queued_pkts: k, send_window_free_pkts: window };
    match sched.select(&input) {
        Decision::Send(id) => {
            let p = paths.iter().find(|p| p.id == id).expect("known path");
            assert!(p.has_space(), "{}: sent on full/unusable path {id:?}", sched.name());
        }
        Decision::Blocked => {
            assert!(
                !paths.iter().any(|p| p.has_space()),
                "{}: blocked despite available space",
                sched.name()
            );
        }
        Decision::Wait => {
            // Waiting is only meaningful if some path could have sent.
            assert!(
                paths.iter().any(|p| p.has_space()),
                "{}: waited with nothing available (should be Blocked)",
                sched.name()
            );
        }
    }
}

#[test]
fn structural_invariants_all_schedulers() {
    check(
        512,
        (raw_paths(), 0u64..100_000, 0u64..1_000_000, 1usize..20),
        |(raw, k, window, rounds)| {
            let paths = build_paths(&raw);
            for kind in [
                SchedulerKind::Default,
                SchedulerKind::Ecf,
                SchedulerKind::Daps,
                SchedulerKind::Blest,
                SchedulerKind::Sttf,
            ] {
                let mut s = kind.build();
                // Repeat with internal state carried over: invariants must hold
                // on every call, not just the first.
                for _ in 0..rounds {
                    check_structural(s.as_mut(), &paths, k, window);
                }
            }
        },
    );
}

#[test]
fn minrtt_picks_global_min_available() {
    check(512, raw_paths(), |raw| {
        let paths = build_paths(&raw);
        let input = SchedInput { paths: &paths, queued_pkts: 10, send_window_free_pkts: 1 << 20 };
        match MinRtt::new().select(&input) {
            Decision::Send(id) => {
                let chosen = paths.iter().find(|p| p.id == id).unwrap();
                for p in paths.iter().filter(|p| p.has_space()) {
                    assert!(chosen.srtt <= p.srtt);
                }
            }
            Decision::Blocked => {
                assert!(!paths.iter().any(|p| p.has_space()));
            }
            Decision::Wait => panic!("minRTT never waits"),
        }
    });
}

#[test]
fn ecf_uses_fast_path_whenever_it_has_space() {
    check(512, (raw_paths(), 1u64..10_000), |(raw, k)| {
        let paths = build_paths(&raw);
        let input = SchedInput { paths: &paths, queued_pkts: k, send_window_free_pkts: 1 << 20 };
        let fastest_free = paths
            .iter()
            .filter(|p| p.usable)
            .min_by_key(|p| p.srtt)
            .filter(|p| p.has_space())
            .map(|p| p.id);
        if let Some(fid) = fastest_free {
            assert_eq!(Ecf::new().select(&input), Decision::Send(fid));
        }
    });
}

#[test]
fn ecf_never_waits_with_huge_backlog() {
    check(512, raw_paths(), |raw| {
        let paths = build_paths(&raw);
        // With effectively infinite queued data the first inequality cannot
        // hold, so ECF must use the extra bandwidth (or be Blocked).
        let input =
            SchedInput { paths: &paths, queued_pkts: u64::MAX / 2, send_window_free_pkts: 1 << 20 };
        assert_ne!(Ecf::new().select(&input), Decision::Wait);
    });
}

#[test]
fn blest_reduces_to_minrtt_with_huge_window() {
    check(512, (raw_paths(), 1u64..10_000), |(raw, k)| {
        let paths = build_paths(&raw);
        // With an unbounded send window BLEST's blocking prediction never
        // fires, so its decision coincides with the default scheduler's
        // *choice of path class*: fastest overall if free, else spill.
        let input = SchedInput { paths: &paths, queued_pkts: k, send_window_free_pkts: u64::MAX };
        let blest = Blest::new().select(&input);
        assert_ne!(blest, Decision::Wait);
    });
}

#[test]
fn daps_split_tracks_inverse_rtt() {
    check(512, (5u64..50, 2u64..10), |(rtt_a, ratio)| {
        // Two always-available paths with RTT ratio r: the long-run share of
        // the slower path must approach 1/(1+r).
        let rtt_b = rtt_a * ratio;
        let mk = |id: usize, rtt: u64| PathSnapshot {
            id: PathId(id),
            srtt: Duration::from_millis(rtt),
            rtt_dev: Duration::ZERO,
            cwnd: u32::MAX,
            inflight: 0,
            usable: true,
        };
        let paths = [mk(0, rtt_a), mk(1, rtt_b)];
        let input = SchedInput { paths: &paths, queued_pkts: 10, send_window_free_pkts: 1 << 30 };
        let mut daps = Daps::new();
        let n = 5_000;
        let mut slow = 0u64;
        for _ in 0..n {
            if let Decision::Send(PathId(1)) = daps.select(&input) {
                slow += 1;
            }
        }
        let expected = 1.0 / (1.0 + ratio as f64);
        let got = slow as f64 / n as f64;
        assert!((got - expected).abs() < 0.02, "got {got}, expected {expected}");
    });
}

#[test]
fn decisions_are_deterministic() {
    check(512, (raw_paths(), 0u64..10_000), |(raw, k)| {
        let paths = build_paths(&raw);
        // Same state + same input → same decision for every scheduler.
        for kind in SchedulerKind::paper_set() {
            let input = SchedInput { paths: &paths, queued_pkts: k, send_window_free_pkts: 4096 };
            let a = kind.build().select(&input);
            let b = kind.build().select(&input);
            assert_eq!(a, b, "{} not deterministic", kind.label());
        }
    });
}
