//! Plugging a custom scheduler into the stack: the `Scheduler` trait is the
//! extension point — implement it, hand a boxed instance to `ConnSpec`, and
//! the whole testbed (TCP machinery, reordering, workloads, metrics) drives
//! it like the built-ins.
//!
//! The toy policy here is "sticky fastest": pin to the lowest-RTT path and
//! only spill when it has been full for `patience` consecutive decisions —
//! a naive cousin of ECF's completion-time reasoning.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use mptcp_ecf::prelude::*;

/// Prefer the fastest path; tolerate `patience` full-window polls before
/// spilling to the next-fastest.
struct StickyFastest {
    patience: u32,
    consecutive_full: u32,
}

impl Scheduler for StickyFastest {
    fn name(&self) -> &'static str {
        "sticky"
    }

    // The one decision method: the verdict plus why it was reached. A
    // policy with no finer rule to name reports `Why::Unspecified`.
    fn select_explained(&mut self, input: &SchedInput<'_>) -> (Decision, Why) {
        let Some(fastest) = input.fastest() else {
            return (Decision::Blocked, Why::Unspecified);
        };
        if fastest.has_space() {
            self.consecutive_full = 0;
            return (Decision::Send(fastest.id), Why::Unspecified);
        }
        self.consecutive_full += 1;
        if self.consecutive_full <= self.patience {
            return (Decision::Wait, Why::Unspecified);
        }
        match input.fastest_available() {
            Some(p) => (Decision::Send(p.id), Why::Unspecified),
            None => (Decision::Blocked, Why::Unspecified),
        }
    }

    fn reset(&mut self) {
        self.consecutive_full = 0;
    }
}

/// One 2 MB download, completion recorded.
struct OneShot(Option<Time>);
impl Application for OneShot {
    fn on_start(&mut self, _now: Time, api: &mut Api<'_>) {
        api.request(0, 2 * 1024 * 1024);
    }
    fn on_response_complete(&mut self, now: Time, _c: usize, _r: u64, _a: &mut Api<'_>) {
        self.0 = Some(now);
    }
}

fn run(spec: ConnSpec, label: &str) {
    // An enabled handle records every scheduler verdict with its inputs and
    // provenance; the default (off) handle would make all of this free.
    let tel = TelemetryHandle::with_capacity(1 << 16);
    let cfg = TestbedConfig {
        paths: vec![PathConfig::wifi(0.3), PathConfig::lte(8.6)],
        conns: vec![spec],
        seed: 5,
        path_seeds: None,
        recorder: RecorderConfig::default(),
        scenario: Scenario::default(),
        telemetry: tel.clone(),
    };
    let mut tb = Testbed::new(cfg, OneShot(None));
    tb.run_until(Time::from_secs(120));
    let t = tb.app().0.expect("download finishes").as_secs_f64();
    let split: Vec<u64> =
        (0..2).map(|s| tb.world().sender(0).subflows[s].stats().segs_sent).collect();
    println!(
        "{label:>10}: {t:5.2} s   wifi/lte segments = {}/{}   decisions = {} ({} waits)",
        split[0],
        split[1],
        tel.counter(Counter::Decisions),
        tel.counter(Counter::WaitDecisions),
    );
    // A one-liner per decision, straight from the trace. Built-ins report
    // *why* (which rule fired); the custom scheduler above names no rule, so
    // its decisions show up as "unspecified".
    for ev in tel.events().iter().filter(|e| e.label() == "sched_decision").take(3) {
        if let EventKind::SchedDecision(d) = ev.kind {
            let verdict = match d.decision {
                Decision::Send(p) => format!("send path {}", p.0),
                Decision::Wait => "wait".into(),
                Decision::Blocked => "blocked".into(),
            };
            println!(
                "            t={:7.3}s  {:<14} why={:<20} k={:<3} paths={:?}",
                ev.t_ns as f64 / 1e9,
                verdict,
                d.why.label(),
                d.queued_pkts,
                d.paths[..d.n_paths as usize]
                    .iter()
                    .map(|p| format!("{}ms cwnd {}/{}", p.srtt_us / 1000, p.inflight, p.cwnd))
                    .collect::<Vec<_>>(),
            );
        }
    }
}

fn main() {
    println!("2 MB download over 0.3 Mbps WiFi + 8.6 Mbps LTE\n");
    run(
        ConnSpec::with_custom(
            Box::new(StickyFastest { patience: 4, consecutive_full: 0 }),
            vec![0, 1],
        ),
        "sticky",
    );
    for kind in [SchedulerKind::Default, SchedulerKind::Ecf] {
        run(ConnSpec::new(kind, vec![0, 1]), kind.label());
    }
    println!(
        "\nAnything implementing `ecf_core::Scheduler` slots in the same way —\n\
         the trait only sees per-path snapshots and the queued backlog."
    );
}
