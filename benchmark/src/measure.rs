//! The untraced run of one workload, inside its own process: set-ups, one
//! untimed warm body, timed repetitions for `--seconds`, then the output
//! checks. Every end-to-end number comes from here.

use std::time::Instant;

use experiments::{run_sweep, SweepOptions};
use testkit::digest::hex16;

use crate::stats::{median, quartiles};
use crate::workloads::{
    body, setup, sharded_population, BodyOut, Inputs, Workload, SHARDED_CHECK_UNITS,
};

/// Set-ups timed per run (their median is `setup_s`).
pub const SETUP_REPS: usize = 9;

/// Result digests for seed 1, pinned when the benchmark was defined.
const EXPECTED: &str = include_str!("../expected.json");

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// One repetition of the quick-size body, no warm-up.
    pub quick: bool,
}

/// Everything an untraced run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Host seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds per timed body.
    pub wall_s: Vec<f64>,
    /// The first body's outputs; every later body must reproduce its digest.
    pub reference: BodyOut,
    /// Operations attempted across the timed bodies.
    pub attempted: u64,
    /// Operations that failed, plus one per failed output check.
    pub failed: u64,
    /// `VmHWM` of this process after set-up and the first body, MiB.
    pub peak_rss_mb: f64,
    /// One line per failed check (empty when the run is correct).
    pub problems: Vec<String>,
}

/// The pinned digest of `workload` for seed 1, if `expected.json` has one.
pub fn expected_digest(workload: Workload, quick: bool) -> Option<u64> {
    let doc = testkit::json::parse(EXPECTED).expect("expected.json parses");
    let hex = doc.get(if quick { "quick" } else { "full" })?.get(workload.name())?.as_str()?;
    testkit::digest::from_hex16(hex)
}

/// The seed `expected.json` pins.
pub const PINNED_SEED: u64 = 1;

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

/// One set-up: the inputs from the seed, then the quick-size body once so
/// code, allocator and caches are warm before anything is timed.
fn set_up(args: &Args) -> (Inputs, f64) {
    let started = Instant::now();
    let inputs = setup(args.workload, args.seed, args.quick);
    let warm =
        if args.quick { body(&inputs) } else { body(&setup(args.workload, args.seed, true)) };
    std::hint::black_box(warm.digest);
    (inputs, started.elapsed().as_secs_f64())
}

/// The same population on one engine (`max_shards: 1`) must merge to the
/// same digest: sharding and co-simulation may never change an outcome.
fn cross_mode_check(args: &Args, inputs: &Inputs, reference: &BodyOut) -> Option<String> {
    let mono = SweepOptions { max_shards: 1, workers: Some(1), ..SweepOptions::default() };
    let (sharded, mono_digest, what) = match (args.workload, inputs) {
        (Workload::BrowseSharded, Inputs::Sweep(pop, opts)) => {
            let units = pop.units.len().min(SHARDED_CHECK_UNITS);
            let head = sharded_population(args.seed, units);
            let digest = |opts| run_sweep(&head, opts).digest;
            (digest(opts), digest(&mono), format!("first {units} units"))
        }
        (Workload::BrowseCoupled, Inputs::Sweep(pop, _)) => {
            (reference.digest, run_sweep(pop, &mono).digest, "population".to_string())
        }
        _ => return None,
    };
    (sharded != mono_digest).then(|| {
        format!(
            "{}: {what} merged to {} sharded but {} on one engine",
            args.workload.name(),
            hex16(sharded),
            hex16(mono_digest)
        )
    })
}

/// Measure one workload.
pub fn run(args: &Args) -> Measured {
    let name = args.workload.name();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        let (i, secs) = set_up(args);
        setup_s.push(secs);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");

    // The first body is the reference every later one must reproduce. Full
    // runs do not time it (it warms); a quick run has no other. Peak RSS is
    // read here, after one body: a coupled sweep's RSS climbs from 204 MiB
    // after one body to 800 MiB after nineteen (allocator fragmentation,
    // the allocations are identical), so a later reading would depend on
    // how many repetitions fit into `--seconds`.
    let reference = body(&inputs);
    let peak_rss_mb = vm_hwm_mb();

    let mut problems = Vec::new();
    let mut wall_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut account = |out: &BodyOut| {
        wall_s.push(out.wall_ns as f64 / 1e9);
        attempted += out.attempted;
        failed += out.failed;
        if out.failed > 0 {
            problems.push(format!(
                "{name}: {} of {} {} did not complete",
                out.failed,
                out.attempted,
                args.workload.op()
            ));
        }
        if out.digest != reference.digest || out.events != reference.events {
            failed += 1;
            problems.push(format!(
                "{name}: repetition {} produced digest {} ({} events), the first body {} ({})",
                wall_s.len(),
                hex16(out.digest),
                out.events,
                hex16(reference.digest),
                reference.events
            ));
        }
    };
    if args.quick {
        account(&reference);
    } else {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < args.seconds {
            account(&body(&inputs));
        }
    }

    if let Some(problem) = cross_mode_check(args, &inputs, &reference) {
        failed += 1;
        problems.push(problem);
    }
    if args.seed == PINNED_SEED {
        match expected_digest(args.workload, args.quick) {
            Some(want) if want != reference.digest => {
                failed += 1;
                problems.push(format!(
                    "{name}: seed {PINNED_SEED} digest {} differs from expected.json's {}",
                    hex16(reference.digest),
                    hex16(want)
                ));
            }
            Some(_) => {}
            None => {
                failed += 1;
                problems.push(format!("{name}: expected.json pins no digest for this workload"));
            }
        }
    }
    Measured { setup_s, wall_s, reference, attempted, failed, peak_rss_mb, problems }
}

impl Measured {
    /// Median host seconds per body.
    pub fn wall_median(&self) -> f64 {
        median(&mut self.wall_s.clone())
    }

    /// `(q1, median, q3)` of the per-body host seconds.
    pub fn wall_quartiles(&self) -> (f64, f64, f64) {
        quartiles(&mut self.wall_s.clone())
    }

    /// Median host seconds per set-up.
    pub fn setup_median(&self) -> f64 {
        median(&mut self.setup_s.clone())
    }

    /// Failed ÷ attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics by name (see `spec::END_TO_END` for units,
    /// directions and bounds), plus `fail_share`.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let wall = self.wall_median();
        vec![
            ("setup_s", self.setup_median()),
            ("wall_s", wall),
            ("events_per_s", self.reference.events as f64 / wall),
            ("peak_rss_mb", self.peak_rss_mb),
            ("fail_share", self.fail_share()),
            ("req_s_p50", f64::from(self.reference.req_percentile_us(50.0)) / 1e6),
            ("req_s_p99", f64::from(self.reference.req_percentile_us(99.0)) / 1e6),
            ("ooo_ms_p99", self.reference.ooo_us.percentile(99.0) as f64 / 1e3),
        ]
    }
}
