//! The four workloads: inputs generated from a seed, and one untraced body
//! each, run through the same public entry points `repro` uses.
//!
//! Sizes are fixed here and nowhere else. `quick` shrinks every workload to
//! a body of a few milliseconds (4 cells / 20 units / 27 pages) that runs
//! the same code paths; it doubles as the warm-up slice of a set-up.

use std::time::Instant;

use ecf_core::SchedulerKind;
use experiments::web::CONFIGS;
use experiments::{
    browse_coupled_population, browse_population, run_quic_web, run_streaming, run_sweep, Effort,
    Population, StreamingConfig, StreamingOutcome, SweepOptions, SweepReport, BW_SET,
    COUPLED_BENCH_GROUPS, QUIC_WEB_SCHEDULERS,
};
use mptcp::Recorder;
use testkit::digest::Fnv1a;

use crate::stats::Hist;

/// Units of the full `browse_sharded` population (`browse_10k`).
pub const SHARDED_UNITS: usize = 1667;
/// Leading units of `browse_sharded` re-run on one engine by every run's
/// cross-mode check (the `browse_1k` scale: a monolith of all 1667 takes
/// ten times longer than the whole measurement).
pub const SHARDED_CHECK_UNITS: usize = 167;
/// Units of the full `browse_coupled` population. Sized on purpose: the
/// 1667-unit run spread 6.6–8.9 s for one seed inside one process on the
/// reference box (memory-bound on a shared L3); 500 units repeat within 7 %.
pub const COUPLED_UNITS: usize = 500;
/// Shared LTE capacity of the full coupled population, Mbps (0.3 per unit,
/// the ratio of `browse_10k_coupled`).
pub const COUPLED_CAPACITY_MBPS: f64 = 150.0;
/// Link seeds per (config, scheduler) pair of the full `quic_pages` body.
pub const QUIC_SEEDS: u64 = 300;
/// Units of the quick sweep bodies.
pub const QUICK_UNITS: usize = 20;
/// Link seeds per pair of the quick `quic_pages` body (27 pages).
pub const QUICK_QUIC_SEEDS: u64 = 3;
/// The heterogeneous pair every headline figure keys on (WiFi, LTE Mbps).
pub const HETERO: (f64, f64) = (0.3, 8.6);

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 9 sweep, sequential.
    Fig9Grid,
    /// `browse_10k`, one engine per unit.
    BrowseSharded,
    /// The coupled browse population in lockstep engine groups.
    BrowseCoupled,
    /// 107-stream MPQUIC page loads.
    QuicPages,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Fig9Grid, Workload::BrowseSharded, Workload::BrowseCoupled, Workload::QuicPages];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Grid => "fig9_grid",
            Workload::BrowseSharded => "browse_sharded",
            Workload::BrowseCoupled => "browse_coupled",
            Workload::QuicPages => "quic_pages",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one attempted operation of this workload is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Fig9Grid => "cells",
            Workload::BrowseSharded | Workload::BrowseCoupled => "units",
            Workload::QuicPages => "pages",
        }
    }
}

/// One `quic_pages` page load.
#[derive(Debug, Clone, Copy)]
pub struct PageRun {
    /// WiFi rate, Mbps.
    pub wifi: f64,
    /// LTE rate, Mbps.
    pub lte: f64,
    /// Scheduler placing the packets.
    pub kind: SchedulerKind,
    /// Link jitter seed.
    pub seed: u64,
}

/// A workload's inputs, everything that depends on the seed.
pub enum Inputs {
    /// `fig9_grid`: one streaming run per cell, scheduler-major, then LTE
    /// row, then WiFi column (the order `repro fig9` renders).
    Grid(Vec<StreamingConfig>),
    /// `browse_sharded` / `browse_coupled`: the population and how to run it.
    Sweep(Population, SweepOptions),
    /// `quic_pages`: the page loads, config-major.
    Pages(Vec<PageRun>),
}

/// One worker thread, whatever the box has: every end-to-end number is a
/// single-core number.
fn one_worker(max_shards: usize) -> SweepOptions {
    SweepOptions { max_shards, workers: Some(1), ..SweepOptions::default() }
}

/// Generate `w`'s inputs from `seed`.
pub fn setup(w: Workload, seed: u64, quick: bool) -> Inputs {
    match w {
        Workload::Fig9Grid => {
            let cell = |wifi, lte, kind| StreamingConfig {
                video_secs: Effort::Full.video_secs(),
                ..StreamingConfig::new(wifi, lte, kind, seed)
            };
            let mut cells = Vec::new();
            for kind in SchedulerKind::paper_set() {
                if quick {
                    cells.push(cell(HETERO.0, HETERO.1, kind));
                    continue;
                }
                for &lte in &BW_SET {
                    for &wifi in &BW_SET {
                        cells.push(cell(wifi, lte, kind));
                    }
                }
            }
            Inputs::Grid(cells)
        }
        Workload::BrowseSharded => {
            let units = if quick { QUICK_UNITS } else { SHARDED_UNITS };
            Inputs::Sweep(sharded_population(seed, units), one_worker(0))
        }
        Workload::BrowseCoupled => {
            let units = if quick { QUICK_UNITS } else { COUPLED_UNITS };
            let capacity = COUPLED_CAPACITY_MBPS * units as f64 / COUPLED_UNITS as f64;
            Inputs::Sweep(
                browse_coupled_population(seed, units, 6, 1.0, capacity, SchedulerKind::Ecf),
                one_worker(COUPLED_BENCH_GROUPS),
            )
        }
        Workload::QuicPages => {
            let seeds = if quick { QUICK_QUIC_SEEDS } else { QUIC_SEEDS };
            let mut pages = Vec::new();
            for &(wifi, lte) in &CONFIGS {
                for kind in QUIC_WEB_SCHEDULERS {
                    for i in 0..seeds {
                        pages.push(PageRun { wifi, lte, kind, seed: seed * 1000 + i });
                    }
                }
            }
            Inputs::Pages(pages)
        }
    }
}

/// The first `units` units of the `browse_10k(seed)` population (page and
/// link seeds are keyed by global index, so a shorter population is a
/// prefix of a longer one).
pub fn sharded_population(seed: u64, units: usize) -> Population {
    browse_population(seed, units, 6, 1.0, 10.0, SchedulerKind::Ecf)
}

/// What one body produced.
#[derive(Debug, Clone, Default)]
pub struct BodyOut {
    /// `Engine::processed()` summed over the body.
    pub events: u64,
    /// Digest over every deterministic observable of the body.
    pub digest: u64,
    /// Cells / units / pages run.
    pub attempted: u64,
    /// Of those, how many did not complete.
    pub failed: u64,
    /// Host nanoseconds inside the simulator's entry points (the harness's
    /// own folding between them is not on the clock).
    pub wall_ns: u64,
    /// Host nanoseconds per cell / sweep / page, in input order.
    pub parts_ns: Vec<u64>,
    /// Application request completion times, microseconds (every body has
    /// fewer than 300 k requests, so these are kept exactly).
    pub req_us: Vec<u32>,
    /// Per-segment out-of-order delays, microseconds.
    pub ooo_us: Hist,
    /// `fig9_grid` only: measured ÷ ideal average bit rate per cell.
    pub ratios: Vec<f64>,
}

fn secs_to_us(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

/// Fold one streaming cell the way `experiments/tests/golden.rs` does.
pub fn fold_streaming(
    d: &mut Fnv1a,
    out: &mut BodyOut,
    cfg: &StreamingConfig,
    o: &StreamingOutcome,
) {
    d.write_u64(o.events_processed);
    d.write_f64(o.avg_bitrate);
    d.write_f64(o.avg_throughput);
    d.write_f64(o.fast_fraction);
    d.write_u64(o.fast_iw_resets);
    for &x in &o.ooo_delays {
        d.write_f64(x);
        out.ooo_us.record(secs_to_us(x));
    }
    for &x in &o.last_packet_gaps {
        d.write_f64(x);
    }
    for &(t, v) in &o.chunk_throughputs {
        d.write_f64(t);
        d.write_f64(v);
    }
    // Chunk i started at chunk_throughputs[i].0 and finished at
    // download_progress[i].0 (both in `player.history` order).
    for (&(t, v), &(started, _)) in o.download_progress.iter().zip(&o.chunk_throughputs) {
        d.write_f64(t);
        d.write_f64(v);
        out.req_us.push(secs_to_us(t - started) as u32);
    }
    let chunks = (cfg.video_secs / dash::PlayerConfig::default().chunk_secs).ceil() as usize;
    out.events += o.events_processed;
    out.attempted += 1;
    out.failed += u64::from(o.chunk_throughputs.len() != chunks);
    out.ratios.push(o.avg_bitrate / o.ideal_bitrate);
}

/// Fold one page load's request lifecycles and pooled OOO delays (the
/// `browse_digest` of the golden tests, on the quic recorder).
pub fn fold_recorder(d: &mut Fnv1a, out: &mut BodyOut, events: u64, rec: &Recorder) {
    d.write_u64(events);
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
        if let Some(done) = r.completion_time() {
            out.req_us.push(done.as_micros() as u32);
        }
    }
    for &us in &rec.ooo_delays_us {
        d.write_u64(us);
        out.ooo_us.record(us);
    }
    out.events += events;
}

/// Fold a merged sweep report (its digest is the sweep executor's own).
pub fn fold_sweep(out: &mut BodyOut, report: &SweepReport) {
    out.events = report.events_total();
    out.digest = report.digest;
    out.attempted = report.units.len() as u64;
    for u in &report.units {
        out.failed += u64::from(u.page_load.is_none());
        for o in &u.objects {
            out.req_us.push(o.finished.since(o.started).as_micros() as u32);
        }
        for &us in u.ooo_us_per_conn.iter().flatten() {
            out.ooo_us.record(us);
        }
    }
}

/// Run one untraced body.
pub fn body(inputs: &Inputs) -> BodyOut {
    let mut out = BodyOut::default();
    let mut d = Fnv1a::new();
    match inputs {
        Inputs::Grid(cells) => {
            for cfg in cells {
                let started = Instant::now();
                let o = run_streaming(cfg);
                out.parts_ns.push(started.elapsed().as_nanos() as u64);
                fold_streaming(&mut d, &mut out, cfg, &o);
            }
            out.digest = d.finish();
        }
        Inputs::Sweep(pop, opts) => {
            let started = Instant::now();
            let report = run_sweep(pop, opts);
            out.parts_ns.push(started.elapsed().as_nanos() as u64);
            fold_sweep(&mut out, &report);
        }
        Inputs::Pages(pages) => {
            for p in pages {
                let started = Instant::now();
                let tb = run_quic_web(p.wifi, p.lte, p.kind, p.seed);
                let ran = started.elapsed();
                fold_recorder(&mut d, &mut out, tb.events_processed(), &tb.world().recorder);
                out.attempted += 1;
                out.failed += u64::from(!tb.app().done());
                // Teardown is part of what a page load costs.
                let started = Instant::now();
                drop(tb);
                out.parts_ns.push((ran + started.elapsed()).as_nanos() as u64);
            }
            out.digest = d.finish();
        }
    }
    out.wall_ns = out.parts_ns.iter().sum();
    out
}

impl BodyOut {
    /// Nearest-rank percentile `p` in `(0, 100]` of the request completion
    /// times, in microseconds (0 when the body completed no request).
    pub fn req_percentile_us(&self, p: f64) -> u32 {
        let n = self.req_us.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        *self.req_us.clone().select_nth_unstable(rank - 1).1
    }
}
