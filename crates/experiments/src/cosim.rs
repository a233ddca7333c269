//! # cosim — conservative-lookahead co-simulation of coupled populations
//!
//! PR 7's sharded sweeps only parallelize populations whose units are
//! link-disjoint: any shared path forces every unit touching it into one
//! monolithic engine. This module lifts that restriction for the common
//! "shared bottleneck" topology — many units whose private access legs all
//! contend for one aggregate uplink (e.g. a cell's LTE backhaul) — by
//! modeling the bottleneck as an explicit cross-shard coupling
//! ([`SharedBottleneck`]) instead of a literally shared queue.
//!
//! ## Why not share the queue itself?
//!
//! A droptail [`simnet::Link`] spanning two engines would need *zero*
//! lookahead: `enqueue` order determines arrivals and drops, so either
//! engine could affect the other at the current instant. Conservative
//! synchronization with a zero horizon deadlocks, so literal sharing still
//! collapses to one engine (reported, no longer silent — see
//! [`crate::sharding::run_sweep`]).
//!
//! ## The coupling model
//!
//! Each member of a [`SharedBottleneck`] keeps a *private* link (its own
//! queue, its own seeded jitter/loss stream — exactly the monolith's
//! link), and the bottleneck is expressed as rate contention: a
//! deterministic controller measures each member's offered load over a
//! lockstep window and re-shares the aggregate capacity equally among the
//! members that were active, applying the shares with
//! [`simnet::Link::set_rate_bps`] at the window boundary. The window is
//! the coupling's *conservative lookahead*:
//!
//! ```text
//! W = prop_delay + serialization floor of one full segment at capacity
//! ```
//!
//! computed exactly in integer nanoseconds ([`simnet::serialization_nanos`]
//! — the same Q32 math a live link uses), so no engine ever needs to see
//! another engine's state younger than one window: a send entering the
//! shared hop cannot influence a sibling's service before `W` elapses.
//! Engines advance event-by-event to each horizon `k·W` (window-barrier
//! lockstep — the builder's choice over null messages, since the horizon
//! is global and fixed), exchange per-member loads as timestamped
//! `BoundaryMsg`s ordered deterministically by `(time, seq)`, apply the
//! controller, and advance the global window.
//!
//! ## One executor
//!
//! [`CoupledRun`] runs every sweep. Without a positive-window coupling its
//! window is the horizon: one round, nothing exchanged, no sync round.
//!
//! ## The bit-identical contract
//!
//! The merged [`UnitReport`](crate::sharding::UnitReport) digest is
//! identical to the monolithic run at every shard count and worker count,
//! because the monolith *is* the same windowed system with one engine
//! group: the controller runs on the same schedule with the same inputs
//! (per-member loads are private-link functions of that member's own
//! traffic, which the sweep's per-unit extraction already made
//! partition-invariant), and `set_rate_bps` is link-local state applied at
//! identical simulated times. Message order is
//! pinned by the `(time, seq)` sort, merge order by global unit index. A
//! zero-window coupling (`prop_delay == 0` *and* an effectively infinite
//! capacity) has no safe horizon: its members are unioned by the
//! partitioner and the population falls back to a collapsed single-engine
//! run — degenerate, but never a deadlock or a divergence.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mptcp::harness::flush_queue_stats;
use mptcp::Event;
use simnet::{dur_nanos, serialization_nanos, EventQueue, Time};
use tcp_model::{wire_size, MSS};
use telemetry::{Counter, TelemetryHandle};

use crate::common::resolve_workers;
use crate::sharding::{
    build_shard, extract_reports, plan_shards, Merge, Population, ShardRun, SweepOptions,
    SweepReport,
};

/// An explicit cross-shard coupling: `members` are *global* path indices
/// whose private forward links contend for one aggregate `capacity_bps`.
///
/// Members stay private per unit — each keeps its own queue and seeded
/// stochastic streams — so units coupled only through a bottleneck still
/// partition into separate engine groups; the contention is resolved by
/// the windowed controller in this module.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedBottleneck {
    /// Global path indices of the contending member links.
    pub members: Vec<usize>,
    /// Aggregate capacity shared by all members, in bits per second. Also
    /// the rate an *idle* member is granted (optimistic start: a member
    /// alone on the bottleneck gets the full pipe until the next window).
    pub capacity_bps: u64,
    /// Propagation delay of the shared hop — the first term of the
    /// lookahead window.
    pub prop_delay: Duration,
}

impl SharedBottleneck {
    /// The coupling's conservative lookahead window in nanoseconds:
    /// propagation delay plus the serialization floor of one full wire
    /// segment at the aggregate capacity. Zero means no safe horizon
    /// exists and the coupling degenerates to a collapse (see the module
    /// docs).
    pub fn window_nanos(&self) -> u64 {
        dur_nanos(self.prop_delay)
            .saturating_add(serialization_nanos(self.capacity_bps, wire_size(MSS)))
    }
}

/// One boundary exchange: member `seq` (its global ordinal within the
/// coupling) offered `load` bytes during the window ending at `time`
/// nanoseconds. Rounds sort their messages by `(time, seq)` — a total
/// order, since ordinals are unique — so the controller consumes them in
/// the same sequence however many engine groups produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BoundaryMsg {
    /// Window-end timestamp, nanoseconds since simulation start.
    pub time: u64,
    /// Global member ordinal within the coupling.
    pub seq: u64,
    /// Bytes the member offered to its link during the window (drops
    /// included — demand, not throughput).
    pub load: u64,
}

/// A coupling resolved against the engine groups: member ordinal →
/// (group index, group-local path index).
struct CouplingState {
    capacity_bps: u64,
    locs: Vec<(usize, usize)>,
}

/// A population mid-flight, the one sweep executor: engine groups in
/// lockstep plus the window controller state (an uncoupled population
/// steps once, at the horizon). Most callers want
/// [`crate::sharding::run_sweep`]; the stepwise API lets tests observe the
/// run between windows — the counting-allocator audit drives `step`.
pub struct CoupledRun {
    groups: Vec<ShardRun>,
    couplings: Vec<CouplingState>,
    window_ns: u64,
    horizon_ns: u64,
    /// Next window index (1-based); window k ends at `k·window_ns`.
    k: u64,
    /// Simulated end of the last completed window.
    now_ns: u64,
    workers: usize,
    telemetry: TelemetryHandle,
    n_units: usize,
    finished: bool,
    /// Reused per-round message buffer (steady state allocates nothing).
    msgs: Vec<BoundaryMsg>,
    rounds: u64,
    boundary_msgs: u64,
    stall_ns: u64,
    worst_imbalance_permille: u64,
}

impl CoupledRun {
    /// Partition `pop` (couplings with a positive window do *not* union
    /// their members) and build one engine group per shard, ready to step.
    pub fn new(pop: &Population, opts: &SweepOptions) -> CoupledRun {
        CoupledRun::build(pop, &plan_shards(pop, opts.max_shards), &Mutex::new(Vec::new()), opts)
    }

    /// Build one engine group per entry of `shards` (ascending global unit
    /// indices each) on queues popped from `pool`. The window is the
    /// smallest positive coupling window, or the horizon when there is
    /// none.
    pub(crate) fn build(
        pop: &Population,
        shards: &[Vec<usize>],
        pool: &Mutex<Vec<EventQueue<Event>>>,
        opts: &SweepOptions,
    ) -> CoupledRun {
        let window_ns = pop
            .couplings
            .iter()
            .map(SharedBottleneck::window_nanos)
            .filter(|&w| w > 0)
            .min()
            .unwrap_or(pop.horizon.as_nanos());
        let groups: Vec<ShardRun> = shards
            .iter()
            .map(|idxs| {
                let queue = pool.lock().expect("queue pool").pop().unwrap_or_default();
                build_shard(pop, idxs, queue)
            })
            .collect();
        // Resolve each member to its owning group once. A member no unit
        // uses lives in no group and drops out of the contention set.
        let locate = |g: usize| -> Option<(usize, usize)> {
            groups
                .iter()
                .enumerate()
                .find_map(|(gi, grp)| grp.globals.binary_search(&g).ok().map(|l| (gi, l)))
        };
        let couplings: Vec<CouplingState> = pop
            .couplings
            .iter()
            .filter(|c| c.window_nanos() > 0)
            .map(|c| CouplingState {
                capacity_bps: c.capacity_bps,
                locs: c.members.iter().filter_map(|&m| locate(m)).collect(),
            })
            .collect();
        let max_members = couplings.iter().map(|c| c.locs.len()).max().unwrap_or(0);
        CoupledRun {
            groups,
            couplings,
            window_ns,
            horizon_ns: pop.horizon.as_nanos(),
            k: 1,
            now_ns: 0,
            workers: resolve_workers(opts.workers),
            telemetry: opts.telemetry.clone(),
            n_units: pop.units.len(),
            finished: false,
            msgs: Vec::with_capacity(max_members),
            rounds: 0,
            boundary_msgs: 0,
            stall_ns: 0,
            worst_imbalance_permille: 0,
        }
    }

    /// Number of engine groups running in lockstep.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The global lockstep window in nanoseconds: the minimum over
    /// positive-window couplings, or the horizon when there is none.
    pub fn window_nanos(&self) -> u64 {
        self.window_ns
    }

    /// Simulated end of the last completed window.
    pub fn now(&self) -> Time {
        Time::from_nanos(self.now_ns)
    }

    /// Events processed so far across every engine group.
    pub fn events_total(&self) -> u64 {
        self.groups.iter().map(|g| g.tb.events_processed()).sum()
    }

    /// Advance one lockstep window: run every live group to the horizon
    /// `min(k·W, horizon)`, exchange boundary loads, apply the contention
    /// controller, and advance `k`. Returns `false` once every group has
    /// drained or the horizon is reached (after which it is a no-op).
    pub fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        let t_ns = self.k.saturating_mul(self.window_ns).min(self.horizon_ns);
        let t = Time::from_nanos(t_ns);
        self.advance_all(t);
        self.account_round();

        let multi = self.groups.len() > 1;
        let mut all_idle = true;
        let CoupledRun { groups, couplings, msgs, .. } = self;
        for c in couplings.iter() {
            msgs.clear();
            for (ord, &(g, local)) in c.locs.iter().enumerate() {
                let load = groups[g].tb.world_mut().paths[local].fwd.take_offered_bytes();
                msgs.push(BoundaryMsg { time: t_ns, seq: ord as u64, load });
            }
            // Deterministic round order: (time, seq) is a total order, so
            // the controller's input sequence is independent of which
            // group produced which message.
            msgs.sort_unstable_by_key(|m| (m.time, m.seq));
            let active = msgs.iter().filter(|m| m.load > 0).count() as u64;
            all_idle &= active == 0;
            let share = c.capacity_bps.checked_div(active).map_or(c.capacity_bps, |s| s.max(1));
            for m in msgs.iter() {
                let (g, local) = c.locs[m.seq as usize];
                let rate = if m.load > 0 { share } else { c.capacity_bps };
                groups[g].tb.world_mut().paths[local].fwd.set_rate_bps(rate);
            }
            if multi {
                self.boundary_msgs += c.locs.len() as u64;
            }
        }
        // Only rounds that ran a controller are sync rounds.
        if !self.couplings.is_empty() {
            self.rounds += 1;
        }
        self.now_ns = t_ns;
        self.k += 1;
        if t_ns >= self.horizon_ns || self.groups.iter().all(|g| g.done) {
            self.finished = true;
        } else if all_idle {
            // Idle fast-forward across windows (DESIGN.md §14): this round
            // offered zero load on every coupling, so each member's rate
            // was just (re)set to the full capacity — another all-zero
            // round would re-apply the identical rates, a provable no-op.
            // Every window before the earliest pending event (lower-bounded
            // by the wheels' occupancy scan, never the true event time or
            // later) therefore contains no events for any group and no
            // controller effect; jump `k` past them instead of grinding
            // one empty barrier per window. Skipped rounds are exactly the
            // no-op rounds, so unit reports and digests are unchanged at
            // any group count — only the rounds/boundary-msgs telemetry
            // records fewer (all no-op) exchanges.
            let next_pending = self
                .groups
                .iter()
                .filter(|g| !g.done)
                .filter_map(|g| g.tb.next_event_time())
                .map(|t| t.as_nanos())
                .min();
            if let Some(e) = next_pending {
                self.k = e.min(self.horizon_ns).div_ceil(self.window_ns).max(self.k);
            }
        }
        !self.finished
    }

    fn advance_all(&mut self, t: Time) {
        let live = self.groups.iter().filter(|g| !g.done).count();
        if self.workers <= 1 || live <= 1 {
            for g in &mut self.groups {
                g.advance(t);
            }
        } else {
            // One scoped spawn wave per window: the implicit join IS the
            // window barrier. Group count is small (≤ shards), so the
            // spawn cost stays negligible against a window of simulation.
            let chunk = self.groups.len().div_ceil(self.workers);
            std::thread::scope(|s| {
                for ch in self.groups.chunks_mut(chunk) {
                    s.spawn(move || {
                        for g in ch {
                            g.advance(t);
                        }
                    });
                }
            });
        }
    }

    /// Fold the round's per-group wall times into the stall / imbalance
    /// accounting (only meaningful with >1 group).
    fn account_round(&mut self) {
        if self.groups.len() <= 1 {
            return;
        }
        let (mut max, mut min, mut sum, mut n) = (0u64, u64::MAX, 0u64, 0u64);
        for g in &self.groups {
            if g.round_wall_ns == 0 {
                continue;
            }
            max = max.max(g.round_wall_ns);
            min = min.min(g.round_wall_ns);
            sum += g.round_wall_ns;
            n += 1;
        }
        if n > 1 {
            // Every group waits at the barrier for the slowest one.
            self.stall_ns += n * max - sum;
            self.worst_imbalance_permille =
                self.worst_imbalance_permille.max(max.saturating_mul(1000) / min);
        }
    }

    /// Run any remaining windows, then extract and merge every group's
    /// unit reports in fixed global-unit order, flushing the sweep's
    /// load-balance and co-sim counters (sweep teardown).
    pub fn finish(self) -> SweepReport {
        let merge = Mutex::new(Merge::new(self.n_units));
        let tel = self.telemetry.clone();
        let per_group = self.drain(&merge, &Mutex::new(Vec::new()));
        merge.into_inner().expect("merge").finish(per_group, &tel)
    }

    /// Step to the end, then extract the groups one at a time into
    /// `merge`, returning each queue to `pool`, and flush the wheel and
    /// co-sim counters. Returns each group's `(events, wall_ns)` in group
    /// order; `wall_ns` covers its build, every round and its extraction.
    pub(crate) fn drain(
        mut self,
        merge: &Mutex<Merge>,
        pool: &Mutex<Vec<EventQueue<Event>>>,
    ) -> Vec<(u64, u64)> {
        while self.step() {}
        // Each group's engine is freed as soon as its reports are out, so
        // the merge peaks at the reports plus one group, not plus all.
        // Groups are round-robin over units, so almost nothing folds before
        // the last group's reports arrive.
        // Grown by push: allocated beside a live engine, it would outlive
        // it and pin the hole it leaves (`tests/rss.rs`).
        let mut per_group = Vec::new();
        for run in std::mem::take(&mut self.groups) {
            let started = Instant::now();
            let built_and_run_ns = run.wall_ns;
            let (reports, events, queue) = extract_reports(run);
            per_group.push((events, built_and_run_ns + started.elapsed().as_nanos() as u64));
            // Group engines carry shard-local telemetry (off); their wheel
            // diagnostics surface through the sweep-level handle here.
            flush_queue_stats(&self.telemetry, &queue);
            pool.lock().expect("queue pool").push(queue);
            let mut merge = merge.lock().expect("merge");
            for r in reports {
                merge.add(r);
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry.add(Counter::CosimRounds, self.rounds);
            self.telemetry.add(Counter::CosimBoundaryMsgs, self.boundary_msgs);
            self.telemetry.add(Counter::CosimStallNs, self.stall_ns);
            if self.worst_imbalance_permille > 0 {
                self.telemetry
                    .set_max(Counter::CosimRoundImbalancePermille, self.worst_imbalance_permille);
            }
        }
        per_group
    }
}

/// Engine-group count of the benchmark's `browse_coupled` workload (and
/// the co-sim's footprint and property tests). Groups this coarse amortize the
/// per-window barrier (one `run_until` entry per group per round); per-unit
/// groups (`max_shards = 0`) enter it once per unit per round for the same
/// events and measure slower (472 → 560 ns/event at 500 units). No group
/// count makes the working set cache-resident — a 500-unit population
/// costs 2–2.5× as much per event as a 20-unit one — and 4, 16 and 64
/// groups are indistinguishable from 8 (DESIGN.md §9, §13).
pub const COUPLED_BENCH_GROUPS: usize = 8;

#[cfg(test)]
mod tests {
    use ecf_core::SchedulerKind;

    use super::*;
    use crate::sharding::browse_coupled_population;

    #[test]
    fn recorder_pools_hold_bounded_slack() {
        // The 20-unit coupled body of `tests/footprint.rs`, stopped before
        // extraction (which copies the pools exact-size). A coupled sweep
        // peaks with every engine group alive, so what the recorders' pools
        // reserve beyond their entries is resident: `Vec` doubling read
        // 1.39 × here (63 232 slots for 45 345 raw samples), growing by the
        // announced response or a quarter of capacity 1.09 ×. With zero runs
        // stored as one entry the pools hold 17 915 entries for the 45 345
        // samples, and growing by a quarter of capacity reads 1.12 ×.
        let pop = browse_coupled_population(1, 20, 6, 1.0, 6.0, SchedulerKind::Ecf);
        let opts = SweepOptions {
            max_shards: COUPLED_BENCH_GROUPS,
            workers: Some(1),
            ..Default::default()
        };
        let mut run = CoupledRun::new(&pop, &opts);
        while run.step() {}
        let (mut samples, mut entries, mut cap) = (0, 0, 0);
        for g in &run.groups {
            for pool in &g.tb.world().recorder.ooo_delays_us_per_conn {
                samples += pool.len();
                entries += pool.entries();
                cap += pool.capacity();
            }
        }
        println!(
            "coupled pools: {samples} samples in {entries} entries ({:.3} entries/sample), \
             {cap} slots ({:.3} slots/entry)",
            entries as f64 / samples as f64,
            cap as f64 / entries as f64
        );
        assert!(entries > 0, "the body recorded no OOO samples");
        assert!(
            cap as f64 <= 1.20 * entries as f64,
            "per-connection OOO pools hold {cap} slots for {entries} entries"
        );
    }
}
