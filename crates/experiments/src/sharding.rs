//! Sharded multi-engine sweeps: many-connection populations partitioned by
//! link-connectivity into independent per-core simulation shards.
//!
//! Connections that never share a link cannot interact — no queue they both
//! occupy, no scheduler that sees both — so a population of browse units
//! splits into connectivity components that simulate independently. This is
//! the classic parallel-DES decomposition: each shard is a complete
//! [`Testbed`] over its own slice of the path/connection universe, and the
//! shards' per-unit metrics merge back in fixed global order.
//!
//! There is one executor, [`CoupledRun`]. [`run_sweep`] hands it clusters
//! of shards from a [`parallel_map_workers`] work queue: all shards as one
//! lockstep cluster when a positive-window coupling joins them, else each
//! shard alone, whose window is the horizon — one round, nothing exchanged.
//!
//! The contract (DESIGN.md §11) is *bit-identical equivalence*: the merged
//! result of a sharded sweep equals the monolithic single-engine run of the
//! same population, at any shard count and any worker count. Three design
//! decisions carry that guarantee:
//!
//! 1. **Partitioning** is a union-find over global path indices; every
//!    connection of a unit and every path it touches land in one component,
//!    and a component is never split across shards.
//! 2. **Seed derivation** is keyed by *global* path index: shard testbeds
//!    receive explicit [`TestbedConfig::path_seeds`] equal to the seeds the
//!    monolith derives ([`simnet::path_seed`], the one canonical helper),
//!    so link jitter/loss streams are identical regardless of where a path
//!    lands.
//! 3. **Extraction is per-unit**: request streams are filtered per
//!    connection and OOO pools kept per connection
//!    ([`mptcp::RecorderConfig::ooo_per_conn`]), so merged observables are
//!    invariant to how unrelated units interleave inside an engine.
//!    Engine-global artifacts (event counts, `ReqId` values) are reported
//!    but excluded from the equivalence digest.

use std::sync::Mutex;
use std::time::Instant;

use ecf_core::SchedulerKind;
use mptcp::{
    ConnConfig, ConnSpec, Event, OooPool, PerSub, RecorderConfig, RequestRecord, Testbed,
    TestbedConfig,
};
use scenario::Scenario;
use simnet::{EventQueue, PathConfig, RunOutcome, Time};
use telemetry::{Counter, TelemetryHandle};
use testkit::digest::Fnv1a;
use webload::{BrowserApp, ObjectRecord, PageModel};

use crate::common::{parallel_map_workers, resolve_workers};
use crate::cosim::{CoupledRun, SharedBottleneck};

/// One connection of a population unit. Paths are *global* indices into
/// [`Population::paths`].
#[derive(Debug, Clone)]
pub struct PopConn {
    /// Transport parameters.
    pub cfg: ConnConfig,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Global path index per subflow; index 0 is the primary.
    pub subflow_paths: Vec<usize>,
}

/// One unit of a population: a browser fetching its own page over its own
/// connections (a "user"). Units sharing any path are co-scheduled into the
/// same shard; units with disjoint paths may simulate anywhere.
#[derive(Debug, Clone)]
pub struct PopUnit {
    /// The unit's connections.
    pub conns: Vec<PopConn>,
    /// The page this unit fetches.
    pub page: PageModel,
}

/// A many-connection workload: the closed-world input of a sweep.
#[derive(Debug, Clone)]
pub struct Population {
    /// Every physical path, globally indexed.
    pub paths: Vec<PathConfig>,
    /// The units.
    pub units: Vec<PopUnit>,
    /// Master seed; per-path seeds derive from it by global path index.
    pub seed: u64,
    /// Simulation horizon per shard (engines usually drain earlier).
    pub horizon: Time,
    /// Explicit shared bottlenecks: member paths stay private per unit
    /// but contend for aggregate capacity through the windowed co-sim
    /// controller ([`crate::cosim`]). A coupling with a positive lookahead
    /// window lets its units span engine groups; a zero-window coupling
    /// unions them (collapse — see [`partition`]).
    pub couplings: Vec<SharedBottleneck>,
    /// Population-level network dynamics on the global clock, addressed
    /// by *global* path index. Each shard receives the events for its own
    /// paths via [`Scenario::retarget`]; events for foreign paths act only
    /// on state the shard does not own, so dropping them preserves the
    /// digest contract (proven by the scenario equality tests).
    pub scenario: Scenario,
    /// Recorder configuration for every shard engine. Must keep
    /// `ooo_per_conn` semantics consistent across runs being compared:
    /// the digest covers whatever pools this config produces.
    pub recorder: RecorderConfig,
}

/// A browse population: `n_units` users, each with a private WiFi + LTE
/// path pair and `conns_per_unit` parallel connections fetching a
/// per-unit CNN-like page. `browse_population(seed, 167, 6, ..)` is the
/// ~1k-connection sweep; `1667` units the ~10k one.
pub fn browse_population(
    master_seed: u64,
    n_units: usize,
    conns_per_unit: usize,
    wifi_mbps: f64,
    lte_mbps: f64,
    scheduler: SchedulerKind,
) -> Population {
    let mut paths = Vec::with_capacity(2 * n_units);
    let mut units = Vec::with_capacity(n_units);
    for u in 0..n_units {
        let wifi = paths.len();
        paths.push(PathConfig::wifi(wifi_mbps));
        let lte = paths.len();
        paths.push(PathConfig::lte(lte_mbps));
        // Each user fetches their own page variant, fixed by unit index so
        // the population is identical however it is sharded.
        let page_seed = master_seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let conns = (0..conns_per_unit)
            .map(|_| PopConn {
                cfg: ConnConfig::default(),
                scheduler,
                subflow_paths: vec![wifi, lte],
            })
            .collect();
        units.push(PopUnit { conns, page: PageModel::cnn_like(page_seed) });
    }
    Population {
        paths,
        units,
        seed: master_seed,
        horizon: Time::from_secs(600),
        couplings: Vec::new(),
        scenario: Scenario::new(),
        recorder: RecorderConfig { ooo_per_conn: true, ..RecorderConfig::default() },
    }
}

/// The standard ~1k-connection browse population (167 units × 6 conns).
pub fn browse_1k(seed: u64) -> Population {
    browse_population(seed, 167, 6, 1.0, 10.0, SchedulerKind::Ecf)
}

/// A browse population whose per-unit LTE legs all contend for one shared
/// bottleneck of `lte_capacity_mbps` aggregate (each leg also *starts* at
/// the full capacity — the controller's optimistic idle grant). WiFi stays
/// private per unit. Before co-simulation this topology collapsed to a
/// single engine; now the units span engine groups coupled through the
/// bottleneck's lookahead window.
pub fn browse_coupled_population(
    master_seed: u64,
    n_units: usize,
    conns_per_unit: usize,
    wifi_mbps: f64,
    lte_capacity_mbps: f64,
    scheduler: SchedulerKind,
) -> Population {
    let mut pop = browse_population(
        master_seed,
        n_units,
        conns_per_unit,
        wifi_mbps,
        lte_capacity_mbps,
        scheduler,
    );
    // LTE legs sit at odd global indices (see `browse_population`).
    let members: Vec<usize> = (0..n_units).map(|u| 2 * u + 1).collect();
    pop.couplings.push(SharedBottleneck {
        members,
        capacity_bps: (lte_capacity_mbps * 1e6) as u64,
        prop_delay: simnet::LTE_ONE_WAY,
    });
    pop
}

/// The ~10k-connection coupled browse population: 1667 units × 6 conns on
/// a common 500 Mbps LTE backhaul. The benchmark scale — big enough that
/// the monolithic engine's working set falls out of cache while each
/// co-simulated group stays resident.
pub fn browse_10k_coupled(seed: u64) -> Population {
    browse_coupled_population(seed, 1667, 6, 1.0, 500.0, SchedulerKind::Ecf)
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Union-find over `n` items, path-halving + union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// Split a population into connectivity components: unit indices grouped so
/// that any two units sharing a path (directly or transitively) are in the
/// same group. Components are ordered by their smallest unit index, units
/// ascending within each — a deterministic function of the population alone.
///
/// Couplings with a *positive* lookahead window do **not** union their
/// members — that is the whole point of co-simulation: coupled units keep
/// separate components and the window controller bridges them. A coupling
/// whose window is zero (no propagation delay and an effectively infinite
/// capacity) has no safe horizon, so its members are unioned and the
/// population degrades to the collapsed single-engine run.
///
/// Panics when a coupling member, a unit's path or a scenario event names a
/// path the population does not have: a retargeted shard would otherwise
/// drop such an event silently.
pub fn partition(pop: &Population) -> Vec<Vec<usize>> {
    for &m in pop.couplings.iter().flat_map(|c| &c.members) {
        assert!(m < pop.paths.len(), "coupling member {m} out of range");
    }
    if let Err(e) = pop.scenario.check_paths(pop.paths.len()) {
        panic!("{e}");
    }
    let mut uf = UnionFind::new(pop.paths.len());
    for c in &pop.couplings {
        if c.window_nanos() == 0 {
            for w in c.members.windows(2) {
                uf.union(w[0] as u32, w[1] as u32);
            }
        }
    }
    for unit in &pop.units {
        // All paths of a unit are one component: its conns share app state
        // (one browser queue), so the unit itself is indivisible.
        let mut first: Option<usize> = None;
        for conn in &unit.conns {
            for &p in &conn.subflow_paths {
                assert!(p < pop.paths.len(), "path index {p} out of range");
                match first {
                    None => first = Some(p),
                    Some(f) => uf.union(f as u32, p as u32),
                }
            }
        }
    }
    // Components keyed by root path; units assigned via their first path.
    let mut comp_of_root: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut components: Vec<Vec<usize>> = Vec::new();
    for (u, unit) in pop.units.iter().enumerate() {
        let p = unit.conns.first().and_then(|c| c.subflow_paths.first()).copied();
        let root = uf.find(p.expect("unit with no paths") as u32);
        let slot = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[slot].push(u);
    }
    // Unit iteration order already yields components by smallest unit index
    // and units ascending within each.
    components
}

/// Bin components into at most `max_shards` shards round-robin (0 =
/// unlimited, one shard per component), units sorted ascending within each
/// shard. Deterministic given (population, max_shards); independent of
/// worker count by construction.
pub fn plan_shards(pop: &Population, max_shards: usize) -> Vec<Vec<usize>> {
    let components = partition(pop);
    let bins =
        if max_shards == 0 { components.len() } else { components.len().min(max_shards) }.max(1);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); bins];
    for (i, comp) in components.into_iter().enumerate() {
        shards[i % bins].extend(comp);
    }
    for s in &mut shards {
        s.sort_unstable();
    }
    shards.retain(|s| !s.is_empty());
    shards
}

// ---------------------------------------------------------------------------
// Per-unit observables
// ---------------------------------------------------------------------------

/// One request's shard-invariant summary (everything from
/// [`RequestRecord`] except the engine-global `ReqId`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReqSummary {
    /// Connection index *within the unit* (0-based).
    pub conn: u32,
    /// Requested bytes.
    pub bytes: u64,
    /// Response size in segments.
    pub segs: u32,
    /// First/last dsn of the response (per-connection dsn space).
    pub first_dsn: u64,
    /// See `first_dsn`.
    pub last_dsn: u64,
    /// Issue time.
    pub issued: Time,
    /// Server arrival, if the GET got through.
    pub server_arrival: Option<Time>,
    /// Completion, if delivered in order.
    pub completed: Option<Time>,
    /// Per subflow: last data arrival for this response.
    pub last_arrival_per_sub: PerSub<Option<Time>>,
    /// Per subflow: data segments of this response that arrived on it.
    pub arrivals_per_sub: PerSub<u64>,
}

impl ReqSummary {
    fn from_record(r: RequestRecord, conn_local: u32) -> Self {
        ReqSummary {
            conn: conn_local,
            bytes: r.bytes,
            segs: r.segs,
            first_dsn: r.first_dsn,
            last_dsn: r.last_dsn,
            issued: r.issued,
            server_arrival: r.server_arrival,
            completed: r.completed,
            last_arrival_per_sub: r.last_arrival_per_sub,
            arrivals_per_sub: r.arrivals_per_sub,
        }
    }
}

/// Everything one unit produced, independent of which engine ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitReport {
    /// Global unit index.
    pub unit: usize,
    /// Object download records, in the unit's completion order.
    pub objects: Vec<ObjectRecord>,
    /// Page load time, if the page finished inside the horizon.
    pub page_load: Option<Time>,
    /// The unit's requests, in issue order. Empty in a report returned by
    /// [`run_sweep`] or [`CoupledRun::finish`]: the merge has already
    /// folded them into [`SweepReport::digest`]. A hand-built report
    /// carries them so [`digest_units`] can fold them.
    pub requests: Vec<ReqSummary>,
    /// OOO delays (µs) per unit-local connection.
    pub ooo_us_per_conn: Vec<OooPool>,
}

fn fold_opt_time(h: &mut Fnv1a, t: Option<Time>) {
    match t {
        Some(t) => {
            h.write_u64(1);
            h.write_u64(t.as_nanos());
        }
        None => h.write_u64(0),
    }
}

/// Fold one unit report into an equivalence digest. Every field that must
/// be bit-identical between monolith and shards is included; engine-global
/// artifacts are structurally absent from [`UnitReport`].
fn fold_unit(h: &mut Fnv1a, r: &UnitReport) {
    h.write_u64(r.unit as u64);
    h.write_u64(r.objects.len() as u64);
    for o in &r.objects {
        h.write_u64(u64::from(o.index));
        h.write_u64(u64::from(o.bytes));
        h.write_u64(o.started.as_nanos());
        h.write_u64(o.finished.as_nanos());
    }
    fold_opt_time(h, r.page_load);
    h.write_u64(r.requests.len() as u64);
    for q in &r.requests {
        h.write_u64(u64::from(q.conn));
        h.write_u64(q.bytes);
        h.write_u64(u64::from(q.segs));
        h.write_u64(q.first_dsn);
        h.write_u64(q.last_dsn);
        h.write_u64(q.issued.as_nanos());
        fold_opt_time(h, q.server_arrival);
        fold_opt_time(h, q.completed);
        h.write_u64(q.last_arrival_per_sub.len() as u64);
        for &t in &q.last_arrival_per_sub {
            fold_opt_time(h, t);
        }
        for &n in &q.arrivals_per_sub {
            h.write_u64(n);
        }
    }
    h.write_u64(r.ooo_us_per_conn.len() as u64);
    for pool in &r.ooo_us_per_conn {
        h.write_u64(pool.len() as u64);
        for &us in pool {
            h.write_u64(us);
        }
    }
}

/// Digest a full set of hand-built unit reports (assumed in global unit
/// order). A merged [`SweepReport`]'s units no longer carry their requests,
/// so re-digesting them gives a different number than its `digest`.
pub fn digest_units(units: &[UnitReport]) -> u64 {
    let mut h = Fnv1a::new();
    for r in units {
        fold_unit(&mut h, r);
    }
    h.finish()
}

/// The streaming merge: unit reports arrive in whatever order their shards
/// finish, and each is folded into the digest as soon as every
/// lower-numbered unit has been — the bytes [`digest_units`] would hash, in
/// the same order — and its request summaries are then dropped.
pub(crate) struct Merge {
    digest: Fnv1a,
    /// The lowest unit not yet folded.
    next: usize,
    /// One slot per global unit index.
    units: Vec<Option<UnitReport>>,
}

impl Merge {
    pub(crate) fn new(n_units: usize) -> Self {
        Merge { digest: Fnv1a::new(), next: 0, units: (0..n_units).map(|_| None).collect() }
    }

    /// File `report` in its unit's slot, then fold every unit that is now
    /// next in global order. Panics if the unit was already reported.
    pub(crate) fn add(&mut self, report: UnitReport) {
        let slot = report.unit;
        assert!(self.units[slot].is_none(), "unit {slot} reported twice");
        self.units[slot] = Some(report);
        while let Some(Some(r)) = self.units.get_mut(self.next) {
            fold_unit(&mut self.digest, r);
            r.requests = Vec::new();
            self.next += 1;
        }
    }

    /// The sweep's report: the units in global order, their digest, and
    /// each shard's `(events, wall_ns)` in shard order, with the
    /// load-balance counters flushed once. Panics if a unit is missing.
    pub(crate) fn finish(self, per_shard: Vec<(u64, u64)>, tel: &TelemetryHandle) -> SweepReport {
        let units = self.units.into_iter().map(|r| r.expect("every unit simulated")).collect();
        let (shard_events, shard_wall_ns): (Vec<u64>, Vec<u64>) = per_shard.into_iter().unzip();
        flush_load_balance(tel, &shard_events, &shard_wall_ns);
        SweepReport { units, digest: self.digest.finish(), shard_events, shard_wall_ns }
    }
}

// ---------------------------------------------------------------------------
// The population application (one engine, many browsers)
// ---------------------------------------------------------------------------

/// Composes one [`BrowserApp`] per unit inside a single testbed, routing
/// completions to the unit owning the connection.
pub(crate) struct PopulationApp {
    units: Vec<BrowserApp>,
    /// Engine-local connection index → slot in `units`.
    owner: Vec<usize>,
    /// Slots whose page has loaded and whose buffers are not yet given
    /// back, in load order (reserved for every unit up front, so noting
    /// one allocates nothing).
    loaded: Vec<usize>,
}

impl mptcp::Application for PopulationApp {
    fn on_start(&mut self, now: Time, api: &mut mptcp::Api<'_>) {
        // Units in ascending global order: the issue order of the monolith
        // restricted to any subset is the subset's own issue order, which
        // is what makes per-unit extraction shard-invariant.
        for unit in &mut self.units {
            unit.on_start(now, api);
        }
    }

    fn on_response_complete(
        &mut self,
        now: Time,
        conn: mptcp::ConnId,
        req: mptcp::ReqId,
        api: &mut mptcp::Api<'_>,
    ) {
        let slot = self.owner[conn];
        let unit = &mut self.units[slot];
        let was_done = unit.done();
        unit.on_response_complete(now, conn, req, api);
        if !was_done && unit.done() {
            self.loaded.push(slot);
        }
    }
}

// ---------------------------------------------------------------------------
// Shard execution
// ---------------------------------------------------------------------------

/// One shard's engine (an engine group of the lockstep executor) plus the
/// metadata needed to extract per-unit reports. Built by [`build_shard`],
/// stepped window by window by [`CoupledRun`].
pub(crate) struct ShardRun {
    /// The shard engine.
    pub(crate) tb: Testbed<PopulationApp>,
    /// Global unit indices simulated here, ascending.
    unit_idxs: Vec<usize>,
    /// Per unit: (engine-local base connection index, connection count).
    conn_ranges: Vec<(usize, usize)>,
    /// Global path indices of this shard's local path universe, ascending
    /// (local index `i` is `globals[i]`).
    pub(crate) globals: Vec<usize>,
    /// Drained: no pending events, will never produce more.
    pub(crate) done: bool,
    /// Wall time so far: the build plus every round.
    pub(crate) wall_ns: u64,
    /// Wall time of the last round (0 when skipped as done).
    pub(crate) round_wall_ns: u64,
}

impl ShardRun {
    /// Run the engine to `t` unless it has drained, then give back the
    /// buffers of the units that have finished, timing both.
    pub(crate) fn advance(&mut self, t: Time) {
        if self.done {
            self.round_wall_ns = 0;
            return;
        }
        let started = Instant::now();
        let outcome = self.tb.run_until(t);
        self.done = matches!(outcome, RunOutcome::Drained);
        self.release_finished();
        self.round_wall_ns = started.elapsed().as_nanos() as u64;
        self.wall_ns += self.round_wall_ns;
    }

    /// Give back the engine buffers of every unit whose page has loaded and
    /// whose connections have all drained ([`mptcp::Connection::all_acked`]):
    /// nothing will fill them again, so a finished unit holds only its
    /// results until extraction. Only the units noted as loaded and not yet
    /// released are checked; a unit still draining stays noted.
    fn release_finished(&mut self) {
        let now = self.tb.now();
        let mut loaded = std::mem::take(&mut self.tb.app_mut().loaded);
        let world = self.tb.world_mut();
        loaded.retain(|&slot| {
            let (base, n) = self.conn_ranges[slot];
            let drained = (base..base + n).all(|c| world.sender(c).all_acked());
            if drained {
                world.release_conns(base..base + n, now);
            }
            !drained
        });
        self.tb.app_mut().loaded = loaded;
    }
}

/// Build the units in `unit_idxs` (ascending global indices) into one
/// engine, recycling `queue`, without running it.
pub(crate) fn build_shard(
    pop: &Population,
    unit_idxs: &[usize],
    queue: EventQueue<Event>,
) -> ShardRun {
    let started = Instant::now();
    // Local path universe: global indices used by this shard, ascending.
    let mut globals: Vec<usize> = unit_idxs
        .iter()
        .flat_map(|&u| pop.units[u].conns.iter().flat_map(|c| c.subflow_paths.iter().copied()))
        .collect();
    globals.sort_unstable();
    globals.dedup();
    let local_of = |g: usize| globals.binary_search(&g).expect("path in shard universe");

    // Seeds keyed by GLOBAL index — the monolith's derivation, verbatim.
    let path_seeds: Vec<u64> = globals.iter().map(|&g| simnet::path_seed(pop.seed, g)).collect();
    let paths: Vec<PathConfig> = globals.iter().map(|&g| pop.paths[g].clone()).collect();

    let mut conns: Vec<ConnSpec> = Vec::new();
    let mut apps: Vec<BrowserApp> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    for (slot, &u) in unit_idxs.iter().enumerate() {
        let unit = &pop.units[u];
        let base = conns.len();
        for pc in &unit.conns {
            conns.push(ConnSpec {
                cfg: pc.cfg,
                scheduler: pc.scheduler,
                custom_scheduler: None,
                subflow_paths: pc.subflow_paths.iter().map(|&g| local_of(g)).collect(),
            });
            owner.push(slot);
        }
        apps.push(BrowserApp::with_conn_base(unit.page.clone(), unit.conns.len(), base));
    }
    let conn_ranges: Vec<(usize, usize)> = {
        let mut out = Vec::with_capacity(unit_idxs.len());
        let mut base = 0;
        for &u in unit_idxs {
            let n = pop.units[u].conns.len();
            out.push((base, n));
            base += n;
        }
        out
    };

    // The population scenario speaks global path indices on the global
    // clock; this shard keeps the events for its own paths, remapped to
    // local indices with order preserved.
    let scenario = if pop.scenario.is_static() {
        Scenario::default()
    } else {
        pop.scenario.retarget(|g| globals.binary_search(&g).ok())
    };

    let cfg = TestbedConfig {
        paths,
        conns,
        seed: pop.seed,
        path_seeds: Some(path_seeds),
        recorder: pop.recorder,
        scenario,
        // Shard-internal telemetry stays off: conn/path ids are shard-local
        // and would mislead a merged trace. Sweep-level load-balance
        // counters are flushed by `run_sweep` instead.
        telemetry: TelemetryHandle::off(),
    };
    let loaded = Vec::with_capacity(apps.len());
    let mut tb = Testbed::new_with_queue(cfg, PopulationApp { units: apps, owner, loaded }, queue);
    // A browser issues one request per page object, so the shard's request
    // count is known here; the recorder itself reserves nothing.
    let n_requests: usize = unit_idxs.iter().map(|&u| pop.units[u].page.object_sizes.len()).sum();
    tb.world_mut().recorder.requests.reserve_exact(n_requests);
    ShardRun {
        tb,
        unit_idxs: unit_idxs.to_vec(),
        conn_ranges,
        globals,
        done: false,
        wall_ns: started.elapsed().as_nanos() as u64,
        round_wall_ns: 0,
    }
}

/// `v` at capacity == length. A vector that grew by doubling is copied into
/// a fresh exact-size allocation and the slack original freed — not shrunk
/// in place: `realloc` keeps the block where the (now dead) engine's
/// allocations left it.
fn exact_sized<T: Clone>(v: Vec<T>) -> Vec<T> {
    if v.capacity() == v.len() {
        v
    } else {
        v.to_vec()
    }
}

/// Tear a (finished) shard down into its per-unit reports, event count and
/// recyclable queue, in that order: the raw outputs are *moved* out of the
/// engine (request records, OOO pools, object records — pointer moves), the
/// engine is dropped, and only then are the long-lived report vectors
/// allocated. A vector that is allocated — or shrunk in place — among a
/// live engine's rings and scratch pins the hole they leave: a sweep of
/// 1667 one-unit engines peaked 7 MiB of RSS higher that way (DESIGN.md §9,
/// `tests/rss.rs`). So a run's results never exist twice, and a merge over
/// many shards holds one dead engine at a time, not all of them.
pub(crate) fn extract_reports(run: ShardRun) -> (Vec<UnitReport>, u64, EventQueue<Event>) {
    let ShardRun { mut tb, unit_idxs, conn_ranges, .. } = run;
    let events = tb.events_processed();
    let rec = &mut tb.world_mut().recorder;
    let records = std::mem::take(&mut rec.requests);
    let mut pools = std::mem::take(&mut rec.ooo_delays_us_per_conn);
    let PopulationApp { units, owner, .. } = tb.app_mut();
    let owner = std::mem::take(owner);
    let outputs: Vec<(Vec<ObjectRecord>, Option<Time>)> = units
        .iter_mut()
        .map(|app| (std::mem::take(&mut app.objects), app.page_load_time))
        .collect();
    let queue = tb.into_queue();

    // One pass over the recorder (ReqId order), each request filed under
    // the unit owning its connection: every bucket keeps the order a
    // per-unit filter would give, at O(requests) not O(units × requests).
    // Counted first, so each bucket is allocated once at its exact size.
    let mut counts = vec![0usize; unit_idxs.len()];
    for r in &records {
        counts[owner[r.conn as usize]] += 1;
    }
    let mut requests: Vec<Vec<ReqSummary>> = counts.into_iter().map(Vec::with_capacity).collect();
    for r in records {
        let slot = owner[r.conn as usize];
        // The unit's first connection is no later than `r.conn`: it fits.
        let conn_local = r.conn - conn_ranges[slot].0 as u32;
        requests[slot].push(ReqSummary::from_record(r, conn_local));
    }

    // Each pool is moved out from under its connection's own index, so a
    // unit gets its connections' samples whatever order units come in. A
    // recorder without per-connection pools yields empty ones.
    let reports = requests
        .into_iter()
        .zip(outputs)
        .enumerate()
        .map(|(slot, (requests, (objects, page_load)))| {
            let (base, n) = conn_ranges[slot];
            UnitReport {
                unit: unit_idxs[slot],
                objects: exact_sized(objects),
                page_load,
                requests,
                ooo_us_per_conn: (base..base + n)
                    .map(|c| pools.get_mut(c).map(std::mem::take).unwrap_or_default().exact())
                    .collect(),
            }
        })
        .collect();
    (reports, events, queue)
}

// ---------------------------------------------------------------------------
// The sweep driver
// ---------------------------------------------------------------------------

/// How to run a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Maximum shard count: 1 = monolithic single engine, 0 = one shard per
    /// connectivity component. The merged result is identical for every
    /// value (the equivalence contract).
    pub max_shards: usize,
    /// Explicit worker count; `None` uses the default (available cores,
    /// `TESTKIT_WORKERS` override). Results are identical for every value.
    pub workers: Option<usize>,
    /// Sink for the per-sweep load-balance counters.
    pub telemetry: TelemetryHandle,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { max_shards: 0, workers: None, telemetry: TelemetryHandle::off() }
    }
}

/// A sweep's merged result.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-unit reports in global unit order — the equivalence surface,
    /// without their request summaries (see [`UnitReport::requests`]).
    pub units: Vec<UnitReport>,
    /// FNV-1a digest folded unit by unit (`fold_unit`) in global order as
    /// units merge, requests included: bit-identical across shard counts
    /// and worker counts.
    pub digest: u64,
    /// Engine events per shard, in shard order (diagnostic; *not* part of
    /// the digest — a monolith counts one `AppStart`, k shards count k).
    pub shard_events: Vec<u64>,
    /// Wall nanoseconds per shard, in shard order (diagnostic): its build,
    /// every round it ran and its extraction.
    pub shard_wall_ns: Vec<u64>,
}

impl SweepReport {
    /// Total engine events across shards.
    pub fn events_total(&self) -> u64 {
        self.shard_events.iter().sum()
    }
}

/// Flush per-sweep load-balance counters: totals summed, imbalance ratios
/// (max/min, permille) kept as running maxima across sweeps.
/// An empty `events` (work items, not engines) counts no events.
pub(crate) fn flush_load_balance(tel: &TelemetryHandle, events: &[u64], wall_ns: &[u64]) {
    if !tel.is_enabled() || wall_ns.is_empty() {
        return;
    }
    tel.add(Counter::ShardRuns, wall_ns.len() as u64);
    tel.add(Counter::ShardEvents, events.iter().sum());
    tel.add(Counter::ShardWallNs, wall_ns.iter().sum());
    let permille = |vals: &[u64]| -> Option<u64> {
        let max = *vals.iter().max()?;
        let min = *vals.iter().min()?;
        max.saturating_mul(1000).checked_div(min)
    };
    if let Some(p) = permille(events) {
        tel.set_max(Counter::ShardEventsImbalancePermille, p);
    }
    if let Some(p) = permille(wall_ns) {
        tel.set_max(Counter::ShardWallImbalancePermille, p);
    }
}

/// Run a population, sharded per `opts`, and merge deterministically.
///
/// `max_shards = 1` is the monolithic reference run; any other value
/// produces the same [`SweepReport::digest`]. Every population runs on the
/// one lockstep executor ([`CoupledRun`]), cluster by cluster (see the
/// module docs): with a positive-window coupling all shards are one
/// cluster, whose groups `CoupledRun` spreads over the workers; otherwise
/// each shard is a cluster of its own, one engine alive per worker. Engine
/// allocations (event-queue slabs) are recycled through a shared pool, so
/// a sweep of many small shards performs one warm-up per worker, not per
/// shard.
///
/// Populations that cannot shard at all (literal path sharing, zero-window
/// couplings) run collapsed on one engine, and that collapse is *reported*
/// — a `shard_collapses` telemetry tick plus a log line naming the reason —
/// instead of silent.
pub fn run_sweep(pop: &Population, opts: &SweepOptions) -> SweepReport {
    let shards = plan_shards(pop, opts.max_shards);
    if shards.len() == 1 && pop.units.len() > 1 && opts.max_shards != 1 {
        let reason = if pop.couplings.iter().any(|c| c.members.len() > 1 && c.window_nanos() == 0) {
            "zero-lookahead coupling (no safe horizon)"
        } else {
            "units literally share a path"
        };
        eprintln!(
            "sharding: population of {} units collapsed to one engine: {reason}",
            pop.units.len()
        );
        if opts.telemetry.is_enabled() {
            opts.telemetry.add(Counter::ShardCollapses, 1);
        }
    }
    let clusters: Vec<Vec<Vec<usize>>> = if pop.couplings.iter().any(|c| c.window_nanos() > 0) {
        vec![shards]
    } else {
        shards.into_iter().map(|s| vec![s]).collect()
    };
    let pool: Mutex<Vec<EventQueue<Event>>> = Mutex::new(Vec::new());
    let merge = Mutex::new(Merge::new(pop.units.len()));
    // One worker runs clusters in plan order, so each unit is folded, and
    // its summaries freed, right after its own engine is gone. A single
    // cluster runs inline here, so threads never nest.
    let per_cluster = parallel_map_workers(
        clusters,
        |shards| CoupledRun::build(pop, &shards, &pool, opts).drain(&merge, &pool),
        resolve_workers(opts.workers),
    );
    merge.into_inner().expect("merge").finish(per_cluster.concat(), &opts.telemetry)
}

/// Map `f` over independent work items with the sweep executor's load
/// accounting: per-item wall time feeds the same shard load-balance
/// counters a population sweep flushes. This is the path `repro matrix`
/// cell execution rides, so the experiment matrix inherits the sharded
/// engine plumbing (worker override, balance telemetry) without owning any
/// of it.
pub(crate) fn run_balanced<T, R, F>(
    items: Vec<T>,
    f: F,
    workers: Option<usize>,
    tel: &TelemetryHandle,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let timed = |t: T| {
        let started = Instant::now();
        let r = f(t);
        (r, started.elapsed().as_nanos() as u64)
    };
    let out = parallel_map_workers(items, timed, resolve_workers(workers));
    let (results, wall_ns): (Vec<R>, Vec<u64>) = out.into_iter().unzip();
    flush_load_balance(tel, &[], &wall_ns);
    results
}

#[cfg(test)]
mod tests {
    use testkit::prop::{any_u64, check};
    use testkit::Rng;

    use super::*;

    /// A small population for fast tests: tiny pages, few units.
    fn tiny_pop(seed: u64, n_units: usize) -> Population {
        let mut pop = browse_population(seed, n_units, 2, 1.0, 10.0, SchedulerKind::Ecf);
        for (u, unit) in pop.units.iter_mut().enumerate() {
            unit.page = PageModel::lognormal(seed ^ u as u64, 8, 8192.0, 1.6, 200, 40_000);
        }
        pop
    }

    #[test]
    fn partition_keeps_path_sharers_together() {
        let mut pop = tiny_pop(1, 4);
        // Make unit 3 share unit 0's WiFi path: transitively one component.
        pop.units[3].conns[0].subflow_paths = vec![0, 7];
        let comps = partition(&pop);
        assert_eq!(comps, vec![vec![0, 3], vec![1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "events[0]: \"path\" 999 is not one of the run's 6 paths")]
    fn a_scenario_path_outside_the_population_is_refused_before_the_sweep() {
        // Retargeting would drop the event in every shard and return the
        // static run's digest.
        let mut pop = browse_population(1, 3, 2, 1.0, 10.0, SchedulerKind::Ecf);
        pop.scenario = Scenario::new().outage(999, Time::from_secs(1), Time::from_secs(2));
        run_sweep(&pop, &SweepOptions::default());
    }

    #[test]
    fn partition_shared_bottleneck_cannot_shard() {
        let mut pop = tiny_pop(1, 3);
        // Everyone rides path 0 as primary — the shared-bottleneck case.
        for unit in &mut pop.units {
            for conn in &mut unit.conns {
                conn.subflow_paths[0] = 0;
            }
        }
        let comps = partition(&pop);
        assert_eq!(comps.len(), 1, "shared link must collapse to one component");
        assert_eq!(plan_shards(&pop, 8).len(), 1);
    }

    #[test]
    fn plan_shards_round_robins_components() {
        let pop = tiny_pop(1, 5);
        let shards = plan_shards(&pop, 2);
        assert_eq!(shards, vec![vec![0, 2, 4], vec![1, 3]]);
        // Unlimited: one shard per component.
        assert_eq!(plan_shards(&pop, 0).len(), 5);
        // Monolith: everything in one engine.
        assert_eq!(plan_shards(&pop, 1), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn sharded_sweep_equals_monolith() {
        let pop = tiny_pop(42, 4);
        let mono = run_sweep(&pop, &SweepOptions { max_shards: 1, ..Default::default() });
        for max_shards in [2, 0] {
            let sharded = run_sweep(&pop, &SweepOptions { max_shards, ..Default::default() });
            assert_eq!(sharded.digest, mono.digest, "max_shards={max_shards}");
            assert_eq!(sharded.units, mono.units, "max_shards={max_shards}");
        }
        // Every unit finished its page inside the horizon.
        assert!(mono.units.iter().all(|u| u.page_load.is_some()));
        assert!(!mono.units.is_empty());
    }

    /// A small sweep's unit reports with their requests still filled: one
    /// engine, extracted, not merged.
    fn unmerged_reports(pop: &Population) -> Vec<UnitReport> {
        let shards = plan_shards(pop, 1);
        let mut run = build_shard(pop, &shards[0], EventQueue::default());
        run.advance(pop.horizon);
        let (reports, _, _) = extract_reports(run);
        assert!(reports.iter().all(|r| r.requests.len() == 8));
        reports
    }

    #[test]
    fn merge_folds_any_arrival_order_into_the_in_order_digest() {
        let originals = unmerged_reports(&tiny_pop(11, 5));
        let expected = digest_units(&originals);
        check(32, any_u64(), |seed| {
            let mut arrivals = originals.clone();
            Rng::seed_from_u64(seed).shuffle(&mut arrivals);
            let mut merge = Merge::new(arrivals.len());
            for r in arrivals {
                merge.add(r);
            }
            let report = merge.finish(Vec::new(), &TelemetryHandle::off());
            assert_eq!(report.digest, expected);
            assert_eq!(report.units.len(), originals.len());
            for (got, orig) in report.units.iter().zip(&originals) {
                assert_eq!(got, &UnitReport { requests: Vec::new(), ..orig.clone() });
            }
        });
    }

    #[test]
    #[should_panic(expected = "unit 1 reported twice")]
    fn merge_rejects_a_duplicate_unit() {
        let reports = unmerged_reports(&tiny_pop(11, 2));
        let mut merge = Merge::new(reports.len());
        merge.add(reports[1].clone());
        merge.add(reports[1].clone());
    }

    #[test]
    #[should_panic(expected = "every unit simulated")]
    fn merge_rejects_a_missing_unit() {
        let reports = unmerged_reports(&tiny_pop(11, 2));
        let mut merge = Merge::new(reports.len());
        merge.add(reports[0].clone());
        merge.finish(Vec::new(), &TelemetryHandle::off());
    }

    #[test]
    fn report_vectors_are_exact_sized() {
        let pop = tiny_pop(5, 3);
        let report = run_sweep(&pop, &SweepOptions { max_shards: 2, ..Default::default() });
        for u in &report.units {
            // Folded into the digest as the unit merged, then freed.
            assert!(u.requests.is_empty() && u.requests.capacity() == 0, "unit {}", u.unit);
            assert_eq!(u.objects.capacity(), u.objects.len(), "unit {}", u.unit);
            assert_eq!(u.ooo_us_per_conn.len(), 2);
            for pool in &u.ooo_us_per_conn {
                assert!(!pool.is_empty());
                // In entry slots: a zero run is one entry for many samples.
                assert_eq!(pool.capacity(), pool.entries(), "unit {}", u.unit);
                assert!(pool.entries() < pool.len(), "unit {}: no zero run", u.unit);
            }
        }
        // A `RequestRecord`'s width (8-byte optional timestamps, 32-bit
        // `conn` and `segs`), with nothing on the heap for up to two
        // subflows: every unit holds these between extraction and merge.
        assert!(std::mem::size_of::<ReqSummary>() <= 104);
        // 32-bit `index` and `bytes`: 32 B with both at 64 bits.
        let object = std::mem::size_of::<ObjectRecord>();
        println!("records: object={object}");
        assert_eq!(object, 24, "ObjectRecord was 32 B with a usize index and u64 bytes");
    }

    #[test]
    fn worker_count_does_not_change_the_merge() {
        let pop = tiny_pop(7, 3);
        let base = run_sweep(
            &pop,
            &SweepOptions { max_shards: 0, workers: Some(1), ..Default::default() },
        );
        for workers in [2, 8] {
            let alt = run_sweep(
                &pop,
                &SweepOptions { max_shards: 0, workers: Some(workers), ..Default::default() },
            );
            assert_eq!(alt.digest, base.digest, "workers={workers}");
        }
    }

    #[test]
    fn load_balance_counters_flush() {
        let tel = TelemetryHandle::enabled();
        let pop = tiny_pop(3, 3);
        let report = run_sweep(
            &pop,
            &SweepOptions { max_shards: 0, workers: Some(2), telemetry: tel.clone() },
        );
        assert_eq!(tel.counter(Counter::ShardRuns), 3);
        assert_eq!(tel.counter(Counter::ShardEvents), report.events_total());
        assert!(tel.counter(Counter::ShardWallNs) > 0);
        assert!(tel.counter(Counter::ShardEventsImbalancePermille) >= 1000);
        // The shards' own handles are off; their wheel diagnostics surface here.
        assert!(tel.counter(Counter::QueuePeakDepth) > 0);
        // Uncoupled shards run one round each, with no controller.
        assert_eq!(tel.counter(Counter::CosimRounds), 0);
    }

    #[test]
    fn run_balanced_preserves_order_and_accounts() {
        let tel = TelemetryHandle::enabled();
        let out = run_balanced((0..20).collect::<Vec<i32>>(), |x| x * 2, Some(4), &tel);
        assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(tel.counter(Counter::ShardRuns), 20);
        assert_eq!(tel.counter(Counter::ShardEvents), 0, "work items are not engines");
        assert!(tel.counter(Counter::ShardWallImbalancePermille) >= 1000);
    }

    /// A zero-window coupling: no propagation delay, unbounded capacity.
    fn zero_window(members: Vec<usize>) -> SharedBottleneck {
        SharedBottleneck { members, capacity_bps: u64::MAX, prop_delay: std::time::Duration::ZERO }
    }

    #[test]
    #[should_panic(expected = "coupling member 999 out of range")]
    fn partition_rejects_an_out_of_range_first_member() {
        let mut pop = tiny_pop(1, 2);
        pop.couplings.push(zero_window(vec![999, 1]));
        partition(&pop);
    }

    #[test]
    #[should_panic(expected = "coupling member 999 out of range")]
    fn partition_rejects_an_out_of_range_lone_member() {
        let mut pop = tiny_pop(1, 2);
        pop.couplings.push(zero_window(vec![999]));
        partition(&pop);
    }

    #[test]
    #[should_panic(expected = "coupling member 999 out of range")]
    fn sweep_rejects_an_out_of_range_member_of_a_positive_window_coupling() {
        let mut pop = tiny_pop(1, 2);
        pop.couplings.push(SharedBottleneck {
            members: vec![1, 999],
            capacity_bps: 10_000_000,
            prop_delay: std::time::Duration::from_millis(30),
        });
        run_sweep(&pop, &SweepOptions::default());
    }

    #[test]
    fn an_unused_in_range_member_is_legal() {
        let mut pop = tiny_pop(1, 2);
        pop.paths.push(PathConfig::lte(10.0));
        pop.couplings.push(zero_window(vec![4]));
        assert_eq!(partition(&pop), vec![vec![0], vec![1]]);
    }
}
