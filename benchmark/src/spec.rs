//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics with the end-to-end metric each should move. This
//! table is the single source; `BENCHMARK.json` is rendered from it
//! (`benchmark spec`) and a test keeps the two equal.

use std::fmt::Write as _;

/// Seconds of timed repetitions per run (`run_seconds`). 92 driver runs of
/// 25 s plus their set-ups, warm bodies and checks fit the contract's cap
/// with a fifth to spare on the reference box.
pub const RUN_SECONDS: u64 = 25;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A workload and why it exists.
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "fig9_grid",
        why: "144 long DASH cells (6x6 bandwidths x 4 schedulers, 600 s video), sequential: \
              per-packet mptcp/tcp/core cost on a shallow wheel; sharding, co-sim and QUIC are bypassed",
    },
    WorkloadDef {
        name: "browse_sharded",
        why: "browse_10k, 1667 units x 6 conns, one engine per unit: testbed build/teardown, \
              handshakes, slow start, report merge; steady-state per-packet cost matters least",
    },
    WorkloadDef {
        name: "browse_coupled",
        why: "500 coupled units in 8 lockstep engine groups: co-sim barrier, deep wheel, working \
              set beyond L2; same sharding layer used window by window instead of run to completion",
    },
    WorkloadDef {
        name: "quic_pages",
        why: "2700 page loads of 107 streams on one MPQUIC connection: the quic crate behind the \
              shared scheduler seam, which no MPTCP workload executes; parity guard for transport work",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Simulated time: a pure function of the seed, bit-equal across runs.
    pub simulated: bool,
    /// What is measured.
    pub definition: &'static str,
}

/// The end-to-end metrics. Every bound is three times the widest spread
/// (interquartile range over median, ten runs with ten seeds) seen for that
/// metric on any workload on the reference box, capped at the contract's
/// 0.25; the host-time bounds sit at the cap because the box is that noisy
/// (README.md, "Noise").
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
        definition: "median of 9 set-ups: inputs generated from the seed, then the quick-size \
                     body run once as the warm-up slice",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        simulated: false,
        definition: "median host seconds per body over the timed repetitions, inside the \
                     simulator's entry points",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Higher,
        bound: 0.25,
        simulated: false,
        definition: "Engine::processed() summed over one body / wall_s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        simulated: false,
        definition: "VmHWM of the workload's process after set-up and one whole body",
    },
    EndToEnd {
        name: "req_s_p50",
        unit: "s",
        better: Lower,
        bound: 0.05,
        simulated: true,
        definition: "simulated completion time of every application request of one body \
                     (DASH chunk, web object, QUIC stream), median",
    },
    EndToEnd {
        name: "req_s_p99",
        unit: "s",
        better: Lower,
        bound: 0.15,
        simulated: true,
        definition: "the same, 99th percentile (every body has more than 1000 requests)",
    },
    EndToEnd {
        name: "ooo_ms_p99",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        simulated: true,
        definition: "99th percentile of the simulated per-segment out-of-order delay \
                     (the paper's Figs 13/14/21)",
    },
];

/// A per-layer metric.
pub struct PerLayer {
    /// Metric name; its prefix is the layer (module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How it is taken: `rig` (ns/op around public calls), `in-situ` (timed
    /// during a traced body), `run` (a whole extra run) or `exact` (a count
    /// read from the simulation, which repeats bit for bit for a seed).
    pub how: &'static str,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, how, moves }
}

const ALL_WALL: &str = "wall_s on every workload";
const GRID: &str = "wall_s on fig9_grid";
const GRID_QUIC: &str = "wall_s on fig9_grid, quic_pages";
const SHARDED: &str = "wall_s on browse_sharded";
const COUPLED: &str = "wall_s on browse_coupled";
const QUIC: &str = "wall_s on quic_pages only";
const EXACT: &str = "exact count; explains req_s_*";
const NOTHING: &str = "nothing end to end (telemetry is off in timed runs)";

/// The per-layer metrics. A metric whose layer a workload does not execute
/// (or cannot observe from outside) reads 0 on that workload.
pub const PER_LAYER: [PerLayer; 75] = [
    pl("simnet.engine.events", "count", Lower, "exact", ALL_WALL),
    pl(
        "simnet.engine.ns_per_event",
        "ns",
        Lower,
        "in-situ",
        "wall_s on every workload; browse_coupled/browse_sharded is the locality cost",
    ),
    pl("simnet.wheel.op_ns_d16", "ns", Lower, "rig", GRID_QUIC),
    pl("simnet.wheel.op_ns_d4096", "ns", Lower, "rig", COUPLED),
    pl("simnet.wheel.cascades_per_kevent", "1/kevent", Lower, "exact", ALL_WALL),
    pl(
        "simnet.wheel.ff_jumps",
        "count",
        Higher,
        "exact",
        "wall_s on the symmetric fig9_grid cells only",
    ),
    pl("simnet.wheel.batch_share", "fraction", Higher, "exact", ALL_WALL),
    pl("simnet.link.enqueue_ns", "ns", Lower, "rig", GRID),
    pl("simnet.link.drop_share", "fraction", Lower, "exact", "explains req_s_p99"),
    pl("simnet.delivery.op_ns", "ns", Lower, "rig", GRID),
    pl("tcp.rtt.sample_ns", "ns", Lower, "rig", GRID),
    pl("tcp.cc.ack_ns", "ns", Lower, "rig", GRID),
    pl("tcp.iw_resets.ecf", "count", Lower, "exact", EXACT),
    pl("tcp.iw_resets.default", "count", Lower, "exact", EXACT),
    pl("tcp.rtos", "count", Lower, "exact", EXACT),
    pl("mptcp.subflow.send_ack_ns", "ns", Lower, "rig", "wall_s on fig9_grid, browse_coupled"),
    pl("mptcp.subflow.retx_share", "fraction", Lower, "exact", EXACT),
    pl("mptcp.connection.try_send_ns", "ns", Lower, "rig", GRID),
    pl("mptcp.connection.window_blocked", "count", Lower, "exact", EXACT),
    pl("mptcp.connection.reinject_share", "fraction", Lower, "exact", EXACT),
    pl("mptcp.receiver.inorder_ns", "ns", Lower, "rig", GRID),
    pl(
        "mptcp.receiver.reorder_ns",
        "ns",
        Lower,
        "rig",
        "wall_s on the heterogeneous fig9_grid corners only",
    ),
    pl("mptcp.receiver.peak_buffered", "segments", Lower, "exact", "peak_rss_mb, ooo_ms_p99"),
    pl("mptcp.receiver.dup_share", "fraction", Lower, "exact", EXACT),
    pl(
        "mptcp.sim.build_us",
        "us",
        Lower,
        "rig",
        "wall_s on browse_sharded (1667 builds per body); about 0 on fig9_grid",
    ),
    pl("core.decide.calls", "count", Lower, "exact", GRID_QUIC),
    pl("core.decide.ns", "ns", Lower, "in-situ", GRID_QUIC),
    pl(
        "core.decide.share_pct",
        "%",
        Lower,
        "in-situ",
        "bounds what a scheduler change can buy on wall_s",
    ),
    pl("core.wait_share", "fraction", Lower, "exact", EXACT),
    pl("core.select_ns.ecf", "ns", Lower, "rig", GRID_QUIC),
    pl("core.select_ns.default", "ns", Lower, "rig", GRID_QUIC),
    pl("core.select_ns.blest", "ns", Lower, "rig", GRID_QUIC),
    pl("core.select_ns.daps", "ns", Lower, "rig", GRID),
    pl(
        "core.ecf_vs_default_x",
        "x",
        Higher,
        "exact",
        "the paper's headline (about 3.5x at 0.3/8.6); must not move under a perf change",
    ),
    pl(
        "core.ecf_ratio_min",
        "fraction",
        Higher,
        "exact",
        "minimum ECF bitrate ratio over 36 cells (paper: at least 0.9); must not move",
    ),
    pl("quic.conn.send_ack_ns", "ns", Lower, "rig", QUIC),
    pl("quic.receiver.chunk_ns", "ns", Lower, "rig", QUIC),
    pl("quic.sim.build_us", "us", Lower, "rig", QUIC),
    pl("quic.ns_per_event", "ns", Lower, "in-situ", QUIC),
    pl("dash.app.calls", "count", Lower, "exact", GRID),
    pl(
        "dash.app.share_pct",
        "%",
        Lower,
        "in-situ",
        "bounds what an app change can buy on fig9_grid",
    ),
    pl(
        "web.app.share_pct",
        "%",
        Lower,
        "in-situ",
        "bounds what an app change can buy on browse_sharded, quic_pages",
    ),
    pl("web.page.gen_us", "us", Lower, "rig", "setup_s on browse_sharded, browse_coupled"),
    pl("telemetry.on_overhead_pct", "%", Lower, "run", NOTHING),
    pl("telemetry.push_ns", "ns", Lower, "rig", NOTHING),
    pl("telemetry.ring.overflow_share", "fraction", Lower, "exact", NOTHING),
    pl("telemetry.export.jsonl_mb_per_s", "MB/s", Higher, "rig", NOTHING),
    pl(
        "scenario.noop_overhead_pct",
        "%",
        Lower,
        "run",
        "wall_s of scenario-driven figures; predicted about 0",
    ),
    pl("experiments.cell_ms_p50", "ms", Lower, "in-situ", "makespan of a parallel repro fig9"),
    pl("experiments.cell_ms_p98", "ms", Lower, "in-situ", "makespan of a parallel repro fig9"),
    pl(
        "experiments.w2_speedup",
        "x",
        Higher,
        "run",
        "makespan of a parallel repro fig9; two threads, not gated",
    ),
    pl("sharding.shard_ms_p50", "ms", Lower, "in-situ", SHARDED),
    pl("sharding.shard_ms_p99", "ms", Lower, "in-situ", SHARDED),
    pl(
        "sharding.run_share_pct",
        "%",
        Higher,
        "in-situ",
        "wall_s on browse_sharded: the rest is plan, build hand-off, merge and digest",
    ),
    pl("sharding.imbalance_permille", "permille", Lower, "in-situ", "makespan of a parallel sweep"),
    pl("sharding.w2_speedup", "x", Higher, "run", "two threads, not gated"),
    pl(
        "sharding.mono_vs_sharded_x",
        "x",
        Higher,
        "run",
        "the locality gain of one engine per unit (167 units, digests equal)",
    ),
    pl("cosim.rounds", "count", Lower, "exact", COUPLED),
    pl("cosim.boundary_msgs", "count", Lower, "exact", COUPLED),
    pl("cosim.ns_per_round", "ns", Lower, "in-situ", COUPLED),
    pl("cosim.stall_share_pct", "%", Lower, "in-situ", "makespan of a parallel coupled sweep"),
    pl(
        "cosim.vs_mono_x",
        "x",
        Higher,
        "run",
        "the locality gain of 8 groups over 1 (same population, digests equal)",
    ),
    pl("cosim.w2_speedup", "x", Higher, "run", "two threads, not gated"),
    pl(
        "cosim.full_scale_events_per_s",
        "events/s",
        Higher,
        "run",
        "the 1667-unit coupled run people know; informational, noisy",
    ),
    pl("expmatrix.cold_s", "s", Lower, "run", "repro matrix latency; tracks fig9_grid"),
    pl("expmatrix.warm_ms", "ms", Lower, "run", "repro matrix latency on a warm cache"),
    pl("expmatrix.warm_hit_share", "fraction", Higher, "exact", "must be 1"),
    pl("expmatrix.cache.bytes_per_cell", "bytes", Lower, "exact", "expmatrix.warm_ms"),
    pl("testkit.rng.next_ns", "ns", Lower, "rig", "loss and jitter draws on fig9_grid"),
    pl("testkit.json.parse_mb_per_s", "MB/s", Higher, "rig", "expmatrix.warm_ms"),
    pl("testkit.digest.mb_per_s", "MB/s", Higher, "rig", "expmatrix.warm_ms"),
    pl(
        "alloc.count_per_kevent",
        "1/kevent",
        Lower,
        "in-situ",
        "wall_s, peak_rss_mb on browse_sharded, quic_pages",
    ),
    pl(
        "alloc.bytes_per_event",
        "bytes",
        Lower,
        "in-situ",
        "wall_s, peak_rss_mb on browse_sharded, quic_pages",
    ),
    pl(
        "attrib.covered_pct",
        "%",
        Higher,
        "in-situ",
        "how much of the traced body rig ns/op x in-situ counts explain",
    ),
    pl("trace.overhead_pct", "%", Lower, "in-situ", "the traced run's own cost"),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

fn quoted_list(items: &[&str]) -> String {
    items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted_list(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted_list(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let collapse = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name,
                    collapse(w.why)
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.word(),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.word()
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}
