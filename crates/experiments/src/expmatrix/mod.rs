//! # expmatrix — declarative experiment matrix with content-addressed caching
//!
//! Every paper figure is a scheduler × bandwidth × seed grid, and the grid
//! only grows as new scheduler families and congestion controllers land.
//! This module turns a figure from imperative sweep code into data: a JSON
//! *spec* (axes over scheduler, CC, loss model, scenario, bandwidth pair,
//! seeds) expands deterministically into *cells*, each cell is one seeded
//! simulation run, and each cell's extracted result is cached on disk keyed
//! by a digest of its canonicalized config plus an engine-version contract.
//! A re-run executes only invalidated cells and assembles the figure from
//! cached + fresh results in a fixed merge order, so the output is
//! byte-identical regardless of cache state or shard interleaving.
//!
//! Pipeline (all deterministic):
//!
//! ```text
//! spec.json ──expand(effort)──▶ [Cell] ──digest──▶ cache probe
//!                                  │                 │hit: load result
//!                                  │miss: execute on run_balanced shards
//!                                  ▼                 ▼
//!                            results in expansion order ──▶ figure text
//! ```
//!
//! ## Cache key contract
//!
//! `digest = FNV-1a64(canonical_json({"cell": config, "contract": C}))`
//! where `C` names the cache/result schema versions and the golden digests
//! of the code the cell runs: [`ENGINE_CONTRACT`] for every cell, plus
//! [`QUIC_CONTRACT`] for cells whose workload runs the quic transport —
//! the same constants the golden regression tests pin. Canonical JSON
//! (sorted keys, no whitespace, shortest round-tripping numbers) makes the
//! digest invariant under spec reformatting while any value-level change —
//! one seed, one rate, one scheduler — produces a new key. Changing seeded
//! behavior forces the golden constants to be regenerated, which rolls the
//! contract and invalidates every cached cell that ran that code: the
//! cache can never serve results from a different engine or transport.
//!
//! Entries are verified on load (entry schema, full key comparison, and a
//! digest re-check over the stored result); corrupt or truncated entries
//! are treated as misses and re-executed, never trusted and never a panic.

pub mod cache;
pub mod cells;
pub mod figures;
pub mod spec;

use std::path::{Path, PathBuf};

use telemetry::{Counter, TelemetryHandle};
use testkit::digest;
use testkit::json::Value;

pub use cache::{Cache, Lookup};
pub use spec::{expand, Cell, Expansion, Spec};

use crate::common::Effort;

/// Cache entry layout version; bump when the entry file format changes.
pub(crate) const CACHE_SCHEMA: f64 = 1.0;

/// Result extraction version; bump when [`cells`] extracts different or
/// differently-shaped observables (invalidates every cached cell).
const RESULT_SCHEMA: f64 = 2.0;

/// The engine's behavioral contract: the golden digests of fully seeded
/// reference runs, byte-identical since the PR 2 capture. The golden
/// regression tests (`tests/golden.rs`) assert the live engine still
/// produces exactly these, and the cache key includes them — so a change
/// to seeded engine behavior both fails the goldens and, once the
/// constants are deliberately regenerated, invalidates the result cache.
pub const ENGINE_CONTRACT: [(&str, u64); 4] = [
    ("streaming_seed_1", 0xceec_95c6_d6bb_212a),
    ("streaming_seed_2", 0x8fcd_014e_b130_7ff9),
    ("streaming_seed_2014", 0x8536_e9cb_b2eb_e94a),
    ("browse_seed_1", 0x0087_b015_cafe_1e60),
];

/// The multipath-QUIC transport's behavioral contract: the golden digests
/// of the quic page load at 0.3/8.6 Mbps with ECF, asserted by
/// `tests/quic_golden.rs`. Folded only into the keys of cells that run the
/// quic transport, so re-tuning it rolls those cells and leaves every
/// MPTCP-only cell cached.
pub const QUIC_CONTRACT: [(&str, u64); 3] = [
    ("quic_web_seed_1", 0xb7f9_ea63_e85e_1127),
    ("quic_web_seed_2", 0x8c81_a219_39d4_ec30),
    ("quic_web_seed_2014", 0x9de2_0bea_5f14_b9b5),
];

/// The contract object folded into the cache key of a cell running
/// `workload`.
pub(crate) fn contract(workload: &str) -> Value {
    contract_with(workload, &QUIC_CONTRACT)
}

fn contract_with(workload: &str, quic: &[(&str, u64)]) -> Value {
    let goldens = |table: &[(&str, u64)]| {
        Value::Object(
            table
                .iter()
                .map(|&(name, d)| (name.to_string(), Value::String(digest::hex16(d))))
                .collect(),
        )
    };
    let mut m = std::collections::BTreeMap::new();
    m.insert("cache_schema".to_string(), Value::Number(CACHE_SCHEMA));
    m.insert("result_schema".to_string(), Value::Number(RESULT_SCHEMA));
    m.insert("engine".to_string(), goldens(&ENGINE_CONTRACT));
    if workload == "quic_web" {
        m.insert("quic".to_string(), goldens(quic));
    }
    Value::Object(m)
}

/// How to run a matrix.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Which branch of the spec's effort switches to expand.
    pub effort: Effort,
    /// Cache directory (created on first store).
    pub cache_dir: PathBuf,
    /// Ignore cache contents and re-execute every cell (results are still
    /// stored, refreshing the cache).
    pub force: bool,
    /// Probe the cache and report cell counts without executing anything.
    pub dry_run: bool,
    /// Explicit shard count for executing misses; `None` uses one shard
    /// per available core. Output is identical for every value (the
    /// shard-determinism contract).
    pub workers: Option<usize>,
    /// Sink for hit/miss/invalidation counters.
    pub telemetry: TelemetryHandle,
    /// Trace directory: execute every cell without reading the cache, each
    /// with its own enabled telemetry handle, and write its event log to
    /// `<dir>/<spec>-<cell>.jsonl` and its counters to
    /// `<dir>/<spec>-<cell>.counters`. Streaming cells only: a spec with
    /// any other cell is refused before a cell runs. Results are stored as
    /// usual — tracing never changes one.
    pub trace: Option<PathBuf>,
}

impl MatrixOptions {
    /// Full-effort options with the given cache directory.
    pub fn new(cache_dir: impl Into<PathBuf>) -> MatrixOptions {
        MatrixOptions {
            effort: Effort::Full,
            cache_dir: cache_dir.into(),
            force: false,
            dry_run: false,
            workers: None,
            telemetry: TelemetryHandle::off(),
            trace: None,
        }
    }
}

/// What one matrix run did.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// The spec's name.
    pub name: String,
    /// Rendered figure (empty for dry runs).
    pub report: String,
    /// Total cells after expansion.
    pub cells: usize,
    /// Cells served from a validated cache entry.
    pub hits: usize,
    /// Cells with no usable cache entry (includes `invalid`).
    pub misses: usize,
    /// Entries found on disk but rejected by the digest re-check.
    pub invalid: usize,
    /// Cells actually executed this run (0 on a fully warm run).
    pub executed: usize,
}

impl MatrixOutcome {
    /// One-line human summary (`repro` prints this to stderr; the dry-run
    /// report builds on it).
    pub fn summary(&self) -> String {
        format!(
            "matrix {}: {} cells — {} hits, {} misses ({} invalid), executed {}",
            self.name, self.cells, self.hits, self.misses, self.invalid, self.executed
        )
    }
}

/// Expand, probe the cache, execute what's missing, and assemble the
/// figure. The returned report is byte-identical for a given (spec,
/// effort) regardless of cache state, `force`, or shard count.
pub fn run_matrix(spec: &Spec, opts: &MatrixOptions) -> Result<MatrixOutcome, String> {
    let exp = expand(spec, opts.effort)?;
    if opts.trace.is_some() {
        for (i, cell) in exp.cells.iter().enumerate() {
            let workload = cell.config.get("workload").and_then(Value::as_str);
            if workload != Some("streaming") {
                return Err(format!(
                    "--trace runs streaming cells only; {} cell {i} is a {:?} cell",
                    spec.name,
                    workload.unwrap_or_default()
                ));
            }
        }
    }
    let cache = Cache::new(&opts.cache_dir);

    // Probe phase: one slot per cell, filled from cache where allowed.
    let mut results: Vec<Option<Value>> = Vec::with_capacity(exp.cells.len());
    let mut hits = 0usize;
    let mut invalid = 0usize;
    for cell in &exp.cells {
        if opts.force || opts.trace.is_some() {
            results.push(None);
            continue;
        }
        match cache.load(cell.digest, &cell.key) {
            Lookup::Hit(v) => {
                hits += 1;
                results.push(Some(v));
            }
            Lookup::Miss => results.push(None),
            Lookup::Invalid => {
                invalid += 1;
                results.push(None);
            }
        }
    }
    let misses = exp.cells.len() - hits;
    opts.telemetry.add(Counter::MatrixCacheHits, hits as u64);
    opts.telemetry.add(Counter::MatrixCacheMisses, misses as u64);
    opts.telemetry.add(Counter::MatrixCacheInvalid, invalid as u64);

    let mut outcome = MatrixOutcome {
        name: spec.name.clone(),
        report: String::new(),
        cells: exp.cells.len(),
        hits,
        misses,
        invalid,
        executed: 0,
    };
    if opts.dry_run {
        outcome.report = format!(
            "{} (dry run: would execute {} of {} cells)\n",
            outcome.summary(),
            misses,
            exp.cells.len()
        );
        return Ok(outcome);
    }

    // Execute phase: misses only, sharded across cores. Results land back
    // in their cell's slot, so assembly order is the expansion order no
    // matter how shards interleave.
    let miss_idx: Vec<usize> = (0..exp.cells.len()).filter(|&i| results[i].is_none()).collect();
    outcome.executed = miss_idx.len();
    let run_one = |i: usize| {
        let telemetry = match opts.trace {
            Some(_) => TelemetryHandle::enabled(),
            None => TelemetryHandle::off(),
        };
        let env = cells::CellEnv { workers: opts.workers, telemetry };
        let result = cells::execute(&exp.cells[i].config, &env)?;
        if let Some(dir) = &opts.trace {
            write_trace(dir, &format!("{}-{i}", spec.name), &env.telemetry)?;
        }
        Ok(result)
    };
    // Matrix cells are independent runs — exactly the shape a population
    // shard is — so they ride the sweep executor: same worker override,
    // same load-balance accounting. A population cell runs its own sweep
    // on `opts.workers`, so missed populations run one at a time: the
    // worker budget goes to one level, not to both.
    let nested = miss_idx.iter().any(|&i| {
        exp.cells[i].config.get("workload").and_then(Value::as_str) == Some("population")
    });
    let workers = if nested { Some(1) } else { opts.workers };
    let fresh: Vec<Result<Value, String>> =
        crate::sharding::run_balanced(miss_idx.clone(), run_one, workers, &opts.telemetry);
    for (i, r) in miss_idx.into_iter().zip(fresh) {
        let r = r.map_err(|e| format!("cell {i}: {e}"))?;
        cache.store(exp.cells[i].digest, &exp.cells[i].key, &r)?;
        results[i] = Some(r);
    }

    let results: Vec<Value> = results.into_iter().map(|r| r.expect("slot filled")).collect();
    outcome.report = figures::render(spec, &exp, &results)?;
    Ok(outcome)
}

/// Write one traced cell's event log (`<stem>.jsonl`) and counters
/// (`<stem>.counters`: one `name=value` line per counter, then
/// `events_captured` and `events_overflowed`).
fn write_trace(dir: &Path, stem: &str, tel: &TelemetryHandle) -> Result<(), String> {
    let events = tel.events();
    let mut counters: String =
        tel.counters().iter().map(|(name, value)| format!("{name}={value}\n")).collect();
    counters.push_str(&format!("events_captured={}\n", events.len()));
    counters.push_str(&format!("events_overflowed={}\n", tel.overflow()));
    let write = |ext: &str, text: &str| {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write("jsonl", &telemetry::export::to_jsonl(&events))?;
    write("counters", &counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_stable_and_canonical() {
        // The contract must serialize identically across calls (it is part
        // of every cache key).
        let a = testkit::json::canonical(&contract("streaming"));
        let b = testkit::json::canonical(&contract("streaming"));
        assert_eq!(a, b);
        for (name, _) in ENGINE_CONTRACT {
            assert!(a.contains(name), "contract lacks {name}");
        }
        assert!(a.contains("result_schema"));
        assert!(!a.contains("quic"), "a streaming cell runs no quic code: {a}");
    }

    #[test]
    fn quic_goldens_key_the_quic_web_cells() {
        let spec = crate::find("quic_web").unwrap().spec().unwrap();
        let cell = expand(&spec, Effort::Quick).unwrap().cells.swap_remove(0);
        let digest_with = |quic: &[(&str, u64)]| {
            let mut key = cell.key.clone();
            if let Value::Object(m) = &mut key {
                m.insert("contract".to_string(), contract_with("quic_web", quic));
            }
            testkit::digest::canonical_digest(&key)
        };
        assert_eq!(digest_with(&QUIC_CONTRACT), cell.digest);
        let mut retuned = QUIC_CONTRACT;
        retuned[0].1 ^= 1;
        assert_ne!(digest_with(&retuned), cell.digest, "a quic change must roll quic_web cells");
    }

    #[test]
    fn summary_mentions_every_count() {
        let o = MatrixOutcome {
            name: "x".into(),
            report: String::new(),
            cells: 9,
            hits: 4,
            misses: 5,
            invalid: 2,
            executed: 5,
        };
        let s = o.summary();
        for needle in ["9 cells", "4 hits", "5 misses", "2 invalid", "executed 5"] {
            assert!(s.contains(needle), "summary lacks {needle}: {s}");
        }
    }
}
