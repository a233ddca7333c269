//! Experiment specs: JSON schema, effort resolution, and deterministic
//! expansion into cells.
//!
//! A spec is a JSON document (parsed with `testkit::json`):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "dyn_burstloss",
//!   "figure": "dyn_burstloss",
//!   "base": { "workload": "streaming", "wifi_mbps": 1.7, "lte_mbps": 8.6,
//!             "video_secs": {"full": 600, "quick": 60} },
//!   "blocks": [
//!     { "axes": [
//!         {"key": "loss", "values": [ {"loss": {...}}, ... ]},
//!         {"key": "scheduler", "values": ["default", "blest", "ecf"]}
//!       ],
//!       "seeds": {"base": 200, "count": {"full": 5, "quick": 1}} }
//!   ]
//! }
//! ```
//!
//! * Any node of the form `{"full": X, "quick": Y}` is an *effort switch*
//!   resolved during expansion, so one spec serves both report and smoke
//!   sizing while the digested cell configs contain only concrete values.
//! * A block expands as nested loops over its axes in declaration order
//!   (first axis outermost) with the seed loop innermost.
//! * An axis value that is an object is merged into the cell config
//!   (letting one axis set several keys, e.g. a scenario with its seeds);
//!   any other value is stored under the axis `key`.
//! * Blocks concatenate in order. The resulting cell list *is* the merge
//!   order: figures consume results by cell index, never by completion
//!   order, which is what makes output independent of sharding. A spec
//!   with no blocks has no cells (Table 1 renders constants).

use std::collections::BTreeMap;

use testkit::digest::canonical_digest;
use testkit::json::{self, Value};

use super::contract;
use crate::common::Effort;

/// A parsed (but not yet expanded) experiment spec.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Spec name; also the results file stem (`results/<name>.txt`).
    pub name: String,
    /// Figure renderer id (see [`super::figures`]).
    pub figure: String,
    /// The whole document, for expansion.
    pub doc: Value,
}

impl Spec {
    /// Parse a spec document.
    pub fn from_json(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = json::number(&doc, "schema")?;
        if schema != 1.0 {
            return Err(format!("spec schema must be 1, got {schema}"));
        }
        let name = json::string(&doc, "name")?.to_string();
        let figure = json::string(&doc, "figure")?.to_string();
        if json::field(&doc, "blocks")?.as_array().is_none() {
            return Err("\"blocks\" must be an array".to_string());
        }
        Ok(Spec { name, figure, doc })
    }

    /// Load a spec from a file, prefixing errors with the path.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Spec, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One expanded grid point: a concrete, effort-resolved run config, its
/// full cache key (config + contract), and the key's digest.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The resolved run configuration (what the cell executor runs).
    pub config: Value,
    /// `{"cell": config, "contract": ...}` — the digested key material.
    pub key: Value,
    /// FNV-1a64 over the canonical serialization of `key`.
    pub digest: u64,
}

/// The shape of one expanded block, for figure renderers that need to map
/// the flat cell list back onto grid coordinates.
#[derive(Debug, Clone)]
pub struct BlockShape {
    /// Index of the block's first cell in the flat list.
    pub start: usize,
    /// Number of cells in the block.
    pub len: usize,
    /// Length of each axis, in declaration order (outermost first).
    pub axis_lens: Vec<usize>,
    /// Seeds per grid point (the innermost stride); 1 when the block has
    /// no seed loop.
    pub seeds: usize,
}

/// A fully expanded spec: cells in merge order plus per-block shapes.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Every cell, in the fixed merge order.
    pub cells: Vec<Cell>,
    /// One entry per spec block.
    pub blocks: Vec<BlockShape>,
}

/// Is this object an effort switch (`{"full": .., "quick": ..}`)?
fn effort_branch(m: &BTreeMap<String, Value>, effort: Effort) -> Option<&Value> {
    if m.len() == 2 && m.contains_key("full") && m.contains_key("quick") {
        Some(match effort {
            Effort::Full => &m["full"],
            Effort::Quick => &m["quick"],
        })
    } else {
        None
    }
}

/// Recursively resolve effort switches, leaving everything else intact.
fn resolve(v: &Value, effort: Effort) -> Value {
    match v {
        Value::Object(m) => {
            if let Some(branch) = effort_branch(m, effort) {
                return resolve(branch, effort);
            }
            Value::Object(m.iter().map(|(k, val)| (k.clone(), resolve(val, effort))).collect())
        }
        Value::Array(items) => Value::Array(items.iter().map(|x| resolve(x, effort)).collect()),
        other => other.clone(),
    }
}

/// Merge `frag` (must be an object) into `into`, overwriting keys.
fn merge(into: &mut BTreeMap<String, Value>, frag: &Value) -> Result<(), String> {
    let obj = frag.as_object().ok_or("merge fragment must be an object")?;
    for (k, v) in obj {
        into.insert(k.clone(), v.clone());
    }
    Ok(())
}

/// Expand a spec at the given effort into its deterministic cell list.
pub fn expand(spec: &Spec, effort: Effort) -> Result<Expansion, String> {
    let base = match spec.doc.get("base") {
        Some(b) => resolve(b, effort),
        None => Value::Object(BTreeMap::new()),
    };
    let base = base.as_object().ok_or("\"base\" must be an object")?.clone();

    let mut cells = Vec::new();
    let mut blocks = Vec::new();
    let block_docs = spec.doc.get("blocks").and_then(Value::as_array).unwrap_or(&[]);
    for (bi, block) in block_docs.iter().enumerate() {
        let err = |m: String| format!("blocks[{bi}]: {m}");
        let mut block_base = base.clone();
        if let Some(frag) = block.get("base") {
            merge(&mut block_base, &resolve(frag, effort)).map_err(err)?;
        }

        // Axes: (key, resolved values) in declaration order.
        let mut axes: Vec<(String, Vec<Value>)> = Vec::new();
        if let Some(axis_docs) = block.get("axes") {
            let axis_docs =
                axis_docs.as_array().ok_or_else(|| err("\"axes\" must be an array".into()))?;
            for (ai, axis) in axis_docs.iter().enumerate() {
                let axis_err = |e: String| err(format!("axes[{ai}]: {e}"));
                let key = json::string(axis, "key").map_err(axis_err)?.to_string();
                let values = resolve(json::field(axis, "values").map_err(axis_err)?, effort);
                let values = values
                    .as_array()
                    .ok_or_else(|| err(format!("axes[{ai}].values must resolve to an array")))?
                    .to_vec();
                if values.is_empty() {
                    return Err(err(format!("axes[{ai}].values is empty")));
                }
                axes.push((key, values));
            }
        }

        // Seeds: optional innermost loop.
        let seeds: Vec<Option<u64>> = match block.get("seeds") {
            None => vec![None],
            Some(s) => {
                let s = resolve(s, effort);
                let uint =
                    |key: &str| json::uint(&s, key).map_err(|e| err(format!("\"seeds\": {e}")));
                let (base, count) = (uint("base")?, uint("count")?);
                if count == 0 {
                    return Err(err("\"seeds\" \"count\" must be at least 1".into()));
                }
                (0..count).map(|i| Some(base + i)).collect()
            }
        };

        let start = cells.len();
        // Odometer over axes (first axis outermost), seeds innermost.
        let axis_lens: Vec<usize> = axes.iter().map(|(_, v)| v.len()).collect();
        let grid_points: usize = axis_lens.iter().product::<usize>().max(1);
        for point in 0..grid_points {
            // Decompose `point` into per-axis indices, first axis slowest.
            let mut idx = vec![0usize; axes.len()];
            let mut rem = point;
            for a in (0..axes.len()).rev() {
                idx[a] = rem % axis_lens[a];
                rem /= axis_lens[a];
            }
            for &seed in &seeds {
                let mut cfg = block_base.clone();
                for (a, (key, values)) in axes.iter().enumerate() {
                    let v = &values[idx[a]];
                    match v {
                        Value::Object(_) => merge(&mut cfg, v).map_err(&err)?,
                        other => {
                            cfg.insert(key.clone(), other.clone());
                        }
                    }
                }
                if let Some(seed) = seed {
                    cfg.insert("seed".to_string(), Value::Number(seed as f64));
                }
                if !cfg.contains_key("seed") {
                    return Err(err(
                        "cell has no \"seed\" (add a seeds block or seed-bearing axis)".into(),
                    ));
                }
                let contract = contract(cfg.get("workload").and_then(Value::as_str).unwrap_or(""));
                let config = Value::Object(cfg);
                let mut key = BTreeMap::new();
                key.insert("cell".to_string(), config.clone());
                key.insert("contract".to_string(), contract);
                let key = Value::Object(key);
                let digest = canonical_digest(&key);
                cells.push(Cell { config, key, digest });
            }
        }
        blocks.push(BlockShape { start, len: cells.len() - start, axis_lens, seeds: seeds.len() });
    }
    Ok(Expansion { cells, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"{
        "schema": 1, "name": "t", "figure": "generic",
        "base": {"workload": "streaming", "wifi_mbps": 1.0, "lte_mbps": 2.0,
                 "video_secs": {"full": 100, "quick": 10}},
        "blocks": [
            {"axes": [
                {"key": "scheduler", "values": ["default", "ecf"]},
                {"key": "cc", "values": {"full": ["lia", "olia", "reno"],
                                          "quick": ["lia"]}}
             ],
             "seeds": {"base": 40, "count": {"full": 3, "quick": 2}}}
        ]
    }"#;

    #[test]
    fn expansion_order_is_axes_then_seeds() {
        let spec = Spec::from_json(TINY).unwrap();
        let exp = expand(&spec, Effort::Quick).unwrap();
        assert_eq!(exp.cells.len(), 4); // 2 scheds × 1 cc × 2 seeds
        let get = |i: usize, k: &str| exp.cells[i].config.get(k).cloned().unwrap();
        assert_eq!(get(0, "scheduler"), Value::String("default".into()));
        assert_eq!(get(0, "seed"), Value::Number(40.0));
        assert_eq!(get(1, "seed"), Value::Number(41.0));
        assert_eq!(get(2, "scheduler"), Value::String("ecf".into()));
        // Effort switch resolved into concrete numbers.
        assert_eq!(get(0, "video_secs"), Value::Number(10.0));
        let shape = &exp.blocks[0];
        assert_eq!((shape.start, shape.len), (0, 4));
        assert_eq!(shape.axis_lens, vec![2, 1]);
        assert_eq!(shape.seeds, 2);
    }

    #[test]
    fn full_effort_widens_the_grid() {
        let spec = Spec::from_json(TINY).unwrap();
        let exp = expand(&spec, Effort::Full).unwrap();
        assert_eq!(exp.cells.len(), 2 * 3 * 3);
        assert_eq!(exp.cells[0].config.get("video_secs"), Some(&Value::Number(100.0)));
    }

    #[test]
    fn digests_are_unique_per_cell_and_stable() {
        let spec = Spec::from_json(TINY).unwrap();
        let a = expand(&spec, Effort::Full).unwrap();
        let b = expand(&spec, Effort::Full).unwrap();
        let da: Vec<u64> = a.cells.iter().map(|c| c.digest).collect();
        let db: Vec<u64> = b.cells.iter().map(|c| c.digest).collect();
        assert_eq!(da, db, "expansion must be deterministic");
        let mut uniq = da.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), da.len(), "cells must have distinct digests");
        // Quick and Full cells never share keys (video_secs differs).
        let q = expand(&spec, Effort::Quick).unwrap();
        assert!(q.cells.iter().all(|c| !da.contains(&c.digest)));
    }

    #[test]
    fn object_axis_values_merge_keys() {
        let spec = Spec::from_json(
            r#"{"schema": 1, "name": "m", "figure": "generic",
                "base": {"workload": "streaming"},
                "blocks": [{"axes": [{"key": "scenario", "values": [
                    {"seed": 3, "scenario": {"kind": "static"}},
                    {"seed": 4, "scenario": {"kind": "static"}}
                ]}]}]}"#,
        )
        .unwrap();
        let exp = expand(&spec, Effort::Quick).unwrap();
        assert_eq!(exp.cells.len(), 2);
        assert_eq!(exp.cells[1].config.get("seed"), Some(&Value::Number(4.0)));
        assert!(exp.cells[0].config.get("scenario").is_some());
    }

    #[test]
    fn missing_seed_is_an_error() {
        let spec = Spec::from_json(
            r#"{"schema": 1, "name": "m", "figure": "generic",
                "base": {}, "blocks": [{"axes": [{"key": "x", "values": [1]}]}]}"#,
        )
        .unwrap();
        let err = expand(&spec, Effort::Quick).unwrap_err();
        assert!(err.contains("seed"), "unexpected error: {err}");
    }

    #[test]
    fn seeds_must_be_exact_integers_and_at_least_one() {
        let with_seeds = |seeds: &str| {
            let spec = Spec::from_json(&format!(
                r#"{{"schema": 1, "name": "m", "figure": "generic", "base": {{}},
                    "blocks": [{{"seeds": {seeds}}}]}}"#
            ))
            .unwrap();
            expand(&spec, Effort::Quick).map(|exp| exp.cells.len())
        };
        assert_eq!(with_seeds(r#"{"base": 3, "count": 2}"#), Ok(2));
        for (seeds, field) in [
            (r#"{"base": -1, "count": 2}"#, "base"),
            (r#"{"base": 0.5, "count": 2}"#, "base"),
            (r#"{"base": 1, "count": 1.5}"#, "count"),
            (r#"{"base": 1, "count": "2"}"#, "count"),
            (r#"{"count": 2}"#, "base"),
        ] {
            let err = with_seeds(seeds).unwrap_err();
            assert!(err.starts_with("blocks[0]: \"seeds\""), "{seeds}: {err}");
            assert!(err.contains(&format!("\"{field}\"")), "{seeds}: {err}");
        }
        let err = with_seeds(r#"{"base": 1, "count": 0}"#).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        assert!(Spec::from_json("{}").unwrap_err().contains("schema"));
        assert!(Spec::from_json(r#"{"schema": 1, "name": "x"}"#).unwrap_err().contains("figure"));
        assert!(Spec::from_json(r#"{"schema": 1, "name": "x", "figure": "y"}"#)
            .unwrap_err()
            .contains("blocks"));
        assert!(Spec::from_file("/nonexistent/spec.json")
            .unwrap_err()
            .contains("/nonexistent/spec.json"));
    }
}
