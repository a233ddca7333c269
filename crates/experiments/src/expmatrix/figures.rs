//! Figure assembly: fold cached + fresh cell results into report text.
//!
//! Renderers consume results by cell index in the fixed expansion order
//! (never by completion order) and read grid coordinates from the spec's
//! [`BlockShape`]s, so the same renderer serves any ladder size the spec
//! resolves to. This is the only code that renders the spec-backed
//! figures; `tests/matrix.rs` pins each one's Quick report by digest.
//! Seeds aggregate as the mean of per-seed values.

use metrics::render_table;
use testkit::json::Value;

use super::spec::{BlockShape, Expansion, Spec};

/// Render the spec's figure from the per-cell results.
pub fn render(spec: &Spec, exp: &Expansion, results: &[Value]) -> Result<String, String> {
    if results.len() != exp.cells.len() {
        return Err(format!(
            "figure {}: {} results for {} cells",
            spec.figure,
            results.len(),
            exp.cells.len()
        ));
    }
    match spec.figure.as_str() {
        "fig3" => fig3(exp, results),
        "fig16" => fig16(exp, results),
        "fig17" => fig17(exp, results),
        "dyn_handover" => dyn_handover(exp, results),
        "dyn_burstloss" => dyn_burstloss(exp, results),
        "quic_web" => quic_web(exp, results),
        "generic" => generic(spec, exp, results),
        other => Err(format!("unknown figure renderer {other:?}")),
    }
}

/// One scalar out of a cell result.
fn scalar(results: &[Value], i: usize, key: &str) -> Result<f64, String> {
    results
        .get(i)
        .and_then(|r| r.get("scalars"))
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("cell {i}: result lacks scalar {key:?}"))
}

/// One numeric field out of a cell's *config* (for row labels).
fn config_num(exp: &Expansion, i: usize, path: &[&str]) -> Result<f64, String> {
    let mut v = &exp.cells[i].config;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("cell {i}: config lacks {}", path.join(".")))?;
    }
    v.as_f64().ok_or_else(|| format!("cell {i}: {} is not a number", path.join(".")))
}

/// The single block of a single-block spec, with its axis rank checked.
fn sole_block<'e>(exp: &'e Expansion, figure: &str, axes: usize) -> Result<&'e BlockShape, String> {
    if exp.blocks.len() != 1 || exp.blocks[0].axis_lens.len() != axes {
        return Err(format!(
            "{figure} expects one block with {axes} axes, got {:?}",
            exp.blocks.iter().map(|b| b.axis_lens.clone()).collect::<Vec<_>>()
        ));
    }
    Ok(&exp.blocks[0])
}

/// Fig 3: the single sndbuf-trace cell; rows were pre-rendered by the
/// cell executor.
fn fig3(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    if exp.cells.len() != 1 {
        return Err(format!("fig3 expects exactly 1 cell, got {}", exp.cells.len()));
    }
    let rows = results[0]
        .get("series")
        .and_then(|s| s.get("sndbuf_rows"))
        .and_then(Value::as_array)
        .ok_or("fig3: result lacks series.sndbuf_rows")?;
    let mut s = String::from(
        "Fig 3: Send-buffer occupancy (KB, incl. in-flight), 0.3 Mbps WiFi / 8.6 Mbps LTE\n\
         (paper: LTE empties quickly and sits idle while WiFi stays occupied)\n\n\
         time_s\twifi_KB\tlte_KB\n",
    );
    for row in rows {
        let row = row.as_str().ok_or("fig3: sndbuf_rows entry is not a string")?;
        s.push_str(row);
        s.push('\n');
    }
    Ok(s)
}

/// Fig 16: scenario × scheduler grid of average throughputs.
fn fig16(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let block = sole_block(exp, "fig16", 2)?;
    let (n_sc, n_k) = (block.axis_lens[0], block.axis_lens[1]);
    let tps: Vec<f64> = (0..block.len)
        .map(|i| scalar(results, block.start + i, "avg_throughput"))
        .collect::<Result<_, _>>()?;
    let mut s = String::from(
        "Fig 16: Streaming throughput under random bandwidth changes (mean interval 40 s)\n\
         (paper: ECF highest in every scenario; BLEST ~default)\n\n",
    );
    let mut rows = Vec::new();
    for sc in 0..n_sc {
        let mut row = vec![format!("{}", sc + 1)];
        for k in 0..n_k {
            row.push(format!("{:.2}", tps[sc * n_k + k]));
        }
        rows.push(row);
    }
    s.push_str(&render_table(&["scenario", "default", "blest", "ecf"], &rows));
    let mean = |k: usize| {
        metrics::mean(&(0..n_sc).map(|sc| tps[sc * n_k + k]).collect::<Vec<_>>())
    };
    s.push_str(&format!(
        "\nmeans: default={:.2}  blest={:.2}  ecf={:.2} Mbps\n",
        mean(0),
        mean(1),
        mean(2)
    ));
    Ok(s)
}

/// Fig 17: the two chunk-throughput traces (default, ECF) zipped.
fn fig17(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    if exp.cells.len() != 2 {
        return Err(format!("fig17 expects exactly 2 cells, got {}", exp.cells.len()));
    }
    let trace = |i: usize| -> Result<Vec<f64>, String> {
        results[i]
            .get("series")
            .and_then(|s| s.get("chunk_throughputs"))
            .and_then(Value::as_array)
            .ok_or_else(|| format!("fig17: cell {i} lacks series.chunk_throughputs"))?
            .iter()
            .map(|p| {
                p.as_array()
                    .and_then(|xy| xy.get(1))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("fig17: cell {i} has a malformed chunk point"))
            })
            .collect()
    };
    let (default, ecf) = (trace(0)?, trace(1)?);
    let mut s = String::from(
        "Fig 17: Per-chunk throughput, random scenario 6 (default vs ECF)\n\
         (paper: ECF matches or beats default on every chunk, up to 2x)\n\n\
         chunk\tdefault_Mbps\tecf_Mbps\n",
    );
    for (i, (d, e)) in default.iter().zip(&ecf).enumerate() {
        s.push_str(&format!("{i}\t{d:.2}\t{e:.2}\n"));
    }
    Ok(s)
}

/// dyn_handover: outage-ladder × scheduler table plus ladder means.
fn dyn_handover(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let block = sole_block(exp, "dyn_handover", 2)?;
    let (n_d, n_k, per_cell) = (block.axis_lens[0], block.axis_lens[1], block.seeds);
    let bitrates: Vec<f64> = (0..block.len)
        .map(|i| scalar(results, block.start + i, "avg_bitrate"))
        .collect::<Result<_, _>>()?;
    let mut s = String::from(
        "dyn_handover: streaming bitrate under periodic LTE blackouts\n\
         (1.7 Mbps WiFi + 8.6 Mbps LTE; LTE dark for the given duration\n\
          every 60 s; mean encoded bitrate in Mbps, higher is better)\n\n",
    );
    let mut rows = Vec::new();
    for di in 0..n_d {
        let first = block.start + di * n_k * per_cell;
        let d = config_num(exp, first, &["scenario", "outage_secs"])? as u64;
        let mut row = vec![format!("{d}")];
        for ki in 0..n_k {
            let base = (di * n_k + ki) * per_cell;
            row.push(format!("{:.3}", metrics::mean(&bitrates[base..base + per_cell])));
        }
        rows.push(row);
    }
    s.push_str(&render_table(&["outage_s", "default", "blest", "ecf"], &rows));
    let col_mean = |ki: usize| {
        let vals: Vec<f64> = (0..n_d)
            .flat_map(|di| {
                let base = (di * n_k + ki) * per_cell;
                bitrates[base..base + per_cell].to_vec()
            })
            .collect();
        metrics::mean(&vals)
    };
    s.push_str(&format!(
        "\nladder means: default={:.3}  blest={:.3}  ecf={:.3} Mbps\n",
        col_mean(0),
        col_mean(1),
        col_mean(2)
    ));
    Ok(s)
}

/// dyn_burstloss: the two loss sweeps (average loss, then burst length).
fn dyn_burstloss(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    if exp.blocks.len() != 2 {
        return Err(format!("dyn_burstloss expects 2 blocks, got {}", exp.blocks.len()));
    }
    let sweep = |block: &BlockShape| -> Result<Vec<f64>, String> {
        (0..block.len)
            .map(|i| scalar(results, block.start + i, "avg_throughput"))
            .collect()
    };
    let table = |block: &BlockShape,
                 values: &[f64],
                 label: &dyn Fn(usize) -> Result<String, String>|
     -> Result<Vec<Vec<String>>, String> {
        let (n_l, n_k, per_cell) = (block.axis_lens[0], block.axis_lens[1], block.seeds);
        let mut rows = Vec::new();
        for li in 0..n_l {
            let mut row = vec![label(li)?];
            for ki in 0..n_k {
                let base = (li * n_k + ki) * per_cell;
                row.push(format!("{:.3}", metrics::mean(&values[base..base + per_cell])));
            }
            rows.push(row);
        }
        Ok(rows)
    };
    let rung = |block: &BlockShape, li: usize| {
        block.start + li * block.axis_lens[1] * block.seeds
    };

    let (loss_block, burst_block) = (&exp.blocks[0], &exp.blocks[1]);
    let mut s = String::from(
        "dyn_burstloss: streaming throughput under bursty LTE loss\n\
         (1.7 Mbps WiFi + 8.6 Mbps LTE; Gilbert-Elliott two-state loss on\n\
          the LTE forward link; mean chunk throughput in Mbps)\n\n\
         Sweep 1: average loss at mean burst length 8 packets\n",
    );
    s.push_str(&render_table(
        &["avg_loss_%", "default", "blest", "ecf"],
        &table(loss_block, &sweep(loss_block)?, &|li| {
            let avg = config_num(exp, rung(loss_block, li), &["loss", "avg"])?;
            Ok(format!("{:.1}", avg * 100.0))
        })?,
    ));
    s.push_str("\nSweep 2: burst length at fixed 1% average loss\n");
    s.push_str(&render_table(
        &["mean_burst_pkts", "default", "blest", "ecf"],
        &table(burst_block, &sweep(burst_block)?, &|li| {
            let burst = config_num(exp, rung(burst_block, li), &["loss", "mean_burst"])?;
            Ok(format!("{burst:.0}"))
        })?,
    ));
    Ok(s)
}

/// quic_web: one table per bandwidth config with a row per (scheduler,
/// transport); every cell carries both transports, so the rows of one
/// scheduler are a paired comparison.
fn quic_web(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    /// Column name (the `<transport>_<column>` scalar) and its precision.
    const COLUMNS: [(&str, usize); 6] = [
        ("obj_mean_s", 3),
        ("obj_median_s", 3),
        ("obj_p99_s", 3),
        ("plt_s", 3),
        ("ooo_mean_s", 4),
        ("ooo_p99_s", 4),
    ];
    let block = sole_block(exp, "quic_web", 2)?;
    let (n_cfg, n_k, per_cell) = (block.axis_lens[0], block.axis_lens[1], block.seeds);
    let mut header = vec!["transport", "scheduler"];
    header.extend(COLUMNS.map(|(name, _)| name));
    let mut s = String::from(
        "quic_web: 107-object page — 1 MPQUIC connection (107 streams) vs\n\
         6 MPTCP connections, same packet schedulers on both transports\n\
         (expectation: QUIC's per-stream reassembly shrinks the OOO tail;\n\
         ECF narrows the heterogeneous-path completion gap on both)\n",
    );
    for ci in 0..n_cfg {
        let first = block.start + ci * n_k * per_cell;
        let wifi = config_num(exp, first, &["wifi_mbps"])?;
        let lte = config_num(exp, first, &["lte_mbps"])?;
        s.push_str(&format!("\n--- {wifi:.1} Mbps WiFi / {lte:.1} Mbps LTE ---\n"));
        let mut rows = Vec::new();
        for ki in 0..n_k {
            let base = block.start + (ci * n_k + ki) * per_cell;
            let sched = exp.cells[base].config.get("scheduler").and_then(Value::as_str);
            for transport in ["mptcp", "quic"] {
                let mut row = vec![transport.to_string(), sched.unwrap_or("-").to_string()];
                for (name, precision) in COLUMNS {
                    let key = format!("{transport}_{name}");
                    let vals: Vec<f64> = (0..per_cell)
                        .map(|si| scalar(results, base + si, &key))
                        .collect::<Result<_, _>>()?;
                    row.push(format!("{:.precision$}", metrics::mean(&vals)));
                }
                rows.push(row);
            }
        }
        s.push_str(&render_table(&header, &rows));
    }
    Ok(s)
}

/// Fallback renderer for new specs: one row per cell with its headline
/// scalars, in expansion order. Deterministic, shape-agnostic.
fn generic(spec: &Spec, exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let mut s = format!("{}: {} cells\n", spec.name, exp.cells.len());
    s.push_str("cell\tscheduler\tcc\tseed\tavg_bitrate\tavg_throughput\n");
    for i in 0..exp.cells.len() {
        let cfg = &exp.cells[i].config;
        let label = |key: &str| {
            cfg.get(key).and_then(Value::as_str).unwrap_or("-").to_string()
        };
        let seed = config_num(exp, i, &["seed"])? as u64;
        s.push_str(&format!(
            "{i}\t{}\t{}\t{seed}\t{:.3}\t{:.3}\n",
            label("scheduler"),
            label("cc"),
            scalar(results, i, "avg_bitrate")?,
            scalar(results, i, "avg_throughput")?,
        ));
    }
    Ok(s)
}
