//! Figure assembly: fold cached + fresh cell results into report text.
//!
//! Renderers consume results by cell index in the fixed expansion order
//! (never by completion order). A `Grid` — one of the spec's
//! [`BlockShape`]s with the results — is the only code that maps grid
//! coordinates onto that order, so the same renderer serves any ladder size
//! the spec resolves to; it also reads labels and config numbers and takes
//! the seed statistics. `by_scheduler` builds the table most comparison
//! figures print (one row per point of the leading axes, one column per
//! scheduler); each renderer keeps only its title and wording. This is the
//! only code that renders the paper's figures; `tests/matrix.rs` pins every
//! one's Quick report by digest. Seeds aggregate as the mean of per-seed
//! values, except for distributions: those pool every seed's raw samples
//! before taking quantiles. Column labels (schedulers, controllers) come
//! from the cells' configs, never from an axis position — a scheduler that
//! is not a plain name prints as its canonical JSON — and the figures that
//! compare ECF with the default find both by label, so a user's spec may
//! order its axes freely.

use std::ops::Range;

use metrics::{render_table, Cdf, Heatmap, TimeSeries};
use testkit::json::Value;

use super::spec::{BlockShape, Expansion, Spec};
use crate::common::fmt_bw;

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
    let r = results;
    match spec.figure.as_str() {
        "tab1" => Ok(tab1()),
        "fig1" => fig1(exp, r),
        "fig2" => fig2(exp, r),
        "fig3" => fig3(exp, r),
        "fig5" => fig5(exp, r),
        "fig6" => fig6(exp, r),
        "fig7" => fig7(exp, r),
        "tab2" => tab2(exp, r),
        "fig9" => fig9(exp, r),
        "fig11" => fig11(exp, r),
        "tab3" => tab3(exp, r),
        "fig13" => fig13(exp, r),
        "fig14" => fig14(exp, r),
        "fig15" => fig15(exp, r),
        "fig16" => fig16(exp, r),
        "fig17" => fig17(exp, r),
        "fig18" => fig18(exp, r),
        "fig19" => fig19(exp, r),
        "fig20" => fig20(exp, r),
        "fig21" => fig21(exp, r),
        "fig22" => fig22(exp, r),
        "fig23" => fig23(exp, r),
        "ablation_beta" => ablation_beta(exp, r),
        "ablation_components" => ablation_components(exp, r),
        "ablation_cc" => ablation_cc(exp, r),
        "extension_sttf" => extension_sttf(exp, r),
        "dyn_handover" => dyn_handover(exp, r),
        "dyn_burstloss" => dyn_burstloss(exp, r),
        "quic_web" => quic_web(exp, r),
        "population" => population(spec, exp, r),
        "generic" => generic(spec, exp, r),
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

/// One series out of a cell result.
fn series<'r>(results: &'r [Value], i: usize, key: &str) -> Result<&'r [Value], String> {
    results
        .get(i)
        .and_then(|r| r.get("series"))
        .and_then(|s| s.get(key))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("cell {i}: result lacks series {key:?}"))
}

/// A series of numbers.
fn numbers(results: &[Value], i: usize, key: &str) -> Result<Vec<f64>, String> {
    series(results, i, key)?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("cell {i}: {key:?} holds a non-number")))
        .collect()
}

/// A series of `[t, v]` points (`None` if any point is malformed).
fn time_series(v: &[Value]) -> Option<TimeSeries> {
    let points = v
        .iter()
        .map(|p| match p.as_array()? {
            [t, v] => Some((t.as_f64()?, v.as_f64()?)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some(TimeSeries { points })
}

/// Measured / ideal bit rate of one cell, capped at 1.
fn bitrate_ratio(results: &[Value], i: usize) -> Result<f64, String> {
    Ok((scalar(results, i, "avg_bitrate")? / scalar(results, i, "ideal_bitrate")?).min(1.0))
}

/// A config value as a column or row label: a string as itself, anything
/// else (an `{"ecf_with": ..}` or `{"single_path": i}` scheduler) as its
/// canonical JSON, so two variants never print alike.
fn label_of(v: &Value) -> String {
    v.as_str().map_or_else(|| testkit::json::canonical(v), str::to_string)
}

/// One block of an expansion together with the per-cell results: the only
/// code that maps grid coordinates onto the flat cell list. A point `at`
/// lists axis coordinates outermost first; missing trailing coordinates
/// read 0, so `&[b]` is the first point with the outermost axis at `b`.
struct Grid<'e> {
    exp: &'e Expansion,
    block: &'e BlockShape,
    results: &'e [Value],
}

impl<'e> Grid<'e> {
    /// `block` of `exp`, with its axis count checked.
    fn new(
        exp: &'e Expansion,
        results: &'e [Value],
        block: &'e BlockShape,
        figure: &str,
        axes: usize,
    ) -> Result<Self, String> {
        if block.axis_lens.len() != axes {
            return Err(format!(
                "{figure} expects blocks with {axes} axes, got {:?}",
                block.axis_lens
            ));
        }
        Ok(Grid { exp, block, results })
    }

    /// The single block of a single-block spec, with its axis count checked.
    fn sole(
        exp: &'e Expansion,
        results: &'e [Value],
        figure: &str,
        axes: usize,
    ) -> Result<Self, String> {
        match exp.blocks.as_slice() {
            [block] => Grid::new(exp, results, block, figure, axes),
            blocks => Err(format!("{figure} expects one block, got {}", blocks.len())),
        }
    }

    /// Number of values on `axis`.
    fn len(&self, axis: usize) -> usize {
        self.block.axis_lens[axis]
    }

    /// The cells of grid point `at`, one per seed.
    fn cells(&self, at: &[usize]) -> Range<usize> {
        let lens = self.block.axis_lens.iter().enumerate();
        let flat = lens.fold(0, |acc, (d, &len)| acc * len + at.get(d).copied().unwrap_or(0));
        let first = self.block.start + flat * self.block.seeds;
        first..first + self.block.seeds
    }

    /// Mean of `value(cell)` over the seeds of `at`.
    fn mean(
        &self,
        at: &[usize],
        value: impl Fn(usize) -> Result<f64, String>,
    ) -> Result<f64, String> {
        let vals: Vec<f64> = self.cells(at).map(value).collect::<Result<_, _>>()?;
        Ok(metrics::mean(&vals))
    }

    /// Seed-mean of scalar `key` at `at`.
    fn scalar(&self, at: &[usize], key: &str) -> Result<f64, String> {
        self.mean(at, |i| scalar(self.results, i, key))
    }

    /// The samples of series `key` at `at`, every seed's pooled into one
    /// distribution.
    fn pooled(&self, at: &[usize], key: &str) -> Result<Cdf, String> {
        let mut all = Vec::new();
        for i in self.cells(at) {
            all.extend(numbers(self.results, i, key)?);
        }
        Ok(Cdf::from_samples(all))
    }

    /// The config value at `path` of the point `at`.
    fn config(&self, at: &[usize], path: &[&str]) -> Result<&'e Value, String> {
        let i = self.cells(at).start;
        let mut v = &self.exp.cells[i].config;
        for key in path {
            v = v.get(key).ok_or_else(|| format!("cell {i}: config lacks {}", path.join(".")))?;
        }
        Ok(v)
    }

    /// A numeric config field of the point `at` (for row labels).
    fn num(&self, at: &[usize], path: &[&str]) -> Result<f64, String> {
        self.config(at, path)?.as_f64().ok_or_else(|| {
            format!("cell {}: {} is not a number", self.cells(at).start, path.join("."))
        })
    }

    /// The `key` label (a scheduler or cc) of the point `at`.
    fn label(&self, at: &[usize], key: &str) -> Result<String, String> {
        Ok(label_of(self.config(at, &[key])?))
    }

    /// The `key` label of every value on `axis`, the other coordinates at 0.
    fn labels(&self, axis: usize, key: &str) -> Result<Vec<String>, String> {
        let mut at = vec![0; axis + 1];
        (0..self.len(axis))
            .map(|k| {
                at[axis] = k;
                self.label(&at, key)
            })
            .collect()
    }

    /// "wifi-lte" as the paper writes a bandwidth pair ("0.3-8.6").
    fn pair(&self, at: &[usize]) -> Result<String, String> {
        let wifi = self.num(at, &["wifi_mbps"])?;
        let lte = self.num(at, &["lte_mbps"])?;
        Ok(format!("{}-{}", fmt_bw(wifi), fmt_bw(lte)))
    }

    /// Every point of the leading `n` axes, in expansion order.
    fn points(&self, n: usize) -> Vec<Vec<usize>> {
        let lens = &self.block.axis_lens[..n];
        let count = lens.iter().product();
        (0..count)
            .map(|mut flat| {
                let mut p = vec![0; n];
                for d in (0..n).rev() {
                    p[d] = flat % lens[d];
                    flat /= lens[d];
                }
                p
            })
            .collect()
    }

    /// Where `default` and `ecf` sit on the scheduler `axis`, for the
    /// figures that compare the two. A missing one is an error naming it,
    /// and so is any other scheduler, which the figure would drop.
    fn default_and_ecf(&self, figure: &str, axis: usize) -> Result<(usize, usize), String> {
        let labels = self.labels(axis, "scheduler")?;
        let find = |name: &str| {
            labels.iter().position(|l| l == name).ok_or_else(|| {
                format!(
                    "{figure} compares ecf with default; its schedulers {labels:?} lack {name:?}"
                )
            })
        };
        let (default, ecf) = (find("default")?, find("ecf")?);
        if labels.len() != 2 {
            return Err(format!(
                "{figure} compares ecf with default only, but its schedulers are {labels:?}"
            ));
        }
        Ok((default, ecf))
    }
}

/// A [`by_scheduler`] table.
struct SchedTable {
    /// Column labels after the row-label column: the schedulers.
    labels: Vec<String>,
    /// One row per point of the leading axes: its label, then an entry per
    /// scheduler.
    rows: Vec<Vec<String>>,
    /// Each column's mean over every row and seed, as `label=mean` pairs.
    means: String,
}

impl SchedTable {
    /// Render `rows` under a header of `corner` followed by the labels.
    fn render(&self, corner: &str, rows: &[Vec<String>]) -> String {
        let mut header = vec![corner];
        header.extend(self.labels.iter().map(String::as_str));
        render_table(&header, rows)
    }
}

/// The table most comparison figures print: one row per point of `grid`'s
/// leading axes, named by `row_label`, and one column per scheduler on its
/// last axis; each entry is the seed-mean of scalar `key` to `decimals`
/// places.
fn by_scheduler(
    grid: &Grid,
    key: &str,
    decimals: usize,
    row_label: impl Fn(&[usize]) -> Result<String, String>,
) -> Result<SchedTable, String> {
    let last = grid.block.axis_lens.len() - 1;
    let labels = grid.labels(last, "scheduler")?;
    let mut columns = vec![Vec::new(); labels.len()];
    let mut rows = Vec::new();
    for p in grid.points(last) {
        let mut row = vec![row_label(&p)?];
        for (k, column) in columns.iter_mut().enumerate() {
            let at: Vec<usize> = p.iter().copied().chain([k]).collect();
            let vals: Vec<f64> =
                grid.cells(&at).map(|i| scalar(grid.results, i, key)).collect::<Result<_, _>>()?;
            row.push(format!("{:.decimals$}", metrics::mean(&vals)));
            column.extend(vals);
        }
        rows.push(row);
    }
    let means = labels
        .iter()
        .zip(&columns)
        .map(|(label, column)| format!("{label}={:.decimals$}", metrics::mean(column)))
        .collect::<Vec<_>>()
        .join("  ");
    Ok(SchedTable { labels, rows, means })
}

/// The heatmap every grid figure prints. `values[row][col]` and `y_ticks`
/// run bottom-up (the paper puts the lowest rate at the bottom); the text
/// prints top-down, so both are reversed here.
fn heatmap(
    mut values: Vec<Vec<f64>>,
    x_ticks: Vec<String>,
    mut y_ticks: Vec<String>,
    (lo, hi): (f64, f64),
) -> String {
    values.reverse();
    y_ticks.reverse();
    Heatmap {
        x_label: "WiFi (Mbps)".into(),
        y_label: "LTE (Mbps)".into(),
        x_ticks,
        y_ticks,
        values,
        lo,
        hi,
    }
    .render()
}

/// CCDF rows `x<TAB>P[X>x]...` at `x = 0, step, .., last·step`, one column
/// per distribution.
fn ccdf_rows(cdfs: &[Cdf], step: f64, last: usize) -> String {
    let mut s = String::new();
    for i in 0..=last {
        let x = i as f64 * step;
        s.push_str(&format!("{x:.1}"));
        for cdf in cdfs {
            s.push_str(&format!("\t{:.4}", cdf.ccdf_at(x)));
        }
        s.push('\n');
    }
    s
}

/// Table 1: the bit-rate ladder (a zero-cell spec).
fn tab1() -> String {
    let rows: Vec<Vec<String>> = dash::RESOLUTIONS
        .iter()
        .zip(dash::BITRATE_LADDER_MBPS.iter())
        .map(|(res, rate)| vec![res.to_string(), format!("{rate:.2}")])
        .collect();
    let mut s = String::from("Table 1: Video bit rates vs. resolution\n\n");
    s.push_str(&render_table(&["resolution", "bitrate_Mbps"], &rows));
    s
}

/// Fig 1: one run's cumulative download progress.
fn fig1(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    if exp.cells.len() != 1 {
        return Err(format!("fig1 expects exactly 1 cell, got {}", exp.cells.len()));
    }
    let progress = time_series(series(results, 0, "download_progress")?)
        .ok_or("fig1: download_progress holds a malformed point")?;
    let mut s = String::from(
        "Fig 1: Example download behaviour (cumulative MB vs. time)\n\
         (paper: steep initial buffering, then staircase ON-OFF cycles)\n\n\
         time_s\tcumulative_MB\n",
    );
    for (t, mb) in &progress.points {
        s.push_str(&format!("{t:.2}\t{mb:.2}\n"));
    }
    Ok(s)
}

/// Figs 2/9: per scheduler, the seed-mean of measured / ideal bit rate
/// over the LTE × WiFi grid (axes: scheduler, lte, wifi).
fn ratio_heatmaps(
    exp: &Expansion,
    results: &[Value],
    figure: &str,
) -> Result<Vec<(String, String)>, String> {
    let grid = Grid::sole(exp, results, figure, 3)?;
    let (n_l, n_w) = (grid.len(1), grid.len(2));
    let mut maps = Vec::new();
    for k in 0..grid.len(0) {
        let values = (0..n_l)
            .map(|l| {
                (0..n_w)
                    .map(|w| grid.mean(&[k, l, w], |i| bitrate_ratio(results, i)))
                    .collect::<Result<_, _>>()
            })
            .collect::<Result<_, _>>()?;
        let tick = |at: &[usize], key: &str| grid.num(at, &[key]).map(fmt_bw);
        let x_ticks = (0..n_w).map(|w| tick(&[k, 0, w], "wifi_mbps")).collect::<Result<_, _>>()?;
        let y_ticks = (0..n_l).map(|l| tick(&[k, l], "lte_mbps")).collect::<Result<_, _>>()?;
        let map = heatmap(values, x_ticks, y_ticks, (0.0, 1.0));
        maps.push((grid.label(&[k], "scheduler")?, map));
    }
    Ok(maps)
}

/// Fig 2: the default scheduler's bit-rate ratio heatmap.
fn fig2(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let mut s = String::from(
        "Fig 2: Ratio of measured vs. ideal bit rate, default MPTCP scheduler\n\
         (darker is better; paper: dark diagonal, light heterogeneous corners)\n\n",
    );
    for (_, map) in ratio_heatmaps(exp, results, "fig2")? {
        s.push_str(&map);
    }
    Ok(s)
}

/// Fig 9: the headline heatmaps, one per scheduler.
fn fig9(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let mut s = String::from(
        "Fig 9: Ratio of measured average bit rate vs. ideal average bit rate\n\
         (paper: ECF darkest everywhere; default/DAPS/BLEST light off-diagonal)\n",
    );
    for (label, map) in ratio_heatmaps(exp, results, "fig9")? {
        s.push_str(&format!("\n--- ({label}) ---\n"));
        s.push_str(&map);
    }
    Ok(s)
}

/// Fig 5: last-packet gap distribution per bandwidth pair, seeds pooled.
fn fig5(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig5", 1)?;
    let mut s = String::from(
        "Fig 5: CDF of time difference between last packets (WiFi vs LTE), default\n\
         (paper: more heterogeneity -> larger gaps; 0.3-8.6 median ~1 s)\n\n",
    );
    let mut rows = Vec::new();
    for p in 0..grid.len(0) {
        let cdf = grid.pooled(&[p], "last_packet_gaps")?;
        rows.push(vec![
            grid.pair(&[p])?,
            format!("{}", cdf.len()),
            format!("{:.3}", cdf.median()),
            format!("{:.3}", cdf.quantile(0.9)),
            format!("{:.3}", cdf.max()),
        ]);
    }
    s.push_str(&render_table(&["pair(Mbps)", "n", "median_s", "p90_s", "max_s"], &rows));
    s.push_str(&format!("\nCDF series (gap_s, P[gap<=x]) for {}:\n", grid.pair(&[0])?));
    let cdf = grid.pooled(&[0], "last_packet_gaps")?;
    for (x, p) in cdf.cdf_series(2.5, 11) {
        s.push_str(&format!("{x:.2}\t{p:.3}\n"));
    }
    Ok(s)
}

/// Fig 6: throughput with and without CWND conservation (axes: wifi, lte,
/// cwnd_conservation), plus the ideal aggregate.
fn fig6(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig6", 3)?;
    let flags = grid.labels(2, "cwnd_conservation")?;
    let (Some(on), Some(off), 2) = (
        flags.iter().position(|f| f == "true"),
        flags.iter().position(|f| f == "false"),
        flags.len(),
    ) else {
        return Err(format!("fig6 compares cwnd_conservation true with false, got {flags:?}"));
    };
    let mut s = String::from(
        "Fig 6: Streaming throughput w/ and w/o CWND reset (default scheduler)\n\
         (paper: disabling the reset helps but stays below the ideal)\n\n",
    );
    let mut rows = Vec::new();
    for p in grid.points(2) {
        let (with, without) = ([p[0], p[1], on], [p[0], p[1], off]);
        let ideal = grid.num(&p, &["wifi_mbps"])? + grid.num(&p, &["lte_mbps"])?;
        rows.push(vec![
            grid.pair(&p)?,
            format!("{:.2}", grid.scalar(&with, "avg_throughput")?),
            format!("{:.2}", grid.scalar(&without, "avg_throughput")?),
            format!("{ideal:.2}"),
        ]);
    }
    s.push_str(&render_table(
        &["wifi-lte", "w/_reset_Mbps", "w/o_reset_Mbps", "ideal_Mbps"],
        &rows,
    ));
    Ok(s)
}

/// Figs 7 & 10: fraction of traffic on the fast subflow vs the ideal
/// split (axes: wifi, lte, scheduler).
fn fig7(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig7", 3)?;
    let mut s = String::from(
        "Figs 7 & 10: Fraction of traffic allocated to the fast subflow\n\
         (paper: default undershoots the ideal; ECF tracks it; BLEST between)\n\n",
    );
    let mut table = by_scheduler(&grid, "fast_fraction", 2, |p| grid.pair(p))?;
    for (row, p) in table.rows.iter_mut().zip(grid.points(2)) {
        let (wifi, lte) = (grid.num(&p, &["wifi_mbps"])?, grid.num(&p, &["lte_mbps"])?);
        row.push(format!("{:.2}", wifi.max(lte) / (wifi + lte)));
    }
    table.labels.push("ideal".to_string());
    s.push_str(&table.render("wifi-lte", &table.rows));
    Ok(s)
}

/// Table 2: sRTT of a bulk-saturated single path per regulated rate; the
/// one axis alternates the WiFi and LTE runs of each rate.
fn tab2(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "tab2", 1)?;
    let mut rows = vec![vec!["WiFi RTT(ms)".to_string()], vec!["LTE RTT(ms)".to_string()]];
    let mut ticks = Vec::new();
    for p in 0..grid.len(0) {
        let sub = grid.num(&[p], &["scheduler", "single_path"])? as usize;
        let rtt = grid.mean(&[p], |i| {
            numbers(results, i, "srtt_ms")?
                .get(sub)
                .copied()
                .ok_or_else(|| format!("cell {i}: no sRTT for subflow {sub}"))
        })?;
        rows.get_mut(sub)
            .ok_or_else(|| {
                format!("cell {}: tab2 has no row for subflow {sub}", grid.cells(&[p]).start)
            })?
            .push(format!("{rtt:.0}"));
        if sub == 0 {
            ticks.push(fmt_bw(grid.num(&[p], &["wifi_mbps"])?));
        }
    }
    if rows.iter().any(|row| row.len() != ticks.len() + 1) {
        return Err("tab2 needs one WiFi and one LTE run per rate".to_string());
    }
    let mut header = vec!["Bandwidth(Mbps)"];
    header.extend(ticks.iter().map(String::as_str));
    let mut s = String::from(
        "Table 2: Avg RTT under bandwidth regulation (bulk-saturated path)\n\
         (paper: WiFi 969..40 ms, LTE 858..105 ms as rate grows; shape = RTT\n\
          falls with rate, LTE above WiFi at equal rate)\n\n",
    );
    s.push_str(&render_table(&header, &rows));
    Ok(s)
}

/// Cell `i`'s per-subflow traces under `key` (`cwnd_traces`,
/// `sndbuf_traces`): at least the WiFi and the LTE one, in subflow order.
fn subflow_traces(results: &[Value], i: usize, key: &str) -> Result<Vec<TimeSeries>, String> {
    let per_subflow = series(results, i, key)?
        .iter()
        .map(|t| t.as_array().and_then(time_series))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("cell {i}: {key} holds a malformed trace"))?;
    if per_subflow.len() < 2 {
        return Err(format!("cell {i}: {key} holds fewer than 2 traces"));
    }
    Ok(per_subflow)
}

/// Rows of `traces` side by side at the longest trace's times, thinned to
/// `rows`: each column reads its own trace at the row's time, and prints
/// `-` once that trace has ended (a run's sampler stops with its session,
/// and [`TimeSeries::value_at`] would hold the last value past it).
fn trace_rows(traces: &[&TimeSeries], rows: usize, precision: usize) -> String {
    let end = |t: &TimeSeries| t.points.last().map_or(f64::NEG_INFINITY, |p| p.0);
    let Some(longest) = traces.iter().copied().reduce(|a, b| if end(b) > end(a) { b } else { a })
    else {
        return String::new();
    };
    let mut s = String::new();
    for &(t, _) in &longest.thin(rows).points {
        s.push_str(&format!("{t:.1}"));
        for trace in traces {
            match trace.value_at(t).filter(|_| t <= end(trace)) {
                Some(v) => s.push_str(&format!("\t{v:.precision$}")),
                None => s.push_str("\t-"),
            }
        }
        s.push('\n');
    }
    s
}

/// Figs 11 & 12: WiFi and LTE CWND traces, one column per scheduler, at
/// the longest trace's thinned times.
fn fig11(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig11", 1)?;
    let mut traces = Vec::new();
    for k in 0..grid.len(0) {
        let per_subflow = subflow_traces(results, grid.cells(&[k]).start, "cwnd_traces")?;
        traces.push((grid.label(&[k], "scheduler")?, per_subflow));
    }
    let mut s = String::from(
        "Figs 11 & 12: CWND traces at 0.3 Mbps WiFi / 8.6 Mbps LTE\n\
         (paper: ECF keeps the LTE window high; default resets it constantly)\n\n",
    );
    for (iface, idx) in [("WiFi (Fig 11)", 0), ("LTE (Fig 12)", 1)] {
        s.push_str(&format!("--- {iface} cwnd (segments) ---\ntime_s"));
        for (label, _) in &traces {
            s.push_str(&format!("\t{label}"));
        }
        s.push('\n');
        let columns: Vec<&TimeSeries> = traces.iter().map(|(_, t)| &t[idx]).collect();
        s.push_str(&trace_rows(&columns, 60, 0));
        // Summary: mean cwnd in the steady half of the run.
        s.push_str("mean(second half):");
        for (label, t) in &traces {
            let half = t[idx].points.len() / 2;
            let vals: Vec<f64> = t[idx].points[half..].iter().map(|&(_, v)| v).collect();
            s.push_str(&format!("  {label}={:.0}", metrics::mean(&vals)));
        }
        s.push_str("\n\n");
    }
    Ok(s)
}

/// Table 3: initial-window resets on the fast (LTE) subflow per scheduler.
fn tab3(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "tab3", 1)?;
    let rows = (0..grid.len(0))
        .map(|k| {
            let resets = grid.scalar(&[k], "fast_iw_resets")?;
            Ok(vec![grid.label(&[k], "scheduler")?, format!("{resets:.0}")])
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut s = String::from(
        "Table 3: # of IW resets on the fast subflow, 0.3 Mbps WiFi / 8.6 Mbps LTE\n\
         (paper: default 486, DAPS 92, BLEST 382, ECF 16 over a 1332 s video —\n\
          shape: ECF lowest by an order of magnitude)\n\n",
    );
    s.push_str(&render_table(&["scheduler", "iw_resets"], &rows));
    Ok(s)
}

/// Fig 13: the default scheduler's OOO-delay CCDF per bandwidth pair.
fn fig13(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig13", 1)?;
    let mut s = String::from(
        "Fig 13: Out-of-order delay CCDF, default scheduler\n\
         (paper: heavier heterogeneity -> heavier tail; 0.3-8.6 median ~1 s)\n\n\
         delay_s",
    );
    let mut cdfs = Vec::new();
    for p in 0..grid.len(0) {
        s.push_str(&format!("\t{}", grid.pair(&[p])?));
        cdfs.push(grid.pooled(&[p], "ooo_delays")?);
    }
    s.push('\n');
    s.push_str(&ccdf_rows(&cdfs, 0.1, 14));
    Ok(s)
}

/// Fig 14: OOO-delay CCDF per scheduler (axes: pair, scheduler).
fn fig14(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig14", 2)?;
    let labels = grid.labels(1, "scheduler")?;
    let mut s = String::from(
        "Fig 14: Out-of-order delay CCDF per scheduler\n\
         (paper: under heterogeneity ECF's tail is smallest; near-parity when symmetric)\n",
    );
    for p in 0..grid.len(0) {
        s.push_str(&format!("\n--- {} Mbps ---\ndelay_s", grid.pair(&[p])?));
        let mut cdfs = Vec::new();
        for (k, label) in labels.iter().enumerate() {
            s.push_str(&format!("\t{label}"));
            cdfs.push(grid.pooled(&[p, k], "ooo_delays")?);
        }
        s.push('\n');
        s.push_str(&ccdf_rows(&cdfs, 0.1, 14));
        s.push_str("mean_s:");
        for (label, cdf) in labels.iter().zip(&cdfs) {
            s.push_str(&format!("  {label}={:.3}", cdf.mean()));
        }
        s.push('\n');
    }
    Ok(s)
}

/// Fig 15: bit-rate ratio with four subflows (axes: scheduler, lte).
fn fig15(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig15", 2)?;
    let n_l = grid.len(1);
    let mut s = String::from(
        "Fig 15: Bit-rate ratio with 4 subflows (2/interface), 0.3 Mbps WiFi\n\
         (paper: ECF keeps mitigating heterogeneity with more subflows)\n\n",
    );
    let mut rows = Vec::new();
    for k in 0..grid.len(0) {
        let mut row = vec![grid.label(&[k], "scheduler")?];
        for l in 0..n_l {
            let ratio = grid.mean(&[k, l], |i| bitrate_ratio(results, i))?;
            row.push(format!("{ratio:.2}"));
        }
        rows.push(row);
    }
    let ticks = (0..n_l)
        .map(|l| grid.num(&[0, l], &["lte_mbps"]).map(fmt_bw))
        .collect::<Result<Vec<_>, _>>()?;
    let mut header = vec!["sched\\lte"];
    header.extend(ticks.iter().map(String::as_str));
    s.push_str(&render_table(&header, &rows));
    Ok(s)
}

/// A download size as the paper labels it ("128KB", "1MB").
fn size_label(bytes: f64) -> String {
    let kb = bytes / 1024.0;
    if kb >= 1024.0 {
        format!("{:.0}MB", kb / 1024.0)
    } else {
        format!("{kb:.0}KB")
    }
}

/// Fig 18: mean completion time per size (axes: bytes, lte, scheduler).
fn fig18(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig18", 3)?;
    let mut s = String::from(
        "Fig 18: Average download completion time (s), WiFi 1 Mbps, LTE 1-10 Mbps\n\
         (paper: schedulers converge for small files; ECF <= default for larger\n\
          files under heterogeneity; DAPS often worst)\n",
    );
    let table = by_scheduler(&grid, "completion_s", 2, |p| {
        Ok(format!("{:.0}-{:.0}", grid.num(p, &["wifi_mbps"])?, grid.num(p, &["lte_mbps"])?))
    })?;
    for (b, rows) in table.rows.chunks(grid.len(1)).enumerate() {
        s.push_str(&format!("\n--- {} ---\n", size_label(grid.num(&[b], &["bytes"])?)));
        s.push_str(&table.render("wifi-lte", rows));
    }
    Ok(s)
}

/// Fig 19: ECF / default completion time over the WiFi × LTE grid per
/// size (axes: bytes, lte, wifi, scheduler = {default, ecf}). A difference
/// inside one standard deviation plots as 1.0, as in the paper.
fn fig19(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig19", 4)?;
    let (n_l, n_w) = (grid.len(1), grid.len(2));
    let (dk, ek) = grid.default_and_ecf("fig19", 3)?;
    let mut s = String::from(
        "Fig 19: ECF completion time / default completion time\n\
         (paper: 1.0 on the diagonal and for small files; down to ~0.8 under\n\
          heterogeneity; never above 1)\n",
    );
    let times = |at: &[usize]| -> Result<Vec<f64>, String> {
        grid.cells(at).map(|i| scalar(results, i, "completion_s")).collect()
    };
    let tick = |at: &[usize], key: &str| -> Result<String, String> {
        Ok(format!("{:.0}", grid.num(at, &[key])?))
    };
    for b in 0..grid.len(0) {
        s.push_str(&format!("\n--- {} ---\n", size_label(grid.num(&[b], &["bytes"])?)));
        let mut values = Vec::new();
        for l in 0..n_l {
            let mut row = Vec::new();
            for w in 0..n_w {
                let d = times(&[b, l, w, dk])?;
                let e = times(&[b, l, w, ek])?;
                let (d_mean, d_sd) = (metrics::mean(&d), metrics::stddev(&d));
                let (e_mean, e_sd) = (metrics::mean(&e), metrics::stddev(&e));
                row.push(if (d_mean - e_mean).abs() <= d_sd.max(e_sd) {
                    1.0
                } else {
                    e_mean / d_mean
                });
            }
            values.push(row);
        }
        let worst = values.iter().flatten().cloned().fold(f64::NEG_INFINITY, f64::max);
        let x_ticks = (0..n_w).map(|w| tick(&[b, 0, w], "wifi_mbps")).collect::<Result<_, _>>()?;
        let y_ticks = (0..n_l).map(|l| tick(&[b, l], "lte_mbps")).collect::<Result<_, _>>()?;
        s.push_str(&heatmap(values, x_ticks, y_ticks, (0.7, 1.3)));
        s.push_str(&format!("max ratio (should stay ~<= 1): {worst:.2}\n"));
    }
    Ok(s)
}

/// One bandwidth config of Figs 20/21: its heading and each scheduler's
/// label with its pooled distribution.
type WebPanel = (String, Vec<(String, Cdf)>);

/// Per bandwidth config, each scheduler's samples of `key` pooled over
/// seeds (axes: bandwidth, scheduler).
fn web_cdfs(
    exp: &Expansion,
    results: &[Value],
    figure: &str,
    key: &str,
) -> Result<Vec<WebPanel>, String> {
    let grid = Grid::sole(exp, results, figure, 2)?;
    let labels = grid.labels(1, "scheduler")?;
    let mut out = Vec::new();
    for c in 0..grid.len(0) {
        let header = format!(
            "\n--- {} Mbps WiFi / {} Mbps LTE ---\n",
            fmt_bw(grid.num(&[c], &["wifi_mbps"])?),
            fmt_bw(grid.num(&[c], &["lte_mbps"])?)
        );
        let cdfs = labels
            .iter()
            .enumerate()
            .map(|(k, label)| Ok((label.clone(), grid.pooled(&[c, k], key)?)))
            .collect::<Result<_, String>>()?;
        out.push((header, cdfs));
    }
    Ok(out)
}

/// Fig 20: web object completion time per scheduler, seeds pooled.
fn fig20(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let mut s = String::from(
        "Fig 20: Web object download completion time CCDF (107-object page,\n\
         6 parallel MPTCP connections)\n\
         (paper: parity at 5-5; ECF clearly fastest at 1-5 and 1-10)\n",
    );
    for (header, cdfs) in web_cdfs(exp, results, "fig20", "completions")? {
        s.push_str(&header);
        let rows: Vec<Vec<String>> = cdfs
            .iter()
            .map(|(label, cdf)| {
                vec![
                    label.clone(),
                    format!("{:.3}", cdf.mean()),
                    format!("{:.3}", cdf.median()),
                    format!("{:.3}", cdf.quantile(0.99)),
                    format!("{:.3}", cdf.max()),
                ]
            })
            .collect();
        s.push_str(&render_table(&["scheduler", "mean_s", "median_s", "p99_s", "max_s"], &rows));
        s.push_str("\nCCDF series (x_s, P[T>x]):\nx");
        for (label, _) in &cdfs {
            s.push_str(&format!("\t{label}"));
        }
        s.push('\n');
        let cdfs: Vec<Cdf> = cdfs.into_iter().map(|(_, cdf)| cdf).collect();
        s.push_str(&ccdf_rows(&cdfs, 0.2, 10));
    }
    Ok(s)
}

/// Fig 21: web OOO delay per scheduler, seeds pooled.
fn fig21(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let mut s = String::from(
        "Fig 21: Out-of-order delay CCDF, Web browsing\n\
         (paper: ECF's reordering tail smallest under heterogeneity)\n",
    );
    for (header, cdfs) in web_cdfs(exp, results, "fig21", "ooo_delays")? {
        s.push_str(&header);
        let rows: Vec<Vec<String>> = cdfs
            .iter()
            .map(|(label, cdf)| {
                vec![
                    label.clone(),
                    format!("{:.4}", cdf.mean()),
                    format!("{:.4}", cdf.quantile(0.99)),
                    format!("{:.4}", cdf.max()),
                ]
            })
            .collect();
        s.push_str(&render_table(&["scheduler", "mean_s", "p99_s", "max_s"], &rows));
    }
    Ok(s)
}

/// Fig 22: wild streaming per run (axes: run, scheduler = {default, ecf}),
/// with the default run's measured sRTTs.
fn fig22(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig22", 2)?;
    let n_runs = grid.len(0);
    let (dk, ek) = grid.default_and_ecf("fig22", 1)?;
    let srtt = |at: &[usize], sub: usize| {
        grid.mean(at, |i| {
            let srtt = numbers(results, i, "srtt_ms")?;
            match srtt[..] {
                [_, _] => Ok(srtt[sub]),
                _ => Err(format!("cell {i}: expected 2 subflow sRTTs, got {}", srtt.len())),
            }
        })
    };
    let mut s = String::from(
        "Fig 22: Streaming in the wild — 9 runs sorted by WiFi RTT\n\
         (paper: parity when RTTs are similar; ECF pulls ahead as WiFi RTT\n\
          diverges; overall +16% average throughput)\n\n",
    );
    let mut rows = Vec::new();
    let (mut sum_d, mut sum_e) = (0.0, 0.0);
    for run in 0..n_runs {
        let (d, e) = ([run, dk], [run, ek]);
        let (d_tp, e_tp) = (grid.scalar(&d, "avg_throughput")?, grid.scalar(&e, "avg_throughput")?);
        let (d_wifi, d_lte) = (srtt(&d, 0)?, srtt(&d, 1)?);
        sum_d += d_tp;
        sum_e += e_tp;
        rows.push(vec![
            format!("{}", run + 1),
            format!("{d_wifi:.0}"),
            format!("{d_lte:.0}"),
            format!("{d_tp:.2}"),
            format!("{e_tp:.2}"),
        ]);
    }
    s.push_str(&render_table(
        &["run", "wifi_rtt_ms", "lte_rtt_ms", "default_Mbps", "ecf_Mbps"],
        &rows,
    ));
    s.push_str(&format!(
        "\nmeans: default={:.2} Mbps, ecf={:.2} Mbps, improvement={:.0}%\n",
        sum_d / n_runs as f64,
        sum_e / n_runs as f64,
        (sum_e / sum_d - 1.0) * 100.0
    ));
    Ok(s)
}

/// Fig 23 / Table 4: wild web browsing, every run's and seed's samples
/// pooled per scheduler (axes: run, scheduler = {default, ecf}).
fn fig23(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig23", 2)?;
    let (dk, ek) = grid.default_and_ecf("fig23", 1)?;
    let pool = |k: usize, key: &str| -> Result<Cdf, String> {
        let mut all = Vec::new();
        for run in 0..grid.len(0) {
            for i in grid.cells(&[run, k]) {
                all.extend(numbers(results, i, key)?);
            }
        }
        Ok(Cdf::from_samples(all))
    };
    let (dc, ec) = (pool(dk, "completions")?, pool(ek, "completions")?);
    let (doo, eoo) = (pool(dk, "ooo_delays")?, pool(ek, "ooo_delays")?);
    let mut s = String::from(
        "Fig 23 / Table 4: Web browsing in the wild (CNN-like page)\n\
         (paper: ECF 26% faster object completion, 71% lower OOO delay)\n\n",
    );
    let row = |label: &str, c: &Cdf, o: &Cdf| {
        vec![
            label.to_string(),
            format!("{:.3}", c.mean()),
            format!("{:.3}", c.quantile(0.999)),
            format!("{:.4}", o.mean()),
        ]
    };
    s.push_str(&render_table(
        &["scheduler", "mean_completion_s", "p99.9_completion_s", "mean_ooo_s"],
        &[row("default", &dc, &doo), row("ecf", &ec, &eoo)],
    ));
    s.push_str(&format!(
        "\nECF improvement: completion {:.0}% shorter, OOO delay {:.0}% shorter\n",
        (1.0 - ec.mean() / dc.mean()) * 100.0,
        (1.0 - eoo.mean() / doo.mean()) * 100.0
    ));
    s.push_str("\nCompletion-time CCDF (x_s, P[T>x]):\nx\tdefault\tecf\n");
    s.push_str(&ccdf_rows(&[dc, ec], 0.5, 12));
    Ok(s)
}

/// Ablation: ECF's hysteresis β (one axis of `ecf_with` schedulers).
fn ablation_beta(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "ablation_beta", 1)?;
    let mut rows = Vec::new();
    let mut bitrates = Vec::new();
    for b in 0..grid.len(0) {
        let beta = grid.num(&[b], &["scheduler", "ecf_with", "beta"])?;
        let br = grid.scalar(&[b], "avg_bitrate")?;
        rows.push(vec![format!("{beta:.2}"), format!("{br:.2}")]);
        bitrates.push(br);
    }
    let mut s = String::from(
        "Ablation: ECF hysteresis β at 0.3/8.6 Mbps\n\
         (paper claim: results are insensitive to β)\n\n",
    );
    s.push_str(&render_table(&["beta", "avg_bitrate_Mbps"], &rows));
    let spread = bitrates.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - bitrates.iter().cloned().fold(f64::INFINITY, f64::min);
    s.push_str(&format!("\nspread across β values: {spread:.2} Mbps\n"));
    Ok(s)
}

/// Ablation: ECF's δ margin and second inequality, between full ECF and
/// the default (one scheduler axis of the variants [`COMPONENT_VARIANTS`]
/// names, each row labelled from its cell's scheduler).
fn ablation_components(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    /// Each variant's scheduler label (see [`label_of`]) and its row label.
    const COMPONENT_VARIANTS: [(&str, &str); 4] = [
        ("ecf", "full ECF"),
        (r#"{"ecf_with":{"use_delta":false}}"#, "no delta margin"),
        (r#"{"ecf_with":{"use_second_inequality":false}}"#, "no second inequality"),
        ("default", "default (reference)"),
    ];
    let grid = Grid::sole(exp, results, "ablation_components", 1)?;
    let mut rows = Vec::new();
    for v in 0..grid.len(0) {
        let scheduler = grid.label(&[v], "scheduler")?;
        let (_, name) =
            COMPONENT_VARIANTS.iter().find(|(s, _)| *s == scheduler).ok_or_else(|| {
                format!("ablation_components has no variant for scheduler {scheduler}")
            })?;
        let br = grid.scalar(&[v], "avg_bitrate")?;
        rows.push(vec![name.to_string(), format!("{br:.2}")]);
    }
    let mut s = String::from(
        "Ablation: ECF components at 0.3/8.6 Mbps\n\
         (each variant should sit between full ECF and the default)\n\n",
    );
    s.push_str(&render_table(&["variant", "avg_bitrate_Mbps"], &rows));
    Ok(s)
}

/// Ablation: coupled congestion controller (axes: cc, scheduler).
fn ablation_cc(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "ablation_cc", 2)?;
    let mut table = by_scheduler(&grid, "avg_bitrate", 2, |p| grid.label(p, "cc"))?;
    for label in &mut table.labels {
        label.push_str("_Mbps");
    }
    let mut s = String::from(
        "Ablation: congestion controller sensitivity at 0.3/8.6 Mbps\n\
         (paper §3.1: degradation appears regardless of the controller;\n\
          ECF should beat default under each)\n\n",
    );
    s.push_str(&table.render("cc", &table.rows));
    Ok(s)
}

/// Extension: STTF vs ECF across heterogeneity levels (axes: pair,
/// scheduler).
fn extension_sttf(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "extension_sttf", 2)?;
    let table = by_scheduler(&grid, "avg_bitrate", 2, |p| {
        Ok(format!("{}-{}", grid.num(p, &["wifi_mbps"])?, grid.num(p, &["lte_mbps"])?))
    })?;
    let mut s = String::from(
        "Extension: STTF (Hurtig et al. 2018) vs ECF on streaming\n\
         (STTF reasons per segment; ECF about the whole backlog — expect STTF\n\
          between the default and ECF under heterogeneity)\n\n",
    );
    s.push_str(&table.render("wifi-lte", &table.rows));
    Ok(s)
}

/// Fig 3: the single send-buffer-trace cell, WiFi and LTE side by side in
/// 200 rows.
fn fig3(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    if exp.cells.len() != 1 {
        return Err(format!("fig3 expects exactly 1 cell, got {}", exp.cells.len()));
    }
    let traces = subflow_traces(results, 0, "sndbuf_traces")?;
    let mut s = String::from(
        "Fig 3: Send-buffer occupancy (KB, incl. in-flight), 0.3 Mbps WiFi / 8.6 Mbps LTE\n\
         (paper: LTE empties quickly and sits idle while WiFi stays occupied)\n\n\
         time_s\twifi_KB\tlte_KB\n",
    );
    s.push_str(&trace_rows(&[&traces[0], &traces[1]], 200, 1));
    Ok(s)
}

/// Fig 16: scenario × scheduler grid of seed-mean average throughputs.
fn fig16(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig16", 2)?;
    let table = by_scheduler(&grid, "avg_throughput", 2, |p| Ok(format!("{}", p[0] + 1)))?;
    let mut s = String::from(
        "Fig 16: Streaming throughput under random bandwidth changes (mean interval 40 s)\n\
         (paper: ECF highest in every scenario; BLEST ~default)\n\n",
    );
    s.push_str(&table.render("scenario", &table.rows));
    s.push_str(&format!("\nmeans: {} Mbps\n", table.means));
    Ok(s)
}

/// Fig 17: the chunk-throughput traces of the default and ECF cells zipped.
fn fig17(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let grid = Grid::sole(exp, results, "fig17", 1)?;
    if exp.cells.len() != 2 {
        return Err(format!("fig17 expects exactly 2 cells, got {}", exp.cells.len()));
    }
    let trace = |k: usize| -> Result<Vec<f64>, String> {
        let i = grid.cells(&[k]).start;
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
    let (dk, ek) = grid.default_and_ecf("fig17", 0)?;
    let (default, ecf) = (trace(dk)?, trace(ek)?);
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
    let grid = Grid::sole(exp, results, "dyn_handover", 2)?;
    let table = by_scheduler(&grid, "avg_bitrate", 3, |p| {
        Ok(format!("{}", grid.num(p, &["scenario", "outage_secs"])? as u64))
    })?;
    let mut s = String::from(
        "dyn_handover: streaming bitrate under periodic LTE blackouts\n\
         (1.7 Mbps WiFi + 8.6 Mbps LTE; LTE dark for the given duration\n\
          every 60 s; mean encoded bitrate in Mbps, higher is better)\n\n",
    );
    s.push_str(&table.render("outage_s", &table.rows));
    s.push_str(&format!("\nladder means: {} Mbps\n", table.means));
    Ok(s)
}

/// dyn_burstloss: the two loss sweeps (average loss, then burst length).
fn dyn_burstloss(exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let [loss, burst] = exp.blocks.as_slice() else {
        return Err(format!("dyn_burstloss expects 2 blocks, got {}", exp.blocks.len()));
    };
    let loss = Grid::new(exp, results, loss, "dyn_burstloss", 2)?;
    let burst = Grid::new(exp, results, burst, "dyn_burstloss", 2)?;
    let by_avg = by_scheduler(&loss, "avg_throughput", 3, |p| {
        Ok(format!("{:.1}", loss.num(p, &["loss", "avg"])? * 100.0))
    })?;
    let by_burst = by_scheduler(&burst, "avg_throughput", 3, |p| {
        Ok(format!("{:.0}", burst.num(p, &["loss", "mean_burst"])?))
    })?;
    let mut s = String::from(
        "dyn_burstloss: streaming throughput under bursty LTE loss\n\
         (1.7 Mbps WiFi + 8.6 Mbps LTE; Gilbert-Elliott two-state loss on\n\
          the LTE forward link; mean chunk throughput in Mbps)\n\n\
         Sweep 1: average loss at mean burst length 8 packets\n",
    );
    s.push_str(&by_avg.render("avg_loss_%", &by_avg.rows));
    s.push_str("\nSweep 2: burst length at fixed 1% average loss\n");
    s.push_str(&by_burst.render("mean_burst_pkts", &by_burst.rows));
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
    let grid = Grid::sole(exp, results, "quic_web", 2)?;
    let labels = grid.labels(1, "scheduler")?;
    let mut header = vec!["transport", "scheduler"];
    header.extend(COLUMNS.map(|(name, _)| name));
    let mut s = String::from(
        "quic_web: 107-object page — 1 MPQUIC connection (107 streams) vs\n\
         6 MPTCP connections, same packet schedulers on both transports\n\
         (expectation: QUIC's per-stream reassembly shrinks the OOO tail;\n\
         ECF narrows the heterogeneous-path completion gap on both)\n",
    );
    for c in 0..grid.len(0) {
        let wifi = grid.num(&[c], &["wifi_mbps"])?;
        let lte = grid.num(&[c], &["lte_mbps"])?;
        s.push_str(&format!("\n--- {wifi:.1} Mbps WiFi / {lte:.1} Mbps LTE ---\n"));
        let mut rows = Vec::new();
        for (k, label) in labels.iter().enumerate() {
            for transport in ["mptcp", "quic"] {
                let mut row = vec![transport.to_string(), label.clone()];
                for (name, precision) in COLUMNS {
                    let mean = grid.scalar(&[c, k], &format!("{transport}_{name}"))?;
                    row.push(format!("{mean:.precision$}"));
                }
                rows.push(row);
            }
        }
        s.push_str(&render_table(&header, &rows));
    }
    Ok(s)
}

/// population (`browse_sweep`, `coupled_browse`): one row per cell in
/// expansion order, ending in the merged sweep digest.
fn population(spec: &Spec, exp: &Expansion, results: &[Value]) -> Result<String, String> {
    const CONFIG: [&str; 3] = ["units", "backhaul_mbps", "seed"];
    /// Scalar columns and their precision.
    const SCALARS: [(&str, usize); 6] = [
        ("groups", 0),
        ("pages", 0),
        ("req_s_p50", 4),
        ("req_s_p99", 4),
        ("rounds", 0),
        ("boundary_msgs", 0),
    ];
    let mut header = CONFIG.to_vec();
    header.extend(SCALARS.map(|(key, _)| key));
    header.push("digest");
    let mut rows = Vec::new();
    for (i, cell) in exp.cells.iter().enumerate() {
        let label = |key: &str| cell.config.get(key).map_or_else(|| "-".to_string(), label_of);
        let mut row: Vec<String> = CONFIG.map(label).into();
        for (key, precision) in SCALARS {
            row.push(format!("{:.precision$}", scalar(results, i, key)?));
        }
        let digest = results[i].get("scalars").and_then(|s| s.get("digest"));
        row.push(digest.and_then(Value::as_str).ok_or(format!("cell {i}: no digest"))?.into());
        rows.push(row);
    }
    Ok(format!(
        "{}: browse populations on the sweep executor — 6 ECF connections per\n\
         unit over a private 1 Mbps WiFi + 10 Mbps LTE pair; with a backhaul every\n\
         LTE leg shares that capacity and the units co-simulate in lockstep\n\
         engine groups (request times are each object's GET to completion)\n\n{}",
        spec.name,
        render_table(&header, &rows)
    ))
}

/// Fallback renderer for new specs: one row per cell with its headline
/// scalars, in expansion order. Deterministic, shape-agnostic.
fn generic(spec: &Spec, exp: &Expansion, results: &[Value]) -> Result<String, String> {
    let mut s = format!("{}: {} cells\n", spec.name, exp.cells.len());
    s.push_str("cell\tscheduler\tcc\tseed\tavg_bitrate\tavg_throughput\n");
    for (i, cell) in exp.cells.iter().enumerate() {
        let label = |key: &str| cell.config.get(key).map_or_else(|| "-".to_string(), label_of);
        let seed = cell.config.get("seed").and_then(Value::as_f64);
        let seed = seed.ok_or_else(|| format!("cell {i}: config lacks a numeric seed"))? as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;
    use crate::expmatrix::spec::expand;

    /// Render `figure` over `blocks` (a JSON array) on fabricated results:
    /// every cell reads `v` for every scalar and sample, where `v` is 1 for
    /// default, 2 for blest, 4 for ecf (3 for anything else), plus 10
    /// without CWND conservation, plus `seed − 1`.
    fn render_blocks(figure: &str, blocks: &str) -> Result<String, String> {
        let spec = Spec::from_json(&format!(
            r#"{{"schema": 1, "name": "t", "figure": "{figure}",
                "base": {{"workload": "streaming", "wifi_mbps": 1, "lte_mbps": 2,
                          "bytes": 1048576, "cc": "lia"}},
                "blocks": {blocks}}}"#
        ))?;
        let exp = expand(&spec, Effort::Quick)?;
        let results: Vec<Value> = exp
            .cells
            .iter()
            .map(|cell| {
                let cfg = &cell.config;
                let sched = match cfg.get("scheduler").and_then(Value::as_str) {
                    Some("default") => 1.0,
                    Some("blest") => 2.0,
                    Some("ecf") => 4.0,
                    _ => 3.0,
                };
                let reset_off = cfg.get("cwnd_conservation") == Some(&Value::Bool(false));
                let seed = cfg.get("seed").and_then(Value::as_f64).unwrap();
                let v = sched + if reset_off { 10.0 } else { 0.0 } + seed - 1.0;
                let quic_web: String = ["mptcp", "quic"]
                    .iter()
                    .flat_map(|t| {
                        ["obj_mean_s", "obj_median_s", "obj_p99_s", "plt_s", "ooo_mean_s"]
                            .into_iter()
                            .chain(["ooo_p99_s"])
                            .map(move |c| format!(r#", "{t}_{c}": {v}"#))
                    })
                    .collect();
                testkit::json::parse(&format!(
                    r#"{{"scalars": {{"avg_throughput": {v}, "avg_bitrate": {v},
                                      "ideal_bitrate": 100, "fast_fraction": {v},
                                      "fast_iw_resets": {v}, "completion_s": {v}{quic_web}}},
                        "series": {{"srtt_ms": [{v}, {v}], "completions": [{v}],
                                    "ooo_delays": [{v}], "chunk_throughputs": [[0, {v}]]}}}}"#
                ))
                .unwrap()
            })
            .collect();
        render(&spec, &exp, &results)
    }

    /// [`render_blocks`] over one block with `axes` and `seeds` seeds
    /// (base 1).
    fn render_fake(figure: &str, axes: &str, seeds: u32) -> Result<String, String> {
        let block = format!(r#"{{"axes": {axes}, "seeds": {{"base": 1, "count": {seeds}}}}}"#);
        render_blocks(figure, &format!("[{block}]"))
    }

    /// The whitespace-separated cells of the report line starting `first`.
    fn row(report: &str, first: &str) -> Vec<String> {
        let line = report.lines().find(|l| l.trim_start().starts_with(first));
        line.unwrap_or_else(|| panic!("no line starts {first:?} in:\n{report}"))
            .split_whitespace()
            .map(str::to_string)
            .collect()
    }

    /// [`render_fake`] with the axes `lead` followed by a scheduler axis.
    fn render_scheds(figure: &str, lead: &str, scheds: &str, seeds: u32) -> Result<String, String> {
        let axes = format!(r#"[{lead}{{"key": "scheduler", "values": {scheds}}}]"#);
        render_fake(figure, &axes, seeds)
    }

    #[test]
    fn fig11_prints_each_trace_only_while_it_lasts() {
        // The first scheduler's session ends at 2 s, the second's at 5 s:
        // rows run to the longer one, and the shorter column stops.
        let spec = Spec::from_json(
            r#"{"schema": 1, "name": "t", "figure": "fig11",
                "base": {"workload": "streaming", "wifi_mbps": 0.3, "lte_mbps": 8.6},
                "blocks": [{"axes": [{"key": "scheduler", "values": ["default", "ecf"]}],
                            "seeds": {"base": 1, "count": 1}}]}"#,
        )
        .unwrap();
        let exp = expand(&spec, Effort::Quick).unwrap();
        let results: Vec<Value> = [(2, 10), (5, 20)]
            .iter()
            .map(|&(end, v)| {
                let points: Vec<String> = (0..=end).map(|t| format!("[{t}, {}]", v + t)).collect();
                let trace = format!("[{}]", points.join(", "));
                testkit::json::parse(&format!(
                    r#"{{"scalars": {{}}, "series": {{"cwnd_traces": [{trace}, {trace}]}}}}"#
                ))
                .unwrap()
            })
            .collect();
        let report = render(&spec, &exp, &results).unwrap();
        assert_eq!(row(&report, "time_s"), ["time_s", "default", "ecf"]);
        assert_eq!(row(&report, "2.0"), ["2.0", "12", "22"]);
        assert_eq!(row(&report, "3.0"), ["3.0", "-", "23"]);
        assert_eq!(row(&report, "5.0"), ["5.0", "-", "25"]);
        assert_eq!(report.lines().filter(|l| l.starts_with("5.0")).count(), 2, "{report}");
        assert_eq!(row(&report, "mean(second half):")[2..], ["default=12", "ecf=24"]);
    }

    #[test]
    fn renderers_take_labels_and_seed_means_from_the_cells() {
        let scenario = r#"{"key": "scenario", "values": [{"scenario": {"kind": "static"}}]}, "#;
        let handover = r#"{"key": "scenario",
            "values": [{"scenario": {"kind": "handover", "outage_secs": 2}}]}, "#;

        // A permuted scheduler axis permutes the columns with their labels.
        let fig16 = render_scheds("fig16", scenario, r#"["ecf", "blest", "default"]"#, 1).unwrap();
        assert_eq!(row(&fig16, "scenario"), ["scenario", "ecf", "blest", "default"]);
        assert_eq!(row(&fig16, "1 "), ["1", "4.00", "2.00", "1.00"]);
        assert_eq!(row(&fig16, "means:")[1..4], ["ecf=4.00", "blest=2.00", "default=1.00"]);
        let dyn_h = render_scheds("dyn_handover", handover, r#"["ecf", "default"]"#, 1).unwrap();
        assert_eq!(row(&dyn_h, "outage_s"), ["outage_s", "ecf", "default"]);
        assert_eq!(row(&dyn_h, "ladder means:")[2..4], ["ecf=4.000", "default=1.000"]);

        // Every by-scheduler table over a permuted two-scheduler axis and
        // two seeds: each column moves with its label and prints the mean
        // of the seeds (ecf 4 and 5, default 1 and 2).
        let scheds = r#"["ecf", "default"]"#;
        let lte = r#"{"key": "lte_mbps", "values": [2]}, "#;
        let wifi_lte: &str = &format!(r#"{{"key": "wifi_mbps", "values": [1]}}, {lte}"#);
        let bytes_lte: &str = &format!(r#"{{"key": "bytes", "values": [1048576]}}, {lte}"#);
        let cc = r#"{"key": "cc", "values": ["reno"]}, "#;
        for (figure, lead, header, values) in [
            ("fig7", wifi_lte, ["wifi-lte", "ecf", "default"], ["1.0-2.0", "4.50", "1.50"]),
            ("fig16", scenario, ["scenario", "ecf", "default"], ["1", "4.50", "1.50"]),
            ("fig18", bytes_lte, ["wifi-lte", "ecf", "default"], ["1-2", "4.50", "1.50"]),
            ("ablation_cc", cc, ["cc", "ecf_Mbps", "default_Mbps"], ["reno", "4.50", "1.50"]),
            ("extension_sttf", lte, ["wifi-lte", "ecf", "default"], ["1-2", "4.50", "1.50"]),
            ("dyn_handover", handover, ["outage_s", "ecf", "default"], ["2", "4.500", "1.500"]),
        ] {
            let report = render_scheds(figure, lead, scheds, 2).unwrap();
            assert_eq!(row(&report, header[0])[..3], header, "{figure}");
            assert_eq!(row(&report, &format!("{} ", values[0]))[..3], values, "{figure}");
        }
        let fig16 = render_scheds("fig16", scenario, scheds, 2).unwrap();
        assert_eq!(row(&fig16, "means:")[1..3], ["ecf=4.50", "default=1.50"]);
        let dyn_h = render_scheds("dyn_handover", handover, scheds, 2).unwrap();
        assert_eq!(row(&dyn_h, "ladder means:")[2..4], ["ecf=4.500", "default=1.500"]);
        let block = r#"{"axes": [
                {"key": "loss", "values": [{"loss": {"avg": 0.01, "mean_burst": 4}}]},
                {"key": "scheduler", "values": ["ecf", "default"]}],
            "seeds": {"base": 1, "count": 2}}"#;
        let burst = render_blocks("dyn_burstloss", &format!("[{block}, {block}]")).unwrap();
        assert_eq!(row(&burst, "avg_loss_%"), ["avg_loss_%", "ecf", "default"]);
        assert_eq!(row(&burst, "1.0 "), ["1.0", "4.500", "1.500"]);
        assert_eq!(row(&burst, "mean_burst_pkts"), ["mean_burst_pkts", "ecf", "default"]);
        assert_eq!(row(&burst, "4 "), ["4", "4.500", "1.500"]);

        // A scheduler that is not a plain name is labelled by its canonical
        // JSON, so two ECF variants stay apart.
        let bandwidth = r#"{"key": "bandwidth", "values": [{"wifi_mbps": 1, "lte_mbps": 2}]}, "#;
        let variants = r#"[{"scheduler": {"ecf_with": {"beta": 0.25}}},
            {"scheduler": {"ecf_with": {"beta": 0.5}}}]"#;
        let quic = render_scheds("quic_web", bandwidth, variants, 1).unwrap();
        let labels: Vec<&str> = quic
            .lines()
            .filter(|l| l.trim_start().starts_with("mptcp"))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(labels, [r#"{"ecf_with":{"beta":0.25}}"#, r#"{"ecf_with":{"beta":0.5}}"#]);

        // Two schedulers render where three were assumed.
        let fig16 = render_scheds("fig16", scenario, r#"["default", "ecf"]"#, 1).unwrap();
        assert_eq!(row(&fig16, "means:"), ["means:", "default=1.00", "ecf=4.00", "Mbps"]);
        let dyn_h = render_scheds("dyn_handover", handover, r#"["default", "ecf"]"#, 1).unwrap();
        assert_eq!(row(&dyn_h, "2 "), ["2", "1.000", "4.000"]);

        // Two seeds average: seed 2 reads one more than seed 1.
        let cc = r#"{"key": "cc", "values": ["reno"]}, "#;
        let ablation = render_scheds("ablation_cc", cc, r#"["ecf", "default"]"#, 2).unwrap();
        assert_eq!(row(&ablation, "cc"), ["cc", "ecf_Mbps", "default_Mbps"]);
        assert_eq!(row(&ablation, "reno"), ["reno", "4.50", "1.50"]);
        let tab3 = render_scheds("tab3", "", r#"["ecf"]"#, 3).unwrap();
        assert_eq!(row(&tab3, "ecf"), ["ecf", "5"]);
        let fig6 = |flags: &str| {
            let axes = format!(
                r#"[{{"key": "wifi_mbps", "values": [1]}}, {{"key": "lte_mbps", "values": [2]}},
                    {{"key": "cwnd_conservation", "values": {flags}}}]"#
            );
            render_fake("fig6", &axes, 2).unwrap()
        };
        assert_eq!(row(&fig6("[true, false]"), "1.0-2.0"), ["1.0-2.0", "3.50", "13.50", "3.00"]);
        assert_eq!(fig6("[false, true]"), fig6("[true, false]"));

        let variants = r#"[{"scheduler": "default"},
            {"scheduler": {"ecf_with": {"use_delta": false}}}, {"scheduler": "ecf"}]"#;
        let axes = format!(r#"[{{"key": "scheduler", "values": {variants}}}]"#);
        let ablation = render_fake("ablation_components", &axes, 1).unwrap();
        assert_eq!(row(&ablation, "default"), ["default", "(reference)", "1.00"]);
        assert_eq!(row(&ablation, "full"), ["full", "ECF", "4.00"]);

        // Default and ECF are found by label, in either order; a missing
        // one is an error naming it.
        let run = r#"{"key": "run", "values": [{"run": 0}]}, "#;
        let fig19 = r#"{"key": "bytes", "values": [1048576]},
            {"key": "lte_mbps", "values": [2]}, {"key": "wifi_mbps", "values": [1]}, "#;
        for (figure, lead) in [("fig17", ""), ("fig19", fig19), ("fig22", run), ("fig23", run)] {
            let forward = render_scheds(figure, lead, r#"["default", "ecf"]"#, 1).unwrap();
            let reverse = render_scheds(figure, lead, r#"["ecf", "default"]"#, 1).unwrap();
            assert_eq!(reverse, forward, "{figure}");
            let err = render_scheds(figure, lead, r#"["default", "blest"]"#, 1).unwrap_err();
            assert!(err.contains(r#"lack "ecf""#), "{figure}: {err}");
        }
        let fig22 = render_scheds("fig22", run, r#"["ecf", "default"]"#, 2).unwrap();
        // The default cells' sRTTs average to 1.5 ms, printed whole.
        assert_eq!(row(&fig22, "1 "), ["1", "2", "2", "1.50", "4.50"]);
    }
}
