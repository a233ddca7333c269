//! Streaming experiments: §3's motivation figures and §5.2/5.3's evaluation
//! — Figs 1, 2, 5–7, 9–15 and Tables 1–3. Figs 3, 16 and 17 are expmatrix
//! specs (`specs/fig{3,16,17}.json`).

use ecf_core::SchedulerKind;
use metrics::{render_table, Cdf, Heatmap};
use mptcp::RecorderConfig;
use simnet::Time;

use crate::common::{
    fmt_bw, parallel_map, run_streaming, Effort, StreamingConfig, StreamingOutcome, BW_SET,
};

/// Average the bitrate-vs-ideal ratio over seeds for one grid cell.
fn bitrate_ratio(wifi: f64, lte: f64, kind: SchedulerKind, effort: Effort) -> f64 {
    let outs: Vec<StreamingOutcome> = parallel_map(
        (0..effort.seeds()).collect(),
        |seed| {
            run_streaming(&StreamingConfig {
                video_secs: effort.video_secs(),
                ..StreamingConfig::new(wifi, lte, kind, 1000 + seed)
            })
        },
    );
    let ratios: Vec<f64> =
        outs.iter().map(|o| (o.avg_bitrate / o.ideal_bitrate).min(1.0)).collect();
    metrics::mean(&ratios)
}

/// Render one scheduler's 6×6 bitrate-ratio heatmap (rows = LTE, cols = WiFi,
/// exactly like Figs 2/9).
fn ratio_heatmap(kind: SchedulerKind, effort: Effort) -> Heatmap {
    let cells: Vec<(usize, usize)> = (0..BW_SET.len())
        .flat_map(|l| (0..BW_SET.len()).map(move |w| (l, w)))
        .collect();
    let values_flat = parallel_map(cells.clone(), |(l, w)| {
        bitrate_ratio(BW_SET[w], BW_SET[l], kind, effort)
    });
    let mut values = vec![vec![0.0; BW_SET.len()]; BW_SET.len()];
    for ((l, w), v) in cells.into_iter().zip(values_flat) {
        values[l][w] = v;
    }
    // Paper's heatmaps put 0.3 at the bottom; we print top-down, so reverse.
    values.reverse();
    let mut y_ticks: Vec<String> = BW_SET.iter().map(|&b| fmt_bw(b)).collect();
    y_ticks.reverse();
    Heatmap {
        x_label: "WiFi (Mbps)".into(),
        y_label: "LTE (Mbps)".into(),
        x_ticks: BW_SET.iter().map(|&b| fmt_bw(b)).collect(),
        y_ticks,
        values,
        lo: 0.0,
        hi: 1.0,
    }
}

/// Fig 2: ratio of measured vs ideal bit rate, default scheduler.
pub fn fig2(effort: Effort) -> String {
    let mut out = String::from(
        "Fig 2: Ratio of measured vs. ideal bit rate, default MPTCP scheduler\n\
         (darker is better; paper: dark diagonal, light heterogeneous corners)\n\n",
    );
    out.push_str(&ratio_heatmap(SchedulerKind::Default, effort).render());
    out
}

/// Fig 9: the headline heatmaps for default, ECF, DAPS, BLEST.
pub fn fig9(effort: Effort) -> String {
    let mut out = String::from(
        "Fig 9: Ratio of measured average bit rate vs. ideal average bit rate\n\
         (paper: ECF darkest everywhere; default/DAPS/BLEST light off-diagonal)\n",
    );
    for kind in SchedulerKind::paper_set() {
        out.push_str(&format!("\n--- ({}) ---\n", kind.label()));
        out.push_str(&ratio_heatmap(kind, effort).render());
    }
    out
}

/// Fig 1: example download progress trace (ON-OFF behaviour).
pub fn fig1(effort: Effort) -> String {
    let cfg = StreamingConfig {
        video_secs: effort.video_secs(),
        ..StreamingConfig::new(4.2, 4.2, SchedulerKind::Default, 7)
    };
    let out = run_streaming(&cfg);
    let mut s = String::from(
        "Fig 1: Example download behaviour (cumulative MB vs. time)\n\
         (paper: steep initial buffering, then staircase ON-OFF cycles)\n\n\
         time_s\tcumulative_MB\n",
    );
    for (t, mb) in &out.download_progress {
        s.push_str(&format!("{t:.2}\t{mb:.2}\n"));
    }
    s
}

/// Fig 5: CDF of the time difference between last packets per download.
pub fn fig5(effort: Effort) -> String {
    let pairs = [(0.3, 8.6), (0.7, 8.6), (1.1, 8.6), (4.2, 8.6)];
    let mut s = String::from(
        "Fig 5: CDF of time difference between last packets (WiFi vs LTE), default\n\
         (paper: more heterogeneity -> larger gaps; 0.3-8.6 median ~1 s)\n\n",
    );
    let gaps_per_pair = parallel_map(pairs.to_vec(), |(w, l)| {
        let out = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            ..StreamingConfig::new(w, l, SchedulerKind::Default, 7)
        });
        out.last_packet_gaps
    });
    let mut rows = Vec::new();
    for (&(w, l), gaps) in pairs.iter().zip(&gaps_per_pair) {
        let cdf = Cdf::from_samples(gaps.clone());
        rows.push(vec![
            format!("{}-{}", fmt_bw(w), fmt_bw(l)),
            format!("{}", cdf.len()),
            format!("{:.3}", cdf.median()),
            format!("{:.3}", cdf.quantile(0.9)),
            format!("{:.3}", cdf.max()),
        ]);
    }
    s.push_str(&render_table(
        &["pair(Mbps)", "n", "median_s", "p90_s", "max_s"],
        &rows,
    ));
    s.push_str("\nCDF series (gap_s, P[gap<=x]) for 0.3-8.6:\n");
    let cdf = Cdf::from_samples(gaps_per_pair[0].clone());
    for (x, p) in cdf.cdf_series(2.5, 11) {
        s.push_str(&format!("{x:.2}\t{p:.3}\n"));
    }
    s
}

/// Fig 6: throughput with and without CWND conservation, default scheduler,
/// all 36 pairs, plus the ideal aggregate.
pub fn fig6(effort: Effort) -> String {
    let mut s = String::from(
        "Fig 6: Streaming throughput w/ and w/o CWND reset (default scheduler)\n\
         (paper: disabling the reset helps but stays below the ideal)\n\n",
    );
    let pairs: Vec<(f64, f64)> = BW_SET
        .iter()
        .flat_map(|&w| BW_SET.iter().map(move |&l| (w, l)))
        .collect();
    let results = parallel_map(pairs.clone(), |(w, l)| {
        let with = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            ..StreamingConfig::new(w, l, SchedulerKind::Default, 5)
        });
        let without = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            cwnd_conservation: false,
            ..StreamingConfig::new(w, l, SchedulerKind::Default, 5)
        });
        (with.avg_throughput, without.avg_throughput)
    });
    let mut rows = Vec::new();
    for (&(w, l), &(with, without)) in pairs.iter().zip(&results) {
        rows.push(vec![
            format!("{}-{}", fmt_bw(w), fmt_bw(l)),
            format!("{with:.2}"),
            format!("{without:.2}"),
            format!("{:.2}", w + l),
        ]);
    }
    s.push_str(&render_table(
        &["wifi-lte", "w/_reset_Mbps", "w/o_reset_Mbps", "ideal_Mbps"],
        &rows,
    ));
    s
}

/// Figs 7 & 10: fraction of traffic on the fast subflow vs the ideal split.
pub fn fig7_fig10(effort: Effort) -> String {
    let mut s = String::from(
        "Figs 7 & 10: Fraction of traffic allocated to the fast subflow\n\
         (paper: default undershoots the ideal; ECF tracks it; BLEST between)\n\n",
    );
    let pairs: Vec<(f64, f64)> = BW_SET
        .iter()
        .flat_map(|&w| BW_SET.iter().map(move |&l| (w, l)))
        .collect();
    let kinds = [SchedulerKind::Default, SchedulerKind::Blest, SchedulerKind::Ecf];
    let work: Vec<((f64, f64), SchedulerKind)> = pairs
        .iter()
        .flat_map(|&p| kinds.iter().map(move |&k| (p, k)))
        .collect();
    let fractions = parallel_map(work.clone(), |((w, l), k)| {
        run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            ..StreamingConfig::new(w, l, k, 5)
        })
        .fast_fraction
    });
    let mut rows = Vec::new();
    for (i, &(w, l)) in pairs.iter().enumerate() {
        let base = i * kinds.len();
        let ideal = w.max(l) / (w + l);
        rows.push(vec![
            format!("{}-{}", fmt_bw(w), fmt_bw(l)),
            format!("{:.2}", fractions[base]),
            format!("{:.2}", fractions[base + 1]),
            format!("{:.2}", fractions[base + 2]),
            format!("{ideal:.2}"),
        ]);
    }
    s.push_str(&render_table(&["wifi-lte", "default", "blest", "ecf", "ideal"], &rows));
    s
}

/// Figs 11 & 12: WiFi and LTE CWND traces, all four schedulers, 0.3/8.6.
pub fn fig11_fig12(effort: Effort) -> String {
    let mut s = String::from(
        "Figs 11 & 12: CWND traces at 0.3 Mbps WiFi / 8.6 Mbps LTE\n\
         (paper: ECF keeps the LTE window high; default resets it constantly)\n\n",
    );
    let traces = parallel_map(SchedulerKind::paper_set().to_vec(), |kind| {
        let out = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            recorder: RecorderConfig { cwnd_traces: true, ..RecorderConfig::default() },
            ..StreamingConfig::new(0.3, 8.6, kind, 7)
        });
        (kind.label(), out.cwnd_traces)
    });
    for (iface, idx) in [("WiFi (Fig 11)", 0), ("LTE (Fig 12)", 1)] {
        s.push_str(&format!("--- {iface} cwnd (segments) ---\ntime_s"));
        for (label, _) in &traces {
            s.push_str(&format!("\t{label}"));
        }
        s.push('\n');
        let thinned: Vec<metrics::TimeSeries> =
            traces.iter().map(|(_, t)| t[idx].thin(60)).collect();
        for &(t, v0) in &thinned[0].points {
            s.push_str(&format!("{t:.1}\t{v0:.0}"));
            for series in &traces[1..] {
                let v = series.1[idx].value_at(t).unwrap_or(0.0);
                s.push_str(&format!("\t{v:.0}"));
            }
            s.push('\n');
        }
        // Summary: mean cwnd in the steady half of the run.
        s.push_str("mean(second half):");
        for (label, t) in &traces {
            let half = t[idx].points.len() / 2;
            let vals: Vec<f64> = t[idx].points[half..].iter().map(|&(_, v)| v).collect();
            s.push_str(&format!("  {label}={:.0}", metrics::mean(&vals)));
        }
        s.push_str("\n\n");
    }
    s
}

/// Table 3: number of initial-window resets on the fast (LTE) subflow.
pub fn tab3(effort: Effort) -> String {
    let rows = parallel_map(SchedulerKind::paper_set().to_vec(), |kind| {
        let out = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            ..StreamingConfig::new(0.3, 8.6, kind, 7)
        });
        vec![kind.label().to_string(), out.fast_iw_resets.to_string()]
    });
    let mut s = String::from(
        "Table 3: # of IW resets on the fast subflow, 0.3 Mbps WiFi / 8.6 Mbps LTE\n\
         (paper: default 486, DAPS 92, BLEST 382, ECF 16 over a 1332 s video —\n\
          shape: ECF lowest by an order of magnitude)\n\n",
    );
    s.push_str(&render_table(&["scheduler", "iw_resets"], &rows));
    s
}

/// Fig 13: OOO-delay CCDF for the default scheduler across pairs.
pub fn fig13(effort: Effort) -> String {
    let pairs = [(0.3, 8.6), (0.7, 8.6), (1.1, 8.6), (4.2, 8.6)];
    let mut s = String::from(
        "Fig 13: Out-of-order delay CCDF, default scheduler\n\
         (paper: heavier heterogeneity -> heavier tail; 0.3-8.6 median ~1 s)\n\n\
         delay_s",
    );
    for &(w, l) in &pairs {
        s.push_str(&format!("\t{}-{}", fmt_bw(w), fmt_bw(l)));
    }
    s.push('\n');
    let cdfs = parallel_map(pairs.to_vec(), |(w, l)| {
        let out = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            ..StreamingConfig::new(w, l, SchedulerKind::Default, 7)
        });
        Cdf::from_samples(out.ooo_delays)
    });
    for i in 0..=14 {
        let x = i as f64 * 0.1;
        s.push_str(&format!("{x:.1}"));
        for cdf in &cdfs {
            s.push_str(&format!("\t{:.4}", cdf.ccdf_at(x)));
        }
        s.push('\n');
    }
    s
}

/// Fig 14: OOO-delay CCDF per scheduler at two heterogeneity levels.
pub fn fig14(effort: Effort) -> String {
    let mut s = String::from(
        "Fig 14: Out-of-order delay CCDF per scheduler\n\
         (paper: under heterogeneity ECF's tail is smallest; near-parity when symmetric)\n",
    );
    for (w, l) in [(0.3, 8.6), (4.2, 8.6)] {
        s.push_str(&format!("\n--- {}-{} Mbps ---\ndelay_s", fmt_bw(w), fmt_bw(l)));
        for kind in SchedulerKind::paper_set() {
            s.push_str(&format!("\t{}", kind.label()));
        }
        s.push('\n');
        let cdfs = parallel_map(SchedulerKind::paper_set().to_vec(), |kind| {
            let out = run_streaming(&StreamingConfig {
                video_secs: effort.video_secs(),
                ..StreamingConfig::new(w, l, kind, 7)
            });
            Cdf::from_samples(out.ooo_delays)
        });
        for i in 0..=14 {
            let x = i as f64 * 0.1;
            s.push_str(&format!("{x:.1}"));
            for cdf in &cdfs {
                s.push_str(&format!("\t{:.4}", cdf.ccdf_at(x)));
            }
            s.push('\n');
        }
        s.push_str("mean_s:");
        for (kind, cdf) in SchedulerKind::paper_set().iter().zip(&cdfs) {
            s.push_str(&format!("  {}={:.3}", kind.label(), cdf.mean()));
        }
        s.push('\n');
    }
    s
}

/// Fig 15: four subflows (two per interface), default vs ECF.
pub fn fig15(effort: Effort) -> String {
    let mut s = String::from(
        "Fig 15: Bit-rate ratio with 4 subflows (2/interface), 0.3 Mbps WiFi\n\
         (paper: ECF keeps mitigating heterogeneity with more subflows)\n\n",
    );
    let work: Vec<(SchedulerKind, f64)> = [SchedulerKind::Default, SchedulerKind::Ecf]
        .iter()
        .flat_map(|&k| BW_SET.iter().map(move |&l| (k, l)))
        .collect();
    let ratios = parallel_map(work.clone(), |(kind, lte)| {
        let out = run_streaming(&StreamingConfig {
            video_secs: effort.video_secs(),
            subflows_per_interface: 2,
            ..StreamingConfig::new(0.3, lte, kind, 7)
        });
        (out.avg_bitrate / out.ideal_bitrate).min(1.0)
    });
    let mut rows = Vec::new();
    for (i, kind) in ["default", "ecf"].iter().enumerate() {
        let mut cells = vec![kind.to_string()];
        for j in 0..BW_SET.len() {
            cells.push(format!("{:.2}", ratios[i * BW_SET.len() + j]));
        }
        rows.push(cells);
    }
    let mut header = vec!["sched\\lte"];
    let ticks: Vec<String> = BW_SET.iter().map(|&b| fmt_bw(b)).collect();
    header.extend(ticks.iter().map(String::as_str));
    s.push_str(&render_table(&header, &rows));
    s
}

/// Table 1: the bit-rate ladder (constants check).
pub fn tab1() -> String {
    let mut rows = Vec::new();
    for (res, rate) in dash::RESOLUTIONS.iter().zip(dash::BITRATE_LADDER_MBPS.iter()) {
        rows.push(vec![res.to_string(), format!("{rate:.2}")]);
    }
    let mut s = String::from("Table 1: Video bit rates vs. resolution\n\n");
    s.push_str(&render_table(&["resolution", "bitrate_Mbps"], &rows));
    s
}

/// Table 2: average RTT per regulated bandwidth, measured with a saturating
/// bulk flow per interface.
pub fn tab2() -> String {
    let work: Vec<(usize, f64)> = BW_SET
        .iter()
        .enumerate()
        .flat_map(|(i, &bw)| [(i * 2, bw), (i * 2 + 1, bw)])
        .collect();
    let rtts = parallel_map(work, |(slot, bw)| {
        // Saturate one path with a single-path bulk download and read sRTT.
        let is_lte = slot % 2 == 1;
        let (wifi, lte) = if is_lte { (0.1, bw) } else { (bw, 0.1) };
        let sub = usize::from(is_lte);
        let cfg = mptcp::TestbedConfig::wifi_lte(
            wifi,
            lte,
            SchedulerKind::SinglePath(sub),
            9,
        );
        let mut tb = mptcp::Testbed::new(cfg, webload::WgetApp::new(2 * 1024 * 1024));
        tb.run_until(Time::from_secs(240));
        tb.world().sender(0).subflows[sub].cc.rtt.srtt().as_secs_f64() * 1e3
    });
    let mut rows = vec![
        vec!["WiFi RTT(ms)".to_string()],
        vec!["LTE RTT(ms)".to_string()],
    ];
    for i in 0..BW_SET.len() {
        rows[0].push(format!("{:.0}", rtts[i * 2]));
        rows[1].push(format!("{:.0}", rtts[i * 2 + 1]));
    }
    let mut header = vec!["Bandwidth(Mbps)"];
    let ticks: Vec<String> = BW_SET.iter().map(|&b| fmt_bw(b)).collect();
    header.extend(ticks.iter().map(String::as_str));
    let mut s = String::from(
        "Table 2: Avg RTT under bandwidth regulation (bulk-saturated path)\n\
         (paper: WiFi 969..40 ms, LTE 858..105 ms as rate grows; shape = RTT\n\
          falls with rate, LTE above WiFi at equal rate)\n\n",
    );
    s.push_str(&render_table(&header, &rows));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Effort = Effort::Quick;

    #[test]
    fn tab1_lists_six_rungs() {
        let t = tab1();
        assert!(t.contains("1080p"));
        assert!(t.contains("8.47"));
        assert_eq!(t.lines().count(), 4 + 6);
    }

    #[test]
    fn fig1_produces_monotone_progress() {
        let s = fig1(QUICK);
        let points: Vec<f64> = s
            .lines()
            .skip(4)
            .filter_map(|l| l.split('\t').nth(1)?.parse().ok())
            .collect();
        assert!(points.len() >= 5);
        for w in points.windows(2) {
            assert!(w[1] >= w[0], "progress went backwards");
        }
    }

    #[test]
    fn tab3_shows_ecf_with_fewest_resets() {
        let t = tab3(QUICK);
        // Parse the table rows: label then count.
        let mut counts = std::collections::HashMap::new();
        for line in t.lines().skip(6) {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(n)) = (parts.next(), parts.next()) {
                if let Ok(n) = n.parse::<u64>() {
                    counts.insert(name.to_string(), n);
                }
            }
        }
        let ecf = counts["ecf"];
        let def = counts["default"];
        assert!(
            ecf <= def,
            "ECF must not reset the fast subflow more than default ({ecf} vs {def})"
        );
    }
}
