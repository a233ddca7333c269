//! Web-browsing experiments (§5.5): Figs 20 and 21 — per-object completion
//! times and out-of-order delay over six parallel persistent connections.

use ecf_core::SchedulerKind;
use metrics::{render_table, Cdf};

use crate::common::{fmt_bw, parallel_map, run_browse, Effort};

/// The three bandwidth configurations of Figs 20/21.
pub const CONFIGS: [(f64, f64); 3] = [(5.0, 5.0), (1.0, 5.0), (1.0, 10.0)];

fn runs_for(effort: Effort) -> u64 {
    match effort {
        Effort::Full => 3,
        Effort::Quick => 1,
    }
}

/// Collect object completion times and OOO delays for one scheduler/config.
fn browse_samples(
    wifi: f64,
    lte: f64,
    kind: SchedulerKind,
    effort: Effort,
) -> (Vec<f64>, Vec<f64>) {
    let per_seed = parallel_map((0..runs_for(effort)).collect(), |seed| {
        let mut tb = run_browse(wifi, lte, kind, 300 + seed);
        assert!(tb.app().done(), "page load must complete");
        (
            tb.app().completion_times_secs(),
            tb.world_mut().recorder.take_ooo_secs(),
        )
    });
    let mut completions = Vec::new();
    let mut ooo = Vec::new();
    for (c, o) in per_seed {
        completions.extend(c);
        ooo.extend(o);
    }
    (completions, ooo)
}

/// Fig 20: CCDF of individual object download completion times.
pub fn fig20(effort: Effort) -> String {
    let mut s = String::from(
        "Fig 20: Web object download completion time CCDF (107-object page,\n\
         6 parallel MPTCP connections)\n\
         (paper: parity at 5-5; ECF clearly fastest at 1-5 and 1-10)\n",
    );
    for &(w, l) in &CONFIGS {
        s.push_str(&format!("\n--- {} Mbps WiFi / {} Mbps LTE ---\n", fmt_bw(w), fmt_bw(l)));
        let cdfs = parallel_map(SchedulerKind::paper_set().to_vec(), |kind| {
            let (completions, _) = browse_samples(w, l, kind, effort);
            Cdf::from_samples(completions)
        });
        let mut rows = Vec::new();
        for (kind, cdf) in SchedulerKind::paper_set().iter().zip(&cdfs) {
            rows.push(vec![
                kind.label().to_string(),
                format!("{:.3}", cdf.mean()),
                format!("{:.3}", cdf.median()),
                format!("{:.3}", cdf.quantile(0.99)),
                format!("{:.3}", cdf.max()),
            ]);
        }
        s.push_str(&render_table(
            &["scheduler", "mean_s", "median_s", "p99_s", "max_s"],
            &rows,
        ));
        s.push_str("\nCCDF series (x_s, P[T>x]):\nx");
        for kind in SchedulerKind::paper_set() {
            s.push_str(&format!("\t{}", kind.label()));
        }
        s.push('\n');
        for i in 0..=10 {
            let x = i as f64 * 0.2;
            s.push_str(&format!("{x:.1}"));
            for cdf in &cdfs {
                s.push_str(&format!("\t{:.4}", cdf.ccdf_at(x)));
            }
            s.push('\n');
        }
    }
    s
}

/// Fig 21: CCDF of out-of-order delays during Web browsing.
pub fn fig21(effort: Effort) -> String {
    let mut s = String::from(
        "Fig 21: Out-of-order delay CCDF, Web browsing\n\
         (paper: ECF's reordering tail smallest under heterogeneity)\n",
    );
    for &(w, l) in &CONFIGS {
        s.push_str(&format!("\n--- {} Mbps WiFi / {} Mbps LTE ---\n", fmt_bw(w), fmt_bw(l)));
        let cdfs = parallel_map(SchedulerKind::paper_set().to_vec(), |kind| {
            let (_, ooo) = browse_samples(w, l, kind, effort);
            Cdf::from_samples(ooo)
        });
        let mut rows = Vec::new();
        for (kind, cdf) in SchedulerKind::paper_set().iter().zip(&cdfs) {
            rows.push(vec![
                kind.label().to_string(),
                format!("{:.4}", cdf.mean()),
                format!("{:.4}", cdf.quantile(0.99)),
                format!("{:.4}", cdf.max()),
            ]);
        }
        s.push_str(&render_table(&["scheduler", "mean_s", "p99_s", "max_s"], &rows));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browse_samples_full_page() {
        let (completions, ooo) = browse_samples(5.0, 5.0, SchedulerKind::Default, Effort::Quick);
        assert_eq!(completions.len(), 107);
        assert!(!ooo.is_empty());
        assert!(completions.iter().all(|&t| t > 0.0));
    }
}
