//! # experiments — the paper's evaluation, end to end
//!
//! One entry per table and figure of *ECF: An MPTCP Path Scheduler to Manage
//! Heterogeneous Paths* (CoNEXT '17), each regenerating the corresponding
//! rows/series from the simulated testbed. Run them via the `repro` binary:
//!
//! ```text
//! cargo run -p experiments --release --bin repro -- fig9
//! cargo run -p experiments --release --bin repro -- all --quick
//! ```
//!
//! Reports are printed and also written to `results/<name>.txt`, where
//! `name` is the spec's (an alias such as `fig10` writes `fig7.txt`).
//!
//! Every entry is a declarative [`expmatrix`] spec (`specs/<name>.json`,
//! embedded at build time; DESIGN.md §10), so `repro <id>` *is* `repro
//! matrix` on that spec: its cells are served from the content-addressed
//! cache (default `.expcache/`) when unchanged, so a warm re-run executes
//! zero cells, and `--force`, `--dry-run` and `--cache-dir` apply. Any spec
//! file runs the same way:
//!
//! ```text
//! cargo run -p experiments --release --bin repro -- matrix crates/experiments/specs/smoke.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod cosim;
pub mod expmatrix;
pub mod quicweb;
pub mod sharding;
pub mod web;

pub use common::{
    parallel_map_workers, run_browse, run_streaming, Effort, StreamingConfig, StreamingOutcome,
    BW_SET,
};
pub use cosim::{CoupledRun, SharedBottleneck, COUPLED_BENCH_GROUPS};
pub use expmatrix::{run_matrix, MatrixOptions, MatrixOutcome};
pub use quicweb::{run_quic_web, OpenAllApp, QUIC_WEB_SCHEDULERS};
pub use sharding::{
    browse_10k_coupled, browse_1k, browse_coupled_population, browse_population, partition,
    plan_shards, run_sweep, PopConn, PopUnit, Population, SweepOptions, SweepReport, UnitReport,
};

/// An experiment: id, paper artifact, and the spec that regenerates it.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Identifier used on the `repro` command line (e.g. "fig9").
    pub id: &'static str,
    /// What it reproduces (aliases of one artifact share it).
    pub title: &'static str,
    /// The expmatrix spec document (`specs/<name>.json`, embedded at build
    /// time; aliases share one). Its `name` stems the results file.
    pub spec: &'static str,
}

impl Experiment {
    /// The parsed spec.
    pub fn spec(&self) -> Result<expmatrix::Spec, String> {
        expmatrix::Spec::from_json(self.spec)
    }

    /// Generate the report: [`run_matrix`] on the spec.
    pub fn run(&self, opts: &MatrixOptions) -> Result<String, String> {
        Ok(run_matrix(&self.spec()?, opts)?.report)
    }
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            title: "Table 1: bit rates vs resolution",
            spec: include_str!("../specs/tab1.json"),
        },
        Experiment {
            id: "fig1",
            title: "Fig 1: ON-OFF download behaviour",
            spec: include_str!("../specs/fig1.json"),
        },
        Experiment {
            id: "fig2",
            title: "Fig 2: bitrate ratio heatmap (default)",
            spec: include_str!("../specs/fig2.json"),
        },
        Experiment {
            id: "fig3",
            title: "Fig 3: send-buffer occupancy trace",
            spec: include_str!("../specs/fig3.json"),
        },
        Experiment {
            id: "fig5",
            title: "Fig 5: last-packet time differences",
            spec: include_str!("../specs/fig5.json"),
        },
        Experiment {
            id: "fig6",
            title: "Fig 6: throughput w/ and w/o CWND reset",
            spec: include_str!("../specs/fig6.json"),
        },
        Experiment {
            id: "fig7",
            title: "Figs 7 & 10: fast-subflow traffic fraction",
            spec: include_str!("../specs/fig7.json"),
        },
        Experiment {
            id: "tab2",
            title: "Table 2: RTT vs regulated bandwidth",
            spec: include_str!("../specs/tab2.json"),
        },
        Experiment {
            id: "fig9",
            title: "Fig 9: bitrate ratio heatmaps, 4 schedulers",
            spec: include_str!("../specs/fig9.json"),
        },
        Experiment {
            id: "fig10",
            title: "Figs 7 & 10: fast-subflow traffic fraction",
            spec: include_str!("../specs/fig7.json"),
        },
        Experiment {
            id: "fig11",
            title: "Figs 11 & 12: CWND traces",
            spec: include_str!("../specs/fig11.json"),
        },
        Experiment {
            id: "fig12",
            title: "Figs 11 & 12: CWND traces",
            spec: include_str!("../specs/fig11.json"),
        },
        Experiment {
            id: "tab3",
            title: "Table 3: IW resets per scheduler",
            spec: include_str!("../specs/tab3.json"),
        },
        Experiment {
            id: "fig13",
            title: "Fig 13: OOO delay CCDF (default)",
            spec: include_str!("../specs/fig13.json"),
        },
        Experiment {
            id: "fig14",
            title: "Fig 14: OOO delay CCDF per scheduler",
            spec: include_str!("../specs/fig14.json"),
        },
        Experiment {
            id: "fig15",
            title: "Fig 15: four-subflow bitrate ratios",
            spec: include_str!("../specs/fig15.json"),
        },
        Experiment {
            id: "fig16",
            title: "Fig 16: random bandwidth scenarios",
            spec: include_str!("../specs/fig16.json"),
        },
        Experiment {
            id: "fig17",
            title: "Fig 17: per-chunk throughput trace",
            spec: include_str!("../specs/fig17.json"),
        },
        Experiment {
            id: "fig18",
            title: "Fig 18: download completion times",
            spec: include_str!("../specs/fig18.json"),
        },
        Experiment {
            id: "fig19",
            title: "Fig 19: ECF/default completion ratio",
            spec: include_str!("../specs/fig19.json"),
        },
        Experiment {
            id: "fig20",
            title: "Fig 20: web object completion CCDF",
            spec: include_str!("../specs/fig20.json"),
        },
        Experiment {
            id: "fig21",
            title: "Fig 21: web OOO delay CCDF",
            spec: include_str!("../specs/fig21.json"),
        },
        Experiment {
            id: "fig22",
            title: "Fig 22: wild streaming",
            spec: include_str!("../specs/fig22.json"),
        },
        Experiment {
            id: "fig23",
            title: "Fig 23 / Table 4: wild web browsing",
            spec: include_str!("../specs/fig23.json"),
        },
        Experiment {
            id: "tab4",
            title: "Fig 23 / Table 4: wild web browsing",
            spec: include_str!("../specs/fig23.json"),
        },
        Experiment {
            id: "ablation_beta",
            title: "Ablation: β sweep",
            spec: include_str!("../specs/ablation_beta.json"),
        },
        Experiment {
            id: "ablation_components",
            title: "Ablation: δ & 2nd inequality",
            spec: include_str!("../specs/ablation_components.json"),
        },
        Experiment {
            id: "ablation_cc",
            title: "Ablation: congestion controllers",
            spec: include_str!("../specs/ablation_cc.json"),
        },
        Experiment {
            id: "extension_sttf",
            title: "Extension: STTF vs ECF",
            spec: include_str!("../specs/extension_sttf.json"),
        },
        Experiment {
            id: "dyn_handover",
            title: "Dynamics: periodic LTE blackout ladder",
            spec: include_str!("../specs/dyn_handover.json"),
        },
        Experiment {
            id: "dyn_burstloss",
            title: "Dynamics: bursty LTE loss sweep",
            spec: include_str!("../specs/dyn_burstloss.json"),
        },
        Experiment {
            id: "quic_web",
            title: "QUIC: 107-stream MPQUIC page load vs 6-connection MPTCP",
            spec: include_str!("../specs/quic_web.json"),
        },
        Experiment {
            id: "browse_sweep",
            title: "Population: 1667 browse units, one engine each",
            spec: include_str!("../specs/browse_sweep.json"),
        },
        Experiment {
            id: "coupled_browse",
            title: "Population: browse units behind a shared LTE backhaul (co-sim)",
            spec: include_str!("../specs/coupled_browse.json"),
        },
        Experiment {
            id: "trace",
            title: "Trace: the 0.3/8.6 Mbps ECF streaming run (`--trace DIR`)",
            spec: include_str!("../specs/trace.json"),
        },
    ]
}

/// Look up one experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        for required in [
            "tab1",
            "tab2",
            "tab3",
            "tab4",
            "fig1",
            "fig2",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "fig22",
            "fig23",
            "dyn_handover",
            "dyn_burstloss",
            "quic_web",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn find_resolves_ids() {
        assert!(find("fig9").is_some());
        assert!(find("nope").is_none());
    }
}
