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
//! Reports are printed and also written to `results/<id>.txt`.
//!
//! An entry is either a code generator or a declarative [`expmatrix`] spec
//! (`specs/<id>.json`, embedded at build time; DESIGN.md §10). A
//! spec-backed `repro <id>` *is* `repro matrix` on that spec: its cells are
//! served from the content-addressed cache (default `.expcache/`) when
//! unchanged, so a warm re-run executes zero cells, and `--force`,
//! `--dry-run` and `--cache-dir` apply. Any spec file runs the same way:
//!
//! ```text
//! cargo run -p experiments --release --bin repro -- matrix crates/experiments/specs/smoke.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod common;
pub mod cosim;
pub mod downloads;
pub mod expmatrix;
pub mod quicweb;
pub mod sharding;
pub mod streaming;
pub mod trace;
pub mod web;
pub mod wild;

pub use common::{
    default_workers, parallel_map, parallel_map_workers, run_browse, run_browse_n, run_streaming,
    run_wget, Effort, ENV_WORKERS,
    StreamingConfig, StreamingOutcome, BW_SET, MAX_WORKERS, VARIABLE_BW_SET,
};
pub use cosim::{BoundaryMsg, CoupledRun, SharedBottleneck, COUPLED_BENCH_GROUPS};
pub use expmatrix::{run_matrix, MatrixOptions, MatrixOutcome};
pub use quicweb::{run_quic_web, OpenAllApp, QUIC_WEB_SCHEDULERS};
pub use sharding::{
    browse_10k, browse_10k_coupled, browse_1k, browse_1k_coupled, browse_coupled_population,
    browse_population,
    partition, plan_shards, run_balanced, run_sweep, PopConn, PopUnit, Population, SweepOptions,
    SweepReport, UnitReport,
};
pub use trace::{run_traced, TraceRun};

/// How an experiment produces its report.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// An imperative generator.
    Code(fn(Effort) -> String),
    /// An expmatrix spec document (`specs/<id>.json`, embedded at build
    /// time); the report is [`run_matrix`] on it.
    Spec(&'static str),
}

/// An experiment: id, paper artifact, and how to regenerate it.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Identifier used on the `repro` command line (e.g. "fig9").
    pub id: &'static str,
    /// What it reproduces (aliases of one artifact share it).
    pub title: &'static str,
    /// Generate the report.
    pub source: Source,
}

impl Experiment {
    /// Generate the report. A code generator reads only `opts.effort`; a
    /// spec runs through the matrix with every option.
    pub fn run(&self, opts: &MatrixOptions) -> Result<String, String> {
        match self.source {
            Source::Code(generate) => Ok(generate(opts.effort)),
            Source::Spec(json) => Ok(run_matrix(&expmatrix::Spec::from_json(json)?, opts)?.report),
        }
    }
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment { id: "tab1", title: "Table 1: bit rates vs resolution", source: Source::Code(|_| streaming::tab1()) },
        Experiment { id: "fig1", title: "Fig 1: ON-OFF download behaviour", source: Source::Code(streaming::fig1) },
        Experiment { id: "fig2", title: "Fig 2: bitrate ratio heatmap (default)", source: Source::Code(streaming::fig2) },
        Experiment { id: "fig3", title: "Fig 3: send-buffer occupancy trace", source: Source::Spec(include_str!("../specs/fig3.json")) },
        Experiment { id: "fig5", title: "Fig 5: last-packet time differences", source: Source::Code(streaming::fig5) },
        Experiment { id: "fig6", title: "Fig 6: throughput w/ and w/o CWND reset", source: Source::Code(streaming::fig6) },
        Experiment { id: "fig7", title: "Figs 7 & 10: fast-subflow traffic fraction", source: Source::Code(streaming::fig7_fig10) },
        Experiment { id: "tab2", title: "Table 2: RTT vs regulated bandwidth", source: Source::Code(|_| streaming::tab2()) },
        Experiment { id: "fig9", title: "Fig 9: bitrate ratio heatmaps, 4 schedulers", source: Source::Code(streaming::fig9) },
        Experiment { id: "fig10", title: "Figs 7 & 10: fast-subflow traffic fraction", source: Source::Code(streaming::fig7_fig10) },
        Experiment { id: "fig11", title: "Figs 11 & 12: CWND traces", source: Source::Code(streaming::fig11_fig12) },
        Experiment { id: "fig12", title: "Figs 11 & 12: CWND traces", source: Source::Code(streaming::fig11_fig12) },
        Experiment { id: "tab3", title: "Table 3: IW resets per scheduler", source: Source::Code(streaming::tab3) },
        Experiment { id: "fig13", title: "Fig 13: OOO delay CCDF (default)", source: Source::Code(streaming::fig13) },
        Experiment { id: "fig14", title: "Fig 14: OOO delay CCDF per scheduler", source: Source::Code(streaming::fig14) },
        Experiment { id: "fig15", title: "Fig 15: four-subflow bitrate ratios", source: Source::Code(streaming::fig15) },
        Experiment { id: "fig16", title: "Fig 16: random bandwidth scenarios", source: Source::Spec(include_str!("../specs/fig16.json")) },
        Experiment { id: "fig17", title: "Fig 17: per-chunk throughput trace", source: Source::Spec(include_str!("../specs/fig17.json")) },
        Experiment { id: "fig18", title: "Fig 18: download completion times", source: Source::Code(downloads::fig18) },
        Experiment { id: "fig19", title: "Fig 19: ECF/default completion ratio", source: Source::Code(downloads::fig19) },
        Experiment { id: "fig20", title: "Fig 20: web object completion CCDF", source: Source::Code(web::fig20) },
        Experiment { id: "fig21", title: "Fig 21: web OOO delay CCDF", source: Source::Code(web::fig21) },
        Experiment { id: "fig22", title: "Fig 22: wild streaming", source: Source::Code(wild::fig22) },
        Experiment { id: "fig23", title: "Fig 23 / Table 4: wild web browsing", source: Source::Code(wild::fig23_tab4) },
        Experiment { id: "tab4", title: "Fig 23 / Table 4: wild web browsing", source: Source::Code(wild::fig23_tab4) },
        Experiment { id: "ablation_beta", title: "Ablation: β sweep", source: Source::Code(ablations::ablation_beta) },
        Experiment { id: "ablation_components", title: "Ablation: δ & 2nd inequality", source: Source::Code(ablations::ablation_components) },
        Experiment { id: "ablation_cc", title: "Ablation: congestion controllers", source: Source::Code(ablations::ablation_cc) },
        Experiment { id: "extension_sttf", title: "Extension: STTF vs ECF", source: Source::Code(ablations::extension_sttf) },
        Experiment { id: "dyn_handover", title: "Dynamics: periodic LTE blackout ladder", source: Source::Spec(include_str!("../specs/dyn_handover.json")) },
        Experiment { id: "dyn_burstloss", title: "Dynamics: bursty LTE loss sweep", source: Source::Spec(include_str!("../specs/dyn_burstloss.json")) },
        Experiment { id: "quic_web", title: "QUIC: 107-stream MPQUIC page load vs 6-connection MPTCP", source: Source::Spec(include_str!("../specs/quic_web.json")) },
        Experiment { id: "coupled_browse", title: "Co-sim: shared-bottleneck browse population, monolith vs lockstep engine groups", source: Source::Code(cosim::coupled_browse) },
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
            "tab1", "tab2", "tab3", "tab4", "fig1", "fig2", "fig3", "fig5", "fig6", "fig7",
            "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "dyn_handover",
            "dyn_burstloss", "quic_web",
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
