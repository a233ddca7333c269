//! Web-browsing parameters (§5.5): the bandwidth configurations of Figs 20
//! and 21, which `specs/fig20.json`, `specs/fig21.json` and
//! `specs/quic_web.json` spell out and the benchmark's page-load
//! workloads share.

/// The three bandwidth configurations of Figs 20/21.
pub const CONFIGS: [(f64, f64); 3] = [(5.0, 5.0), (1.0, 5.0), (1.0, 10.0)];
