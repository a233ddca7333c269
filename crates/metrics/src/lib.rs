//! # metrics — measurement and reporting utilities
//!
//! Everything the experiment harness needs to turn raw simulation events into
//! the rows, CDFs and heatmaps the paper reports:
//!
//! * [`mean`] / [`stddev`] — summary statistics of a sample set,
//! * [`Cdf`] — empirical CDF/CCDF queries for the per-packet delay figures,
//! * [`TimeSeries`] — CWND / buffer / throughput traces,
//! * [`render_table`] / [`Heatmap`] — plain-text report rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod series;
mod summary;
mod table;

pub use dist::Cdf;
pub use series::TimeSeries;
pub use summary::{mean, stddev};
pub use table::{render_table, Heatmap};
