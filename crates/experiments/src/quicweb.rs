//! `quic_web`: the cnn-like page over one multipath-QUIC connection vs six
//! MPTCP connections.
//!
//! The MPTCP browse workload (Figs 20/21) splits the page's 107 objects
//! over 6 parallel HTTP/1.1 connections because a single ordered byte
//! stream would head-of-line-block the whole page. QUIC removes that
//! constraint: here the *same* page loads as 107 concurrent streams on
//! *one* connection, with per-stream reassembly (`quic::QuicReceiver`)
//! keeping streams independent. Both transports place packets through the
//! identical scheduler seam, so the comparison isolates the transport
//! architecture: completion times, page-load time, and the reordering
//! (OOO-delay) tail for ECF vs minRTT (default) vs BLEST on both.
//!
//! The report is the `quic_web` spec (`specs/quic_web.json`), executed by
//! `expmatrix::cells` and rendered by `expmatrix::figures`; this module
//! holds the QUIC side's app and runner.

use ecf_core::SchedulerKind;
use mptcp::{ReqId, TransportApi, TransportApp};
use quic::{QuicTestbed, QuicTestbedConfig};
use simnet::Time;
use webload::PageModel;

/// The schedulers the comparison runs (minRTT is `Default`).
pub const QUIC_WEB_SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Default, SchedulerKind::Ecf, SchedulerKind::Blest];

/// A browser that opens every page object as its own stream at t=0 — the
/// QUIC analogue of `webload::BrowserApp`'s 6-connection request fan-out.
pub struct OpenAllApp {
    sizes: Vec<u64>,
    done: usize,
    /// When the last object finished (the page-load time; requests start
    /// at t=0 so the instant *is* the duration).
    pub page_load_time: Option<Time>,
}

impl OpenAllApp {
    /// Load `page`, one stream per object.
    pub fn new(page: &PageModel) -> Self {
        OpenAllApp { sizes: page.object_sizes.clone(), done: 0, page_load_time: None }
    }

    /// Every object fully delivered?
    pub fn done(&self) -> bool {
        self.done == self.sizes.len()
    }
}

impl TransportApp for OpenAllApp {
    fn on_start(&mut self, _now: Time, api: &mut dyn TransportApi) {
        for &bytes in &self.sizes {
            api.request(0, bytes);
        }
    }

    fn on_response_complete(
        &mut self,
        now: Time,
        _conn: usize,
        _req: ReqId,
        _api: &mut dyn TransportApi,
    ) {
        self.done += 1;
        if self.done == self.sizes.len() {
            self.page_load_time = Some(now);
        }
    }
}

/// Run the quic browse workload: the same cnn-like page as [`crate::run_browse`]
/// (page seed 2014), all 107 objects as streams on one connection.
pub fn run_quic_web(
    wifi: f64,
    lte: f64,
    scheduler: SchedulerKind,
    seed: u64,
) -> QuicTestbed<OpenAllApp> {
    let page = PageModel::cnn_like(2014);
    let cfg = QuicTestbedConfig::wifi_lte(wifi, lte, scheduler, seed);
    let mut tb = QuicTestbed::new(cfg, OpenAllApp::new(&page));
    tb.run_until(Time::from_secs(600));
    tb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quic_page_load_completes_all_objects() {
        let tb = run_quic_web(5.0, 5.0, SchedulerKind::Ecf, 1);
        assert!(tb.app().done());
        assert_eq!(tb.world().recorder.requests.len(), 107);
        assert!(tb.world().recorder.requests.iter().all(|r| r.completed.is_some()));
        assert!(tb.app().page_load_time.unwrap().as_secs_f64() > 0.0);
    }
}
