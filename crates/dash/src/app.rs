//! Adapter binding the [`Player`] state machine to the MPTCP testbed.

use mptcp::{Api, Application, ConnId};
use simnet::Time;

use crate::player::{Player, PlayerAction, PlayerConfig};

/// A DASH streaming session running over testbed connection `conn`.
pub struct DashApp {
    /// The player under test (exposes history/metrics after the run).
    pub player: Player,
    conn: ConnId,
    finished_at: Option<Time>,
}

impl DashApp {
    /// Stream the configured video over connection `conn`.
    pub fn new(cfg: PlayerConfig, conn: ConnId) -> Self {
        DashApp { player: Player::new(cfg), conn, finished_at: None }
    }

    /// When the last chunk completed, if the session is done.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    fn act(&mut self, now: Time, action: PlayerAction, api: &mut Api<'_>) {
        match action {
            PlayerAction::Request { bytes, .. } => {
                api.request(self.conn, bytes);
            }
            PlayerAction::WaitUntil(t) => api.set_timer(t, self.conn as u64),
            PlayerAction::Finished => self.finished_at = Some(now),
        }
    }
}

impl Application for DashApp {
    fn on_start(&mut self, now: Time, api: &mut Api<'_>) {
        let action = self.player.on_start(now);
        self.act(now, action, api);
    }

    fn on_response_complete(&mut self, now: Time, conn: ConnId, _req: u64, api: &mut Api<'_>) {
        debug_assert_eq!(conn, self.conn);
        let action = self.player.on_chunk_complete(now);
        self.act(now, action, api);
    }

    fn on_timer(&mut self, now: Time, _token: u64, api: &mut Api<'_>) {
        let action = self.player.on_wake(now);
        self.act(now, action, api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecf_core::SchedulerKind;
    use mptcp::{Testbed, TestbedConfig};

    fn stream(
        wifi: f64,
        lte: f64,
        kind: SchedulerKind,
        video_secs: f64,
        seed: u64,
    ) -> Testbed<DashApp> {
        let cfg = TestbedConfig::wifi_lte(wifi, lte, kind, seed);
        let pcfg = PlayerConfig { video_secs, ..PlayerConfig::default() };
        let mut tb = Testbed::new(cfg, DashApp::new(pcfg, 0));
        tb.run_until(Time::from_secs(video_secs as u64 * 4 + 120));
        tb
    }

    #[test]
    fn streams_to_completion_over_mptcp() {
        let tb = stream(4.2, 4.2, SchedulerKind::Ecf, 60.0, 1);
        assert!(tb.app().finished_at().is_some(), "video did not finish");
        assert_eq!(tb.app().player.history.len(), 12);
    }

    #[test]
    fn rich_network_reaches_high_bitrate() {
        let tb = stream(8.6, 8.6, SchedulerKind::Ecf, 120.0, 2);
        let avg = tb.app().player.avg_bitrate_mbps();
        assert!(avg > 4.0, "avg bitrate only {avg} Mbps on 17.2 Mbps aggregate");
    }

    #[test]
    fn starved_network_stays_low() {
        let tb = stream(0.3, 0.3, SchedulerKind::Default, 60.0, 3);
        let avg = tb.app().player.avg_bitrate_mbps();
        assert!(avg < 0.7, "avg bitrate {avg} impossible at 0.6 Mbps aggregate");
    }

    #[test]
    fn heterogeneous_paths_ecf_beats_default() {
        // The paper's headline effect, end to end: 0.3 Mbps WiFi (primary)
        // + 8.6 Mbps LTE. ECF must extract a higher average bit rate.
        let ecf = stream(0.3, 8.6, SchedulerKind::Ecf, 120.0, 4);
        let def = stream(0.3, 8.6, SchedulerKind::Default, 120.0, 4);
        let (be, bd) = (ecf.app().player.avg_bitrate_mbps(), def.app().player.avg_bitrate_mbps());
        assert!(
            be > bd * 1.1,
            "ECF ({be} Mbps) should clearly beat default ({bd} Mbps) under heterogeneity"
        );
    }
}
